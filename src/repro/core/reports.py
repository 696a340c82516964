"""Typed results of the deploy / collect APIs.

With retries and dedup in the pipeline a package list or a record count
no longer tells the whole story: :class:`DeployReport` and
:class:`CollectReport` carry the full accounting (attempts, retries,
acked agents, deduped batches).  Both are plain dataclasses -- read
``report.packages`` / ``report.records``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List

from repro.core.config import ControlPackage


@dataclass
class DeployReport:
    """Everything one :meth:`deploy` call did.  Attempt / ack fields
    fill in as the engine runs."""

    packages: List[ControlPackage]
    deploy_id: int = 0
    attempts: int = 0  # total deliveries attempted, first sends included
    retries: int = 0  # attempts beyond the first, per package, summed
    acked_nodes: List[str] = field(default_factory=list)
    failed_nodes: List[str] = field(default_factory=list)
    attempts_by_node: Dict[str, int] = field(default_factory=dict)

    @property
    def complete(self) -> bool:
        """Every package acked (meaningful once the engine has run)."""
        return len(self.acked_nodes) == len(self.packages) and not self.failed_nodes


@dataclass
class CollectReport:
    """Everything one offline collection did."""

    records: int = 0
    batches: int = 0
    records_by_node: Dict[str, int] = field(default_factory=dict)
    deduped_batches: int = 0
    skipped_nodes: List[str] = field(default_factory=list)  # crashed agents
