"""Declarative fault plans.

A :class:`FaultPlan` describes *every* fault a run will experience, up
front and deterministically: loss / duplication / extra delay on the
dispatcher<->agent control channel and the agent->collector shipment
channel, agent crashes (with optional restarts) at scheduled virtual
times, and forced ring-buffer pressure windows.  The plan is plain
data; :class:`~repro.faults.inject.FaultInjector` turns it into engine
events and per-message drop/duplicate/delay decisions drawn from
:class:`~repro.sim.rng.SeededRNG` streams keyed off ``plan.seed`` --
so the same plan and seed reproduce the same faults byte-for-byte
(tested by the CI determinism job; see ``docs/FAULTS.md``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List


class FaultPlanError(ValueError):
    """Malformed fault plan."""


def _check_prob(name: str, value: float) -> None:
    if not 0.0 <= value <= 1.0:
        raise FaultPlanError(f"{name} must be in [0, 1], got {value}")


@dataclass
class ChannelFaults:
    """Loss / duplication / extra delay on one message channel.

    ``loss_prob`` drops a message entirely, ``dup_prob`` delivers a
    second copy, and ``delay_ns_max`` adds a uniform extra delay in
    ``[0, delay_ns_max]`` on top of the channel's nominal latency.
    Loss and duplication are drawn independently per message; a message
    can be both delayed and duplicated, but a dropped message is simply
    gone (its retry, if any, draws fresh decisions).
    """

    loss_prob: float = 0.0
    dup_prob: float = 0.0
    delay_ns_max: int = 0

    def __post_init__(self) -> None:
        _check_prob("loss_prob", self.loss_prob)
        _check_prob("dup_prob", self.dup_prob)
        if self.delay_ns_max < 0:
            raise FaultPlanError(f"delay_ns_max must be >= 0, got {self.delay_ns_max}")

    @property
    def active(self) -> bool:
        return self.loss_prob > 0 or self.dup_prob > 0 or self.delay_ns_max > 0


@dataclass
class CrashEvent:
    """Crash ``node``'s agent at ``at_ns``; restart it ``restart_after_ns``
    later (``None`` = the agent stays down for the rest of the run).

    A crash discards the agent's ring buffer and local store *without*
    flushing (unlike ``teardown()``, which drains first); the discarded
    records are counted under ``vnt_fault_records_lost_total`` with
    reasons ``crash_ring`` / ``crash_store``.
    """

    node: str
    at_ns: int
    restart_after_ns: "int | None" = None

    def __post_init__(self) -> None:
        if not self.node:
            raise FaultPlanError("crash event needs a node name")
        if self.at_ns < 0:
            raise FaultPlanError(f"crash at_ns must be >= 0, got {self.at_ns}")
        if self.restart_after_ns is not None and self.restart_after_ns <= 0:
            raise FaultPlanError(
                f"restart_after_ns must be > 0, got {self.restart_after_ns}"
            )


@dataclass
class RingPressureEvent:
    """Reserve ``reserve_bytes`` of ``node``'s ring buffer for
    ``duration_ns`` starting at ``at_ns`` -- simulating a competing
    kernel consumer squeezing the buffer so the configured degradation
    policy (drop-oldest / drop-newest / sample) actually engages.
    """

    node: str
    at_ns: int
    reserve_bytes: int
    duration_ns: int

    def __post_init__(self) -> None:
        if not self.node:
            raise FaultPlanError("ring pressure event needs a node name")
        if self.at_ns < 0:
            raise FaultPlanError(f"pressure at_ns must be >= 0, got {self.at_ns}")
        if self.reserve_bytes <= 0:
            raise FaultPlanError(
                f"reserve_bytes must be > 0, got {self.reserve_bytes}"
            )
        if self.duration_ns <= 0:
            raise FaultPlanError(f"duration_ns must be > 0, got {self.duration_ns}")


@dataclass
class FaultPlan:
    """Everything that will go wrong in one run, declared up front."""

    seed: int = 0
    control: ChannelFaults = field(default_factory=ChannelFaults)
    shipment: ChannelFaults = field(default_factory=ChannelFaults)
    crashes: List[CrashEvent] = field(default_factory=list)
    ring_pressure: List[RingPressureEvent] = field(default_factory=list)

    def __post_init__(self) -> None:
        self.seed = int(self.seed)
