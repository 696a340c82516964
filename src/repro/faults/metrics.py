"""The ``faults`` stage of the metrics contract, in one helper.

Dispatcher, agents, collector, ring buffers and the injector all
account their retry / fault events through a shared
:class:`FaultMetrics` so the whole stage registers as a unit
(``register_spec`` is get-or-create, so several components constructing
one against the same registry is fine).  Built without a registry, the
helper counts into a private one.
"""

from __future__ import annotations

from typing import Optional

from repro.obs import contract as obs_contract
from repro.obs.registry import MetricsRegistry


class FaultMetrics:
    """Increment helpers over the faults-stage contract metrics."""

    def __init__(self, registry: Optional[MetricsRegistry] = None):
        registry = registry if registry is not None else MetricsRegistry()
        self._deploy_attempts = registry.register_spec(
            obs_contract.RETRY_DEPLOY_ATTEMPTS)
        self._deploy_retries = registry.register_spec(
            obs_contract.RETRY_DEPLOY_RETRIES)
        self._ship_attempts = registry.register_spec(obs_contract.RETRY_SHIP_ATTEMPTS)
        self._ship_retries = registry.register_spec(obs_contract.RETRY_SHIP_RETRIES)
        self._control_injected = registry.register_spec(
            obs_contract.FAULT_CONTROL_INJECTED)
        self._shipment_injected = registry.register_spec(
            obs_contract.FAULT_SHIPMENT_INJECTED)
        self._crashes = registry.register_spec(obs_contract.FAULT_AGENT_CRASHES)
        self._restarts = registry.register_spec(obs_contract.FAULT_AGENT_RESTARTS)
        self._records_lost = registry.register_spec(obs_contract.FAULT_RECORDS_LOST)
        self._ring_pressure = registry.register_spec(obs_contract.FAULT_RING_PRESSURE)
        self._deduped = registry.register_spec(obs_contract.FAULT_SHIPMENT_DEDUPED)

    # -- retries -----------------------------------------------------------

    def deploy_attempt(self, node: str) -> None:
        self._deploy_attempts.inc(labels=(node,))

    def deploy_retry(self, node: str) -> None:
        self._deploy_retries.inc(labels=(node,))

    def ship_attempt(self, node: str) -> None:
        self._ship_attempts.inc(labels=(node,))

    def ship_retry(self, node: str) -> None:
        self._ship_retries.inc(labels=(node,))

    # -- injected faults ---------------------------------------------------

    def control_injected(self, kind: str) -> None:
        self._control_injected.inc(labels=(kind,))

    def shipment_injected(self, kind: str) -> None:
        self._shipment_injected.inc(labels=(kind,))

    def agent_crash(self, node: str) -> None:
        self._crashes.inc(labels=(node,))

    def agent_restart(self, node: str) -> None:
        self._restarts.inc(labels=(node,))

    def records_lost(self, node: str, reason: str, count: int) -> None:
        if count > 0:
            self._records_lost.inc(count, labels=(node, reason))

    def ring_pressure(self, node: str) -> None:
        self._ring_pressure.inc(labels=(node,))

    def shipment_deduped(self, node: str) -> None:
        self._deduped.inc(labels=(node,))
