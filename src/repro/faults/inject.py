"""Turning a :class:`~repro.faults.plan.FaultPlan` into actual faults.

The injector owns two independent RNG streams forked off the plan's
seed (``faults/control`` and ``faults/shipment``), so adding fault
injection to a run never perturbs any other random consumer (workload
jitter, trace IDs, ...) and two runs with the same seed + plan draw
identical faults.  Each per-message decision consumes exactly three
draws (loss, duplicate, delay) regardless of outcome, keeping the
streams aligned however the pipeline reacts.

Scheduled faults (crashes, ring pressure) are armed on the engine via
:meth:`Engine.at_or_now`, resolving the target agent lazily at fire
time -- an agent crashed before its pressure window simply skips it.
"""

from __future__ import annotations

from typing import Callable, NamedTuple, Optional, TYPE_CHECKING

from repro.faults.metrics import FaultMetrics
from repro.faults.plan import ChannelFaults, FaultPlan
from repro.obs.registry import MetricsRegistry
from repro.sim.engine import Engine
from repro.sim.rng import SeededRNG

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.agent import Agent


class Decision(NamedTuple):
    """The fate of one message on a faulty channel."""

    drop: bool
    duplicate: bool
    extra_delay_ns: int


CLEAN_DECISION = Decision(False, False, 0)


class FaultInjector:
    """Draws per-message fault decisions and schedules planned faults."""

    def __init__(
        self,
        engine: Engine,
        plan: FaultPlan,
        registry: Optional[MetricsRegistry] = None,
        metrics: Optional[FaultMetrics] = None,
    ):
        self.engine = engine
        self.plan = plan
        self.metrics = metrics if metrics is not None else FaultMetrics(registry)
        self._control_rng = SeededRNG(plan.seed, "faults/control")
        self._shipment_rng = SeededRNG(plan.seed, "faults/shipment")
        self._armed = False

    # -- per-message decisions ---------------------------------------------

    def _decide(self, faults: ChannelFaults, rng: SeededRNG) -> Decision:
        if not faults.active:
            return CLEAN_DECISION
        # Always burn three draws so the stream stays aligned no matter
        # which faults fire (see the module docstring).
        drop = rng.random() < faults.loss_prob
        duplicate = rng.random() < faults.dup_prob
        delay_draw = rng.random()
        extra = int(delay_draw * faults.delay_ns_max) if faults.delay_ns_max else 0
        return Decision(drop, duplicate and not drop, 0 if drop else extra)

    def _count(self, decision: Decision, record: Callable[[str], None]) -> Decision:
        if decision.drop:
            record("loss")
        if decision.duplicate:
            record("duplicate")
        if decision.extra_delay_ns > 0:
            record("delay")
        return decision

    def control_decision(self) -> Decision:
        """Fate of one dispatcher<->agent control message (either way:
        package delivery or install ack)."""
        decision = self._decide(self.plan.control, self._control_rng)
        return self._count(decision, self.metrics.control_injected)

    def shipment_decision(self) -> Decision:
        """Fate of one agent->collector batch (or its ack)."""
        decision = self._decide(self.plan.shipment, self._shipment_rng)
        return self._count(decision, self.metrics.shipment_injected)

    # -- scheduled faults --------------------------------------------------

    def arm(self, agent_lookup: Callable[[str], "Optional[Agent]"]) -> None:
        """Schedule the plan's crashes and pressure windows (idempotent).

        ``agent_lookup`` resolves a node name to its agent at fire time,
        so agents added after arming are still reachable.
        """
        if self._armed:
            return
        self._armed = True
        for crash in self.plan.crashes:
            self.engine.at_or_now(crash.at_ns, self._crash, crash, agent_lookup)
        for window in self.plan.ring_pressure:
            self.engine.at_or_now(
                window.at_ns, self._apply_pressure, window, agent_lookup)

    def _crash(self, crash, agent_lookup) -> None:
        agent = agent_lookup(crash.node)
        if agent is None:
            return
        agent.crash()
        self.metrics.agent_crash(crash.node)
        if crash.restart_after_ns is not None:
            self.engine.schedule(crash.restart_after_ns, self._restart, crash.node,
                                 agent_lookup)

    def _restart(self, node: str, agent_lookup) -> None:
        agent = agent_lookup(node)
        if agent is None:
            return
        agent.restart()
        self.metrics.agent_restart(node)

    def _apply_pressure(self, window, agent_lookup) -> None:
        agent = agent_lookup(window.node)
        ring = agent.ring if agent is not None else None
        if ring is None or getattr(agent, "crashed", False):
            return
        reserved = ring.reserve(window.reserve_bytes)
        if reserved <= 0:
            return
        self.metrics.ring_pressure(window.node)
        # Release exactly what was reserved, on the same ring object --
        # if the agent reinstalled meanwhile, the stale release is a
        # harmless no-op on a retired buffer.
        self.engine.schedule(window.duration_ns, ring.release, reserved)
