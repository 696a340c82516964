"""Fault plans and the injector: validation, determinism, arming."""

import pytest

from repro.faults import (
    CLEAN_DECISION,
    ChannelFaults,
    CrashEvent,
    FaultInjector,
    FaultPlan,
    FaultPlanError,
    RingPressureEvent,
)
from repro.obs.registry import MetricsRegistry
from repro.sim.engine import Engine


class TestPlanValidation:
    def test_channel_probabilities_bounded(self):
        with pytest.raises(FaultPlanError):
            ChannelFaults(loss_prob=1.5)
        with pytest.raises(FaultPlanError):
            ChannelFaults(dup_prob=-0.1)
        with pytest.raises(FaultPlanError):
            ChannelFaults(delay_ns_max=-1)

    def test_crash_event_validation(self):
        with pytest.raises(FaultPlanError):
            CrashEvent(node="", at_ns=0)
        with pytest.raises(FaultPlanError):
            CrashEvent(node="n", at_ns=-1)
        with pytest.raises(FaultPlanError):
            CrashEvent(node="n", at_ns=0, restart_after_ns=0)
        # None = stays down; that's fine.
        CrashEvent(node="n", at_ns=0, restart_after_ns=None)

    def test_ring_pressure_validation(self):
        with pytest.raises(FaultPlanError):
            RingPressureEvent(node="", at_ns=0, reserve_bytes=1, duration_ns=1)
        with pytest.raises(FaultPlanError):
            RingPressureEvent(node="n", at_ns=0, reserve_bytes=0, duration_ns=1)
        with pytest.raises(FaultPlanError):
            RingPressureEvent(node="n", at_ns=0, reserve_bytes=1, duration_ns=0)


class TestDecisionStreams:
    def _plan(self, seed=11):
        return FaultPlan(
            seed=seed,
            control=ChannelFaults(loss_prob=0.3, dup_prob=0.2, delay_ns_max=5_000),
            shipment=ChannelFaults(loss_prob=0.2, dup_prob=0.3, delay_ns_max=9_000),
        )

    def test_same_seed_same_decisions(self):
        a = FaultInjector(Engine(), self._plan())
        b = FaultInjector(Engine(), self._plan())
        assert [a.control_decision() for _ in range(200)] == [
            b.control_decision() for _ in range(200)
        ]
        assert [a.shipment_decision() for _ in range(200)] == [
            b.shipment_decision() for _ in range(200)
        ]

    def test_different_seeds_diverge(self):
        a = FaultInjector(Engine(), self._plan(seed=11))
        b = FaultInjector(Engine(), self._plan(seed=12))
        assert [a.control_decision() for _ in range(64)] != [
            b.control_decision() for _ in range(64)
        ]

    def test_streams_are_independent(self):
        """Draining one channel's stream must not shift the other's."""
        a = FaultInjector(Engine(), self._plan())
        b = FaultInjector(Engine(), self._plan())
        for _ in range(100):
            a.control_decision()  # only a consumes control draws
        assert [a.shipment_decision() for _ in range(50)] == [
            b.shipment_decision() for _ in range(50)
        ]

    def test_inactive_channel_is_clean(self):
        plan = FaultPlan(seed=5, shipment=ChannelFaults(loss_prob=0.5))
        injector = FaultInjector(Engine(), plan)
        assert all(
            injector.control_decision() is CLEAN_DECISION for _ in range(20)
        )

    def test_certain_loss_drops_everything(self):
        plan = FaultPlan(
            seed=5,
            control=ChannelFaults(loss_prob=1.0, dup_prob=1.0, delay_ns_max=1_000),
        )
        injector = FaultInjector(Engine(), plan)
        for _ in range(50):
            decision = injector.control_decision()
            assert decision.drop
            # A dropped message is simply gone: never also duplicated
            # or delayed.
            assert not decision.duplicate
            assert decision.extra_delay_ns == 0
        assert CLEAN_DECISION == (False, False, 0)

    def test_injected_kinds_counted(self):
        registry = MetricsRegistry()
        plan = FaultPlan(seed=5, control=ChannelFaults(loss_prob=1.0))
        injector = FaultInjector(Engine(), plan, registry=registry)
        for _ in range(7):
            injector.control_decision()
        metric = registry.get("vnt_fault_control_injected_total")
        assert dict(metric.samples()) == {("loss",): 7.0}


class _StubAgent:
    def __init__(self, ring=None):
        self.ring = ring
        self.crashed = False
        self.crashes = 0
        self.restarts = 0

    def crash(self):
        self.crashed = True
        self.crashes += 1

    def restart(self):
        self.crashed = False
        self.restarts += 1


class TestArming:
    def test_crash_and_restart_scheduled(self):
        engine = Engine()
        agent = _StubAgent()
        plan = FaultPlan(
            seed=1, crashes=[CrashEvent("n", at_ns=1_000, restart_after_ns=500)]
        )
        injector = FaultInjector(engine, plan)
        injector.arm(lambda name: agent if name == "n" else None)
        injector.arm(lambda name: agent)  # idempotent: no double crash
        engine.run(until=1_200)
        assert agent.crashed and agent.crashes == 1
        engine.run(until=2_000)
        assert not agent.crashed and agent.restarts == 1
        assert agent.crashes == 1

    def test_past_crash_time_clamps_to_now(self):
        engine = Engine()
        engine.run(until=5_000)
        agent = _StubAgent()
        plan = FaultPlan(seed=1, crashes=[CrashEvent("n", at_ns=100)])
        FaultInjector(engine, plan).arm(lambda name: agent)
        engine.run(until=5_001)
        assert agent.crashed

    def test_unknown_node_is_ignored(self):
        engine = Engine()
        plan = FaultPlan(seed=1, crashes=[CrashEvent("ghost", at_ns=10)])
        FaultInjector(engine, plan).arm(lambda name: None)
        engine.run(until=100)  # must not raise

    def test_ring_pressure_window(self):
        from repro.core.ringbuffer import TraceRingBuffer

        engine = Engine()
        ring = TraceRingBuffer(
            engine, capacity_bytes=1024, flush_interval_ns=1_000_000,
            on_flush=lambda batch: None,
        )
        agent = _StubAgent(ring=ring)
        plan = FaultPlan(
            seed=1,
            ring_pressure=[
                RingPressureEvent("n", at_ns=100, reserve_bytes=1000,
                                  duration_ns=400)
            ],
        )
        registry = MetricsRegistry()
        FaultInjector(engine, plan, registry=registry).arm(lambda name: agent)
        engine.run(until=200)
        assert ring.effective_capacity_bytes == 24
        assert registry.total("vnt_fault_ring_pressure_total") == 1
        engine.run(until=600)  # window over: full capacity restored
        assert ring.effective_capacity_bytes == 1024

    def test_pressure_skips_crashed_agent(self):
        engine = Engine()
        agent = _StubAgent(ring=None)
        agent.crashed = True
        plan = FaultPlan(
            seed=1,
            ring_pressure=[RingPressureEvent("n", 10, 64, 100)],
        )
        FaultInjector(engine, plan).arm(lambda name: agent)
        engine.run(until=200)  # no ring, crashed: a no-op
