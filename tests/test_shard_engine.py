"""Compat-tier ShardedEngine: exact Engine-equivalence by construction.

A :class:`ShardedEngine` must be a drop-in for :class:`Engine`: same
execution order, same clock behavior, same cancellation and process
semantics -- whatever the shard count.  These tests run the
same scripted workloads on both engines and compare full execution
traces; the heavier scenario-level equivalence lives in
``test_shard_differential.py``.
"""

from __future__ import annotations

import heapq
import random

import pytest

from repro.sim import (
    DEFAULT_LOOKAHEAD_NS,
    Engine,
    ShardedEngine,
    engine_factory,
    new_engine,
)
from repro.sim import engine as engine_mod
from repro.sim.engine import SimulationError
from repro.obs.registry import MetricsRegistry


def _workload(engine, log):
    """A mixed workload: timers, re-scheduling, zero-delay wakeups,
    cancellations, ties at the same timestamp."""

    def emit(tag):
        log.append((engine.now, tag))

    def tick(remaining, interval, lane):
        emit(f"tick-{lane}")
        shadow = engine.timer(interval + 7, emit, f"shadow-{lane}")
        shadow.cancel()
        engine.schedule(0, emit, f"wake-{lane}")
        if remaining > 1:
            engine.schedule(interval, tick, remaining - 1, interval, lane)

    for lane in range(5):
        engine.schedule(lane * 10 + 1, tick, 40, 13 + lane, lane)
    # Deliberate timestamp ties across lanes: seq order must decide.
    for k in range(10):
        engine.schedule_at(500, emit, f"tie-{k}")


class TestOrderIdentity:
    @pytest.mark.parametrize("shards", [1, 2, 4, 7])
    def test_same_execution_trace(self, shards):
        base_log, shard_log = [], []
        base = Engine()
        _workload(base, base_log)
        base_executed = base.run()

        sharded = ShardedEngine(shards=shards)
        _workload(sharded, shard_log)
        shard_executed = sharded.run()

        assert shard_log == base_log
        assert shard_executed == base_executed
        assert sharded.now == base.now

    def test_until_and_clock_advance(self):
        for cls in (Engine, lambda: ShardedEngine(shards=3)):
            engine = cls()
            log = []
            engine.schedule(100, log.append, "a")
            engine.schedule(300, log.append, "b")
            executed = engine.run(until=200)
            assert log == ["a"]
            assert executed == 1
            # The clock advances to `until` when no event lands on it.
            assert engine.now == 200
            engine.run(until=300)
            assert log == ["a", "b"]
            assert engine.now == 300

    def test_max_events(self):
        engine = ShardedEngine(shards=4)
        log = []
        for i in range(20):
            engine.schedule(i + 1, log.append, i)
        assert engine.run(max_events=5) == 5
        assert log == [0, 1, 2, 3, 4]
        assert engine.run() == 15

    def test_max_events_is_one_budget_across_rounds(self):
        engine = ShardedEngine(shards=2, lookahead_ns=10)
        log = []
        for t in (1, 2, 50, 51, 52, 100):
            engine.schedule_at(t, log.append, t)
        # Round 1..11 runs two events, round 50..60 gets what is left: one.
        assert engine.run(max_events=3) == 3
        assert (log, engine.rounds, engine.now) == ([1, 2, 50], 2, 50)
        assert engine.run(max_events=2) == 2  # a fresh round, at 51
        assert (log[3:], engine.rounds) == ([51, 52], 3)
        assert engine.run() == 1
        assert (engine.rounds, engine.events_by_shard) == (4, [6, 0])

    def test_zero_delay_events_run_in_schedule_order(self):
        for engine in (Engine(), ShardedEngine(shards=2)):
            order = []
            engine.schedule(0, order.append, "first")
            engine.schedule(0, order.append, "second")
            engine.run()
            assert order == ["first", "second"]


class TestRunBound:
    """``until`` is a time like any other: truncated to integer
    nanoseconds, and a NaN or infinite bound is refused before any event
    runs -- a self-rescheduling timer would otherwise never let the run
    return."""

    ENGINES = pytest.mark.parametrize(
        "make", [Engine, lambda: ShardedEngine(shards=2)], ids=["Engine", "ShardedEngine"]
    )

    @ENGINES
    @pytest.mark.parametrize("until", [float("nan"), float("inf"), float("-inf")],
                             ids=["nan", "inf", "-inf"])
    def test_non_finite_until_is_refused(self, make, until):
        engine = make()
        ticks = []

        def heartbeat():
            ticks.append(engine.now)
            engine.schedule(10, heartbeat)

        engine.schedule(10, heartbeat)
        with pytest.raises(SimulationError, match="invalid run bound"):
            engine.run(until=until, max_events=1_000)
        assert (ticks, engine.now, engine.events_executed) == ([], 0, 0)
        assert engine.run(until=35) == 3  # the engine is not wedged

    @ENGINES
    def test_fractional_until_keeps_an_integer_clock(self, make):
        engine = make()
        seen = []
        engine.schedule(1, seen.append, "a")
        engine.schedule(2, seen.append, "b")
        assert engine.run(until=1.5) == 1
        assert seen == ["a"]
        assert engine.now == 1 and type(engine.now) is int


class TestCallbackRaises:
    """An exception escaping a callback must not lose the events that
    ran before it from any counter, nor wedge the engine."""

    @pytest.mark.parametrize("make", [Engine, lambda: ShardedEngine(shards=2)],
                             ids=["Engine", "ShardedEngine"])
    def test_executed_events_are_counted_and_the_run_resumes(self, make):
        engine = make()
        log = []

        def boom():
            raise RuntimeError("boom")

        for delay in (1, 2, 3):
            engine.schedule(delay, log.append, delay)
        engine.timer(4, boom)
        engine.schedule(5, log.append, 5)
        doomed = engine.timer(6, log.append, 6)
        before = Engine.global_events_executed()
        with pytest.raises(RuntimeError, match="boom"):
            engine.run()

        # The three callbacks that returned are counted; the raiser is not.
        assert log == [1, 2, 3]
        assert engine.events_executed == 3
        assert Engine.global_events_executed() - before == 3
        assert (engine.now, engine.pending(), engine.next_time()) == (4, 2, 5)
        doomed.cancel()
        assert engine.pending() == 1
        # run() is callable again (not "reentrant") and picks up where it stopped.
        assert engine.run() == 1
        assert log == [1, 2, 3, 5]
        assert engine.events_executed == 4
        if isinstance(engine, ShardedEngine):
            assert engine.events_by_shard == [4, 0]
            assert sum(engine.events_by_shard) == engine.events_executed
            assert engine.rounds == 2  # the resumed run() opened its own

    def test_rejected_reentrant_run_leaves_the_open_round_alone(self):
        engine = ShardedEngine(shards=2, lookahead_ns=100)

        def nested():
            with pytest.raises(SimulationError):
                engine.run(until=5)
            engine.schedule(10, lambda: None)

        engine.schedule(1, nested)
        engine.schedule(2, lambda: None)
        assert engine.run() == 3
        # The rejected run() opened no round: the one open round, 1..101,
        # holds all three events, the nested one's included.
        assert engine.rounds == 1
        assert engine.last_horizon_ns == 101
        assert engine.events_by_shard == [3, 0]

    def test_raise_in_mid_round_keeps_the_round_and_counts_what_returned(self):
        engine = ShardedEngine(shards=2, lookahead_ns=100)
        log = []

        def boom():
            raise RuntimeError("boom")

        for t in (10, 20, 250):
            engine.schedule_at(t, log.append, t)
        engine.schedule_at(30, boom)
        engine.schedule_at(40, log.append, 40)
        with pytest.raises(RuntimeError, match="boom"):
            engine.run(until=1_000)
        assert (engine.rounds, engine.last_horizon_ns) == (1, 110)
        assert engine.events_by_shard == [2, 0] and engine.events_executed == 2
        # The clock stays at the raiser, not at `until` or the horizon.
        assert engine.now == 30
        assert engine.run(until=1_000) == 2
        assert log == [10, 20, 40, 250]
        # The resumed run() opened its own round at 40, and one more at 250.
        assert (engine.rounds, engine.last_horizon_ns) == (3, 350)
        assert engine.events_by_shard == [4, 0]
        assert engine.now == 1_000


class TestShardPlacement:
    """What is left of placement: this tier places nothing, so
    scheduling is the base engine's and every event is shard 0's."""

    def test_scheduled_callbacks_sit_in_the_heap_as_themselves(self):
        engine = ShardedEngine(shards=2)

        def callback(*args):
            pass

        engine.schedule(5, callback, "x")
        engine.schedule_at(7, callback)
        timer = engine.timer(9, callback)
        assert sorted(engine._heap) == [
            (5, 0, callback, ("x",)), (7, 1, callback, ()), (9, 2, None, timer),
        ]
        assert timer.fn is callback

    def test_no_scheduling_override(self):
        for name in ("schedule", "schedule_at", "timer", "_fire", "pinned"):
            assert name not in vars(ShardedEngine), name

    def test_every_event_is_shard_zeros(self):
        engine = ShardedEngine(shards=4)

        def child():
            engine.schedule(5, lambda: None)

        engine.schedule(10, child)
        engine.run()
        assert engine.events_by_shard == [2, 0, 0, 0]
        assert engine.boundary_events_by_shard == [0, 0, 0, 0]
        assert engine.boundary_events == 0

    def test_constructor_validation(self):
        with pytest.raises(SimulationError):
            ShardedEngine(shards=0)
        with pytest.raises(SimulationError):
            ShardedEngine(lookahead_ns=0)

    def test_rounds_bounded_by_lookahead(self):
        engine = ShardedEngine(shards=2, lookahead_ns=100)
        for t in (10, 50, 500, 510, 5000):
            engine.schedule_at(t, lambda: None)
        engine.run()
        # (10,50) | (500,510) | (5000,) -> three lookahead rounds.
        assert engine.rounds == 3
        assert engine.last_horizon_ns == 5100
        # Without `until` the clock stays at the last event, not the horizon.
        assert engine.now == 5000

    def test_horizon_is_clamped_to_until(self):
        engine = ShardedEngine(shards=2, lookahead_ns=100)
        log = []
        for t in (10, 60):
            engine.schedule_at(t, log.append, t)
        assert engine.run(until=50) == 1
        assert (log, engine.rounds, engine.last_horizon_ns, engine.now) == ([10], 1, 50, 50)


class TestEngineFactory:
    def test_default_is_plain_engine(self):
        assert type(new_engine()) is Engine

    def test_factory_scopes_and_restores(self):
        with engine_factory(lambda: ShardedEngine(shards=3)):
            inside = new_engine()
            assert isinstance(inside, ShardedEngine)
            assert inside.num_shards == 3
        assert type(new_engine()) is Engine

    def test_factory_restores_on_error(self):
        with pytest.raises(RuntimeError):
            with engine_factory(lambda: ShardedEngine(shards=2)):
                raise RuntimeError("boom")
        assert type(new_engine()) is Engine


class TestMetrics:
    def test_attach_metrics_registers_shard_stage(self):
        from repro.obs import contract

        engine = ShardedEngine(shards=2)
        registry = MetricsRegistry()
        engine.attach_metrics(registry)
        engine.schedule(10, lambda: None)
        engine.schedule(20, lambda: None)
        engine.run()
        flat = registry.flatten()
        assert flat[contract.SHARD_ROUNDS.name] > 0
        assert flat[contract.SHARD_EVENTS.name + '{shard="0"}'] == 2.0
        assert flat[contract.SHARD_EVENTS.name + '{shard="1"}'] == 0.0
        for shard in ("0", "1"):
            assert flat[contract.SHARD_BOUNDARY.name + f'{{shard="{shard}"}}'] == 0.0
        assert flat[contract.SHARD_WORKERS.name] == 0.0
        assert flat[contract.SHARD_HORIZON.name] == engine.last_horizon_ns

    def test_default_lookahead_exported(self):
        assert ShardedEngine().lookahead_ns == DEFAULT_LOOKAHEAD_NS


def _heap_entries(engine) -> int:
    return len(engine._heap)


def _engines():
    return [Engine()] + [ShardedEngine(shards=shards) for shards in (1, 2, 4)]


class TestDeadTimerCompaction:
    """Cancelled timers are dropped once they dominate the heap, without
    changing what runs, when, or what ``pending()`` says."""

    def test_rearm_cycles_keep_the_heap_bounded(self):
        """The TCP RTO pattern: every ACK cancels the timer and re-arms it."""
        cycles = 10_000
        for engine in _engines():
            state = {"timer": None, "acks": 0, "timeouts": 0, "worst": 0}

            def timeout():
                state["timeouts"] += 1

            def ack():
                state["acks"] += 1
                if state["timer"] is not None:
                    state["timer"].cancel()
                state["timer"] = engine.timer(200_000_000, timeout)
                if state["acks"] < cycles:
                    engine.schedule(10_000, ack)
                state["worst"] = max(state["worst"], _heap_entries(engine))
                assert engine.pending() <= 2

            engine.schedule(0, ack)
            assert engine.run() == cycles + 1
            assert (state["acks"], state["timeouts"]) == (cycles, 1)
            # live + the dead a heap may hold before it is compacted
            bound = (1 + engine_mod.COMPACT_DEAD_FACTOR) * 2 + engine_mod.COMPACT_MIN_DEAD + 1
            assert state["worst"] <= bound, (engine, state["worst"])

    @staticmethod
    def _scripted_run(engine, seed=7):
        """A seeded schedule/cancel script; returns everything observable."""
        rng = random.Random(seed)
        log, children, timers, clocks = [], [], [], []

        def cancel_one(handles, chance):
            if handles and rng.random() < chance:
                handles.pop(rng.randrange(len(handles))).cancel()

        def step(tag, depth):
            log.append((engine.now, tag))
            cancel_one(children, 0.1)
            for _ in range(3):  # long timers, nearly always cancelled: the dead weight
                cancel_one(timers, 0.95)
                timers.append(engine.timer(10**9, log.append, (tag, "rto")))
            if depth:
                for child in range(rng.randrange(1, 4)):
                    delay = rng.choice([0, 0, 1, 5, 5, 40, 1000])
                    children.append(engine.timer(delay, step, f"{tag}.{child}", depth - 1))

        for lane in range(4):
            engine.schedule(lane, step, f"lane{lane}", 8)
        executed = []
        for until in (3, 50, 2_000, 10**8):  # the last stops short of the timers
            executed.append(engine.run(until=until))
            clocks.append((engine.now, engine.pending()))
        executed.append(engine.run())
        return log, executed, clocks, engine.now, engine.pending()

    @pytest.mark.parametrize("thresholds", [(0, 0), (64, 4)],
                             ids=["compact-every-cancel", "default"])
    def test_scripted_run_is_identical_with_and_without_compaction(
        self, monkeypatch, thresholds
    ):
        monkeypatch.setattr(engine_mod, "COMPACT_MIN_DEAD", 10**9)
        reference = self._scripted_run(Engine())
        assert len(reference[0]) > 500

        compactions = []
        heapify = heapq.heapify
        monkeypatch.setattr(
            heapq, "heapify", lambda heap: (compactions.append(len(heap)), heapify(heap))[1]
        )
        monkeypatch.setattr(engine_mod, "COMPACT_MIN_DEAD", thresholds[0])
        monkeypatch.setattr(engine_mod, "COMPACT_DEAD_FACTOR", thresholds[1])
        for engine in _engines():
            compactions.clear()
            assert self._scripted_run(engine) == reference, engine
            assert compactions, f"{engine} never compacted"

    def test_compaction_keeps_only_live_events(self):
        engine = Engine()
        keep = [engine.timer(10 + i, lambda: None) for i in range(3)]
        dead = [engine.timer(1_000 + i, lambda: None) for i in range(200)]
        for timer in dead:
            timer.cancel()
        assert len(engine._heap) <= 3 + engine_mod.COMPACT_MIN_DEAD
        live = [entry[3] for entry in sorted(engine._heap) if entry[3].fn is not None]
        assert live == keep
        assert engine.pending() == 3
        assert engine.run() == 3
