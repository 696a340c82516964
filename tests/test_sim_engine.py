"""Engine: event ordering, timers, determinism."""

import pytest

from repro.sim.engine import Engine, SimulationError


class TestScheduling:
    def test_events_run_in_time_order(self, engine):
        seen = []
        engine.schedule(30, seen.append, "c")
        engine.schedule(10, seen.append, "a")
        engine.schedule(20, seen.append, "b")
        engine.run()
        assert seen == ["a", "b", "c"]

    def test_ties_run_in_scheduling_order(self, engine):
        seen = []
        for tag in ("first", "second", "third"):
            engine.schedule(5, seen.append, tag)
        engine.run()
        assert seen == ["first", "second", "third"]

    def test_now_advances_to_event_time(self, engine):
        times = []
        engine.schedule(100, lambda: times.append(engine.now))
        engine.schedule(250, lambda: times.append(engine.now))
        engine.run()
        assert times == [100, 250]

    def test_negative_delay_rejected(self, engine):
        with pytest.raises(SimulationError):
            engine.schedule(-1, lambda: None)

    @pytest.mark.parametrize("value", [float("nan"), float("inf")], ids=["nan", "inf"])
    @pytest.mark.parametrize("entry", ["schedule", "schedule_at", "timer", "at_or_now"])
    def test_non_finite_time_is_a_simulation_error(self, engine, entry, value):
        with pytest.raises(SimulationError):
            getattr(engine, entry)(value, lambda: None)
        assert engine.pending() == 0

    def test_schedule_at_past_rejected(self, engine):
        engine.schedule(50, lambda: None)
        engine.run()
        with pytest.raises(SimulationError):
            engine.schedule_at(10, lambda: None)

    def test_cancelled_event_does_not_fire(self, engine):
        seen = []
        timer = engine.timer(10, seen.append, "x")
        timer.cancel()
        engine.run()
        assert seen == []

    def test_cancel_is_idempotent(self, engine):
        timer = engine.timer(10, lambda: None)
        timer.cancel()
        timer.cancel()
        engine.run()

    def test_run_until_stops_at_boundary(self, engine):
        seen = []
        engine.schedule(10, seen.append, "in")
        engine.schedule(1000, seen.append, "out")
        engine.run(until=100)
        assert seen == ["in"]
        assert engine.now == 100
        assert engine.pending() == 1

    def test_run_until_then_continue(self, engine):
        seen = []
        engine.schedule(10, seen.append, 1)
        engine.schedule(200, seen.append, 2)
        engine.run(until=100)
        engine.run()
        assert seen == [1, 2]

    def test_max_events_bound(self, engine):
        seen = []
        for i in range(10):
            engine.schedule(i, seen.append, i)
        engine.run(max_events=4)
        assert seen == [0, 1, 2, 3]

    def test_events_scheduled_during_run_execute(self, engine):
        seen = []

        def outer():
            engine.schedule(5, seen.append, "inner")

        engine.schedule(1, outer)
        engine.run()
        assert seen == ["inner"]

    def test_reentrant_run_rejected(self, engine):
        def inner():
            with pytest.raises(SimulationError):
                engine.run()

        engine.schedule(1, inner)
        engine.run()

    def test_pending_counts_uncancelled(self, engine):
        t1 = engine.timer(10, lambda: None)
        engine.schedule(20, lambda: None)
        t1.cancel()
        assert engine.pending() == 1

    def test_until_advances_clock_past_only_cancelled_events(self, engine):
        # Regression: a heap holding nothing but cancelled events must not
        # pin the clock -- `now` has to advance all the way to `until`.
        for delay in (10, 20, 30):
            engine.timer(delay, lambda: None).cancel()
        engine.run(until=100)
        assert engine.now == 100
        assert engine.pending() == 0

    def test_until_advances_when_live_events_lie_beyond(self, engine):
        engine.timer(5, lambda: None).cancel()
        engine.schedule(500, lambda: None)
        engine.run(until=100)
        assert engine.now == 100
        assert engine.pending() == 1

    def test_cancel_after_fire_is_a_noop(self, engine):
        timer = engine.timer(10, lambda: None)
        engine.schedule(20, lambda: None)
        engine.run()
        timer.cancel()  # already fired; must not corrupt the live count
        timer.cancel()
        assert engine.pending() == 0

    def test_cancel_during_run_keeps_pending_exact(self, engine):
        victim = engine.timer(50, lambda: None)
        engine.schedule(10, victim.cancel)
        engine.schedule(60, lambda: None)
        executed = engine.run(until=20)
        assert executed == 1
        assert engine.pending() == 1
        assert engine.now == 20

    def test_schedule_returns_nothing(self, engine):
        # Only timer() pays for a handle; nothing else can be cancelled.
        assert engine.schedule(10, lambda: None) is None
        assert engine.schedule_at(10, lambda: None) is None
        assert engine.at_or_now(5, lambda: None) is None

    def test_timer_cancel_inside_its_own_callback_is_a_noop(self, engine):
        fired = []

        def fire():
            fired.append(engine.now)
            timer.cancel()  # already firing

        timer = engine.timer(10, fire)
        engine.schedule(20, lambda: None)
        assert engine.run(until=15) == 1
        assert fired == [10]
        assert engine.pending() == 1

    def test_negative_timer_delay_rejected(self, engine):
        with pytest.raises(SimulationError):
            engine.timer(-1, lambda: None)
        assert engine.pending() == 0


class TestChurn:
    """Self-rescheduling timer lanes: each tick arms and cancels a shadow
    timer (the retransmit-timer pattern) and fires a zero-delay wakeup."""

    LANES = 8
    TICKS = 2_000  # per lane

    def test_cancelled_shadows_never_fire_and_never_linger(self, engine):
        fired, ticks, wakeups = [], [], []

        def tick(remaining, interval):
            ticks.append(engine.now)
            engine.timer(interval + 3, fired.append, engine.now).cancel()
            engine.schedule(0, wakeups.append, engine.now)
            if remaining > 1:
                engine.schedule(interval, tick, remaining - 1, interval)

        for lane in range(self.LANES):
            engine.schedule(lane + 1, tick, self.TICKS, 11 + lane)
        executed = engine.run()
        assert wakeups == ticks and len(ticks) == self.LANES * self.TICKS
        # A tick and its wakeup; not one shadow among the executed events.
        assert executed == 2 * self.LANES * self.TICKS
        assert fired == []
        assert engine.pending() == 0
        # The slowest lane's last tick: start 8, period 18.
        assert engine.now == 8 + (self.TICKS - 1) * 18


class TestDeterminism:
    def test_identical_runs_produce_identical_traces(self):
        def build_and_run():
            engine = Engine()
            trace = []
            for i in range(50):
                engine.schedule((i * 37) % 11, trace.append, i)
            engine.run()
            return trace

        assert build_and_run() == build_and_run()
