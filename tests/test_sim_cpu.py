"""CPUs: serialized service, gating, idle callbacks.

Generated scripts against a queue-then-pop reference live in
``test_sim_cpu_model.py``.
"""

import pytest

from repro.sim.cpu import CPU, GatedCPU
from repro.sim.engine import SimulationError


class TestCPU:
    def test_jobs_serialize(self, engine):
        cpu = CPU(engine)
        done = []
        cpu.submit(100, lambda: done.append(engine.now))
        cpu.submit(50, lambda: done.append(engine.now))
        engine.run()
        assert done == [100, 150]

    def test_submit_front_preempts_queue_order(self, engine):
        cpu = CPU(engine)
        done = []
        cpu.submit(10, lambda: done.append("first"))
        cpu.submit(10, lambda: done.append("queued"))
        cpu.submit_front(10, lambda: done.append("front"))
        engine.run()
        # "first" is already in service; "front" jumps ahead of "queued".
        assert done == ["first", "front", "queued"]

    def test_busy_time_accounting(self, engine):
        cpu = CPU(engine)
        cpu.submit(300)
        cpu.submit(200)
        engine.run()
        assert cpu.busy_ns == 500
        assert cpu.jobs_completed == 2

    def test_submit_from_a_callback_starts_the_waiting_job_first(self, engine):
        cpu = CPU(engine)
        done = []
        cpu.submit(10, lambda: cpu.submit(1, lambda: done.append(("late", engine.now))))
        cpu.submit(5, lambda: done.append(("queued", engine.now)))
        engine.run()
        assert done == [("queued", 15), ("late", 16)]

    def test_on_idle_fires_when_queue_drains(self, engine):
        cpu = CPU(engine)
        idles = []
        cpu.on_idle = lambda: idles.append(engine.now)
        cpu.submit(10)
        cpu.submit(20)
        engine.run()
        assert idles == [30]

    def test_callback_submitting_more_work_defers_idle(self, engine):
        cpu = CPU(engine)
        idles = []
        cpu.on_idle = lambda: idles.append(engine.now)
        cpu.submit(10, lambda: cpu.submit(5))
        engine.run()
        assert idles == [15]

    @pytest.mark.parametrize("busy", [False, True])
    @pytest.mark.parametrize("cost", [-5, -0.5, float("nan"), float("inf"), float("-inf")])
    @pytest.mark.parametrize("entry", ["submit", "submit_front"])
    def test_invalid_cost_is_rejected_at_the_call(self, engine, entry, cost, busy):
        # A busy CPU queues the job, so a bad cost would otherwise
        # surface only when the job starts, inside another job's
        # completion; it is rejected here, and nothing is queued.
        cpu = CPU(engine)
        if busy:
            cpu.submit(100)
        with pytest.raises(SimulationError):
            getattr(cpu, entry)(cost, lambda: None)
        assert cpu.queue_depth == 0
        engine.run()
        assert cpu.jobs_completed == int(busy)
        assert engine.now == (100 if busy else 0)


class TestGatedCPU:
    def test_paused_cpu_holds_jobs(self, engine):
        cpu = GatedCPU(engine, start_paused=True)
        done = []
        cpu.submit(10, lambda: done.append(engine.now))
        engine.run(until=100)
        assert done == []
        cpu.resume()
        engine.run()
        assert done == [110]

    def test_kick_fires_even_while_paused(self, engine):
        cpu = GatedCPU(engine, start_paused=True)
        kicks = []
        cpu.on_work_queued = lambda: kicks.append(engine.now)
        cpu.submit(10)
        assert kicks == [0]

    def test_pause_lets_current_job_finish(self, engine):
        cpu = GatedCPU(engine)
        done = []
        cpu.submit(100, lambda: done.append("a"))
        cpu.submit(100, lambda: done.append("b"))
        engine.schedule(50, cpu.pause)
        engine.run(until=500)
        assert done == ["a"]  # in-flight job completes, next one held
        cpu.resume()
        engine.run()
        assert done == ["a", "b"]

    def test_has_pending_work(self, engine):
        cpu = GatedCPU(engine, start_paused=True)
        assert not cpu.has_pending_work()
        cpu.submit(10)
        assert cpu.has_pending_work()

    def test_resume_idempotent(self, engine):
        cpu = GatedCPU(engine, start_paused=True)
        cpu.resume()
        cpu.resume()
        cpu.submit(10)
        engine.run()
        assert cpu.jobs_completed == 1
