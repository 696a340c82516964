"""Microbenchmark: raw discrete-event engine throughput.

Every substrate (network stack, schedulers, eBPF cost model) runs on
the one shared engine, so schedule/run/cancel cost bounds every
scenario in this repo.  The churn below exercises exactly the hot
paths `repro bench` gates: zero-delay scheduling (signal wakeups),
self-rescheduling timers, and cancel-heavy workloads (retransmit
timers that almost never fire).
"""

from repro.sim.engine import Engine

FULL_EVENTS = 300_000
LANES = 8


def _noop() -> None:
    return None


def _churn(total_events: int) -> dict:
    """Timer lanes that reschedule themselves; each tick also schedules
    and immediately cancels a shadow event (the retransmit-timer
    pattern) and fires a zero-delay wakeup."""
    engine = Engine()
    per_lane = total_events // LANES
    cancelled = [0]

    def tick(remaining: int, interval: int) -> None:
        shadow = engine.timer(interval + 3, _noop)
        shadow.cancel()
        cancelled[0] += 1
        engine.schedule(0, _noop)
        if remaining > 1:
            engine.schedule(interval, tick, remaining - 1, interval)

    for lane in range(LANES):
        engine.schedule(lane + 1, tick, per_lane, 11 + lane)
    executed = engine.run()
    return {
        "events_executed": executed,
        "cancelled_events": cancelled[0],
        "final_now_ns": engine.now,
        "pending_after_run": engine.pending(),
    }


def run(preset: str = "smoke") -> dict:
    """Benchmark-harness entry point (see docs/BENCHMARKS.md)."""
    from repro.bench.presets import scale_count

    return _churn(scale_count(preset, FULL_EVENTS, floor=10_000))


def test_micro_engine_churn(benchmark, once, report):
    results = once(_churn, 50_000)
    report(
        "Micro: engine schedule/run/cancel churn",
        {
            "events executed": results["events_executed"],
            "cancelled events": results["cancelled_events"],
            "pending after run": results["pending_after_run"],
        },
    )
    # Each lane tick executes itself + one zero-delay wakeup; cancelled
    # shadows never fire and never linger.
    assert results["events_executed"] > 50_000
    assert results["cancelled_events"] > 6_000
    assert results["pending_after_run"] == 0
