"""Macro benchmark: 1000-node fleet on the sharded substrate, 16 shards.

The fleet-scaling gate: the same 1000-node scenario also runs as
``macro_fleet_single`` (one Engine) and ``macro_fleet_shards4``; the
pin table (``tests/golden/pins.json``) holds all three.  The three
scenarios report identical deterministic metrics (same ``digest16``).
"""

from repro.experiments.macro_fleet import FleetConfig, run_macro_fleet

FULL_TICKS = 100
SMOKE_TICKS = 10
SHARDS = 16


def _fleet(ticks: int, shards: int) -> dict:
    result = run_macro_fleet(FleetConfig(ticks=ticks), shards=shards)
    return dict(result.metrics)


def run(preset: str = "smoke") -> dict:
    """Benchmark-harness entry point (see docs/BENCHMARKS.md)."""
    from repro.bench.presets import scale_count

    return _fleet(scale_count(preset, FULL_TICKS, floor=SMOKE_TICKS), SHARDS)


def test_macro_fleet_sharded(benchmark, once, report):
    metrics = once(_fleet, SMOKE_TICKS, SHARDS)
    report(
        "Macro: 1000-node fleet, 16 shards",
        {
            "rows inserted": metrics["rows_inserted"],
            "boundary messages": metrics["boundary_messages"],
            "rounds": metrics["rounds"],
            "rtt avg (ns)": metrics["rtt_avg_ns"],
            "digest": metrics["digest16"],
        },
    )
    assert metrics["shards"] == SHARDS
    assert metrics["rows_inserted"] > 0
    assert metrics["skew_racks_recovered"] == metrics["racks"] - 1
    # Symmetric wire latency: every probe/reply RTT is exactly 2x wire.
    assert metrics["rtt_avg_ns"] == 2_000_014
