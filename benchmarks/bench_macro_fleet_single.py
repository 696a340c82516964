"""Macro benchmark: the 1000-node fleet on one plain Engine.

The one-engine reference leg: identical workload to ``macro_fleet``
(16 shards), so the committed baseline pins that sharding changes no
count and no digest.  The baseline holds no wall-clock number; how the
legs compare in speed is docs/SHARDING.md, "Where the speedup comes
from".
"""

from repro.experiments.macro_fleet import FleetConfig, run_macro_fleet

FULL_TICKS = 100
SMOKE_TICKS = 10


def _fleet(ticks: int) -> dict:
    result = run_macro_fleet(FleetConfig(ticks=ticks), shards=1)
    return dict(result.metrics)


def run(preset: str = "smoke") -> dict:
    """Benchmark-harness entry point (see docs/BENCHMARKS.md)."""
    from repro.bench.presets import scale_count

    return _fleet(scale_count(preset, FULL_TICKS, floor=SMOKE_TICKS))


def test_macro_fleet_single_engine(benchmark, once, report):
    metrics = once(_fleet, SMOKE_TICKS)
    report(
        "Macro: 1000-node fleet, single engine",
        {
            "rows inserted": metrics["rows_inserted"],
            "boundary messages": metrics["boundary_messages"],
            "rtt avg (ns)": metrics["rtt_avg_ns"],
            "digest": metrics["digest16"],
        },
    )
    assert metrics["shards"] == 1
    assert metrics["workers"] == 0
    assert metrics["rounds"] == 0  # no coordinator on this leg
    assert metrics["rtt_avg_ns"] == 2_000_014
