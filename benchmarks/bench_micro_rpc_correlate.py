"""Microbenchmark: cross-service RPC correlation cost.

The rpc_case scenario (docs/SERVICES.md) exercises the full
correlation path: parent IDs embedded on the wire, links read back at
every receiver, collected rows joined into one span forest per root
request.  This scenario runs that pipeline end to end and reports the
link/span volume it produced, so a change in the embed, the join, or
the forest assembly shows up as a changed count.

The runner resolves through the ScenarioSpec registry (the table
``repro rpc`` and ``repro list`` read), not a direct import.
"""

FULL_REQUESTS = 60


def _correlate(requests: int) -> dict:
    from repro.experiments import get_scenario
    from repro.experiments.rpc_case import deterministic_doc

    run_case = get_scenario("rpc_case").run_fn()
    result = run_case(seed=21, requests=requests, shards=1)
    doc = deterministic_doc(result)
    latencies = result.deployment.client_latencies
    return {
        "requests_completed": doc["completed_requests"],
        "links_recorded": len(doc["links"]),
        "trees": doc["trees"],
        "spans": doc["spans"],
        "avg_request_latency_us": round(
            sum(latencies) / len(latencies) / 1e3, 3
        ),
        "db_rows": result.tracer.db.rows_inserted,
    }


def run(preset: str = "smoke") -> dict:
    """Benchmark-harness entry point (see docs/BENCHMARKS.md)."""
    from repro.bench.presets import scale_count

    return _correlate(scale_count(preset, FULL_REQUESTS, floor=12))


def test_micro_rpc_correlate(benchmark, once, report):
    results = once(_correlate, 12)
    report(
        "Micro: RPC parent-link correlation and forest assembly",
        {
            "requests completed": results["requests_completed"],
            "parent links recorded": results["links_recorded"],
            "spans assembled": results["spans"],
            "avg request latency (us)": results["avg_request_latency_us"],
        },
    )
    assert results["requests_completed"] == 12
    assert results["trees"] == 12
    # 9 parented packets per root request through the default graph.
    assert results["links_recorded"] == 12 * 9
    assert results["spans"] > results["links_recorded"]
