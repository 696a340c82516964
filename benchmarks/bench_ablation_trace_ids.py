"""Ablation: per-packet trace-ID embedding cost.

§III-B claims the ID operations "only involve tens of nanoseconds
overhead [and] do not harm the microsecond level application latency".
Compares sockperf latency with the trace-ID kernel patch enabled vs a
pristine kernel (no agents at all), isolating the embed/trim cost from
probe execution.
"""

from repro.experiments.topologies import build_two_host_kvm
from repro.net.traceid import EMBED_COST_NS, STRIP_COST_NS, TraceIDEngine
from repro.workloads.sockperf import SockperfClient, SockperfServer

DURATION_NS = 400_000_000


def _run(with_ids: bool, duration_ns: int = DURATION_NS) -> float:
    scene = build_two_host_kvm(seed=31)
    engine = scene.engine
    if with_ids:
        for node in (scene.vm1.node, scene.vm2.node):
            TraceIDEngine.attach(node)
    SockperfServer(scene.vm2.node, scene.vm2_ip)
    client = SockperfClient(scene.vm1.node, scene.vm1_ip, scene.vm2_ip, mps=2000)
    client.start(duration_ns, start_delay_ns=5_000_000)
    engine.run(until=duration_ns + 100_000_000)
    return client.summary().avg_ns


def test_ablation_trace_id_cost(benchmark, once, report):
    def scenario():
        return {"plain": _run(False), "with-ids": _run(True)}

    results = once(scenario)
    delta = results["with-ids"] - results["plain"]
    report(
        "Ablation: trace-ID embed/trim cost",
        {
            "plain kernel avg (us)": f"{results['plain'] / 1e3:.3f}",
            "patched kernel avg (us)": f"{results['with-ids'] / 1e3:.3f}",
            "delta (ns) [paper: tens of ns]": f"{delta:.0f}",
            "modeled embed+strip (ns)": EMBED_COST_NS + STRIP_COST_NS,
        },
    )
    # Tens to a few hundred ns on a ~50us latency: well under 1%.
    assert 0 <= delta < 1_000

def run(preset: str = "smoke") -> dict:
    """Benchmark-harness entry point (see docs/BENCHMARKS.md)."""
    from repro.bench.presets import scale_duration

    duration_ns = scale_duration(preset, DURATION_NS)
    plain = _run(False, duration_ns)
    with_ids = _run(True, duration_ns)
    return {
        "plain_avg_us": round(plain / 1e3, 3),
        "with_ids_avg_us": round(with_ids / 1e3, 3),
        "delta_ns": round(with_ids - plain, 1),
    }
