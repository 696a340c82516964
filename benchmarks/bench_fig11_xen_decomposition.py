"""Fig. 11: per-packet latency decomposition across the Xen path.

Paper: alone, the client-to-server transmission dominates; sharing the
core, the vif1.0 -> eth1 segment absorbs >90 % of the one-way latency
as a 0..1000 us scheduling sawtooth, and jitter explodes from
(-7.2, 9.2) us to (-117.8, 1041.4) us.
"""

from repro.experiments.xen_case import run_fig11

PACKETS = 400
SCHED_SEGMENT = "dom0:vif1.0 to vm:eth1"


def test_fig11_decomposition_sawtooth(benchmark, once, report):
    results = once(run_fig11, packets=PACKETS)
    rows = {}
    for condition, result in results.items():
        for key, summary in result.segment_summaries.items():
            s = summary.scaled()
            rows[f"{condition} | {key} avg/max (us)"] = f"{s['avg']:.1f} / {s['max']:.1f}"
        low, high = result.one_way_jitter_range_us
        rows[f"{condition} | jitter range (us)"] = f"({low:.1f}, {high:.1f})"
    rows["clock skew estimate (ms)"] = (
        f"{results['shared'].clock_skew_estimate_ns / 1e6:+.3f}"
    )
    report("Fig 11: eth0 -> xenbr0 -> vif1.0 -> eth1 -> veth decomposition", rows)

    shared_sched = results["shared"].segment_summaries[SCHED_SEGMENT]
    baseline_sched = results["baseline"].segment_summaries[SCHED_SEGMENT]
    # The scheduling segment dominates under contention...
    other = sum(
        s.avg_ns
        for key, s in results["shared"].segment_summaries.items()
        if key != SCHED_SEGMENT
    )
    assert shared_sched.avg_ns > 5 * other
    # ... reaching (but not exceeding) the 1000us rate limit,
    assert 900_000 < shared_sched.max_ns < 1_200_000
    # ... while contributing little when the VM runs alone.
    assert baseline_sched.max_ns < 100_000
    # Jitter range explodes under sharing.
    b_low, b_high = results["baseline"].one_way_jitter_range_us
    s_low, s_high = results["shared"].one_way_jitter_range_us
    assert (s_high - s_low) > 20 * (b_high - b_low)

def run(preset: str = "smoke") -> dict:
    """Benchmark-harness entry point (see docs/BENCHMARKS.md)."""
    from repro.bench.presets import scale_count

    packets = scale_count(preset, PACKETS, floor=100)
    out = {"packets": packets}
    for condition, result in run_fig11(packets=packets).items():
        sched = result.segment_summaries[SCHED_SEGMENT]
        out[f"{condition}_sched_segment_avg_us"] = round(sched.avg_ns / 1e3, 1)
        out[f"{condition}_sched_segment_max_us"] = round(sched.max_ns / 1e3, 1)
    return out
