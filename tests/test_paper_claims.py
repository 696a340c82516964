"""The paper's shape claims that run in under two seconds each.

One test per claim: it calls the registered runner (``repro run``
resolves the same one by name) at the full-scale size
the claim was stated for, and asserts the shape -- a ratio, an
ordering, an exact count.  The longer figures, and the streaming
layer's host-time budget, are ``tests/paper_claims_long.py``, which its
own CI job runs by path.
"""

from repro.ebpf.vm import BPFProgram
from repro.experiments import get_scenario
from repro.experiments.ablations import STEADY_RUNS
from repro.experiments.macro_fleet import FleetConfig
from repro.experiments.xen_case import FIG11_SCHED_SEGMENT


def run(name, *args, **kwargs):
    """The runner registered as ``name``, called with the claim's arguments."""
    return get_scenario(name).run_fn()(*args, **kwargs)


# -- paper figures ----------------------------------------------------------------


def test_fig7a_sockperf_overhead():
    """Fig. 7(a): "the average latency with vNetTracer increased less
    than 1%", no tail blowup, no added packet loss."""
    result = run("fig7a", duration_ns=500_000_000, mps=1000)
    assert result.avg_overhead_pct < 2.0
    assert result.traced_loss == result.baseline_loss == 0


def test_fig10a_sockperf_ratelimit_tail():
    """Fig. 10(a): the 99.9th percentile grows ~22x when the I/O VM
    shares its pCPU with a CPU hog; ratelimit_us=0 is close to the
    baseline."""
    results = run("fig10a", duration_ns=500_000_000)
    base = results["baseline"].sockperf
    ratio = results["shared"].sockperf.p999_ns / base.p999_ns
    assert ratio > 8.0
    fixed = results["shared+ratelimit0"].sockperf
    assert fixed.p999_ns < 2 * base.p999_ns


def test_fig11_decomposition_sawtooth():
    """Fig. 11: sharing the core, the vif1.0 -> eth1 segment absorbs the
    one-way latency as a 0..1000 us sawtooth, and jitter explodes from
    (-7.2, 9.2) us to (-117.8, 1041.4) us."""
    results = run("fig11", packets=400)
    shared_sched = results["shared"].segment_summaries[FIG11_SCHED_SEGMENT]
    baseline_sched = results["baseline"].segment_summaries[FIG11_SCHED_SEGMENT]
    # The scheduling segment dominates under contention...
    other = sum(
        s.avg_ns
        for key, s in results["shared"].segment_summaries.items()
        if key != FIG11_SCHED_SEGMENT
    )
    assert shared_sched.avg_ns > 5 * other
    # ... reaching (but not exceeding) the 1000 us rate limit,
    assert 900_000 < shared_sched.max_ns < 1_200_000
    # ... while contributing little when the VM runs alone.
    assert baseline_sched.max_ns < 100_000
    # Jitter range explodes under sharing.
    b_low, b_high = results["baseline"].one_way_jitter_range_us
    s_low, s_high = results["shared"].one_way_jitter_range_us
    assert (s_high - s_low) > 20 * (b_high - b_low)


# -- the 1000-node fleet, three ways ----------------------------------------------


def test_macro_fleet_sharded():
    metrics = run("macro_fleet", FleetConfig(ticks=10), shards=16).metrics
    assert metrics["shards"] == 16
    assert metrics["rows_inserted"] > 0
    assert metrics["skew_racks_recovered"] == metrics["racks"] - 1
    # Symmetric wire latency: every probe/reply RTT is exactly 2x wire.
    assert metrics["rtt_avg_ns"] == 2_000_014


def test_macro_fleet_four_shards():
    metrics = run("macro_fleet_shards4", FleetConfig(ticks=10), shards=4).metrics
    assert metrics["shards"] == 4
    assert metrics["rounds"] > 0
    assert metrics["rtt_avg_ns"] == 2_000_014


def test_macro_fleet_single_engine():
    metrics = run("macro_fleet_single", FleetConfig(ticks=10), shards=1).metrics
    assert metrics["shards"] == 1
    assert metrics["workers"] == 0
    assert metrics["rounds"] == 0  # no coordinator on this leg
    assert metrics["rtt_avg_ns"] == 2_000_014


# -- §II / §III-C ablations --------------------------------------------------------


def test_ablation_online_vs_offline():
    results = run("ablation_collection_mode", duration_ns=400_000_000)
    # Online streams rows during the run; offline only at collect().
    assert results["online"]["rows_live"] > 0
    assert results["offline"]["rows_live"] == 0
    # Online costs more agent CPU.
    assert results["online"]["agent_cpu0_busy_us"] > results["offline"]["agent_cpu0_busy_us"]
    assert results["online"]["rows_total"] == results["offline"]["rows_total"]


def test_ablation_interpreter_vs_jit():
    fires_before = BPFProgram.global_runs()
    results = run("ablation_ebpf_jit", steady_runs=STEADY_RUNS)
    interp_load, interp_cost, _insns = results["interp"]
    jit_load, jit_cost, _ = results["jit"]
    assert jit_cost < interp_cost  # execution is cheaper
    assert jit_load > interp_load  # but loading pays compilation
    # A host profile of the ablation measures dispatch only if each
    # mode actually fires its program in a loop.
    assert BPFProgram.global_runs() - fires_before >= 2 * STEADY_RUNS


def test_ablation_ratelimit_sweep():
    points = run(
        "ablation_ratelimit_sweep", values_us=(0, 250, 1000, 2000), duration_ns=300_000_000
    )
    by_limit = {p.ratelimit_us: p for p in points}
    # Latency grows with the rate limit...
    assert (
        by_limit[0].sockperf.p999_ns
        < by_limit[250].sockperf.p999_ns
        < by_limit[1000].sockperf.p999_ns
    )
    assert by_limit[2000].sockperf.p999_ns > by_limit[250].sockperf.p999_ns
    # ... while the rate limit does its job of cutting switch churn
    # (at 5000 rps, a 1-2 ms minimum slice batches several wakes).
    assert by_limit[2000].context_switches < 0.7 * by_limit[0].context_switches
    # The hog keeps the vast majority of the CPU in every setting.
    assert all(p.hog_share > 0.9 for p in points)


def test_ablation_ring_buffer_sweep():
    sizes = (64, 256, 1024, 16 * 1024)
    results = run("ablation_ring_buffer", sizes=sizes, duration_ns=300_000_000)
    # 64 B (2 records) must drop heavily; 16 KB must capture everything.
    assert results[64][2] > 0
    assert results[16 * 1024][2] == 0
    assert results[16 * 1024][1] == results[16 * 1024][0]


def test_ablation_trace_id_cost():
    """§III-B: the ID operations "only involve tens of nanoseconds
    overhead"."""
    results = run("ablation_trace_ids", duration_ns=400_000_000)
    delta = results["with_ids"] - results["plain"]
    # Tens to a few hundred ns on a ~50 us latency: well under 1 %.
    assert 0 <= delta < 1_000

