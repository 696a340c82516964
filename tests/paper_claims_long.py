"""The paper's shape claims whose runs take longer than two seconds, and
the streaming layer's host-time budget (``tests/streaming_budget.py``):
windowed ingest may cost at most 1.3x plain ingest, a ratio too close to
its bound for a loaded test machine to gate tier-1 on.

This file's name does not match ``python_files`` (``test_*.py``), so a
plain ``pytest`` does not collect it: the whole set takes about three
and a half minutes.  Run it by path, as the ``claims`` CI job does::

    PYTHONPATH=src python -m pytest -q tests/paper_claims_long.py

Each test calls the registered runner at the full-scale size the claim
was stated for, as ``tests/test_paper_claims.py`` does for the fast ones.
"""

import pytest

from repro.experiments import get_scenario
from repro.experiments.overhead import FIG7B_PAPER_STAP_LOSS, run_fig7b
from tests import streaming_budget


def run(name, *args, **kwargs):
    """The runner registered as ``name``, called with the claim's arguments."""
    return get_scenario(name).run_fn()(*args, **kwargs)


def test_fig4_cristian_accuracy():
    """§III-B: the minimum of 100 ping-pongs cancels network
    interference, idle and under bulk load."""
    for r in run("fig4"):
        assert r.error_ns < 20_000  # within tens of us even under load
        assert r.one_way_ns > 0


@pytest.mark.parametrize("link_gbps", sorted(FIG7B_PAPER_STAP_LOSS))
def test_fig7b_netperf_tracer_overhead(link_gbps):
    """Fig. 7(b): vNetTracer degrades throughput "insignificantly";
    SystemTap costs ~10 % on the 1G link and 26.5 % on the 10G link."""
    result = run_fig7b(link_gbps=link_gbps, duration_ns=300_000_000)
    # Shape: vNetTracer nearly free; SystemTap clearly worse.
    assert result.vnettracer_loss_pct < 5.0
    assert result.systemtap_loss_pct > result.vnettracer_loss_pct + 5.0


def test_fig8b_sockperf_latency_cases():
    """Fig. 8(b): the tail latency in Case II and Case III "increased
    significantly compared to the latency in the uncongested network"."""
    results = run("fig8b", duration_ns=400_000_000)
    assert results["II"].avg_ns > 5 * results["I"].avg_ns
    assert results["III"].avg_ns > results["II"].avg_ns


def test_fig9a_latency_decomposition():
    """Fig. 9(a): the OVS segment dominates and grows with congestion;
    II -> II+ stays flat (the ingress queue is already saturated) while
    III -> III+ grows (more busy ingress ports stretch the switching)."""
    results = run("fig9a", duration_ns=300_000_000)
    ovs_avg = {case: d["ovs"].avg_ns for case, d in results.items()}
    # OVS dominates whenever congested.
    assert ovs_avg["II"] > 10 * results["II"]["sender_stack"].avg_ns
    # II -> II+ flat (same saturated ingress queue).
    assert abs(ovs_avg["II+"] - ovs_avg["II"]) < 0.25 * ovs_avg["II"]
    # III adds processing delay; III+ adds more.
    assert ovs_avg["III"] > 1.5 * ovs_avg["II"]
    assert ovs_avg["III+"] > ovs_avg["III"]


def test_fig9b_rate_limit_mitigation():
    """Fig. 9(b): with ingress policing (1e5 kbps, 1e4 kb burst) on vnet0
    and vnet1, "both the average and tail latency of Sockperf decreased
    significantly"."""
    results = run("fig9b", duration_ns=400_000_000)
    baseline = run("ovs_case", "I", duration_ns=400_000_000).sockperf
    for case in ("II", "III"):
        congested = results[case].avg_ns
        limited = results[f"{case}+ratelimit"].avg_ns
        assert limited < congested / 5
        assert limited < 3 * baseline.avg_ns


def test_fig10b_memcached_ratelimit():
    """Fig. 10(b): at 5000 rps, average and tail latency grow 4.7x and
    7.5x on the shared core; ratelimit 0 restores them."""
    results = run("fig10b", duration_ns=500_000_000)
    base = results["baseline"].latency
    avg_ratio = results["shared"].latency.avg_ns / base.avg_ns
    tail_ratio = results["shared"].latency.p999_ns / base.p999_ns
    assert 2.0 < avg_ratio < 12.0
    assert 4.0 < tail_ratio < 25.0
    fixed = results["shared+ratelimit0"].latency
    assert fixed.avg_ns < 1.5 * base.avg_ns


def test_fig12b_overlay_throughput_collapse():
    """Fig. 12(b): "the Netperf TCP and UDP throughput between containers
    were just 16.8% and 22.9% of that between VMs"."""
    results = run("fig12b", duration_ns=300_000_000)
    tcp, udp = results["netperf_tcp"], results["netperf_udp"]
    # Shape: a small fraction of the VM numbers, UDP somewhat better.
    assert 0.05 < tcp.ratio < 0.35
    assert 0.10 < udp.ratio < 0.45
    assert udp.ratio > tcp.ratio


def test_fig13a_softirq_rate_and_distribution():
    """Fig. 13(a): net_rx_action runs 4.54x as often in containers as in
    VMs; 99.7 % of invocations land on CPU 0 for VMs, 62.9 % for
    containers."""
    results = run("fig13a", duration_ns=300_000_000)
    vm, container = results["vm"], results["container"]
    ratio = container.net_rx_rate_per_s / vm.net_rx_rate_per_s
    assert ratio > 2.5  # many more softirqs per delivered byte
    assert vm.cpu_distribution.get(0, 0) > 0.95
    assert 0.5 < container.cpu_distribution.get(0, 0) < 0.95


def test_fig13b_datapath_depth():
    """Fig. 13(b): "the data path in container networks is far more
    complex than that in VMs"; the hops are rebuilt from records alone."""
    results = run("fig13b")
    vm, container = results["vm"], results["container"]
    assert len(container.hops) >= len(vm.hops) + 3
    assert any("vxlan" in hop for hop in container.hops)
    assert any("br-" in hop for hop in container.hops)
    assert any("veth" in hop for hop in container.hops)


def test_ablation_filter_selectivity():
    """A non-matching filter is nearly free; match-all pays the record
    path on every packet."""
    results = run("ablation_filter_selectivity", duration_ns=250_000_000)
    assert results["selective"] > 0.97 * results["untraced"]
    assert results["match_all"] <= results["selective"]


def test_streaming_host_time_budget():
    """docs/STREAMING.md "Overhead budgets": windowed ingest within 1.3x
    plain ingest, the drain within 0.75x (the fan-in's counts are
    tier-1's, tests/test_streaming.py)."""
    streaming_budget.check_budget(1_500)
