"""Case Study II: tuning the hypervisor scheduler (§IV-D, Figs. 10-11).

A 1-vCPU Xen VM runs the server application *inside a container*; a
CPU-bound VM is pinned to the same physical CPU.  The credit2
scheduler's context-switch rate limit (default 1000 µs) prevents the
woken I/O vCPU from preempting the hog, so every inbound packet waits
out the remainder of the hog's minimum slice:

* Fig. 10(a): Sockperf latency -- baseline (VM alone), shared core
  (99.9p blows up ~22x), shared core with ``ratelimit_us=0`` (back to
  near baseline);
* Fig. 10(b): the same three conditions under the Data Caching
  (memcached) workload at a fixed 5000 rps, GET:SET 4:1 (avg ~4.7x,
  tail ~7.5x in the paper);
* Fig. 11: vNetTracer's per-packet latency decomposition across
  eth0 (client) -> xenbr0 -> vif1.0 -> eth1 -> veth684a1d9, showing the
  vif->eth1 segment absorbing a 0..1000 µs scheduling sawtooth, and the
  jitter range exploding.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Tuple

from repro.core import FilterRule, TracepointSpec, TracingSpec, VNetTracer
from repro.core.metrics import latency_pairs
from repro.experiments.topologies import XenCaseScene, build_xen_case
from repro.net.packet import IPPROTO_UDP
from repro.workloads.memcached import DataCachingClient, MemcachedServer
from repro.workloads.sockperf import SockperfClient, SockperfServer
from repro.workloads.stats import LatencySummary

SOCKPERF_PORT = 11111
WARMUP_NS = 100_000_000

CONDITIONS = ("baseline", "shared", "shared+ratelimit0")


def _build(condition: str, seed: int) -> XenCaseScene:
    if condition == "baseline":
        return build_xen_case(seed=seed, with_cpu_hog=False, ratelimit_us=1000)
    if condition == "shared":
        return build_xen_case(seed=seed, with_cpu_hog=True, ratelimit_us=1000)
    if condition == "shared+ratelimit0":
        return build_xen_case(seed=seed, with_cpu_hog=True, ratelimit_us=0)
    raise ValueError(f"unknown condition {condition!r}; choose from {CONDITIONS}")


@dataclass
class XenSockperfResult:
    condition: str
    sockperf: LatencySummary
    jitter_range_us: Tuple[float, float]


def run_fig10a_condition(
    condition: str,
    seed: int = 17,
    duration_ns: int = 1_000_000_000,
    mps: int = 1000,
) -> XenSockperfResult:
    """One bar group of Fig. 10(a)."""
    scene = _build(condition, seed)
    engine = scene.engine
    server = SockperfServer(scene.container.node, scene.container_ip, port=SOCKPERF_PORT)
    client = SockperfClient(
        scene.client_host.node,
        scene.client_ip,
        scene.container_ip,
        server_port=SOCKPERF_PORT,
        mps=mps,
        mode="under-load",
    )
    client.start(duration_ns, start_delay_ns=WARMUP_NS)
    engine.run(until=WARMUP_NS + duration_ns + 300_000_000)
    low, high = client.jitter_range_ns()
    return XenSockperfResult(
        condition=condition,
        sockperf=client.summary(),
        jitter_range_us=(low / 1e3, high / 1e3),
    )


def run_fig10a(seed: int = 17, duration_ns: int = 1_000_000_000) -> Dict[str, XenSockperfResult]:
    return {
        condition: run_fig10a_condition(condition, seed=seed, duration_ns=duration_ns)
        for condition in CONDITIONS
    }


def present_fig10a(results: Dict[str, XenSockperfResult]) -> Iterator[str]:
    base = results["baseline"].sockperf
    for condition, r in results.items():
        s = r.sockperf.scaled()
        yield (
            f"  {condition:20s} avg {s['avg']:8.1f} us  p99.9 {s['p99.9']:8.1f} us "
            f"({r.sockperf.p999_ns / base.p999_ns:.1f}x)"
        )


def pinned_fig10a() -> dict:
    """Pinned metrics: 50 ms per condition."""
    results = run_fig10a(duration_ns=50_000_000)
    return {
        f"{condition.replace('+', '_')}_p999_us": round(result.sockperf.p999_ns / 1e3, 1)
        for condition, result in results.items()
    }


@dataclass
class XenMemcachedResult:
    condition: str
    latency: LatencySummary
    requests_issued: int


def run_fig10b_condition(
    condition: str,
    seed: int = 17,
    duration_ns: int = 1_000_000_000,
    rps: int = 5000,
) -> XenMemcachedResult:
    """One bar group of Fig. 10(b): Data Caching at a fixed rate."""
    scene = _build(condition, seed)
    engine = scene.engine
    server = MemcachedServer(scene.container.node, scene.container_ip, cpu_index=0)
    client = DataCachingClient(
        scene.client_host.node,
        scene.client_ip,
        scene.container_ip,
        workers=4,
        connections_per_worker=5,
        rps=rps,
    )
    # Let the 20 connections establish before driving load.
    client.start(duration_ns, start_delay_ns=WARMUP_NS)
    engine.run(until=WARMUP_NS + duration_ns + 500_000_000)
    return XenMemcachedResult(
        condition=condition,
        latency=client.summary(),
        requests_issued=client.issued,
    )


def run_fig10b(seed: int = 17, duration_ns: int = 1_000_000_000) -> Dict[str, XenMemcachedResult]:
    return {
        condition: run_fig10b_condition(condition, seed=seed, duration_ns=duration_ns)
        for condition in CONDITIONS
    }


def present_fig10b(results: Dict[str, XenMemcachedResult]) -> Iterator[str]:
    base = results["baseline"].latency
    for condition, r in results.items():
        s = r.latency.scaled()
        yield (
            f"  {condition:20s} avg {s['avg']:8.1f} us ({r.latency.avg_ns / base.avg_ns:.1f}x)"
            f"  p99.9 {s['p99.9']:8.1f} us ({r.latency.p999_ns / base.p999_ns:.1f}x)"
        )


def pinned_fig10b() -> dict:
    """Pinned metrics: 50 ms per condition."""
    results = run_fig10b(duration_ns=50_000_000)
    return {
        f"{condition.replace('+', '_')}_{stat}_us": round(value, 1)
        for condition, result in results.items()
        for stat, value in (
            ("avg", result.latency.avg_ns / 1e3),
            ("p999", result.latency.p999_ns / 1e3),
        )
    }


@dataclass
class RatelimitSweepPoint:
    ratelimit_us: int
    sockperf: LatencySummary
    hog_share: float  # fraction of pCPU time the CPU-bound VM kept
    context_switches: int


def run_ratelimit_sweep(
    values_us: Tuple[int, ...] = (0, 100, 250, 500, 1000, 2000),
    seed: int = 17,
    duration_ns: int = 400_000_000,
    mps: int = 5000,
) -> List[RatelimitSweepPoint]:
    """Extension of Case Study II: sweep the credit2 rate limit.

    The paper sets it to 0 and notes the mechanism "performs well and
    does not harm the throughput of most network applications"; the
    sweep quantifies the actual latency/context-switch trade-off an
    operator would tune.
    """
    points = []
    for ratelimit_us in values_us:
        scene = build_xen_case(seed=seed, with_cpu_hog=True, ratelimit_us=ratelimit_us)
        engine = scene.engine
        SockperfServer(scene.container.node, scene.container_ip, port=SOCKPERF_PORT)
        client = SockperfClient(
            scene.client_host.node, scene.client_ip, scene.container_ip,
            server_port=SOCKPERF_PORT, mps=mps, mode="under-load",
        )
        client.start(duration_ns, start_delay_ns=WARMUP_NS)
        engine.run(until=WARMUP_NS + duration_ns + 300_000_000)
        scheduler = scene.server_host.schedulers[0]
        hog = scene.hog_vm.vcpus[0]
        io = scene.io_vm.vcpus[0]
        total_run = hog.total_run_ns + io.total_run_ns
        points.append(
            RatelimitSweepPoint(
                ratelimit_us=ratelimit_us,
                sockperf=client.summary(),
                hog_share=hog.total_run_ns / total_run if total_run else 0.0,
                context_switches=scheduler.context_switches,
            )
        )
    return points


@dataclass
class XenDecompositionResult:
    condition: str
    # segment label -> ordered (send_time, latency_ns) pairs (Fig. 11 series)
    segments: Dict[str, List[Tuple[int, int]]]
    segment_summaries: Dict[str, LatencySummary]
    one_way_jitter_range_us: Tuple[float, float]
    clock_skew_estimate_ns: Optional[int]


def run_fig11_condition(
    condition: str,
    seed: int = 17,
    packets: int = 500,
    mps: int = 1000,
) -> XenDecompositionResult:
    """Per-packet latency decomposition (Fig. 11a when 'baseline',
    Fig. 11b when 'shared')."""
    scene = _build(condition, seed)
    engine = scene.engine
    server = SockperfServer(scene.container.node, scene.container_ip, port=SOCKPERF_PORT)
    client = SockperfClient(
        scene.client_host.node,
        scene.client_ip,
        scene.container_ip,
        server_port=SOCKPERF_PORT,
        mps=mps,
        mode="under-load",
    )

    tracer = VNetTracer(engine)
    for node in (scene.client_host.node, scene.server_host.node, scene.io_vm.node):
        tracer.add_agent(node)

    # Cross-machine alignment: Cristian's algorithm between the client
    # (master) and the server's Dom0; the guest shares Dom0's
    # paravirtual clocksource, so the same offset applies to it.
    sync = tracer.synchronize_clocks(
        scene.client_host.node,
        scene.client_ip,
        "dev:eth0",
        scene.server_host.node,
        scene.server_host.node.device("xenbr0").ip,
        "dev:eth0",
    )

    chain = [
        "client:eth0",
        "dom0:xenbr0",
        "dom0:vif1.0",
        "vm:eth1",
        f"vm:{scene.veth_name}",
    ]
    spec = TracingSpec(
        rule=FilterRule(dst_ip=scene.container_ip, dst_port=SOCKPERF_PORT, protocol=IPPROTO_UDP),
        tracepoints=[
            TracepointSpec(node=scene.client_host.node.name, hook="dev:eth0", label=chain[0]),
            TracepointSpec(node=scene.server_host.node.name, hook="dev:xenbr0", label=chain[1]),
            TracepointSpec(node=scene.server_host.node.name, hook="dev:vif1.0", label=chain[2]),
            TracepointSpec(node=scene.io_vm.node.name, hook="dev:eth1", label=chain[3]),
            TracepointSpec(
                node=scene.io_vm.node.name, hook=f"dev:{scene.veth_name}", label=chain[4]
            ),
        ],
    )

    def deploy_and_start() -> None:
        if scene.io_vm.node.name in tracer.clock_estimates or True:
            # Dom0's skew estimate applies to the guest as well.
            estimate = tracer.clock_estimates.get(scene.server_host.node.name)
            if estimate is not None:
                tracer.db.set_clock_skew(scene.io_vm.node.name, estimate.skew_ns)
        tracer.deploy(spec)
        client.start(int(packets * 1e9 / mps), start_delay_ns=20_000_000)

    # Start the workload once clock sync completed.
    original_done = sync.on_done

    def on_sync_done(estimate) -> None:
        if original_done is not None:
            original_done(estimate)
        deploy_and_start()

    sync.on_done = on_sync_done

    engine.run(until=int(2e9 + packets * 1e9 / mps))
    tracer.collect()

    segments = {}
    summaries = {}
    for from_label, to_label in zip(chain, chain[1:]):
        key = f"{from_label} to {to_label}"
        pairs = latency_pairs(tracer.db, from_label, to_label)
        segments[key] = pairs
        if pairs:
            from repro.workloads.stats import summarize_latencies

            summaries[key] = summarize_latencies([lat for _t, lat in pairs])

    low, high = client.jitter_range_ns()
    estimate = tracer.clock_estimates.get(scene.server_host.node.name)
    return XenDecompositionResult(
        condition=condition,
        segments=segments,
        segment_summaries=summaries,
        one_way_jitter_range_us=(low / 1e3, high / 1e3),
        clock_skew_estimate_ns=estimate.skew_ns if estimate else None,
    )


# The segment the credit2 rate limit lands in: the wait for the I/O VM's
# vCPU between Dom0's backend and the guest's front end.
FIG11_SCHED_SEGMENT = "dom0:vif1.0 to vm:eth1"


def run_fig11(seed: int = 17, packets: int = 400) -> Dict[str, XenDecompositionResult]:
    """Fig. 11(a) and 11(b): the VM alone, then sharing its core."""
    return {
        condition: run_fig11_condition(condition, seed=seed, packets=packets)
        for condition in ("baseline", "shared")
    }


def present_fig11(results: Dict[str, XenDecompositionResult]) -> Iterator[str]:
    for condition, r in results.items():
        yield f"  [{condition}] (skew estimate {r.clock_skew_estimate_ns / 1e6:+.3f} ms)"
        for key, summary in r.segment_summaries.items():
            s = summary.scaled()
            yield f"    {key:40s} avg {s['avg']:8.1f} us  max {s['max']:8.1f} us"


def pinned_fig11() -> dict:
    """Pinned metrics: 100 packets per condition."""
    packets = 100
    out = {"packets": packets}
    for condition, result in run_fig11(packets=packets).items():
        sched = result.segment_summaries[FIG11_SCHED_SEGMENT]
        out[f"{condition}_sched_segment_avg_us"] = round(sched.avg_ns / 1e3, 1)
        out[f"{condition}_sched_segment_max_us"] = round(sched.max_ns / 1e3, 1)
    return out
