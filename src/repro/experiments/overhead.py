"""Overhead experiments (§IV-B, Fig. 7).

Fig. 7(a): Sockperf UDP between two KVM VMs on two hosts, with and
without vNetTracer running four tracing scripts (OVS bridge + guest NIC
on both servers).  Expected shape: <1 % average-latency increase, no
tail blowup, no added loss.

Fig. 7(b): Netperf TCP into a 1-vCPU Xen VM, comparing no tracing,
vNetTracer, and SystemTap (STP_NO_OVERLOAD) attached at the same
``tcp_recvmsg`` probe point, on 1 G and 10 G links.  Expected shape:
vNetTracer ~0 loss; SystemTap ~10 % at 1 G and >25 % at 10 G.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, List, Optional

from repro.baselines.systemtap import SystemTapSession
from repro.core import FilterRule, TracepointSpec, TracingSpec, VNetTracer
from repro.experiments.topologies import build_netperf_xen, build_two_host_kvm
from repro.net.packet import IPPROTO_UDP
from repro.workloads.netperf import NetperfClient, NetperfServer
from repro.workloads.sockperf import SockperfClient, SockperfServer
from repro.workloads.stats import LatencySummary

WARMUP_NS = 50_000_000


@dataclass
class SockperfOverheadResult:
    baseline: LatencySummary
    traced: LatencySummary
    baseline_loss: int
    traced_loss: int
    records_collected: int
    avg_overhead_pct: float
    p999_overhead_pct: float


def _run_sockperf(seed: int, traced: bool, duration_ns: int, mps: int):
    scene = build_two_host_kvm(seed=seed)
    engine = scene.engine
    server = SockperfServer(scene.vm2.node, scene.vm2_ip)
    client = SockperfClient(
        scene.vm1.node, scene.vm1_ip, scene.vm2_ip, mps=mps, mode="under-load"
    )
    tracer = None
    if traced:
        tracer = VNetTracer(engine)
        for node in (scene.host1.node, scene.host2.node, scene.vm1.node, scene.vm2.node):
            tracer.add_agent(node)
        rule = FilterRule(dst_port=11111, protocol=IPPROTO_UDP)
        spec = TracingSpec(
            rule=rule,
            tracepoints=[
                TracepointSpec(node=scene.vm1.node.name, hook="dev:ens3", label="vm1:ens3"),
                TracepointSpec(node=scene.host1.node.name, hook="dev:ovs-br1", label="h1:ovs"),
                TracepointSpec(node=scene.host2.node.name, hook="dev:ovs-br1", label="h2:ovs"),
                TracepointSpec(node=scene.vm2.node.name, hook="dev:ens3", label="vm2:ens3"),
            ],
        )
        tracer.deploy(spec)
    client.start(duration_ns, start_delay_ns=WARMUP_NS)
    engine.run(until=duration_ns + WARMUP_NS + 50_000_000)
    records = 0
    if tracer is not None:
        records = tracer.collect().records
    return client, records


def run_fig7a(
    seed: int = 7, duration_ns: int = 2_000_000_000, mps: int = 1000
) -> SockperfOverheadResult:
    """Fig. 7(a): sockperf latency with vs. without vNetTracer."""
    base_client, _ = _run_sockperf(seed, traced=False, duration_ns=duration_ns, mps=mps)
    traced_client, records = _run_sockperf(seed, traced=True, duration_ns=duration_ns, mps=mps)
    baseline = base_client.summary()
    traced = traced_client.summary()
    return SockperfOverheadResult(
        baseline=baseline,
        traced=traced,
        baseline_loss=base_client.loss_count,
        traced_loss=traced_client.loss_count,
        records_collected=records,
        avg_overhead_pct=100.0 * (traced.avg_ns - baseline.avg_ns) / baseline.avg_ns,
        p999_overhead_pct=100.0 * (traced.p999_ns - baseline.p999_ns) / baseline.p999_ns,
    )


def present_fig7a(r: SockperfOverheadResult) -> Iterator[str]:
    yield (
        f"  baseline avg {r.baseline.avg_ns / 1e3:.2f} us, "
        f"traced avg {r.traced.avg_ns / 1e3:.2f} us "
        f"(+{r.avg_overhead_pct:.2f}%; paper <1%)"
    )
    yield (
        f"  p99.9 {r.baseline.p999_ns / 1e3:.2f} -> {r.traced.p999_ns / 1e3:.2f} us; "
        f"loss {r.baseline_loss} -> {r.traced_loss}; records {r.records_collected}"
    )


@dataclass
class NetperfOverheadResult:
    link_gbps: float
    baseline_bps: float
    vnettracer_bps: float
    systemtap_bps: float
    vnettracer_loss_pct: float
    systemtap_loss_pct: float


def _run_netperf(
    seed: int, link_gbps: float, tracer_kind: Optional[str], duration_ns: int
) -> float:
    scene = build_netperf_xen(seed=seed, link_gbps=link_gbps)
    engine = scene.engine
    server = NetperfServer(scene.server_vm.node, scene.vm_ip, cpu_index=0)
    client = NetperfClient(
        scene.client_host.node,
        scene.client_ip,
        scene.vm_ip,
        mode="TCP_STREAM",
        gso_bytes=65160,
    )
    if tracer_kind == "vnettracer":
        tracer = VNetTracer(engine)
        tracer.add_agent(scene.server_vm.node)
        spec = TracingSpec(
            rule=FilterRule(),  # trace every received segment, as the paper's script does
            tracepoints=[
                TracepointSpec(
                    node=scene.server_vm.node.name,
                    hook="kretprobe:tcp_recvmsg",
                    label="vm:tcp_recvmsg",
                    id_mode="tcp-option",
                )
            ],
        )
        tracer.deploy(spec)
    elif tracer_kind == "systemtap":
        session = SystemTapSession(scene.server_vm.node, no_overload=True)
        session.add_probe("kretprobe:tcp_recvmsg")
        session.arm()

    warmup = 100_000_000
    client.start(duration_ns, start_delay_ns=0)
    engine.schedule(warmup, server.reset_window)
    engine.run(until=duration_ns + 100_000_000)
    return server.goodput_bps()


def run_fig7b(
    seed: int = 11, link_gbps: float = 1.0, duration_ns: int = 1_000_000_000
) -> NetperfOverheadResult:
    """Fig. 7(b): netperf throughput under no tracing / vNetTracer /
    SystemTap."""
    baseline = _run_netperf(seed, link_gbps, None, duration_ns)
    vnt = _run_netperf(seed, link_gbps, "vnettracer", duration_ns)
    stap = _run_netperf(seed, link_gbps, "systemtap", duration_ns)
    return NetperfOverheadResult(
        link_gbps=link_gbps,
        baseline_bps=baseline,
        vnettracer_bps=vnt,
        systemtap_bps=stap,
        vnettracer_loss_pct=100.0 * (baseline - vnt) / baseline if baseline else 0.0,
        systemtap_loss_pct=100.0 * (baseline - stap) / baseline if baseline else 0.0,
    )


# Link speed -> the SystemTap loss the paper reports on it.
FIG7B_PAPER_STAP_LOSS = {1.0: "10%", 10.0: "26.5%"}


def run_fig7b_sweep(
    seed: int = 11, duration_ns: int = 1_000_000_000
) -> List[NetperfOverheadResult]:
    """Fig. 7(b) on both of the paper's links."""
    return [
        run_fig7b(seed=seed, link_gbps=gbps, duration_ns=duration_ns)
        for gbps in FIG7B_PAPER_STAP_LOSS
    ]


def present_fig7b(results: List[NetperfOverheadResult]) -> Iterator[str]:
    for r in results:
        yield (
            f"  {r.link_gbps:g}G: baseline {r.baseline_bps / 1e6:.0f} Mbps | "
            f"vNetTracer -{r.vnettracer_loss_pct:.1f}% | "
            f"SystemTap -{r.systemtap_loss_pct:.1f}% "
            f"(paper {FIG7B_PAPER_STAP_LOSS[r.link_gbps]})"
        )
