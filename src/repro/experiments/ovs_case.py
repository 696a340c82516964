"""Case Study I: network delay in Open vSwitch (§IV-C, Figs. 8-9).

Topology (Fig. 8a): KVM VMs on one server connected by a single OVS.
The latency-sensitive flow is Sockperf from VM0 to the last VM; bulk
iPerf flows congest the data path:

========  =====================================================
case      interfering load
========  =====================================================
I         none (uncongested baseline)
II        one iPerf client on VM0 (shares Sockperf's ingress port)
II+       three iPerf clients on VM0 (same port: queue saturated,
          the gap to II stays flat)
III       iPerf on VM0 and on VM1 (second busy ingress port:
          switching-processing delay appears)
III+      iPerf on VM0, VM1, VM2 (more busy ports: that delay grows)
========  =====================================================

Fig. 9(a) decomposes Sockperf latency into sender stack / OVS /
receiver stack using vNetTracer probes at ``udp_send_skb`` (VM0), the
OVS ingress and egress ports (host), and ``skb_copy_datagram_iovec``
(server VM).  Fig. 9(b) repeats II/III with OVS ingress policing
(rate 1e5 kbps, burst 1e4 kb, the paper's settings) and alternatively
HTB shaping.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional

from repro.core import FilterRule, TracepointSpec, TracingSpec, VNetTracer
from repro.experiments.topologies import build_ovs_case
from repro.net.costs import CostModel, DEFAULT_COSTS
from repro.net.packet import IPPROTO_UDP
from repro.workloads.iperf import IperfUDPClient, IperfUDPServer
from repro.workloads.sockperf import SockperfClient, SockperfServer
from repro.workloads.stats import LatencySummary

CASES = ("I", "II", "II+", "III", "III+")

# Which VM indices run iPerf clients, per case (server is the last VM).
_CASE_LOADS: Dict[str, List[int]] = {
    "I": [],
    "II": [0],
    "II+": [0, 0, 0],
    "III": [0, 1],
    "III+": [0, 1, 2],
}

SOCKPERF_PORT = 11111
IPERF_BASE_PORT = 5201
IPERF_RATE_PPS = 145_000
WARMUP_NS = 100_000_000

# The paper's mitigation settings (§IV-C).
PAPER_POLICING_RATE_KBPS = 100_000
PAPER_POLICING_BURST_KB = 10_000


def ovs_costs() -> CostModel:
    """Case-study cost model: the full serialized per-packet OVS path
    (flow lookup + actions + vhost egress copy) against ~170 kpps of
    offered bulk load, with a 128-packet ingress queue."""
    return DEFAULT_COSTS.with_overrides(
        ovs_switch_ns=3000,
        ovs_ingress_queue_packets=128,
    )


@dataclass
class OVSCaseResult:
    case: str
    sockperf: LatencySummary
    decomposition: Optional[Dict[str, LatencySummary]]
    iperf_goodputs_bps: List[float]
    policer_drops: int
    queue_drops: int
    # Populated when ``trace=True``: the tracer (its TraceDB holds the
    # collected records, so span timelines can be built afterwards --
    # see docs/TIMELINES.md) and the tracepoint chain in path order.
    tracer: Optional[VNetTracer] = None
    chain: Optional[List[str]] = None


def run_case(
    case: str = "I",
    seed: int = 13,
    duration_ns: int = 1_000_000_000,
    mps: int = 1000,
    trace: bool = False,
    rate_limit: bool = False,
    htb: bool = False,
    costs: Optional[CostModel] = None,
    streaming: bool = False,
) -> OVSCaseResult:
    """Run one congestion case; optionally decompose with vNetTracer.

    ``streaming=True`` (requires ``trace=True``) additionally attaches
    the live window-aggregation layer over the case's tracepoint chain
    (docs/STREAMING.md); all windows are closed after final collection,
    so ``result.tracer.streaming`` holds the drained aggregator."""
    if case not in _CASE_LOADS:
        raise ValueError(f"unknown case {case!r}; choose from {CASES}")
    load = _CASE_LOADS[case]
    num_vms = max(3, max(load) + 2 if load else 3)
    scene = build_ovs_case(seed=seed, num_vms=num_vms, costs=costs or ovs_costs())
    engine = scene.engine
    server_index = num_vms - 1
    server_vm = scene.vms[server_index]
    server_ip = scene.vm_ips[server_index]

    sock_server = SockperfServer(server_vm.node, server_ip, port=SOCKPERF_PORT)
    sock_client = SockperfClient(
        scene.vms[0].node,
        scene.vm_ips[0],
        server_ip,
        server_port=SOCKPERF_PORT,
        mps=mps,
        mode="under-load",
        cpu_index=1,
    )

    iperf_servers: List[IperfUDPServer] = []
    iperf_clients: List[IperfUDPClient] = []
    for stream_index, vm_index in enumerate(load):
        port = IPERF_BASE_PORT + stream_index
        iperf_servers.append(
            IperfUDPServer(server_vm.node, server_ip, port=port, cpu_index=2)
        )
        iperf_clients.append(
            IperfUDPClient(
                scene.vms[vm_index].node,
                scene.vm_ips[vm_index],
                server_ip,
                server_port=port,
                local_port=30000 + stream_index,
                rate_pps=IPERF_RATE_PPS,
                cpu_index=2 + (stream_index % 2),
            )
        )

    if rate_limit:
        # Paper: policing on the client-VM ports (vnet0 and vnet1).
        for name in ("vnet0", "vnet1"):
            scene.ovs.port_of(name).set_policing(
                PAPER_POLICING_RATE_KBPS, PAPER_POLICING_BURST_KB
            )
    elif htb:
        for name in ("vnet0", "vnet1"):
            shaper = scene.ovs.port_of(name).set_htb()
            shaper.add_class(
                lambda p: p.app.startswith("iperf"), PAPER_POLICING_RATE_KBPS
            )

    tracer = None
    labels = {}
    if trace:
        tracer = VNetTracer(engine)
        tracer.add_agent(scene.vms[0].node)
        tracer.add_agent(scene.host.node)
        tracer.add_agent(server_vm.node)
        labels = {
            "send": "vm0:udp_send_skb",
            "ovs_in": "host:vnet0",
            "ovs_out": f"host:vnet{server_index}",
            "recv": "server:skb_copy",
        }
        spec = TracingSpec(
            rule=FilterRule(dst_port=SOCKPERF_PORT, protocol=IPPROTO_UDP),
            tracepoints=[
                TracepointSpec(
                    node=scene.vms[0].node.name,
                    hook="kprobe:udp_send_skb",
                    label=labels["send"],
                ),
                TracepointSpec(
                    node=scene.host.node.name, hook="dev:vnet0", label=labels["ovs_in"]
                ),
                TracepointSpec(
                    node=scene.host.node.name,
                    hook=f"dev:vnet{server_index}",
                    label=labels["ovs_out"],
                ),
                TracepointSpec(
                    node=server_vm.node.name,
                    hook="kprobe:skb_copy_datagram_iovec",
                    label=labels["recv"],
                ),
            ],
        )
        if streaming:
            tracer.attach_streaming(
                [labels["send"], labels["ovs_in"], labels["ovs_out"],
                 labels["recv"]],
            )
        tracer.deploy(spec)
    elif streaming:
        raise ValueError("streaming=True requires trace=True")

    for client in iperf_clients:
        client.start(duration_ns + WARMUP_NS, start_delay_ns=10_000_000)
    sock_client.start(duration_ns, start_delay_ns=WARMUP_NS)
    engine.run(until=WARMUP_NS + duration_ns + 200_000_000)

    decomposition = None
    chain = None
    if tracer is not None:
        tracer.collect()
        if tracer.streaming is not None:
            tracer.streaming.close_all()
        chain = [labels["send"], labels["ovs_in"], labels["ovs_out"], labels["recv"]]
        segments = tracer.decompose(chain)
        decomposition = {
            "sender_stack": segments[0].summary(),
            "ovs": segments[1].summary(),
            "receiver_stack": segments[2].summary(),
        }

    port0 = scene.ovs.port_of("vnet0")
    return OVSCaseResult(
        case=case,
        sockperf=sock_client.summary(),
        decomposition=decomposition,
        iperf_goodputs_bps=[s.goodput_bps() for s in iperf_servers],
        policer_drops=sum(
            p.policer_drops for p in scene.ovs.ports
        ),
        queue_drops=sum(p.queue_drops for p in scene.ovs.ports),
        tracer=tracer,
        chain=chain,
    )


def run_fig8b(seed: int = 13, duration_ns: int = 1_000_000_000) -> Dict[str, LatencySummary]:
    """Sockperf latency for Cases I/II/III (Fig. 8b)."""
    return {
        case: run_case(case, seed=seed, duration_ns=duration_ns).sockperf
        for case in ("I", "II", "III")
    }


def run_fig9a(seed: int = 13, duration_ns: int = 1_000_000_000):
    """Latency decomposition for Cases I, II, II+, III, III+ (Fig. 9a)."""
    results = {}
    for case in CASES:
        outcome = run_case(case, seed=seed, duration_ns=duration_ns, trace=True)
        results[case] = outcome.decomposition
    return results


def run_fig9b(seed: int = 13, duration_ns: int = 1_000_000_000):
    """Cases II/III with and without ingress policing (Fig. 9b)."""
    results = {}
    for case in ("II", "III"):
        results[case] = run_case(case, seed=seed, duration_ns=duration_ns).sockperf
        results[f"{case}+ratelimit"] = run_case(
            case, seed=seed, duration_ns=duration_ns, rate_limit=True
        ).sockperf
    return results


def present_fig8b(results: Dict[str, LatencySummary]) -> Iterator[str]:
    for case, summary in results.items():
        s = summary.scaled()
        yield f"  Case {case:4s} avg {s['avg']:9.1f} us   p99.9 {s['p99.9']:9.1f} us"


def pinned_fig8b() -> dict:
    """Pinned metrics: 40 ms per case."""
    results = run_fig8b(duration_ns=40_000_000)
    return {
        f"case_{case}_{stat}_us": round(value, 1)
        for case, summary in results.items()
        for stat, value in (("avg", summary.avg_ns / 1e3), ("p999", summary.p999_ns / 1e3))
    }


def present_fig9a(results) -> Iterator[str]:
    for case, d in results.items():
        yield (
            f"  Case {case:4s} sender {d['sender_stack'].avg_ns / 1e3:7.1f} us | "
            f"OVS {d['ovs'].avg_ns / 1e3:9.1f} us | "
            f"receiver {d['receiver_stack'].avg_ns / 1e3:7.1f} us"
        )


def pinned_fig9a() -> dict:
    """Pinned metrics: 30 ms per case."""
    results = run_fig9a(duration_ns=30_000_000)
    return {
        f"case_{case}_{segment}_avg_us": round(summary.avg_ns / 1e3, 1)
        for case, decomposition in results.items()
        for segment, summary in decomposition.items()
    }


def present_fig9b(results: Dict[str, LatencySummary]) -> Iterator[str]:
    for key, summary in results.items():
        s = summary.scaled()
        yield f"  {key:15s} avg {s['avg']:9.1f} us   p99.9 {s['p99.9']:9.1f} us"


def pinned_fig9b() -> dict:
    """Pinned metrics: 40 ms per case."""
    results = run_fig9b(duration_ns=40_000_000)
    return {
        f"{key.replace('+', '_')}_avg_us": round(summary.avg_ns / 1e3, 1)
        for key, summary in results.items()
    }


def ovs_case_digest(case: str = "I", seed: int = 13, duration_ns: int = 200_000_000) -> str:
    """16-hex-char digest of a small deterministic run (the
    ScenarioSpec registry's digest hook)."""
    import hashlib

    result = run_case(case, seed=seed, duration_ns=duration_ns)
    fingerprint = repr(
        (
            result.case,
            result.sockperf,
            result.iperf_goodputs_bps,
            result.policer_drops,
            result.queue_drops,
        )
    )
    return hashlib.sha256(fingerprint.encode()).hexdigest()[:16]
