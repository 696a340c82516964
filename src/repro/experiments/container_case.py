"""Case Study III: bottlenecks of the container overlay (§IV-E, Figs. 12-13).

Two KVM VMs on one host; Docker containers on a VXLAN overlay between
them (etcd control store).  Measurements:

* Fig. 12(b): Netperf/iPerf TCP and UDP throughput, VM-to-VM vs
  container-to-container (paper: containers reach only 16.8 % / 22.9 %
  of the VM TCP/UDP numbers);
* Fig. 13(a): ``net_rx_action`` execution rate (containers ~4.5x the
  VM case despite far lower throughput) and its distribution across
  CPUs via ``get_rps_cpu`` (VMs ~99.7 % on CPU 0, containers spread,
  ~63 % on CPU 0) -- both measured with vNetTracer counting probes;
* Fig. 13(b): the packet data path, reconstructed from per-device
  trace records ordered by timestamp: the overlay path is much deeper
  (VXLAN decap, bridge, veth reinjections).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterator, List

from repro.core import ActionSpec, FilterRule, TracepointSpec, TracingSpec, VNetTracer
from repro.experiments.topologies import OverlayCaseScene, build_overlay_case
from repro.net.packet import IPPROTO_TCP
from repro.workloads.netperf import NetperfClient, NetperfServer

WARMUP_NS = 100_000_000
VM_GSO_BYTES = 65160
NETPERF_PORT = 12865
UDP_RATE_PPS = 150_000
# netperf UDP_STREAM default-ish large sends: UFO carries them whole on
# the virtio path; the VXLAN tunnel must fragment them to the wire.
UDP_DATAGRAM_BYTES = 16_384


@dataclass
class ThroughputPair:
    vm_bps: float
    container_bps: float

    @property
    def ratio(self) -> float:
        return self.container_bps / self.vm_bps if self.vm_bps else 0.0


def _run_stream(
    scene: OverlayCaseScene,
    container_path: bool,
    udp: bool,
    duration_ns: int,
) -> float:
    engine = scene.engine
    if container_path:
        server_node, server_ip = scene.container2.node, scene.c2_ip
        client_node, client_ip = scene.container1.node, scene.c1_ip
    else:
        server_node, server_ip = scene.vm2.node, scene.vm2_ip
        client_node, client_ip = scene.vm1.node, scene.vm1_ip

    server = NetperfServer(server_node, server_ip, port=NETPERF_PORT, cpu_index=1, udp=udp)
    client = NetperfClient(
        client_node,
        client_ip,
        server_ip,
        server_port=NETPERF_PORT,
        mode="UDP_STREAM" if udp else "TCP_STREAM",
        gso_bytes=VM_GSO_BYTES,
        udp_payload_bytes=UDP_DATAGRAM_BYTES,
        udp_rate_pps=UDP_RATE_PPS,
        cpu_index=1,
    )
    client.start(duration_ns + WARMUP_NS)
    engine.schedule(WARMUP_NS, server.reset_window)
    engine.run(until=WARMUP_NS + duration_ns + 100_000_000)
    return server.goodput_bps()


def run_fig12b(seed: int = 23, duration_ns: int = 400_000_000) -> Dict[str, ThroughputPair]:
    """Netperf TCP and UDP goodput, VM path vs overlay path."""
    results: Dict[str, ThroughputPair] = {}
    for name, udp in (("netperf_tcp", False), ("netperf_udp", True)):
        vm_bps = _run_stream(build_overlay_case(seed=seed), False, udp, duration_ns)
        ct_bps = _run_stream(build_overlay_case(seed=seed), True, udp, duration_ns)
        results[name] = ThroughputPair(vm_bps, ct_bps)
    return results


def present_fig12b(results: Dict[str, ThroughputPair]) -> Iterator[str]:
    for name, pair in results.items():
        yield (
            f"  {name:12s} VM {pair.vm_bps / 1e9:6.2f} Gbps | "
            f"containers {pair.container_bps / 1e9:6.2f} Gbps | "
            f"ratio {pair.ratio * 100:5.1f}%"
        )


def pinned_fig12b() -> dict:
    """Pinned metrics: 30 ms per path."""
    results = run_fig12b(duration_ns=30_000_000)
    out = {}
    for name, pair in results.items():
        out[f"{name}_vm_gbps"] = round(pair.vm_bps / 1e9, 3)
        out[f"{name}_container_gbps"] = round(pair.container_bps / 1e9, 3)
        out[f"{name}_ratio_pct"] = round(pair.ratio * 100, 2)
    return out


@dataclass
class SoftirqResult:
    path: str
    goodput_bps: float
    net_rx_rate_per_s: float
    cpu_distribution: Dict[int, float]
    softirq_invocations: List[int]


def run_fig13a_path(
    container_path: bool, seed: int = 23, duration_ns: int = 400_000_000
) -> SoftirqResult:
    """Trace net_rx_action rate + get_rps_cpu distribution on the
    receiving VM during a netperf TCP run."""
    scene = build_overlay_case(seed=seed)
    engine = scene.engine
    receiver = scene.vm2.node

    tracer = VNetTracer(engine)
    tracer.add_agent(receiver, enable_packet_ids=False)
    spec = TracingSpec(
        rule=FilterRule(),  # count every softirq / steering decision
        tracepoints=[
            TracepointSpec(
                node=receiver.name,
                hook="kprobe:net_rx_action",
                label="vm2:net_rx_action",
                id_mode="none",
            ),
            TracepointSpec(
                node=receiver.name,
                hook="kprobe:get_rps_cpu",
                label="vm2:get_rps_cpu",
                id_mode="none",
            ),
        ],
        action=ActionSpec(record=True, count=True),
    )
    tracer.deploy(spec)

    goodput = _run_stream(scene, container_path, udp=False, duration_ns=duration_ns)
    tracer.collect()
    return SoftirqResult(
        path="container" if container_path else "vm",
        goodput_bps=goodput,
        net_rx_rate_per_s=tracer.rate("vm2:net_rx_action"),
        cpu_distribution=tracer.cpu_distribution("vm2:get_rps_cpu"),
        softirq_invocations=list(receiver.softirq.invocations),
    )


def run_fig13a(seed: int = 23, duration_ns: int = 400_000_000) -> Dict[str, SoftirqResult]:
    return {
        "vm": run_fig13a_path(False, seed=seed, duration_ns=duration_ns),
        "container": run_fig13a_path(True, seed=seed, duration_ns=duration_ns),
    }


def present_fig13a(results: Dict[str, SoftirqResult]) -> Iterator[str]:
    for path, r in results.items():
        dist = ", ".join(f"cpu{c}:{f * 100:.1f}%" for c, f in r.cpu_distribution.items())
        yield (
            f"  {path:10s} goodput {r.goodput_bps / 1e9:5.2f} Gbps | "
            f"net_rx_action {r.net_rx_rate_per_s:8.0f}/s | {dist}"
        )
    ratio = results["container"].net_rx_rate_per_s / results["vm"].net_rx_rate_per_s
    yield f"  rate ratio {ratio:.2f}x (paper 4.54x)"


def pinned_fig13a() -> dict:
    """Pinned metrics: 30 ms per path."""
    results = run_fig13a(duration_ns=30_000_000)
    out = {}
    for path, r in results.items():
        out[f"{path}_goodput_gbps"] = round(r.goodput_bps / 1e9, 3)
        out[f"{path}_net_rx_rate_per_s"] = round(r.net_rx_rate_per_s, 1)
    return out


@dataclass
class DataPathResult:
    path: str
    hops: List[str]  # unique devices in first-traversal order
    raw_records: int  # total records for the chosen trace ID


def run_fig13b_path(
    container_path: bool, seed: int = 23, duration_ns: int = 150_000_000
) -> DataPathResult:
    """Reconstruct the receive-side data path from per-device records.

    Tracing scripts sit on every device of the receiving VM; the hop
    sequence of a single traced packet (ordered by timestamp) is the
    Fig. 13(b) picture.  On the overlay path the scripts must strip the
    VXLAN header to match the inner flow (``strip_vxlan=True``).
    """
    scene = build_overlay_case(seed=seed)
    engine = scene.engine
    receiver = scene.vm2.node

    tracer = VNetTracer(engine)
    tracer.add_agent(scene.vm1.node)
    tracer.add_agent(receiver)

    if container_path:
        rule = FilterRule(dst_ip=scene.c2_ip, dst_port=NETPERF_PORT, protocol=IPPROTO_TCP)
    else:
        rule = FilterRule(dst_ip=scene.vm2_ip, dst_port=NETPERF_PORT, protocol=IPPROTO_TCP)

    tracepoints = []
    for device_name in receiver.devices:
        if device_name == "lo":
            continue
        tracepoints.append(
            TracepointSpec(
                node=receiver.name,
                hook=f"dev:{device_name}",
                label=f"vm2:{device_name}",
                strip_vxlan=True,
                id_mode="tcp-option",
            )
        )
    # The application end of the path.
    tracepoints.append(
        TracepointSpec(
            node=receiver.name,
            hook="kretprobe:tcp_recvmsg",
            label="vm2:tcp_recvmsg",
            strip_vxlan=True,
            id_mode="tcp-option",
        )
    )
    spec = TracingSpec(rule=rule, tracepoints=tracepoints)
    tracer.deploy(spec)

    _run_stream(scene, container_path, udp=False, duration_ns=duration_ns)
    tracer.collect()

    # Pick a trace ID seen at the most points; the unique devices in
    # first-traversal order are the data path (segmentation makes one
    # super-segment's ID appear on every derived wire packet, hence the
    # de-duplication).
    best_rows: list = []
    for label in (tp.label for tp in tracepoints):
        for trace_id, _row in tracer.db.trace_ids_at(label).items():
            rows = tracer.db.rows_for_trace(trace_id)
            if len(rows) > len(best_rows):
                best_rows = rows
    hops: List[str] = []
    for row in best_rows:
        if row.label not in hops:
            hops.append(row.label)
    return DataPathResult(
        path="container" if container_path else "vm",
        hops=hops,
        raw_records=len(best_rows),
    )


def run_fig13b(seed: int = 23) -> Dict[str, DataPathResult]:
    return {
        "vm": run_fig13b_path(False, seed=seed),
        "container": run_fig13b_path(True, seed=seed),
    }


def present_fig13b(results: Dict[str, DataPathResult]) -> Iterator[str]:
    for path, r in results.items():
        yield f"  {path:10s} ({len(r.hops)} hops): {' -> '.join(r.hops)}"


def pinned_fig13b() -> dict:
    """Pinned metrics: the hop counts of the runner's fixed walk."""
    results = run_fig13b()
    return {
        "vm_hops": len(results["vm"].hops),
        "container_hops": len(results["container"].hops),
    }
