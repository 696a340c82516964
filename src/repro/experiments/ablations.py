"""The §II / §III-C ablations: one design choice each, on and off.

Each runner takes its full-scale workload by default and returns the
raw comparison; ``pinned_<name>`` beside it runs a small fixed
workload (tens of ms) and re-keys the result into that scenario's
``bench:`` row of the pin table.  The shape claims each ablation makes are
``tests/test_paper_claims.py`` / ``tests/paper_claims_long.py``.

===========================  ==============================================
spec                         design choice
===========================  ==============================================
ablation_collection_mode     online vs offline collection (§III-C)
ablation_ebpf_jit            eBPF interpreter vs JIT per-probe cost (§II)
ablation_filter_selectivity  a per-flow filter vs a match-everything probe
ablation_ratelimit_sweep     the credit2 rate limit, swept
                             (:func:`repro.experiments.xen_case.run_ratelimit_sweep`)
ablation_ring_buffer         kernel ring-buffer size vs record loss
ablation_trace_ids           the per-packet trace-ID embed/trim cost (§III-B)
===========================  ==============================================
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence, Tuple

from repro.core import (
    ActionSpec,
    FilterRule,
    GlobalConfig,
    TracepointSpec,
    TracingSpec,
    VNetTracer,
)
from repro.core.compiler import compile_script
from repro.ebpf.context import skb_fields
from repro.ebpf.maps import PerfEventArray
from repro.ebpf.vm import ExecutionEnv
from repro.experiments.topologies import build_netperf_xen, build_two_host_kvm
from repro.net.addressing import IPv4Address, MACAddress
from repro.net.packet import IPPROTO_TCP, IPPROTO_UDP, make_udp_packet
from repro.net.traceid import TraceIDEngine
from repro.workloads.netperf import NetperfClient, NetperfServer
from repro.workloads.sockperf import SockperfClient, SockperfServer

# -- online vs offline collection ---------------------------------------------


def _collection_mode(online: bool, duration_ns: int) -> dict:
    scene = build_two_host_kvm(seed=21)
    engine = scene.engine
    SockperfServer(scene.vm2.node, scene.vm2_ip)
    client = SockperfClient(scene.vm1.node, scene.vm1_ip, scene.vm2_ip, mps=5000)
    tracer = VNetTracer(engine)
    tracer.add_agent(scene.vm1.node)
    tracer.add_agent(scene.vm2.node)
    spec = TracingSpec(
        rule=FilterRule(dst_port=11111, protocol=IPPROTO_UDP),
        tracepoints=[
            TracepointSpec(node=scene.vm1.node.name, hook="kprobe:udp_send_skb", label="send"),
            TracepointSpec(
                node=scene.vm2.node.name, hook="kprobe:skb_copy_datagram_iovec", label="recv"
            ),
        ],
        global_config=GlobalConfig(online_collection=online, flush_interval_ns=5_000_000),
    )
    tracer.deploy(spec)
    cpu0 = scene.vm1.node.cpus[0]
    busy_before = cpu0.busy_ns
    client.start(duration_ns, start_delay_ns=5_000_000)
    engine.run(until=duration_ns + 200_000_000)
    rows_before_collect = tracer.db.rows_inserted
    tracer.collect()
    return {
        "avg_us": client.summary().avg_ns / 1e3,
        "agent_cpu0_busy_us": (cpu0.busy_ns - busy_before) / 1e3,
        "rows_live": rows_before_collect,
        "rows_total": tracer.db.rows_inserted,
    }


def run_collection_modes(duration_ns: int = 400_000_000) -> Dict[str, dict]:
    """§III-C: online collection feeds the collector in real time but
    "could consume additional CPU and network bandwidth"; offline
    defers the transfer until after the experiment.  Agent-side CPU and
    the traced sockperf's latency under both modes."""
    return {
        "offline": _collection_mode(False, duration_ns),
        "online": _collection_mode(True, duration_ns),
    }


def pinned_ablation_collection_mode() -> dict:
    """Pinned metrics: 40 ms per mode."""
    out = {}
    for mode, r in run_collection_modes(40_000_000).items():
        out[f"{mode}_avg_us"] = round(r["avg_us"], 3)
        out[f"{mode}_agent_cpu0_busy_us"] = round(r["agent_cpu0_busy_us"], 1)
        out[f"{mode}_rows_total"] = r["rows_total"]
    return out


# -- eBPF interpreter vs JIT -----------------------------------------------------

# Steady-state probe fires per mode: enough that load and compile
# amortise below the measurement floor, so a host profile of this
# ablation tracks dispatch, not the one-time compile + load.
STEADY_RUNS = 400


def _script_cost(jit: bool, steady_runs: int) -> Tuple[int, int, int]:
    perf = PerfEventArray(num_cpus=2)
    program, maps = compile_script(
        FilterRule(dst_port=11111, protocol=IPPROTO_UDP),
        TracepointSpec(node="n", hook="dev:x"),
        ActionSpec(record=True),
        perf_map=perf,
        jit=jit,
    )
    load_cost = program.load()
    packet = make_udp_packet(
        MACAddress.from_index(1),
        MACAddress.from_index(2),
        IPv4Address("10.0.0.1"),
        IPv4Address("10.0.0.2"),
        1,
        11111,
        b"x" * 60,
    )
    fields, data = skb_fields(packet)
    env = ExecutionEnv(maps=maps)
    # The first fire gives the deterministic simulated costs; the rest
    # keep the loaded program hot.
    result = program.run(env, fields, data)
    for _ in range(steady_runs - 1):
        program.run(env, fields, data)
    return load_cost, result.cost_ns, result.insns_executed


def run_interp_vs_jit(steady_runs: int = STEADY_RUNS) -> Dict[str, Tuple[int, int, int]]:
    """§II: "the JIT compiling minimizes the execution overhead of the
    eBPF code".  ``mode -> (load cost ns, per-hit cost ns, instructions
    executed)`` of one realistic script (filter + ID extraction + record
    emission), each mode fired ``steady_runs`` times."""
    return {
        "interp": _script_cost(jit=False, steady_runs=steady_runs),
        "jit": _script_cost(jit=True, steady_runs=steady_runs),
    }


def pinned_ablation_ebpf_jit() -> dict:
    results = run_interp_vs_jit()
    interp_load, interp_cost, insns = results["interp"]
    jit_load, jit_cost, _ = results["jit"]
    return {
        "insns_executed": insns,
        "interp_cost_ns": interp_cost,
        "jit_cost_ns": jit_cost,
        "interp_load_ns": interp_load,
        "jit_load_ns": jit_load,
        "steady_runs_per_mode": STEADY_RUNS,
    }


# -- filter selectivity ---------------------------------------------------------


def _netperf_goodput(rule: Optional[FilterRule], duration_ns: int) -> float:
    scene = build_netperf_xen(seed=11, link_gbps=10.0)
    engine = scene.engine
    server = NetperfServer(scene.server_vm.node, scene.vm_ip, cpu_index=0)
    client = NetperfClient(scene.client_host.node, scene.client_ip, scene.vm_ip, gso_bytes=65160)
    if rule is not None:
        tracer = VNetTracer(engine)
        tracer.add_agent(scene.server_vm.node)
        tracepoint = TracepointSpec(
            node=scene.server_vm.node.name,
            hook="kretprobe:tcp_recvmsg",
            label="recvmsg",
            id_mode="tcp-option",
        )
        tracer.deploy(TracingSpec(rule=rule, tracepoints=[tracepoint]))
    client.start(duration_ns)
    # Restart the measurement window once the first fifth of the run is
    # done.  Scaled with the duration: a fixed offset past a short
    # run's traffic would reset an idle server and report 0 goodput.
    engine.schedule(duration_ns // 5, server.reset_window)
    engine.run(until=duration_ns + 100_000_000)
    return server.goodput_bps()


def run_filter_selectivity(duration_ns: int = 250_000_000) -> Dict[str, float]:
    """A per-flow filter exits a non-matching packet after a few
    comparisons; a match-everything script pays the full record path on
    every packet.  Netperf goodput (bit/s) on a 10G receive path:
    untraced, probed by a filter that misses, probed by one that
    matches everything."""
    return {
        "untraced": _netperf_goodput(None, duration_ns),
        "selective": _netperf_goodput(
            FilterRule(dst_port=9999, protocol=IPPROTO_TCP), duration_ns
        ),
        "match_all": _netperf_goodput(FilterRule(), duration_ns),
    }


def pinned_ablation_filter_selectivity() -> dict:
    """Pinned metrics: 25 ms per leg."""
    results = run_filter_selectivity(25_000_000)
    return {f"{leg}_mbps": round(bps / 1e6, 1) for leg, bps in results.items()}


# -- credit2 rate-limit sweep -------------------------------------------------------


def pinned_ablation_ratelimit_sweep() -> dict:
    """The paper flips the rate limit from 1000 us to 0: pinned metrics
    at those two points, 30 ms each (the runner also sweeps between)."""
    from repro.experiments.xen_case import run_ratelimit_sweep

    points = run_ratelimit_sweep(values_us=(0, 1000), duration_ns=30_000_000)
    out = {}
    for point in points:
        key = f"ratelimit_{point.ratelimit_us}us"
        out[f"{key}_p999_us"] = round(point.sockperf.p999_ns / 1e3, 1)
        out[f"{key}_ctx_switches"] = point.context_switches
    return out


# -- ring-buffer size -----------------------------------------------------------------

RING_SIZES = (64, 256, 1024, 16 * 1024)


def _ring_loss(ring_bytes: int, duration_ns: int) -> Tuple[int, int, int]:
    scene = build_two_host_kvm(seed=9)
    engine = scene.engine
    SockperfServer(scene.vm2.node, scene.vm2_ip)
    client = SockperfClient(scene.vm1.node, scene.vm1_ip, scene.vm2_ip, mps=2000)
    tracer = VNetTracer(engine)
    tracer.add_agent(scene.vm1.node)
    spec = TracingSpec(
        rule=FilterRule(dst_port=11111, protocol=IPPROTO_UDP),
        tracepoints=[
            TracepointSpec(node=scene.vm1.node.name, hook="kprobe:udp_send_skb", label="send"),
        ],
        global_config=GlobalConfig(ring_buffer_bytes=ring_bytes, flush_interval_ns=10_000_000),
    )
    tracer.deploy(spec)
    client.start(duration_ns, start_delay_ns=5_000_000)
    engine.run(until=duration_ns + 100_000_000)
    tracer.collect()
    agent = tracer.agents[scene.vm1.node.name]
    return client.sent, tracer.db.count("send"), agent.dropped_records()


def run_ring_buffer_sweep(
    sizes: Sequence[int] = RING_SIZES, duration_ns: int = 300_000_000
) -> Dict[int, Tuple[int, int, int]]:
    """The paper bounds the buffer at 32 B .. 128 KB-16 (kmalloc); an
    undersized one drops records between flushes.  ``size -> (sent,
    recorded, dropped)`` for a 2000-records/s probe at a 10 ms flush."""
    return {size: _ring_loss(size, duration_ns) for size in sizes}


def pinned_ablation_ring_buffer() -> dict:
    """Pinned metrics: the smallest and largest ring, 30 ms each."""
    out = {}
    for size, (sent, recorded, dropped) in run_ring_buffer_sweep(
        (64, 16 * 1024), 30_000_000
    ).items():
        out[f"ring_{size}b_sent"] = sent
        out[f"ring_{size}b_recorded"] = recorded
        out[f"ring_{size}b_dropped"] = dropped
    return out


# -- trace-ID embed/trim cost -------------------------------------------------------


def _sockperf_avg_ns(with_ids: bool, duration_ns: int) -> float:
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


def run_trace_id_cost(duration_ns: int = 400_000_000) -> Dict[str, float]:
    """§III-B: the ID operations "only involve tens of nanoseconds
    overhead".  Sockperf average latency (ns) on a pristine kernel and
    with the trace-ID patch on both VMs, no agents: the embed/trim cost
    alone, without probe execution."""
    return {
        "plain": _sockperf_avg_ns(False, duration_ns),
        "with_ids": _sockperf_avg_ns(True, duration_ns),
    }


def pinned_ablation_trace_ids() -> dict:
    """Pinned metrics: 40 ms per kernel."""
    results = run_trace_id_cost(40_000_000)
    return {
        "plain_avg_us": round(results["plain"] / 1e3, 3),
        "with_ids_avg_us": round(results["with_ids"] / 1e3, 3),
        "delta_ns": round(results["with_ids"] - results["plain"], 1),
    }
