"""Microbenchmark: eBPF dispatch cost, compiled vs interpreter rates.

Probes execute per packet, so the host-side cost of one program
invocation bounds how fast any traced scenario can simulate.  Runs a
realistic vNetTracer script (filter + ID extraction + record emission)
thousands of times in both cost modes, and redeploys the same bytecode
repeatedly the way agents do on reconfiguration -- the path the
verified+compiled program cache accelerates.
"""

from repro.core.compiler import compile_script
from repro.core.config import ActionSpec, FilterRule, TracepointSpec
from repro.ebpf.context import build_skb_context
from repro.ebpf.maps import PerfEventArray
from repro.ebpf.vm import ExecutionEnv
from repro.net.addressing import IPv4Address, MACAddress
from repro.net.packet import IPPROTO_UDP, make_udp_packet

FULL_RUNS = 40_000
REDEPLOYS = 50


def _build(jit: bool, tracepoint=None):
    perf = PerfEventArray(num_cpus=2)
    perf.set_consumer(lambda _record: None)
    if tracepoint is None:
        tracepoint = TracepointSpec(node="n", hook="dev:x")
    program, maps = compile_script(
        FilterRule(dst_port=11111, protocol=IPPROTO_UDP),
        tracepoint,
        ActionSpec(record=True),
        perf_map=perf,
        jit=jit,
    )
    program.load()
    packet = make_udp_packet(
        MACAddress.from_index(1), MACAddress.from_index(2),
        IPv4Address("10.0.0.1"), IPv4Address("10.0.0.2"), 1, 11111, b"x" * 60,
    )
    ctx, data = build_skb_context(packet)
    return program, ExecutionEnv(maps=maps), ctx, data


def _dispatch(runs: int, redeploys: int) -> dict:
    out = {}
    for mode, jit in (("jit", True), ("interp", False)):
        program, env, ctx, data = _build(jit)
        sim_cost = 0
        for _ in range(runs):
            sim_cost += program.run(env, ctx, data).cost_ns
        out[f"{mode}_runs"] = program.run_count
        out[f"{mode}_sim_ns_per_run"] = round(sim_cost / runs, 2)
    # Agent redeploy pattern: the same control package is reinstalled
    # (same script, fresh maps) on every reconfiguration -- the path the
    # verified+compiled program cache serves.
    tracepoint = TracepointSpec(node="redeploy", hook="dev:x")
    for _ in range(redeploys):
        _build(jit=True, tracepoint=tracepoint)
    out["redeploys"] = redeploys
    return out


def run(preset: str = "smoke") -> dict:
    """Benchmark-harness entry point (see docs/BENCHMARKS.md)."""
    from repro.bench.presets import scale_count

    return _dispatch(scale_count(preset, FULL_RUNS, floor=4_000), REDEPLOYS)


def test_micro_dispatch_modes(benchmark, once, report):
    results = once(_dispatch, 2_000, 10)
    report(
        "Micro: per-invocation dispatch, jit vs interpreter rates",
        {
            "jit simulated ns/run": results["jit_sim_ns_per_run"],
            "interp simulated ns/run": results["interp_sim_ns_per_run"],
        },
    )
    assert results["jit_runs"] == results["interp_runs"] == 2_000
    # The simulated cost model must keep the JIT cheaper per run.
    assert results["jit_sim_ns_per_run"] < results["interp_sim_ns_per_run"]
