"""One workload in one fresh interpreter.

The parent (``run.py``) starts this module afresh for every
measurement: once for the measured passes, twice more with
``--setup-only`` to repeat the set-up reading, and once with
``--trace 1`` for the traced run.  In order:

1. set-up: imports, input generation and a warm-up pass at
   ``WARMUP_FRACTION`` of the measured size, fully checked (``setup_s``
   runs from the parent's spawn to here);
2. measured passes with tracing off, each on freshly built state after
   ``gc.collect(); gc.freeze()``, each checked after its clock stopped;
3. with ``--trace 1``, one pass under :class:`layertrace.LayerTrace`;
4. one JSON document on the last line of stdout.

Times are calibrated seconds (``calibrate.py``); the raw median rides
along in the document.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import statistics
import sys
from time import perf_counter, process_time
from typing import Any, Dict, List, NamedTuple, Optional

from pipeline_bench import spec
from pipeline_bench.calibrate import SpeedSampler


class PassRecord(NamedTuple):
    """What is kept of a pass once its artefacts are dropped."""

    wall_s: float  # calibrated
    raw_wall_s: float
    stages_s: Dict[str, float]  # calibrated
    stage_cover: float  # share of the pass the stage timers covered
    cpu_wall_ratio: float
    preempted: bool
    units: int
    counts: Dict[str, int]
    digest: str
    query_round_s: List[float]  # calibrated


def summarize(values: List[float]) -> Dict[str, Any]:
    """Median, quartiles and sample count of a timing."""
    quartiles = statistics.quantiles(values, n=4) if len(values) > 1 else [values[0]] * 3
    return {
        "median": statistics.median(values),
        "q1": quartiles[0],
        "q3": quartiles[2],
        "n": len(values),
        "values": values,
    }


def host_fingerprint() -> Dict[str, Any]:
    return {
        "python": platform.python_version(),
        "platform": platform.platform(),
        "nproc": os.cpu_count(),
    }


def run_pass(workload, inputs, sampler: SpeedSampler, trace=None):
    """One pass on fresh state; returns the PassResult and its PassRecord."""
    from pipeline_bench.checks import sim_digest
    from pipeline_bench.workloads import Stages

    gc.collect()
    gc.freeze()  # the pass's collections never walk what came before it
    stages = Stages()
    cpu_start = process_time()
    start = perf_counter()
    if trace is None:
        result = workload.run(inputs, stages)
    else:
        sampler.on_sample = trace.exclude
        try:
            with trace:
                result = workload.run(inputs, stages)
        finally:
            sampler.on_sample = None
    end = perf_counter()
    cpu_end = process_time()
    gc.unfreeze()
    window = sampler.window(start, end)
    factor = window.factor
    ratio = (cpu_end - cpu_start) / (end - start)
    record = PassRecord(
        wall_s=window.calibrated_s,
        raw_wall_s=window.raw_s,
        # Stage timers include the calibration loops that ran inside
        # them; the pass-level factor takes them out proportionally.
        stages_s={
            name: seconds * window.calibrated_s / (end - start)
            for name, seconds in stages.seconds.items()
        },
        stage_cover=sum(stages.seconds.values()) / (end - start),
        cpu_wall_ratio=ratio,
        preempted=ratio < spec.PREEMPTED_BELOW,
        units=result.units,
        counts=result.counts,
        digest=sim_digest(result),
        query_round_s=[s * factor for s in result.query_round_s],
    )
    return result, record


def layer_metrics(trace, traced: PassRecord, measured: List[PassRecord]) -> Dict[str, float]:
    """Every ``per_layer`` metric: stage medians from the measured
    passes, self times and call counts from the traced pass, exact
    counts from the public counters."""
    by_entry = trace.by_entry()
    calls = trace.calls()
    layer_ns = trace.layer_self_ns()
    # Calibrated seconds per traced nanosecond.
    scale = traced.wall_s / trace.wall_ns()
    counts = traced.counts

    def seconds(ns: int) -> float:
        return ns * scale

    def self_s(*entries: str) -> float:
        return seconds(sum(by_entry[e].self_ns for e in entries if e in by_entry))

    def total_s(*entries: str) -> float:
        return seconds(sum(by_entry[e].total_ns for e in entries if e in by_entry))

    def count(entry: str) -> int:
        return by_entry[entry].count if entry in by_entry else 0

    def per(numerator: float, denominator: float) -> float:
        return numerator / denominator if denominator else 0.0

    stage = {
        name: statistics.median(r.stages_s[name] for r in measured) for name in spec.STAGES
    }
    wall = statistics.median(r.wall_s for r in measured)
    last = measured[-1]
    rounds = last.query_round_s or ([stage["query"]] if stage["query"] else [])
    query_kernels = (
        "throughput_at", "latency_between", "decompose_latency",
        "packet_loss", "per_cpu_distribution",
    )
    gso = calls.get(("Packet.clone", "segment_packet"))
    metrics = {f"stage.{name}_s": value for name, value in stage.items()}
    metrics.update({
        "sim.self_s": seconds(layer_ns["sim"]),
        "sim.events": counts["events"],
        "sim.us_per_event": per(stage["run"] * 1e6, counts["events"]),
        "sim.shard_rounds": counts["shard_rounds"],
        "sim.boundary_messages": counts["boundary_messages"],
        "net.self_s": seconds(layer_ns["net"]),
        "net.packets_sent": count("NetDevice.transmit"),
        "net.clone_calls": count("Packet.clone"),
        "net.clone_self_s": self_s("Packet.clone"),
        "net.gso_segments": gso.count if gso else 0,
        "net.softirq_enqueues": count("SoftirqNet.enqueue"),
        "virt.self_s": seconds(layer_ns["virt"]),
        "virt.ovs_ingress_calls": count("OVSBridge.ingress"),
        "ebpf.self_s": seconds(layer_ns["ebpf"]),
        "ebpf.hook_fires": counts["hook_fires"],
        "ebpf.program_runs": counts["program_runs"],
        "ebpf.us_per_run": per(seconds(layer_ns["ebpf"]) * 1e6, counts["program_runs"]),
        "ebpf.load_s": total_s("BPFProgram.load"),
        "ebpf.record_ratio": per(
            counts["ring_appends"] + counts["ring_drops"], counts["program_runs"]
        ),
        "core.ring.self_s": seconds(layer_ns["core.ring"]),
        "core.ring.appends": counts["ring_appends"],
        "core.ring.drops": counts["ring_drops"],
        "core.ring.flushes": counts["ring_flushes"],
        "core.agent.self_s": seconds(layer_ns["core.agent"]),
        "core.agent.shipments": counts["agent_shipments"],
        "core.agent.bytes_shipped": counts["bytes_shipped"],
        "core.collector.self_s": seconds(layer_ns["core.collector"]),
        "core.collector.batches": counts["collector_batches"],
        "core.collector.dedup_batches": counts["dedup_batches"],
        "core.tracedb.insert_s": total_s("TraceDB.insert_packed"),
        "core.tracedb.rows": counts["rows_stored"],
        "core.tracedb.us_per_row": per(
            total_s("TraceDB.insert_packed") * 1e6, counts["rows_stored"]
        ),
        "core.tracedb.bytes_stored": counts["bytes_stored"],
        "core.metrics.query_s": total_s(*query_kernels),
        "core.metrics.query_rounds": len(rounds),
        "core.metrics.round_ms_p50": statistics.median(rounds) * 1e3 if rounds else 0.0,
        "streaming.self_s": seconds(layer_ns["streaming"]),
        "streaming.close_s": total_s("StreamingAggregator.close_all"),
        "streaming.windows_closed": counts["windows_closed"],
        "streaming.late_records": counts["late_records"],
        "tracing.forest_self_s": self_s("SpanAssembler.forest"),
        "tracing.rpc_forest_self_s": self_s("SpanAssembler.rpc_forest"),
        "tracing.critical_self_s": self_s("aggregate_hops", "flag_anomalies"),
        "tracing.export_self_s": self_s("chrome_trace_json", "otlp_json"),
        "tracing.trees": counts["trees"],
        "tracing.orphan_records": counts["orphan_records"],
        "tracing.export_mb": counts["export_bytes"] / 1e6,
        "trace.overhead_ratio": traced.wall_s / wall,
        "trace.unattributed_share": trace.unattributed_ns() / trace.wall_ns(),
    })
    return metrics


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=list(spec.WORKLOADS))
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--scale", type=float, default=spec.DEFAULT_SCALE)
    limit = parser.add_mutually_exclusive_group()
    limit.add_argument("--passes", type=int, help="measured passes (default 5)")
    limit.add_argument("--seconds", type=float,
                       help="instead: passes until they add up to this long, at least "
                            f"{spec.MIN_PASSES}")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--trace-out")
    parser.add_argument("--spawned-at", type=float, help="parent's perf_counter() at spawn")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)
    if args.scale <= 0 or (args.passes is not None and args.passes < 1):
        parser.error("--scale must be positive and --passes at least 1")

    sampler = SpeedSampler()
    sampler_start = perf_counter()
    spawned_at = args.spawned_at if args.spawned_at is not None else sampler_start
    sampler.start()
    try:
        document = _measure(args, sampler, spawned_at, sampler_start)
    finally:
        sampler.stop()
    print(json.dumps(document, separators=(",", ":")))
    return 0


def _measure(args, sampler: SpeedSampler, spawned_at: float, sampler_start: float):
    from pipeline_bench import checks
    from pipeline_bench.layertrace import LayerTrace
    from pipeline_bench.workloads import WORKLOADS

    name = args.workload
    workload = WORKLOADS[name]
    log = checks.CheckLog()

    inputs = workload.prepare(args.seed, args.scale)
    warm_inputs = workload.prepare(args.seed, args.scale * spec.WARMUP_FRACTION)
    result, _record = run_pass(workload, warm_inputs, sampler)
    setup_end = perf_counter()
    # Checked after the set-up clock stopped: the harness's checks are
    # not part of what set-up costs a user.
    checks.check_pass(log, f"{name}[warm-up]", result)
    checks.check_exports(log, f"{name}[warm-up]", result, parse=True)
    del result
    # Before the sampler runs there is nothing to calibrate against:
    # interpreter start-up counts as measured.
    setup_s = (sampler_start - spawned_at) + sampler.window(sampler_start, setup_end).calibrated_s
    document: Dict[str, Any] = {
        "workload": name,
        "seed": args.seed,
        "scale": args.scale,
        "host": host_fingerprint(),
        "setup_s": setup_s,
        "raw_setup_s": setup_end - spawned_at,
    }
    if args.setup_only:
        document["checks"] = {"attempted": log.attempted, "failed": log.failed,
                              "failures": log.failures}
        return document

    measured: List[PassRecord] = []
    preempted = 0
    while True:
        result, record = run_pass(workload, inputs, sampler)
        checks.check_pass(log, name, result)
        log.check(f"{name}: stage timers cover the pass",
                  abs(1.0 - record.stage_cover) <= 0.02,
                  f"stages sum to {record.stage_cover:.4f} of wall")
        if measured:
            checks.check_repeat(log, name, measured[0], record)
        if record.preempted and preempted < spec.MAX_EXTRA_PASSES:
            preempted += 1  # flagged and replaced by one more pass
        else:
            measured.append(record)
        if args.seconds is not None:
            done = (
                len(measured) >= spec.MIN_PASSES
                and sum(r.raw_wall_s for r in measured) >= args.seconds
            )
        else:
            done = len(measured) >= (args.passes or 5)
        if done:
            break
        del result
    # Sampled before the export check and the traced pass, both of which
    # allocate far more than the pipeline does.
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    checks.check_exports(log, name, result, parse=False)
    del result

    walls = [r.wall_s for r in measured]
    wall = summarize(walls)
    wall["raw_median"] = statistics.median(r.raw_wall_s for r in measured)
    wall["spread"] = (wall["q3"] - wall["q1"]) / wall["median"]
    document.update({
        "units": measured[0].units,
        "sim_digest": measured[0].digest,
        "counts": measured[0].counts,
        "passes": len(measured),
        "passes_preempted": preempted,
        "cpu_wall_ratio": [r.cpu_wall_ratio for r in measured],
        "wall_s": wall,
        "peak_rss_mb": peak_rss_mb,
        "stages_s": {
            stage: statistics.median(r.stages_s[stage] for r in measured)
            for stage in spec.STAGES
        },
    })

    if args.trace:
        trace = LayerTrace()  # validates the whole table before the pass
        result, traced = run_pass(workload, inputs, sampler, trace)
        del result
        checks.check_repeat(log, f"{name}[traced]", measured[0], traced)
        accounted = sum(trace.layer_self_ns().values()) + trace.unattributed_ns()
        log.equal(f"{name}: layer self times + unattributed = traced pass",
                  accounted, trace.wall_ns())
        log.check(f"{name}: wrappers removed", not trace.installed)
        document["per_layer"] = layer_metrics(trace, traced, measured)
        document["traced_wall_s"] = traced.wall_s
        document["trace_spans"] = {"kept": len(trace.spans), "dropped": trace.dropped_spans}
        if args.trace_out:
            trace.write_chrome_trace(args.trace_out)

    document["checks"] = {
        "attempted": log.attempted,
        "failed": log.failed,
        "check_fail_ratio": log.failed / log.attempted,
        "failures": log.failures,
    }
    return document


if __name__ == "__main__":
    sys.exit(main())
