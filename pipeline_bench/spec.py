"""Names, units, directions and bounds: the one table ``BENCHMARK.json``,
the runner's output and the README all agree with (a test compares
them)."""

from __future__ import annotations

from typing import Dict, List, NamedTuple, Optional

COMMAND = ["python3", "pipeline_bench/run.py"]
PATHS = ["pipeline_bench"]
# One run measures passes until they add up to this long (and at least
# MIN_PASSES of them); with the sizes below that is three passes of the
# larger workloads and four of the smaller ones.
RUN_SECONDS = 12
MIN_PASSES = 3
# Size multiplier applied to every workload's full size (ISSUE sizes are
# 7-14 s a pass; the driver's time cap leaves room for about half that).
DEFAULT_SCALE = 0.5
# The warm-up pass runs at this fraction of the measured size.
WARMUP_FRACTION = 0.1
# A pass whose process_time / wall falls below this was descheduled.
PREEMPTED_BELOW = 0.85
MAX_EXTRA_PASSES = 2
# Setup is measured in this many fresh interpreters per run.
SETUP_SAMPLES = 3


STAGES = (
    "build",
    "deploy",
    "run",
    "collect",
    "query",
    "forest",
    "forest_warm",
    "rpc_forest",
    "critical",
    "export_chrome",
    "export_otlp",
)

# name -> why it was chosen (one line; BENCHMARK.json carries it).
WORKLOADS: Dict[str, str] = {
    "udp_trace": (
        "smallest packets, every tracing layer live (ebpf, ring, ship, collector, "
        "tracedb, streaming): per-packet probe cost dominates"
    ),
    "udp_untraced": (
        "bypass twin of udp_trace: same scene, traffic and seed, agents installed, "
        "nothing deployed; a tracing-layer change must not move it"
    ),
    "tcp_bulk_overlay": (
        "64 KB GSO segments through VXLAN with TCP-option ids and offline collection: "
        "net, virt and Packet.clone do the work"
    ),
    "fleet_sharded": (
        "no net stack and no probes: the event loop, the ShardCoordinator boundary "
        "exchange and the merge path do the work"
    ),
    "analysis_replay": (
        "generated records, reads beside writes: index and forest-cache invalidation, "
        "simulation idle so an analysis gain is not diluted"
    ),
}


class Metric(NamedTuple):
    name: str
    unit: str
    better: str
    bound: Optional[float] = None  # end-to-end metrics only


# Every time is in calibrated seconds (``calibrate.py``), not stopwatch
# seconds, and its unit says so.  ``setup_s`` is calibrated like the
# rest; the benchmark contract fixes its unit string to "s".
CAL_S = "cal_s"

# Bounds: three times the widest ten-seed spread seen on any workload,
# as the benchmark contract asks, capped at the 25 % it allows.  For
# ``wall_s`` that is the cap (spreads reach 11 %; ISSUE 12 hoped for
# 10 %, which this host cannot resolve); for ``peak_rss_mb`` it is the
# 10 % ISSUE 12 asked for (3.3 % on tcp_bulk_overlay, under 0.5 % elsewhere).
# ``check_fail_ratio`` is not here because the contract wants metrics
# that are never 0: it is the result line's ``failed / attempted``, and
# any failed check makes the run ``"correct": false``.
END_TO_END = (
    Metric("wall_s", CAL_S, "lower", 0.25),
    Metric("setup_s", "s", "lower", 0.25),
    Metric("peak_rss_mb", "MB", "lower", 0.10),
)

PER_LAYER = tuple(Metric(f"stage.{stage}_s", CAL_S, "lower") for stage in STAGES) + (
    Metric("sim.self_s", CAL_S, "lower"),
    Metric("sim.events", "count", "lower"),
    Metric("sim.us_per_event", "cal_us/event", "lower"),
    Metric("sim.shard_rounds", "count", "lower"),
    Metric("sim.boundary_messages", "count", "lower"),
    Metric("net.self_s", CAL_S, "lower"),
    Metric("net.packets_sent", "count", "lower"),
    Metric("net.clone_calls", "count", "lower"),
    Metric("net.clone_self_s", CAL_S, "lower"),
    Metric("net.gso_segments", "count", "lower"),
    Metric("net.softirq_enqueues", "count", "lower"),
    Metric("virt.self_s", CAL_S, "lower"),
    Metric("virt.ovs_ingress_calls", "count", "lower"),
    Metric("ebpf.self_s", CAL_S, "lower"),
    Metric("ebpf.hook_fires", "count", "lower"),
    Metric("ebpf.program_runs", "count", "lower"),
    Metric("ebpf.us_per_run", "cal_us/run", "lower"),
    Metric("ebpf.load_s", CAL_S, "lower"),
    Metric("ebpf.record_ratio", "ratio", "higher"),
    Metric("core.ring.self_s", CAL_S, "lower"),
    Metric("core.ring.appends", "count", "lower"),
    Metric("core.ring.drops", "count", "lower"),
    Metric("core.ring.flushes", "count", "lower"),
    Metric("core.agent.self_s", CAL_S, "lower"),
    Metric("core.agent.shipments", "count", "lower"),
    Metric("core.agent.bytes_shipped", "bytes", "lower"),
    Metric("core.collector.self_s", CAL_S, "lower"),
    Metric("core.collector.batches", "count", "lower"),
    Metric("core.collector.dedup_batches", "count", "lower"),
    Metric("core.tracedb.insert_s", CAL_S, "lower"),
    Metric("core.tracedb.rows", "count", "higher"),
    Metric("core.tracedb.us_per_row", "cal_us/row", "lower"),
    Metric("core.tracedb.bytes_stored", "bytes", "lower"),
    Metric("core.metrics.query_s", CAL_S, "lower"),
    Metric("core.metrics.query_rounds", "count", "lower"),
    Metric("core.metrics.round_ms_p50", "cal_ms", "lower"),
    Metric("streaming.self_s", CAL_S, "lower"),
    Metric("streaming.close_s", CAL_S, "lower"),
    Metric("streaming.windows_closed", "count", "lower"),
    Metric("streaming.late_records", "count", "lower"),
    Metric("tracing.forest_self_s", CAL_S, "lower"),
    Metric("tracing.rpc_forest_self_s", CAL_S, "lower"),
    Metric("tracing.critical_self_s", CAL_S, "lower"),
    Metric("tracing.export_self_s", CAL_S, "lower"),
    Metric("tracing.trees", "count", "higher"),
    Metric("tracing.orphan_records", "count", "lower"),
    Metric("tracing.export_mb", "MB", "lower"),
    Metric("trace.overhead_ratio", "ratio", "lower"),
    Metric("trace.unattributed_share", "ratio", "lower"),
)

UNITS: Dict[str, str] = {m.name: m.unit for m in END_TO_END + PER_LAYER}


def benchmark_json() -> Dict[str, object]:
    """The document ``BENCHMARK.json`` must hold, exactly."""
    workloads: List[Dict[str, str]] = [
        {"name": name, "why": why} for name, why in WORKLOADS.items()
    ]
    return {
        "command": COMMAND,
        "paths": PATHS,
        "run_seconds": RUN_SECONDS,
        "workloads": workloads,
        "end_to_end": [
            {"name": m.name, "unit": m.unit, "better": m.better, "bound": m.bound}
            for m in END_TO_END
        ],
        "per_layer": [
            {"name": m.name, "unit": m.unit, "better": m.better} for m in PER_LAYER
        ],
    }
