"""Microbenchmarks: one hot path each, timed by ``repro bench``.

Each runner takes its full-scale size by default and returns what it
computed; ``pinned_<name>`` beside it scales the size to a preset and
is the ``bench:<name>`` row of the pin table.  The host ns/event and
ns/probe the progress table prints are what a run is for; the metrics
only prove the same work was done.

=======================  ===================================================
spec                     hot path
=======================  ===================================================
micro_ebpf_dispatch      one program invocation, JIT vs interpreter, and
                         the verified+compiled program cache on redeploy
micro_engine             engine schedule / run / cancel
micro_retry_path         the ack / retry layer's no-fault happy path
micro_ringbuffer         ring append / flush with a metrics registry
micro_rpc_correlate      RPC parent links joined into a span forest
micro_span_reconstruct   span-tree assembly and Chrome export
micro_streaming_agg      packed-blob fan-in, streaming windows on vs off
micro_tracedb_query      blob ingest beside repeated metric queries
=======================  ===================================================
"""

from __future__ import annotations

import gc
import time
from typing import Dict, Tuple

from repro.bench.presets import scale_count
from repro.core import FilterRule, GlobalConfig, TracepointSpec, TracingSpec, metrics
from repro.core.collector import RawDataCollector
from repro.core.compiler import compile_script
from repro.core.config import ActionSpec
from repro.core.records import RECORD_STRUCT, TraceRecord, unpack_batch
from repro.core.ringbuffer import TraceRingBuffer
from repro.core.tracedb import TraceDB
from repro.core.vnettracer import VNetTracer
from repro.ebpf.context import skb_fields
from repro.ebpf.maps import PerfEventArray
from repro.ebpf.vm import ExecutionEnv
from repro.net.addressing import IPv4Address, MACAddress
from repro.net.packet import IPPROTO_UDP, make_udp_packet
from repro.net.stack import KernelNode
from repro.obs.registry import MetricsRegistry
from repro.sim.engine import Engine
from repro.streaming import StreamingAggregator, StreamingConfig
from repro.tracing.export import chrome_trace_json
from repro.tracing.reconstruct import SpanAssembler

# -- eBPF dispatch ------------------------------------------------------------------


def _dispatch_program(jit: bool, tracepoint: TracepointSpec):
    perf = PerfEventArray(num_cpus=2)
    perf.set_consumer(lambda _record: None)
    program, maps = compile_script(
        FilterRule(dst_port=11111, protocol=IPPROTO_UDP),
        tracepoint,
        ActionSpec(record=True),
        perf_map=perf,
        jit=jit,
    )
    program.load()
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
    return program, ExecutionEnv(maps=maps), fields, data


def run_ebpf_dispatch(runs: int = 40_000, redeploys: int = 50) -> dict:
    """A realistic script (filter + ID extraction + record emission) run
    ``runs`` times in each mode, then redeployed ``redeploys`` times the
    way agents reinstall a control package on reconfiguration."""
    out = {}
    for mode, jit in (("jit", True), ("interp", False)):
        program, env, fields, data = _dispatch_program(jit, TracepointSpec(node="n", hook="dev:x"))
        sim_cost = 0
        for _ in range(runs):
            sim_cost += program.run(env, fields, data).cost_ns
        out[f"{mode}_runs"] = program.run_count
        out[f"{mode}_sim_ns_per_run"] = round(sim_cost / runs, 2)
    tracepoint = TracepointSpec(node="redeploy", hook="dev:x")
    for _ in range(redeploys):
        _dispatch_program(True, tracepoint)
    out["redeploys"] = redeploys
    return out


def pinned_micro_ebpf_dispatch(preset: str) -> dict:
    return run_ebpf_dispatch(scale_count(preset, 40_000, floor=4_000))


# -- engine churn ---------------------------------------------------------------------

ENGINE_LANES = 8


def _noop() -> None:
    return None


def run_engine_churn(total_events: int = 300_000) -> dict:
    """Timer lanes that reschedule themselves; each tick also arms and
    cancels a shadow timer (the retransmit-timer pattern) and fires a
    zero-delay wakeup."""
    engine = Engine()
    per_lane = total_events // ENGINE_LANES
    cancelled = [0]

    def tick(remaining: int, interval: int) -> None:
        shadow = engine.timer(interval + 3, _noop)
        shadow.cancel()
        cancelled[0] += 1
        engine.schedule(0, _noop)
        if remaining > 1:
            engine.schedule(interval, tick, remaining - 1, interval)

    for lane in range(ENGINE_LANES):
        engine.schedule(lane + 1, tick, per_lane, 11 + lane)
    executed = engine.run()
    return {
        "events_executed": executed,
        "cancelled_events": cancelled[0],
        "final_now_ns": engine.now,
        "pending_after_run": engine.pending(),
    }


def pinned_micro_engine(preset: str) -> dict:
    return run_engine_churn(scale_count(preset, 300_000, floor=10_000))


# -- retry path -------------------------------------------------------------------------

RETRY_RECORDS_PER_BATCH = 64
RETRY_SHIP_PERIOD_NS = 500_000


def run_retry_path(deploys: int = 60, batches: int = 1_500) -> dict:
    """Every deploy rides the ack/retry dispatcher and every online batch
    carries a sequence number through the collector's resequencer
    (docs/FAULTS.md): ``deploys`` full deploy/ack round trips, then
    ``batches`` sequence-numbered shipments with their acks, no fault
    plan attached."""
    engine = Engine()
    registry = MetricsRegistry()
    node = KernelNode(engine, "bench", num_cpus=2)
    tracer = VNetTracer(engine, registry=registry)
    tracer.add_agent(node)
    spec = TracingSpec(
        rule=FilterRule(dst_port=9000, protocol=IPPROTO_UDP),
        tracepoints=[TracepointSpec(node="bench", hook="kprobe:udp_send_skb", label="tx")],
        global_config=GlobalConfig(
            online_collection=True,
            # Manual flushes below; keep the periodic timer out of the way.
            flush_interval_ns=3_600_000_000_000,
            ring_buffer_bytes=64 * 1024,
        ),
    )
    acked = 0
    for _ in range(deploys):
        report = tracer.deploy(spec)
        # Heartbeats run forever, so every drain is bounded.
        engine.run(until=engine.now + 10_000_000)  # deliver, install, ack
        acked += len(report.acked_nodes)

    agent = tracer.agents["bench"]
    tracepoint_id = agent.package.tracepoints[0].tracepoint_id
    payload = TraceRecord(1, tracepoint_id, 0, 64, 0).pack()

    def producer():
        for _ in range(batches):
            for _ in range(RETRY_RECORDS_PER_BATCH):
                agent.ring.append(payload)
            agent.ring.flush()
            yield RETRY_SHIP_PERIOD_NS

    engine.process(producer(), name="shipper")
    # Past the last ship by several ack round trips and backoff timers.
    engine.run(until=engine.now + batches * RETRY_SHIP_PERIOD_NS + 50_000_000)
    return {
        "deploys_acked": acked,
        "rows": tracer.db.rows_inserted,
        "deploy_attempts": int(registry.total("vnt_retry_deploy_attempts_total")),
        "deploy_retries": int(registry.total("vnt_retry_deploy_retries_total")),
        "ship_attempts": int(registry.total("vnt_retry_ship_attempts_total")),
        "ship_retries": int(registry.total("vnt_retry_ship_retries_total")),
        "deduped_batches": tracer.db.deduped_batches,
        "pending_ships": len(agent._pending_ships),
    }


def pinned_micro_retry_path(preset: str) -> dict:
    return run_retry_path(
        scale_count(preset, 60, floor=10),
        scale_count(preset, 1_500, floor=200),
    )


# -- ring buffer ----------------------------------------------------------------------

RING_APPEND_PERIOD_NS = 2_000
RING_FLUSH_INTERVAL_NS = 1_000_000


def run_ringbuffer_churn(total_records: int = 200_000) -> dict:
    """Records appended at a fixed virtual rate with the periodic flush
    and a live MetricsRegistry, each flush batch decoded the way agents
    decode it."""
    engine = Engine()
    registry = MetricsRegistry()
    decoded = [0]

    def on_flush(batch):
        decoded[0] += len(unpack_batch(batch))

    ring = TraceRingBuffer(
        engine,
        capacity_bytes=64 * 1024,
        flush_interval_ns=RING_FLUSH_INTERVAL_NS,
        on_flush=on_flush,
        name="bench/ring",
        registry=registry,
        node="bench",
    )
    ring.start()
    record = TraceRecord(1, 2, 3, 64, 0).pack()

    def producer():
        for _ in range(total_records):
            ring.append(record)
            yield RING_APPEND_PERIOD_NS

    engine.process(producer(), name="producer")
    engine.run(until=total_records * RING_APPEND_PERIOD_NS + 2 * RING_FLUSH_INTERVAL_NS)
    ring.flush()
    ring.stop()
    return {
        "appended": ring.total_appended,
        "dropped": ring.total_dropped,
        "flushes": ring.flushes,
        "decoded": decoded[0],
        "metric_appended": registry.total("vnt_ring_appended_total"),
        "metric_flushes": registry.total("vnt_ring_flushes_total"),
        "hwm_bytes": ring.occupancy_hwm_bytes,
    }


def pinned_micro_ringbuffer(preset: str) -> dict:
    return run_ringbuffer_churn(scale_count(preset, 200_000, floor=20_000))


# -- RPC correlation ------------------------------------------------------------------


def run_rpc_correlate(requests: int = 60) -> dict:
    """The ``rpc_case`` pipeline end to end (docs/SERVICES.md), resolved
    through the registry: parent IDs on the wire, links read back at
    every receiver, rows joined into one forest per root request."""
    from repro.experiments import get_scenario
    from repro.experiments.rpc_case import deterministic_doc

    result = get_scenario("rpc_case").run_fn()(seed=21, requests=requests, shards=1)
    doc = deterministic_doc(result)
    latencies = result.deployment.client_latencies
    return {
        "requests_completed": doc["completed_requests"],
        "links_recorded": len(doc["links"]),
        "trees": doc["trees"],
        "spans": doc["spans"],
        "avg_request_latency_us": round(sum(latencies) / len(latencies) / 1e3, 3),
        "db_rows": result.tracer.db.rows_inserted,
    }


def pinned_micro_rpc_correlate(preset: str) -> dict:
    return run_rpc_correlate(scale_count(preset, 60, floor=12))


# -- span reconstruction --------------------------------------------------------------

# Two nodes, two tracepoints each: packet > device / hop / wire spans.
SPAN_CHAIN = (("tx", "send"), ("tx", "nic-out"), ("rx", "nic-in"), ("rx", "deliver"))
SPAN_HOP_NS = (9_000, 27_000, 9_500)
SPAN_BATCH = 50


def run_span_reconstruct(total_traces: int = 8_000) -> dict:
    """Per-node packed blobs ingested through engine events, then the
    whole timeline path: forest assembly, anomaly scan, Chrome export."""
    labels = {index: label for index, (_, label) in enumerate(SPAN_CHAIN)}
    engine = Engine()
    db = TraceDB()
    db.set_clock_skew("rx", -1_500_000)

    def ingest(first_trace: int) -> None:
        pack = RECORD_STRUCT.pack
        blobs = {"tx": [], "rx": []}
        for trace_id in range(first_trace, first_trace + SPAN_BATCH):
            ts = 1_000_000 + trace_id * 40_000
            for index, (node, _label) in enumerate(SPAN_CHAIN):
                blobs[node].append(pack(trace_id, index, ts, 64, 0))
                if index < len(SPAN_HOP_NS):
                    ts += SPAN_HOP_NS[index]
        for node, records in blobs.items():
            db.insert_packed(node, b"".join(records), labels)

    for first in range(1, total_traces + 1, SPAN_BATCH):
        engine.schedule(first * 1_000, ingest, first)
    engine.run()

    assembler = SpanAssembler(db)
    forest = assembler.forest(chain=[label for _, label in SPAN_CHAIN], complete_only=True)
    anomalies = assembler.anomalies(forest)
    document = chrome_trace_json(forest)
    return {
        "rows_inserted": db.rows_inserted,
        "trees_built": assembler.trees_built,
        "spans_built": assembler.spans_built,
        "orphan_records": assembler.orphan_records,
        "anomalies": len(anomalies),
        "chrome_bytes": len(document),
    }


def pinned_micro_span_reconstruct(preset: str) -> dict:
    return run_span_reconstruct(scale_count(preset, 8_000, floor=500))


# -- streaming windows on vs off ------------------------------------------------------

# Traces per shipment blob per node: 150 traces are 3.6 KB of packed
# records on the two-tracepoint middle hop, the page-scale flush agents
# ship, so per-shipment fixed costs amortise over the blob on both legs.
STREAM_BATCH_TRACES = 150
STREAM_REPS = 3  # alternating timed repetitions; min-of wins
STREAM_WINDOW_NS = 1_000_000
STREAMING_OVERHEAD_BUDGET = 1.3  # windowed ingest <= 1.3x plain ingest
DRAIN_BUDGET = 0.75  # closing all windows <= 0.75x one plain ingest
# Three nodes, four tracepoints: sender, a forwarding middle hop with
# two tracepoints (one packed blob holds both), receiver.
STREAM_LABELS = {0: "send", 1: "fwd-in", 2: "fwd-out", 3: "deliver"}
STREAM_CHAIN = ("send", "fwd-in", "fwd-out", "deliver")
STREAM_HOP_NS = (9_000, 27_000, 9_500)
STREAM_RX_SKEW_NS = -1_500_000  # receiver clock runs ahead; aligned at ingest


def _stream_blobs(first_trace: int) -> Dict[str, bytes]:
    tx = bytearray()
    mid = bytearray()
    rx = bytearray()
    for trace_id in range(first_trace, first_trace + STREAM_BATCH_TRACES):
        # 4 us packet spacing = 250k pps, a realistic per-flow rate for
        # OVS-path tracing: ~250 packets in each 1 ms window.
        base = 1_000_000 + trace_id * 4_000
        cpu = trace_id % 4
        tx += TraceRecord(trace_id, 0, base, 1500, cpu).pack()
        mid += TraceRecord(trace_id, 1, base + STREAM_HOP_NS[0], 1500, cpu).pack()
        mid += TraceRecord(
            trace_id, 2, base + STREAM_HOP_NS[0] + STREAM_HOP_NS[1], 1500, cpu
        ).pack()
        rx_base = base + sum(STREAM_HOP_NS) - STREAM_RX_SKEW_NS
        rx += TraceRecord(trace_id, 3, rx_base, 1400, cpu).pack()
    return {"tx": bytes(tx), "mid": bytes(mid), "rx": bytes(rx)}


def _stream_ingest(total_traces: int, windowed: bool) -> Tuple[float, float, dict]:
    """One full fan-in: (ingest seconds, drain seconds, result fields)."""
    engine = Engine()
    db = TraceDB()
    db.set_clock_skew("rx", STREAM_RX_SKEW_NS)
    collector = RawDataCollector(engine, db)
    collector.register_labels(STREAM_LABELS)
    aggregator = None
    if windowed:
        aggregator = StreamingAggregator(
            StreamingConfig(chain=STREAM_CHAIN, window_ns=STREAM_WINDOW_NS)
        ).attach(collector)

    seq = 0
    for first in range(1, total_traces + 1, STREAM_BATCH_TRACES):
        seq += 1
        blobs = _stream_blobs(first)
        engine.schedule(
            seq * 1_000,
            lambda blobs=blobs, seq=seq: [
                collector.receive_batch(node, blobs[node], seq=seq)
                for node in ("tx", "mid", "rx")
            ],
        )

    gc.collect()  # same heap state for both legs
    started = time.perf_counter()
    engine.run()
    ingested = time.perf_counter()
    if aggregator is not None:
        aggregator.close_all()
    drained = time.perf_counter() - ingested
    return (
        ingested - started,
        drained,
        {
            "rows_inserted": db.rows_inserted,
            "windows_closed": aggregator.windows_closed if aggregator else 0,
            "stream_records": aggregator.records if aggregator else 0,
            "late_records": aggregator.late_records if aggregator else 0,
        },
    )


def run_streaming_agg(total_traces: int = 6_000) -> dict:
    """Three nodes ship packed blobs into one collector through the
    sequence-numbered path, the fan-in the streaming layer taps
    (docs/STREAMING.md), plain and with a StreamingAggregator attached.
    Raises unless the windowed ingest stays within
    ``STREAMING_OVERHEAD_BUDGET`` x plain ingest and closing every
    window within ``DRAIN_BUDGET`` x one plain ingest.  The wall-clock
    ratios are not returned (bench metrics are simulation-deterministic),
    only the verdict."""
    # Alternate the legs and keep each one's best time: min-of-REPS
    # shrugs off one-off scheduler hiccups, alternation cancels drift.
    plain_s = windowed_s = drain_s = float("inf")
    windowed = {}
    for _ in range(STREAM_REPS):
        elapsed, _drain, _plain = _stream_ingest(total_traces, windowed=False)
        plain_s = min(plain_s, elapsed)
        elapsed, drain, windowed = _stream_ingest(total_traces, windowed=True)
        windowed_s = min(windowed_s, elapsed)
        drain_s = min(drain_s, drain)

    ratio = windowed_s / plain_s if plain_s else 1.0
    if ratio > STREAMING_OVERHEAD_BUDGET:
        raise RuntimeError(
            f"streaming ingest overhead {ratio:.2f}x exceeds the "
            f"{STREAMING_OVERHEAD_BUDGET}x budget (plain {plain_s * 1e3:.1f} ms, "
            f"windowed {windowed_s * 1e3:.1f} ms; docs/STREAMING.md)"
        )
    drain_ratio = drain_s / plain_s if plain_s else 0.0
    if drain_ratio > DRAIN_BUDGET:
        raise RuntimeError(
            f"window drain cost {drain_ratio:.2f}x of plain ingest exceeds "
            f"the {DRAIN_BUDGET}x budget (drain {drain_s * 1e3:.1f} ms, "
            f"plain {plain_s * 1e3:.1f} ms; docs/STREAMING.md)"
        )
    return {**windowed, "within_budget": True}


def pinned_micro_streaming_agg(preset: str) -> dict:
    return run_streaming_agg(scale_count(preset, 6_000, floor=1_000))


# -- TraceDB ingest + queries ---------------------------------------------------------

QUERY_BATCH_TRACES = 50  # traces per shipment blob: 100 records per node blob
QUERY_EVERY = 4  # a query round after every Nth batch arrival
DUP_EVERY = 10  # every Nth shipment is delivered twice (dedup path)
# Two nodes, two tracepoints each: the quickstart chain's shape.
QUERY_LABELS = {0: "send", 1: "nic-out", 2: "nic-in", 3: "deliver"}
QUERY_CHAIN = ("send", "nic-out", "nic-in", "deliver")
QUERY_HOP_NS = (9_000, 27_000, 9_500)
QUERY_RX_SKEW_NS = -1_500_000  # rx clock runs ahead; insert-time alignment


def _query_blobs(first_trace: int) -> Dict[str, bytes]:
    tx = bytearray()
    rx = bytearray()
    for trace_id in range(first_trace, first_trace + QUERY_BATCH_TRACES):
        base = 1_000_000 + trace_id * 40_000
        cpu = trace_id % 4
        tx += TraceRecord(trace_id, 0, base, 1500, cpu).pack()
        tx += TraceRecord(trace_id, 1, base + QUERY_HOP_NS[0], 1500, cpu).pack()
        rx_base = base + QUERY_HOP_NS[0] + QUERY_HOP_NS[1] - QUERY_RX_SKEW_NS
        rx += TraceRecord(trace_id, 2, rx_base, 1500, cpu).pack()
        rx += TraceRecord(trace_id, 3, rx_base + QUERY_HOP_NS[2], 1500, cpu).pack()
    return {"tx": bytes(tx), "rx": bytes(rx)}


def run_tracedb_query(total_traces: int = 5_000) -> dict:
    """The collector bulk-ingests per-node blobs in sequence (with
    periodic retry duplicates for the dedup path) while query rounds
    run between arrivals, so the sorted indexes are invalidated and
    rebuilt again and again -- the worst realistic case for the
    lazy-index design."""
    engine = Engine()
    db = TraceDB()
    db.set_clock_skew("rx", QUERY_RX_SKEW_NS)
    collector = RawDataCollector(engine, db)
    collector.register_labels(QUERY_LABELS)
    queries = {"rounds": 0, "latencies": 0, "rows_scanned": 0}

    def ingest(first_trace: int, seq: int, duplicate: bool) -> None:
        blobs = _query_blobs(first_trace)
        for node in ("tx", "rx"):
            collector.receive_batch(node, blobs[node], seq=seq)
            if duplicate:  # a retry of the same shipment; must dedup
                collector.receive_batch(node, blobs[node], seq=seq)

    def query_round(upto_trace: int) -> None:
        queries["rounds"] += 1
        latencies = metrics.latency_between(db, "send", "deliver")
        queries["latencies"] += len(latencies)
        segments = metrics.decompose_latency(db, QUERY_CHAIN)
        queries["rows_scanned"] += sum(len(s.latencies_ns) for s in segments)
        metrics.throughput_at(db, "deliver")
        metrics.event_rate(db, "send")
        metrics.per_cpu_distribution(db, "deliver")
        # Per-flow point lookups: a sample of individual traces.
        for trace_id in range(max(1, upto_trace - 25), upto_trace + 1):
            queries["rows_scanned"] += len(db.rows_for_trace(trace_id))

    seq = 0
    for first in range(1, total_traces + 1, QUERY_BATCH_TRACES):
        seq += 1
        at_ns = seq * 1_000
        engine.schedule(at_ns, ingest, first, seq, seq % DUP_EVERY == 0)
        if seq % QUERY_EVERY == 0:
            engine.schedule(at_ns + 500, query_round, first + QUERY_BATCH_TRACES - 1)
    engine.run()
    query_round(total_traces)

    throughput = metrics.throughput_at(db, "deliver")
    return {
        "rows_inserted": db.rows_inserted,
        "deduped_batches": db.deduped_batches,
        "query_rounds": queries["rounds"],
        "latencies_matched": queries["latencies"],
        "rows_scanned": queries["rows_scanned"],
        "deliver_mbps": round(throughput.bits_per_second / 1e6, 1),
    }


def pinned_micro_tracedb_query(preset: str) -> dict:
    return run_tracedb_query(scale_count(preset, 5_000, floor=500))
