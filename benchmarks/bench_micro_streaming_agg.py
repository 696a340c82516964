"""Microbenchmark: packed-blob fan-in with streaming windows on vs off.

Three nodes ship packed shipment blobs into one collector through the
sequence-numbered at-least-once path -- the exact ingest fan-in the
streaming query layer taps (docs/STREAMING.md).  The scenario runs the
identical ingest twice: plain (windows disabled, the status quo) and
with a :class:`~repro.streaming.StreamingAggregator` attached over the
four-point chain, then enforces the documented budgets:

* **Ingest budget** -- the windowed leg's ingest wall time (the engine
  run: resequencer, TraceDB inserts, and the streaming tap folding
  every record into open windows) must stay within
  ``STREAMING_OVERHEAD_BUDGET``x of plain ingest.  This is the bound
  that protects the collector hot path.
* **Drain budget** -- closing every accumulated window at end of run
  (the deferred hop joins, sketches, jitter, top-K, and frame
  emission) must cost no more than ``DRAIN_BUDGET``x of one plain
  ingest pass.  Live runs pay this incrementally at watermark
  advances; the bound keeps the whole frame-emission side cheaper
  than re-reading the data.

``run()`` raises on a violation, which fails ``python -m tests.pins``
loudly; the wall-clock ratios themselves are deliberately *not*
reported (bench metrics must be simulation-deterministic), only the
budget verdicts are.
"""

import gc
import time

from repro.core.collector import RawDataCollector
from repro.core.records import TraceRecord
from repro.core.tracedb import TraceDB
from repro.sim.engine import Engine
from repro.streaming import StreamingAggregator, StreamingConfig

FULL_TRACES = 6_000
# Traces per shipment blob per node.  150 traces = 3.6 KB of packed
# records on the two-tracepoint middle hop -- the page-scale ring-buffer
# flush agents actually ship; per-shipment fixed costs (scheduling, the
# resequencer, cursor diffs) amortize over the blob on both legs.
BATCH_TRACES = 150
REPS = 3  # alternating timed repetitions; min-of wins
WINDOW_NS = 1_000_000
STREAMING_OVERHEAD_BUDGET = 1.3  # windowed ingest <= 1.3x plain ingest
DRAIN_BUDGET = 0.75  # closing all windows <= 0.75x one plain ingest

# Three nodes, four tracepoints: sender, a forwarding middle hop
# carrying two tracepoints (one packed blob holds both), receiver.
_LABELS = {0: "send", 1: "fwd-in", 2: "fwd-out", 3: "deliver"}
_CHAIN = ("send", "fwd-in", "fwd-out", "deliver")
_HOP_NS = (9_000, 27_000, 9_500)
_RX_SKEW_NS = -1_500_000  # receiver clock runs ahead; aligned at ingest


def _blobs(first_trace: int) -> "dict[str, bytes]":
    """One shipment window: packed per-node blobs for BATCH_TRACES traces."""
    tx = bytearray()
    mid = bytearray()
    rx = bytearray()
    for trace_id in range(first_trace, first_trace + BATCH_TRACES):
        # 4 us packet spacing = 250k pps: a realistic per-flow rate for
        # OVS-path tracing, putting ~250 packets in each 1 ms window.
        base = 1_000_000 + trace_id * 4_000
        cpu = trace_id % 4
        tx += TraceRecord(trace_id, 0, base, 1500, cpu).pack()
        mid += TraceRecord(trace_id, 1, base + _HOP_NS[0], 1500, cpu).pack()
        mid += TraceRecord(
            trace_id, 2, base + _HOP_NS[0] + _HOP_NS[1], 1500, cpu
        ).pack()
        rx_base = base + sum(_HOP_NS) - _RX_SKEW_NS
        rx += TraceRecord(trace_id, 3, rx_base, 1400, cpu).pack()
    return {"tx": bytes(tx), "mid": bytes(mid), "rx": bytes(rx)}


def _ingest(total_traces: int, windowed: bool) -> "tuple[float, float, dict]":
    """One full fan-in; returns (ingest secs, drain secs, result fields)."""
    engine = Engine()
    db = TraceDB()
    db.set_clock_skew("rx", _RX_SKEW_NS)
    collector = RawDataCollector(engine, db)
    collector.register_labels(_LABELS)
    aggregator = None
    if windowed:
        aggregator = StreamingAggregator(
            StreamingConfig(chain=_CHAIN, window_ns=WINDOW_NS)
        ).attach(collector)

    seq = 0
    for first in range(1, total_traces + 1, BATCH_TRACES):
        seq += 1
        blobs = _blobs(first)
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
    return ingested - started, drained, {
        "rows_inserted": db.rows_inserted,
        "windows_closed": aggregator.windows_closed if aggregator else 0,
        "stream_records": aggregator.records if aggregator else 0,
        "late_records": aggregator.late_records if aggregator else 0,
    }


def _build(total_traces: int) -> dict:
    # Alternate the legs and keep each one's best time: min-of-REPS is
    # robust against one-off scheduler hiccups, alternation cancels any
    # drift between the first and last measurement.
    plain_s = windowed_s = drain_s = float("inf")
    plain = windowed = {}
    for _ in range(REPS):
        elapsed, _drain, plain = _ingest(total_traces, windowed=False)
        plain_s = min(plain_s, elapsed)
        elapsed, drain, windowed = _ingest(total_traces, windowed=True)
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
    return {
        "rows_inserted": windowed["rows_inserted"],
        "stream_records": windowed["stream_records"],
        "windows_closed": windowed["windows_closed"],
        "late_records": windowed["late_records"],
        "within_budget": True,  # run() raised otherwise
    }


def run(preset: str = "smoke") -> dict:
    """Benchmark-harness entry point (see docs/BENCHMARKS.md)."""
    from repro.bench.presets import scale_count

    return _build(scale_count(preset, FULL_TRACES, floor=1_000))


def test_micro_streaming_agg(benchmark, once, report):
    results = once(_build, 1_500)
    report(
        "Micro: packed-blob fan-in, streaming windows on vs off",
        {
            "rows inserted": results["rows_inserted"],
            "streamed records": results["stream_records"],
            "windows closed": results["windows_closed"],
            "within budgets": results["within_budget"],
        },
    )
    assert results["rows_inserted"] == 1_500 * 4
    assert results["stream_records"] == results["rows_inserted"]
    assert results["windows_closed"] >= 5  # 1500 traces at 4 us span ~6 ms
    assert results["late_records"] == 0
