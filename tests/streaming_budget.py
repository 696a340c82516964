"""The streaming layer's host-time budget (docs/STREAMING.md, "Overhead
budgets").

Three nodes ship packed blobs into one collector through the
sequence-numbered path, the fan-in the streaming layer taps, once plain
and once with a :class:`StreamingAggregator` attached.
:func:`check_budget` raises unless the windowed ingest stays within
``STREAMING_OVERHEAD_BUDGET`` x plain ingest and closing every window
within ``DRAIN_BUDGET`` x one plain ingest.

The ratios are host time, so this module is not a tier-1 test: its one
caller is ``tests/paper_claims_long.py`` (the ``claims`` CI job).  The
fan-in's counts, which are deterministic, are checked in tier-1 by
``tests/test_streaming.py`` through :func:`fan_in`.
"""

import gc
import time
from typing import Dict, Optional, Tuple

from repro.core.collector import RawDataCollector
from repro.core.records import TraceRecord
from repro.core.tracedb import TraceDB
from repro.sim.engine import Engine
from repro.streaming import StreamingAggregator, StreamingConfig

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


def _ship(collector: RawDataCollector, blobs: Dict[str, bytes], seq: int) -> None:
    for node in ("tx", "mid", "rx"):
        collector.receive_batch(node, blobs[node], seq=seq)


def fan_in(
    total_traces: int, windowed: bool
) -> Tuple[Engine, TraceDB, Optional[StreamingAggregator]]:
    """The fan-in, built and scheduled but not run: one shipment per
    node every 1 us of virtual time, ``STREAM_BATCH_TRACES`` traces each."""
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
    for seq, first in enumerate(range(1, total_traces + 1, STREAM_BATCH_TRACES), 1):
        engine.schedule(seq * 1_000, _ship, collector, _stream_blobs(first), seq)
    return engine, db, aggregator


def _timed(total_traces: int, windowed: bool) -> Tuple[float, float]:
    """One full fan-in: (ingest seconds, drain seconds)."""
    engine, _db, aggregator = fan_in(total_traces, windowed)
    gc.collect()  # same heap state for both legs
    started = time.perf_counter()
    engine.run()
    ingested = time.perf_counter()
    if aggregator is not None:
        aggregator.close_all()
    return ingested - started, time.perf_counter() - ingested


def check_budget(total_traces: int) -> Tuple[float, float]:
    """Time the plain and windowed legs and raise ``AssertionError`` on a
    budget miss; returns (ingest ratio, drain ratio)."""
    # Alternate the legs and keep each one's best time: min-of-REPS
    # shrugs off one-off scheduler hiccups, alternation cancels drift.
    plain_s = windowed_s = drain_s = float("inf")
    for _ in range(STREAM_REPS):
        elapsed, _drain = _timed(total_traces, windowed=False)
        plain_s = min(plain_s, elapsed)
        elapsed, drain = _timed(total_traces, windowed=True)
        windowed_s = min(windowed_s, elapsed)
        drain_s = min(drain_s, drain)

    ratio = windowed_s / plain_s
    assert ratio <= STREAMING_OVERHEAD_BUDGET, (
        f"streaming ingest overhead {ratio:.2f}x exceeds the "
        f"{STREAMING_OVERHEAD_BUDGET}x budget (plain {plain_s * 1e3:.1f} ms, "
        f"windowed {windowed_s * 1e3:.1f} ms; docs/STREAMING.md)"
    )
    drain_ratio = drain_s / plain_s
    assert drain_ratio <= DRAIN_BUDGET, (
        f"window drain cost {drain_ratio:.2f}x of plain ingest exceeds "
        f"the {DRAIN_BUDGET}x budget (drain {drain_s * 1e3:.1f} ms, "
        f"plain {plain_s * 1e3:.1f} ms; docs/STREAMING.md)"
    )
    return ratio, drain_ratio
