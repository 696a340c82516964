"""Network performance metrics computed from trace records (§III-D).

All functions operate on the :class:`~repro.core.tracedb.TraceDB`
after collection, i.e. they are the paper's "additional calculation ...
based on those raw tracing data":

* :func:`throughput_at` -- bytes/time at one tracepoint, subtracting
  the 4-byte trace ID per packet exactly as the paper's formula
  sum(S_i - S_ID) / (T_N - T_1) does;
* :func:`latency_between` -- per-trace-ID deltas between two
  tracepoints, with cross-node skew already applied by the DB;
* :func:`decompose_latency` -- the end-to-end decomposition across an
  ordered tracepoint chain (Fig. 6 / Fig. 9a / Fig. 11);
* :func:`jitter_of` -- consecutive-latency deltas (§III-D);
* :func:`packet_loss` -- count/rate between two tracepoints.
"""

from __future__ import annotations

from collections import Counter
from itertools import filterfalse
from typing import Dict, List, NamedTuple, Optional, Sequence

from repro.core.tracedb import TraceDB
from repro.workloads.stats import LatencySummary, summarize_latencies

TRACE_ID_BYTES = 4


class ThroughputResult(NamedTuple):
    bits_per_second: float
    packets: int
    payload_bytes: int
    window_ns: int


class LossResult(NamedTuple):
    sent: int
    received: int
    lost: int
    rate: float


class SegmentLatency(NamedTuple):
    """One hop of a decomposition."""

    from_label: str
    to_label: str
    latencies_ns: List[int]

    def summary(self) -> LatencySummary:
        return summarize_latencies(self.latencies_ns)


def throughput_at(
    db: TraceDB,
    label: str,
    subtract_id_bytes: bool = True,
    start_ns: Optional[int] = None,
    end_ns: Optional[int] = None,
) -> ThroughputResult:
    """Throughput observed at one tracepoint over its record window.

    Iterates the table's columns directly: the payload sum runs over the
    packet-length column and the window comes from the timestamp index
    (no row materialization, no per-call sort)."""
    columns = db.columns(label)
    overhead = TRACE_ID_BYTES if subtract_id_bytes else 0
    if columns is None:
        return ThroughputResult(0.0, 0, 0, 0)
    if start_ns is None and end_ns is None:
        count = len(columns.timestamp_ns)
        if count < 2:
            return ThroughputResult(0.0, count, 0, 0)
        # Fast path: when every packet clears the overhead (the common
        # case -- MTU-sized records), the per-element branch collapses
        # to two C-speed column reductions.
        if min(columns.packet_len) > overhead:
            payload = sum(columns.packet_len) - overhead * len(columns.packet_len)
        else:
            payload = sum(
                length - overhead for length in columns.packet_len if length > overhead
            )
        low, high = db.ts_minmax(label)
    else:
        count = payload = 0
        low = high = None
        for ts, length in zip(columns.timestamp_ns, columns.packet_len):
            if (start_ns is not None and ts < start_ns) or (
                end_ns is not None and ts > end_ns
            ):
                continue
            count += 1
            if length > overhead:
                payload += length - overhead
            if low is None or ts < low:
                low = ts
            if high is None or ts > high:
                high = ts
        if count < 2:
            return ThroughputResult(0.0, count, 0, 0)
    window = high - low
    if window <= 0:
        return ThroughputResult(0.0, count, payload, 0)
    return ThroughputResult(payload * 8 * 1e9 / window, count, payload, window)


def latency_between(db: TraceDB, from_label: str, to_label: str) -> List[int]:
    """Per-packet latency between two tracepoints, matched by trace ID.

    Timestamps are already master-aligned (DB applies the Cristian
    skew), so cross-node pairs subtract directly:
    dT = t2 - t1 (+ skew), §III-D."""
    first = db.first_ts_at(from_label)
    second = db.first_ts_at(to_label)
    second_get = second.get
    return [
        ts_b - ts_a
        for trace_id, ts_a in first.items()
        if (ts_b := second_get(trace_id)) is not None
    ]


def latency_pairs(db: TraceDB, from_label: str, to_label: str) -> List[tuple]:
    """(start_timestamp, latency) pairs ordered by start time -- the
    per-packet-index series of Fig. 11."""
    first = db.first_ts_at(from_label)
    second = db.first_ts_at(to_label)
    second_get = second.get
    pairs = [
        (ts_a, ts_b - ts_a)
        for trace_id, ts_a in first.items()
        if (ts_b := second_get(trace_id)) is not None
    ]
    pairs.sort()
    return pairs


def decompose_latency(db: TraceDB, chain: Sequence[str]) -> List[SegmentLatency]:
    """End-to-end latency decomposition along an ordered tracepoint
    chain; only traces observed at every point contribute (the data
    cleaning step of §III-C)."""
    if len(chain) < 2:
        raise ValueError("decomposition needs at least two tracepoints")
    complete_ids = set(db.complete_traces(chain))
    per_label: Dict[str, Dict[int, int]] = {}
    for label in chain:
        first = db.first_ts_at(label)  # a copy this call owns
        # The complete set is a subset of every chain label's keys, so
        # equal length means equal keys: the copy is already filtered.
        # Otherwise drop the incomplete traces in place; the rest keep
        # their first-seen order.
        if len(first) != len(complete_ids):
            for trace_id in list(filterfalse(complete_ids.__contains__, first)):
                del first[trace_id]
        per_label[label] = first
    segments = []
    for from_label, to_label in zip(chain, chain[1:]):
        from_ts = per_label[from_label]
        to_ts = per_label[to_label]
        ordered = sorted(from_ts.keys() & to_ts.keys(), key=from_ts.__getitem__)
        latencies = [to_ts[trace_id] - from_ts[trace_id] for trace_id in ordered]
        segments.append(SegmentLatency(from_label, to_label, latencies))
    return segments


def jitter_of(latencies: Sequence[int]) -> List[int]:
    """Jitter as defined in §III-D: dT_{i+1} - dT_i."""
    return [latencies[i + 1] - latencies[i] for i in range(len(latencies) - 1)]


def packet_loss(db: TraceDB, from_label: str, to_label: str) -> LossResult:
    """N_loss = N_i - N_j and the loss rate between two points."""
    sent = db.count(from_label)
    received = db.count(to_label)
    lost = max(0, sent - received)
    rate = lost / sent if sent else 0.0
    return LossResult(sent, received, lost, rate)


def per_cpu_distribution(db: TraceDB, label: str) -> Dict[int, float]:
    """Fraction of records per CPU at a tracepoint (Fig. 13a).

    Counts straight off the CPU column."""
    columns = db.columns(label)
    if columns is None or not len(columns.cpu):
        return {}
    counts = Counter(columns.cpu)
    total = len(columns.cpu)
    return {cpu: count / total for cpu, count in sorted(counts.items())}


def event_rate(db: TraceDB, label: str) -> float:
    """Records per second at a tracepoint (Fig. 13a's execution rate).

    The window comes from the table's timestamp index -- no row
    materialization or per-call sort."""
    columns = db.columns(label)
    if columns is None or len(columns.timestamp_ns) < 2:
        return 0.0
    low, high = db.ts_minmax(label)
    window = high - low
    if window <= 0:
        return 0.0
    return (len(columns.timestamp_ns) - 1) * 1e9 / window
