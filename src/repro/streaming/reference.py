"""Offline reference answers for the streaming differential suite.

:func:`offline_reference_summary` computes, **from the TraceDB and the
existing metric kernels alone**, exactly the document a
:class:`~repro.streaming.aggregate.StreamingAggregator` produces from
:meth:`~repro.streaming.aggregate.StreamingAggregator.summary` once
every window is closed.  The differential tests byte-compare the two
canonical JSON encodings -- any drift between the incremental and the
batch pipelines (payload accounting, first-occurrence semantics, sort
order, float arithmetic, sketch bucketing) fails loudly.

The reference deliberately reuses the offline kernels
(:func:`~repro.core.metrics.throughput_at`,
:func:`~repro.core.metrics.latency_pairs`,
:func:`~repro.core.metrics.jitter_of`) rather than re-deriving their
math, so it stays an independent oracle: the streaming engine never
calls these functions.
"""

from __future__ import annotations

from typing import Dict

from repro.core.metrics import jitter_of, latency_pairs, throughput_at
from repro.streaming.aggregate import StreamingConfig, canonical_json
from repro.streaming.sketch import LATENCY_SKETCH_BUCKETS_NS, StreamSketch
from repro.streaming.windows import TopKSlowest

__all__ = ["offline_reference_summary", "offline_reference_json", "canonical_json"]


def offline_reference_summary(db, config: StreamingConfig) -> Dict[str, object]:
    """The batch-computed answer a fully-drained streaming aggregator
    must match byte-for-byte (zero late/gap events)."""
    config.validate()
    chain = tuple(config.chain)
    hops = list(zip(chain, chain[1:]))
    if len(chain) > 2:
        hops.append((chain[0], chain[-1]))

    throughput: Dict[str, Dict[str, object]] = {}
    records = 0
    window_set = set()
    for label in db.tables():
        result = throughput_at(db, label)
        throughput[label] = {
            "bits_per_second": result.bits_per_second,
            "packets": result.packets,
            "payload_bytes": result.payload_bytes,
            "window_ns": result.window_ns,
        }
        columns = db.columns(label)
        records += len(columns.timestamp_ns)
        for ts in columns.timestamp_ns:
            window_set.add(ts // config.window_ns)

    hop_docs: Dict[str, Dict[str, object]] = {}
    jitter_docs: Dict[str, Dict[str, object]] = {}
    topk = TopKSlowest(config.top_k)
    for idx, (a, b) in enumerate(hops):
        pairs = latency_pairs(db, a, b)
        lats = [lat for _, lat in pairs]
        sketch = StreamSketch(LATENCY_SKETCH_BUCKETS_NS)
        for lat in lats:
            sketch.observe(lat)
        hop_docs[f"{a}->{b}"] = {
            "count": len(lats),
            "sum_ns": sum(lats),
            "min_ns": min(lats) if lats else None,
            "max_ns": max(lats) if lats else None,
            "sketch": list(sketch.counts),
            "p50_ns": sketch.quantile(0.5),
            "p99_ns": sketch.quantile(0.99),
        }
        deltas = jitter_of(lats)
        jitter_docs[f"{a}->{b}"] = {
            "count": len(deltas),
            "sum_ns": sum(deltas),
            "min_ns": min(deltas) if deltas else None,
            "max_ns": max(deltas) if deltas else None,
        }
        if idx == len(hops) - 1:  # the end-to-end hop feeds top-K
            first = db.first_ts_at(a)
            second = db.first_ts_at(b)
            for trace_id, ts_a in first.items():
                ts_b = second.get(trace_id)
                if ts_b is not None:
                    topk.push(ts_b - ts_a, trace_id)

    return {
        "config": {
            "chain": list(chain),
            "window_ns": config.window_ns,
            "allowed_lateness_ns": config.allowed_lateness_ns,
            "top_k": config.top_k,
        },
        "records": records,
        "windows_closed": len(window_set),
        "late_records": 0,
        "gap_notices": 0,
        "throughput": throughput,
        "hops": hop_docs,
        "jitter": jitter_docs,
        "top_k_slowest": [
            {"trace_id": tid, "latency_ns": lat} for tid, lat in topk.items()
        ],
    }


def offline_reference_json(db, config: StreamingConfig) -> str:
    return canonical_json(offline_reference_summary(db, config))
