"""Span-based trace reconstruction (timeline analysis).

Turns the flat :class:`~repro.core.tracedb.TraceDB` rows the collector
gathers into per-packet span trees, critical paths, per-hop latency
distributions, anomaly flags, and Perfetto/OTLP timeline exports.  See
``docs/TIMELINES.md`` and the ``repro timeline`` CLI verb.
"""

from repro.tracing.critical import (
    Anomaly,
    HopStats,
    aggregate_hops,
    critical_path,
    flag_anomalies,
    segments_from_forest,
)
from repro.tracing.export import (
    chrome_trace_chunks,
    chrome_trace_json,
    otlp_json,
    span_tree_text,
    timeline_text,
    write_chrome_trace,
)
from repro.tracing.reconstruct import SpanAssembler, build_control_root, hop_name
from repro.tracing.spans import Span, SpanColumns, SpanForest, SpanTree

__all__ = [
    "Anomaly",
    "HopStats",
    "Span",
    "SpanAssembler",
    "SpanColumns",
    "SpanForest",
    "SpanTree",
    "aggregate_hops",
    "build_control_root",
    "chrome_trace_chunks",
    "chrome_trace_json",
    "critical_path",
    "flag_anomalies",
    "hop_name",
    "otlp_json",
    "segments_from_forest",
    "span_tree_text",
    "timeline_text",
    "write_chrome_trace",
]
