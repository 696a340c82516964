"""Streaming query layer: live tumbling-window aggregation over the
rows a TraceDB ingests (docs/STREAMING.md)."""

from repro.streaming.aggregate import (
    StreamingAggregator,
    StreamingConfig,
    StreamingError,
    canonical_json,
)
from repro.streaming.reference import offline_reference_json, offline_reference_summary
from repro.streaming.sketch import LATENCY_SKETCH_BUCKETS_NS, StreamSketch
from repro.streaming.windows import DEFAULT_TOP_K, DEFAULT_WINDOW_NS, TopKSlowest, WindowFrame

__all__ = [
    "DEFAULT_TOP_K",
    "DEFAULT_WINDOW_NS",
    "LATENCY_SKETCH_BUCKETS_NS",
    "StreamSketch",
    "StreamingAggregator",
    "StreamingConfig",
    "StreamingError",
    "TopKSlowest",
    "WindowFrame",
    "canonical_json",
    "offline_reference_json",
    "offline_reference_summary",
]
