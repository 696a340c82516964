"""Fixed-bucket percentile sketches for the streaming layer.

A :class:`StreamSketch` is the streaming counterpart of the ``obs``
layer's :class:`~repro.obs.registry.Histogram`: the same fixed upper
bounds declared up front (so two runs export bit-identical shapes), the
same +Inf overflow bucket, and the same shared bucket->quantile
estimator (:func:`repro.obs.registry.estimate_quantile`).  Unlike the
registry histogram it is a plain value object -- per-window sketches
are built incrementally and **merged** into run-level sketches at
window close, which is exact for bucket counts (merging histograms is
just adding counts), so the quantile error bound never grows with the
number of merges: it stays one bucket width (docs/STREAMING.md).
"""

from __future__ import annotations

from bisect import bisect_left
from typing import Iterable, Optional, Tuple

from repro.obs.registry import estimate_quantile

# Default latency sketch bounds (upper edges, ns; +Inf implicit): 1 us
# to 300 ms in a 1-3-10 ladder.  Chosen to bracket every scenario this
# repo ships: quickstart hop latencies sit in the 3-100 us buckets, the
# OVS congestion cases reach tens of ms, the fleet's wire latency lands
# just above the 1 ms edge.
LATENCY_SKETCH_BUCKETS_NS: Tuple[int, ...] = (
    1_000, 3_000, 10_000, 30_000, 100_000, 300_000,
    1_000_000, 3_000_000, 10_000_000, 30_000_000, 100_000_000, 300_000_000,
)


class StreamSketch:
    """Fixed-bound bucket counts + count; mergeable, quantile-queryable."""

    __slots__ = ("bounds", "counts", "count")

    def __init__(self, bounds: Iterable[int] = LATENCY_SKETCH_BUCKETS_NS):
        self.bounds: Tuple[int, ...] = tuple(bounds)
        if not self.bounds or list(self.bounds) != sorted(set(self.bounds)):
            raise ValueError(f"sketch bounds must strictly increase: {self.bounds!r}")
        self.counts = [0] * (len(self.bounds) + 1)
        self.count = 0

    def observe(self, value: float) -> None:
        # bisect_left(bounds, v) is the first bucket with bound >= v --
        # exactly the "<= upper edge" rule -- and lands on len(bounds)
        # (the +Inf bucket) past the last edge.
        self.counts[bisect_left(self.bounds, value)] += 1
        self.count += 1

    def merge(self, other: "StreamSketch") -> None:
        """Fold ``other`` in; exact (bucket counts simply add)."""
        if other.bounds != self.bounds:
            raise ValueError("cannot merge sketches with different bounds")
        counts = self.counts
        for i, value in enumerate(other.counts):
            counts[i] += value
        self.count += other.count

    def quantile(self, q: float) -> Optional[float]:
        """Estimated ``q``-quantile (``None`` if empty); error is at
        most the width of the bucket the true quantile falls in."""
        return estimate_quantile(self.bounds, self.counts, q)

    def bucket_counts(self) -> Tuple[int, ...]:
        return tuple(self.counts)

    def __repr__(self) -> str:
        return f"<StreamSketch count={self.count} buckets={len(self.bounds) + 1}>"
