"""Window primitives: frames and the bounded top-K heap.

Windows live in *virtual event time* (aligned record timestamps), never
arrival time: a record with aligned timestamp ``ts`` belongs to the
tumbling window ``ts // window_ns`` (floor division, so negative
aligned timestamps -- possible under clock de-skewing -- still map to a
well-defined window).
"""

from __future__ import annotations

import heapq
from itertools import chain
from typing import Dict, List, NamedTuple, Tuple

# StreamingConfig's defaults.  They live here, in a module that imports
# nothing from ``repro.core``, so ``VNetTracer.attach_streaming`` can
# default to them without an import cycle.
DEFAULT_WINDOW_NS = 100_000_000
DEFAULT_TOP_K = 8


class WindowFrame(NamedTuple):
    """One closed window, fully aggregated (the ``repro watch`` row)."""

    index: int  # window start // window_ns
    start_ns: int
    end_ns: int
    records: int
    # label -> {"records", "payload_bytes", "min_ts_ns", "max_ts_ns"}
    throughput: Dict[str, Dict[str, int]]
    # "from->to" -> {"count", "sum_ns", "min_ns", "max_ns",
    #                "jitter_count", "jitter_sum_ns", "sketch": [...]}
    hops: Dict[str, Dict[str, object]]

    def as_dict(self) -> Dict[str, object]:
        return {
            "index": self.index,
            "start_ns": self.start_ns,
            "end_ns": self.end_ns,
            "records": self.records,
            "throughput": self.throughput,
            "hops": self.hops,
        }


class TopKSlowest:
    """Bounded min-heap of the K slowest flows seen so far.

    Entries are ``(latency_ns, -trace_id)`` so the K *largest* tuples
    survive; on equal latency the smaller trace ID wins, making the
    surviving set a pure function of the observed multiset -- identical
    no matter the arrival order (the differential test relies on this;
    only the *eviction count* is order-dependent).
    """

    __slots__ = ("k", "_heap", "evictions")

    def __init__(self, k: int):
        if k < 1:
            raise ValueError(f"top-K needs k >= 1, got {k}")
        self.k = k
        self._heap: List[Tuple[int, int]] = []
        self.evictions = 0

    def push(self, latency_ns: int, trace_id: int) -> bool:
        """Offer one flow; returns True if something was evicted."""
        entry = (latency_ns, -trace_id)
        if len(self._heap) < self.k:
            heapq.heappush(self._heap, entry)
            return False
        if entry <= self._heap[0]:
            self.evictions += 1  # the offer itself is the eviction
            return True
        heapq.heappushpop(self._heap, entry)
        self.evictions += 1
        return True

    def extend(self, entries, count: int = None) -> int:
        """Batch offer of ``(latency_ns, -trace_id)`` entries (the
        window-close path; C-speed ``nlargest`` instead of one heap op
        per entry).  ``entries`` may be any iterable when ``count`` is
        given -- ``nlargest`` then consumes it lazily, so a ``zip``
        feeding it benefits from tuple reuse and the losers are never
        materialized.  Returns the evictions caused.  Exactly
        equivalent to pushing one at a time: once the heap is full
        every offer evicts precisely one entry (itself or the displaced
        root), so the count is ``held + offered - k`` regardless of
        order."""
        if count is None:
            entries = list(entries)
            count = len(entries)
        held = len(self._heap)
        if held + count <= self.k:
            merged = self._heap + list(entries)
            heapq.heapify(merged)
            self._heap = merged
            return 0
        survivors = heapq.nlargest(self.k, chain(self._heap, entries))
        heapq.heapify(survivors)
        self._heap = survivors
        evicted = held + count - self.k
        self.evictions += evicted
        return evicted

    def items(self) -> List[Tuple[int, int]]:
        """(trace_id, latency_ns), slowest first (ties: smaller ID first)."""
        ordered = sorted(self._heap, reverse=True)
        return [(-neg_id, latency) for latency, neg_id in ordered]
