"""Critical-path analysis over span forests.

Once every packet is a span tree, "where did this flow spend its time"
becomes tree arithmetic:

* :func:`critical_path` -- the longest root-to-leaf chain of one tree
  (at each level, the child contributing the most time);
* :func:`aggregate_hops` -- per-hop latency distributions across a
  whole flow (p50/p95/p99, the Fig. 9a decomposition generalized);
* :func:`flag_anomalies` -- spans that took more than N x the flow's
  median for that hop (the "one packet hit a full queue" detector);
* :func:`segments_from_forest` -- adapt a forest back into the
  :class:`~repro.core.metrics.SegmentLatency` shape so the existing
  report tables render from spans instead of ad-hoc row grouping.
"""

from __future__ import annotations

from array import array
from bisect import bisect_right
from itertools import compress
from operator import sub
from typing import Dict, List, NamedTuple, Sequence, Tuple

from repro.core.metrics import SegmentLatency
from repro.tracing.reconstruct import hop_name
from repro.tracing.spans import HOP, KIND_NAMES, WIRE, Span, SpanForest, SpanTree
from repro.workloads.stats import percentile


class HopStats(NamedTuple):
    """Latency distribution of one hop across a flow."""

    name: str
    kind: str  # "hop" (same node) or "wire" (cross node)
    count: int
    avg_ns: float
    p50_ns: int
    p95_ns: int
    p99_ns: int
    max_ns: int


class Anomaly(NamedTuple):
    """One span that exceeded ``factor`` x its hop's flow median."""

    trace_id: int
    name: str
    duration_ns: int
    median_ns: float
    ratio: float


def critical_path(tree: SpanTree) -> List[Span]:
    """Root-to-leaf chain following the slowest child at each level.

    Ties break toward the earlier child, so the result is deterministic
    for any input ordering."""
    columns = tree._cols
    start, end = columns.start, columns.end
    row = columns.tree_first[tree.index]
    path = [Span(columns, row)]
    while columns.size[row] > 1:
        row = max(columns.children(row), key=lambda child: end[child] - start[child])
        path.append(Span(columns, row))
    return path


def _leaves(forest: SpanForest) -> Dict[int, Tuple[array, array]]:
    """Every leaf segment (hop or wire) of the forest, grouped by name
    id in first-appearance order (dicts preserve insertion order):
    ``name id -> (rows, durations)``, both in (forest order, walk
    order).  One pass over the columns, memoised on the (immutable)
    forest so the aggregation, the anomaly detector and the report
    tables share it."""
    if forest._leaves is None:
        columns = forest.trees.columns
        groups: Dict[int, Tuple[array, array]] = {}
        for low, high in forest.trees.row_ranges():
            is_leaf = [kind == HOP or kind == WIRE for kind in columns.kind[low:high]]
            durations = map(sub, columns.end[low:high], columns.start[low:high])
            for row, name, duration in zip(
                compress(range(low, high), is_leaf),
                compress(columns.name[low:high], is_leaf),
                compress(durations, is_leaf),
            ):
                group = groups.get(name)
                if group is None:
                    group = groups[name] = (array("q"), array("q"))
                group[0].append(row)
                group[1].append(duration)
        forest._leaves = groups
    return forest._leaves


def aggregate_hops(forest: SpanForest) -> List[HopStats]:
    """Per-hop latency summaries across the forest, in path order."""
    columns = forest.trees.columns
    stats = []
    for name, (rows, durations) in _leaves(forest).items():
        ordered = sorted(durations)
        stats.append(
            HopStats(
                name=columns.names[name],
                kind=KIND_NAMES[columns.kind[rows[0]]],
                count=len(ordered),
                avg_ns=sum(ordered) / len(ordered),
                p50_ns=percentile(ordered, 0.50),
                p95_ns=percentile(ordered, 0.95),
                p99_ns=percentile(ordered, 0.99),
                max_ns=ordered[-1],
            )
        )
    return stats


def _median(ordered: Sequence[int]) -> float:
    mid = len(ordered) // 2
    if len(ordered) % 2:
        return float(ordered[mid])
    return (ordered[mid - 1] + ordered[mid]) / 2.0


def flag_anomalies(forest: SpanForest, factor: float = 3.0) -> List[Anomaly]:
    """Leaf spans whose duration exceeds ``factor`` x the flow median
    for that hop.  Zero-median hops (back-to-back tracepoints) never
    flag; ordering is (hop first-appearance, then forest order)."""
    if factor <= 0:
        raise ValueError(f"anomaly factor must be positive, got {factor}")
    columns = forest.trees.columns
    anomalies = []
    for name, (rows, durations) in _leaves(forest).items():
        median = _median(sorted(durations))
        if median <= 0:
            continue
        threshold = factor * median
        for row, duration in zip(rows, durations):
            if duration > threshold:
                # Trees sit in the columns in row order.
                tree = bisect_right(columns.tree_first, row) - 1
                anomalies.append(
                    Anomaly(
                        trace_id=columns.tree_trace[tree],
                        name=columns.names[name],
                        duration_ns=duration,
                        median_ns=median,
                        ratio=duration / median,
                    )
                )
    return anomalies


def segments_from_forest(forest: SpanForest, chain: Sequence[str]) -> List[SegmentLatency]:
    """The forest's leaf durations in :class:`SegmentLatency` form, one
    segment per consecutive chain pair -- what
    :func:`repro.core.metrics.decompose_latency` returns for the same
    rows.  Only trees observed at both endpoints of a pair contribute
    to it."""
    if len(chain) < 2:
        raise ValueError("decomposition needs at least two tracepoints")
    names = forest.trees.columns.names
    by_name = {names[name]: durations for name, (_, durations) in _leaves(forest).items()}
    return [
        SegmentLatency(a, b, list(by_name.get(hop_name(a, b), ())))
        for a, b in zip(chain, chain[1:])
    ]
