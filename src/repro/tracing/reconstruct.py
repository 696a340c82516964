"""Reconstruct per-packet span trees from collected trace records.

This is the analysis-side counterpart of the paper's raw data collector
(§III-C/D): the database holds flat rows indexed by trace ID; this
module folds them back into the shape the packet actually travelled --
the Fig. 9/11 latency decomposition expressed as a span tree instead of
a bar chart.

For one trace ID the algorithm is:

1. pull the trace's rows (already ordered by the clock-sync-corrected
   master timestamps -- ``TraceDB.insert`` applied each node's Cristian
   offset at ingest);
2. keep the earliest observation per tracepoint label (duplicates are
   counted, not folded -- matching ``TraceDB.trace_ids_at``);
3. group contiguous runs of records on the same node into ``device``
   spans, consecutive tracepoint pairs inside a run into ``hop`` spans,
   and the gap between two nodes' runs into a ``wire`` span.

The resulting top-level children partition the packet span exactly, so
per-device durations telescope to the end-to-end latency with zero
error.  Traces seen at fewer than two tracepoints cannot form a span
and are counted as orphan records, as are duplicate observations.

Two implementations of that algorithm live here (docs/TIMELINES.md,
"Reconstruction pipeline"):

* the **batch pipeline** -- :class:`SpanAssembler` rides
  ``TraceDB.trace_group_rows``, the columnar group-by kernel that
  buckets every requested trace's rows as plain sorted tuples (no
  ``TraceRow`` objects), then bulk-builds each tree with a validated
  fast-path ``Span`` constructor.  Full-database assemblies are
  memoized keyed on ``TraceDB.generation``: repeated
  ``span_forest()`` / ``rpc_forest()`` calls on an unchanged database
  are O(1) cache hits.
* the **per-row reference** -- :func:`build_span_tree`,
  :func:`build_rpc_forest`, and :func:`legacy_forest` keep the original
  row-at-a-time implementation.  Nothing in the pipeline calls them;
  the differential suites (tests/test_tracing_batch.py,
  tests/test_tracedb_columnar.py) call them directly and prove the
  batch pipeline's Chrome / OTLP / text exports byte-identical to
  theirs on every scenario.

Control-plane spans (dispatcher -> agent deploys, agent -> collector
batch shipments) are assembled from the event logs those components
keep; see :func:`build_control_root`.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

from repro.core.tracedb import TraceDB, TraceRow
from repro.obs import contract as obs_contract
from repro.obs.registry import MetricsRegistry
from repro.tracing.spans import Span, SpanForest, SpanTree


def hop_name(from_label: str, to_label: str) -> str:
    """The canonical leaf-segment name; shared with SegmentLatency."""
    return f"{from_label} -> {to_label}"


def _dedup_rows(rows: Sequence[TraceRow]) -> Tuple[List[TraceRow], int]:
    """Earliest row per tracepoint label; returns (kept, duplicates)."""
    seen = set()
    kept: List[TraceRow] = []
    duplicates = 0
    for row in rows:
        if row.label in seen:
            duplicates += 1
            continue
        seen.add(row.label)
        kept.append(row)
    return kept, duplicates


def build_span_tree(
    db: TraceDB,
    trace_id: int,
    chain: Optional[Sequence[str]] = None,
) -> Optional[SpanTree]:
    """One packet's span tree, or ``None`` when it cannot form a span
    (zero or one usable record).  ``chain`` restricts the tracepoints
    considered (records at other labels are ignored, not orphaned).

    This is the per-row reference implementation the batch pipeline is
    tested against (tests/test_tracing_batch.py byte-compares the
    exports of both on every scenario)."""
    rows = db.rows_for_trace(trace_id)
    if chain is not None:
        wanted = set(chain)
        rows = [row for row in rows if row.label in wanted]
    rows, duplicates = _dedup_rows(rows)
    if len(rows) < 2:
        return None

    root = Span(
        name=f"packet:0x{trace_id:08x}",
        kind="packet",
        node=rows[0].node,
        start_ns=rows[0].timestamp_ns,
        end_ns=rows[-1].timestamp_ns,
        attributes={
            "trace_id": trace_id,
            "records": len(rows),
            "packet_len": rows[0].packet_len,
        },
    )

    # Contiguous same-node runs become device spans.
    runs: List[List[TraceRow]] = [[rows[0]]]
    for row in rows[1:]:
        if row.node == runs[-1][-1].node:
            runs[-1].append(row)
        else:
            runs.append([row])

    for index, run in enumerate(runs):
        if index > 0:
            previous = runs[index - 1][-1]
            root.add_child(
                Span(
                    name=hop_name(previous.label, run[0].label),
                    kind="wire",
                    node=f"{previous.node} -> {run[0].node}",
                    start_ns=previous.timestamp_ns,
                    end_ns=run[0].timestamp_ns,
                    attributes={
                        "from_node": previous.node,
                        "to_node": run[0].node,
                    },
                )
            )
        device = root.add_child(
            Span(
                name=f"device:{run[0].node}",
                kind="device",
                node=run[0].node,
                start_ns=run[0].timestamp_ns,
                end_ns=run[-1].timestamp_ns,
                attributes={
                    "records": len(run),
                    # The Cristian correction this node's timestamps got.
                    "clock_offset_ns": db.clock_skew(run[0].node),
                },
            )
        )
        for row_a, row_b in zip(run, run[1:]):
            device.add_child(
                Span(
                    name=hop_name(row_a.label, row_b.label),
                    kind="hop",
                    node=row_a.node,
                    start_ns=row_a.timestamp_ns,
                    end_ns=row_b.timestamp_ns,
                    attributes={"cpu": row_a.cpu},
                )
            )

    return SpanTree(
        trace_id=trace_id,
        root=root,
        record_count=len(rows) + duplicates,
        duplicate_records=duplicates,
    )


def legacy_forest(
    db: TraceDB,
    trace_ids: Optional[Iterable[int]] = None,
    chain: Optional[Sequence[str]] = None,
    complete_only: bool = False,
    control_root: Optional[Span] = None,
) -> SpanForest:
    """The per-row forest loop: one :func:`build_span_tree` call per
    trace ID.  Uncounted (no metrics); it is the reference the batch
    pipeline is byte-compared against."""
    if trace_ids is None:
        trace_ids = db.trace_ids()
    complete = None
    if complete_only and chain is not None:
        complete = set(db.complete_traces(chain))
    forest = SpanForest(control_root=control_root)
    for trace_id in trace_ids:
        if complete is not None and trace_id not in complete:
            forest.orphan_records += db.record_count_for_trace(trace_id)
            continue
        tree = build_span_tree(db, trace_id, chain=chain)
        if tree is None:
            forest.orphan_records += db.record_count_for_trace(trace_id)
            continue
        forest.trees.append(tree)
        forest.orphan_records += tree.duplicate_records
    return forest


def build_rpc_forest(
    db: TraceDB,
    links: "Mapping[int, Tuple[int, ...]]",
    chain: Optional[Sequence[str]] = None,
) -> SpanForest:
    """Cross-service span forest from trace rows plus causality links.

    ``links`` maps a child trace ID to the parent trace IDs read back
    from its wire embed (see ``ServiceDeployment.links``).  Each *root*
    request -- an observed trace ID with no observed parent -- becomes
    one tree whose spans are ``rpc`` wrappers: the wrapper holds the
    packet's own span tree (when it formed one) plus the ``rpc``
    wrappers of its child RPCs, so Perfetto/OTLP render the whole
    multi-service request under a single track.  Cycles (impossible
    without trace-ID collisions) and repeated links are ignored; the
    primary (first) parent places a multi-parent fan-in child.

    Like :func:`build_span_tree` this is the per-row reference; the
    assembler's :meth:`SpanAssembler.rpc_forest` runs the vectorized
    equivalent and is byte-compared against this one.
    """
    parent_of = {child: parents[0] for child, parents in links.items() if parents}
    observed = list(db.trace_ids())
    known = set(observed)
    children: dict = {}
    for child, parent in parent_of.items():
        if child in known:
            children.setdefault(parent, []).append(child)

    def first_ts(tid: int) -> int:
        rows = db.rows_for_trace(tid)
        return rows[0].timestamp_ns if rows else 0

    for kids in children.values():
        kids.sort(key=lambda tid: (first_ts(tid), tid))

    visited = set()

    def assemble(tid: int) -> Optional[Tuple[Span, int]]:
        if tid in visited:
            return None
        visited.add(tid)
        rows = db.rows_for_trace(tid)
        packet_tree = build_span_tree(db, tid, chain=chain)
        child_spans: List[Span] = []
        records = len(rows)
        for kid in children.get(tid, ()):
            built = assemble(kid)
            if built is not None:
                child_spans.append(built[0])
                records += built[1]
        bounds = [row.timestamp_ns for row in rows]
        bounds.extend(span.start_ns for span in child_spans)
        bounds.extend(span.end_ns for span in child_spans)
        if packet_tree is not None:
            bounds.extend((packet_tree.root.start_ns, packet_tree.root.end_ns))
        if not bounds:
            return None
        span = Span(
            name=f"rpc:0x{tid:08x}",
            kind="rpc",
            node=rows[0].node if rows else "",
            start_ns=min(bounds),
            end_ns=max(bounds),
            attributes={
                "trace_id": tid,
                "parent_id": parent_of.get(tid, 0),
                "rpc_children": len(child_spans),
            },
        )
        if packet_tree is not None:
            span.add_child(packet_tree.root)
        for child in child_spans:
            span.add_child(child)
        return span, records

    forest = SpanForest()
    for tid in observed:
        if parent_of.get(tid) in known:
            continue  # placed under its parent's tree
        built = assemble(tid)
        if built is None:
            continue
        span, records = built
        forest.trees.append(
            SpanTree(trace_id=tid, root=span, record_count=records)
        )
    return forest


def build_control_root(
    deploy_spans: Iterable[Tuple[int, int, str]],
    ship_spans: Iterable[Tuple[int, int, str, int]],
) -> Optional[Span]:
    """The control-plane track: dispatcher -> agent deploy intervals and
    agent -> collector batch shipments, under one synthetic root."""
    children: List[Span] = []
    for start_ns, end_ns, node in deploy_spans:
        children.append(
            Span(
                name=f"deploy:{node}",
                kind="control",
                node=node,
                start_ns=start_ns,
                end_ns=end_ns,
                attributes={"phase": "dispatcher -> agent"},
            )
        )
    for start_ns, end_ns, node, records in ship_spans:
        children.append(
            Span(
                name=f"ship:{node}",
                kind="control",
                node=node,
                start_ns=start_ns,
                end_ns=end_ns,
                attributes={"phase": "agent -> collector", "records": records},
            )
        )
    if not children:
        return None
    children.sort(key=lambda span: (span.start_ns, span.name))
    root = Span(
        name="control-plane",
        kind="control",
        node="master",
        start_ns=min(span.start_ns for span in children),
        end_ns=max(span.end_ns for span in children),
    )
    root.children.extend(children)
    return root


# -- the columnar batch pipeline ----------------------------------------------

_SPAN_NEW = Span.__new__


def _make_span(name, kind, node, start_ns, end_ns, attributes) -> Span:
    """Span construction without dataclass ``__init__``/``__post_init__``.

    Only the batch pipeline calls this, and only with invariants the
    kernel already guarantees: timestamps come out of a sorted group
    (``end_ns >= start_ns`` by construction) and every kind is one of
    ours -- so the validation ``Span.__init__`` runs would be redundant
    here, and skipping it roughly halves per-span build cost."""
    span = _SPAN_NEW(Span)
    span.name = name
    span.kind = kind
    span.node = node
    span.start_ns = start_ns
    span.end_ns = end_ns
    span.children = []
    span.attributes = attributes
    return span


# Hop/wire/device names recur for every trace of a flow (same labels,
# same nodes), so format each distinct one once.  Keyed by the exact
# string pair/node; bounded in practice by chain length x node count.
_PAIR_NAMES: Dict[Tuple[str, str], str] = {}
_DEVICE_NAMES: Dict[str, str] = {}


def _assemble_tree(trace_id, rows, clock_skew) -> Optional[SpanTree]:
    """One tree from a kernel row group (``TraceDB.trace_group_rows``
    tuples, already sorted, already chain-filtered by the caller).
    Mirrors :func:`build_span_tree` exactly; returns ``None`` when the
    trace cannot form a span.  The built tree carries ``_span_count``
    so nothing downstream needs to re-walk it."""
    # Earliest observation per label wins; duplicates are counted.
    seen = set()
    add_seen = seen.add
    kept = []
    keep = kept.append
    duplicates = 0
    for row in rows:
        label = row[3]
        if label in seen:
            duplicates += 1
        else:
            add_seen(label)
            keep(row)
    n = len(kept)
    if n < 2:
        return None

    first = kept[0]
    root = _make_span(
        f"packet:0x{trace_id:08x}",
        "packet",
        first[2],
        first[0],
        kept[-1][0],
        {"trace_id": trace_id, "records": n, "packet_len": first[5]},
    )
    children = root.children
    spans = 1
    run_start = 0
    prev_node = first[2]
    pair_names = _PAIR_NAMES
    device_names = _DEVICE_NAMES
    for i in range(1, n + 1):
        if i < n and kept[i][2] == prev_node:
            continue
        # Close the contiguous same-node run kept[run_start:i].
        run_first = kept[run_start]
        node = run_first[2]
        if run_start > 0:
            before = kept[run_start - 1]
            name_key = (before[3], run_first[3])
            name = pair_names.get(name_key)
            if name is None:
                name = pair_names[name_key] = hop_name(*name_key)
            wire_key = (before[2], node)
            wire_node = pair_names.get(wire_key)
            if wire_node is None:
                wire_node = pair_names[wire_key] = f"{before[2]} -> {node}"
            children.append(
                _make_span(
                    name,
                    "wire",
                    wire_node,
                    before[0],
                    run_first[0],
                    {"from_node": before[2], "to_node": node},
                )
            )
            spans += 1
        device_name = device_names.get(node)
        if device_name is None:
            device_name = device_names[node] = f"device:{node}"
        device = _make_span(
            device_name,
            "device",
            node,
            run_first[0],
            kept[i - 1][0],
            {"records": i - run_start, "clock_offset_ns": clock_skew(node)},
        )
        children.append(device)
        spans += 1
        hops = device.children
        for j in range(run_start, i - 1):
            row_a = kept[j]
            row_b = kept[j + 1]
            name_key = (row_a[3], row_b[3])
            name = pair_names.get(name_key)
            if name is None:
                name = pair_names[name_key] = hop_name(*name_key)
            hops.append(
                _make_span(
                    name,
                    "hop",
                    row_a[2],
                    row_a[0],
                    row_b[0],
                    {"cpu": row_a[4]},
                )
            )
        spans += i - 1 - run_start
        if i < n:
            run_start = i
            prev_node = kept[i][2]

    tree = SpanTree(
        trace_id=trace_id,
        root=root,
        record_count=n + duplicates,
        duplicate_records=duplicates,
    )
    tree._span_count = spans
    return tree


class SpanAssembler:
    """Builds span forests from a :class:`TraceDB`, with observability.

    Assembly runs the columnar batch pipeline: one
    ``TraceDB.trace_group_rows`` group-by over the live columns, one
    :func:`_assemble_tree` per trace group.  Full-database forests
    (``trace_ids=None``) and RPC forests are memoized keyed on
    ``TraceDB.generation`` plus the request shape (chain,
    completeness filter, links signature); any database mutation bumps
    the generation and invalidates the whole memo.  Cache hits return a
    fresh :class:`SpanForest` sharing the immutable trees -- they count
    as ``forest_cache_hits``, not as trees built (nothing was built).

    When a registry is supplied the assembler registers and drives the
    ``tracing`` stage of the metrics contract: trees built, spans
    emitted, orphan records, anomalous spans, forest rebuilds / cache
    hits, and trace groups assembled.
    """

    def __init__(self, db: TraceDB, registry: Optional[MetricsRegistry] = None):
        self.db = db
        self.trees_built = 0
        self.spans_built = 0
        self.orphan_records = 0
        self.forest_rebuilds = 0
        self.forest_cache_hits = 0
        self.groups_assembled = 0
        # key -> (trees tuple, orphan_records); valid only while
        # self._cache_generation == db.generation.
        self._cache: Dict[tuple, Tuple[Tuple[SpanTree, ...], int]] = {}
        self._cache_generation: Optional[int] = None
        self._m_trees = self._m_spans = self._m_orphans = self._m_anomalies = None
        self._m_rebuilds = self._m_hits = self._m_groups = None
        if registry is not None:
            self._m_trees = registry.register_spec(obs_contract.SPAN_TREES)
            self._m_spans = registry.register_spec(obs_contract.SPAN_SPANS)
            self._m_orphans = registry.register_spec(obs_contract.SPAN_ORPHANS)
            self._m_anomalies = registry.register_spec(obs_contract.SPAN_ANOMALIES)
            self._m_rebuilds = registry.register_spec(
                obs_contract.SPAN_FOREST_REBUILDS
            )
            self._m_hits = registry.register_spec(
                obs_contract.SPAN_FOREST_CACHE_HITS
            )
            self._m_groups = registry.register_spec(
                obs_contract.SPAN_GROUPS_ASSEMBLED
            )

    # -- memo cache ----------------------------------------------------------

    def _cache_get(self, key: Optional[tuple]):
        if key is None or self._cache_generation != self.db.generation:
            return None
        entry = self._cache.get(key)
        if entry is None:
            return None
        self.forest_cache_hits += 1
        if self._m_hits is not None:
            self._m_hits.inc()
        return entry

    def _cache_put(self, key: Optional[tuple], trees: Sequence[SpanTree], orphans: int) -> None:
        if key is None:
            return
        if self._cache_generation != self.db.generation:
            self._cache.clear()
            self._cache_generation = self.db.generation
        self._cache[key] = (tuple(trees), orphans)

    def _note_groups(self, count: int) -> None:
        self.groups_assembled += count
        if self._m_groups is not None and count:
            self._m_groups.inc(count)

    def _note_rebuild(self) -> None:
        self.forest_rebuilds += 1
        if self._m_rebuilds is not None:
            self._m_rebuilds.inc()

    def _count_trees(self, trees: Sequence[SpanTree], orphans: int) -> None:
        spans = sum(tree._span_count for tree in trees)
        self.trees_built += len(trees)
        self.spans_built += spans
        self.orphan_records += orphans
        if self._m_trees is not None and trees:
            self._m_trees.inc(len(trees))
            self._m_spans.inc(spans)
        if self._m_orphans is not None and orphans:
            self._m_orphans.inc(orphans)

    # -- assembly ------------------------------------------------------------

    def tree(
        self, trace_id: int, chain: Optional[Sequence[str]] = None
    ) -> Optional[SpanTree]:
        """One packet's tree (counted like a one-tree forest).  Single
        lookups index the live columns directly (no snapshot pass)."""
        ((_, rows),) = self.db.trace_group_rows([trace_id], snapshot=False)
        if chain is not None:
            wanted = set(chain)
            rows = [row for row in rows if row[3] in wanted]
        self._note_groups(1)
        tree = _assemble_tree(trace_id, rows, self.db.clock_skew)
        if tree is None:
            orphaned = self.db.record_count_for_trace(trace_id)
            self.orphan_records += orphaned
            if self._m_orphans is not None and orphaned:
                self._m_orphans.inc(orphaned)
            return None
        self._count_trees((tree,), 0)
        return tree

    def forest(
        self,
        trace_ids: Optional[Iterable[int]] = None,
        chain: Optional[Sequence[str]] = None,
        complete_only: bool = False,
        control_root: Optional[Span] = None,
    ) -> SpanForest:
        """Assemble every requested trace (default: all trace IDs in the
        database, in first-seen order).  With ``complete_only`` and a
        chain, traces missing a tracepoint are skipped as incomplete
        (the §III-C data-cleaning step) and counted as orphans.

        Default (full-database) requests are memoized per generation;
        explicit ``trace_ids`` requests always assemble."""
        filtering = complete_only and chain is not None
        key = None
        if trace_ids is None:
            key = ("forest", None if chain is None else tuple(chain), filtering)
            cached = self._cache_get(key)
            if cached is not None:
                trees, orphans = cached
                return SpanForest(
                    trees=list(trees),
                    orphan_records=orphans,
                    control_root=control_root,
                )
        ids = self.db.trace_ids() if trace_ids is None else list(trace_ids)
        orphans = 0
        if filtering:
            complete = set(self.db.complete_traces(chain))
            wanted_ids = []
            for trace_id in ids:
                if trace_id in complete:
                    wanted_ids.append(trace_id)
                else:
                    orphans += self.db.record_count_for_trace(trace_id)
        else:
            wanted_ids = ids
        wanted = None if chain is None else set(chain)
        if wanted is not None and wanted.issuperset(self.db.tables()):
            wanted = None  # chain covers every label: filter is a no-op
        clock_skew = self.db.clock_skew
        # Snapshotting columns costs O(table) once; worth it unless the
        # request touches only a handful of traces.
        groups = self.db.trace_group_rows(
            wanted_ids, snapshot=trace_ids is None or len(wanted_ids) > 32
        )
        trees: List[SpanTree] = []
        for trace_id, rows in groups:
            if wanted is not None:
                rows = [row for row in rows if row[3] in wanted]
            tree = _assemble_tree(trace_id, rows, clock_skew)
            if tree is None:
                orphans += self.db.record_count_for_trace(trace_id)
                continue
            trees.append(tree)
            orphans += tree.duplicate_records
        self._note_rebuild()
        self._note_groups(len(groups))
        self._count_trees(trees, orphans)
        self._cache_put(key, trees, orphans)
        return SpanForest(
            trees=trees, orphan_records=orphans, control_root=control_root
        )

    def rpc_forest(
        self,
        links: Mapping[int, Tuple[int, ...]],
        chain: Optional[Sequence[str]] = None,
    ) -> SpanForest:
        """Cross-service forest (the vectorized equivalent of
        :func:`build_rpc_forest`), counted into the ``tracing`` stage
        metrics like any other assembly and memoized per generation
        (the cache key includes the links signature, so changed links
        rebuild even on an unchanged database)."""
        key = (
            "rpc",
            tuple(sorted((child, tuple(parents)) for child, parents in links.items())),
            None if chain is None else tuple(chain),
        )
        cached = self._cache_get(key)
        if cached is not None:
            trees, orphans = cached
            return SpanForest(trees=list(trees), orphan_records=orphans)
        trees, groups = self._build_rpc_trees(links, chain)
        self._note_rebuild()
        self._note_groups(groups)
        self._count_trees(trees, 0)
        self._cache_put(key, trees, 0)
        return SpanForest(trees=list(trees))

    def _build_rpc_trees(
        self,
        links: Mapping[int, Tuple[int, ...]],
        chain: Optional[Sequence[str]],
    ) -> Tuple[List[SpanTree], int]:
        """Mirror of :func:`build_rpc_forest` over kernel row groups:
        one columnar group-by for the whole database, then the same
        parent/child recursion without re-materializing rows per trace."""
        db = self.db
        parent_of = {child: parents[0] for child, parents in links.items() if parents}
        observed = db.trace_ids()
        known = set(observed)
        groups = dict(db.trace_group_rows())
        children: Dict[int, List[int]] = {}
        for child, parent in parent_of.items():
            if child in known:
                children.setdefault(parent, []).append(child)

        def first_ts(tid: int) -> int:
            rows = groups.get(tid)
            return rows[0][0] if rows else 0

        for kids in children.values():
            kids.sort(key=lambda tid: (first_ts(tid), tid))

        wanted = None if chain is None else set(chain)
        clock_skew = db.clock_skew
        visited = set()

        def assemble(tid: int) -> Optional[Tuple[Span, int, int]]:
            if tid in visited:
                return None
            visited.add(tid)
            rows = groups.get(tid, [])
            packet_rows = (
                rows if wanted is None else [row for row in rows if row[3] in wanted]
            )
            packet_tree = _assemble_tree(tid, packet_rows, clock_skew)
            child_spans: List[Span] = []
            records = len(rows)
            spans = 1  # this rpc wrapper
            for kid in children.get(tid, ()):
                built = assemble(kid)
                if built is not None:
                    child_spans.append(built[0])
                    records += built[1]
                    spans += built[2]
            start = end = None
            if rows:  # sorted: first/last row bound the observations
                start = rows[0][0]
                end = rows[-1][0]
            for span in child_spans:
                if start is None or span.start_ns < start:
                    start = span.start_ns
                if end is None or span.end_ns > end:
                    end = span.end_ns
            if packet_tree is not None:
                root = packet_tree.root
                if start is None or root.start_ns < start:
                    start = root.start_ns
                if end is None or root.end_ns > end:
                    end = root.end_ns
            if start is None:
                return None
            span = _make_span(
                f"rpc:0x{tid:08x}",
                "rpc",
                rows[0][2] if rows else "",
                start,
                end,
                {
                    "trace_id": tid,
                    "parent_id": parent_of.get(tid, 0),
                    "rpc_children": len(child_spans),
                },
            )
            if packet_tree is not None:
                span.children.append(packet_tree.root)
                spans += packet_tree._span_count
            span.children.extend(child_spans)
            return span, records, spans

        trees: List[SpanTree] = []
        for tid in observed:
            if parent_of.get(tid) in known:
                continue  # placed under its parent's tree
            built = assemble(tid)
            if built is None:
                continue
            span, records, spans = built
            tree = SpanTree(trace_id=tid, root=span, record_count=records)
            tree._span_count = spans
            trees.append(tree)
        return trees, len(visited)

    def anomalies(self, forest: SpanForest, factor: float = 3.0):
        """Anomalous spans (see :func:`repro.tracing.critical.flag_anomalies`),
        counted into ``vnt_span_anomalous_total``."""
        from repro.tracing.critical import flag_anomalies

        found = flag_anomalies(forest, factor=factor)
        if self._m_anomalies is not None and found:
            self._m_anomalies.inc(len(found))
        return found
