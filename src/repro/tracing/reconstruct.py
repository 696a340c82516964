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

:class:`SpanAssembler` runs that algorithm over
``TraceDB.trace_group_rows`` (the columnar group-by kernel) and writes
straight into :class:`~repro.tracing.spans.SpanColumns`: the traces of
one flow share their structure, so each distinct *shape* -- label
sequence plus same-node run pattern -- is compiled once into column
templates and a trace costs a handful of ``array.extend`` calls, with
no Python object per span (docs/TIMELINES.md, "Reconstruction
pipeline").  The per-row reference implementation the differential
suites compare against lives in ``tests/span_reference.py``.

Control-plane spans (dispatcher -> agent deploys, agent -> collector
batch shipments) are assembled from the event logs those components
keep; see :func:`build_control_root`.
"""

from __future__ import annotations

from array import array
from operator import itemgetter, ne
from typing import Callable, Dict, Iterable, List, Mapping, NamedTuple, Optional, Sequence, Tuple

from repro.core.tracedb import TraceDB
from repro.obs import contract as obs_contract
from repro.obs.registry import MetricsRegistry
from repro.tracing.spans import (
    CONTROL,
    DEPLOY,
    DEVICE,
    HOP,
    PACKET,
    RPC,
    SHIP,
    WIRE,
    Span,
    SpanColumns,
    SpanForest,
    SpanTree,
    SpanTrees,
)


def hop_name(from_label: str, to_label: str) -> str:
    """The canonical leaf-segment name; shared with SegmentLatency."""
    return f"{from_label} -> {to_label}"


def build_control_root(
    deploy_spans: Iterable[Tuple[int, int, str]],
    ship_spans: Iterable[Tuple[int, int, str, int]],
) -> Optional[Span]:
    """The control-plane track: dispatcher -> agent deploy intervals and
    agent -> collector batch shipments, under one synthetic root (in a
    column set of its own)."""
    legs = [
        (start_ns, f"deploy:{node}", end_ns, node, DEPLOY, 0)
        for start_ns, end_ns, node in deploy_spans
    ]
    legs.extend(
        (start_ns, f"ship:{node}", end_ns, node, SHIP, records)
        for start_ns, end_ns, node, records in ship_spans
    )
    if not legs:
        return None
    legs.sort(key=itemgetter(0, 1))  # (start, name)
    columns = SpanColumns()
    root = columns.append(
        CONTROL, "master", min(leg[0] for leg in legs), max(leg[2] for leg in legs)
    )
    for start_ns, _, end_ns, node, kind, records in legs:
        columns.append(kind, node, start_ns, end_ns, parent=root, slots=(records, 0, 0))
    return Span(columns, root)


# -- the columnar batch pipeline ----------------------------------------------


class _Shape(NamedTuple):
    """Column templates for every tree with one label sequence and one
    same-node run pattern.  ``kind`` / ``name`` / ``up`` / ``size`` are
    extended as they are; the pickers select, per span, the row that
    supplies its start and end and the per-tree value (see ``pool`` in
    :meth:`SpanAssembler._assemble`) behind its node and slots.  Node
    names are per-tree data, never part of a shape: a fleet where every
    trace crosses its own node pair still compiles one shape."""

    kind: array
    name: array
    up: array
    size: array
    starts: Callable
    ends: Callable
    nodes: Callable
    slots: Tuple[Callable, Callable, Callable]
    wires: Tuple[Tuple[int, int], ...]  # (row before, row after) of each node change
    constants: Tuple[int, ...]  # pool prefix: constant c sits at index c


def _compile_shape(columns: SpanColumns, labels: Tuple[str, ...], breaks: Tuple[bool, ...]):
    """The :class:`_Shape` of ``labels`` observed with a node change
    wherever ``breaks`` is true."""
    n = len(labels)
    wires = tuple((row, row + 1) for row in range(n - 1) if breaks[row])
    # Where a tree's values sit in its pool: the constants 0..n, each
    # row's node id, each row's clock offset, the wire node ids, the
    # trace id, the packet length, each row's cpu.
    node_at, skew_at, wire_at = n + 1, 2 * n + 1, 3 * n + 1
    trace_at = wire_at + len(wires)
    length_at, cpu_at = trace_at + 1, trace_at + 2
    # Per span: kind, name id, up, size, start row, end row, then the
    # pool index behind its node and its three slots (index c < n + 1
    # is the constant c).  The root's size is filled in at the end.
    spans = [(PACKET, -1, 0, 0, 0, n - 1, node_at, trace_at, n, length_at)]
    run_start = 0
    for i in range(1, n + 1):
        if i < n and not breaks[i - 1]:
            continue
        # Close the contiguous same-node run of rows run_start .. i-1.
        if run_start:
            before = run_start - 1
            name = columns.name_id(hop_name(labels[before], labels[run_start]))
            wire = wire_at + wires.index((before, run_start))
            spans.append(
                (WIRE, name, len(spans), 1, before, run_start, wire,
                 node_at + before, node_at + run_start, 0)
            )  # fmt: skip
        device = len(spans)
        records = i - run_start
        spans.append(
            (DEVICE, -1, device, records, run_start, i - 1, node_at + run_start,
             records, skew_at + run_start, 0)
        )  # fmt: skip
        for j in range(run_start, i - 1):
            name = columns.name_id(hop_name(labels[j], labels[j + 1]))
            spans.append(
                (HOP, name, len(spans) - device, 1, j, j + 1, node_at + j, cpu_at + j, 0, 0)
            )
        run_start = i
    kind, name, up, size, starts, ends, nodes, slot0, slot1, slot2 = zip(*spans)
    return _Shape(
        kind=array("q", kind),
        name=array("q", name),
        up=array("q", up),
        size=array("q", (len(spans),) + size[1:]),
        starts=itemgetter(*starts),  # a tree has at least three spans
        ends=itemgetter(*ends),
        nodes=itemgetter(*nodes),
        slots=(itemgetter(*slot0), itemgetter(*slot1), itemgetter(*slot2)),
        wires=wires,
        constants=tuple(range(n + 1)),
    )


def _first_per_label(rows: list) -> list:
    """Earliest row per tracepoint label (rows are time-sorted)."""
    seen = set()
    kept = []
    for row in rows:
        if row[3] not in seen:
            seen.add(row[3])
            kept.append(row)
    return kept


class _Observed(NamedTuple):
    """What an assembly saw of every requested trace that has rows,
    tree or not, before any chain filter -- what ``rpc_forest`` wraps."""

    position: Dict[int, int]  # trace id -> index into the columns below
    rows: array
    first_ns: array
    last_ns: array
    node: array  # interned node id of the earliest row
    tree: array  # index of the packet tree the trace formed, or -1


class _Assembly(NamedTuple):
    columns: SpanColumns
    orphans: int
    groups: int
    observed: _Observed


class SpanAssembler:
    """Builds span forests from a :class:`TraceDB`, with observability.

    Assembly runs the columnar batch pipeline: one
    ``TraceDB.trace_group_rows`` group-by over the live columns, then
    per trace a template fill into :class:`SpanColumns`.  Full-database
    forests (``trace_ids=None``) and RPC forests are memoized keyed on
    ``TraceDB.generation`` plus the request shape (chain, completeness
    filter, links signature); any database mutation bumps the generation
    and invalidates the whole memo.  Cache hits return a fresh
    :class:`SpanForest` over the same immutable columns -- they count as
    ``forest_cache_hits``, not as trees built (nothing was built).  An
    RPC forest wraps the packet columns of its chain and shares them
    with ``forest()``; the counters count requests, so each request that
    is not a cache hit counts its trees and spans whoever built them.

    The assembler registers and drives the ``tracing`` stage of the
    metrics contract (in a private registry when built without one):
    trees built, spans emitted, orphan records, anomalous spans, forest
    rebuilds / cache hits, and trace groups assembled.
    """

    def __init__(self, db: TraceDB, registry: Optional[MetricsRegistry] = None):
        self.db = db
        self.trees_built = 0
        self.spans_built = 0
        self.orphan_records = 0
        self.forest_rebuilds = 0
        self.forest_cache_hits = 0
        self.groups_assembled = 0
        # Valid only while self._cache_generation == db.generation.
        self._cache: Dict[tuple, object] = {}
        self._cache_generation: Optional[int] = None
        registry = registry if registry is not None else MetricsRegistry()
        self._m_trees = registry.register_spec(obs_contract.SPAN_TREES)
        self._m_spans = registry.register_spec(obs_contract.SPAN_SPANS)
        self._m_orphans = registry.register_spec(obs_contract.SPAN_ORPHANS)
        self._m_anomalies = registry.register_spec(obs_contract.SPAN_ANOMALIES)
        self._m_rebuilds = registry.register_spec(obs_contract.SPAN_FOREST_REBUILDS)
        self._m_hits = registry.register_spec(obs_contract.SPAN_FOREST_CACHE_HITS)
        self._m_groups = registry.register_spec(obs_contract.SPAN_GROUPS_ASSEMBLED)

    # -- memo cache and counters ---------------------------------------------

    def _memo(self) -> Dict[tuple, object]:
        if self._cache_generation != self.db.generation:
            self._cache.clear()
            self._cache_generation = self.db.generation
        return self._cache

    def _note_hit(self) -> None:
        self.forest_cache_hits += 1
        self._m_hits.inc()

    def _note_rebuild(self) -> None:
        self.forest_rebuilds += 1
        self._m_rebuilds.inc()

    def _count_build(self, columns: SpanColumns, groups: int, orphans: int) -> None:
        """Count one answered request: what it assembled, whether or not
        an earlier request already holds the same columns."""
        trees = len(columns.tree_first)
        self.groups_assembled += groups
        self.trees_built += trees
        self.spans_built += len(columns)
        self.orphan_records += orphans
        if groups:
            self._m_groups.inc(groups)
        if trees:
            self._m_trees.inc(trees)
            self._m_spans.inc(len(columns))
        if orphans:
            self._m_orphans.inc(orphans)

    # -- assembly ------------------------------------------------------------

    def tree(self, trace_id: int, chain: Optional[Sequence[str]] = None) -> Optional[SpanTree]:
        """One packet's tree (counted like a one-tree forest).  Single
        lookups index the live columns directly (no snapshot pass)."""
        built = self._assemble([trace_id], chain, False, snapshot=False)
        self._count_build(built.columns, 1, built.orphans)
        return SpanTree(built.columns, 0) if len(built.columns) else None

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
        served = False
        if trace_ids is None:
            memo = self._memo()
            request = ("forest", None if chain is None else tuple(chain), filtering)
            served = request in memo
            memo[request] = True
            built = self._packets(chain, filtering)
        else:
            ids = list(trace_ids)
            # Snapshotting columns costs O(table) once; worth it unless
            # the request touches only a handful of traces.
            built = self._assemble(ids, chain, filtering, snapshot=len(ids) > 32)
        if served:
            self._note_hit()
        else:
            self._note_rebuild()
            self._count_build(built.columns, built.groups, built.orphans)
        return SpanForest(SpanTrees(built.columns), built.orphans, control_root)

    def _packets(self, chain: Optional[Sequence[str]], filtering: bool) -> _Assembly:
        """The whole database's packet trees for one chain: built once
        per generation, uncounted -- ``forest`` and ``rpc_forest`` count
        their own requests."""
        memo = self._memo()
        key = ("packets", None if chain is None else tuple(chain), filtering)
        built = memo.get(key)
        if built is None:
            built = memo[key] = self._assemble(self.db.trace_ids(), chain, filtering)
        return built

    def _assemble(
        self,
        ids: List[int],
        chain: Optional[Sequence[str]],
        filtering: bool,
        snapshot: bool = True,
    ) -> _Assembly:
        db = self.db
        orphans = 0
        if filtering:
            complete = set(db.complete_traces(chain))
            wanted_ids = []
            for trace_id in ids:
                if trace_id in complete:
                    wanted_ids.append(trace_id)
                else:
                    orphans += db.record_count_for_trace(trace_id)
            ids = wanted_ids
        wanted = None if chain is None else set(chain)
        if wanted is not None and wanted.issuperset(db.tables()):
            wanted = None  # chain covers every label: filter is a no-op
        clock_skew = db.clock_skew

        columns = SpanColumns()
        # The columns a shape holds ready-made grow once per run of
        # same-shape trees; the per-tree ones collect in lists (a list
        # takes a tuple several times faster than an array does) and
        # become arrays at the end.
        starts: List[int] = []
        ends: List[int] = []
        nodes_of: List[int] = []
        slots: Tuple[List[int], ...] = ([], [], [])
        add_starts, add_ends, add_nodes = starts.extend, ends.extend, nodes_of.extend
        add_slot0, add_slot1, add_slot2 = (column.extend for column in slots)
        tree_first, tree_trace = columns.tree_first, columns.tree_trace
        tree_records, tree_duplicates = columns.tree_records, columns.tree_duplicates
        observed = _Observed({}, array("q"), array("q"), array("q"), array("q"), array("q"))
        position = observed.position
        # Everything memoised below is keyed on low-cardinality parts
        # (label sequences, node names, node pairs) and dies with this call.
        shapes: Dict[tuple, _Shape] = {}
        node_id = columns._node_ids.get
        skews: Dict[int, int] = {}  # id of an observing node -> its clock offset
        wire_ids: Dict[Tuple[int, int], int] = {}  # (from id, to id) -> wire node id

        def intern(node_name: str) -> int:
            found = node_id(node_name)
            if found is None:
                found = columns.node_id(node_name)
                skews[found] = clock_skew(node_name)
            return found

        def node_values(shape: _Shape, nodes: Tuple[str, ...]) -> Tuple[int, ...]:
            """The pool entries that depend on the node path alone."""
            ids = tuple(map(intern, nodes))
            wires = []
            for before, after in shape.wires:
                pair = (ids[before], ids[after])
                if pair not in wire_ids:
                    wire_ids[pair] = columns.node_id(f"{nodes[before]} -> {nodes[after]}")
                wires.append(wire_ids[pair])
            return ids + tuple(skews[found] for found in ids) + tuple(wires)

        def close_run() -> None:
            if run:
                columns.kind.extend(shape.kind * run)
                columns.name.extend(shape.name * run)
                columns.up.extend(shape.up * run)
                columns.size.extend(shape.size * run)

        shape = path = prefix = None  # of the previous tree
        run = 0  # trees since ``shape`` last changed
        groups = db.trace_group_rows(ids, snapshot=snapshot)
        for trace_id, rows in groups:
            if not rows:
                continue  # a trace ID the database never saw
            seen = len(rows)
            position[trace_id] = len(observed.rows)
            observed.rows.append(seen)
            observed.first_ns.append(rows[0][0])
            observed.last_ns.append(rows[-1][0])
            observed.node.append(intern(rows[0][2]))
            if wanted is not None:
                rows = [row for row in rows if row[3] in wanted]
            duplicates = 0
            if len(rows) >= 2:
                stamps, _, nodes, labels, cpus, lengths = zip(*rows)
                if len(set(labels)) != len(labels):  # first observation wins
                    kept = _first_per_label(rows)
                    duplicates = len(rows) - len(kept)
                    rows = kept
                    stamps, _, nodes, labels, cpus, lengths = zip(*rows)
            if len(rows) < 2:
                orphans += seen
                observed.tree.append(-1)
                continue

            key = (labels, tuple(map(ne, nodes, nodes[1:])))
            found = shapes.get(key)
            if found is None:
                found = shapes[key] = _compile_shape(columns, *key)
            if found is not shape:
                close_run()
                shape, run, path = found, 0, None
            if nodes != path:  # consecutive traces of a flow share their node path
                path = nodes
                prefix = shape.constants + node_values(shape, nodes)
            run += 1
            pool = prefix + (trace_id, lengths[0]) + cpus

            observed.tree.append(len(tree_first))
            tree_first.append(len(starts))
            tree_trace.append(trace_id)
            tree_records.append(len(rows) + duplicates)
            tree_duplicates.append(duplicates)
            orphans += duplicates
            add_starts(shape.starts(stamps))
            add_ends(shape.ends(stamps))
            add_nodes(shape.nodes(pool))
            add_slot0(shape.slots[0](pool))
            add_slot1(shape.slots[1](pool))
            add_slot2(shape.slots[2](pool))
        close_run()
        columns.start, columns.end = array("q", starts), array("q", ends)
        columns.node = array("q", nodes_of)
        columns.slots = tuple(array("q", column) for column in slots)
        return _Assembly(columns, orphans, len(groups), observed)

    def rpc_forest(
        self,
        links: Mapping[int, Tuple[int, ...]],
        chain: Optional[Sequence[str]] = None,
    ) -> SpanForest:
        """Cross-service span forest from trace rows plus causality links.

        ``links`` maps a child trace ID to the parent trace IDs read back
        from its wire embed (see ``ServiceDeployment.links``).  Each
        *root* request -- an observed trace ID with no observed parent --
        becomes one tree whose spans are ``rpc`` wrappers: the wrapper
        holds the packet's own span tree (when it formed one) plus the
        ``rpc`` wrappers of its child RPCs, so Perfetto/OTLP render the
        whole multi-service request under a single track.  The primary
        (first) parent places a multi-parent fan-in child; repeated
        links are ignored.  A link cycle (possible only when 32-bit
        trace IDs collide) is broken at its first-seen member, which
        becomes a root with its parent link dropped -- so every observed
        trace sits in exactly one tree and ``orphan_records`` is 0.

        Counted into the ``tracing`` stage metrics like any other
        assembly and memoized per generation (the cache key includes the
        links signature, so changed links rebuild even on an unchanged
        database)."""
        key = (
            "rpc",
            tuple(sorted((child, tuple(parents)) for child, parents in links.items())),
            None if chain is None else tuple(chain),
        )
        memo = self._memo()
        columns = memo.get(key)
        if columns is not None:
            self._note_hit()
        else:
            built = self._packets(chain, False)
            columns = memo[key] = _wrap_rpcs(built.columns, built.observed, links)
            self._note_rebuild()
            self._count_build(columns, len(built.observed.rows), 0)
        return SpanForest(SpanTrees(columns))

    def anomalies(self, forest: SpanForest, factor: float = 3.0):
        """Anomalous spans (see :func:`repro.tracing.critical.flag_anomalies`),
        counted into ``vnt_span_anomalous_total``."""
        from repro.tracing.critical import flag_anomalies

        found = flag_anomalies(forest, factor=factor)
        if found:
            self._m_anomalies.inc(len(found))
        return found


def _break_cycles(parent_of: Dict[int, int], rank: Mapping[int, int]) -> List[int]:
    """Drop, from every cycle in ``parent_of``, the link of its member
    with the lowest ``rank``; returns those members."""
    cleared = set()  # traces whose chain of parents is known to end
    dropped = []
    for trace_id in list(parent_of):
        trail: Dict[int, int] = {}  # this walk: trace id -> step
        while trace_id in parent_of and trace_id not in cleared:
            if trace_id in trail:
                cycle = list(trail)[trail[trace_id] :]
                first = min(cycle, key=rank.__getitem__)
                del parent_of[first]
                dropped.append(first)
                break
            trail[trace_id] = len(trail)
            trace_id = parent_of[trace_id]
        cleared.update(trail)
    return dropped


def _wrap_rpcs(
    packets: SpanColumns, observed: _Observed, links: Mapping[int, Tuple[int, ...]]
) -> SpanColumns:
    """The RPC forest over ``packets``: one ``rpc`` wrapper row per
    observed trace, followed by a copy of the trace's packet subtree
    (relative ``up`` / ``size`` and shared intern tables make that ten
    slice copies) and then by its child RPCs, iteratively."""
    position = observed.position
    parent_id = {child: parents[0] for child, parents in links.items() if parents}
    # Placement: observed traces under their observed primary parent.
    placed = {
        child: parent
        for child, parent in parent_id.items()
        if child in position and parent in position
    }
    for first in _break_cycles(placed, position):
        del parent_id[first]
    first_ns = observed.first_ns
    children: Dict[int, List[int]] = {}
    for child, parent in placed.items():
        children.setdefault(parent, []).append(child)
    for kids in children.values():
        kids.sort(key=lambda trace_id: (first_ns[position[trace_id]], trace_id), reverse=True)

    columns = SpanColumns(interned_from=packets)
    start, end, up, size = columns.start, columns.end, columns.up, columns.size
    scalar = (columns.kind, columns.name, columns.node) + columns.slots
    copied = (
        (start, packets.start), (end, packets.end), (columns.kind, packets.kind),
        (columns.name, packets.name), (columns.node, packets.node), (up, packets.up),
        (size, packets.size), (columns.slots[0], packets.slots[0]),
        (columns.slots[1], packets.slots[1]), (columns.slots[2], packets.slots[2]),
    )  # fmt: skip
    for root in position:
        if root in placed:
            continue  # sits under its parent's wrapper
        records = 0
        wrappers = []
        stack = [(root, -1)]
        while stack:
            trace_id, parent_row = stack.pop()
            at = position[trace_id]
            row = len(start)
            kids = children.get(trace_id, ())
            start.append(first_ns[at])
            end.append(observed.last_ns[at])
            up.append(row - parent_row if parent_row >= 0 else 0)
            size.append(1)
            for column, value in zip(
                scalar,
                (RPC, -1, observed.node[at], trace_id, parent_id.get(trace_id, 0), len(kids)),
            ):
                column.append(value)
            wrappers.append(row)
            records += observed.rows[at]
            tree = observed.tree[at]
            if tree >= 0:
                low = packets.tree_first[tree]
                high = low + packets.size[low]
                for target, source in copied:
                    target.extend(source[low:high])
                up[row + 1] = 1  # the packet root now hangs off the wrapper
                size[row] += high - low
            stack.extend((kid, row) for kid in kids)  # sorted latest first: pops earliest
        for row in reversed(wrappers[1:]):  # fold children into parents, deepest first
            parent_row = row - up[row]
            size[parent_row] += size[row]
            if start[row] < start[parent_row]:
                start[parent_row] = start[row]
            if end[row] > end[parent_row]:
                end[parent_row] = end[row]
        columns.append_tree(wrappers[0], root, records)
    return columns
