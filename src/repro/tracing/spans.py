"""The span model: per-packet trace trees, stored as columns.

The paper's collector stores flat rows; distributed-tracing systems
store *spans* -- named, timed intervals arranged in a parent/child tree
per trace.  Nahida (arXiv:2311.09032) shows that eBPF in-band trace IDs
map naturally onto that model, and our 32-bit per-packet IDs are
exactly such trace IDs: every packet becomes one trace, every device it
crosses becomes a child span, every tracepoint-to-tracepoint hop a
grandchild.

A span is a plain timed interval on the *master-aligned* clock (the
TraceDB applies each node's Cristian offset before spans are built, so
cross-node spans subtract directly).  Kinds:

========= ==========================================================
kind      meaning
========= ==========================================================
packet    the root: first to last observation of one trace ID
device    a contiguous run of records on one node (per-device time)
hop       one tracepoint pair inside a device
wire      the gap between the last record on one node and the first
          on the next (transmission + anything untraced in between)
control   control-plane activity (deploy, batch shipping)
rpc       one RPC in a cross-service request tree: wraps the packet
          tree of its own trace ID and nests its child RPCs
          (docs/SERVICES.md)
========= ==========================================================

Durations are integer nanoseconds and **telescoping**: the top-level
children of a packet span partition it exactly, so their durations sum
to the end-to-end latency with no rounding -- the invariant the
timeline acceptance test pins down to the nanosecond.

Storage (docs/TIMELINES.md, "Reconstruction pipeline"): a forest is one
:class:`SpanColumns` -- parallel ``array('q')`` columns with one row
per span, each tree's rows contiguous and in pre-order -- and
:class:`Span` / :class:`SpanTree` are two-slot views created on access
and never stored.  Arrays of integers are not tracked by the cyclic
garbage collector, so a forest of any size adds nothing for it to
traverse.
"""

from __future__ import annotations

from array import array
from typing import Dict, Iterable, Iterator, List, NamedTuple, Optional, Tuple

SPAN_KINDS = ("packet", "device", "hop", "wire", "control", "rpc")

# Kind ids as stored in ``SpanColumns.kind``.  The control plane has
# three ids -- the bare track root, a deploy leg, a shipment leg --
# because an id fixes the attribute schema of its rows.
PACKET, DEVICE, HOP, WIRE, CONTROL, RPC, DEPLOY, SHIP = range(8)
KIND_NAMES = SPAN_KINDS + ("control", "control")


# Only hop and wire rows store a name.  The root of the control track
# is "control-plane"; every other kind is named ``prefix:value`` after
# the trace ID in slot 0 (packet, rpc) or its node name.
NAME_PREFIX = ("packet", "device", None, None, None, "rpc", "deploy", "ship")
CONTROL_NAME = "control-plane"


class Attribute(NamedTuple):
    """One attribute of a span kind: read from an integer slot (an
    interned node id when ``node`` is set) or a constant of the kind."""

    key: str
    slot: Optional[int] = None
    node: bool = False
    const: Optional[str] = None


# kind id -> its attributes, in the order ``Span.attributes`` lists them.
ATTRIBUTES: Tuple[Tuple[Attribute, ...], ...] = (
    (Attribute("trace_id", 0), Attribute("records", 1), Attribute("packet_len", 2)),
    (Attribute("records", 0), Attribute("clock_offset_ns", 1)),
    (Attribute("cpu", 0),),
    (Attribute("from_node", 0, node=True), Attribute("to_node", 1, node=True)),
    (),
    (Attribute("trace_id", 0), Attribute("parent_id", 1), Attribute("rpc_children", 2)),
    (Attribute("phase", const="dispatcher -> agent"),),
    (Attribute("phase", const="agent -> collector"), Attribute("records", 0)),
)


class SpanColumns:
    """Every span of a forest as parallel columns, plus per-tree columns.

    Rows of one tree are contiguous and in pre-order, so the subtree of
    row ``i`` is ``i .. i + size[i]`` and its parent is ``i - up[i]``;
    both are relative, which lets a whole subtree be copied between
    column sets that share intern tables without touching a value."""

    __slots__ = (
        "start", "end", "kind", "name", "node", "up", "size", "slots",
        "names", "nodes", "_name_ids", "_node_ids",
        "tree_first", "tree_trace", "tree_records", "tree_duplicates",
    )  # fmt: skip

    def __init__(self, interned_from: Optional["SpanColumns"] = None):
        self.start = array("q")
        self.end = array("q")
        self.kind = array("q")
        self.name = array("q")  # id in ``names`` for hop / wire rows, else -1
        self.node = array("q")  # id in ``nodes``
        self.up = array("q")  # rows back to the parent; 0 for a root
        self.size = array("q")  # rows in the subtree, this one included
        self.slots = (array("q"), array("q"), array("q"))  # see ATTRIBUTES
        if interned_from is None:
            self.names: List[str] = []
            self.nodes: List[str] = []
            self._name_ids: Dict[str, int] = {}
            self._node_ids: Dict[str, int] = {}
        else:  # append-only tables, so sharing them is safe
            self.names = interned_from.names
            self.nodes = interned_from.nodes
            self._name_ids = interned_from._name_ids
            self._node_ids = interned_from._node_ids
        self.tree_first = array("q")  # row of each tree's root
        self.tree_trace = array("q")
        self.tree_records = array("q")  # rows folded in, duplicates included
        self.tree_duplicates = array("q")

    def __len__(self) -> int:
        return len(self.start)

    def name_id(self, name: str) -> int:
        found = self._name_ids.get(name)
        if found is None:
            found = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return found

    def node_id(self, node: str) -> int:
        found = self._node_ids.get(node)
        if found is None:
            found = self._node_ids[node] = len(self.nodes)
            self.nodes.append(node)
        return found

    def append(
        self,
        kind: int,
        node: str,
        start_ns: int,
        end_ns: int,
        parent: int = -1,
        slots: Tuple[int, int, int] = (0, 0, 0),
        name: Optional[str] = None,
    ) -> int:
        """Add one validated span under row ``parent`` (-1: a new root)
        and return its row.  Rows must arrive in pre-order.  Only hop
        and wire spans carry a ``name``; every other kind is named after
        its node or the trace ID in slot 0 (:meth:`name_of`)."""
        if kind not in range(len(KIND_NAMES)):
            raise ValueError(f"unknown span kind {kind!r}")
        if end_ns < start_ns:
            raise ValueError(f"span on {node!r} ends before it starts ({end_ns} < {start_ns})")
        if (name is None) == (kind in (HOP, WIRE)):
            raise ValueError(f"{KIND_NAMES[kind]} span: name={name!r}")
        row = len(self.start)
        if parent >= 0 and parent + self.size[parent] != row:
            raise ValueError(f"row {row} is out of pre-order under row {parent}")
        self.start.append(start_ns)
        self.end.append(end_ns)
        self.kind.append(kind)
        self.name.append(-1 if name is None else self.name_id(name))
        self.node.append(self.node_id(node))
        self.up.append(row - parent if parent >= 0 else 0)
        self.size.append(1)
        for column, value in zip(self.slots, slots):
            column.append(value)
        while parent >= 0:  # the new row extends every ancestor's subtree
            self.size[parent] += 1
            parent = parent - self.up[parent] if self.up[parent] else -1
        return row

    def append_tree(self, root: int, trace_id: int, records: int, duplicates: int = 0) -> int:
        """Register row ``root`` as the root of a new tree."""
        self.tree_first.append(root)
        self.tree_trace.append(trace_id)
        self.tree_records.append(records)
        self.tree_duplicates.append(duplicates)
        return len(self.tree_first) - 1

    def children(self, row: int) -> Iterator[int]:
        child = row + 1
        stop = row + self.size[row]
        size = self.size
        while child < stop:
            yield child
            child += size[child]

    def name_of(self, row: int) -> str:
        kind = self.kind[row]
        if kind in (HOP, WIRE):
            return self.names[self.name[row]]
        if kind in (PACKET, RPC):
            return f"{NAME_PREFIX[kind]}:0x{self.slots[0][row]:08x}"
        if kind == CONTROL:
            return CONTROL_NAME
        return f"{NAME_PREFIX[kind]}:{self.nodes[self.node[row]]}"


class Span:
    """One named, timed interval in a trace tree: a read-only view of
    one :class:`SpanColumns` row."""

    __slots__ = ("_cols", "index")

    def __init__(self, cols: SpanColumns, index: int):
        self._cols = cols
        self.index = index

    @property
    def name(self) -> str:
        return self._cols.name_of(self.index)

    @property
    def kind(self) -> str:
        return KIND_NAMES[self._cols.kind[self.index]]

    @property
    def node(self) -> str:
        return self._cols.nodes[self._cols.node[self.index]]

    @property
    def start_ns(self) -> int:
        return self._cols.start[self.index]

    @property
    def end_ns(self) -> int:
        return self._cols.end[self.index]

    @property
    def duration_ns(self) -> int:
        return self._cols.end[self.index] - self._cols.start[self.index]

    @property
    def children(self) -> List["Span"]:
        cols = self._cols
        return [Span(cols, row) for row in cols.children(self.index)]

    @property
    def attributes(self) -> Dict[str, object]:
        cols, row = self._cols, self.index
        found: Dict[str, object] = {}
        for key, slot, is_node, const in ATTRIBUTES[cols.kind[row]]:
            if slot is None:
                found[key] = const
            else:
                value = cols.slots[slot][row]
                found[key] = cols.nodes[value] if is_node else value
        return found

    def walk(self) -> Iterator["Span"]:
        """Pre-order traversal (self first): the subtree's rows in order."""
        cols = self._cols
        for row in range(self.index, self.index + cols.size[self.index]):
            yield Span(cols, row)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Span) and other._cols is self._cols and other.index == self.index
        )

    def __hash__(self) -> int:
        return hash((id(self._cols), self.index))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<Span {self.kind}:{self.name!r} {self.start_ns}..{self.end_ns} "
            f"children={len(self.children)}>"
        )


class SpanTree:
    """One packet's reconstructed trace: a root span plus metadata (a
    view of one :class:`SpanColumns` tree)."""

    __slots__ = ("_cols", "index")

    def __init__(self, cols: SpanColumns, index: int):
        self._cols = cols
        self.index = index

    @property
    def trace_id(self) -> int:
        return self._cols.tree_trace[self.index]

    @property
    def root(self) -> Span:
        return Span(self._cols, self._cols.tree_first[self.index])

    @property
    def record_count(self) -> int:
        return self._cols.tree_records[self.index]

    @property
    def duplicate_records(self) -> int:
        return self._cols.tree_duplicates[self.index]

    @property
    def start_ns(self) -> int:
        return self.root.start_ns

    @property
    def end_ns(self) -> int:
        return self.root.end_ns

    @property
    def duration_ns(self) -> int:
        return self.root.duration_ns

    def spans(self) -> List[Span]:
        """Every span in the tree, pre-order."""
        return list(self.root.walk())

    def hop_spans(self) -> List[Span]:
        """The leaf segments (hops and wires) in timestamp order."""
        kind = self._cols.kind
        return [span for span in self.root.walk() if kind[span.index] in (HOP, WIRE)]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<SpanTree 0x{self.trace_id:08x} {self.duration_ns}ns "
            f"spans={self._cols.size[self.root.index]}>"
        )


class SpanTrees:
    """The trees of a forest, in forest order: a selection of tree
    indices over one :class:`SpanColumns` (the sequence ``forest.trees``
    returns).  Indexing yields :class:`SpanTree` views, slicing another
    selection over the same columns."""

    __slots__ = ("columns", "order")

    def __init__(self, columns: SpanColumns, order=None):
        self.columns = columns
        self.order = range(len(columns.tree_first)) if order is None else order

    def __len__(self) -> int:
        return len(self.order)

    def __iter__(self) -> Iterator[SpanTree]:
        columns = self.columns
        for index in self.order:
            yield SpanTree(columns, index)

    def __getitem__(self, item):
        if isinstance(item, slice):
            return SpanTrees(self.columns, self.order[item])
        return SpanTree(self.columns, self.order[item])

    def row_ranges(self) -> Iterator[Tuple[int, int]]:
        """``(first row, end row)`` of every selected tree; a contiguous
        run of trees comes out as one range."""
        order = self.order
        first, size = self.columns.tree_first, self.columns.size
        if isinstance(order, range) and order.step == 1:
            if order:
                last = first[order[-1]]
                yield first[order[0]], last + size[last]
            return
        for index in order:
            row = first[index]
            yield row, row + size[row]


class SpanForest:
    """All span trees reconstructed for one flow, plus build statistics.

    ``orphan_records`` counts rows that could not be folded into any
    tree: traces observed at a single tracepoint only (nothing to pair
    with) and duplicate observations at a tracepoint already folded
    (the first row wins, per ``TraceDB.trace_ids_at`` semantics).

    ``trees`` is a :class:`SpanTrees` or an iterable of :class:`SpanTree`
    views of one column set; ``control_root`` a :class:`Span` of the
    control-plane track's own columns
    (:func:`repro.tracing.reconstruct.build_control_root`)."""

    __slots__ = ("trees", "orphan_records", "control_root", "_leaves")

    def __init__(
        self,
        trees: Iterable[SpanTree] = (),
        orphan_records: int = 0,
        control_root: Optional[Span] = None,
    ):
        if not isinstance(trees, SpanTrees):
            views = list(trees)
            columns = views[0]._cols if views else SpanColumns()
            if any(view._cols is not columns for view in views):
                raise ValueError("a forest's trees must share one SpanColumns")
            trees = SpanTrees(columns, [view.index for view in views])
        self.trees = trees
        self.orphan_records = orphan_records
        self.control_root = control_root
        self._leaves = None  # repro.tracing.critical's per-forest memo

    def __len__(self) -> int:
        return len(self.trees)

    def __iter__(self) -> Iterator[SpanTree]:
        return iter(self.trees)

    def span_count(self) -> int:
        columns = self.trees.columns
        first, size = columns.tree_first, columns.size
        return sum(size[first[index]] for index in self.trees.order)

    def tree_for(self, trace_id: int) -> Optional[SpanTree]:
        columns = self.trees.columns
        for index in self.trees.order:
            if columns.tree_trace[index] == trace_id:
                return SpanTree(columns, index)
        return None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<SpanForest trees={len(self.trees)} spans={self.span_count()} "
            f"orphans={self.orphan_records}>"
        )
