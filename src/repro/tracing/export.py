"""Timeline exporters: Chrome trace-event JSON and OTLP-style JSON.

Two interchange formats plus a terminal rendering:

* :func:`chrome_trace_json` / :func:`write_chrome_trace` -- the Chrome
  trace-event format (``ph: "X"`` complete events), directly loadable
  in Perfetto (https://ui.perfetto.dev) and ``chrome://tracing``.  Each
  packet becomes a process row, each node a thread row inside it, and
  the control plane (deploys, batch shipments) process 0.
* :func:`otlp_json` -- an OTLP/JSON-style ``resourceSpans`` document
  (the OpenTelemetry trace shape), with the 32-bit in-packet ID widened
  into the 128-bit ``traceId`` and span IDs derived deterministically
  from (trace ID, preorder index).
* :func:`timeline_text` -- indented span trees for the terminal.

All three read the forest's columns row by row -- no span views, no
recursion, no intermediate event dicts -- and the Chrome form comes out
in chunks (:func:`chrome_trace_chunks`), so a forest can be written to
a file without ever holding its document in memory.

Determinism: both JSON serializations are canonical (exactly what
``json.dumps(..., sort_keys=True, separators=(",", ":"))`` would emit
for the equivalent document, no wall-clock fields), so two runs of the
same scenario produce byte-identical documents -- the property the
determinism CI job diffs.  Nothing is memoised across calls: the
escaped name and node tables are locals of one export.
"""

from __future__ import annotations

from itertools import repeat
from json.encoder import encode_basestring_ascii as _escape
from operator import floordiv, mod, sub, truediv
from typing import IO, Dict, Iterator, List, Optional

from repro.analysis.reports import format_ns
from repro.tracing.spans import (
    ATTRIBUTES,
    CONTROL,
    CONTROL_NAME,
    DEPLOY,
    DEVICE,
    HOP,
    KIND_NAMES,
    NAME_PREFIX,
    PACKET,
    RPC,
    SHIP,
    WIRE,
    SpanColumns,
    SpanForest,
    SpanTree,
)

# Synthetic trace ID for the control-plane track: one past the u32
# range, so it can never collide with an in-packet ID.
CONTROL_TRACE_ID = 1 << 32

# Trees serialised per Chrome chunk: bounds what an export holds beyond
# its own output.
_CHUNK_TREES = 1024

# -- Chrome trace events ------------------------------------------------------

# One complete event per kind, keys pre-sorted as the canonical encoder
# would sort them; every format ends with the same seven values:
# duration (two pieces), name (already escaped), pid, tid, timestamp
# (two pieces).
_EVENT_TAIL = ',"dur":%s%s,"name":%s,"ph":"X","pid":%d,"tid":%d,"ts":%s%s}'
_EVENT_HEADS = {
    PACKET: '{"args":{"packet_len":%d,"records":%d,"trace_id":%d},"cat":"packet"',
    DEVICE: '{"args":{"clock_offset_ns":%d,"records":%d},"cat":"device"',
    HOP: '{"args":{"cpu":%d},"cat":"hop"',
    WIRE: '{"args":{"from_node":%s,"to_node":%s},"cat":"wire"',
    CONTROL: '{"args":{},"cat":"control"',
    RPC: '{"args":{"parent_id":%d,"rpc_children":%d,"trace_id":%d},"cat":"rpc"',
    DEPLOY: '{"args":{"phase":"dispatcher -> agent"},"cat":"control"',
    SHIP: '{"args":{"phase":"agent -> collector","records":%d},"cat":"control"',
}
_CHROME_EVENT = {kind: head + _EVENT_TAIL for kind, head in _EVENT_HEADS.items()}
# Below this many nanoseconds a double is finer than 0.001 us (2**42 us
# is 4.4e15 ns), so the Chrome export may print microseconds from integers.
_EXACT_NS = 10**15
_PROCESS_NAME = '{"args":{"name":%s},"name":"process_name","ph":"M","pid":%d,"tid":0}'
_THREAD_NAME = '{"args":{"name":%s},"name":"thread_name","ph":"M","pid":%d,"tid":%d}'


def _chrome_serialiser(columns: SpanColumns):
    """``rows(low, high, pid, labels, out) -> next pid`` for one export
    of ``columns``: serialises rows ``low .. high`` (whole trees) as
    process tracks ``pid``, ``pid + 1``, ... -- per track a name event
    labelled from ``labels``, the span events in pre-order, then a name
    event per thread.  Threads are nodes, numbered in first-appearance
    order."""
    # The intern tables as JSON strings: low-cardinality, and locals of
    # this export.
    nodes = [_escape(node) for node in columns.nodes]
    names = [_escape(name) for name in columns.names]
    packet, device, hop, wire = (_CHROME_EVENT[kind] for kind in (PACKET, DEVICE, HOP, WIRE))
    slot0, slot1, slot2 = columns.slots
    # For 0 <= ns < _EXACT_NS, ``repr(ns / 1000.0)`` -- what the
    # canonical encoder emits -- is ``str(ns // 1000) + fractions[ns %
    # 1000]``: only the nearest multiple of 0.001 rounds to that double,
    # and its shortest repr spells exactly those digits.
    fractions = [repr(r / 1000)[1:] for r in range(1000)]

    def micros(values, exact: bool):
        """``values`` (ns) as two parallel streams whose ``%s%s`` is
        ``repr(value / 1000.0)``: integer microseconds and the fraction's
        digits, or (not ``exact``) the float's ``repr`` and nothing."""
        if exact:
            return (
                map(floordiv, values, repeat(1000)),
                map(fractions.__getitem__, map(mod, values, repeat(1000))),
            )
        return map(repr, map(truediv, values, repeat(1000.0))), repeat("")

    def rows(low: int, high: int, pid: int, labels: Iterator[str], out: List[str]) -> int:
        append = out.append
        starts, ends = columns.start[low:high], columns.end[low:high]
        durs = list(map(sub, ends, starts))
        # Every start >= 0, every duration >= 0 and every end < 10**15
        # put both in the exact range (skew-aligned starts can be < 0).
        exact = min(starts) >= 0 and min(durs) >= 0 and max(ends) < _EXACT_NS
        ts_int, ts_frac = micros(starts, exact)
        dur_int, dur_frac = micros(durs, exact)
        tids: Dict[int, int] = {}
        pid -= 1
        for kind, up, name, node, s0, s1, s2, ts, tsf, dur, durf in zip(
            columns.kind[low:high],
            columns.up[low:high],
            columns.name[low:high],
            columns.node[low:high],
            slot0[low:high],
            slot1[low:high],
            slot2[low:high],
            ts_int,
            ts_frac,
            dur_int,
            dur_frac,
        ):
            if not up:  # a root: close the previous track, open the next
                for thread, tid in tids.items():
                    append(_THREAD_NAME % (nodes[thread], pid, tid))
                tids = {}
                pid += 1
                append(_PROCESS_NAME % (_escape(next(labels)), pid))
            tid = tids.get(node)
            if tid is None:
                tid = tids[node] = len(tids)
            if kind == HOP:
                append(hop % (s0, dur, durf, names[name], pid, tid, ts, tsf))
            elif kind == DEVICE:
                append(
                    device % (s1, s0, dur, durf, '"device:' + nodes[node][1:], pid, tid, ts, tsf)
                )
            elif kind == WIRE:
                append(wire % (nodes[s0], nodes[s1], dur, durf, names[name], pid, tid, ts, tsf))
            elif kind == PACKET:
                append(packet % (s2, s1, s0, dur, durf, '"packet:0x%08x"' % s0, pid, tid, ts, tsf))
            elif kind == RPC:
                append(
                    _CHROME_EVENT[RPC]
                    % (s1, s2, s0, dur, durf, '"rpc:0x%08x"' % s0, pid, tid, ts, tsf)
                )
            else:  # the control plane's few rows
                named = CONTROL_NAME
                if kind != CONTROL:
                    named = f"{NAME_PREFIX[kind]}:{columns.nodes[node]}"
                records = (s0,) if kind == SHIP else ()
                append(
                    _CHROME_EVENT[kind] % (records + (dur, durf, _escape(named), pid, tid, ts, tsf))
                )
        for thread, tid in tids.items():
            append(_THREAD_NAME % (nodes[thread], pid, tid))
        return pid + 1

    return rows


_CHROME_HEAD = (
    '{"displayTimeUnit":"ns","otherData":{"generator":"repro.tracing",'
    '"orphan_records":%d,"trees":%d},"traceEvents":['
)
_CHROME_TAIL = "]}\n"


def _chrome_event_blocks(forest: SpanForest) -> Iterator[List[str]]:
    """The document's events in order: the control track's, then those
    of ``_CHUNK_TREES`` trees at a time."""
    root = forest.control_root
    if root is not None:
        events: List[str] = []
        end = root.index + root._cols.size[root.index]
        _chrome_serialiser(root._cols)(root.index, end, 0, iter((CONTROL_NAME,)), events)
        yield events
    columns = forest.trees.columns
    first, kind, trace = columns.tree_first, columns.kind, columns.tree_trace
    rows = _chrome_serialiser(columns)
    pid = 1
    for at in range(0, len(forest), _CHUNK_TREES):
        block = forest.trees[at : at + _CHUNK_TREES]
        labels = (
            ("request 0x%08x" if kind[first[tree]] == RPC else "packet 0x%08x") % trace[tree]
            for tree in block.order
        )
        events = []
        for low, high in block.row_ranges():
            pid = rows(low, high, pid, labels, events)
        yield events


def chrome_trace_chunks(forest: SpanForest) -> Iterator[str]:
    """The canonical Chrome trace-event document, a piece at a time
    (``"".join`` of the pieces is :func:`chrome_trace_json`)."""
    yield _CHROME_HEAD % (forest.orphan_records, len(forest))
    separator = ""
    for events in _chrome_event_blocks(forest):
        yield separator + ",".join(events)
        separator = ","
    yield _CHROME_TAIL


def chrome_trace_json(forest: SpanForest) -> str:
    """The forest as a canonical (byte-stable) Chrome trace-event
    document (Perfetto-loadable)."""
    # One join over the events themselves, not over the chunks: every
    # piece is a small object, so the document is the only block the
    # export puts on the C heap.  Megabyte chunks would be a second
    # copy there, in holes the next export fills or misses depending on
    # what else was allocated in between -- 13 MB of peak RSS either way
    # (docs/BENCHMARKS.md, PR 22).
    events: List[str] = []
    for block in _chrome_event_blocks(forest):
        events += block
    head = _CHROME_HEAD % (forest.orphan_records, len(forest))
    if not events:
        return head + _CHROME_TAIL
    events[0] = head + events[0]
    events[-1] += _CHROME_TAIL
    return ",".join(events)


def write_chrome_trace(forest: SpanForest, fp: IO[str]) -> None:
    """Write :func:`chrome_trace_json` to ``fp`` chunk by chunk."""
    for chunk in chrome_trace_chunks(forest):
        fp.write(chunk)


# -- OTLP-style JSON ----------------------------------------------------------

_OTLP_HEAD = (
    '{"resourceSpans":[{"resource":{"attributes":[{"key":"service.name","value":'
    '{"stringValue":"vnettracer-repro"}}]},"scopeSpans":[{"scope":{"name":'
    '"repro.tracing","version":"1"},"spans":['
)
_OTLP_SPAN = (
    '{"attributes":[%s],"endTimeUnixNano":"%d","kind":"SPAN_KIND_INTERNAL","name":%s,'
    '"parentSpanId":"%s","spanId":"%s","startTimeUnixNano":"%d","traceId":"%032x"}'
)
_SORTED_ATTRIBUTES = tuple(tuple(sorted(attributes)) for attributes in ATTRIBUTES)
_OTLP_STRING = '{"key":%s,"value":{"stringValue":%s}}'
_OTLP_INT = '{"key":%s,"value":{"intValue":"%d"}}'  # OTLP/JSON int64s are strings


def _otlp_tree(columns: SpanColumns, root: int, trace_id: int, out: List[str]) -> None:
    """One tree's spans, pre-order; a span's ID is (trace ID, pre-order
    index) and ``parentSpanId`` "" marks the root."""
    nodes, slots = columns.nodes, columns.slots
    span_id = f"{trace_id & 0xFFFFFFFF:08x}%08x"
    for row in range(root, root + columns.size[root]):
        kind = columns.kind[row]
        node = nodes[columns.node[row]]
        attributes = [_OTLP_STRING % ('"span.kind"', _escape(KIND_NAMES[kind]))]
        if node:
            attributes.append(_OTLP_STRING % ('"node"', _escape(node)))
        for key, slot, is_node, const in _SORTED_ATTRIBUTES[kind]:
            if slot is None:
                attributes.append(_OTLP_STRING % (_escape(key), _escape(const)))
            elif is_node:
                attributes.append(_OTLP_STRING % (_escape(key), _escape(nodes[slots[slot][row]])))
            else:
                attributes.append(_OTLP_INT % (_escape(key), slots[slot][row]))
        out.append(
            _OTLP_SPAN
            % (
                ",".join(attributes),
                columns.end[row],
                _escape(columns.name_of(row)),
                span_id % (row - columns.up[row] - root) if row > root else "",
                span_id % (row - root),
                columns.start[row],
                trace_id,
            )
        )


def otlp_json(forest: SpanForest) -> str:
    """The forest as a canonical (byte-stable) OTLP-style
    ``resourceSpans`` document."""
    spans: List[str] = []
    columns = forest.trees.columns
    for tree in forest.trees.order:
        _otlp_tree(columns, columns.tree_first[tree], columns.tree_trace[tree], spans)
    root = forest.control_root
    if root is not None:
        _otlp_tree(root._cols, root.index, CONTROL_TRACE_ID, spans)
    return _OTLP_HEAD + ",".join(spans) + "]}]}]}\n"


# -- terminal rendering -------------------------------------------------------


def _subtree_lines(columns: SpanColumns, root: int, lines: List[str]) -> None:
    depths: List[int] = []
    for row in range(root, root + columns.size[root]):
        depth = depths[row - columns.up[row] - root] + 1 if row > root else 0
        depths.append(depth)
        kind = columns.kind[row]
        detail = ""
        if kind == DEVICE:
            detail = f"  [clock offset {columns.slots[1][row]:+d} ns]"
        duration = format_ns(columns.end[row] - columns.start[row])
        lines.append(
            f"{'  ' * depth}{KIND_NAMES[kind]:7s} {columns.name_of(row):44s} "
            f"{duration:>10s}{detail}"
        )


def span_tree_text(tree: SpanTree) -> str:
    """One tree as indented text, durations humanized."""
    lines: List[str] = []
    _subtree_lines(tree._cols, tree._cols.tree_first[tree.index], lines)
    return "\n".join(lines)


def timeline_text(forest: SpanForest, limit: Optional[int] = 3) -> str:
    """A forest summary plus the first ``limit`` trees (None = all)."""
    lines = [
        f"span forest: {len(forest.trees)} trees, {forest.span_count()} spans, "
        f"{forest.orphan_records} orphan records"
    ]
    trees = forest.trees if limit is None else forest.trees[:limit]
    columns = trees.columns
    for tree in trees.order:
        lines.append("")
        _subtree_lines(columns, columns.tree_first[tree], lines)
    if limit is not None and len(forest.trees) > limit:
        lines.append("")
        lines.append(f"... {len(forest.trees) - limit} more trees")
    root = forest.control_root
    if root is not None:
        lines.append("")
        _subtree_lines(root._cols, root.index, lines)
    return "\n".join(lines)
