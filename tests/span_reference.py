"""The per-row span reference: the oracle the differential tests use.

A deliberately plain re-statement of the reconstruction algorithm
(``repro.tracing.reconstruct``) and of the three exporters: one
``db.rows_for_trace`` call per trace, one nested ``dict`` per span,
documents built as dicts and rendered with ``json.dumps``.  It shares no
code with the columnar assembler or the streaming serialisers, so a bug
in either cannot hide in both.  Works on anything with the row-store
query surface (``trace_ids`` / ``rows_for_trace`` / ``clock_skew`` /
``record_count_for_trace`` / ``complete_traces``), which includes the
``LegacyTraceDB`` of ``tests/test_tracedb_columnar.py``.

Shapes::

    span   = {"name", "kind", "node", "start_ns", "end_ns",
              "attributes": {...}, "children": [span, ...]}
    tree   = {"trace_id", "root": span, "record_count", "duplicate_records"}
    forest = {"trees": [tree, ...], "orphan_records", "control_root": span|None}
"""

from __future__ import annotations

import json
from typing import Dict, Iterable, Iterator, List, Mapping, Optional, Sequence, Tuple

from repro.analysis.reports import format_ns

CONTROL_TRACE_ID = 1 << 32
_CANONICAL = {"sort_keys": True, "separators": (",", ":")}


def _span(name, kind, node, start_ns, end_ns, attributes=None) -> Dict:
    assert end_ns >= start_ns, (name, start_ns, end_ns)
    return {
        "name": name,
        "kind": kind,
        "node": node,
        "start_ns": start_ns,
        "end_ns": end_ns,
        "attributes": dict(attributes or {}),
        "children": [],
    }


def walk(span: Dict) -> Iterator[Dict]:
    """Pre-order traversal, self first."""
    stack = [span]
    while stack:
        span = stack.pop()
        yield span
        stack.extend(reversed(span["children"]))


def walk_with_parents(span: Dict) -> Iterator[Tuple[Dict, Optional[int], int]]:
    """Pre-order ``(span, pre-order index of its parent, depth)``."""
    stack = [(span, None, 0)]
    index = 0
    while stack:
        span, parent, depth = stack.pop()
        yield span, parent, depth
        stack.extend((child, index, depth + 1) for child in reversed(span["children"]))
        index += 1


# -- reconstruction -----------------------------------------------------------


def reference_tree(db, trace_id: int, chain: Optional[Sequence[str]] = None) -> Optional[Dict]:
    """One packet's span tree, or ``None`` when it cannot form a span
    (zero or one usable record).  ``chain`` restricts the tracepoints
    considered (records at other labels are ignored, not orphaned)."""
    rows = db.rows_for_trace(trace_id)
    if chain is not None:
        rows = [row for row in rows if row.label in set(chain)]
    kept, seen = [], set()
    for row in rows:  # earliest row per tracepoint label
        if row.label not in seen:
            seen.add(row.label)
            kept.append(row)
    duplicates = len(rows) - len(kept)
    rows = kept
    if len(rows) < 2:
        return None

    root = _span(
        f"packet:0x{trace_id:08x}", "packet", rows[0].node,
        rows[0].timestamp_ns, rows[-1].timestamp_ns,
        {"trace_id": trace_id, "records": len(rows), "packet_len": rows[0].packet_len},
    )  # fmt: skip
    runs: List[List] = [[rows[0]]]  # contiguous same-node runs
    for row in rows[1:]:
        if row.node == runs[-1][-1].node:
            runs[-1].append(row)
        else:
            runs.append([row])
    for index, run in enumerate(runs):
        if index > 0:
            previous = runs[index - 1][-1]
            root["children"].append(
                _span(
                    f"{previous.label} -> {run[0].label}", "wire",
                    f"{previous.node} -> {run[0].node}",
                    previous.timestamp_ns, run[0].timestamp_ns,
                    {"from_node": previous.node, "to_node": run[0].node},
                )  # fmt: skip
            )
        device = _span(
            f"device:{run[0].node}", "device", run[0].node,
            run[0].timestamp_ns, run[-1].timestamp_ns,
            {"records": len(run), "clock_offset_ns": db.clock_skew(run[0].node)},
        )  # fmt: skip
        root["children"].append(device)
        for row_a, row_b in zip(run, run[1:]):
            device["children"].append(
                _span(
                    f"{row_a.label} -> {row_b.label}", "hop", row_a.node,
                    row_a.timestamp_ns, row_b.timestamp_ns, {"cpu": row_a.cpu},
                )  # fmt: skip
            )
    return {
        "trace_id": trace_id,
        "root": root,
        "record_count": len(rows) + duplicates,
        "duplicate_records": duplicates,
    }


def reference_forest(
    db,
    trace_ids: Optional[Iterable[int]] = None,
    chain: Optional[Sequence[str]] = None,
    complete_only: bool = False,
    control_root: Optional[Dict] = None,
) -> Dict:
    """One :func:`reference_tree` per trace ID, with orphan accounting."""
    if trace_ids is None:
        trace_ids = db.trace_ids()
    complete = None
    if complete_only and chain is not None:
        complete = set(db.complete_traces(chain))
    forest = {"trees": [], "orphan_records": 0, "control_root": control_root}
    for trace_id in trace_ids:
        tree = None
        if complete is None or trace_id in complete:
            tree = reference_tree(db, trace_id, chain=chain)
        if tree is None:
            forest["orphan_records"] += db.record_count_for_trace(trace_id)
            continue
        forest["trees"].append(tree)
        forest["orphan_records"] += tree["duplicate_records"]
    return forest


def reference_rpc_forest(
    db, links: Mapping[int, Tuple[int, ...]], chain: Optional[Sequence[str]] = None
) -> Dict:
    """Cross-service forest: an ``rpc`` wrapper per observed trace,
    holding its packet tree (if it formed one) and its child RPCs.  The
    first parent of a link places the child; a link cycle is broken at
    its first-seen member, which loses its parent link and becomes a
    root.  Recursive on purpose (small inputs only)."""
    observed = list(db.trace_ids())
    known = set(observed)
    parent_of = {child: parents[0] for child, parents in links.items() if parents}

    def cycle_above(trace_id: int) -> List[int]:
        """The cycle reached by following observed parents, or []."""
        trail: List[int] = []
        while trace_id in known and parent_of.get(trace_id) in known:
            if trace_id in trail:
                return trail[trail.index(trace_id) :]
            trail.append(trace_id)
            trace_id = parent_of[trace_id]
        return []

    for trace_id in observed:
        cycle = cycle_above(trace_id)
        if cycle:
            del parent_of[min(cycle, key=observed.index)]

    def first_ts(trace_id: int) -> int:
        return db.rows_for_trace(trace_id)[0].timestamp_ns

    def assemble(trace_id: int) -> Tuple[Dict, int]:
        rows = db.rows_for_trace(trace_id)
        kids = sorted(
            (kid for kid in observed if parent_of.get(kid) == trace_id),
            key=lambda kid: (first_ts(kid), kid),
        )
        built = [assemble(kid) for kid in kids]
        bounds = [row.timestamp_ns for row in rows]
        for child, _ in built:
            bounds += [child["start_ns"], child["end_ns"]]
        span = _span(
            f"rpc:0x{trace_id:08x}", "rpc", rows[0].node, min(bounds), max(bounds),
            {
                "trace_id": trace_id,
                "parent_id": parent_of.get(trace_id, 0),
                "rpc_children": len(built),
            },
        )  # fmt: skip
        packet_tree = reference_tree(db, trace_id, chain=chain)
        if packet_tree is not None:
            span["children"].append(packet_tree["root"])
        span["children"].extend(child for child, _ in built)
        return span, len(rows) + sum(records for _, records in built)

    forest = {"trees": [], "orphan_records": 0, "control_root": None}
    for trace_id in observed:
        if parent_of.get(trace_id) in known:
            continue  # placed under its parent's tree
        span, records = assemble(trace_id)
        forest["trees"].append(
            {"trace_id": trace_id, "root": span, "record_count": records, "duplicate_records": 0}
        )
    return forest


def reference_control_root(deploy_spans, ship_spans) -> Optional[Dict]:
    children = [
        _span(f"deploy:{node}", "control", node, start_ns, end_ns,
              {"phase": "dispatcher -> agent"})
        for start_ns, end_ns, node in deploy_spans
    ]  # fmt: skip
    children += [
        _span(f"ship:{node}", "control", node, start_ns, end_ns,
              {"phase": "agent -> collector", "records": records})
        for start_ns, end_ns, node, records in ship_spans
    ]  # fmt: skip
    if not children:
        return None
    children.sort(key=lambda span: (span["start_ns"], span["name"]))
    root = _span(
        "control-plane", "control", "master",
        min(span["start_ns"] for span in children), max(span["end_ns"] for span in children),
    )  # fmt: skip
    root["children"] = children
    return root


def span_count(forest: Dict) -> int:
    return sum(1 for tree in forest["trees"] for _ in walk(tree["root"]))


# -- exporters ----------------------------------------------------------------


def _chrome_process(root: Dict, pid: int, label: str, events: List[Dict]) -> None:
    events.append(
        {"name": "process_name", "ph": "M", "pid": pid, "tid": 0, "args": {"name": label}}
    )
    tids: Dict[str, int] = {}
    for span in walk(root):
        events.append(
            {
                "name": span["name"],
                "cat": span["kind"],
                "ph": "X",
                "pid": pid,
                "tid": tids.setdefault(span["node"], len(tids)),
                "ts": span["start_ns"] / 1000.0,
                "dur": (span["end_ns"] - span["start_ns"]) / 1000.0,
                "args": span["attributes"],
            }
        )
    for node, tid in tids.items():
        events.append(
            {"name": "thread_name", "ph": "M", "pid": pid, "tid": tid, "args": {"name": node}}
        )


def reference_chrome_json(forest: Dict) -> str:
    events: List[Dict] = []
    if forest["control_root"] is not None:
        _chrome_process(forest["control_root"], 0, "control-plane", events)
    for index, tree in enumerate(forest["trees"], start=1):
        noun = "request" if tree["root"]["kind"] == "rpc" else "packet"
        _chrome_process(tree["root"], index, f"{noun} 0x{tree['trace_id']:08x}", events)
    document = {
        "displayTimeUnit": "ns",
        "otherData": {
            "generator": "repro.tracing",
            "trees": len(forest["trees"]),
            "orphan_records": forest["orphan_records"],
        },
        "traceEvents": events,
    }
    return json.dumps(document, **_CANONICAL) + "\n"


def _otlp_spans(root: Dict, trace_id: int, out: List[Dict]) -> None:
    def span_id(index: int) -> str:
        return f"{trace_id & 0xFFFFFFFF:08x}{index:08x}"

    for index, (span, parent, _) in enumerate(walk_with_parents(root)):
        attributes = [{"key": "span.kind", "value": {"stringValue": span["kind"]}}]
        if span["node"]:
            attributes.append({"key": "node", "value": {"stringValue": span["node"]}})
        for key in sorted(span["attributes"]):
            value = span["attributes"][key]
            if isinstance(value, int):
                encoded = {"intValue": str(value)}  # OTLP/JSON int64s are strings
            else:
                encoded = {"stringValue": str(value)}
            attributes.append({"key": key, "value": encoded})
        out.append(
            {
                "traceId": f"{trace_id:032x}",
                "spanId": span_id(index),
                "parentSpanId": "" if parent is None else span_id(parent),
                "name": span["name"],
                "kind": "SPAN_KIND_INTERNAL",
                "startTimeUnixNano": str(span["start_ns"]),
                "endTimeUnixNano": str(span["end_ns"]),
                "attributes": attributes,
            }
        )


def reference_otlp_json(forest: Dict) -> str:
    spans: List[Dict] = []
    for tree in forest["trees"]:
        _otlp_spans(tree["root"], tree["trace_id"], spans)
    if forest["control_root"] is not None:
        _otlp_spans(forest["control_root"], CONTROL_TRACE_ID, spans)
    document = {
        "resourceSpans": [
            {
                "resource": {
                    "attributes": [
                        {"key": "service.name", "value": {"stringValue": "vnettracer-repro"}}
                    ]
                },
                "scopeSpans": [
                    {"scope": {"name": "repro.tracing", "version": "1"}, "spans": spans}
                ],
            }
        ]
    }
    return json.dumps(document, **_CANONICAL) + "\n"


def _tree_text(root: Dict) -> str:
    lines = []
    for span, _, depth in walk_with_parents(root):
        detail = ""
        if span["kind"] == "device":
            detail = f"  [clock offset {span['attributes']['clock_offset_ns']:+d} ns]"
        duration = format_ns(span["end_ns"] - span["start_ns"])
        lines.append(
            f"{'  ' * depth}{span['kind']:7s} {span['name']:44s} {duration:>10s}{detail}"
        )
    return "\n".join(lines)


def reference_text(forest: Dict, limit: Optional[int] = 3) -> str:
    trees = forest["trees"]
    lines = [
        f"span forest: {len(trees)} trees, {span_count(forest)} spans, "
        f"{forest['orphan_records']} orphan records"
    ]
    for tree in trees if limit is None else trees[:limit]:
        lines += ["", _tree_text(tree["root"])]
    if limit is not None and len(trees) > limit:
        lines += ["", f"... {len(trees) - limit} more trees"]
    if forest["control_root"] is not None:
        lines += ["", _tree_text(forest["control_root"])]
    return "\n".join(lines)


def reference_exports(forest: Dict) -> Dict[str, str]:
    return {
        "chrome": reference_chrome_json(forest),
        "otlp": reference_otlp_json(forest),
        "text": reference_text(forest, limit=None),
    }
