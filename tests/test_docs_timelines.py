"""docs/TIMELINES.md is a contract: the documented tables must match the code.

Same marker-block pattern as the STREAMING.md / OBSERVABILITY.md
contract tests:

* the ``group-row`` table mirrors the tuple layout
  ``TraceDB.trace_group_rows`` actually emits;
* the ``forest-columns`` table mirrors the storage of a
  ``SpanColumns`` and the ``span-kinds`` table the naming and
  attribute-slot schema of every kind id;
* the ``assembler-counters`` table mirrors the counters a
  ``SpanAssembler`` exposes;
* the ``tracing-metrics`` table lists exactly the contract's
  ``tracing``-stage metrics.
"""

import re
from array import array
from pathlib import Path

from repro.core.records import TraceRecord
from repro.core.tracedb import TraceDB
from repro.obs import contract
from repro.tracing.reconstruct import SpanAssembler
from repro.tracing.spans import ATTRIBUTES, KIND_NAMES, Span, SpanColumns

REPO = Path(__file__).resolve().parent.parent
DOC_PATH = REPO / "docs" / "TIMELINES.md"


def _section(name: str) -> str:
    text = DOC_PATH.read_text()
    match = re.search(
        rf"<!-- {name}:begin -->\n(.*?)<!-- {name}:end -->", text, re.DOTALL
    )
    assert match, f"docs/TIMELINES.md is missing the {name} marker block"
    return match.group(1)


def _table_rows(section: str):
    """Yield the cell lists of every data row in a markdown table."""
    for line in section.splitlines():
        line = line.strip()
        if not line.startswith("|") or set(line) <= {"|", "-", " "}:
            continue
        cells = [cell.strip() for cell in line.strip("|").split("|")]
        if cells and cells[0] in ("position", "counter", "metric", "field", "column", "id"):
            continue  # header row
        yield cells


def test_group_row_table_matches_kernel_output():
    documented = [
        (int(cells[0]), cells[1].strip("`"))
        for cells in _table_rows(_section("group-row"))
    ]
    assert [field for _, field in documented] == [
        "timestamp_ns", "seq", "node", "label", "cpu", "packet_len",
    ]
    assert [position for position, _ in documented] == list(range(6))
    # Pin every documented position against a live kernel row.
    db = TraceDB()
    db.insert(
        "tx",
        "send",
        TraceRecord(
            trace_id=5, tracepoint_id=0, timestamp_ns=123, packet_len=77, cpu=3
        ),
    )
    ((trace_id, rows),) = db.trace_group_rows([5])
    assert trace_id == 5
    (row,) = rows
    assert row[0] == 123  # timestamp_ns
    assert row[1] == 0  # seq: first row of the trace
    assert row[2] == "tx"  # node
    assert row[3] == "send"  # label
    assert row[4] == 3  # cpu
    assert row[5] == 77  # packet_len


def test_forest_columns_table_matches_storage():
    documented = {
        cells[0].strip("`"): (cells[1], cells[2].replace("`", ""))
        for cells in _table_rows(_section("forest-columns"))
    }
    columns = SpanColumns()
    public = [name for name in SpanColumns.__slots__ if not name.startswith("_")]
    assert list(documented) == public  # every column, in declaration order
    for name, (per, kind) in documented.items():
        value = getattr(columns, name)
        scope = "tree" if name.startswith("tree_") else "span"
        assert per == ("forest" if name in ("names", "nodes") else scope), name
        if kind == "array('q')":
            assert isinstance(value, array) and value.typecode == "q", name
            assert per in ("span", "tree")
        elif kind == "3 × array('q')":
            assert len(value) == 3
            assert all(isinstance(slot, array) and slot.typecode == "q" for slot in value)
        else:
            assert kind == "list[str]" and value == [] and per == "forest"


def test_span_kinds_table_matches_schema():
    rows = list(_table_rows(_section("span-kinds")))
    assert [int(cells[0]) for cells in rows] == list(range(len(KIND_NAMES)))
    for kind, cells in enumerate(rows):
        assert cells[1].strip("`") == KIND_NAMES[kind]
        # Slot cells name the attribute read from that slot ("–": unused).
        documented = {
            slot: cell.split()[0].strip("`")
            for slot, cell in enumerate(cells[3:6])
            if cell != "–"
        }
        actual = {attr.slot: attr.key for attr in ATTRIBUTES[kind] if attr.slot is not None}
        assert documented == actual, KIND_NAMES[kind]
        for slot, cell in enumerate(cells[3:6]):
            is_node = any(attr.node for attr in ATTRIBUTES[kind] if attr.slot == slot)
            assert ("(node id)" in cell) == is_node
        # The name column, checked against a live row of that kind.
        columns = SpanColumns()
        leaf = KIND_NAMES[kind] in ("hop", "wire")
        row = columns.append(
            kind, "n1", 0, 1, slots=(0x2A, 0, 0), name="a -> b" if leaf else None
        )
        pattern = cells[2].strip("`")
        expected = (
            pattern.replace("names[name]", "a -> b")
            .replace("0x<slot 0>", "0x0000002a")
            .replace("<node>", "n1")
        )
        assert Span(columns, row).name == expected


def test_assembler_counters_table_matches_attributes():
    documented = [
        cells[0].strip("`") for cells in _table_rows(_section("assembler-counters"))
    ]
    assert documented == [
        "trees_built",
        "spans_built",
        "orphan_records",
        "forest_rebuilds",
        "forest_cache_hits",
        "groups_assembled",
    ]
    assembler = SpanAssembler(TraceDB())
    for name in documented:
        assert getattr(assembler, name) == 0  # exists, starts at zero


def test_tracing_metrics_table_matches_contract_stage():
    documented = {
        cells[0].strip("`") for cells in _table_rows(_section("tracing-metrics"))
    }
    actual = {
        spec.name
        for spec in contract.ALL_METRICS
        if spec.stage == contract.STAGE_TRACING
    }
    assert documented == actual
