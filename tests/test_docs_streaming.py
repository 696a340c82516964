"""docs/STREAMING.md is a contract: the documented tables must match the code.

Same pattern as the SHARDING.md and OBSERVABILITY.md contract tests:

* the metrics table mirrors the seven ``STREAM_*`` specs in the contract;
* the ``WindowFrame`` field table mirrors ``_fields``, in order;
* the sketch bucket edges mirror ``LATENCY_SKETCH_BUCKETS_NS``;
* the config defaults and bench budgets match the code constants.
"""

import re
from pathlib import Path

from repro.obs import contract
from repro.streaming import (
    DEFAULT_TOP_K,
    DEFAULT_WINDOW_NS,
    LATENCY_SKETCH_BUCKETS_NS,
    WindowFrame,
)

REPO = Path(__file__).resolve().parent.parent
DOC_PATH = REPO / "docs" / "STREAMING.md"

STREAM_SPECS = (
    contract.STREAM_RECORDS,
    contract.STREAM_WINDOWS_CLOSED,
    contract.STREAM_LATE_OR_GAP,
    contract.STREAM_SKETCH_MERGES,
    contract.STREAM_TOPK_EVICTIONS,
    contract.STREAM_OPEN_WINDOWS,
    contract.STREAM_WATERMARK,
)


def _section(name: str) -> str:
    text = DOC_PATH.read_text()
    match = re.search(
        rf"<!-- {name}:begin -->\n(.*?)<!-- {name}:end -->", text, re.DOTALL
    )
    assert match, f"docs/STREAMING.md is missing the {name} marker block"
    return match.group(1)


def _table_rows(section: str):
    """Yield the cell lists of every data row in a markdown table."""
    for line in section.splitlines():
        line = line.strip()
        if not line.startswith("|") or set(line) <= {"|", "-", " "}:
            continue
        cells = [cell.strip() for cell in line.strip("|").split("|")]
        if cells and cells[0] in ("metric", "field", "constant", "budget",
                                  "bucket upper edges (ns)"):
            continue  # header row
        yield cells


def test_metrics_table_matches_contract():
    documented = {}
    for cells in _table_rows(_section("metrics")):
        name, kind, unit, labels, _meaning = cells
        documented[name.strip("`")] = (
            kind,
            unit,
            ()
            if labels == "—"
            else tuple(label.strip("`") for label in labels.split(",")),
        )
    actual = {
        spec.name: (spec.kind, spec.unit, spec.label_names) for spec in STREAM_SPECS
    }
    assert documented == actual
    # The contract's exhaustive list has no streaming metric the doc misses.
    assert {s.name for s in STREAM_SPECS} == {
        s.name for s in contract.ALL_METRICS if s.stage == contract.STAGE_STREAMING
    }


def test_window_frame_table_matches_fields_in_order():
    documented = [
        cells[0].strip("`") for cells in _table_rows(_section("window-frame"))
    ]
    assert tuple(documented) == WindowFrame._fields


def test_documented_sketch_bounds_match_code():
    (cells,) = _table_rows(_section("sketch-bounds"))
    documented = tuple(int(edge.replace("_", "")) for edge in cells[0].split(","))
    assert documented == LATENCY_SKETCH_BUCKETS_NS


def test_documented_config_defaults_match_code():
    documented = {
        cells[0].strip("`"): int(cells[1].replace("_", ""))
        for cells in _table_rows(_section("config"))
    }
    assert documented == {
        "DEFAULT_WINDOW_NS": DEFAULT_WINDOW_NS,
        "DEFAULT_TOP_K": DEFAULT_TOP_K,
    }


def test_documented_budgets_match_bench_constants():
    from tests import streaming_budget as budget

    documented = {
        cells[0].strip("`"): float(cells[1])
        for cells in _table_rows(_section("budgets"))
    }
    assert documented == {
        "STREAMING_OVERHEAD_BUDGET": budget.STREAMING_OVERHEAD_BUDGET,
        "DRAIN_BUDGET": budget.DRAIN_BUDGET,
    }
