"""Golden span exports for the scenario differentials.

Every end-to-end scenario the repo ships is reconstructed into a span
forest and exported as Chrome JSON, OTLP JSON and text; the sha256 and
byte length of each export are pinned in ``tests/golden/span_exports.json``.
The file was recorded at the last commit that still carried the per-row
``build_span_tree`` / ``legacy_forest`` / ``build_rpc_forest`` reference in
``src/`` (whose exports the differential suite proved byte-identical to
the production path), so a serialiser or assembler change that moves one
byte of any scenario export fails against it.

A case that runs at several shard counts shares one golden: the shard
count never changes a byte.

Re-record (only when an export change is intended)::

    PYTHONPATH=src python -m tests.span_goldens
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path
from typing import Dict, Iterator, NamedTuple, Optional, Sequence

from repro.tracing.export import chrome_trace_json, otlp_json, timeline_text
from repro.tracing.reconstruct import SpanAssembler

GOLDEN_PATH = Path(__file__).resolve().parent / "golden" / "span_exports.json"


class Case(NamedTuple):
    """One forest request on one scenario database."""

    name: str
    db: object
    chain: Optional[Sequence[str]]
    complete_only: bool = True
    links: Optional[dict] = None  # set: an RPC forest, not a packet forest


def _quickstart() -> Iterator[Case]:
    from repro.obs.scenario import QUICKSTART_CHAIN, run_quickstart_scenario

    chain = list(QUICKSTART_CHAIN)
    for shards in (1, 4):
        result = run_quickstart_scenario(seed=42, duration_ns=250_000_000, shards=shards)
        db = result.tracer.db
        assert db.rows_inserted > 0
        yield Case("quickstart/complete", db, chain)
        yield Case("quickstart/partial", db, chain, complete_only=False)
        yield Case("quickstart/no-chain", db, None, complete_only=False)


def _ovs_case_iii() -> Iterator[Case]:
    from repro.experiments.ovs_case import run_case

    result = run_case("III", duration_ns=150_000_000, trace=True)
    assert result.tracer is not None and result.chain is not None
    assert result.tracer.db.rows_inserted > 0
    yield Case("ovs_case_iii/complete", result.tracer.db, result.chain)


def _fault_case() -> Iterator[Case]:
    from repro.experiments.fault_case import default_fault_plan, run_fault_case

    for leg, plan in (("clean", None), ("faulty", default_fault_plan())):
        result = run_fault_case(seed=7, plan=plan, packets=80)
        assert result.db is not None and result.db.rows_inserted > 0
        yield Case(f"fault_case/{leg}/complete", result.db, ["send", "recv"])
        yield Case(f"fault_case/{leg}/partial", result.db, ["send", "recv"], complete_only=False)


def _macro_fleet() -> Iterator[Case]:
    from repro.experiments.macro_fleet import FLEET_CHAIN, FleetConfig, run_macro_fleet

    result = run_macro_fleet(FleetConfig(), shards=1)
    assert result.db.rows_inserted > 0
    yield Case("macro_fleet/complete", result.db, list(FLEET_CHAIN))


def _rpc_case() -> Iterator[Case]:
    from repro.experiments.rpc_case import run_rpc_case

    for shards in (1, 4):
        result = run_rpc_case(seed=21, requests=12, shards=shards)
        db = result.tracer.db
        yield Case("rpc_case/requests", db, None, links=result.deployment.links)
        yield Case("rpc_case/packets", db, None, complete_only=False)


SCENARIOS = {
    "quickstart": _quickstart,
    "ovs_case_iii": _ovs_case_iii,
    "fault_case": _fault_case,
    "macro_fleet": _macro_fleet,
    "rpc_case": _rpc_case,
}


def production_forest(case: Case):
    assembler = SpanAssembler(case.db)
    if case.links is not None:
        return assembler.rpc_forest(case.links, chain=case.chain)
    return assembler.forest(chain=case.chain, complete_only=case.complete_only)


def exports(forest) -> Dict[str, str]:
    return {
        "chrome": chrome_trace_json(forest),
        "otlp": otlp_json(forest),
        "text": timeline_text(forest, limit=None),
    }


def digest(text: str) -> Dict[str, object]:
    data = text.encode()
    return {"sha256": hashlib.sha256(data).hexdigest(), "bytes": len(data)}


def load_goldens() -> Dict[str, Dict[str, Dict[str, object]]]:
    return json.loads(GOLDEN_PATH.read_text())


def assert_matches_golden(case: Case, texts: Dict[str, str]) -> None:
    golden = load_goldens()[case.name]
    for fmt, text in texts.items():
        assert digest(text) == golden[fmt], f"{case.name} {fmt} export moved"


def record() -> None:
    goldens: Dict[str, Dict[str, Dict[str, object]]] = {}
    for scenario in SCENARIOS.values():
        for case in scenario():
            found = {fmt: digest(text) for fmt, text in exports(production_forest(case)).items()}
            assert goldens.setdefault(case.name, found) == found, case.name
    GOLDEN_PATH.parent.mkdir(exist_ok=True)
    GOLDEN_PATH.write_text(json.dumps(goldens, indent=1, sort_keys=True) + "\n")
    print(f"recorded {len(goldens)} cases -> {GOLDEN_PATH}")


if __name__ == "__main__":
    record()
