"""The pin table: every byte-identity claim of the repo, in one file.

``tests/golden/pins.json`` maps what produces an output to what it
produced.  Four kinds of row:

* ``bench:<spec>`` -- the engine events and probe fires one call of a
  ``ScenarioSpec``'s ``pinned`` role ran (``events_executed``,
  ``probe_fires``), and the ``metrics`` dict it returned;
* ``digest:<spec>`` -- a ``ScenarioSpec``'s registry digest on its
  defaults;
* ``export:<case>:<fmt>`` -- sha256 and byte length of one span-forest
  export (Chrome JSON, OTLP JSON, text) of a scenario database, first
  recorded at the last commit that still carried the per-row reference
  assembler in ``src/``; a case run at several shard counts exports the
  same bytes at each;
* ``cli:<invocation>`` -- sha256 and byte length of what a command
  prints, or of the file its ``--out FILE`` writes.  Each invocation
  runs in its own interpreter (``stats --format json`` carries
  process-wide compile-cache counters), and every alias listed in the
  row must produce the same bytes.

Regenerate every row and diff against the committed table (exit 1 on
any drift), or rewrite the table after an intended change::

    PYTHONPATH=src python -m tests.pins
    PYTHONPATH=src python -m tests.pins --record

A mismatch names the row and the field, old -> new, and ends with
``schedule fields only`` when every moved field is listed in
:data:`SCHEDULE_FIELDS` (how many events ran, not what they produced),
``observable fields moved`` otherwise.
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import Dict, Iterator, List, NamedTuple, Optional, Sequence, Tuple

from repro.ebpf.vm import BPFProgram
from repro.experiments import SCENARIOS, get_scenario, pinned_names, scenario_names
from repro.sim.engine import Engine
from repro.tracing.export import chrome_trace_json, otlp_json, timeline_text
from repro.tracing.reconstruct import SpanAssembler

REPO = Path(__file__).resolve().parent.parent
TABLE_PATH = REPO / "tests" / "golden" / "pins.json"

# (row key prefix, field): the fields that count how a run was
# scheduled.  Every other field is observable.
SCHEDULE_FIELDS = (
    ("bench:", "events_executed"),
    ("bench:macro_fleet", "metrics.rounds"),
    ("bench:macro_fleet", "metrics.boundary_messages"),
)

# invocation -> aliases that must produce the same bytes.  ``repro`` is
# ``python -m repro.cli``; ``FILE`` is a fresh path for ``--out``, and
# then the pinned bytes are that file's instead of stdout's.
CLI = {
    "examples/quickstart.py": ("examples/quickstart.py --shards 4",),
    "repro stats --format json": (),
    "repro timeline --format chrome --out FILE": (
        "repro timeline --format chrome --shards 1 --out FILE",
        "repro timeline --format chrome --shards 4 --out FILE",
    ),
    "repro timeline --format otlp --out FILE": (
        "repro timeline --format otlp --shards 1 --out FILE",
        "repro timeline --format otlp --shards 4 --out FILE",
    ),
    "repro timeline --format text --out FILE": (
        "repro timeline --format text --shards 1 --out FILE",
        "repro timeline --format text --shards 4 --out FILE",
    ),
    "repro faults --seed 7 --packets 60 --format json": (),
    "repro watch --duration-ms 400 --deterministic": (),
    "repro rpc --requests 12 --deterministic": (
        "repro rpc --requests 12 --shards 4 --deterministic",
    ),
    "repro rpc --requests 12 --format chrome --out FILE": (
        "repro rpc --requests 12 --shards 4 --format chrome --out FILE",
    ),
}

FORMATS = ("chrome", "otlp", "text")


def fingerprint(data: bytes) -> Dict[str, object]:
    return {"sha256": hashlib.sha256(data).hexdigest(), "bytes": len(data)}


# ---------------------------------------------------------------------------
# Producers: each yields (row key, row).
# ---------------------------------------------------------------------------


def bench_rows(only: Optional[Sequence[str]] = None) -> Iterator[Tuple[str, dict]]:
    """One call of each ``pinned`` role, sorted by spec name, with the
    engine events and probe fires it ran counted process-wide.  ``only``
    keeps the named specs; naming one that is not registered with a
    ``pinned`` reference is an error before anything runs."""
    names = pinned_names()
    if only is not None:
        unknown = sorted(set(only).difference(names))
        if unknown:
            raise ValueError(
                f"unknown bench scenario(s) {', '.join(unknown)}; "
                f"registered: {', '.join(names)}"
            )
        names = [name for name in names if name in only]
    for name in names:
        run = SCENARIOS[name].pinned_fn()
        events_before = Engine.global_events_executed()
        fires_before = BPFProgram.global_runs()
        metrics = run()
        if not isinstance(metrics, dict):
            raise TypeError(
                f"scenario {name}: its pinned() must return a dict of metrics, "
                f"got {type(metrics).__name__}"
            )
        yield f"bench:{name}", {
            "events_executed": Engine.global_events_executed() - events_before,
            "probe_fires": BPFProgram.global_runs() - fires_before,
            "metrics": metrics,
        }


def digest_specs() -> List[str]:
    return [name for name in scenario_names() if get_scenario(name).digest is not None]


def digest_rows(names: Optional[Sequence[str]] = None) -> Iterator[Tuple[str, dict]]:
    for name in digest_specs() if names is None else names:
        yield f"digest:{name}", {"digest": get_scenario(name).digest_fn()()}


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


SPAN_SCENARIOS = {
    "quickstart": _quickstart,
    "ovs_case_iii": _ovs_case_iii,
    "fault_case": _fault_case,
    "macro_fleet": _macro_fleet,
    "rpc_case": _rpc_case,
}

# The cases each scenario yields (per run, when it runs at several shard
# counts), so the rows can be listed without running anything.
SPAN_CASES = {
    "quickstart": ("quickstart/complete", "quickstart/partial", "quickstart/no-chain"),
    "ovs_case_iii": ("ovs_case_iii/complete",),
    "fault_case": (
        "fault_case/clean/complete",
        "fault_case/clean/partial",
        "fault_case/faulty/complete",
        "fault_case/faulty/partial",
    ),
    "macro_fleet": ("macro_fleet/complete",),
    "rpc_case": ("rpc_case/requests", "rpc_case/packets"),
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


def export_pins(case_name: str, texts: Dict[str, str]) -> Dict[str, dict]:
    return {f"export:{case_name}:{fmt}": fingerprint(text.encode()) for fmt, text in texts.items()}


def export_rows() -> Iterator[Tuple[str, dict]]:
    for scenario in SPAN_SCENARIOS.values():
        for case in scenario():
            yield from export_pins(case.name, exports(production_forest(case))).items()


def run_cli(invocation: str) -> bytes:
    """The bytes one invocation produces, in a fresh interpreter."""
    argv = invocation.split()
    if argv[0] == "repro":
        argv[:1] = ["-m", "repro.cli"]
    pythonpath = [str(REPO / "src"), *filter(None, [os.environ.get("PYTHONPATH")])]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(pythonpath)}
    with tempfile.TemporaryDirectory() as scratch:
        out = Path(scratch) / "out"
        command = [sys.executable, *(str(out) if arg == "FILE" else arg for arg in argv)]
        done = subprocess.run(command, cwd=REPO, env=env, capture_output=True)
        if done.returncode != 0:
            raise RuntimeError(
                f"{invocation}: exit {done.returncode}\n{done.stderr.decode()[-2000:]}"
            )
        return out.read_bytes() if "FILE" in argv else done.stdout


def cli_rows() -> Iterator[Tuple[str, dict]]:
    for invocation in CLI:
        pinned = fingerprint(run_cli(invocation))
        same = [alias for alias in CLI[invocation] if fingerprint(run_cli(alias)) == pinned]
        yield f"cli:{invocation}", {**pinned, "aliases": same}


def expected_keys() -> set:
    """Every row key some producer makes, without running any."""
    return (
        {f"bench:{name}" for name in pinned_names()}
        | {f"digest:{name}" for name in digest_specs()}
        | {
            f"export:{case}:{fmt}"
            for cases in SPAN_CASES.values()
            for case in cases
            for fmt in FORMATS
        }
        | {f"cli:{invocation}" for invocation in CLI}
    )


# ---------------------------------------------------------------------------
# The table and the diff.
# ---------------------------------------------------------------------------


def load() -> Dict[str, dict]:
    return json.loads(TABLE_PATH.read_text())


def dumps(table: Dict[str, dict]) -> str:
    return json.dumps(table, indent=1, sort_keys=True) + "\n"


def _fields(row: dict, prefix: str = "") -> Iterator[Tuple[str, object]]:
    for name, value in row.items():
        if isinstance(value, dict):
            yield from _fields(value, f"{prefix}{name}.")
        else:
            yield prefix + name, value


def diff(committed: Dict[str, dict], found: Dict[str, dict], complete: bool = False) -> List[tuple]:
    """``(row, field, old, new)`` for every found field that differs from
    its committed value; ``complete`` also lists committed rows nothing
    produced."""
    moved = []
    for key in sorted(found):
        if key not in committed:
            moved.append((key, "row", "absent", "new"))
            continue
        old, new = dict(_fields(committed[key])), dict(_fields(found[key]))
        for field in sorted(old.keys() | new.keys()):
            if old.get(field, "absent") != new.get(field, "absent"):
                moved.append((key, field, old.get(field, "absent"), new.get(field, "absent")))
    if complete:
        gone = sorted(committed.keys() - found.keys())
        moved += [(key, "row", "committed", "no producer") for key in gone]
    return moved


def is_schedule(key: str, field: str) -> bool:
    return any(key.startswith(prefix) and field == name for prefix, name in SCHEDULE_FIELDS)


def report(moved: List[tuple]) -> str:
    lines = [f"{key}  {field}: {old!r} -> {new!r}" for key, field, old, new in moved]
    schedule = all(is_schedule(key, field) for key, field, _, _ in moved)
    lines.append(
        f"{len(moved)} field(s) moved in {len({key for key, *_ in moved})} row(s): "
        + ("schedule fields only" if schedule else "observable fields moved")
    )
    return "\n".join(lines)


def assert_rows(found: Dict[str, dict], committed: Optional[Dict[str, dict]] = None) -> None:
    """Fail, with the mismatch report, unless every found row equals its
    committed one."""
    moved = diff(load() if committed is None else committed, found)
    if moved:
        raise AssertionError(report(moved))


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m tests.pins",
        description="Regenerate every pinned output and diff it against tests/golden/pins.json.",
    )
    parser.add_argument("--record", action="store_true", help="rewrite the table instead")
    args = parser.parse_args(argv)
    found: Dict[str, dict] = {}
    for key, row in itertools.chain(bench_rows(), digest_rows(), export_rows(), cli_rows()):
        if key not in found:
            print(key, file=sys.stderr, flush=True)
        elif found[key] != row:
            raise AssertionError(f"{key}: the shard counts export different bytes")
        found[key] = row
    table = TABLE_PATH.relative_to(REPO)
    if args.record:
        split = [
            key
            for key, row in found.items()
            if key.startswith("cli:") and row["aliases"] != list(CLI[key[4:]])
        ]
        if split:
            print(f"not recorded: an alias printed other bytes in {split}", file=sys.stderr)
            return 1
        TABLE_PATH.write_text(dumps(found))
        print(f"recorded {len(found)} rows -> {table}")
        return 0
    moved = diff(load(), found, complete=True)
    if moved:
        print(report(moved))
        return 1
    print(f"{len(found)} rows match {table}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
