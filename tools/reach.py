#!/usr/bin/env python3
"""Which functions under ``src/repro`` does any entry point call?

Runs one table of non-test entry points (``drives`` below: every
scenario's pinned role, every registry runner and digest, every CLI verb
and format, the examples, the five ``pipeline_bench`` workloads at a small
scale) under a hook that notes each function entered, and compares that
with an ``ast`` index of every ``def`` in the package.  A function no
entry reaches must be listed in ``tools/reach_keep.txt``, one line each::

    repro.ebpf.maps:HashMap.clone — reference: shadow mode

with a reason from exactly four classes:

``safety``     rejects outside input, or an error path a call can take
``reference``  an oracle a test compares reached code against
``mode``       reachable only in a documented mode this tool cannot
               profile in-process (worker processes, fault plans)
``doc``        named in a README / docs snippet users are told to use

Usage::

    python tools/reach.py            # the table, and what is kept
    python tools/reach.py --check    # exit 1 on an unreached function that
                                     # is not listed, on a keep line that
                                     # is reached or names nothing, and on
                                     # a drive that failed
    python tools/reach.py --options  # static: every field of the config
                                     # dataclasses is set by keyword
                                     # outside its module and tests/, or
                                     # listed (``module:Class.field``)
    python tools/reach.py --why repro.net.pcap:PcapReader.__iter__
                                     # which entries reach a function
    python tools/reach.py --root DIR # audit another checkout (a
                                     # ``git archive`` of the parent) with
                                     # this tool and this keep list

The full table takes about three minutes on Python >= 3.12, where
``sys.monitoring`` switches each code object off after its first entry,
and about nine under ``sys.settrace`` on older interpreters;
``--options`` runs nothing.  Stdlib only: there is no ``coverage``
package on the hosts this runs on.
"""

from __future__ import annotations

import argparse
import ast
import contextlib
import os
import runpy
import sys
import tempfile
import time
from pathlib import Path
from typing import Callable, Dict, Iterable, Iterator, List, NamedTuple, Set, Tuple

REASONS = ("safety", "reference", "mode", "doc")
KEEP_FILE = Path(__file__).resolve().parent / "reach_keep.txt"
# The dataclasses whose every field is an option somebody can set.
OPTION_CLASSES = ("GlobalConfig", "StreamingConfig", "ActionSpec", "TracepointSpec", "FleetConfig")

Drive = Tuple[str, Callable[[], object]]


class Function(NamedTuple):
    """One ``def``: where it is and what ``__qualname__`` it gets."""

    name: str  # "module:qualname", the keep-list spelling
    path: str
    first_line: int  # ``co_firstlineno``: the first decorator, if any
    end_line: int


def _module_name(file: Path, src: Path) -> str:
    parts = file.relative_to(src).with_suffix("").parts
    return ".".join(parts[:-1] if parts[-1] == "__init__" else parts)


def index_functions(src: Path, package: str) -> Dict[Tuple[str, int], Function]:
    """Every ``def`` under ``src/package``, keyed the way a code object
    identifies itself: ``(co_filename, co_firstlineno)``.  ``__repr__``
    is left out: its caller is the person reading a failed assertion or
    a debugger prompt, which no entry point can stand in for."""
    functions: Dict[Tuple[str, int], Function] = {}
    for file in sorted((src / package).rglob("*.py")):
        module, path = _module_name(file, src), str(file)
        pending: List[Tuple[ast.AST, Tuple[str, ...]]] = [(ast.parse(file.read_text(), path), ())]
        while pending:
            node, scope = pending.pop()
            for child in ast.iter_child_nodes(node):
                if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    first = min([child.lineno] + [d.lineno for d in child.decorator_list])
                    if child.name != "__repr__":
                        qualname = ".".join(scope + (child.name,))
                        functions[path, first] = Function(
                            f"{module}:{qualname}", path, first, child.end_lineno
                        )
                    pending.append((child, scope + (child.name, "<locals>")))
                elif isinstance(child, ast.ClassDef):
                    pending.append((child, scope + (child.name,)))
                else:
                    pending.append((child, scope))
    return functions


@contextlib.contextmanager
def record_calls(seen: set) -> Iterator[None]:
    """Add the code object of every Python frame entered inside the
    block to ``seen``."""
    monitoring = getattr(sys, "monitoring", None)
    if monitoring is None:
        # Python < 3.12: the global trace function sees only frame
        # entries; returning None keeps line tracing off inside them.
        note = seen.add

        def hook(frame, _event, _arg):
            note(frame.f_code)

        sys.settrace(hook)
        try:
            yield
        finally:
            sys.settrace(None)
        return

    # Python >= 3.12: a code object reports its first entry and is then
    # switched off until the next block, so the drives run at full speed.
    def started(code, _offset):
        seen.add(code)
        return monitoring.DISABLE

    tool = monitoring.COVERAGE_ID
    monitoring.use_tool_id(tool, "reach")
    monitoring.register_callback(tool, monitoring.events.PY_START, started)
    monitoring.set_events(tool, monitoring.events.PY_START)
    monitoring.restart_events()
    try:
        yield
    finally:
        monitoring.set_events(tool, 0)
        monitoring.register_callback(tool, monitoring.events.PY_START, None)
        monitoring.free_tool_id(tool)


def run_drives(
    drives: Iterable[Drive],
    functions: Dict[Tuple[str, int], Function],
    progress: Callable[[str], None] = lambda line: None,
) -> Tuple[Dict[str, Set[str]], List[str]]:
    """Call every drive under the hook.  Returns function name -> the
    drives that entered it, and one problem line per drive that raised
    or exited non-zero: a broken entry point under-reports reach, so it
    fails the check like an unlisted function does."""
    reached: Dict[str, Set[str]] = {}
    problems: List[str] = []
    seen: set = set()
    for name, call in drives:
        started = time.perf_counter()
        try:
            with record_calls(seen):
                call()
        except (Exception, SystemExit) as error:
            if not isinstance(error, SystemExit) or error.code not in (None, 0):
                problems.append(f"drive failed: {name}: {type(error).__name__}: {error}")
        before = len(reached)
        for code in seen:
            function = functions.get((code.co_filename, code.co_firstlineno))
            if function is not None:
                reached.setdefault(function.name, set()).add(name)
        seen.clear()
        progress(f"{name:44s} {time.perf_counter() - started:6.1f} s  +{len(reached) - before}")
    return reached, problems


def load_keep(path: Path) -> Tuple[Dict[str, str], List[str]]:
    """``name -> reason`` for every well-formed keep line, and one
    problem string for every other non-blank, non-``#`` line."""
    keep: Dict[str, str] = {}
    problems: List[str] = []
    for number, line in enumerate(path.read_text().splitlines(), 1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        name, dash, reason = line.partition(" — ")
        if not dash or ":" not in name:
            problems.append(f"{path.name}:{number}: not 'module:qualname — reason'")
        elif reason.split(":")[0].strip() not in REASONS:
            problems.append(
                f"{path.name}:{number}: reason of {name} must start with one of "
                f"{', '.join(REASONS)}"
            )
        elif name in keep:
            problems.append(f"{path.name}:{number}: {name} is listed twice")
        else:
            keep[name] = reason
    return keep, problems


def check_functions(
    functions: Iterable[Function], reached: Dict[str, Set[str]], keep: Dict[str, str],
    options: Iterable[str] = (),
) -> List[str]:
    """What ``--check`` fails on.  ``options`` are the ``--options``
    keys, which share the keep file and are not this check's to judge."""
    names = {function.name for function in functions}
    problems = [
        f"unreached and not listed: {name}" for name in sorted(names - set(reached) - set(keep))
    ]
    for name in sorted(keep):
        if name in reached:
            problems.append(f"stale keep line, reached by {min(reached[name])}: {name}")
        elif name not in names and name not in options:
            problems.append(f"stale keep line, names nothing that exists: {name}")
    return problems


def reach_table(functions: Iterable[Function], reached: Dict[str, Set[str]],
                keep: Dict[str, str]) -> List[str]:
    """``module, functions, reached, kept, lines`` -- ``lines`` being
    the source lines of the functions nothing reached -- and a total."""
    rows: Dict[str, List[int]] = {}
    unreached_lines: Dict[str, Set[Tuple[str, int]]] = {}
    for function in functions:
        module = function.name.partition(":")[0]
        row = rows.setdefault(module, [0, 0, 0])
        row[0] += 1
        if function.name in reached:
            row[1] += 1
            continue
        row[2] += function.name in keep
        # A set, so a nested def is not counted again inside its parent.
        unreached_lines.setdefault(module, set()).update(
            (function.path, line) for line in range(function.first_line, function.end_line + 1)
        )
    width = max(map(len, rows), default=6)
    lines = [f"{'module':{width}s} {'functions':>9s} {'reached':>8s} {'kept':>5s} {'lines':>6s}"]
    total = [0, 0, 0, 0]
    for module in sorted(rows):
        row = rows[module] + [len(unreached_lines.get(module, ()))]
        total = [a + b for a, b in zip(total, row)]
        lines.append(f"{module:{width}s} {row[0]:9d} {row[1]:8d} {row[2]:5d} {row[3]:6d}")
    lines.append(f"{'total':{width}s} {total[0]:9d} {total[1]:8d} {total[2]:5d} {total[3]:6d}")
    return lines


# -- the static option scan ---------------------------------------------------


def _python_files(root: Path) -> Iterator[Path]:
    for file in sorted(root.rglob("*.py")):
        parts = file.relative_to(root).parts
        if "tests" not in parts and not any(part.startswith(".") for part in parts):
            yield file


def check_options(root: Path, src: Path, keep: Dict[str, str],
                  classes: Iterable[str] = OPTION_CLASSES) -> Tuple[List[str], Set[str]]:
    """Problems, and every option key (``module:Class.field``).  A field
    counts as set when any call outside its own module and outside
    ``tests/`` passes a keyword of its name.  The callee is not matched,
    because users set fields through facades
    (``attach_streaming(window_ns=50)``); a facade handing its own
    parameter on (``window_ns=window_ns``) sets nothing."""
    keywords: Dict[str, Set[Path]] = {}
    fields: Dict[str, Path] = {}
    for file in _python_files(root):
        tree = ast.parse(file.read_text(), str(file))
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                for keyword in node.keywords:
                    forwarded = isinstance(keyword.value, ast.Name) and (
                        keyword.value.id == keyword.arg
                    )
                    if keyword.arg and not forwarded:
                        keywords.setdefault(keyword.arg, set()).add(file)
            elif isinstance(node, ast.ClassDef) and node.name in classes and src in file.parents:
                for statement in node.body:
                    if isinstance(statement, ast.AnnAssign):
                        key = f"{_module_name(file, src)}:{node.name}.{statement.target.id}"
                        fields[key] = file
    problems = []
    for key, home in sorted(fields.items()):
        is_set = bool(keywords.get(key.rpartition(".")[2], set()) - {home})
        if not is_set and key not in keep:
            problems.append(f"option nothing sets and not listed: {key}")
        elif is_set and key in keep:
            problems.append(f"stale keep line, option is set: {key}")
    missing = set(classes) - {key.partition(":")[2].partition(".")[0] for key in fields}
    problems.extend(f"option class not found under {src}: {name}" for name in sorted(missing))
    return problems, set(fields)


# -- the drive table ----------------------------------------------------------


def _cli(*argv: str) -> Callable[[], object]:
    def call():
        from repro.cli import main

        status = main(list(argv))
        if status:
            raise SystemExit(status)

    return call


def _example(path: Path, *argv: str) -> Callable[[], object]:
    def call():
        saved = sys.argv
        sys.argv = [str(path), *argv]
        try:
            runpy.run_path(str(path), run_name="__main__")
        finally:
            sys.argv = saved

    return call


def drives(root: Path, tmp: Path) -> Iterator[Drive]:
    """Every non-test entry point, cheapest arguments that still take
    each branch a user can select.  A generator on purpose: the registry
    rows are read from ``repro.experiments`` only after an earlier row
    imported it under the hook (its import-time calls count as reach)."""
    # CLI: every verb, every --format, every flag that selects code.
    yield "cli:list", _cli("list")
    yield "cli:list --verbose", _cli("list", "--verbose")
    yield "cli:run all", _cli("run", "all", "--duration-ms", "20")
    yield "cli:run fig7a --seed", _cli("run", "fig7a", "--seed", "3", "--duration-ms", "20")
    for fmt in ("table", "json", "prom", "series"):
        yield f"cli:stats {fmt}", _cli("stats", "--format", fmt, "--duration-ms", "200")
    for fmt in ("chrome", "otlp", "text"):
        yield f"cli:timeline {fmt}", _cli(
            "timeline", "--format", fmt, "--duration-ms", "200", "--out", str(tmp / f"t.{fmt}")
        )
    yield "cli:timeline --flow all --shards 0", _cli(
        "timeline", "--flow", "all", "--shards", "0", "--duration-ms", "200",
        "--out", str(tmp / "t.all"),
    )
    # The first packet of seed 42 (trace IDs are draws of the seeded RNG).
    yield "cli:timeline --trace-id --shards 4", _cli(
        "timeline", "--trace-id", "0xa97b5a48", "--shards", "4", "--duration-ms", "200",
        "--out", str(tmp / "t.4"),
    )
    for fmt in ("summary", "json"):
        yield f"cli:faults {fmt}", _cli("faults", "--packets", "60", "--format", fmt)
    for flags in (("--format", "table"), ("--format", "json"), ("--deterministic",)):
        yield f"cli:watch {flags[-1]}", _cli("watch", "--duration-ms", "400", *flags)
    for flags in (
        ("--format", "summary"), ("--format", "json"), ("--deterministic",),
        ("--format", "chrome", "--out", str(tmp / "rpc.chrome")), ("--shards", "4"),
    ):
        yield f"cli:rpc {' '.join(flags[:2])}", _cli("rpc", "--requests", "12", *flags)

    # The registry: every runner and digest on its defaults (the figures
    # ran under `run all`, the pinned-only specs run below), every builder
    # resolved.
    from repro.experiments import SCENARIOS, pinned_names

    for name in sorted(SCENARIOS):
        spec = SCENARIOS[name]
        if spec.digest:
            yield f"registry:{name}.run", lambda spec=spec: (spec.build_fn(), spec.run_fn()())
            yield f"registry:{name}.digest", lambda spec=spec: spec.digest_fn()()

    # Every pinned role, called as the pin table's ``bench:`` rows call it.
    for name in pinned_names():
        yield f"bench:{name}", lambda spec=SCENARIOS[name]: spec.pinned_fn()()

    # Examples (README rows).  The three case-study walkthroughs take five
    # minutes between them to re-run the figure runners above; what only
    # they reach (HTB shaping) is on the keep list as ``doc``.
    yield "example:quickstart", _example(root / "examples" / "quickstart.py")
    yield "example:quickstart --shards 4", _example(
        root / "examples" / "quickstart.py", "--shards", "4"
    )
    yield "example:tooling_tour", _example(root / "examples" / "tooling_tour.py")
    yield "example:timeline_tour", _example(
        root / "examples" / "timeline_tour.py", str(tmp / "tour.json")
    )

    # pipeline_bench: each workload's warm-up, one measured and one traced pass.
    def workload(name: str):
        from pipeline_bench import child

        return child.main(
            ["--workload", name, "--seed", "42", "--scale", "0.1", "--passes", "1", "--trace", "1"]
        )

    for name in ("udp_trace", "udp_untraced", "tcp_bulk_overlay", "fleet_sharded",
                 "analysis_replay"):
        yield f"pipeline_bench:{name}", lambda name=name: workload(name)


def audit(root: Path, progress: Callable[[str], None]) -> Tuple[
    List[Function], Dict[str, Set[str]], List[str]
]:
    """Index ``root/src/repro`` and run the drive table against it:
    the functions, who reached them, and the drives that failed."""
    src = root / "src"
    sys.path[:0] = [str(src), str(root)]
    functions = index_functions(src, "repro")
    with tempfile.TemporaryDirectory() as tmp:
        # The drives print what a user would see; only the audit's own
        # lines belong on this tool's stdout.
        with open(os.devnull, "w") as null, contextlib.redirect_stdout(null):
            reached, problems = run_drives(drives(root, Path(tmp)), functions, progress)
    return sorted(functions.values()), reached, problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--check", action="store_true",
                        help="exit 1 on an unlisted unreached function or a stale keep line")
    parser.add_argument("--options", action="store_true",
                        help="static scan of the config dataclasses' fields; runs nothing")
    parser.add_argument("--why", action="append", default=[], metavar="MODULE:QUALNAME",
                        help="print the drive-table entries that reach this function; repeatable")
    parser.add_argument("--root", type=Path, default=Path(__file__).resolve().parent.parent,
                        help="checkout to audit (default: the one this tool is in)")
    args = parser.parse_args(argv)
    root = args.root.resolve()
    keep, problems = load_keep(KEEP_FILE)

    option_problems, options = check_options(root, root / "src", keep)
    if args.options:
        problems += option_problems
        print(f"{len(options)} option fields, {len(options & set(keep))} listed as never set")
    else:
        stderr = sys.stderr
        listed, reached, failed = audit(
            root, lambda line: print(line, file=stderr, flush=True)
        )
        print("\n".join(reach_table(listed, reached, keep)))
        for name in args.why:
            print(f"{name}: {', '.join(sorted(reached.get(name, ()))) or 'unreached'}")
        problems += failed + check_functions(listed, reached, keep, options)
        if not args.check:
            for function in listed:
                if function.name not in reached and function.name in keep:
                    print(f"kept: {function.name} — {keep[function.name]}")
    if problems:
        print("\n".join(problems))
    return 1 if problems and (args.check or args.options) else 0


if __name__ == "__main__":
    sys.exit(main())
