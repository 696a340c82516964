"""pipeline_bench runner: every metric by name, with its unit, checked.

Two ways in:

* the whole suite, for people::

      PYTHONPATH=src python -m pipeline_bench.run [--seed 42] [--passes 5]
          [--only W] [--scale X] [--trace-out F]

  makes, for each workload, the two runs the driver makes (end-to-end,
  then traced), prints every end-to-end and per-layer metric and the
  derived ``udp_trace / udp_untraced`` host overhead, and exits non-zero
  if any correctness check failed;

* one run of one workload, for the driver behind ``BENCHMARK.json``::

      python3 pipeline_bench/run.py --workload W --seed N --seconds S --trace 0|1

  whose last stdout line is ``{"correct", "attempted", "failed",
  "metrics"}`` with the end-to-end metrics (``--trace 0``) or the
  per-layer metrics (``--trace 1``).

Both go through :func:`measure_end_to_end` and :func:`measure_layers`;
the suite only counts passes where the driver counts seconds.  The load
is one client, closed loop, batch: one process, one thread, workloads
one after the other, each child in its own fresh interpreter.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from time import perf_counter
from typing import Any, Dict, List, NamedTuple, Optional

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
if ROOT not in sys.path:  # run as a script: make the package importable
    sys.path.insert(0, ROOT)

from pipeline_bench import spec  # noqa: E402

CHILD_TIMEOUT_S = 170


class ChildFailed(RuntimeError):
    """A child interpreter crashed, hung, or printed no document."""


class Measurement(NamedTuple):
    """One run of one workload: what the driver's result line is made of."""

    document: Dict[str, Any]  # the measuring child's full document
    metrics: Dict[str, float]  # end-to-end or per-layer, by BENCHMARK.json name
    attempted: int  # correctness checks, over every child of the run
    failures: List[str]


def run_child(workload: str, seed: int, scale: float, extra: List[str]) -> Dict[str, Any]:
    """Start ``pipeline_bench.child`` in a fresh interpreter, wait for
    it, and return the document on its last stdout line."""
    src = os.path.join(ROOT, "src")
    if not os.path.isdir(os.path.join(src, "repro")):
        raise ChildFailed(f"nothing to benchmark: {src}/repro is missing")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [ROOT, src] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    command = [
        sys.executable, "-m", "pipeline_bench.child",
        "--workload", workload, "--seed", str(seed), "--scale", repr(scale),
        "--spawned-at", repr(perf_counter()),
    ] + extra
    try:
        done = subprocess.run(
            command, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True,
            timeout=CHILD_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:  # run() has already killed and reaped it
        raise ChildFailed(f"{workload}: child exceeded {CHILD_TIMEOUT_S}s") from None
    if done.returncode != 0:
        raise ChildFailed(f"{workload}: child exited with code {done.returncode}")
    try:
        return json.loads(done.stdout.strip().splitlines()[-1])
    except (IndexError, ValueError):
        raise ChildFailed(f"{workload}: child printed no result document") from None


def _measurement(documents: List[Dict[str, Any]], metrics: Dict[str, float]) -> Measurement:
    tallies = [document["checks"] for document in documents]
    return Measurement(
        document=documents[0],
        metrics=metrics,
        attempted=sum(t["attempted"] for t in tallies),
        failures=[failure for t in tallies for failure in t["failures"]],
    )


def measure_end_to_end(workload: str, seed: int, scale: float, limit: List[str]) -> Measurement:
    """The ``--trace 0`` run: measured passes with tracing off, up to
    ``limit`` (``--seconds S`` or ``--passes N``, handed to the child).
    Set-up is short, so one reading is noisy: it is repeated in fresh
    interpreters and the median reported."""
    documents = [run_child(workload, seed, scale, limit)]
    documents += [
        run_child(workload, seed, scale, ["--setup-only"])
        for _ in range(spec.SETUP_SAMPLES - 1)
    ]
    return _measurement(documents, {
        "wall_s": documents[0]["wall_s"]["median"],
        "setup_s": statistics.median(d["setup_s"] for d in documents),
        "peak_rss_mb": documents[0]["peak_rss_mb"],
    })


def measure_layers(
    workload: str, seed: int, scale: float, trace_out: Optional[str] = None
) -> Measurement:
    """The ``--trace 1`` run: one measured pass for the stage timers and
    the untraced reference, then one pass under the layer trace."""
    extra = ["--passes", "1", "--trace", "1"]
    if trace_out:
        extra += ["--trace-out", os.path.abspath(trace_out)]
    document = run_child(workload, seed, scale, extra)
    return _measurement([document], document["per_layer"])


def report(measurement: Measurement) -> None:
    """Every metric of one run by name, value and unit, then any failed check."""
    document = measurement.document
    wall = document["wall_s"]
    print(f"  seed={document['seed']} scale={document['scale']} units={document['units']} "
          f"sim_digest={document['sim_digest'][:16]}")
    print(f"  passes={wall['n']} preempted={document['passes_preempted']} "
          f"wall_s quartiles=[{wall['q1']:.4f}, {wall['q3']:.4f}] "
          f"spread={wall['spread']:.4f} raw median={wall['raw_median']:.4f} s")
    for name, value in measurement.metrics.items():
        shown = f"{value:.6g}" if isinstance(value, float) else str(value)
        print(f"  {name:32s} {shown:>14s} {spec.UNITS[name]}")
    failed = len(measurement.failures)
    print(f"  checks: {failed} failed of {measurement.attempted} "
          f"(check_fail_ratio {failed / measurement.attempted:.4f})")
    for failure in measurement.failures:
        print(f"  CHECK FAILED: {failure}")


def driver_run(args) -> int:
    """One run for the driver: measure, report, print the result line."""
    if args.trace:
        measurement = measure_layers(args.workload, args.seed, args.scale)
    else:
        measurement = measure_end_to_end(
            args.workload, args.seed, args.scale, ["--seconds", repr(args.seconds)]
        )
    print(f"== {args.workload}")
    report(measurement)
    print(json.dumps({
        "correct": not measurement.failures,
        "attempted": measurement.attempted,
        "failed": len(measurement.failures),
        "metrics": {
            name: {"value": value, "unit": spec.UNITS[name]}
            for name, value in measurement.metrics.items()
        },
    }))
    return 0


def suite_run(args) -> int:
    """Both driver runs of every selected workload; human summary."""
    names = [args.workload] if args.workload else list(spec.WORKLOADS)
    walls: Dict[str, float] = {}
    failed = 0
    host: Dict[str, Any] = {}
    for name in names:
        trace_out = args.trace_out
        if trace_out and len(names) > 1:
            trace_out = f"{trace_out}.{name}.json"
        end_to_end = measure_end_to_end(
            name, args.seed, args.scale, ["--passes", str(args.passes)]
        )
        layers = measure_layers(name, args.seed, args.scale, trace_out)
        print(f"\n== {name}: {spec.WORKLOADS[name]}")
        report(end_to_end)
        print("  -- traced run")
        report(layers)
        walls[name] = end_to_end.metrics["wall_s"]
        failed += len(end_to_end.failures) + len(layers.failures)
        host = end_to_end.document["host"]
    if "udp_trace" in walls and "udp_untraced" in walls:
        traced, untraced = walls["udp_trace"], walls["udp_untraced"]
        print(f"\nderived: wall_s(udp_trace) / wall_s(udp_untraced) = "
              f"{traced:.4f} / {untraced:.4f} = {traced / untraced:.3f}x "
              f"host-time tracing overhead (the paper's Fig. 7, in host time)")
    print(f"host: python {host['python']}, {host['platform']}, nproc {host['nproc']}")
    return 1 if failed else 0


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    parser.add_argument("--workload", "--only", dest="workload", choices=list(spec.WORKLOADS))
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--scale", type=float, default=spec.DEFAULT_SCALE,
                        help="size multiplier; only to fit a time cap, see README")
    suite = parser.add_argument_group("suite")
    suite.add_argument("--passes", type=int, help="measured passes per workload (default 5)")
    suite.add_argument("--trace-out", help="write the traced pass as Chrome trace JSON")
    driver = parser.add_argument_group("driver (BENCHMARK.json)")
    driver.add_argument("--trace", type=int, choices=(0, 1),
                        help="0 = end-to-end metrics, 1 = per-layer metrics")
    driver.add_argument("--seconds", type=float,
                        help="measure passes until they add up to this long")
    args = parser.parse_args(argv)
    driver_mode = args.trace is not None
    if driver_mode:
        if args.workload is None or args.seconds is None:
            parser.error("--trace needs --workload and --seconds")
        if args.passes is not None or args.trace_out is not None:
            parser.error("--passes and --trace-out belong to the suite, not to --trace")
    else:
        if args.seconds is not None:
            parser.error("--seconds belongs to the driver form (--trace 0|1)")
        if args.passes is None:
            args.passes = 5
    try:
        return driver_run(args) if driver_mode else suite_run(args)
    except ChildFailed as error:
        print(f"pipeline_bench: {error}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
