"""Does the benchmark agree with itself?

Makes the driver's end-to-end run (``BENCHMARK.json``'s command, scale
and ``run_seconds``) of every workload, twice over, back to back::

    PYTHONPATH=src python -m pipeline_bench.selfcheck [--seed 42]

and asserts that

* every end-to-end metric of set B is within its own bound of set A;
* every count, ``units`` and ``sim_digest`` is exactly equal, and no
  correctness check failed;
* ``wall_s(udp_trace) > wall_s(udp_untraced)`` in both sets.

A workload whose ``wall_s`` quartile spread inside a run exceeds the
bound is printed as *unresolved*: at that noise the benchmark could not
tell a regression of the bound's size from nothing.  Exits non-zero if
an assertion fails.
"""

from __future__ import annotations

import argparse
import sys
from typing import Dict, List

from pipeline_bench import spec
from pipeline_bench.run import ChildFailed, Measurement, measure_end_to_end


def run_set(seed: int) -> Dict[str, Measurement]:
    limit = ["--seconds", str(spec.RUN_SECONDS)]
    return {
        name: measure_end_to_end(name, seed, spec.DEFAULT_SCALE, limit)
        for name in spec.WORKLOADS
    }


def compare(first: Dict[str, Measurement], second: Dict[str, Measurement]) -> List[str]:
    """Every disagreement between two sets, as printable lines."""
    problems: List[str] = []
    for name in spec.WORKLOADS:
        a, b = first[name], second[name]
        for key in ("units", "sim_digest", "counts"):
            if a.document[key] != b.document[key]:
                problems.append(f"{name}: {key} differs between the sets")
        for label, measurement in (("A", a), ("B", b)):
            if measurement.failures:
                problems.append(
                    f"{name}: set {label} failed {len(measurement.failures)} checks: "
                    + "; ".join(measurement.failures)
                )
        for metric in spec.END_TO_END:
            value_a, value_b = a.metrics[metric.name], b.metrics[metric.name]
            change = value_b / value_a - 1.0
            verdict = "ok" if abs(change) <= metric.bound else "DISAGREES"
            print(f"  {name:18s} {metric.name:12s} A={value_a:10.4f} B={value_b:10.4f} "
                  f"{change:+8.2%} (bound {metric.bound:.0%}) {verdict}")
            if verdict != "ok":
                problems.append(f"{name}: {metric.name} moved {change:+.2%} between the sets")
    for label, measurements in (("A", first), ("B", second)):
        traced = measurements["udp_trace"].metrics["wall_s"]
        untraced = measurements["udp_untraced"].metrics["wall_s"]
        print(f"  set {label}: wall_s(udp_trace) / wall_s(udp_untraced) = {traced / untraced:.3f}")
        if traced <= untraced:
            problems.append(f"set {label}: udp_trace is not slower than its untraced twin")
    return problems


def unresolved(measurements: Dict[str, Measurement], label: str) -> None:
    bound = next(m.bound for m in spec.END_TO_END if m.name == "wall_s")
    for name, measurement in measurements.items():
        spread = measurement.document["wall_s"]["spread"]
        if spread > bound:
            print(f"  unresolved: set {label} {name} wall_s spread {spread:.2%} "
                  f"exceeds the {bound:.0%} bound")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--seed", type=int, default=42)
    args = parser.parse_args(argv)
    try:
        first = run_set(args.seed)
        second = run_set(args.seed)
    except ChildFailed as error:
        print(f"selfcheck: {error}", file=sys.stderr)
        return 2
    problems = compare(first, second)
    unresolved(first, "A")
    unresolved(second, "B")
    for problem in problems:
        print(f"FAILED: {problem}")
    print("selfcheck:", "FAILED" if problems else "passed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
