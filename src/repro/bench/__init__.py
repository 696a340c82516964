"""The figure suite (`repro bench`).

Every :data:`repro.experiments.SCENARIOS` entry with a ``pinned``
reference is a bench scenario: the twelve paper figures, the fleet legs
and the ablations.  This package runs them under a preset
(``smoke``/``full``) and reports what each one *computed* -- engine
events, probe fires, the scenario's own metrics -- as one canonical
JSON document.  At the smoke preset each
scenario's entry is a ``bench:`` row of the pin table,
``tests/golden/pins.json``; ``python -m tests.pins`` regenerates every
row and fails on any digit of difference.  Host speed is printed per
scenario for orientation and never stored: measuring it is
``pipeline_bench``'s job.

See ``docs/BENCHMARKS.md`` for the schema, presets, and workflow.
"""

from repro.bench.harness import (
    SCHEMA_VERSION,
    ScenarioResult,
    bench_specs,
    build_report,
    dumps_report,
    run_scenario,
    run_suite,
    write_report,
)
from repro.bench.presets import PRESETS, check_preset, scale_count, scale_duration

__all__ = [
    "PRESETS",
    "SCHEMA_VERSION",
    "ScenarioResult",
    "bench_specs",
    "build_report",
    "check_preset",
    "dumps_report",
    "run_scenario",
    "run_suite",
    "scale_count",
    "scale_duration",
    "write_report",
]
