"""The figure suite (`repro bench`).

The ``benchmarks/bench_*.py`` scenario files each expose a tiny
``run(preset)`` entry point; this package discovers them, runs them
under a preset (``smoke``/``full``) and reports what each one
*computed* -- engine events, probe fires, the scenario's own metrics --
as one canonical JSON document.  ``benchmarks/baseline.json`` is that
document for the smoke preset, committed; CI regenerates it and fails
on any byte of difference.  Host speed is printed per scenario for
orientation and never stored: measuring it is ``pipeline_bench``'s job.

See ``docs/BENCHMARKS.md`` for the schema, presets, and workflow.
"""

from repro.bench.discovery import BenchScenario, discover_scenarios, find_bench_dir
from repro.bench.harness import (
    SCHEMA_VERSION,
    ScenarioResult,
    build_report,
    dumps_report,
    run_scenario,
    run_suite,
    write_report,
)
from repro.bench.presets import PRESETS, check_preset, scale_count, scale_duration

__all__ = [
    "BenchScenario",
    "PRESETS",
    "SCHEMA_VERSION",
    "ScenarioResult",
    "build_report",
    "check_preset",
    "discover_scenarios",
    "dumps_report",
    "find_bench_dir",
    "run_scenario",
    "run_suite",
    "scale_count",
    "scale_duration",
    "write_report",
]
