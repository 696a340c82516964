"""Run the bench scenarios and report what they computed.

For every scenario the harness snapshots two process-wide simulation
counters around the run:

* :meth:`Engine.global_events_executed` -- discrete events executed by
  every engine the scenario built;
* :meth:`BPFProgram.global_runs` -- eBPF program executions, i.e. probe
  fires.

Those two deltas and the scenario's own metrics dict are functions of
the code and the seeds alone, so the report built from them::

    {
      "schema_version": 2,
      "preset": "smoke",
      "scenarios": [
        {
          "name": "fig7a",
          "events_executed": 123456,
          "probe_fires": 2880,
          "metrics": {...}
        }, ...
      ]
    }

is **byte-identical** across runs and hosts; its smoke-preset entries
are the ``bench:`` rows of the pin table, ``tests/golden/pins.json``.
The wall clock is measured too, but only for the progress table.
"""

from __future__ import annotations

import gc
import json
import time
from pathlib import Path
from typing import Callable, Dict, Iterable, List, NamedTuple, Optional, Union

from repro.bench.presets import check_preset
from repro.ebpf.vm import BPFProgram
from repro.experiments import SCENARIOS, ScenarioSpec, pinned_names
from repro.sim.engine import Engine

SCHEMA_VERSION = 2


class HarnessError(RuntimeError):
    """A scenario misbehaved (bad return type, raised, ...)."""


class ScenarioResult(NamedTuple):
    """One scenario run: what it computed, and how long the host took."""

    name: str
    preset: str
    wall_ns: int  # progress table only; never in a report
    events_executed: int
    probe_fires: int
    metrics: Dict[str, object]  # scenario-reported, simulation-deterministic

    @property
    def events_per_sec(self) -> float:
        if self.wall_ns <= 0:
            return 0.0
        return self.events_executed / (self.wall_ns / 1e9)

    @property
    def ns_per_probe(self) -> Optional[float]:
        """Host ns per probe fire; None for scenarios without probes."""
        if self.probe_fires <= 0:
            return None
        return self.wall_ns / self.probe_fires


def bench_specs(only: Optional[Iterable[str]] = None) -> List[ScenarioSpec]:
    """The registered bench scenarios, sorted by name; ``only`` keeps
    the named ones, and naming one that is not registered with a
    ``pinned`` reference is an error, not a silent empty run."""
    names = pinned_names()
    if only:
        wanted = set(only)
        unknown = sorted(wanted.difference(names))
        if unknown:
            raise ValueError(
                f"unknown bench scenario(s) {', '.join(unknown)}; registered: {', '.join(names)}"
            )
        names = [name for name in names if name in wanted]
    return [SCENARIOS[name] for name in names]


def run_scenario(spec: ScenarioSpec, preset: str = "smoke") -> ScenarioResult:
    """Execute one scenario's ``pinned`` callable under ``preset``."""
    check_preset(preset)
    run = spec.pinned_fn()
    # Keep collector pauses out of the timed window: collect what
    # earlier scenarios left behind, then freeze the surviving heap so
    # full collections triggered *during* the window scan only this
    # run's own allocations -- without this, a microbenchmark's printed
    # number depends on how much live data the scenarios before it
    # happened to build.
    gc.collect()
    gc.freeze()
    events_before = Engine.global_events_executed()
    fires_before = BPFProgram.global_runs()
    try:
        started = time.perf_counter_ns()
        metrics = run(preset)
        wall_ns = time.perf_counter_ns() - started
    finally:
        gc.unfreeze()
    if not isinstance(metrics, dict):
        raise HarnessError(
            f"scenario {spec.name}: its pinned(preset) must return a dict of "
            f"metrics, got {type(metrics).__name__}"
        )
    return ScenarioResult(
        name=spec.name,
        preset=preset,
        wall_ns=wall_ns,
        events_executed=Engine.global_events_executed() - events_before,
        probe_fires=BPFProgram.global_runs() - fires_before,
        metrics=metrics,
    )


def run_suite(
    specs: List[ScenarioSpec],
    preset: str = "smoke",
    progress: Optional[Callable[[str], None]] = None,
) -> List[ScenarioResult]:
    """Run ``specs`` in order; ``progress`` gets one line per scenario."""
    check_preset(preset)
    results = []
    for spec in specs:
        result = run_scenario(spec, preset)
        results.append(result)
        if progress is not None:
            nspp = result.ns_per_probe
            tail = f"{nspp:9.0f} ns/probe" if nspp is not None else "  (no probes)"
            progress(
                f"{result.name:32s} {result.wall_ns / 1e9:7.2f}s  "
                f"{result.events_executed:>9d} events  "
                f"{result.events_per_sec / 1e3:8.1f}k ev/s  {tail}"
            )
    return results


def build_report(results: List[ScenarioResult], preset: str) -> Dict:
    """Assemble the report document for a suite run."""
    return {
        "schema_version": SCHEMA_VERSION,
        "preset": check_preset(preset),
        "scenarios": [
            {
                "name": result.name,
                "events_executed": result.events_executed,
                "probe_fires": result.probe_fires,
                "metrics": result.metrics,
            }
            for result in sorted(results, key=lambda r: r.name)
        ],
    }


def dumps_report(doc: Dict) -> str:
    """Canonical serialization (stable key order -> byte-diffable)."""
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def write_report(doc: Dict, path: Union[str, Path]) -> Path:
    path = Path(path)
    path.write_text(dumps_report(doc))
    return path
