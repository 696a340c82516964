"""Find benchmark scenarios and their ``run(preset)`` entry points.

A scenario is any ``benchmarks/bench_*.py`` file exposing a module-level
``run(preset: str) -> dict`` function.  The same files double as
pytest-benchmark tests; discovery loads them by path (the benchmarks
directory is not a package) under synthetic module names so imports
never collide with installed packages.
"""

from __future__ import annotations

import importlib.util
from pathlib import Path
from typing import Callable, Dict, List, NamedTuple, Optional

_MODULE_PREFIX = "repro_bench_scenario_"


class DiscoveryError(RuntimeError):
    """The benchmarks directory (or a scenario inside it) is unusable."""


class BenchScenario(NamedTuple):
    """One runnable benchmark scenario."""

    name: str  # bench file stem without the ``bench_`` prefix
    path: Path

    def load(self) -> Callable[[str], Dict]:
        """Import the bench file and return its ``run`` entry point."""
        spec = importlib.util.spec_from_file_location(
            _MODULE_PREFIX + self.name,
            self.path,
        )
        if spec is None or spec.loader is None:  # pragma: no cover - importlib guard
            raise DiscoveryError(f"cannot import scenario {self.path}")
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        run = getattr(module, "run", None)
        if not callable(run):
            raise DiscoveryError(f"scenario {self.path.name} has no run(preset) entry point")
        return run


def find_bench_dir(explicit: Optional[Path] = None) -> Path:
    """Locate the benchmarks directory.

    An explicit path is the only candidate: missing, or holding no
    ``bench_*.py``, it is an error naming it.  Without one, tries the
    repository checkout this package was imported from (editable
    installs), then ``./benchmarks``.
    """
    if explicit is not None:
        directory = Path(explicit)
        if not directory.is_dir():
            raise DiscoveryError(f"benchmarks directory {str(directory)!r} does not exist")
        if not any(directory.glob("bench_*.py")):
            raise DiscoveryError(
                f"benchmarks directory {str(directory)!r} holds no bench_*.py files"
            )
        return directory
    # src/repro/bench/discovery.py -> repo root is three levels above src/.
    candidates = [
        Path(__file__).resolve().parents[3] / "benchmarks",
        Path.cwd() / "benchmarks",
    ]
    for candidate in candidates:
        if candidate.is_dir() and any(candidate.glob("bench_*.py")):
            return candidate
    raise DiscoveryError(
        "no benchmarks directory with bench_*.py files found "
        f"(looked in: {', '.join(str(c) for c in candidates)})"
    )


def discover_scenarios(
    bench_dir: Optional[Path] = None, only: Optional[List[str]] = None
) -> List[BenchScenario]:
    """All scenarios in ``bench_dir``, sorted by name.

    ``only`` filters by scenario name (exact match, ``bench_`` prefix
    optional); asking for an unknown name is an error, not a silent
    empty run.
    """
    directory = find_bench_dir(bench_dir)
    scenarios = [
        BenchScenario(path.stem.removeprefix("bench_"), path)
        for path in sorted(directory.glob("bench_*.py"))
    ]
    if only:
        wanted = {name.removeprefix("bench_") for name in only}
        unknown = wanted - {s.name for s in scenarios}
        if unknown:
            raise DiscoveryError(
                f"unknown scenario(s) {sorted(unknown)}; "
                f"available: {[s.name for s in scenarios]}"
            )
        scenarios = [s for s in scenarios if s.name in wanted]
    return scenarios
