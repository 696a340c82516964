"""The pin table's ``bench:`` producer -- scenario selection, the
counted run of each ``pinned`` role -- and the exact gate against the
committed table, ``tests/golden/pins.json``."""

import copy
import re

import pytest

from repro.experiments import SCENARIOS, ScenarioSpec, get_scenario, pinned_names
from repro.sim.engine import Engine
from tests import pins


def fake_pinned():
    engine = Engine()
    fired = [0]

    def tick():
        fired[0] += 1

    for i in range(10):
        engine.schedule(i + 1, tick)
    engine.run()
    return {"ticks": fired[0]}


def not_a_dict():
    return 7


def _register(monkeypatch, name, pinned):
    """Register ``name`` for one test, its run and pinned roles both
    ``pinned``, a function of this module."""
    ref = f"{__name__}:{pinned}"
    monkeypatch.setitem(SCENARIOS, name, ScenarioSpec(name=name, title=name, run=ref, pinned=ref))


@pytest.fixture
def fake(monkeypatch):
    """A pinned scenario registered for one test: ten engine events."""
    _register(monkeypatch, "fake", "fake_pinned")


class TestDiscovery:
    def test_repo_benchmarks_are_discovered(self):
        """The ``bench:`` rows are the registry's specs with a ``pinned``
        role, found by name."""
        keys = sorted(key for key in pins.expected_keys() if key.startswith("bench:"))
        names = [key.removeprefix("bench:") for key in keys]
        assert names == list(pinned_names())
        assert {"ablation_trace_ids", "fig7a", "macro_fleet_single"} <= set(names)
        assert len(names) == 21
        assert set(pinned_names()) >= {name for name in SCENARIOS if SCENARIOS[name].present}

    def test_unknown_only_name_is_an_error(self, fake):
        assert [key for key, _ in pins.bench_rows(["fake"])] == ["bench:fake"]
        with pytest.raises(ValueError, match="unknown bench scenario.*nope.*registered: .*fake"):
            next(pins.bench_rows(["fake", "nope"]))
        # A registered spec without a pinned role is not a bench scenario.
        with pytest.raises(ValueError, match="unknown bench scenario.*quickstart"):
            next(pins.bench_rows(["quickstart"]))


class TestHarness:
    def test_run_scenario_counts_engine_events(self, fake):
        assert dict(pins.bench_rows(["fake"])) == {
            "bench:fake": {"events_executed": 10, "probe_fires": 0, "metrics": {"ticks": 10}}
        }

    def test_non_dict_return_is_a_harness_error(self, monkeypatch):
        _register(monkeypatch, "bad", "not_a_dict")
        with pytest.raises(TypeError, match=r"bad: its pinned\(\) must return a dict.*got int"):
            next(pins.bench_rows(["bad"]))


# The rows tier-1 regenerates: every registry digest, and the bench
# scenarios that finish in under a second.  The other nine, the longer
# figures, are left to ``python -m tests.pins``, which CI runs over
# every row.
FAST_ROWS = (
    "bench:ablation_collection_mode",
    "bench:ablation_ebpf_jit",
    "bench:ablation_ratelimit_sweep",
    "bench:ablation_ring_buffer",
    "bench:ablation_trace_ids",
    "bench:fig10a",
    "bench:fig10b",
    "bench:fig11",
    "bench:fig7a",
    "bench:macro_fleet",
    "bench:macro_fleet_shards4",
    "bench:macro_fleet_single",
    *(f"digest:{name}" for name in pins.digest_specs()),
)


def _bump(value):
    """``value`` with one digit changed."""
    if isinstance(value, int):
        return value + 1
    return value[:-1] + ("1" if value[-1] == "0" else "0")


class TestCompare:
    """The pin table, ``tests/golden/pins.json`` (``tests/pins.py``)."""

    @pytest.fixture(scope="class")
    def table(self):
        return pins.load()

    def test_committed_table_is_canonical(self, table):
        assert pins.dumps(table) == pins.TABLE_PATH.read_text()

    def test_every_producer_has_a_row_and_every_row_a_producer(self, table):
        # Bench specs, digest specs, span cases and CLI invocations.
        assert set(table) == pins.expected_keys()  # both directions
        assert set(FAST_ROWS) <= set(table)

    @pytest.mark.parametrize("key", FAST_ROWS, ids=lambda key: key.removeprefix("bench:"))
    def test_scenario_reproduces_its_committed_entry(self, key):
        kind, name = key.split(":", 1)
        produce = pins.bench_rows if kind == "bench" else pins.digest_rows
        pins.assert_rows(dict(produce([name])))

    def test_one_changed_digit_fails_and_names_the_scenario(self, table):
        """One row of each kind that used to live in its own pin file."""
        for key, path in (
            ("bench:macro_fleet_single", ("metrics", "rows_inserted")),
            ("digest:quickstart", ("digest",)),
            ("export:quickstart/complete:chrome", ("sha256",)),
            ("cli:examples/quickstart.py", ("bytes",)),
        ):
            found = {key: table[key]}
            tampered = copy.deepcopy(table)
            pins.assert_rows(found, tampered)
            *parents, leaf = path
            row = tampered[key]
            for name in parents:
                row = row[name]
            row[leaf] = _bump(row[leaf])
            field = re.escape(f"{key}  {'.'.join(path)}: ")
            with pytest.raises(AssertionError, match=f"(?s)^{field}.*observable fields moved$"):
                pins.assert_rows(found, tampered)

    def test_schedule_only_change_says_so(self, table):
        found = {key: table[key] for key in ("bench:macro_fleet", "bench:macro_fleet_single")}
        tampered = copy.deepcopy(table)
        tampered["bench:macro_fleet"]["events_executed"] += 1
        tampered["bench:macro_fleet"]["metrics"]["rounds"] += 1
        tampered["bench:macro_fleet_single"]["events_executed"] += 1
        with pytest.raises(AssertionError, match="3 field.* in 2 row.*: schedule fields only$"):
            pins.assert_rows(found, tampered)
        tampered["bench:macro_fleet"]["metrics"]["rows_inserted"] += 1
        with pytest.raises(AssertionError, match="observable fields moved$"):
            pins.assert_rows(found, tampered)

    def test_missing_scenario_is_a_regression(self, table):
        gone = {"bench:gone": {"events_executed": 1, "probe_fires": 0, "metrics": {}}}
        with pytest.raises(AssertionError, match="bench:gone  row: 'absent' -> 'new'"):
            pins.assert_rows(gone, table)
        # ... and so is a committed row that nothing produces any more.
        moved = pins.diff({**table, **gone}, table, complete=True)
        assert moved == [("bench:gone", "row", "committed", "no producer")]


class TestScenarioRegressions:
    def test_filter_selectivity_smoke_reports_nonzero_throughput(self):
        """The stale-baseline bug: a fixed 50 ms warm-up reset landing
        after the pinned run's 25 ms of traffic restarted an idle
        measurement window and reported 0.0 Mbps on every leg."""
        metrics = get_scenario("ablation_filter_selectivity").pinned_fn()()
        assert metrics, "selectivity scenario returned no metrics"
        for name, mbps in metrics.items():
            assert mbps > 0, f"{name} regressed to zero throughput"
