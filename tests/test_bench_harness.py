"""The figure suite: presets, scenario selection, report, CLI, and the
exact gate against the committed pin table, ``tests/golden/pins.json``."""

import copy
import json
import re

import pytest

from repro.bench import (
    SCHEMA_VERSION,
    bench_specs,
    build_report,
    dumps_report,
    run_scenario,
    run_suite,
    scale_count,
    scale_duration,
    write_report,
)
from repro.bench.harness import HarnessError
from repro.bench.presets import MIN_DURATION_NS
from repro.cli import build_parser, main
from repro.experiments import SCENARIOS, ScenarioSpec, get_scenario, pinned_names
from repro.sim.engine import Engine
from tests import pins


def fake_pinned(preset="smoke"):
    engine = Engine()
    ticks = 10 if preset == "smoke" else 100
    fired = [0]

    def tick():
        fired[0] += 1

    for i in range(ticks):
        engine.schedule(i + 1, tick)
    engine.run()
    return {"ticks": fired[0]}


def not_a_dict(preset="smoke"):
    return 7


def _spec(name, pinned):
    return ScenarioSpec(
        name=name, title=name, run=f"{__name__}:{pinned}", pinned=f"{__name__}:{pinned}"
    )


@pytest.fixture
def fake(monkeypatch):
    """A bench scenario registered for one test: ten engine events."""
    spec = _spec("fake", "fake_pinned")
    monkeypatch.setitem(SCENARIOS, "fake", spec)
    return spec


class TestPresets:
    def test_smoke_scales_duration_to_a_tenth(self):
        assert scale_duration("smoke", 1_000_000_000) == 100_000_000

    def test_full_keeps_the_full_duration(self):
        assert scale_duration("full", 1_000_000_000) == 1_000_000_000

    def test_smoke_respects_the_floor(self):
        assert scale_duration("smoke", 50_000_000) == MIN_DURATION_NS

    def test_floor_never_exceeds_the_full_duration(self):
        assert scale_duration("smoke", 5_000_000) == 5_000_000

    def test_count_scaling_with_floor(self):
        assert scale_count("smoke", 1000, floor=10) == 100
        assert scale_count("smoke", 50, floor=10) == 10
        assert scale_count("full", 1000, floor=10) == 1000

    def test_unknown_preset_rejected(self):
        with pytest.raises(ValueError, match="unknown preset"):
            scale_duration("quick", 1_000_000_000)


class TestDiscovery:
    def test_repo_benchmarks_are_discovered(self):
        """The bench scenarios are the registry's specs with a ``pinned``
        role, found by name."""
        names = [spec.name for spec in bench_specs()]
        assert names == sorted(names) == list(pinned_names())
        assert {"ablation_trace_ids", "fig7a", "macro_fleet_single"} <= set(names)
        assert len(names) == 21
        assert set(pinned_names()) >= {name for name in SCENARIOS if SCENARIOS[name].present}

    def test_unknown_only_name_is_an_error(self, fake):
        assert bench_specs(["fake"]) == [fake]
        with pytest.raises(ValueError, match="unknown bench scenario.*nope.*registered: .*fake"):
            bench_specs(["fake", "nope"])
        # A registered spec without a pinned role is not a bench scenario.
        with pytest.raises(ValueError, match="unknown bench scenario.*quickstart"):
            bench_specs(["quickstart"])


class TestHarness:
    def test_run_scenario_counts_engine_events(self, fake):
        result = run_scenario(fake, preset="smoke")
        assert result.events_executed == 10
        assert result.metrics == {"ticks": 10}
        assert result.wall_ns > 0
        assert result.probe_fires == 0
        assert result.ns_per_probe is None

    def test_preset_reaches_the_scenario(self, fake):
        assert run_scenario(fake, preset="full").metrics == {"ticks": 100}

    def test_non_dict_return_is_a_harness_error(self):
        with pytest.raises(HarnessError, match="bad: its pinned.* must return a dict"):
            run_scenario(_spec("bad", "not_a_dict"))

    def test_run_suite_reports_progress(self, fake):
        lines = []
        results = run_suite([fake], preset="smoke", progress=lines.append)
        assert [r.name for r in results] == ["fake"]
        assert len(lines) == 1 and "fake" in lines[0]


class TestSchema:
    def _report(self, spec):
        return build_report(run_suite([spec], preset="smoke"), "smoke")

    def test_round_trip_through_disk(self, fake, tmp_path):
        doc = self._report(fake)
        path = write_report(doc, tmp_path / "report.json")
        assert json.loads(path.read_text()) == doc
        assert path.read_text() == dumps_report(doc)

    def test_deterministic_report_omits_wall_fields(self, fake):
        """The whole document, so a wall-clock or host field cannot creep
        back in: everything in it is a function of code and seeds."""
        doc = self._report(fake)
        assert doc == {
            "schema_version": SCHEMA_VERSION,
            "preset": "smoke",
            "scenarios": [
                {"name": "fake", "events_executed": 10, "probe_fires": 0,
                 "metrics": {"ticks": 10}}
            ],
        }

    def test_deterministic_serialization_is_stable(self, fake):
        docs = [dumps_report(self._report(fake)) for _ in range(2)]
        assert docs[0] == docs[1]


# The rows tier-1 regenerates: every registry digest, and the bench
# scenarios that finish in under a second at ``smoke``.  The other nine,
# the longer figures, are left to ``python -m tests.pins``, which CI
# runs over every row.
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


class TestCLI:
    def test_list_prints_scenarios(self, fake, capsys):
        """``repro list`` names every bench scenario, a registered fake too."""
        assert main(["list"]) == 0
        names = [line.split()[0] for line in capsys.readouterr().out.splitlines()]
        assert set(pinned_names()) <= set(names)
        assert "fake" in names

    def test_json_output_validates(self, fake, capsys):
        assert main(["bench", "--only", "fake", "--json"]) == 0
        out = capsys.readouterr().out
        doc = json.loads(out)
        assert out == dumps_report(doc)  # canonical bytes, nothing else on stdout
        assert doc["schema_version"] == SCHEMA_VERSION
        assert [entry["name"] for entry in doc["scenarios"]] == ["fake"]

    def test_writes_report_file(self, fake, tmp_path, capsys):
        out = tmp_path / "report.json"
        assert main(["bench", "--only", "fake", "--out", str(out)]) == 0
        assert json.loads(out.read_text())["preset"] == "smoke"
        assert f"wrote {out}" in capsys.readouterr().out

    def test_no_file_is_written_without_out(self, fake, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        before = sorted(tmp_path.iterdir())
        assert main(["bench", "--only", "fake"]) == 0
        assert main(["bench", "--only", "fake", "--json"]) == 0
        assert sorted(tmp_path.iterdir()) == before

    def test_help_lists_exactly_the_five_flags(self, capsys):
        with pytest.raises(SystemExit):
            main(["bench", "--help"])
        flags = set(re.findall(r"^  (--[a-z-]+)", capsys.readouterr().out, re.M))
        assert flags == {"--preset", "--only", "--json", "--out", "--profile"}

    def test_unknown_scenario_exits_2(self, capsys):
        """One line on stderr that names every registered bench scenario,
        and nothing run."""
        assert main(["bench", "--only", "ablation_trace_ids", "--only", "nope"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        (line,) = captured.err.splitlines()
        assert line.startswith("bench: unknown bench scenario(s) nope; registered: ")
        assert line.endswith(", ".join(pinned_names()))

    def test_profile_prints_cumulative_hotspots(self, fake, tmp_path, capsys):
        out = tmp_path / "report.json"
        argv = ["bench", "--only", "fake", "--out", str(out), "--profile", "5"]
        assert main(argv) == 0
        err = capsys.readouterr().err
        assert "cumulative" in err  # sorted by cumulative time
        assert "-- profile: top 5 functions" in err
        # report unchanged
        assert json.loads(out.read_text())["scenarios"][0]["name"] == "fake"

    def test_profile_never_interleaves_with_json_report(self, fake, monkeypatch):
        """Regression: ``--profile`` used to print before the report was
        emitted, so with ``--json`` and stdout/stderr sharing a pipe (the
        common ``2>&1`` case) the profile table landed in the middle of
        the JSON document.  The profile must come strictly after the
        last byte of the report."""
        import io
        import sys

        shared = io.StringIO()
        monkeypatch.setattr(sys, "stdout", shared)
        monkeypatch.setattr(sys, "stderr", shared)
        argv = ["bench", "--only", "fake", "--json", "--profile", "5"]
        assert main(argv) == 0
        combined = shared.getvalue()
        marker = combined.index("-- profile: top 5 functions")
        # Everything before the profile is one parseable JSON document.
        doc = json.loads(combined[:marker])
        assert doc["scenarios"][0]["name"] == "fake"

    def test_profile_flag_defaults_to_top_25(self):
        args = build_parser().parse_args(["bench", "--profile"])
        assert args.profile == 25
        assert build_parser().parse_args(["bench"]).profile is None


class TestScenarioRegressions:
    def test_filter_selectivity_smoke_reports_nonzero_throughput(self):
        """The stale-baseline bug: a fixed 50 ms warm-up reset landing
        after the smoke preset's 25 ms of traffic restarted an idle
        measurement window and reported 0.0 Mbps on every leg."""
        result = run_scenario(get_scenario("ablation_filter_selectivity"), preset="smoke")
        assert result.metrics, "selectivity scenario returned no metrics"
        for name, mbps in result.metrics.items():
            assert mbps > 0, f"{name} regressed to zero throughput"
