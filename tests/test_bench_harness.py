"""The figure suite: presets, discovery, report, CLI, and the exact gate
against the committed ``benchmarks/baseline.json``."""

import copy
import json
import re

import pytest

from repro.bench import (
    SCHEMA_VERSION,
    build_report,
    discover_scenarios,
    dumps_report,
    find_bench_dir,
    run_scenario,
    run_suite,
    scale_count,
    scale_duration,
    write_report,
)
from repro.bench.discovery import DiscoveryError
from repro.bench.harness import HarnessError
from repro.bench.presets import MIN_DURATION_NS
from repro.cli import build_parser, main

FAKE_SCENARIO = """\
from repro.sim.engine import Engine

def run(preset="smoke"):
    engine = Engine()
    ticks = 10 if preset == "smoke" else 100
    fired = [0]
    def tick():
        fired[0] += 1
    for i in range(ticks):
        engine.schedule(i + 1, tick)
    engine.run()
    return {"ticks": fired[0]}
"""


@pytest.fixture
def bench_dir(tmp_path):
    (tmp_path / "bench_fake.py").write_text(FAKE_SCENARIO)
    return tmp_path


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
        names = {s.name for s in discover_scenarios()}
        assert "micro_engine" in names
        assert "fig7a_overhead_latency" in names
        assert len(names) >= 18

    def test_only_filter_accepts_both_name_forms(self, bench_dir):
        for wanted in ("fake", "bench_fake"):
            scenarios = discover_scenarios(bench_dir, only=[wanted])
            assert [s.name for s in scenarios] == ["fake"]

    def test_unknown_only_name_is_an_error(self, bench_dir):
        with pytest.raises(DiscoveryError, match="unknown scenario"):
            discover_scenarios(bench_dir, only=["nope"])

    def test_explicit_directory_never_falls_back(self, tmp_path):
        """An explicit directory used to fall back to the shipped
        benchmarks when it was missing or empty."""
        missing = tmp_path / "nonexistent"
        with pytest.raises(DiscoveryError, match="does not exist") as error:
            find_bench_dir(missing)
        assert str(missing) in str(error.value)
        with pytest.raises(DiscoveryError, match="no bench_") as error:
            find_bench_dir(tmp_path)
        assert str(tmp_path) in str(error.value)

    def test_file_without_run_is_rejected_at_load(self, tmp_path):
        (tmp_path / "bench_empty.py").write_text("x = 1\n")
        (scenario,) = discover_scenarios(tmp_path)
        with pytest.raises(DiscoveryError, match="run"):
            scenario.load()


class TestHarness:
    def test_run_scenario_counts_engine_events(self, bench_dir):
        (scenario,) = discover_scenarios(bench_dir)
        result = run_scenario(scenario, preset="smoke")
        assert result.events_executed == 10
        assert result.metrics == {"ticks": 10}
        assert result.wall_ns > 0
        assert result.probe_fires == 0
        assert result.ns_per_probe is None

    def test_preset_reaches_the_scenario(self, bench_dir):
        (scenario,) = discover_scenarios(bench_dir)
        assert run_scenario(scenario, preset="full").metrics == {"ticks": 100}

    def test_non_dict_return_is_a_harness_error(self, tmp_path):
        (tmp_path / "bench_bad.py").write_text("def run(preset='smoke'):\n    return 7\n")
        (scenario,) = discover_scenarios(tmp_path)
        with pytest.raises(HarnessError, match="must return a dict"):
            run_scenario(scenario)

    def test_run_suite_reports_progress(self, bench_dir):
        lines = []
        results = run_suite(preset="smoke", bench_dir=bench_dir, progress=lines.append)
        assert [r.name for r in results] == ["fake"]
        assert len(lines) == 1 and "fake" in lines[0]


class TestSchema:
    def _report(self, bench_dir):
        return build_report(run_suite(preset="smoke", bench_dir=bench_dir), "smoke")

    def test_round_trip_through_disk(self, bench_dir, tmp_path):
        doc = self._report(bench_dir)
        path = write_report(doc, tmp_path / "report.json")
        assert json.loads(path.read_text()) == doc
        assert path.read_text() == dumps_report(doc)

    def test_deterministic_report_omits_wall_fields(self, bench_dir):
        """The whole document, so a wall-clock or host field cannot creep
        back in: everything in it is a function of code and seeds."""
        doc = self._report(bench_dir)
        assert doc == {
            "schema_version": SCHEMA_VERSION,
            "preset": "smoke",
            "scenarios": [
                {"name": "fake", "events_executed": 10, "probe_fires": 0,
                 "metrics": {"ticks": 10}}
            ],
        }

    def test_deterministic_serialization_is_stable(self, bench_dir):
        docs = [dumps_report(self._report(bench_dir)) for _ in range(2)]
        assert docs[0] == docs[1]


BASELINE = find_bench_dir() / "baseline.json"

# The scenarios that finish in under a second at ``smoke``; tier-1
# re-runs these.  The other ten -- the longer figures, and
# ``micro_streaming_agg``, whose host-time budget sits too close to its
# bound for a loaded test machine -- are left to the CI bench-smoke job,
# which regenerates all 29 and diffs the whole file.
TIER1_SCENARIOS = (
    "ablation_collection_mode",
    "ablation_ebpf_jit",
    "ablation_ratelimit_sweep",
    "ablation_ring_buffer",
    "ablation_trace_ids",
    "fig10a_xen_sockperf",
    "fig10b_xen_memcached",
    "fig11_xen_decomposition",
    "fig7a_overhead_latency",
    "macro_fleet",
    "macro_fleet_shards4",
    "macro_fleet_single",
    "micro_ebpf_dispatch",
    "micro_engine",
    "micro_retry_path",
    "micro_ringbuffer",
    "micro_rpc_correlate",
    "micro_span_reconstruct",
    "micro_tracedb_query",
)


def _check_against(entry, committed):
    """Tier-1's form of the CI ``diff``: a freshly computed scenario
    entry must equal the committed one of the same name exactly."""
    by_name = {e["name"]: e for e in committed["scenarios"]}
    name = entry["name"]
    assert name in by_name, f"{name}: missing from benchmarks/baseline.json"
    assert entry == by_name[name], (
        f"{name}: differs from benchmarks/baseline.json (if the change is "
        f"intended: repro bench --preset smoke --out benchmarks/baseline.json)"
    )


class TestCompare:
    """The exact gate against the committed baseline."""

    @pytest.fixture(scope="class")
    def committed(self):
        return json.loads(BASELINE.read_text())

    def test_committed_baseline_is_canonical(self, committed):
        assert dumps_report(committed) == BASELINE.read_text()
        assert committed["schema_version"] == SCHEMA_VERSION
        assert committed["preset"] == "smoke"

    def test_baseline_and_bench_files_name_the_same_scenarios(self, committed):
        recorded = [entry["name"] for entry in committed["scenarios"]]
        discovered = [scenario.name for scenario in discover_scenarios()]
        assert sorted(recorded) == sorted(discovered)  # both directions
        assert set(TIER1_SCENARIOS) <= set(discovered)

    @pytest.mark.parametrize("name", TIER1_SCENARIOS)
    def test_scenario_reproduces_its_committed_entry(self, name, committed):
        (scenario,) = discover_scenarios(only=[name])
        (entry,) = build_report([run_scenario(scenario, "smoke")], "smoke")["scenarios"]
        _check_against(entry, committed)

    def test_one_changed_digit_fails_and_names_the_scenario(self, committed):
        tampered = copy.deepcopy(committed)
        entry = next(e for e in committed["scenarios"] if e["name"] == "micro_engine")
        _check_against(entry, tampered)
        target = next(e for e in tampered["scenarios"] if e["name"] == "micro_engine")
        target["metrics"]["final_now_ns"] += 1
        with pytest.raises(AssertionError, match="micro_engine: differs"):
            _check_against(entry, tampered)

    def test_missing_scenario_is_a_regression(self, committed):
        gone = {"name": "gone", "events_executed": 1, "probe_fires": 0, "metrics": {}}
        with pytest.raises(AssertionError, match="gone: missing"):
            _check_against(gone, committed)


class TestCLI:
    def test_list_prints_scenarios(self, bench_dir, capsys):
        assert main(["bench", "--list", "--bench-dir", str(bench_dir)]) == 0
        assert capsys.readouterr().out.strip() == "fake"

    def test_json_output_validates(self, bench_dir, capsys):
        assert main(["bench", "--bench-dir", str(bench_dir), "--json"]) == 0
        out = capsys.readouterr().out
        doc = json.loads(out)
        assert out == dumps_report(doc)  # canonical bytes, nothing else on stdout
        assert doc["schema_version"] == SCHEMA_VERSION
        assert [entry["name"] for entry in doc["scenarios"]] == ["fake"]

    def test_writes_report_file(self, bench_dir, tmp_path, capsys):
        out = tmp_path / "report.json"
        assert main(["bench", "--bench-dir", str(bench_dir), "--out", str(out)]) == 0
        assert json.loads(out.read_text())["preset"] == "smoke"
        assert f"wrote {out}" in capsys.readouterr().out

    def test_no_file_is_written_without_out(self, bench_dir, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        before = sorted(tmp_path.iterdir())
        assert main(["bench", "--bench-dir", str(bench_dir)]) == 0
        assert main(["bench", "--bench-dir", str(bench_dir), "--json"]) == 0
        assert sorted(tmp_path.iterdir()) == before

    def test_help_lists_exactly_the_seven_flags(self, capsys):
        with pytest.raises(SystemExit):
            main(["bench", "--help"])
        flags = set(re.findall(r"^  (--[a-z-]+)", capsys.readouterr().out, re.M))
        assert flags == {"--preset", "--only", "--json", "--out", "--profile",
                         "--list", "--bench-dir"}

    def test_missing_bench_dir_exits_2(self, tmp_path, capsys):
        missing = tmp_path / "nonexistent"
        assert main(["bench", "--bench-dir", str(missing), "--list"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""  # not the shipped scenarios
        assert str(missing) in captured.err

    def test_unknown_scenario_exits_2(self, bench_dir, capsys):
        argv = ["bench", "--bench-dir", str(bench_dir), "--only", "nope"]
        assert main(argv) == 2
        assert "unknown scenario" in capsys.readouterr().err

    def test_profile_prints_cumulative_hotspots(self, bench_dir, tmp_path, capsys):
        out = tmp_path / "report.json"
        argv = ["bench", "--bench-dir", str(bench_dir), "--out", str(out), "--profile", "5"]
        assert main(argv) == 0
        err = capsys.readouterr().err
        assert "cumulative" in err  # sorted by cumulative time
        assert "-- profile: top 5 functions" in err
        # report unchanged
        assert json.loads(out.read_text())["scenarios"][0]["name"] == "fake"

    def test_profile_never_interleaves_with_json_report(self, bench_dir, monkeypatch):
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
        argv = ["bench", "--bench-dir", str(bench_dir), "--json", "--profile", "5"]
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
        (scenario,) = discover_scenarios(only=["ablation_filter_selectivity"])
        result = run_scenario(scenario, preset="smoke")
        assert result.metrics, "selectivity scenario returned no metrics"
        for name, mbps in result.metrics.items():
            assert mbps > 0, f"{name} regressed to zero throughput"
