"""The figure-regeneration CLI."""

import inspect

import pytest

from repro.cli import build_parser, main
from repro.experiments import SCENARIOS, ScenarioSpec, figure_names

FIGURES = figure_names()


class TestParser:
    def test_list_command(self, capsys):
        assert main(["list"]) == 0
        lines = capsys.readouterr().out.splitlines()
        # One line per registry entry, figures and the rest alike.
        assert [line.split()[0] for line in lines] == sorted(SCENARIOS)
        assert len(FIGURES) == 12 and set(FIGURES) < set(SCENARIOS)

    def test_list_verbose_prints_each_spec_reference(self, capsys):
        assert main(["list", "--verbose"]) == 0
        out = capsys.readouterr().out
        for spec in SCENARIOS.values():
            for ref in (spec.run, spec.present, spec.build, spec.digest, spec.pinned):
                assert ref is None or ref in out

    def test_scenarios_verb_is_gone(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["scenarios"])

    def test_bench_verb_is_gone(self, capsys):
        """The pin table runs each ``pinned`` role (``python -m tests.pins``)."""
        with pytest.raises(SystemExit) as exit_info:
            main(["bench"])
        assert exit_info.value.code == 2
        assert "invalid choice: 'bench'" in capsys.readouterr().err

    def test_run_requires_figure(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run"])

    def test_unknown_figure_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "fig99"])
        with pytest.raises(SystemExit):  # registered, but not a figure
            build_parser().parse_args(["run", "quickstart"])

    def test_all_figures_have_runners(self):
        parser = build_parser()
        for name in FIGURES:
            args = parser.parse_args(["run", name])
            assert args.figure == name
            assert callable(SCENARIOS[name].run_fn())
            assert callable(SCENARIOS[name].present_fn())

    def test_duration_flag_parsed(self):
        args = build_parser().parse_args(["run", "fig7a", "--duration-ms", "123"])
        assert args.duration_ms == 123
        # None, not 400: the handler has to see whether it was given.
        assert build_parser().parse_args(["run", "fig7a"]).duration_ms is None

    @pytest.mark.parametrize(
        "argv",
        [
            ["rpc", "--shards", "-1"],
            ["run", "fig7a", "--duration-ms", "0"],
            ["run", "fig7a", "--duration-ms", "-5"],
        ],
    )
    def test_out_of_range_integers_are_argparse_errors(self, argv, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(argv)
        assert exit_info.value.code == 2
        assert "integer" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv",
        [
            ["timeline", "--format", "text", "--anomaly-factor", "-1"],
            ["timeline", "--format", "text", "--anomaly-factor", "0"],
            ["timeline", "--format", "text", "--anomaly-factor", "nan"],
            ["timeline", "--format", "text", "--anomaly-factor", "inf"],
            ["timeline", "--out", "{missing}"],
            ["rpc", "--format", "chrome", "--out", "{missing}"],
            ["timeline", "--out", "{directory}"],
            ["timeline", "--format", "text", "--trace-id", "-5"],
            ["timeline", "--format", "text", "--trace-id", "0x1ffffffff"],
        ],
        ids=[
            "factor-negative",
            "factor-zero",
            "factor-nan",
            "factor-inf",
            "timeline-out-missing-dir",
            "rpc-out-missing-dir",
            "out-is-a-directory",
            "trace-id-negative",
            "trace-id-over-32-bits",
        ],
    )
    def test_bad_values_exit_2_before_anything_runs(self, argv, tmp_path, capsys):
        """Each of these used to run (part of) a scenario and then raise
        a traceback, or be accepted as given."""
        paths = {"missing": tmp_path / "missing" / "x.json", "directory": tmp_path}
        argv = [arg.format(**paths) for arg in argv]
        with pytest.raises(SystemExit) as exit_info:
            main(argv)
        assert exit_info.value.code == 2
        captured = capsys.readouterr()
        assert "Traceback" not in captured.err
        assert argv[-2] in captured.err  # argparse names the option
        assert captured.out == ""


_REAL_RUN_FN = ScenarioSpec.run_fn


@pytest.fixture
def calls_seen(monkeypatch):
    """Swap every figure's runner for one with the same signature that
    records the keywords it was called with, and print nothing."""
    seen = {}

    def recording_run_fn(spec):
        def run(**kwargs):
            seen[spec.name] = kwargs

        run.__signature__ = inspect.signature(_REAL_RUN_FN(spec))
        return run

    monkeypatch.setattr(ScenarioSpec, "run_fn", recording_run_fn)
    monkeypatch.setattr(ScenarioSpec, "present_fn", lambda spec: lambda result: ())
    return seen


# The three figures whose runner has a fixed workload.
FIXED_WORKLOAD = ("fig4", "fig11", "fig13b")


class TestRunSeeds:
    def test_explicit_seed_reaches_every_runner(self, calls_seen, capsys):
        assert main(["run", "all", "--seed", "99"]) == 0
        assert {name: kw["seed"] for name, kw in calls_seen.items()} == dict.fromkeys(
            FIGURES, 99
        )

    def test_default_seeds_are_each_runners_own(self, calls_seen, capsys):
        assert main(["run", "all"]) == 0
        assert set(calls_seen) == set(FIGURES)
        # No stored copy of the defaults: the keyword is simply not passed...
        assert not any("seed" in kw for kw in calls_seen.values())
        # ...and every runner has a default of its own to fall back on.
        defaults = {
            name: inspect.signature(_REAL_RUN_FN(SCENARIOS[name])).parameters["seed"].default
            for name in FIGURES
        }
        assert all(isinstance(seed, int) for seed in defaults.values())
        assert defaults["fig4"] == 7 and defaults["fig13b"] == 23
        single = dict(calls_seen)
        assert main(["run", "fig10a"]) == 0
        assert calls_seen == single  # same call alone as under "all"


class TestRunDuration:
    def test_default_window_is_400_ms_where_the_runner_takes_one(self, calls_seen, capsys):
        assert main(["run", "all"]) == 0
        for name in FIGURES:
            expected = {} if name in FIXED_WORKLOAD else {"duration_ns": 400_000_000}
            assert calls_seen[name] == expected, name

    def test_explicit_duration_on_a_fixed_workload_figure_is_an_error(
        self, calls_seen, capsys
    ):
        for name in FIXED_WORKLOAD:
            with pytest.raises(SystemExit) as exit_info:
                main(["run", name, "--duration-ms", "50"])
            assert exit_info.value.code == 2
            captured = capsys.readouterr()
            assert name in captured.err and "--duration-ms" in captured.err
            assert captured.out == ""  # nothing ran, nothing printed
        assert calls_seen == {}

    def test_run_all_applies_duration_to_the_figures_that_take_it(self, calls_seen, capsys):
        assert main(["run", "all", "--duration-ms", "50"]) == 0
        for name in FIGURES:
            expected = {} if name in FIXED_WORKLOAD else {"duration_ns": 50_000_000}
            assert calls_seen[name] == expected, name


class TestExecution:
    def test_run_fig7a_end_to_end(self, capsys):
        assert main(["run", "fig7a", "--duration-ms", "100"]) == 0
        out = capsys.readouterr().out
        assert "baseline avg" in out
        assert "paper <1%" in out

    def test_run_fig8b_end_to_end(self, capsys):
        assert main(["run", "fig8b", "--duration-ms", "100"]) == 0
        out = capsys.readouterr().out
        assert "Case I" in out and "Case III" in out


class TestTimeline:
    """The `repro timeline` verb (docs/TIMELINES.md)."""

    def test_trace_id_accepts_hex_and_decimal(self):
        parser = build_parser()
        assert parser.parse_args(
            ["timeline", "--trace-id", "0xc2a5e8a3"]
        ).trace_id == 0xC2A5E8A3
        assert parser.parse_args(["timeline", "--trace-id", "99"]).trace_id == 99
        with pytest.raises(SystemExit):
            parser.parse_args(["timeline", "--trace-id", "zebra"])

    def test_text_format_reports_forest_and_analysis(self, capsys):
        assert main(["timeline", "--duration-ms", "150", "--format", "text"]) == 0
        out = capsys.readouterr().out
        assert "span forest:" in out
        assert "critical path" in out
        assert "per-hop percentiles:" in out

    def test_chrome_export_is_deterministic(self, tmp_path):
        # The acceptance property CI also diffs: same seed, same bytes.
        first, second = tmp_path / "a.json", tmp_path / "b.json"
        for path in (first, second):
            assert main(["timeline", "--duration-ms", "150",
                         "--format", "chrome", "--out", str(path)]) == 0
        assert first.read_bytes() == second.read_bytes()
        import json

        doc = json.loads(first.read_text())
        assert doc["traceEvents"]
        assert doc["otherData"]["trees"] > 0

    def test_file_and_stdout_exports_are_the_same_bytes(self, tmp_path, capsys):
        # --out streams through write_chrome_trace; stdout gets the
        # same chunks.  Both must be the one canonical document.
        for verb in (["timeline", "--duration-ms", "150"], ["rpc", "--requests", "3"]):
            path = tmp_path / f"{verb[0]}.json"
            assert main(verb + ["--format", "chrome", "--out", str(path)]) == 0
            capsys.readouterr()
            assert main(verb + ["--format", "chrome"]) == 0
            printed = capsys.readouterr().out
            assert path.read_text() == printed
            assert printed.endswith("]}\n")

    def test_otlp_export_parses(self, tmp_path):
        import json

        out = tmp_path / "otlp.json"
        assert main(["timeline", "--duration-ms", "150",
                     "--format", "otlp", "--out", str(out)]) == 0
        doc = json.loads(out.read_text())
        spans = doc["resourceSpans"][0]["scopeSpans"][0]["spans"]
        assert spans and all(len(s["traceId"]) == 32 for s in spans)

    def test_unknown_trace_id_fails_cleanly(self, capsys):
        assert main(["timeline", "--duration-ms", "150", "--format", "text",
                     "--trace-id", "0x1"]) == 1
        assert "not found" in capsys.readouterr().err

    def test_single_trace_selection(self, capsys):
        # Find a real ID from a text run, then export just that trace.
        assert main(["timeline", "--duration-ms", "150", "--format", "text"]) == 0
        out = capsys.readouterr().out
        trace_id = next(
            line.split()[1].split(":", 1)[1]
            for line in out.splitlines()
            if line.startswith("packet")
        )
        assert main(["timeline", "--duration-ms", "150", "--format", "text",
                     "--trace-id", trace_id]) == 0
        selected = capsys.readouterr().out
        assert "span forest: 1 trees" in selected
