"""The figure-regeneration CLI."""

import pytest

import repro.cli as cli
from repro.cli import FIGURES, build_parser, main


class TestParser:
    def test_list_command(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        for name in FIGURES:
            assert name in out

    def test_run_requires_figure(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run"])

    def test_unknown_figure_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "fig99"])

    def test_all_figures_have_runners(self):
        parser = build_parser()
        for name in FIGURES:
            args = parser.parse_args(["run", name])
            assert args.figure == name

    def test_duration_flag_parsed(self):
        args = build_parser().parse_args(["run", "fig7a", "--duration-ms", "123"])
        assert args.duration_ms == 123


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


class TestRunSeeds:
    @pytest.fixture
    def seeds_seen(self, monkeypatch):
        """Swap every figure runner for one that records its seed."""
        seen = {}
        monkeypatch.setattr(
            cli,
            "FIGURES",
            {
                name: (lambda args, name=name: seen.__setitem__(name, args.seed))
                for name in FIGURES
            },
        )
        return seen

    def test_explicit_seed_reaches_every_runner(self, seeds_seen, capsys):
        assert main(["run", "all", "--seed", "99"]) == 0
        assert seeds_seen == dict.fromkeys(FIGURES, 99)

    def test_default_seeds_are_each_runners_own(self, seeds_seen, capsys):
        assert main(["run", "all"]) == 0
        assert set(seeds_seen) == set(FIGURES)
        assert seeds_seen["fig4"] == 7 and seeds_seen["fig13b"] == 23
        single = dict(seeds_seen)
        assert main(["run", "fig10a"]) == 0
        assert seeds_seen == single  # same default alone as under "all"


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
