"""The ScenarioSpec registry: the one table of runnable things.

`repro list` prints :data:`repro.experiments.SCENARIOS`, `repro run`
takes its figures from it, the pin table (`python -m tests.pins`) its
`bench:` rows (the specs with a `pinned` role) and `repro rpc` resolves
its runner through it; the per-module entry points stay importable (they
*are* the implementations the specs point at).
"""

import inspect
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from repro.experiments import (
    SCENARIOS,
    ScenarioSpec,
    figure_names,
    get_scenario,
    pinned_names,
    register_scenario,
    scenario_names,
)

REPO = Path(__file__).resolve().parent.parent

FIGURES = (
    "fig10a", "fig10b", "fig11", "fig12b", "fig13a", "fig13b",
    "fig4", "fig7a", "fig7b", "fig8b", "fig9a", "fig9b",
)  # fmt: skip
BENCH_ONLY = (
    "ablation_collection_mode", "ablation_ebpf_jit", "ablation_filter_selectivity",
    "ablation_ratelimit_sweep", "ablation_ring_buffer", "ablation_trace_ids",
    "macro_fleet_shards4", "macro_fleet_single",
)  # fmt: skip
EXPECTED = tuple(
    sorted(
        FIGURES
        + BENCH_ONLY
        + ("fault_case", "macro_fleet", "ovs_case", "quickstart", "rpc_case")
    )
)


class TestRegistry:
    def test_expected_scenarios_registered(self):
        assert scenario_names() == EXPECTED

    def test_unknown_name_lists_known_ones(self):
        with pytest.raises(KeyError, match="quickstart"):
            get_scenario("nope")

    def test_duplicate_registration_rejected(self):
        with pytest.raises(ValueError, match="already registered"):
            register_scenario(SCENARIOS["quickstart"])

    def test_malformed_reference_rejected(self):
        spec = ScenarioSpec(
            name="x", title="x", build="no_colon", run="a:b", digest="a:b"
        )
        with pytest.raises(ValueError, match="module:attr"):
            spec.build_fn()

    def test_absent_optional_reference_is_a_clean_error(self):
        # build / digest / present are optional: figures carry no
        # invented builder or digest, the five scenarios no presenter.
        with pytest.raises(ValueError, match="fig7a.*build"):
            get_scenario("fig7a").build_fn()
        with pytest.raises(ValueError, match="rpc_case.*present"):
            get_scenario("rpc_case").present_fn()

    def test_every_spec_resolves(self):
        for name in scenario_names():
            spec = get_scenario(name)
            assert callable(spec.run_fn())
            for role in ("present", "build", "digest", "pinned"):
                if getattr(spec, role) is not None:
                    assert callable(getattr(spec, f"{role}_fn")()), (name, role)

    def test_every_runner_runs_on_its_defaults(self):
        """``spec.run_fn()()`` is a valid call for every spec (the reach
        audit in tools/reach.py makes it)."""
        for name in scenario_names():
            # Raises TypeError, naming the argument, if one is required.
            inspect.signature(get_scenario(name).run_fn()).bind()

    def test_bench_scenarios_are_the_specs_with_a_pinned_role(self):
        assert pinned_names() == tuple(sorted(FIGURES + BENCH_ONLY + ("macro_fleet",)))
        for name in BENCH_ONLY:
            spec = get_scenario(name)
            assert spec.present is None and spec.digest is None, name

    def test_every_pinned_role_takes_no_parameters(self):
        """The pin table calls ``spec.pinned_fn()()``: one fixed workload
        per spec, no scale knob."""
        for name in pinned_names():
            params = inspect.signature(get_scenario(name).pinned_fn()).parameters
            assert not params, f"{name}: pinned takes {list(params)}"

    def test_figures_are_the_specs_with_a_presenter(self):
        assert figure_names() == FIGURES
        for name in FIGURES:
            spec = get_scenario(name)
            assert spec.build is None and spec.digest is None
            # `repro run --seed` reaches every figure through this keyword.
            assert "seed" in inspect.signature(spec.run_fn()).parameters

    def test_import_is_cheap(self):
        """``import repro.experiments`` runs inside every pipeline_bench
        child: on top of ``import repro`` it must load the registry
        module and nothing else -- no case module, no runner's imports
        (``repro.workloads.stats`` is already in via ``repro.core``)."""
        code = (
            "import sys, repro\n"
            "before = set(sys.modules)\n"
            "import repro.experiments as e\n"
            "assert len(e.SCENARIOS) == %d\n"
            "print(sorted(m for m in set(sys.modules) - before if m.startswith('repro')))\n"
            "print([m for m in sys.modules if m.startswith('repro.experiments.')"
            " or m == 'repro.obs.scenario'])\n" % len(EXPECTED)
        )
        result = subprocess.run(
            [sys.executable, "-c", code],
            capture_output=True, text=True, check=True,
            env={**os.environ, "PYTHONPATH": str(REPO / "src")},
        )
        assert result.stdout.splitlines() == ["['repro.experiments']", "[]"]


class TestOneTable:
    """EXPERIMENTS.md names the registry's figures, runner paths and
    the claims test of each (`repro run` choices and `repro list` output
    are pinned to the same table by tests/test_cli.py::TestParser)."""

    def test_experiments_md_figure_table_matches_the_registry(self):
        text = (REPO / "EXPERIMENTS.md").read_text()
        match = re.search(
            r"<!-- figures:begin -->\n(.*?)<!-- figures:end -->", text, re.DOTALL
        )
        assert match, "EXPERIMENTS.md is missing the figures marker block"
        documented = {}
        for line in match.group(1).splitlines():
            cells = [cell.strip().strip("`") for cell in line.strip().strip("|").split("|")]
            if len(cells) == 4 and cells[1].startswith("fig"):
                _figure, name, runner, claims = cells
                path, _, test = claims.partition("::")
                assert f"def {test}(" in (REPO / path).read_text(), claims
                documented[name] = runner
        assert documented == {
            name: SCENARIOS[name].run.replace(":", ".") for name in FIGURES
        }


class TestResolutionIdentity:
    """The registry resolves to the *same* callables the legacy
    entry-point imports give you -- the specs are pointers, not forks."""

    def test_quickstart(self):
        from repro.obs.scenario import quickstart_digest, run_quickstart_scenario

        assert get_scenario("quickstart").run_fn() is run_quickstart_scenario
        assert get_scenario("quickstart").digest_fn() is quickstart_digest

    def test_ovs_case(self):
        from repro.experiments.ovs_case import run_case

        assert get_scenario("ovs_case").run_fn() is run_case

    def test_fault_case(self):
        from repro.experiments.fault_case import _build_pair, run_fault_case

        assert get_scenario("fault_case").run_fn() is run_fault_case
        # The public alias the registry references is the historical
        # private builder.
        assert get_scenario("fault_case").build_fn() is _build_pair

    def test_macro_fleet(self):
        from repro.experiments.macro_fleet import FleetConfig, run_macro_fleet

        assert get_scenario("macro_fleet").run_fn() is run_macro_fleet
        assert get_scenario("macro_fleet").build_fn() is FleetConfig

    def test_rpc_case(self):
        from repro.experiments.rpc_case import default_service_graph, run_rpc_case

        assert get_scenario("rpc_case").run_fn() is run_rpc_case
        assert get_scenario("rpc_case").build_fn() is default_service_graph


class TestLegacyEntryPoints:
    """The pre-registry import paths keep working verbatim."""

    def test_legacy_imports(self):
        from repro.experiments.fault_case import run_fault_equivalence  # noqa: F401
        from repro.experiments.overhead import run_fig7b  # noqa: F401
        from repro.experiments.xen_case import run_fig11_condition  # noqa: F401
        from repro.experiments.macro_fleet import run_macro_fleet  # noqa: F401
        from repro.experiments.ovs_case import run_case  # noqa: F401
        from repro.obs.scenario import run_quickstart_scenario  # noqa: F401

    def test_legacy_builders(self):
        from repro.experiments.topologies import (  # noqa: F401
            build_ovs_case,
            build_two_host_kvm,
        )


class TestDigests:
    def test_digest_is_deterministic(self):
        digest = get_scenario("quickstart").digest_fn()
        first = digest(duration_ns=150_000_000)
        second = digest(duration_ns=150_000_000)
        assert first == second
        assert len(first) == 16
        int(first, 16)  # hex
