"""Experiment scenarios reproducing the paper's evaluation (§IV).

Each module builds its topology from :mod:`repro.experiments.topologies`
and returns structured results; the ``benchmarks/`` tree and the
runnable ``examples/`` are thin wrappers over these runners, so every
figure regenerates from one code path.

==================  ================================================
module              paper content
==================  ================================================
overhead            Fig. 7(a) latency overhead, Fig. 7(b) throughput
                    vs. SystemTap on 1 G / 10 G
ovs_case            Case Study I: Fig. 8(b), Fig. 9(a), Fig. 9(b)
xen_case            Case Study II: Fig. 10(a/b), Fig. 11(a/b)
container_case      Case Study III: Fig. 12(b), Fig. 13(a/b)
clocksync_case      §III-B Cristian estimation accuracy (Fig. 4)
rpc_case            cross-service RPC tracing (docs/SERVICES.md)
==================  ================================================

:data:`SCENARIOS` is the one table of runnable things: ``repro list``
prints it, ``repro run`` takes its choices, runners and presenters from
it (the entries with a ``present`` reference are the paper figures),
and ``repro rpc`` resolves its runner through it.  Specs hold *dotted
references* (``"module:attr"``), so registering or listing a scenario
imports nothing -- ``import repro.experiments`` runs inside every
``pipeline_bench`` child; the referenced callables load on first use
via :meth:`ScenarioSpec.run_fn` and its siblings.
"""

from __future__ import annotations

import importlib
from dataclasses import dataclass
from typing import Callable, Dict, Optional, Tuple


@dataclass(frozen=True)
class ScenarioSpec:
    """One discoverable scenario.  Every reference is a lazy
    ``"module:attr"`` string:

    * ``run`` -- the runner returning the scenario's result object;
    * ``present`` -- paper figures only: ``result -> lines``, the block
      ``repro run`` prints, living beside its runner;
    * ``build`` -- constructs the scenario's topology / config without
      running it (a scene builder, a ServiceGraph, a FleetConfig ...);
    * ``digest`` -- a zero-to-few-argument callable returning a short
      deterministic hex digest of a small run.
    """

    name: str
    title: str
    run: str
    present: Optional[str] = None
    build: Optional[str] = None
    digest: Optional[str] = None

    def _resolve(self, role: str) -> Callable:
        ref = getattr(self, role)
        if ref is None:
            raise ValueError(f"scenario {self.name!r} has no {role!r} reference")
        module_name, sep, attr = ref.partition(":")
        if not sep or not attr:
            raise ValueError(f"scenario reference {ref!r} is not 'module:attr'")
        return getattr(importlib.import_module(module_name), attr)

    def run_fn(self) -> Callable:
        return self._resolve("run")

    def present_fn(self) -> Callable:
        return self._resolve("present")

    def build_fn(self) -> Callable:
        return self._resolve("build")

    def digest_fn(self) -> Callable:
        return self._resolve("digest")


SCENARIOS: Dict[str, ScenarioSpec] = {}


def register_scenario(spec: ScenarioSpec) -> ScenarioSpec:
    """Add a spec to the shared table (duplicate names are an error)."""
    if spec.name in SCENARIOS:
        raise ValueError(f"scenario {spec.name!r} already registered")
    SCENARIOS[spec.name] = spec
    return spec


def get_scenario(name: str) -> ScenarioSpec:
    try:
        return SCENARIOS[name]
    except KeyError:
        raise KeyError(
            f"unknown scenario {name!r}; registered: {', '.join(scenario_names())}"
        ) from None


def scenario_names() -> Tuple[str, ...]:
    return tuple(sorted(SCENARIOS))


def figure_names() -> Tuple[str, ...]:
    """The paper figures: what ``repro run`` accepts, in its order."""
    return tuple(name for name in scenario_names() if SCENARIOS[name].present)


# The paper figures -- name, title, module, runner -- each with its
# presenter ``present_<name>`` beside the runner.
for _name, _title, _module, _runner in (
    ("fig4", "Fig. 4: Cristian clock-skew estimation accuracy", "clocksync_case", "run_fig4_sweep"),
    ("fig7a", "Fig. 7(a): sockperf latency, traced vs. untraced", "overhead", "run_fig7a"),
    ("fig7b", "Fig. 7(b): netperf throughput vs. SystemTap, 1G/10G", "overhead", "run_fig7b_sweep"),
    ("fig8b", "Fig. 8(b): sockperf latency in OVS Cases I / II / III", "ovs_case", "run_fig8b"),
    ("fig9a", "Fig. 9(a): OVS latency decomposition, Cases I to III+", "ovs_case", "run_fig9a"),
    ("fig9b", "Fig. 9(b): OVS Cases II / III with ingress policing", "ovs_case", "run_fig9b"),
    ("fig10a", "Fig. 10(a): Xen credit2 rate limit under sockperf", "xen_case", "run_fig10a"),
    ("fig10b", "Fig. 10(b): Xen credit2 rate limit under memcached", "xen_case", "run_fig10b"),
    ("fig11", "Fig. 11(a/b): per-packet decomposition on the Xen path", "xen_case", "run_fig11"),
    ("fig12b", "Fig. 12(b): VM vs. container-overlay throughput", "container_case", "run_fig12b"),
    ("fig13a", "Fig. 13(a): net_rx_action rate and softirq CPUs", "container_case", "run_fig13a"),
    ("fig13b", "Fig. 13(b): VM vs. container-overlay data path", "container_case", "run_fig13b"),
):
    register_scenario(
        ScenarioSpec(
            name=_name,
            title=_title,
            run=f"repro.experiments.{_module}:{_runner}",
            present=f"repro.experiments.{_module}:present_{_name}",
        )
    )
register_scenario(
    ScenarioSpec(
        name="quickstart",
        title="Two-host KVM quickstart with the full observability stack",
        run="repro.obs.scenario:run_quickstart_scenario",
        build="repro.experiments.topologies:build_two_host_kvm",
        digest="repro.obs.scenario:quickstart_digest",
    )
)
register_scenario(
    ScenarioSpec(
        name="ovs_case",
        title="Case Study I: OVS congestion (Fig. 8b / 9a / 9b)",
        run="repro.experiments.ovs_case:run_case",
        build="repro.experiments.topologies:build_ovs_case",
        digest="repro.experiments.ovs_case:ovs_case_digest",
    )
)
register_scenario(
    ScenarioSpec(
        name="fault_case",
        title="Fault-equivalence: lossy control/shipment vs fault-free",
        run="repro.experiments.fault_case:run_fault_case",
        build="repro.experiments.fault_case:build_pair",
        digest="repro.experiments.fault_case:fault_case_digest",
    )
)
register_scenario(
    ScenarioSpec(
        name="macro_fleet",
        title="1000-node sharded fleet simulation",
        run="repro.experiments.macro_fleet:run_macro_fleet",
        build="repro.experiments.macro_fleet:FleetConfig",
        digest="repro.experiments.macro_fleet:macro_fleet_digest",
    )
)
register_scenario(
    ScenarioSpec(
        name="rpc_case",
        title="Cross-service RPC tracing over a declarative ServiceGraph",
        run="repro.experiments.rpc_case:run_rpc_case",
        build="repro.experiments.rpc_case:default_service_graph",
        digest="repro.experiments.rpc_case:rpc_case_digest",
    )
)
