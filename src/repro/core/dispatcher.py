"""The control data dispatcher (master node, §III-A).

Takes a user's :class:`~repro.core.config.TracingSpec`, formats it into
per-node :class:`~repro.core.config.ControlPackage` objects ("formatted
configuration files in control packages and tracing scripts") and ships
them to the agents over a simulated control channel.  Re-deploying a
new spec at runtime reconfigures the agents without restarting the
monitored network -- the programmability claim of §III-D.

Delivery is resilient (docs/FAULTS.md): every package is stamped with
a monotone deploy ID, the target agent acks installation, and an
unacked package is retransmitted after an ack timeout with capped
exponential backoff until the attempt budget
(``GlobalConfig.deploy_max_attempts``) runs out.  Installation is
idempotent on the agent side (duplicate deliveries ack without
reinstalling; stale ones are ignored), so retries and fault-injected
duplicates are safe.  :class:`DispatchError` is raised synchronously
for a spec naming an unregistered node, and asynchronously (out of
``engine.run()``) only once a package exhausts its retry budget while
retries are enabled; with retries disabled (``deploy_max_attempts=1``)
a lost package is accounted in the report and the fault counters
instead.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple, TYPE_CHECKING

from repro.core.config import ControlPackage, GlobalConfig, TracingSpec
from repro.core.reports import DeployReport
from repro.faults.metrics import FaultMetrics
from repro.obs.registry import MetricsRegistry
from repro.sim.engine import Engine

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.agent import Agent
    from repro.faults.inject import FaultInjector


# Dispatcher -> agent delivery latency of one package (or its ack).
CONTROL_LATENCY_NS = 200_000
# Backoff before attempt N (N >= 2): min(base * 2**(N-2), cap), on top
# of the ack timeout.
DEPLOY_BACKOFF_BASE_NS = 500_000
DEPLOY_BACKOFF_CAP_NS = 8_000_000


class DispatchError(RuntimeError):
    """A spec references a node with no registered agent, or a package
    exhausted its delivery retry budget."""


class _PendingDelivery:
    """Retry state for one package of one deploy."""

    __slots__ = ("package", "agent", "report", "cfg", "attempts", "acked",
                 "failed", "timer")

    def __init__(self, package: ControlPackage, agent: "Agent",
                 report: DeployReport, cfg: GlobalConfig):
        self.package = package
        self.agent = agent
        self.report = report
        self.cfg = cfg
        self.attempts = 0
        self.acked = False
        self.failed = False
        self.timer = None


class ControlDataDispatcher:
    """Formats and distributes control packages."""

    def __init__(
        self,
        engine: Engine,
        master_name: str = "master",
        registry: Optional[MetricsRegistry] = None,
    ):
        self.engine = engine
        self.master_name = master_name
        self.agents: Dict[str, "Agent"] = {}
        self.deployments = 0
        self.injector: "Optional[FaultInjector]" = None
        self.fault_metrics = FaultMetrics(registry)
        # (dispatch_ns, installed_ns, node) per delivered control
        # package -- the dispatcher->agent legs of the control-plane
        # timeline (docs/TIMELINES.md).
        self.deploy_log: List[Tuple[int, int, str]] = []
        self._deploy_ids = 0
        self._pending: Dict[Tuple[int, str], _PendingDelivery] = {}

    def register_agent(self, agent: "Agent") -> None:
        self.agents[agent.node.name] = agent

    def set_fault_injector(self, injector: "Optional[FaultInjector]") -> None:
        """Route control-channel messages through a fault injector."""
        self.injector = injector

    def build_packages(self, spec: TracingSpec) -> List[ControlPackage]:
        packages = []
        for node in spec.nodes():
            packages.append(
                ControlPackage(
                    node=node,
                    rule=spec.rule,
                    tracepoints=spec.tracepoints_for(node),
                    action=spec.action,
                    global_config=spec.global_config,
                )
            )
        return packages

    def deploy(self, spec: TracingSpec) -> DeployReport:
        """Ship the spec; agents install after the control latency.

        Returns a :class:`DeployReport`; its attempt / ack fields fill
        in as the engine runs."""
        packages = self.build_packages(spec)
        for package in packages:
            if package.node not in self.agents:
                raise DispatchError(
                    f"no agent registered for node {package.node!r} "
                    f"(have {sorted(self.agents)})"
                )
        self._deploy_ids += 1
        deploy_id = self._deploy_ids
        report = DeployReport(packages=packages, deploy_id=deploy_id)
        cfg = spec.global_config
        for package in packages:
            # A newer deploy supersedes any still-retrying older one for
            # the same node; stop its timer so it cannot fail later.
            for (old_id, node), old in list(self._pending.items()):
                if node == package.node and not old.acked and not old.failed:
                    old.failed = True
                    if old.timer is not None:
                        old.timer.cancel()
                    del self._pending[(old_id, node)]
            state = _PendingDelivery(package, self.agents[package.node], report, cfg)
            self._pending[(deploy_id, package.node)] = state
            self._attempt(deploy_id, state)
        self.deployments += 1
        return report

    # -- delivery + retry ---------------------------------------------------

    def _attempt(self, deploy_id: int, state: _PendingDelivery) -> None:
        state.attempts += 1
        state.report.attempts += 1
        if state.attempts > 1:
            state.report.retries += 1
            self.fault_metrics.deploy_retry(state.package.node)
        self.fault_metrics.deploy_attempt(state.package.node)
        node = state.package.node
        state.report.attempts_by_node[node] = state.attempts

        latency = CONTROL_LATENCY_NS
        decision = (
            self.injector.control_decision() if self.injector is not None else None
        )
        sent_ns = self.engine.now
        if decision is None or not decision.drop:
            delay = latency + (decision.extra_delay_ns if decision else 0)
            self.engine.schedule(delay, self._deliver, deploy_id, state, sent_ns)
            if decision is not None and decision.duplicate:
                self.engine.schedule(
                    delay + latency, self._deliver, deploy_id, state, sent_ns)
        state.timer = self.engine.timer(
            latency + state.cfg.deploy_ack_timeout_ns + self._backoff(state),
            self._check_ack, deploy_id, state,
        )

    def _backoff(self, state: _PendingDelivery) -> int:
        """Capped exponential backoff added before the *next* retry."""
        if state.attempts < 2:
            return 0
        raw = DEPLOY_BACKOFF_BASE_NS * (2 ** (state.attempts - 2))
        return min(raw, DEPLOY_BACKOFF_CAP_NS)

    def _deliver(self, deploy_id: int, state: _PendingDelivery, sent_ns: int) -> None:
        if state.failed:
            return  # superseded by a newer deploy
        agent = state.agent
        if getattr(agent, "crashed", False):
            return  # a crashed agent neither installs nor acks
        status = agent.install(state.package, deploy_id=deploy_id)
        if status == "installed":
            self.deploy_log.append((sent_ns, self.engine.now, state.package.node))
        if status in ("installed", "duplicate"):
            # The ack crosses the same lossy control channel.
            decision = (
                self.injector.control_decision()
                if self.injector is not None else None
            )
            if decision is None or not decision.drop:
                delay = CONTROL_LATENCY_NS + (
                    decision.extra_delay_ns if decision else 0)
                self.engine.schedule(delay, self._on_ack, deploy_id, state)

    def _on_ack(self, deploy_id: int, state: _PendingDelivery) -> None:
        if state.acked or state.failed:
            return
        state.acked = True
        if state.timer is not None:
            state.timer.cancel()
            state.timer = None
        state.report.acked_nodes.append(state.package.node)
        self._pending.pop((deploy_id, state.package.node), None)

    def _check_ack(self, deploy_id: int, state: _PendingDelivery) -> None:
        if state.acked or state.failed:
            return
        if state.attempts < state.cfg.deploy_max_attempts:
            self._attempt(deploy_id, state)
            return
        state.failed = True
        state.report.failed_nodes.append(state.package.node)
        self._pending.pop((deploy_id, state.package.node), None)
        if state.cfg.deploy_max_attempts > 1:
            # Retries were enabled and the budget is spent: fail loudly
            # (propagates out of engine.run()).  With retries disabled
            # the loss is visible in the report and fault counters.
            raise DispatchError(
                f"control package for {state.package.node!r} unacked after "
                f"{state.attempts} attempts (deploy {deploy_id})"
            )

    def undeploy_all(self) -> None:
        for agent in self.agents.values():
            agent.teardown()

    def __repr__(self) -> str:
        return f"<ControlDataDispatcher agents={sorted(self.agents)}>"
