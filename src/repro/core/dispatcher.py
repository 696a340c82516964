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

from repro.core.config import ControlPackage, TracingSpec
from repro.core.delivery import AtLeastOnceSender, Delivery
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
        self.fault_metrics = FaultMetrics(registry)
        # (dispatch_ns, installed_ns, node) per delivered control
        # package -- the dispatcher->agent legs of the control-plane
        # timeline (docs/TIMELINES.md).
        self.deploy_log: List[Tuple[int, int, str]] = []
        self._deploy_ids = 0
        # The at-least-once leg to the agents.  A delivery's payload is
        # ``(deploy_id, package, report)``; its budget is the spec's at
        # deploy() -- each package carries that config.
        self._sender = AtLeastOnceSender(
            engine,
            latency_ns=CONTROL_LATENCY_NS,
            backoff_base_ns=DEPLOY_BACKOFF_BASE_NS,
            backoff_cap_ns=DEPLOY_BACKOFF_CAP_NS,
            budget=self._budget,
            arrived=self._arrived,
            counted=self._counted,
            acked=self._acked,
            gave_up=self._gave_up,
        )
        # node -> its one delivery still awaiting an ack.
        self._pending: Dict[str, Delivery] = {}

    def register_agent(self, agent: "Agent") -> None:
        self.agents[agent.node.name] = agent

    def set_fault_injector(self, injector: "Optional[FaultInjector]") -> None:
        """Route control-channel messages through a fault injector."""
        self._sender.decide = injector.control_decision if injector is not None else None

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
        for package in packages:
            # A newer deploy supersedes a still-retrying older one for
            # the same node, so that one cannot fail later.
            old = self._pending.get(package.node)
            if old is not None:
                self._sender.cancel(old)
            delivery = Delivery((deploy_id, package, report))
            self._pending[package.node] = delivery
            self._sender.transmit(delivery)
        self.deployments += 1
        return report

    # -- the sender's hooks (core/delivery.py) ------------------------------

    @staticmethod
    def _budget(delivery: Delivery) -> Tuple[int, int]:
        cfg = delivery.payload[1].global_config
        return cfg.deploy_max_attempts, cfg.deploy_ack_timeout_ns

    def _counted(self, delivery: Delivery) -> None:
        _, package, report = delivery.payload
        node = package.node
        report.attempts += 1
        if delivery.attempts > 1:
            report.retries += 1
            self.fault_metrics.deploy_retry(node)
        self.fault_metrics.deploy_attempt(node)
        report.attempts_by_node[node] = delivery.attempts

    def _arrived(self, delivery: Delivery, sent_ns: int) -> bool:
        if delivery.abandoned:
            return False  # superseded by a newer deploy, or given up
        deploy_id, package, _ = delivery.payload
        # A crashed agent answers "down": it neither installs nor acks.
        status = self.agents[package.node].install(package, deploy_id=deploy_id)
        if status == "installed":
            self.deploy_log.append((sent_ns, self.engine.now, package.node))
        return status in ("installed", "duplicate")

    def _acked(self, delivery: Delivery) -> None:
        _, package, report = delivery.payload
        report.acked_nodes.append(package.node)
        del self._pending[package.node]

    def _gave_up(self, delivery: Delivery) -> None:
        deploy_id, package, report = delivery.payload
        report.failed_nodes.append(package.node)
        del self._pending[package.node]
        if package.global_config.deploy_max_attempts > 1:
            # Retries were enabled and the budget is spent: fail loudly
            # (propagates out of engine.run()).  With retries disabled
            # the loss is visible in the report and fault counters.
            raise DispatchError(
                f"control package for {package.node!r} unacked after "
                f"{delivery.attempts} attempts (deploy {deploy_id})"
            )

    def undeploy_all(self) -> None:
        for agent in self.agents.values():
            agent.teardown()

    def __repr__(self) -> str:
        return f"<ControlDataDispatcher agents={sorted(self.agents)}>"
