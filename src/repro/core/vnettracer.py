"""The vNetTracer façade: dispatcher + agents + collector wired together.

Typical use (mirrors the §III-A walkthrough):

    tracer = VNetTracer(engine)
    tracer.add_agent(host1.node)
    tracer.add_agent(vm1.node)
    tracer.synchronize_clocks(master_node, master_ip, "dev:eth0",
                              vm1.node, vm1_ip, "dev:ens3")
    spec = TracingSpec(rule=FilterRule.for_flow(...),
                       tracepoints=[TracepointSpec(node=..., hook=...), ...])
    tracer.deploy(spec)
    ... run the experiment ...
    tracer.collect()                       # offline collection
    segments = tracer.decompose([...])     # metrics over the TraceDB
    forest = tracer.span_forest([...])     # per-packet span trees
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

from repro.core.agent import Agent
from repro.core.clocksync import ClockSynchronizer, SkewEstimate
from repro.core.collector import RawDataCollector
from repro.core.config import TracingSpec
from repro.core.dispatcher import ControlDataDispatcher
from repro.core.metrics import (
    SegmentLatency,
    ThroughputResult,
    decompose_latency,
    event_rate,
    latency_between,
    packet_loss,
    per_cpu_distribution,
    throughput_at,
)
from repro.core.reports import CollectReport, DeployReport
from repro.core.tracedb import TraceDB
from repro.faults.inject import FaultInjector
from repro.faults.plan import FaultPlan
from repro.net.addressing import IPv4Address
from repro.net.stack import KernelNode
from repro.net.traceid import TraceIDEngine
from repro.obs import contract as obs_contract
from repro.obs.instrument import register_ebpf_metrics
from repro.obs.registry import MetricsRegistry
from repro.obs.sampler import StatsSampler
from repro.sim.engine import Engine


class VNetTracer:
    """End-to-end tracing framework entry point.

    Every tracer owns a self-observability registry (``self.obs``,
    see :mod:`repro.obs`): the collector, agents, ring buffers, clock
    synchronizers, and the eBPF VM all export into it per the contract
    in ``docs/OBSERVABILITY.md``.  Call :meth:`attach_stats_sampler`
    to snapshot it periodically and :meth:`pipeline_health` for a
    rendered report.
    """

    def __init__(
        self,
        engine: Engine,
        master_name: str = "master",
        registry: Optional[MetricsRegistry] = None,
    ):
        self.engine = engine
        self.obs = registry if registry is not None else MetricsRegistry()
        self.db = TraceDB(registry=self.obs)
        self.collector = RawDataCollector(engine, self.db, registry=self.obs)
        self.dispatcher = ControlDataDispatcher(engine, master_name, registry=self.obs)
        self.agents: Dict[str, Agent] = {}
        self.fault_plan: Optional[FaultPlan] = None
        self.fault_injector: Optional[FaultInjector] = None
        self.active_spec: Optional[TracingSpec] = None
        self.clock_estimates: Dict[str, SkewEstimate] = {}
        self.sampler: Optional[StatsSampler] = None
        self.streaming = None  # StreamingAggregator via attach_streaming
        self._sync_programs: List = []
        self._span_assembler = None
        register_ebpf_metrics(self.obs, self._iter_programs)

    # -- setup ------------------------------------------------------------

    def add_agent(self, node: KernelNode, enable_packet_ids: bool = True) -> Agent:
        """Install an agent daemon (and the trace-ID kernel patch) on a node."""
        if node.name in self.agents:
            return self.agents[node.name]
        if enable_packet_ids:
            TraceIDEngine.attach(node)
        agent = Agent(node, self.collector, registry=self.obs)
        if self.fault_injector is not None:
            agent.set_fault_injector(self.fault_injector)
        self.agents[node.name] = agent
        self.dispatcher.register_agent(agent)
        return agent

    def add_service_graph(self, graph, **compile_options):
        """Compile a :class:`~repro.services.graph.ServiceGraph` onto
        this tracer's engine (docs/SERVICES.md): every replica node
        gets an agent daemon and the ``vnt_rpc_*`` metrics register in
        ``self.obs``.  ``compile_options`` (``seed``, ``link_gbps``,
        ``propagation_ns``) go to :meth:`ServiceGraph.compile`; returns
        its :class:`~repro.services.runtime.ServiceDeployment` (load
        control and causality links)."""
        deployment = graph.compile(self.engine, registry=self.obs, **compile_options)
        for node in deployment.nodes:
            self.add_agent(node)
        return deployment

    def set_fault_plan(self, plan: Optional[FaultPlan]) -> Optional[FaultInjector]:
        """Attach a :class:`~repro.faults.plan.FaultPlan`: control and
        shipment channels start drawing fault decisions from the plan's
        seeded RNG streams, and scheduled crashes / ring-pressure
        windows are armed on the engine (docs/FAULTS.md).  Pass ``None``
        to detach.  Returns the armed injector."""
        self.fault_plan = plan
        if plan is None:
            self.fault_injector = None
            self.dispatcher.set_fault_injector(None)
            for agent in self.agents.values():
                agent.set_fault_injector(None)
            return None
        injector = FaultInjector(self.engine, plan, registry=self.obs)
        self.fault_injector = injector
        self.dispatcher.set_fault_injector(injector)
        for agent in self.agents.values():
            agent.set_fault_injector(injector)
        injector.arm(self.agents.get)
        return injector

    def synchronize_clocks(
        self,
        master_node: KernelNode,
        master_ip: IPv4Address,
        master_nic_hook: str,
        target_node: KernelNode,
        target_ip: IPv4Address,
        target_nic_hook: str,
        samples: int = 100,
    ) -> ClockSynchronizer:
        """Start a Cristian exchange; the estimate lands in the TraceDB
        (as the per-node alignment offset) when it completes."""
        sync = ClockSynchronizer(
            master_node,
            master_ip,
            master_nic_hook,
            target_node,
            target_ip,
            target_nic_hook,
            samples=samples,
            registry=self.obs,
        )
        self._sync_programs.extend(sync.programs())

        def record(estimate: SkewEstimate) -> None:
            self.clock_estimates[target_node.name] = estimate
            self.db.set_clock_skew(target_node.name, estimate.skew_ns)

        sync.on_done = record
        sync.start()
        return sync

    # -- deployment -------------------------------------------------------------

    def deploy(self, spec: TracingSpec) -> DeployReport:
        """Ship tracing scripts; they attach after the control latency.

        Returns a :class:`~repro.core.reports.DeployReport` with the
        delivery accounting (attempts, retries, acked agents)."""
        self.active_spec = spec
        self.collector.register_labels(
            {tp.tracepoint_id: tp.label for tp in spec.tracepoints}
        )
        return self.dispatcher.deploy(spec)

    def undeploy(self) -> None:
        self.dispatcher.undeploy_all()

    # -- collection ------------------------------------------------------------------

    def collect(self) -> CollectReport:
        """Offline collection: drain every agent's local store."""
        return self.collector.collect_all_offline()

    # -- span timelines ---------------------------------------------------------

    def span_assembler(self):
        """A :class:`~repro.tracing.reconstruct.SpanAssembler` over this
        tracer's database, exporting into ``self.obs`` (cached so the
        tracing-stage metrics register once)."""
        if self._span_assembler is None:
            self._span_assembler = self.collector.span_feed()
        return self._span_assembler

    def span_forest(
        self,
        chain: Optional[Sequence[str]] = None,
        trace_ids: Optional[Sequence[int]] = None,
        complete_only: bool = True,
        include_control: bool = True,
    ):
        """Reconstruct per-packet span trees (docs/TIMELINES.md).

        With a ``chain``, only traces observed at every tracepoint
        contribute (set ``complete_only=False`` to keep partial ones).
        ``include_control`` adds the dispatcher->agent->collector
        control-plane track."""
        from repro.tracing.reconstruct import build_control_root

        control = None
        if include_control:
            control = build_control_root(
                self.dispatcher.deploy_log,
                [entry for agent in self.agents.values() for entry in agent.ship_log],
            )
        return self.span_assembler().forest(
            trace_ids=trace_ids,
            chain=chain,
            complete_only=complete_only,
            control_root=control,
        )

    def span_tree(self, trace_id: int, chain: Optional[Sequence[str]] = None):
        """One packet's reconstructed span tree (or ``None``)."""
        return self.span_assembler().tree(trace_id, chain=chain)

    def rpc_forest(self, links, chain: Optional[Sequence[str]] = None):
        """Cross-service span forest from the traced rows plus the
        parent/child causality ``links`` a
        :class:`~repro.services.runtime.ServiceDeployment` recorded
        (docs/SERVICES.md)."""
        return self.span_assembler().rpc_forest(links, chain=chain)

    # -- metrics convenience --------------------------------------------------------------

    def latencies(self, from_label: str, to_label: str) -> List[int]:
        return latency_between(self.db, from_label, to_label)

    def decompose(self, chain: Sequence[str]) -> List[SegmentLatency]:
        return decompose_latency(self.db, chain)

    def throughput(self, label: str, **kwargs) -> ThroughputResult:
        return throughput_at(self.db, label, **kwargs)

    def loss(self, from_label: str, to_label: str):
        return packet_loss(self.db, from_label, to_label)

    def cpu_distribution(self, label: str) -> Dict[int, float]:
        return per_cpu_distribution(self.db, label)

    def rate(self, label: str) -> float:
        return event_rate(self.db, label)

    def counter(self, node_name: str, label: str) -> int:
        """An in-kernel per-CPU counter's aggregated value."""
        agent = self.agents.get(node_name)
        return agent.counter(label) if agent else 0

    def size_histogram(self, node_name: str, label: str) -> List[int]:
        """The in-kernel log2 packet-size histogram at a tracepoint."""
        agent = self.agents.get(node_name)
        return agent.histogram(label) if agent else []

    # -- self-observability ------------------------------------------------------

    def _iter_programs(self):
        """Every eBPF program this pipeline loaded: the agents' tracing
        scripts (including torn-down ones) and the clock-sync probes."""
        for agent in self.agents.values():
            for program in agent.loaded_programs:
                yield program
        for program in self._sync_programs:
            yield program

    def attach_stats_sampler(self, interval_ns: int = 50_000_000) -> StatsSampler:
        """Start periodic registry snapshots on the engine (idempotent).

        Also wires the sampler-derived collector ingest-rate gauge."""
        if self.sampler is not None:
            return self.sampler
        self.sampler = StatsSampler(self.engine, self.obs, interval_ns=interval_ns)
        rate_gauge = self.obs.register_spec(obs_contract.COLLECTOR_INGEST_RATE)
        self.sampler.add_rate_gauge(
            rate_gauge, obs_contract.COLLECTOR_RECORDS.name)
        self.sampler.start()
        return self.sampler

    def attach_streaming(
        self,
        chain: Sequence[str],
        window_ns: int = 100_000_000,
        allowed_lateness_ns: int = 0,
        top_k: int = 8,
        emit_interval_ns: Optional[int] = None,
    ):
        """Attach the live window-aggregation layer: an aggregator
        subscribed to this tracer's collector ingest, with its
        ``vnt_stream_*`` metrics in ``self.obs``.  Asking again for the
        configuration already attached returns that aggregator; asking
        for a different one raises ``StreamingError`` (a tracer carries
        one).  Call its ``close_all()`` after final collection to flush
        the last windows (docs/STREAMING.md)."""
        from repro.streaming import StreamingAggregator, StreamingConfig, StreamingError

        config = StreamingConfig(
            chain=tuple(chain),
            window_ns=window_ns,
            allowed_lateness_ns=allowed_lateness_ns,
            top_k=top_k,
            emit_interval_ns=emit_interval_ns,
        )
        if self.streaming is not None:
            if self.streaming.config != config:
                raise StreamingError(
                    f"streaming is already attached as {self.streaming.config}; "
                    f"cannot also attach {config}"
                )
            return self.streaming
        aggregator = StreamingAggregator(config, registry=self.obs)
        aggregator.attach(self.collector)
        if emit_interval_ns is not None:
            aggregator.start_emitter(self.engine, emit_interval_ns)
        self.streaming = aggregator
        return aggregator

    def pipeline_health(self) -> str:
        """The pipeline-health report (see analysis.reports)."""
        from repro.analysis.reports import pipeline_health_report

        return pipeline_health_report(self.obs, sampler=self.sampler)

    def __repr__(self) -> str:
        return f"<VNetTracer agents={sorted(self.agents)} rows={self.db.rows_inserted}>"
