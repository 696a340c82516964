"""The fault-equivalence experiment (docs/FAULTS.md).

One scenario, three legs:

* **fault-free** -- a two-node veth flow traced online, no fault plan;
* **faulty + retries** -- the same run with a lossy control plane *and*
  lossy shipment; the resilient delivery layer (ack/retry deploys,
  at-least-once sequence-numbered shipment with collector-side
  resequencing + dedup) must absorb every fault, so the end-to-end
  results are *identical* to the fault-free leg: same TraceDB row
  count, byte-identical latency decomposition, byte-identical span
  timeline export;
* **faulty, retries disabled** -- the same shipment faults with a
  one-attempt budget; records are genuinely lost, and the point is the
  accounting: ``rows_lost == vnt_fault_records_lost_total`` to within
  zero.

The traffic starts only after the (possibly retried) deploy has
settled, so control-plane faults cannot change which packets are
observed -- they only shift *when* scripts attach inside the settle
window.  Timeline comparison canonicalizes trace-ID order (sorted) and
excludes the control-plane track, whose timings legitimately differ
under faults; everything data-plane must match exactly.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.core import FilterRule, GlobalConfig, TracepointSpec, TracingSpec, VNetTracer
from repro.core.metrics import SegmentLatency
from repro.core.reports import CollectReport, DeployReport
from repro.faults.plan import ChannelFaults, FaultPlan
from repro.net.addressing import IPv4Address
from repro.net.packet import IPPROTO_UDP
from repro.net.stack import KernelNode
from repro.sim import new_engine
from repro.sim.engine import Engine
from repro.tracing.export import chrome_trace_json

# The deploy (with retries) settles well inside this window; traffic
# starts after it so every leg observes the same packets.
TRAFFIC_START_NS = 60_000_000
PACKET_INTERVAL_NS = 250_000
# Trailing settle so in-flight shipments (and their retries) land.
SETTLE_NS = 300_000_000


@dataclass
class FaultCaseResult:
    """Everything one leg produced (plus its fault accounting)."""

    plan: Optional[FaultPlan]
    retries_enabled: bool
    packets_sent: int
    rows: int
    rows_by_label: Dict[str, int]
    decomposition: List[SegmentLatency]
    timeline_json: str
    deploy_report: DeployReport
    collect_report: CollectReport
    records_lost: int
    records_lost_by_reason: Dict[str, int]
    deploy_retries: int
    ship_retries: int
    deduped_batches: int
    metrics: Dict[str, float] = field(default_factory=dict)
    # Streaming query layer (docs/STREAMING.md): the canonical run-level
    # summary (windows closed over the send->recv hop) and the number of
    # skip_shipment gap notices the aggregator saw.
    streaming_summary: str = ""
    streaming_gaps: int = 0
    # The leg's populated TraceDB, kept so the streaming differential
    # suite can compute the offline reference answer from it.
    db: Optional[object] = None


def default_fault_plan(seed: int = 7) -> FaultPlan:
    """The headline lossy-control + lossy-shipment plan."""
    return FaultPlan(
        seed=seed,
        control=ChannelFaults(loss_prob=0.4, dup_prob=0.15, delay_ns_max=300_000),
        shipment=ChannelFaults(loss_prob=0.25, dup_prob=0.15, delay_ns_max=500_000),
    )


def _build_pair(engine: Engine) -> Tuple[KernelNode, KernelNode, IPv4Address, IPv4Address]:
    """Two kernel nodes joined by a veth pair (the test-suite topology)."""
    from repro.net.device import VethDevice

    node_a = KernelNode(engine, "alpha", num_cpus=2)
    node_b = KernelNode(engine, "beta", num_cpus=2)
    veth_a, veth_b = VethDevice.create_pair(node_a, "veth0", node_b, "veth0")
    ip_a, ip_b = IPv4Address("10.1.0.1"), IPv4Address("10.1.0.2")
    veth_a.ip, veth_b.ip = ip_a, ip_b
    node_a.add_route(IPv4Address("10.1.0.0"), 24, veth_a, src_ip=ip_a)
    node_b.add_route(IPv4Address("10.1.0.0"), 24, veth_b, src_ip=ip_b)
    node_a.add_neighbor(ip_b, veth_b.mac)
    node_b.add_neighbor(ip_a, veth_a.mac)
    return node_a, node_b, ip_a, ip_b


def _counter_total(registry, name: str) -> float:
    if name not in registry:
        return 0.0
    return sum(value for _, value in registry.get(name).samples())


def _counter_by_last_label(registry, name: str) -> Dict[str, float]:
    """Totals keyed by a metric's last label value (e.g. the loss
    reason of ``vnt_fault_records_lost_total{node, reason}``)."""
    totals: Dict[str, float] = {}
    if name not in registry:
        return totals
    for labels, value in registry.get(name).samples():
        key = labels[-1] if labels else ""
        totals[key] = totals.get(key, 0.0) + value
    return totals


def run_fault_case(
    seed: int = 7,
    plan: Optional[FaultPlan] = None,
    packets: int = 200,
    retries: bool = True,
) -> FaultCaseResult:
    """Run one leg: the two-node online-collection flow under ``plan``."""
    engine = new_engine()
    node_a, node_b, ip_a, ip_b = _build_pair(engine)

    tracer = VNetTracer(engine)
    tracer.add_agent(node_a)
    tracer.add_agent(node_b)
    tracer.set_fault_plan(plan)
    # Streaming windows over the same hop the offline decomposition
    # covers; under faults the closed frames must stay byte-identical
    # to the fault-free leg (the dedup/resequencing pipeline runs
    # upstream of the tap).
    streaming = tracer.attach_streaming(["send", "recv"], window_ns=10_000_000)

    attempt_budget = 8 if retries else 1
    spec = TracingSpec(
        rule=FilterRule(dst_port=9000, protocol=IPPROTO_UDP),
        tracepoints=[
            TracepointSpec(node=node_a.name, hook="kprobe:udp_send_skb",
                           label="send"),
            TracepointSpec(node=node_b.name, hook="kprobe:skb_copy_datagram_iovec",
                           label="recv"),
        ],
        global_config=GlobalConfig(
            online_collection=True,
            flush_interval_ns=5_000_000,
            deploy_max_attempts=attempt_budget,
            ship_max_attempts=attempt_budget,
        ),
    )
    deploy_report = tracer.deploy(spec)

    node_b.bind_udp(ip_b, 9000)
    client = node_a.bind_udp(ip_a, 9001)
    for i in range(packets):
        engine.schedule(
            TRAFFIC_START_NS + i * PACKET_INTERVAL_NS,
            client.sendto, ip_b, 9000, b"x" * 32, "fault-case", i,
        )

    traffic_end = TRAFFIC_START_NS + packets * PACKET_INTERVAL_NS
    engine.run(until=traffic_end + 20_000_000)
    # Drain what is still buffered so trailing records ship online too.
    for agent in tracer.agents.values():
        if not agent.crashed and agent.ring is not None:
            agent.ring.flush()
    engine.run(until=traffic_end + SETTLE_NS)
    collect_report = tracer.collect()
    streaming.close_all()

    chain = ["send", "recv"]
    decomposition = tracer.decompose(chain)
    forest = tracer.span_forest(
        chain,
        trace_ids=sorted(tracer.db.trace_ids()),
        include_control=False,
    )
    registry = tracer.obs
    lost_by_reason = _counter_by_last_label(
        registry, "vnt_fault_records_lost_total")
    return FaultCaseResult(
        plan=plan,
        retries_enabled=retries,
        packets_sent=packets,
        rows=tracer.db.rows_inserted,
        rows_by_label={
            label: tracer.db.count(label) for label in sorted(tracer.db.tables())
        },
        decomposition=decomposition,
        timeline_json=chrome_trace_json(forest),
        deploy_report=deploy_report,
        collect_report=collect_report,
        records_lost=int(sum(lost_by_reason.values())),
        records_lost_by_reason={k: int(v) for k, v in lost_by_reason.items()},
        deploy_retries=int(
            _counter_total(registry, "vnt_retry_deploy_retries_total")),
        ship_retries=int(_counter_total(registry, "vnt_retry_ship_retries_total")),
        deduped_batches=tracer.db.deduped_batches,
        metrics={
            "control_injected": _counter_total(
                registry, "vnt_fault_control_injected_total"),
            "shipment_injected": _counter_total(
                registry, "vnt_fault_shipment_injected_total"),
        },
        streaming_summary=streaming.summary_json(),
        streaming_gaps=streaming.gap_notices,
        db=tracer.db,
    )


@dataclass
class FaultEquivalenceResult:
    """The three legs plus the invariant checks, pre-computed."""

    baseline: FaultCaseResult
    faulty: FaultCaseResult
    lossy_no_retries: FaultCaseResult
    rows_match: bool
    decomposition_match: bool
    timeline_match: bool
    loss_accounted: bool
    streaming_match: bool = False

    @property
    def equivalent(self) -> bool:
        return (
            self.rows_match
            and self.decomposition_match
            and self.timeline_match
            and self.streaming_match
        )


def run_fault_equivalence(
    seed: int = 7, packets: int = 200
) -> FaultEquivalenceResult:
    """All three legs + the paper-level invariant (docs/FAULTS.md):
    with retries, faults change *nothing* end-to-end; without them,
    every missing row is accounted for exactly."""
    baseline = run_fault_case(seed=seed, plan=None, packets=packets)
    faulty = run_fault_case(
        seed=seed, plan=default_fault_plan(seed), packets=packets)
    # The no-retries leg injects shipment loss only: control loss with a
    # one-attempt budget could leave a script never installed, which is
    # a different (coarser) failure than the per-record accounting this
    # leg demonstrates.
    lossy_plan = FaultPlan(
        seed=seed, shipment=ChannelFaults(loss_prob=0.3))
    lossy = run_fault_case(
        seed=seed, plan=lossy_plan, packets=packets, retries=False)

    return FaultEquivalenceResult(
        baseline=baseline,
        faulty=faulty,
        lossy_no_retries=lossy,
        rows_match=faulty.rows == baseline.rows,
        decomposition_match=faulty.decomposition == baseline.decomposition,
        timeline_match=faulty.timeline_json == baseline.timeline_json,
        loss_accounted=(
            baseline.rows - lossy.rows == lossy.records_lost
        ),
        streaming_match=(
            faulty.streaming_summary == baseline.streaming_summary
        ),
    )


# Public builder alias for the ScenarioSpec registry (the historical
# underscore name stays, as tests and this module use it directly).
build_pair = _build_pair


def fault_case_digest(seed: int = 7, packets: int = 60) -> str:
    """16-hex-char digest of a small deterministic run (the
    ScenarioSpec registry's digest hook): the faulty-with-retries leg,
    whose end-to-end results must also equal the fault-free leg's."""
    import hashlib

    result = run_fault_case(seed=seed, plan=default_fault_plan(seed), packets=packets)
    fingerprint = repr(
        (
            result.rows,
            result.rows_by_label,
            result.timeline_json,
            result.streaming_summary,
            result.records_lost,
        )
    )
    return hashlib.sha256(fingerprint.encode()).hexdigest()[:16]
