"""The resilient control/data planes under injected faults.

Covers the delivery machinery pieces (docs/FAULTS.md) in isolation:
dispatcher ack/retry, idempotent installs, the collector's resequencer
and dedup, ring-buffer degradation policies, crash/restart accounting,
and the typed deploy/collect reports.
"""

import pytest

from repro.core import FilterRule, GlobalConfig, TracepointSpec, TracingSpec
from repro.core.collector import RawDataCollector
from repro.core.dispatcher import DispatchError
from repro.core.records import MalformedBatchError, TraceRecord
from repro.core.reports import DeployReport
from repro.core.ringbuffer import TraceRingBuffer
from repro.core.tracedb import TraceDB
from repro.core.vnettracer import VNetTracer
from repro.faults import ChannelFaults, CrashEvent, FaultPlan
from repro.obs.registry import MetricsRegistry
from repro.sim.engine import Engine
from repro.sim.rng import SeededRNG
from tests.conftest import pack


def _record(tracepoint_id=1, trace_id=1):
    return TraceRecord(trace_id, tracepoint_id, 0, 64, 0)


def _spec(node_name, **config):
    return TracingSpec(
        rule=FilterRule(dst_port=9000),
        tracepoints=[
            TracepointSpec(node=node_name, hook="kprobe:udp_send_skb", label="tx")
        ],
        global_config=GlobalConfig(**config),
    )


class TestResequencer:
    def test_out_of_order_batches_apply_in_sequence(self, engine):
        collector = RawDataCollector(engine)
        collector.register_labels({1: "tx"})
        collector.receive_batch("n", pack([_record(trace_id=2)]), seq=2)
        assert collector.pending_batches("n") == 1
        assert collector.db.rows_inserted == 0
        collector.receive_batch("n", pack([_record(trace_id=1)]), seq=1)
        assert collector.pending_batches("n") == 0
        rows = collector.db.table("tx")
        assert [row.trace_id for row in rows] == [1, 2]

    def test_duplicate_batch_discarded(self, engine):
        registry = MetricsRegistry()
        collector = RawDataCollector(engine, registry=registry)
        collector.register_labels({1: "tx"})
        assert collector.receive_batch("n", pack([_record()]), seq=1)
        assert not collector.receive_batch("n", pack([_record()]), seq=1)
        assert collector.db.rows_inserted == 1
        assert collector.db.deduped_batches == 1
        assert registry.total("vnt_fault_shipment_deduped_total") == 1

    def test_gap_notice_releases_held_batches(self, engine):
        collector = RawDataCollector(engine)
        collector.register_labels({1: "tx"})
        collector.receive_batch("n", pack([_record(trace_id=3)]), seq=3)
        collector.receive_batch("n", pack([_record(trace_id=2)]), seq=2)
        assert collector.db.rows_inserted == 0  # wedged behind seq 1
        collector.skip_shipment("n", 1)
        assert collector.db.rows_inserted == 2
        assert [row.trace_id for row in collector.db.table("tx")] == [2, 3]

    def test_skip_after_arrival_is_a_noop(self, engine):
        collector = RawDataCollector(engine)
        collector.register_labels({1: "tx"})
        collector.receive_batch("n", pack([_record()]), seq=1)
        collector.skip_shipment("n", 1)  # already applied: nothing to skip
        collector.receive_batch("n", pack([_record(trace_id=2)]), seq=2)
        assert collector.db.rows_inserted == 2

    def test_nodes_resequence_independently(self, engine):
        collector = RawDataCollector(engine)
        collector.register_labels({1: "tx"})
        collector.receive_batch("a", pack([_record(trace_id=1)]), seq=1)
        collector.receive_batch("b", pack([_record(trace_id=9)]), seq=2)
        assert collector.db.rows_inserted == 1
        assert collector.pending_batches("b") == 1


class TestMalformedBatch:
    def test_truncated_batch_rejected_before_any_state_change(self, engine):
        """A blob cut mid-record must not burn its sequence number: the
        well-formed retransmission still applies and nothing wedges."""
        collector = RawDataCollector(engine)
        collector.register_labels({1: "tx"})
        good = pack([_record(trace_id=1), _record(trace_id=2)])
        with pytest.raises(MalformedBatchError):
            collector.receive_batch("n", good[:-3], seq=1)
        assert collector.batches_received == 0
        assert collector.receive_batch("n", good, seq=1)
        assert collector.receive_batch("n", pack([_record(trace_id=3)]), seq=2)
        assert collector.pending_batches("n") == 0
        assert [row.trace_id for row in collector.db.table("tx")] == [1, 2, 3]

    def test_record_list_is_not_a_batch(self, engine):
        collector = RawDataCollector(engine)
        with pytest.raises(MalformedBatchError):
            collector.receive_batch("n", [_record()], seq=1)
        assert collector.receive_batch("n", pack([_record()]), seq=1)

    def test_insert_packed_validates_too(self):
        db = TraceDB()
        generation = db.generation
        with pytest.raises(MalformedBatchError):
            db.insert_packed("n", b"\x00" * 25, {})
        assert db.rows_inserted == 0
        assert db.generation == generation


def _ring(engine, policy, capacity=96, sample_prob=0.5, flushed=None,
          fault_metrics=None):
    return TraceRingBuffer(
        engine,
        capacity_bytes=capacity,  # four 24-byte records
        flush_interval_ns=1_000_000,
        on_flush=(flushed.extend if flushed is not None else (lambda b: None)),
        policy=policy,
        sample_prob=sample_prob,
        rng=SeededRNG(1, "ring-test"),
        fault_metrics=fault_metrics,
    )


class TestRingPolicies:
    def _fill(self, ring, count=4):
        for i in range(count):
            assert ring.append(_record(trace_id=i).pack())

    def test_drop_newest_rejects_arrivals(self, engine):
        flushed = []
        ring = _ring(engine, "drop-newest", flushed=flushed)
        self._fill(ring)
        assert not ring.append(_record(trace_id=99).pack())
        assert ring.total_dropped == 1
        ring.flush()
        assert [TraceRecord.unpack(r).trace_id for r in flushed] == [0, 1, 2, 3]

    def test_drop_oldest_evicts_from_head(self, engine):
        flushed = []
        ring = _ring(engine, "drop-oldest", flushed=flushed)
        self._fill(ring)
        assert ring.append(_record(trace_id=99).pack())
        assert ring.total_dropped == 1
        ring.flush()
        assert [TraceRecord.unpack(r).trace_id for r in flushed] == [1, 2, 3, 99]

    def test_sample_policy_extremes(self, engine):
        always = _ring(engine, "sample", sample_prob=1.0)
        self._fill(always)
        assert always.append(_record().pack())  # certain admit: drop-oldest
        never = _ring(engine, "sample", sample_prob=0.0)
        self._fill(never)
        assert not never.append(_record().pack())  # certain reject
        assert always.total_dropped == never.total_dropped == 1

    def test_pressure_reserve_and_release(self, engine):
        ring = _ring(engine, "drop-newest")
        assert ring.reserve(80) == 80
        assert ring.effective_capacity_bytes == 16
        # Nothing fits under the squeeze; the drop is counted, the
        # buffer is not wedged.
        assert not ring.append(_record().pack())
        assert ring.total_dropped == 1
        ring.release(80)
        assert ring.effective_capacity_bytes == 96
        assert ring.append(_record().pack())
        # Over-reserve clamps to capacity; over-release clamps to zero.
        assert ring.reserve(10_000) == 96
        ring.release(10_000)
        assert ring.effective_capacity_bytes == 96

    def test_discard_does_not_count_as_policy_drop(self, engine):
        ring = _ring(engine, "drop-newest")
        self._fill(ring, count=3)
        assert ring.discard() == 3
        assert ring.total_dropped == 0
        assert ring.used_bytes == 0

    def test_exact_loss_accounting(self, engine):
        from repro.faults.metrics import FaultMetrics

        registry = MetricsRegistry()
        ring = _ring(engine, "drop-oldest",
                     fault_metrics=FaultMetrics(registry))
        ring.node = "n1"
        self._fill(ring)
        for i in range(5):
            ring.append(_record(trace_id=100 + i).pack())
        metric = registry.get("vnt_fault_records_lost_total")
        assert dict(metric.samples()) == {("n1", "ring_policy"): 5.0}
        assert ring.total_dropped == 5


class TestControlPlaneRetries:
    def test_certain_loss_exhausts_budget_and_raises(self, engine, node):
        tracer = VNetTracer(engine)
        tracer.add_agent(node)
        tracer.set_fault_plan(
            FaultPlan(seed=3, control=ChannelFaults(loss_prob=1.0)))
        report = tracer.deploy(
            _spec(node.name, deploy_max_attempts=3, deploy_ack_timeout_ns=50_000))
        with pytest.raises(DispatchError, match="unacked after 3 attempts"):
            engine.run(until=1_000_000_000)
        assert report.failed_nodes == [node.name]
        assert report.attempts == 3 and report.retries == 2
        assert not report.complete

    def test_retries_disabled_fails_quietly(self, engine, node):
        registry = MetricsRegistry()
        tracer = VNetTracer(engine, registry=registry)
        tracer.add_agent(node)
        tracer.set_fault_plan(
            FaultPlan(seed=3, control=ChannelFaults(loss_prob=1.0)))
        report = tracer.deploy(
            _spec(node.name, deploy_max_attempts=1, deploy_ack_timeout_ns=50_000))
        engine.run(until=1_000_000_000)  # must not raise
        assert report.failed_nodes == [node.name]
        assert not tracer.agents[node.name].scripts
        assert registry.total("vnt_retry_deploy_attempts_total") == 1
        assert registry.total("vnt_retry_deploy_retries_total") == 0

    def test_lossy_control_plane_recovers(self, engine, node):
        tracer = VNetTracer(engine)
        tracer.add_agent(node)
        tracer.set_fault_plan(
            FaultPlan(seed=7, control=ChannelFaults(loss_prob=0.5)))
        report = tracer.deploy(
            _spec(node.name, deploy_max_attempts=10,
                  deploy_ack_timeout_ns=50_000))
        engine.run(until=2_000_000_000)
        assert report.complete
        assert report.retries >= 1  # seed 7 drops the first attempt
        assert report.acked_nodes == [node.name]
        assert tracer.agents[node.name].scripts

    def test_duplicate_delivery_installs_once(self, engine, node):
        tracer = VNetTracer(engine)
        tracer.add_agent(node)
        tracer.set_fault_plan(
            FaultPlan(seed=3, control=ChannelFaults(dup_prob=1.0)))
        report = tracer.deploy(_spec(node.name))
        engine.run(until=1_000_000_000)
        assert report.complete and report.retries == 0
        # The duplicate copy acks but does not reinstall.
        assert len(tracer.dispatcher.deploy_log) == 1

    def test_install_is_idempotent(self, engine, node):
        tracer = VNetTracer(engine)
        tracer.add_agent(node)
        agent = tracer.agents[node.name]
        package = tracer.dispatcher.build_packages(_spec(node.name))[0]
        assert agent.install(package, deploy_id=5) == "installed"
        assert agent.install(package, deploy_id=5) == "duplicate"
        assert agent.install(package, deploy_id=4) == "stale"
        agent.crash()
        assert agent.install(package, deploy_id=6) == "down"


class TestShipmentRetries:
    def _online_tracer(self, engine, node, plan, ship_max_attempts=4):
        tracer = VNetTracer(engine, registry=MetricsRegistry())
        tracer.add_agent(node)
        tracer.set_fault_plan(plan)
        tracer.deploy(_spec(
            node.name,
            online_collection=True,
            flush_interval_ns=3_600_000_000_000,  # manual flushes only
            ship_max_attempts=ship_max_attempts,
            ship_ack_timeout_ns=100_000,
        ))
        engine.run(until=10_000_000)
        agent = tracer.agents[node.name]
        assert agent.scripts  # deploy settled (no control faults in plan)
        return tracer, agent

    def _ship_batch(self, engine, agent, count=5):
        tracepoint_id = agent.package.tracepoints[0].tracepoint_id
        for i in range(count):
            agent.ring.append(
                TraceRecord(i + 1, tracepoint_id, 0, 64, 0).pack())
        agent.ring.flush()
        engine.run(until=engine.now + 100_000_000)

    def test_lossy_shipment_retries_until_acked(self, engine, node):
        plan = FaultPlan(seed=5, shipment=ChannelFaults(loss_prob=0.6))
        tracer, agent = self._online_tracer(engine, node, plan,
                                            ship_max_attempts=12)
        self._ship_batch(engine, agent)
        assert tracer.db.rows_inserted == 5
        assert not agent._pending_ships
        registry = tracer.obs
        assert registry.total("vnt_retry_ship_attempts_total") >= 1
        assert registry.total("vnt_fault_records_lost_total") == 0

    def test_exhausted_budget_accounts_loss_and_posts_gap(self, engine, node):
        plan = FaultPlan(seed=5, shipment=ChannelFaults(loss_prob=1.0))
        tracer, agent = self._online_tracer(engine, node, plan,
                                            ship_max_attempts=2)
        self._ship_batch(engine, agent)
        assert tracer.db.rows_inserted == 0
        assert not agent._pending_ships
        metric = tracer.obs.get("vnt_fault_records_lost_total")
        assert dict(metric.samples()) == {(node.name, "shipment"): 5.0}
        # The gap notice keeps the resequencer live: a later clean batch
        # still applies even though seq 1 never arrived.
        tracer.set_fault_plan(None)
        self._ship_batch(engine, agent)
        assert tracer.db.rows_inserted == 5

    def test_duplicated_shipment_deduped(self, engine, node):
        plan = FaultPlan(seed=5, shipment=ChannelFaults(dup_prob=1.0))
        tracer, agent = self._online_tracer(engine, node, plan)
        self._ship_batch(engine, agent)
        assert tracer.db.rows_inserted == 5  # the duplicate copy discarded
        assert tracer.db.deduped_batches >= 1


class TestCrashRestart:
    def test_planned_crash_accounts_buffered_records(self, engine, node):
        registry = MetricsRegistry()
        tracer = VNetTracer(engine, registry=registry)
        tracer.add_agent(node)
        tracer.deploy(_spec(node.name, flush_interval_ns=3_600_000_000_000))
        engine.run(until=10_000_000)
        agent = tracer.agents[node.name]
        tracepoint_id = agent.package.tracepoints[0].tracepoint_id
        for i in range(3):
            agent.ring.append(TraceRecord(i, tracepoint_id, 0, 64, 0).pack())
        agent.local_store.extend([b"x"] * 2)
        tracer.set_fault_plan(FaultPlan(
            seed=1,
            crashes=[CrashEvent(node.name, at_ns=engine.now + 1_000,
                                restart_after_ns=5_000)],
        ))
        engine.run(until=engine.now + 2_000)
        assert agent.crashed and not agent.scripts
        metric = registry.get("vnt_fault_records_lost_total")
        assert dict(metric.samples()) == {
            (node.name, "crash_ring"): 3.0,
            (node.name, "crash_store"): 2.0,
        }
        engine.run(until=engine.now + 10_000)
        assert not agent.crashed and agent.scripts  # restarted + reinstalled
        assert registry.total("vnt_fault_agent_crashes_total") == 1
        assert registry.total("vnt_fault_agent_restarts_total") == 1

    def test_batch_abandoned_before_its_first_send_is_never_sent(self, engine, node):
        """A batch flushed but still queued on the CPU when the daemon
        dies is lost and gap-noticed by ``crash()``; the queued first
        transmission must not send it after ``restart()`` has cleared
        ``crashed`` (it did: 5 lost records were also shipped, logged as
        delivered and deduped)."""
        registry = MetricsRegistry()
        tracer = VNetTracer(engine, registry=registry)
        tracer.add_agent(node)
        tracer.deploy(_spec(node.name, online_collection=True,
                            flush_interval_ns=3_600_000_000_000))
        engine.run(until=10_000_000)
        agent = tracer.agents[node.name]
        tracepoint_id = agent.package.tracepoints[0].tracepoint_id
        for i in range(5):
            agent.ring.append(TraceRecord(i + 1, tracepoint_id, 0, 64, 0).pack())
        agent.ring.flush()
        agent.crash()
        agent.restart()
        engine.run(until=engine.now + 100_000_000)
        assert registry.total("vnt_retry_ship_attempts_total") == 0
        assert agent.ship_log == []
        assert registry.total("vnt_fault_shipment_deduped_total") == 0
        lost = registry.get("vnt_fault_records_lost_total")
        assert dict(lost.samples()) == {(node.name, "shipment"): 5.0}
        assert tracer.db.rows_inserted == 0 and not agent._pending_ships

    def test_offline_collection_skips_crashed_agents(self, engine, two_nodes):
        node_a, node_b, _, _ = two_nodes
        tracer = VNetTracer(engine)
        tracer.add_agent(node_a)
        tracer.add_agent(node_b)
        tracer.deploy(TracingSpec(
            rule=FilterRule(dst_port=9000),
            tracepoints=[
                TracepointSpec(node=node_a.name, hook="kprobe:udp_send_skb",
                               label="a"),
                TracepointSpec(node=node_b.name, hook="kprobe:udp_send_skb",
                               label="b"),
            ],
        ))
        engine.run(until=10_000_000)
        tracer.agents[node_b.name].crash()
        report = tracer.collect()
        assert report.skipped_nodes == [node_b.name]


class TestReports:
    def test_deploy_report_completeness(self):
        report = DeployReport(packages=[], deploy_id=1)
        assert report.complete  # vacuously: nothing to ack
        report = DeployReport(packages=[object()], deploy_id=1)
        assert not report.complete
        report.acked_nodes.append("n")
        assert report.complete
        report.failed_nodes.append("m")
        assert not report.complete
