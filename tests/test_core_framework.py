"""Agent + dispatcher + collector: the full control/data plane, on a
two-node veth topology."""

import pytest

from repro.core import FilterRule, GlobalConfig, TracepointSpec, TracingSpec, VNetTracer
from repro.core.agent import Agent
from repro.core.collector import RawDataCollector
from repro.core.dispatcher import ControlDataDispatcher, DispatchError
from repro.net.packet import IPPROTO_UDP
from repro.sim.engine import Engine
from tests.conftest import pack


def _spec(node_a, node_b, **global_kwargs):
    return TracingSpec(
        rule=FilterRule(dst_port=9000, protocol=IPPROTO_UDP),
        tracepoints=[
            TracepointSpec(node=node_a.name, hook="kprobe:udp_send_skb", label="send"),
            TracepointSpec(node=node_b.name, hook="kprobe:skb_copy_datagram_iovec",
                           label="recv"),
        ],
        global_config=GlobalConfig(**global_kwargs),
    )


def _traffic(engine, node_a, node_b, ip_a, ip_b, count=10, interval_ns=1_000_000,
             start_ns=1_000_000):
    node_b.bind_udp(ip_b, 9000)
    client = node_a.bind_udp(ip_a, 9001)
    for i in range(count):
        engine.schedule(start_ns + i * interval_ns, client.sendto, ip_b, 9000,
                        b"x" * 32, "app", i)


class TestDeployment:
    def test_deploy_attaches_after_control_latency(self, engine, two_nodes):
        node_a, node_b, ip_a, ip_b = two_nodes
        tracer = VNetTracer(engine)
        tracer.add_agent(node_a)
        tracer.add_agent(node_b)
        tracer.deploy(_spec(node_a, node_b))
        assert not node_a.hooks.has_attachments("kprobe:udp_send_skb")
        engine.run(until=1_000_000)
        assert node_a.hooks.has_attachments("kprobe:udp_send_skb")
        assert node_b.hooks.has_attachments("kprobe:skb_copy_datagram_iovec")

    def test_unknown_node_rejected(self, engine, two_nodes):
        node_a, node_b, ip_a, ip_b = two_nodes
        tracer = VNetTracer(engine)
        tracer.add_agent(node_a)
        with pytest.raises(DispatchError):
            tracer.deploy(_spec(node_a, node_b))

    def test_undeploy_detaches(self, engine, two_nodes):
        node_a, node_b, ip_a, ip_b = two_nodes
        tracer = VNetTracer(engine)
        tracer.add_agent(node_a)
        tracer.add_agent(node_b)
        tracer.deploy(_spec(node_a, node_b))
        engine.run(until=1_000_000)
        tracer.undeploy()
        assert not node_a.hooks.has_attachments("kprobe:udp_send_skb")

    def test_redeploy_replaces_scripts(self, engine, two_nodes):
        node_a, node_b, ip_a, ip_b = two_nodes
        tracer = VNetTracer(engine)
        tracer.add_agent(node_a)
        tracer.add_agent(node_b)
        tracer.deploy(_spec(node_a, node_b))
        engine.run(until=1_000_000)
        # Reconfigure at runtime (§III-D): a new spec with another hook.
        spec2 = TracingSpec(
            rule=FilterRule(),
            tracepoints=[
                TracepointSpec(node=node_a.name, hook="kprobe:ip_output", label="ip-out"),
                TracepointSpec(node=node_b.name, hook="kprobe:udp_rcv", label="udp-in"),
            ],
        )
        tracer.deploy(spec2)
        engine.run(until=2_000_000)
        assert not node_a.hooks.has_attachments("kprobe:udp_send_skb")
        assert node_a.hooks.has_attachments("kprobe:ip_output")

    def test_agent_registration_idempotent(self, engine, two_nodes):
        node_a, node_b, ip_a, ip_b = two_nodes
        tracer = VNetTracer(engine)
        agent = tracer.add_agent(node_a)
        assert tracer.add_agent(node_a) is agent


class TestOfflineCollection:
    def test_records_collected_into_db(self, engine, two_nodes):
        node_a, node_b, ip_a, ip_b = two_nodes
        tracer = VNetTracer(engine)
        tracer.add_agent(node_a)
        tracer.add_agent(node_b)
        tracer.deploy(_spec(node_a, node_b))
        _traffic(engine, node_a, node_b, ip_a, ip_b, count=10)
        engine.run(until=500_000_000)
        collected = tracer.collect()
        assert collected.records == 20
        assert tracer.db.count("send") == 10
        assert tracer.db.count("recv") == 10

    def test_trace_ids_correlate_end_to_end(self, engine, two_nodes):
        node_a, node_b, ip_a, ip_b = two_nodes
        tracer = VNetTracer(engine)
        tracer.add_agent(node_a)
        tracer.add_agent(node_b)
        tracer.deploy(_spec(node_a, node_b))
        _traffic(engine, node_a, node_b, ip_a, ip_b, count=10)
        engine.run(until=500_000_000)
        tracer.collect()
        latencies = tracer.latencies("send", "recv")
        assert len(latencies) == 10
        assert all(2_000 < lat < 100_000 for lat in latencies)

    def test_latency_matches_ground_truth(self, engine, two_nodes):
        node_a, node_b, ip_a, ip_b = two_nodes
        tracer = VNetTracer(engine)
        tracer.add_agent(node_a)
        tracer.add_agent(node_b)
        tracer.deploy(_spec(node_a, node_b))
        truth = []
        server = node_b.lookup_udp  # placeholder; real check via packet path
        _traffic(engine, node_a, node_b, ip_a, ip_b, count=5)
        captured = []
        sock = node_b.bind_udp(ip_b, 9002)  # unrelated socket; not used
        engine.run(until=500_000_000)
        tracer.collect()
        for trace_id in list(tracer.db.trace_ids_at("send")):
            rows = tracer.db.rows_for_trace(trace_id)
            assert rows[0].label == "send" and rows[-1].label == "recv"

    def test_filter_excludes_other_flows(self, engine, two_nodes):
        node_a, node_b, ip_a, ip_b = two_nodes
        tracer = VNetTracer(engine)
        tracer.add_agent(node_a)
        tracer.add_agent(node_b)
        tracer.deploy(_spec(node_a, node_b))
        _traffic(engine, node_a, node_b, ip_a, ip_b, count=5)
        # A second, untraced flow to port 9100.
        node_b.bind_udp(ip_b, 9100)
        other = node_a.bind_udp(ip_a, 9101)
        for i in range(5):
            engine.schedule(1_000_000 + i * 1_000_000, other.sendto, ip_b, 9100, b"y", "other", i)
        engine.run(until=500_000_000)
        tracer.collect()
        assert tracer.db.count("send") == 5


class TestOnlineCollection:
    def test_online_mode_streams_batches(self, engine, two_nodes):
        node_a, node_b, ip_a, ip_b = two_nodes
        tracer = VNetTracer(engine)
        tracer.add_agent(node_a)
        tracer.add_agent(node_b)
        tracer.deploy(_spec(node_a, node_b, online_collection=True,
                            flush_interval_ns=2_000_000))
        _traffic(engine, node_a, node_b, ip_a, ip_b, count=10)
        engine.run(until=500_000_000)
        # Records arrived without an explicit collect() call.
        assert tracer.db.count("send") == 10
        assert tracer.collector.batches_received >= 2


class TestCollectorSemantics:
    def test_stale_boundary_is_exclusive_at_max_age(self, engine):
        """An agent whose last report is *exactly* max_age_ns old is
        still healthy; one nanosecond older and it is stale."""
        collector = RawDataCollector(engine)
        collector.heartbeat("n1")  # t=0
        engine.run(until=1_000_000)
        assert collector.stale_agents(1_000_000) == []
        assert collector.stale_agents(999_999) == ["n1"]

    def test_receive_batch_delegates_alignment_to_db(self, engine):
        """Regression pin: the collector stores *raw* timestamps; skew
        alignment happens inside TraceDB.insert_packed via set_clock_skew.
        Records ingested before a node's estimate lands keep zero
        offset (see the collector module docstring)."""
        from repro.core.records import TraceRecord
        from repro.core.tracedb import TraceDB

        db = TraceDB()
        collector = RawDataCollector(engine, db)
        collector.register_labels({1: "a"})

        collector.receive_batch("n2", pack([TraceRecord(7, 1, 100, 64, 0)]))
        db.set_clock_skew("n2", 500)
        collector.receive_batch("n2", pack([TraceRecord(8, 1, 100, 64, 0)]))

        before, after = db.rows_for_trace(7)[0], db.rows_for_trace(8)[0]
        assert before.timestamp_ns == 100  # pre-sync: zero offset
        assert after.timestamp_ns == 600  # aligned by the DB, not the collector
        assert before.raw_timestamp_ns == after.raw_timestamp_ns == 100

    def test_unknown_tracepoints_counted_not_lost(self, engine):
        from repro.core.records import TraceRecord

        collector = RawDataCollector(engine)
        collector.receive_batch("n1", pack([TraceRecord(1, 99, 10, 64, 0)]))
        assert collector.unknown_tracepoint_records == 1
        assert collector.db.count("tracepoint-99") == 1


class TestHeartbeats:
    def test_agents_heartbeat_and_staleness(self, engine, two_nodes):
        node_a, node_b, ip_a, ip_b = two_nodes
        tracer = VNetTracer(engine)
        tracer.add_agent(node_a)
        tracer.add_agent(node_b)
        tracer.deploy(_spec(node_a, node_b))
        engine.run(until=1_000_000_000)
        assert tracer.collector.stale_agents(200_000_000) == []
        # Kill one agent's heartbeat: it goes stale.
        tracer.agents[node_a.name].teardown()
        engine.run(until=2_000_000_000)
        assert node_a.name in tracer.collector.stale_agents(500_000_000)

    def test_silent_agent_stays_stale_through_final_collection(
        self, engine, two_nodes
    ):
        # An agent that heartbeats, then dies mid-run, must still look
        # stale after the master's offline pull at the end of the run:
        # collection is the master reaching out, not the agent
        # reporting, so it is not a liveness signal.
        node_a, node_b, ip_a, ip_b = two_nodes
        tracer = VNetTracer(engine)
        tracer.add_agent(node_a)
        tracer.add_agent(node_b)
        tracer.deploy(_spec(node_a, node_b))
        _traffic(engine, node_a, node_b, ip_a, ip_b, count=20)

        engine.run(until=1_000_000_000)
        assert tracer.collector.stale_agents(200_000_000) == []

        # The agent dies with records still in its local store.
        dead = tracer.agents[node_a.name]
        dead.teardown()
        assert dead.local_store

        engine.run(until=3_000_000_000)
        collected = tracer.collect()
        assert collected.records > 0
        assert tracer.db.count("send") == 20  # its buffered data arrived
        stale = tracer.collector.stale_agents(1_000_000_000)
        assert node_a.name in stale  # ... but it is still reported dead
        assert node_b.name not in stale


class TestRingOverflow:
    def test_tiny_ring_drops_are_counted(self, engine, two_nodes):
        node_a, node_b, ip_a, ip_b = two_nodes
        tracer = VNetTracer(engine)
        tracer.add_agent(node_a)
        tracer.add_agent(node_b)
        # 48-byte ring: two records per flush window; flush every 100ms.
        tracer.deploy(_spec(node_a, node_b, ring_buffer_bytes=48,
                            flush_interval_ns=100_000_000))
        _traffic(engine, node_a, node_b, ip_a, ip_b, count=50, interval_ns=100_000)
        engine.run(until=500_000_000)
        agent = tracer.agents[node_a.name]
        assert agent.dropped_records() > 0
        tracer.collect()
        assert tracer.db.count("send") < 50
