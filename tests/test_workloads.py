"""Workload applications on a simple two-node topology."""

import pytest

from repro.workloads.iperf import IperfUDPClient, IperfUDPServer
from repro.workloads.memcached import (
    DataCachingClient,
    GET_SET_RATIO,
    MemcachedServer,
    request_is_set,
)
from repro.workloads.netperf import NetperfClient, NetperfServer
from repro.workloads.sockperf import SockperfClient, SockperfServer
from repro.workloads.stats import (
    jitter_range,
    jitter_series,
    percentile,
    summarize_latencies,
    throughput_bps,
)


class TestStats:
    def test_summary_fields(self):
        summary = summarize_latencies([100, 200, 300, 400, 500])
        assert summary.count == 5
        assert summary.avg_ns == 300
        assert summary.min_ns == 100 and summary.max_ns == 500
        assert summary.p50_ns == 300

    def test_percentile_nearest_rank(self):
        values = list(range(1, 101))
        assert percentile(values, 0.50) == 50
        assert percentile(values, 0.99) == 99
        assert percentile(values, 0.999) == 100

    def test_empty_samples_rejected(self):
        with pytest.raises(ValueError):
            summarize_latencies([])

    def test_jitter(self):
        assert jitter_series([10, 30, 20]) == [20, -10]
        assert jitter_range([10, 30, 20]) == (-10, 20)
        assert jitter_range([5]) == (0, 0)

    def test_throughput(self):
        assert throughput_bps(1000, 1_000_000) == pytest.approx(8e6)
        assert throughput_bps(1000, 0) == 0.0

    def test_scaled_output(self):
        summary = summarize_latencies([1000, 2000])
        scaled = summary.scaled()
        assert scaled["avg"] == 1.5  # microseconds


class TestSockperf:
    def test_under_load_measures_latencies(self, engine, two_nodes):
        node_a, node_b, ip_a, ip_b = two_nodes
        SockperfServer(node_b, ip_b)
        client = SockperfClient(node_a, ip_a, ip_b, mps=10_000, mode="under-load")
        client.start(10_000_000)
        engine.run(until=50_000_000)
        assert client.received == client.sent > 50
        summary = client.summary()
        assert summary.avg_ns > 0
        assert client.loss_count == 0

    def test_ping_pong_serializes(self, engine, two_nodes):
        node_a, node_b, ip_a, ip_b = two_nodes
        SockperfServer(node_b, ip_b)
        client = SockperfClient(node_a, ip_a, ip_b, mode="ping-pong")
        client.start(5_000_000)
        engine.run(until=50_000_000)
        assert client.received > 10
        # Ping-pong: at most one outstanding -> sent == received (+1 in flight at cutoff)
        assert client.sent - client.received <= 1

    def test_latency_is_half_rtt(self, engine, two_nodes):
        node_a, node_b, ip_a, ip_b = two_nodes
        SockperfServer(node_b, ip_b)
        client = SockperfClient(node_a, ip_a, ip_b, mps=1000)
        client.start(5_000_000)
        engine.run(until=20_000_000)
        assert client.latencies_ns[0] == client.rtts_ns[0] // 2

    def test_bad_mode_rejected(self, engine, two_nodes):
        node_a, node_b, ip_a, ip_b = two_nodes
        with pytest.raises(ValueError):
            SockperfClient(node_a, ip_a, ip_b, mode="bogus")


class TestIperf:
    def test_udp_rate_and_goodput(self, engine, two_nodes):
        node_a, node_b, ip_a, ip_b = two_nodes
        server = IperfUDPServer(node_b, ip_b)
        client = IperfUDPClient(node_a, ip_a, ip_b, rate_pps=10_000)
        client.start(20_000_000)  # 20 ms -> ~200 datagrams
        engine.run(until=100_000_000)
        assert 150 <= server.datagrams <= 210
        assert server.goodput_bps() > 0


class TestNetperf:
    def test_tcp_stream_goodput(self, engine, two_nodes):
        node_a, node_b, ip_a, ip_b = two_nodes
        server = NetperfServer(node_b, ip_b)
        client = NetperfClient(node_a, ip_a, ip_b, gso_bytes=16 * 1448)
        client.start(20_000_000)
        engine.run(until=100_000_000)
        assert server.goodput_bps() > 1e8  # over a veth this flies

    def test_udp_stream_mode(self, engine, two_nodes):
        node_a, node_b, ip_a, ip_b = two_nodes
        server = NetperfServer(node_b, ip_b, udp=True)
        client = NetperfClient(node_a, ip_a, ip_b, mode="UDP_STREAM",
                               udp_rate_pps=20_000, udp_payload_bytes=1000)
        client.start(20_000_000)
        engine.run(until=100_000_000)
        assert server.bytes_received > 100_000

    def test_window_reset_discards_warmup(self, engine, two_nodes):
        node_a, node_b, ip_a, ip_b = two_nodes
        server = NetperfServer(node_b, ip_b)
        client = NetperfClient(node_a, ip_a, ip_b)
        client.start(20_000_000)
        engine.schedule(10_000_000, server.reset_window)
        engine.run(until=100_000_000)
        assert server.bytes_received > 0

    def test_bad_mode_rejected(self, engine, two_nodes):
        node_a, node_b, ip_a, ip_b = two_nodes
        with pytest.raises(ValueError):
            NetperfClient(node_a, ip_a, ip_b, mode="SCTP")


class TestMemcached:
    def test_get_set_schedule_ratio(self):
        kinds = [request_is_set(i) for i in range(100)]
        assert sum(kinds) == 100 // (GET_SET_RATIO + 1)

    def test_fixed_rate_request_latencies(self, engine, two_nodes):
        node_a, node_b, ip_a, ip_b = two_nodes
        server = MemcachedServer(node_b, ip_b)
        client = DataCachingClient(node_a, ip_a, ip_b, rps=2000,
                                   workers=2, connections_per_worker=2)
        client.start(20_000_000, start_delay_ns=5_000_000)
        engine.run(until=200_000_000)
        assert client.issued > 20
        assert len(client.latencies_ns) == client.issued
        assert server.gets > server.sets > 0

    def test_server_counts_request_mix(self, engine, two_nodes):
        node_a, node_b, ip_a, ip_b = two_nodes
        server = MemcachedServer(node_b, ip_b)
        client = DataCachingClient(node_a, ip_a, ip_b, rps=5000,
                                   workers=1, connections_per_worker=1)
        client.start(10_000_000, start_delay_ns=5_000_000)
        engine.run(until=200_000_000)
        total = server.gets + server.sets
        assert total == client.issued
