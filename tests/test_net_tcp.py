"""TCP: handshake, streaming, windows, retransmission."""

import pytest

from repro.net.addressing import IPv4Address
from repro.net.tcp import MSS, TCPConnection
from repro.net.traceid import TraceIDEngine
from repro.sim.engine import Engine


def _serve(node_b, ip_b, port=5000, gso_bytes=MSS):
    state = {"conn": None, "bytes": 0}

    def on_conn(conn):
        state["conn"] = conn
        conn.on_data = lambda c, n, p: state.__setitem__("bytes", state["bytes"] + n)

    node_b.tcp.listen(ip_b, port, on_connection=on_conn, gso_bytes=gso_bytes)
    return state


class TestHandshake:
    def test_three_way_establishes_both_ends(self, engine, two_nodes):
        node_a, node_b, ip_a, ip_b = two_nodes
        state = _serve(node_b, ip_b)
        established = []
        conn = node_a.tcp.connect(ip_a, ip_b, 5000)
        conn.on_established = lambda c: established.append(engine.now)
        engine.run()
        assert conn.state == TCPConnection.ESTABLISHED
        assert state["conn"].state == TCPConnection.ESTABLISHED
        assert established and established[0] > 0

    def test_syn_to_closed_port_ignored(self, engine, two_nodes):
        node_a, node_b, ip_a, ip_b = two_nodes
        conn = node_a.tcp.connect(ip_a, ip_b, 4444)
        engine.run()
        assert conn.state == TCPConnection.SYN_SENT

    def test_duplicate_listen_rejected(self, engine, two_nodes):
        node_a, node_b, ip_a, ip_b = two_nodes
        node_b.tcp.listen(ip_b, 5000)
        with pytest.raises(ValueError):
            node_b.tcp.listen(ip_b, 5000)

    def test_ephemeral_ports_unique(self, engine, two_nodes):
        node_a, node_b, ip_a, ip_b = two_nodes
        node_b.tcp.listen(ip_b, 5000)
        c1 = node_a.tcp.connect(ip_a, ip_b, 5000)
        c2 = node_a.tcp.connect(ip_a, ip_b, 5000)
        assert c1.local_port != c2.local_port


class TestDataTransfer:
    def test_bytes_delivered_exactly(self, engine, two_nodes):
        node_a, node_b, ip_a, ip_b = two_nodes
        state = _serve(node_b, ip_b)
        conn = node_a.tcp.connect(ip_a, ip_b, 5000)
        conn.on_established = lambda c: c.send_app_bytes(10_000)
        engine.run()
        assert state["bytes"] == 10_000
        assert state["conn"].bytes_delivered == 10_000

    def test_large_transfer_with_gso(self, engine, two_nodes):
        node_a, node_b, ip_a, ip_b = two_nodes
        state = _serve(node_b, ip_b)
        conn = node_a.tcp.connect(ip_a, ip_b, 5000, gso_bytes=20 * MSS)
        conn.on_established = lambda c: c.send_app_bytes(500_000)
        engine.run()
        assert state["bytes"] == 500_000
        # GSO: far fewer segments than payload/MSS.
        assert conn.segments_sent < 500_000 // MSS

    def test_in_flight_respects_window(self, engine, two_nodes):
        node_a, node_b, ip_a, ip_b = two_nodes
        _serve(node_b, ip_b)
        conn = node_a.tcp.connect(ip_a, ip_b, 5000)
        conn.on_established = lambda c: c.send_app_bytes(10_000_000)
        engine.run(until=2_000_000)
        assert conn.in_flight <= min(conn.cwnd, conn.rwnd)

    def test_cwnd_grows_during_transfer(self, engine, two_nodes):
        node_a, node_b, ip_a, ip_b = two_nodes
        _serve(node_b, ip_b)
        conn = node_a.tcp.connect(ip_a, ip_b, 5000)
        initial_cwnd = conn.cwnd
        conn.on_established = lambda c: c.send_app_bytes(2_000_000)
        engine.run()
        assert conn.cwnd > initial_cwnd

    def test_bidirectional_request_response(self, engine, two_nodes):
        node_a, node_b, ip_a, ip_b = two_nodes
        replies = []

        def on_conn(server_conn):
            server_conn.on_data = lambda c, n, p: c.send_app_bytes(n * 2)

        node_b.tcp.listen(ip_b, 5000, on_connection=on_conn)
        conn = node_a.tcp.connect(ip_a, ip_b, 5000)
        conn.on_data = lambda c, n, p: replies.append(n)
        conn.on_established = lambda c: c.send_app_bytes(100)
        engine.run()
        assert sum(replies) == 200


class TestLossRecovery:
    def _lossy_link(self, engine, two_nodes, drop_uids):
        """Drop specific data segments at the receiving veth."""
        node_a, node_b, ip_a, ip_b = two_nodes
        veth_b = node_b.device("veth0")
        original = veth_b.receive
        counter = {"n": 0}

        def flaky(packet):
            if packet.payload_length > 0 and packet.tcp is not None:
                counter["n"] += 1
                if counter["n"] in drop_uids:
                    return  # dropped on the floor
            original(packet)

        veth_b.receive = flaky
        return node_a, node_b, ip_a, ip_b

    def test_fast_retransmit_recovers_single_loss(self, engine, two_nodes):
        node_a, node_b, ip_a, ip_b = self._lossy_link(engine, two_nodes, {3})
        state = _serve(node_b, ip_b)
        conn = node_a.tcp.connect(ip_a, ip_b, 5000)
        conn.on_established = lambda c: c.send_app_bytes(40 * MSS)
        engine.run()
        assert state["bytes"] == 40 * MSS
        assert conn.retransmits >= 1
        assert conn.ssthresh < conn.rwnd  # the loss cut the threshold

    def test_rto_recovers_tail_loss(self, engine, two_nodes):
        node_a, node_b, ip_a, ip_b = self._lossy_link(engine, two_nodes, {5})
        state = _serve(node_b, ip_b)
        conn = node_a.tcp.connect(ip_a, ip_b, 5000)
        conn.on_established = lambda c: c.send_app_bytes(5 * MSS)  # loss at the tail
        engine.run()
        assert state["bytes"] == 5 * MSS
        assert conn.retransmits >= 1

    def test_out_of_order_segments_reassembled(self, engine, two_nodes):
        node_a, node_b, ip_a, ip_b = two_nodes
        state = _serve(node_b, ip_b)
        conn = node_a.tcp.connect(ip_a, ip_b, 5000)
        conn.on_established = lambda c: c.send_app_bytes(30 * MSS)
        engine.run()
        assert state["bytes"] == 30 * MSS
        # Receiver delivered exactly once, in order.
        assert state["conn"].rcv_nxt != 0


class TestTraceIDsOnTCP:
    def test_options_carry_id_when_enabled(self, engine, two_nodes):
        node_a, node_b, ip_a, ip_b = two_nodes
        TraceIDEngine.attach(node_a)
        captured = []
        from repro.ebpf.probes import CallbackAttachment

        node_b.hooks.attach(
            "dev:veth0",
            CallbackAttachment(lambda ev: captured.append(ev.packet)),
        )
        _serve(node_b, ip_b)
        conn = node_a.tcp.connect(ip_a, ip_b, 5000)
        conn.on_established = lambda c: c.send_app_bytes(100)
        engine.run()
        from repro.net.traceid import extract_trace_id

        data_segments = [p for p in captured if p.payload_length > 0]
        assert data_segments
        assert all(extract_trace_id(p) is not None for p in data_segments)
