"""Kernel node: sockets, routing, UDP end-to-end over veth, trace IDs."""

import gc

import pytest

from repro.net.addressing import IPv4Address, MACAddress
from repro.net.device import VethDevice
from repro.net.stack import StackError
from repro.net.traceid import TraceIDEngine, extract_trace_id
from tests.conftest import HookRecorder


class TestRouting:
    def test_longest_prefix_match(self, node):
        dev_wide = VethDevice(node, "wide")
        dev_narrow = VethDevice(node, "narrow")
        node.add_route(IPv4Address("10.0.0.0"), 8, dev_wide)
        node.add_route(IPv4Address("10.1.0.0"), 16, dev_narrow)
        assert node.route_lookup(IPv4Address("10.1.2.3")).device is dev_narrow
        assert node.route_lookup(IPv4Address("10.9.2.3")).device is dev_wide

    def test_no_route_raises(self, node):
        with pytest.raises(StackError, match="no route"):
            node.route_lookup(IPv4Address("8.8.8.8"))

    def test_neighbor_resolution_defaults_to_broadcast(self, node):
        assert node.resolve_mac(IPv4Address("10.0.0.9")).is_broadcast()
        mac = MACAddress.from_index(77)
        node.add_neighbor(IPv4Address("10.0.0.9"), mac)
        assert node.resolve_mac(IPv4Address("10.0.0.9")) == mac


class TestSockets:
    def test_duplicate_bind_rejected(self, node):
        node.bind_udp(IPv4Address("10.0.0.1"), 80)
        with pytest.raises(StackError, match="already bound"):
            node.bind_udp(IPv4Address("10.0.0.1"), 80)

    def test_wildcard_lookup(self, node):
        sock = node.bind_udp(IPv4Address(0), 53)
        assert node.lookup_udp(IPv4Address("1.2.3.4"), 53) is sock

    def test_close_unbinds(self, node):
        sock = node.bind_udp(IPv4Address("10.0.0.1"), 80)
        sock.close()
        assert node.lookup_udp(IPv4Address("10.0.0.1"), 80) is None
        node.bind_udp(IPv4Address("10.0.0.1"), 80)

    def test_duplicate_device_name_rejected(self, node):
        VethDevice(node, "v0")
        with pytest.raises(StackError, match="duplicate device"):
            VethDevice(node, "v0")


class TestUDPEndToEnd:
    def test_datagram_delivery(self, engine, two_nodes):
        node_a, node_b, ip_a, ip_b = two_nodes
        server = node_b.bind_udp(ip_b, 9000)
        got = []
        server.on_receive = lambda payload, src, sport, pkt: got.append(
            (payload, str(src), sport)
        )
        client = node_a.bind_udp(ip_a, 9001)
        client.sendto(ip_b, 9000, b"hello")
        engine.run()
        assert got == [(b"hello", "10.1.0.1", 9001)]

    def test_delivery_takes_simulated_time(self, engine, two_nodes):
        node_a, node_b, ip_a, ip_b = two_nodes
        server = node_b.bind_udp(ip_b, 9000)
        times = []
        server.on_receive = lambda *a: times.append(engine.now)
        node_a.bind_udp(ip_a, 9001).sendto(ip_b, 9000, b"x")
        engine.run()
        assert 2_000 < times[0] < 60_000  # a few microseconds of stack work

    def test_unbound_port_drops_silently(self, engine, two_nodes):
        node_a, node_b, ip_a, ip_b = two_nodes
        node_a.bind_udp(ip_a, 9001).sendto(ip_b, 4242, b"x")
        engine.run()  # must not raise

    def test_handlerless_socket_counts_and_drops(self, engine, two_nodes):
        """No ``on_receive``: the datagram is counted and nothing keeps
        its packet (``Packet`` has no ``__weakref__`` slot, so ask the
        collector who still refers to it)."""
        node_a, node_b, ip_a, ip_b = two_nodes
        server = node_b.bind_udp(ip_b, 9000)
        delivered = []
        deliver = server.deliver
        server.deliver = lambda *args: (delivered.append(args[3]), deliver(*args))
        node_a.bind_udp(ip_a, 9001).sendto(ip_b, 9000, b"data")
        engine.run()
        assert (server.rx_packets, server.rx_bytes) == (1, 4)
        assert len(delivered) == 1
        gc.collect()
        assert gc.get_referrers(delivered[0]) == [delivered]

    def test_kernel_hooks_fire_along_path(self, engine, two_nodes):
        node_a, node_b, ip_a, ip_b = two_nodes
        node_b.bind_udp(ip_b, 9000)
        node_a.bind_udp(ip_a, 9001).sendto(ip_b, 9000, b"x")
        engine.run()
        assert node_a.hooks.fires("kprobe:udp_send_skb") == 1
        assert node_a.hooks.fires("kprobe:ip_output") == 1
        assert node_b.hooks.fires("kprobe:udp_rcv") == 1
        assert node_b.hooks.fires("kprobe:net_rx_action") >= 1
        assert node_b.hooks.fires("kprobe:skb_copy_datagram_iovec") == 1


class TestTraceIDs:
    def test_udp_id_embedded_and_stripped_transparently(self, engine, two_nodes):
        node_a, node_b, ip_a, ip_b = two_nodes
        ids_a = TraceIDEngine.attach(node_a)
        ids_b = TraceIDEngine.attach(node_b)
        server = node_b.bind_udp(ip_b, 9000)
        got = []
        server.on_receive = lambda payload, *rest: got.append(payload)
        node_a.bind_udp(ip_a, 9001).sendto(ip_b, 9000, b"app-data")
        engine.run()
        # Application transparency: the app sees exactly its bytes.
        assert got == [b"app-data"]
        assert ids_a.ids_embedded == 1
        assert ids_b.ids_stripped == 1

    def test_id_visible_on_the_wire(self, engine, two_nodes):
        node_a, node_b, ip_a, ip_b = two_nodes
        TraceIDEngine.attach(node_a)
        captured = []
        from repro.ebpf.probes import CallbackAttachment

        node_b.hooks.attach(
            "dev:veth0", CallbackAttachment(lambda ev: captured.append(ev.packet))
        )
        node_b.bind_udp(ip_b, 9000)
        node_a.bind_udp(ip_a, 9001).sendto(ip_b, 9000, b"app-data")
        engine.run()
        trace_id = extract_trace_id(captured[0])
        assert trace_id is not None
        assert trace_id == captured[0].metadata["trace_id"]

    def test_attach_idempotent(self, node):
        first = TraceIDEngine.attach(node)
        assert TraceIDEngine.attach(node) is first


class TestForwarding:
    def test_weak_host_delivery_without_forwarding(self, engine, two_nodes):
        node_a, node_b, ip_a, ip_b = two_nodes
        other_ip = IPv4Address("172.16.0.5")
        server = node_b.bind_udp(other_ip, 9000)  # IP not on any device
        got = []
        server.on_receive = lambda payload, *rest: got.append(payload)
        node_a.add_route(IPv4Address("172.16.0.0"), 16, node_a.device("veth0"))
        node_a.add_neighbor(other_ip, node_b.device("veth0").mac)
        node_a.bind_udp(ip_a, 9001).sendto(other_ip, 9000, b"x")
        engine.run()
        assert got == [b"x"]  # ip_forward off -> weak-host model delivers

    def test_forwarding_routes_to_owning_device(self, engine, two_nodes):
        node_a, node_b, ip_a, ip_b = two_nodes
        node_b.ip_forward = True
        # A second leg on node_b owning the target IP.
        leg_b, leg_c = VethDevice.create_pair(node_b, "leg0", node_b, "leg1")
        target_ip = IPv4Address("172.16.0.5")
        leg_c.ip = target_ip
        node_b.add_route(target_ip, 32, leg_b)
        node_b.add_neighbor(target_ip, leg_c.mac)
        server = node_b.bind_udp(target_ip, 9000)
        got = []
        server.on_receive = lambda payload, src, sport, pkt: got.append(pkt)
        node_a.add_route(IPv4Address("172.16.0.0"), 16, node_a.device("veth0"))
        node_a.add_neighbor(target_ip, node_b.device("veth0").mac)
        recorder = HookRecorder().attach(node_b, "dev:veth0", "dev:leg0", "dev:leg1")
        node_a.bind_udp(ip_a, 9001).sendto(target_ip, 9000, b"x")
        engine.run()
        assert len(got) == 1
        # The packet takes the extra veth hop: in at veth0, out through
        # leg0 (tx), in again at leg1 (rx).
        assert recorder.hooks_seen(got[0]) == [
            ("beta", "dev:veth0"),
            ("beta", "dev:leg0"),
            ("beta", "dev:leg1"),
        ]
