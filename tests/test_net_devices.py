"""Devices: veth pairs, bridges, softirq batching, RPS steering."""

import pytest

from repro.net.addressing import IPv4Address, MACAddress
from repro.net.bridge import BridgeDevice
from repro.net.device import VethDevice
from repro.net.packet import make_udp_packet
from repro.net.stack import KernelNode
from repro.sim.engine import Engine

IP_A, IP_B = IPv4Address("10.2.0.1"), IPv4Address("10.2.0.2")


def _packet(src_mac, dst_mac, dst_ip=IP_B, dst_port=9000, src_port=1000):
    return make_udp_packet(src_mac, dst_mac, IP_A, dst_ip, src_port, dst_port, b"p")


class TestVeth:
    def test_pair_delivery(self, engine):
        node_a = KernelNode(engine, "a")
        node_b = KernelNode(engine, "b")
        veth_a, veth_b = VethDevice.create_pair(node_a, "v0", node_b, "v0")
        veth_b.ip = IP_B
        node_b.bind_udp(IP_B, 9000)
        veth_a.transmit(_packet(veth_a.mac, veth_b.mac), None)
        engine.run()
        assert veth_b.stats.rx_packets == 1
        assert veth_a.stats.tx_packets == 1

    def test_down_device_drops(self, engine):
        node = KernelNode(engine, "n")
        veth_a, veth_b = VethDevice.create_pair(node, "v0", node, "v1")
        veth_a.up = False
        veth_a.transmit(_packet(veth_a.mac, veth_b.mac), None)
        engine.run()
        assert veth_a.stats.tx_dropped == 1
        assert veth_b.stats.rx_packets == 0

    def test_unpaired_veth_drops(self, engine):
        node = KernelNode(engine, "n")
        lone = VethDevice(node, "lone")
        lone.transmit(_packet(lone.mac, MACAddress.broadcast()), None)
        engine.run()
        assert lone.stats.tx_dropped == 1


class TestBridge:
    def _bridged(self, engine):
        node = KernelNode(engine, "host")
        bridge = BridgeDevice(node, "br0")
        a1, a2 = VethDevice.create_pair(node, "p1", node, "e1")
        b1, b2 = VethDevice.create_pair(node, "p2", node, "e2")
        bridge.add_port(a1)
        bridge.add_port(b1)
        return node, bridge, (a1, a2, b1, b2)

    def test_learning_then_unicast(self, engine):
        node, bridge, (a1, a2, b1, b2) = self._bridged(engine)
        # First frame from e2's MAC through p2 teaches the bridge.
        frame1 = _packet(b2.mac, a2.mac)
        b1.master = bridge  # already set by add_port; keep explicit
        bridge.ingress(b1, frame1, node.cpus[0])
        engine.run()
        assert bridge.fdb[b2.mac.value] is b1
        # Reply towards the learned MAC is unicast, not flooded.
        flooded_before = bridge.flooded
        bridge.ingress(a1, _packet(a2.mac, b2.mac), node.cpus[0])
        engine.run()
        assert bridge.flooded == flooded_before
        assert bridge.forwarded >= 1

    def test_unknown_destination_floods(self, engine):
        node, bridge, (a1, a2, b1, b2) = self._bridged(engine)
        bridge.ingress(a1, _packet(a2.mac, MACAddress.from_index(250)), node.cpus[0])
        engine.run()
        assert bridge.flooded == 1
        assert b1.stats.tx_packets == 1  # flooded out the other port
        assert a1.stats.tx_packets == 0  # not back out the ingress port

    def test_frame_to_bridge_mac_goes_up_stack(self, engine):
        node, bridge, (a1, a2, b1, b2) = self._bridged(engine)
        bridge.ip = IP_B
        got = []
        sock = node.bind_udp(IP_B, 9000)
        sock.on_receive = lambda payload, *r: got.append(payload)
        bridge.ingress(a1, _packet(a2.mac, bridge.mac), node.cpus[0])
        engine.run()
        assert got == [b"p"]

    def test_double_enslave_rejected(self, engine):
        node, bridge, (a1, a2, b1, b2) = self._bridged(engine)
        other = BridgeDevice(node, "br1")
        with pytest.raises(ValueError):
            other.add_port(a1)


class TestSoftirq:
    def test_invocations_batch_under_load(self, engine):
        node = KernelNode(engine, "n", num_cpus=1)
        veth_a, veth_b = VethDevice.create_pair(node, "x0", node, "x1")
        veth_b.napi_quota = 64
        for _ in range(32):
            veth_b.receive(_packet(veth_a.mac, veth_b.mac))
        engine.run()
        # One (or very few) net_rx_action runs drained all 32 packets.
        assert node.softirq.packets_processed[0] == 32
        assert node.softirq.invocations[0] <= 3

    def test_per_device_quota_forces_extra_invocations(self, engine):
        node = KernelNode(engine, "n", num_cpus=1)
        veth_a, veth_b = VethDevice.create_pair(node, "x0", node, "x1")
        veth_b.napi_quota = 4
        for _ in range(16):
            veth_b.receive(_packet(veth_a.mac, veth_b.mac))
        engine.run()
        assert node.softirq.invocations[0] >= 4

    def test_backlog_overflow_drops(self, engine):
        node = KernelNode(engine, "n", num_cpus=1)
        node.costs = node.costs.with_overrides(rx_backlog_packets=8)
        veth_a, veth_b = VethDevice.create_pair(node, "x0", node, "x1")
        for _ in range(20):
            veth_b.receive(_packet(veth_a.mac, veth_b.mac))
        assert node.softirq.backlog_drops > 0
        assert veth_b.stats.rx_dropped == node.softirq.backlog_drops

    def test_rps_steers_flow_consistently(self, engine):
        node = KernelNode(engine, "n", num_cpus=4)
        veth_a, veth_b = VethDevice.create_pair(node, "x0", node, "x1")
        veth_b.rps_enabled = True
        cpus = set()
        for _ in range(5):
            cpus.add(veth_b.steer_cpu(_packet(veth_a.mac, veth_b.mac)))
        assert len(cpus) == 1  # one flow -> one CPU, always

    def test_irq_affinity_without_rps(self, engine):
        node = KernelNode(engine, "n", num_cpus=4)
        veth_a, veth_b = VethDevice.create_pair(node, "x0", node, "x1")
        veth_b.irq_cpu = 2
        assert veth_b.steer_cpu(_packet(veth_a.mac, veth_b.mac)) == 2

    def test_steering_hook_fires_per_packet(self, engine):
        node = KernelNode(engine, "n", num_cpus=2)
        veth_a, veth_b = VethDevice.create_pair(node, "x0", node, "x1")
        for _ in range(3):
            veth_b.receive(_packet(veth_a.mac, veth_b.mac))
        engine.run()
        assert node.hooks.fires("kprobe:get_rps_cpu") == 3
