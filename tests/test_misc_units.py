"""Small units not covered elsewhere: cost model, stats plumbing,
engine odds and ends."""

import pytest

from repro.net.costs import CostModel, DEFAULT_COSTS, gbps_to_ns_per_byte
from repro.net.device import VethDevice
from repro.net.packet import (
    EthernetHeader,
    IPv4Header,
    IPPROTO_UDP,
    Packet,
    UDPHeader,
    VXLANHeader,
)
from repro.net.addressing import IPv4Address, MACAddress
from repro.net.stack import KernelNode
from repro.sim.engine import Engine


class TestCostModel:
    def test_with_overrides_copies(self):
        base = CostModel()
        tuned = base.with_overrides(ovs_switch_ns=9999)
        assert tuned.ovs_switch_ns == 9999
        assert base.ovs_switch_ns != 9999
        assert tuned.ip_rcv_ns == base.ip_rcv_ns

    def test_default_instance_shared(self):
        assert DEFAULT_COSTS.napi_budget == 64

    def test_gbps_conversion(self):
        assert gbps_to_ns_per_byte(1.0) == pytest.approx(8.0)
        assert gbps_to_ns_per_byte(10.0) == pytest.approx(0.8)

    def test_noise_respects_zero_sigma(self, engine):
        node = KernelNode(engine, "n", costs=CostModel(timer_noise_sigma=0.0))
        assert node.noisy(1000) == 1000

    def test_noise_jitters_with_sigma(self, engine):
        node = KernelNode(engine, "n")
        draws = {node.noisy(10_000) for _ in range(50)}
        assert len(draws) > 10
        assert all(5_000 < value < 20_000 for value in draws)


class TestDoubleEncapsulation:
    def test_innermost_follows_two_levels(self):
        mac = MACAddress.from_index(1)
        inner = Packet(
            [EthernetHeader(mac, mac),
             IPv4Header(IPv4Address("10.0.0.1"), IPv4Address("10.0.0.2"), IPPROTO_UDP),
             UDPHeader(1, 2)],
            b"core",
        )
        mid = Packet(
            [EthernetHeader(mac, mac),
             IPv4Header(IPv4Address("20.0.0.1"), IPv4Address("20.0.0.2"), IPPROTO_UDP),
             UDPHeader(3, 4789), VXLANHeader(1)],
            inner,
        )
        outer = Packet(
            [EthernetHeader(mac, mac),
             IPv4Header(IPv4Address("30.0.0.1"), IPv4Address("30.0.0.2"), IPPROTO_UDP),
             UDPHeader(5, 4789), VXLANHeader(2)],
            mid,
        )
        assert outer.innermost is inner
        assert outer.total_length == inner.total_length + 2 * 50

    def test_nested_clone_clones_inner(self):
        mac = MACAddress.from_index(1)
        inner = Packet(
            [EthernetHeader(mac, mac),
             IPv4Header(IPv4Address("10.0.0.1"), IPv4Address("10.0.0.2"), IPPROTO_UDP),
             UDPHeader(1, 2)],
            b"core",
        )
        outer = Packet(
            [EthernetHeader(mac, mac),
             IPv4Header(IPv4Address("20.0.0.1"), IPv4Address("20.0.0.2"), IPPROTO_UDP),
             UDPHeader(3, 4789), VXLANHeader(1)],
            inner,
        )
        clone = outer.clone()
        assert clone.inner is not inner
        assert clone.inner.payload == b"core"


class TestSoftirqIntrospection:
    def test_invocation_distribution_sums_to_one(self, engine):
        node = KernelNode(engine, "n", num_cpus=2)
        veth_a, veth_b = VethDevice.create_pair(node, "a0", node, "a1")
        from repro.net.packet import make_udp_packet

        for _ in range(4):
            veth_b.receive(
                make_udp_packet(veth_a.mac, veth_b.mac, IPv4Address("10.0.0.1"),
                                IPv4Address("10.0.0.2"), 1, 2, b"")
            )
        engine.run()
        distribution = node.softirq.invocation_distribution()
        assert sum(distribution) == pytest.approx(1.0)

    def test_empty_distribution(self, engine):
        node = KernelNode(engine, "n", num_cpus=2)
        assert node.softirq.invocation_distribution() == [0.0, 0.0]


class TestEngineAccounting:
    def test_events_executed_counter(self, engine):
        for i in range(5):
            engine.schedule(i, lambda: None)
        engine.run()
        assert engine.events_executed == 5

    def test_repr_smoke(self, engine):
        assert "Engine" in repr(engine)
        from repro.sim.cpu import CPU

        assert "CPU" in repr(CPU(engine))
