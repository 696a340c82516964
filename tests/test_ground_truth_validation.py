"""Oracle validation: vNetTracer's measured latencies must equal the
simulator's ground truth.

The oracle is a zero-cost test-side handler on the traced hooks
(:class:`tests.conftest.HookRecorder`) logging the engine time of every
fire -- an oracle no real system has.  With zero clock offsets, eBPF
timestamps are the same engine clock, so the tracer's per-packet
latencies must match the oracle exactly.
"""

import pytest

from repro.core import FilterRule, TracepointSpec, TracingSpec, VNetTracer
from repro.net.packet import IPPROTO_UDP
from repro.net.stack import KernelNode
from repro.net.device import VethDevice
from repro.net.addressing import IPv4Address
from repro.experiments.topologies import build_two_host_kvm
from repro.sim.clock import NodeClock
from repro.sim.engine import Engine
from tests.conftest import HookRecorder


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_measured_latency_equals_oracle(seed):
    from repro.sim.rng import SeededRNG

    engine = Engine()
    node_a = KernelNode(engine, "alpha", num_cpus=2, rng=SeededRNG(seed, "a"))
    node_b = KernelNode(engine, "beta", num_cpus=2, rng=SeededRNG(seed, "b"))
    veth_a, veth_b = VethDevice.create_pair(node_a, "veth0", node_b, "veth0")
    ip_a, ip_b = IPv4Address("10.1.0.1"), IPv4Address("10.1.0.2")
    veth_a.ip, veth_b.ip = ip_a, ip_b
    node_a.add_route(IPv4Address("10.1.0.0"), 24, veth_a, src_ip=ip_a)
    node_b.add_route(IPv4Address("10.1.0.0"), 24, veth_b, src_ip=ip_b)
    node_a.add_neighbor(ip_b, veth_b.mac)
    node_b.add_neighbor(ip_a, veth_a.mac)

    tracer = VNetTracer(engine)
    tracer.add_agent(node_a)
    tracer.add_agent(node_b)
    spec = TracingSpec(
        rule=FilterRule(dst_port=9000, protocol=IPPROTO_UDP),
        tracepoints=[
            TracepointSpec(node=node_a.name, hook="kprobe:udp_send_skb",
                           label="send"),
            TracepointSpec(node=node_b.name, hook="kprobe:udp_rcv",
                           label="recv"),
        ],
    )
    tracer.deploy(spec)
    oracle_log = HookRecorder()
    oracle_log.attach(node_a, "kprobe:udp_send_skb")
    oracle_log.attach(node_b, "kprobe:udp_rcv")

    delivered = []
    server = node_b.bind_udp(ip_b, 9000)
    server.on_receive = lambda payload, src, sport, pkt: delivered.append(pkt)
    client = node_a.bind_udp(ip_a, 9001)
    for i in range(20):
        engine.schedule(1_000_000 + i * 777_000, client.sendto, ip_b, 9000,
                        b"x" * (10 + i), "oracle", i)
    engine.run(until=500_000_000)
    tracer.collect()

    # Oracle latencies: engine time between the two fires per packet.
    sent = oracle_log.times(node_a.name, "kprobe:udp_send_skb")
    received = oracle_log.times(node_b.name, "kprobe:udp_rcv")
    oracle = [received[packet.uid] - sent[packet.uid] for packet in delivered]

    measured = tracer.latencies("send", "recv")
    assert len(measured) == len(oracle) == 20
    # Clocks have zero offset here, so up to the BASE_NS constant the
    # eBPF timestamps ARE engine time: latencies agree exactly.
    assert sorted(measured) == sorted(oracle)


def test_clock_base_cancels_in_measurements(engine, two_nodes):
    """Even with the 1-hour BASE_NS uptime constant, same-node latency
    differences never see it."""
    node_a, node_b, ip_a, ip_b = two_nodes
    assert node_a.clock.monotonic_ns() >= NodeClock.BASE_NS
    tracer = VNetTracer(engine)
    tracer.add_agent(node_a)
    spec = TracingSpec(
        rule=FilterRule(dst_port=9000, protocol=IPPROTO_UDP),
        tracepoints=[
            TracepointSpec(node=node_a.name, hook="kprobe:udp_send_skb", label="s1"),
            TracepointSpec(node=node_a.name, hook="kprobe:ip_output", label="s2"),
        ],
    )
    tracer.deploy(spec)
    node_b.bind_udp(ip_b, 9000)
    client = node_a.bind_udp(ip_a, 9001)
    engine.schedule(1_000_000, client.sendto, ip_b, 9000, b"x")
    engine.run(until=100_000_000)
    tracer.collect()
    (latency,) = tracer.latencies("s1", "s2")
    assert 0 < latency < 10_000  # one stack stage, not an hour


def test_oracle_holds_through_ovs_on_the_kvm_scene():
    """The same oracle on a virt path: guest stack, virtio, the host's
    OVS datapath, the wire, the peer host's OVS and the peer guest."""
    scene = build_two_host_kvm(seed=5, clock_offset2_ns=0, clock_drift2_ppm=0.0)
    engine = scene.engine
    points = [
        (scene.vm1.node, "kprobe:udp_send_skb", "vm1:send"),
        (scene.host1.node, "dev:ovs-br1", "h1:ovs"),
        (scene.host2.node, "dev:ovs-br1", "h2:ovs"),
        (scene.vm2.node, "kprobe:udp_rcv", "vm2:recv"),
    ]
    tracer = VNetTracer(engine)
    for node in (scene.host1.node, scene.host2.node, scene.vm1.node, scene.vm2.node):
        tracer.add_agent(node)
    tracer.deploy(TracingSpec(
        rule=FilterRule(dst_port=9000, protocol=IPPROTO_UDP),
        tracepoints=[
            TracepointSpec(node=node.name, hook=hook, label=label)
            for node, hook, label in points
        ],
    ))
    recorder = HookRecorder()
    for node, hook, _label in points:
        recorder.attach(node, hook)

    delivered = []
    server = scene.vm2.node.bind_udp(scene.vm2_ip, 9000)
    server.on_receive = lambda payload, src, sport, pkt: delivered.append(pkt)
    client = scene.vm1.node.bind_udp(scene.vm1_ip, 9001)
    for i in range(20):
        engine.schedule(1_000_000 + i * 555_000, client.sendto, scene.vm2_ip, 9000,
                        b"y" * (20 + i), "oracle", i)
    engine.run(until=200_000_000)
    tracer.collect()

    assert len(delivered) == 20
    sent = recorder.times(scene.vm1.node.name, "kprobe:udp_send_skb")
    for node, hook, label in points[1:]:
        reached = recorder.times(node.name, hook)
        oracle = [reached[packet.uid] - sent[packet.uid] for packet in delivered]
        assert all(latency > 0 for latency in oracle)
        assert sorted(tracer.latencies("vm1:send", label)) == sorted(oracle)
