"""Shared fixtures for the test suite."""

import os
from functools import partial

import pytest
from hypothesis import settings

from repro.ebpf.probes import CallbackAttachment
from repro.net.addressing import IPv4Address, MACAddress
from repro.net.stack import KernelNode
from repro.sim.engine import Engine
from repro.sim.rng import SeededRNG

# ``HYPOTHESIS_PROFILE=long`` (CI's properties job) runs every property
# test that does not pin its own ``max_examples`` at 2,000 examples.
settings.register_profile("long", max_examples=2000, deadline=None)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "default"))


def pack(records) -> bytes:
    """One packed shipment blob (the only batch type the collector and
    the streaming aggregator ingest) from ``TraceRecord``s."""
    return b"".join(record.pack() for record in records)


class HookRecorder:
    """The simulator's ground-truth oracle, kept on the test side.

    :meth:`attach` puts a zero-cost :class:`CallbackAttachment` on hooks
    of a node; every fire appends ``(node, hook, engine time, cpu,
    packet)`` to :attr:`log`.  The handler charges nothing and a fire
    counts in ``fire_counts`` attached or not, so recording moves no
    event and no random draw -- and it reads the engine clock, the one
    a tracer's timestamps are taken from when clocks have no offset.
    """

    def __init__(self):
        self.log = []

    def attach(self, node, *hooks):
        for hook in hooks:
            node.hooks.attach(hook, CallbackAttachment(partial(self._record, node)))
        return self

    def _record(self, node, event):
        self.log.append((node.name, event.hook, node.engine.now, event.cpu, event.packet))

    def times(self, node_name, hook):
        """``{packet uid: engine time}`` of ``hook``'s fires on one node."""
        return {
            packet.uid: now
            for name, fired, now, _cpu, packet in self.log
            if name == node_name and fired == hook
        }

    def hooks_seen(self, packet):
        """``(node, hook)`` of every recorded fire that carried ``packet``."""
        return [(name, hook) for name, hook, _now, _cpu, seen in self.log if seen is packet]


@pytest.fixture
def engine():
    return Engine()


@pytest.fixture
def rng():
    return SeededRNG(1234, "tests")


@pytest.fixture
def node(engine):
    """A bare kernel node with 4 CPUs."""
    return KernelNode(engine, "testnode", num_cpus=4)


def build_two_nodes(engine):
    """Two kernel nodes joined by a veth pair with IPs and routes."""
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


@pytest.fixture
def two_nodes(engine):
    return build_two_nodes(engine)
