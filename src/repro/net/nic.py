"""Physical NICs and point-to-point links.

A :class:`Link` models a full-duplex cable: per-direction FIFO
serialization at the line rate plus propagation delay.  A
:class:`PhysicalNIC` optionally does TSO (segmenting TCP super-segments
into MTU wire packets before serialization) and hardware-assisted GRO
(coalescing back-to-back same-flow TCP arrivals before raising the
receive softirq) -- both matter for the Netperf overhead experiment
(Fig. 7b) where the 1 G and 10 G links produce very different per-event
rates for the tracers to keep up with.
"""

from __future__ import annotations

from typing import Optional, TYPE_CHECKING

from repro.net.costs import gbps_to_ns_per_byte
from repro.net.device import NetDevice
from repro.net.gso import GROEngine, segment_packet
from repro.net.packet import Packet
from repro.sim.engine import Engine

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.net.stack import KernelNode


class Link:
    """Full-duplex point-to-point link between two NICs."""

    def __init__(
        self,
        engine: Engine,
        rate_gbps: float = 1.0,
        propagation_ns: int = 20_000,
        name: str = "link",
    ):
        self.engine = engine
        self.rate_gbps = rate_gbps
        self.propagation_ns = propagation_ns
        self.name = name
        self.ns_per_byte = gbps_to_ns_per_byte(rate_gbps)
        self._endpoints: list = [None, None]
        self._next_free_ns = [0, 0]  # per direction
        self.packets_carried = 0
        self.bytes_carried = 0

    def attach(self, nic_a: "PhysicalNIC", nic_b: "PhysicalNIC") -> None:
        self._endpoints = [nic_a, nic_b]
        nic_a.link = self
        nic_b.link = self

    def send(self, from_nic: "PhysicalNIC", packet: Packet) -> None:
        if from_nic is self._endpoints[0]:
            direction, peer = 0, self._endpoints[1]
        elif from_nic is self._endpoints[1]:
            direction, peer = 1, self._endpoints[0]
        else:
            raise ValueError(f"{from_nic!r} is not attached to {self.name}")
        if peer is None:
            return
        now = self.engine.now
        start = max(now, self._next_free_ns[direction])
        serialization = int(packet.total_length * self.ns_per_byte)
        self._next_free_ns[direction] = start + serialization
        arrival = start + serialization + self.propagation_ns
        self.packets_carried += 1
        self.bytes_carried += packet.total_length
        self.engine.schedule_at(arrival, peer.link_receive, packet)


class PhysicalNIC(NetDevice):
    """A NIC attached to a :class:`Link`."""

    kind = "nic"

    def __init__(
        self,
        node: "KernelNode",
        name: str,
        tso: bool = True,
        gro_batch: int = 8,
        gro_window_ns: int = 5_000,
        mss: int = 1448,
        **kwargs,
    ):
        super().__init__(node, name, napi_quota=64, **kwargs)
        self.link: Optional[Link] = None
        self.tso = tso
        self.mss = mss
        self.gro: Optional[GROEngine] = None
        if gro_batch > 1:
            self.gro = GROEngine(
                node.engine,
                deliver=self._gro_deliver,
                flush_batch=gro_batch,
                window_ns=gro_window_ns,
                name=f"{node.name}/{name}/gro",
            )

    # -- transmit ------------------------------------------------------------

    def _egress(self, packet: Packet, cpu) -> None:
        if self.link is None:
            self.stats.tx_dropped += 1
            return
        wire_packets = (
            segment_packet(packet, self.mss) if self.tso else [packet]
        )
        for wire_packet in wire_packets:
            self.link.send(self, wire_packet)

    # -- receive ----------------------------------------------------------------

    def link_receive(self, packet: Packet) -> None:
        """Frame arrives off the wire."""
        if self.gro is not None:
            self.gro.push(packet, None)
        else:
            self.receive(packet)

    def _gro_deliver(self, packet: Packet, _cpu) -> None:
        self.receive(packet)


def connect_hosts(
    engine: Engine,
    node_a: "KernelNode",
    name_a: str,
    node_b: "KernelNode",
    name_b: str,
    rate_gbps: float = 1.0,
    propagation_ns: int = 20_000,
    **nic_kwargs,
) -> tuple:
    """Create two NICs joined by a link; returns (nic_a, nic_b, link)."""
    nic_a = PhysicalNIC(node_a, name_a, **nic_kwargs)
    nic_b = PhysicalNIC(node_b, name_b, **nic_kwargs)
    link = Link(
        engine,
        rate_gbps=rate_gbps,
        propagation_ns=propagation_ns,
        name=f"{node_a.name}:{name_a}<->{node_b.name}:{name_b}",
    )
    link.attach(nic_a, nic_b)
    return nic_a, nic_b, link
