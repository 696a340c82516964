"""A learning Ethernet bridge (``xenbr0``, ``docker0``, overlay bridges).

The bridge is itself a :class:`~repro.net.device.NetDevice`, so tracing
scripts attach to it by name exactly as the paper binds probes at
``xenbr0`` (Case Study II) and observes ``docker0`` bottlenecks (Case
Study III).  Enslaved ports set ``device.master`` to the bridge; their
softirq delivery calls :meth:`ingress`.
"""

from __future__ import annotations

from typing import Dict, List, Optional, TYPE_CHECKING

from repro.net.device import NetDevice
from repro.net.packet import Packet

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.net.stack import KernelNode


class BridgeDevice(NetDevice):
    """Learning bridge with a forwarding database (fdb)."""

    kind = "bridge"

    def __init__(self, node: "KernelNode", name: str, **kwargs):
        super().__init__(node, name, **kwargs)
        self.ports: List[NetDevice] = []
        self.fdb: Dict[int, NetDevice] = {}  # MAC value -> port
        self.forwarded = 0
        self.flooded = 0

    def add_port(self, device: NetDevice) -> None:
        if device.master is not None:
            raise ValueError(f"{device.name} is already enslaved")
        device.master = self
        self.ports.append(device)

    def ingress(self, from_port: NetDevice, packet: Packet, cpu) -> None:
        """A frame entered the bridge through ``from_port`` (softirq ctx)."""
        node = self.node
        eth = packet.eth
        if eth is not None:
            self.fdb[eth.src.value] = from_port  # learn

        hook_cost = node.fire_device_hook(self, packet, cpu)
        node.charge(
            cpu,
            hook_cost + node.noisy(node.costs.bridge_forward_ns),
            self._forward,
            from_port,
            packet,
            cpu,
            front=True,
        )

    def _forward(self, from_port: NetDevice, packet: Packet, cpu) -> None:
        eth = packet.eth
        if eth is None:
            return
        if eth.dst == self.mac or (
            self.ip is not None and packet.ip is not None and packet.ip.dst == self.ip
        ):
            # Addressed to the bridge itself: up the local stack.
            self.node.l3_receive(self, packet, cpu)
            return
        out_port = self.fdb.get(eth.dst.value)
        if out_port is not None and out_port is not from_port:
            self.forwarded += 1
            out_port.transmit(packet, cpu)
            return
        if out_port is from_port:
            return  # hairpin: drop
        self._flood(from_port, packet, cpu)

    def _flood(self, from_port: NetDevice, packet: Packet, cpu) -> None:
        self.flooded += 1
        targets = [port for port in self.ports if port is not from_port and port.up]
        for index, port in enumerate(targets):
            copy = packet if index == len(targets) - 1 else packet.clone()
            port.transmit(copy, cpu)

    def _egress(self, packet: Packet, cpu) -> None:
        """Transmit *from the host stack* out of the bridge device: the
        bridge forwards by MAC like any ingress frame."""
        eth = packet.eth
        out_port: Optional[NetDevice] = None
        if eth is not None:
            out_port = self.fdb.get(eth.dst.value)
        if out_port is not None:
            self.forwarded += 1
            out_port.transmit(packet, cpu)
        else:
            self._flood(self, packet, cpu)

    def _tx_cost_ns(self, packet: Packet) -> int:
        return self.node.costs.bridge_forward_ns
