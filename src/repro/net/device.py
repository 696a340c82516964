"""Network devices.

A :class:`NetDevice` belongs to one kernel (a :class:`~repro.net.stack.KernelNode`)
and participates in three flows:

* ``transmit(packet, cpu)`` -- the kernel sends a packet OUT through the
  device.  The ``dev:<name>`` hook fires on the way out (this is
  how the paper attaches scripts "to device flannel_i"), the device's
  transmit cost is charged on ``cpu``, then the subclass ``_egress``
  moves the packet to its peer / link / switch.
* ``receive(packet)`` -- a packet arrives INTO the device from outside.
  The device picks a CPU (IRQ affinity or RPS) and raises a NET_RX
  softirq; processing happens later in ``net_rx_action``.
* ``deliver(packet, cpu)`` -- invoked by the softirq: fires the rx hook,
  then hands the packet to the device's master (bridge/OVS) or up the
  local IP stack.

``napi_quota`` bounds how many of this device's backlog entries one
``net_rx_action`` invocation drains -- NICs get the full NAPI budget,
reinjection devices (veth, VXLAN, bridge legs) a smaller per-device
quota, which is why deep container paths execute so many more softirqs
(§IV-E, Fig. 13a).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

from repro.net.addressing import IPv4Address, MACAddress
from repro.net.flow import packet_five_tuple, rps_cpu
from repro.net.packet import Packet

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.net.stack import KernelNode


class DeviceStats:
    """tx/rx packet, byte, and drop counters (``ip -s link`` analog)."""

    __slots__ = (
        "tx_packets",
        "tx_bytes",
        "tx_dropped",
        "rx_packets",
        "rx_bytes",
        "rx_dropped",
    )

    def __init__(self) -> None:
        self.tx_packets = 0
        self.tx_bytes = 0
        self.tx_dropped = 0
        self.rx_packets = 0
        self.rx_bytes = 0
        self.rx_dropped = 0

    def as_dict(self) -> dict:
        return {name: getattr(self, name) for name in self.__slots__}


class NetDevice:
    """Base class; subclasses define where transmitted packets go."""

    kind = "generic"

    def __init__(
        self,
        node: "KernelNode",
        name: str,
        mac: Optional[MACAddress] = None,
        ip: Optional[IPv4Address] = None,
        mtu: int = 1500,
        irq_cpu: int = 0,
        rps_enabled: bool = False,
        napi_quota: int = 64,
    ):
        self.node = node
        self.name = name
        self.hook_name = f"dev:{name}"  # the hook transmit/deliver fire
        self.mac = mac if mac is not None else node.next_mac()
        self.ip = ip
        self.mtu = mtu
        self.irq_cpu = irq_cpu
        self.rps_enabled = rps_enabled
        self.napi_quota = napi_quota
        self.master = None  # bridge / OVS the device is enslaved to
        self.up = True
        self.stats = DeviceStats()
        self.ifindex = node.register_device(self)

    # -- outbound -----------------------------------------------------------

    def transmit(self, packet: Packet, cpu=None) -> None:
        """Send a packet out of this device (called in kernel context)."""
        if not self.up:
            self.stats.tx_dropped += 1
            return
        self.stats.tx_packets += 1
        self.stats.tx_bytes += packet.total_length
        node = self.node
        hook_cost = node.fire_device_hook(self, packet, cpu)
        node.charge(
            cpu,
            hook_cost + node.noisy(self._tx_cost_ns(packet)),
            self._egress,
            packet,
            cpu,
            front=True,
        )

    def _tx_cost_ns(self, packet: Packet) -> int:
        return self.node.costs.nic_xmit_ns

    def _egress(self, packet: Packet, cpu) -> None:
        raise NotImplementedError(f"{type(self).__name__} cannot egress")

    # -- inbound --------------------------------------------------------------

    def receive(self, packet: Packet) -> None:
        """A packet arrives from outside; raise a NET_RX softirq."""
        if not self.up:
            self.stats.rx_dropped += 1
            return
        self.stats.rx_packets += 1
        self.stats.rx_bytes += packet.total_length
        cpu_index = self.steer_cpu(packet)
        accepted = self.node.softirq.enqueue(self, packet, cpu_index)
        if not accepted:
            self.stats.rx_dropped += 1

    def rx_job_cost_ns(self, packet: Packet) -> int:
        """Base CPU cost of this device's per-packet softirq job."""
        return self.node.costs.ip_rcv_ns

    def steer_cpu(self, packet: Packet) -> int:
        """IRQ affinity or RPS decision; fires the ``get_rps_cpu`` hook."""
        node = self.node
        flow = packet_five_tuple(packet.innermost)
        if self.rps_enabled and flow is not None:
            cpu_index = rps_cpu(flow, len(node.cpus), rps_enabled=True)
        else:
            cpu_index = self.irq_cpu
        node.fire_steering_hook(self, packet, cpu_index)
        return cpu_index

    def deliver(self, packet: Packet, cpu) -> None:
        """Process a received packet in softirq context on ``cpu``."""
        node = self.node
        hook_cost = node.fire_device_hook(self, packet, cpu)
        node.charge(cpu, hook_cost, self._continue_up, packet, cpu, front=True)

    def _continue_up(self, packet: Packet, cpu) -> None:
        """Hand a received packet to the master (bridge/OVS), else up
        the local IP stack."""
        if self.master is not None:
            self.master.ingress(self, packet, cpu)
        else:
            self.node.l3_receive(self, packet, cpu)

    def __repr__(self) -> str:
        return f"<{type(self).__name__} {self.node.name}:{self.name} ifindex={self.ifindex}>"


class VethDevice(NetDevice):
    """One end of a veth pair; transmitting delivers to the peer, which
    raises a fresh softirq (``netif_rx``) -- each veth hop is another
    softirq on the container data path."""

    kind = "veth"

    def __init__(self, node: "KernelNode", name: str, napi_quota: int = 16, **kwargs):
        super().__init__(node, name, napi_quota=napi_quota, **kwargs)
        self.peer: Optional["VethDevice"] = None

    @staticmethod
    def create_pair(
        node_a: "KernelNode",
        name_a: str,
        node_b: "KernelNode",
        name_b: str,
        **kwargs,
    ) -> "tuple[VethDevice, VethDevice]":
        """Create two connected veth endpoints (possibly in one kernel)."""
        end_a = VethDevice(node_a, name_a, **kwargs)
        end_b = VethDevice(node_b, name_b, **kwargs)
        end_a.peer = end_b
        end_b.peer = end_a
        return end_a, end_b

    def _tx_cost_ns(self, packet: Packet) -> int:
        return self.node.costs.veth_xmit_ns

    def _egress(self, packet: Packet, cpu) -> None:
        if self.peer is None:
            self.stats.tx_dropped += 1
            return
        self.peer.receive(packet)
