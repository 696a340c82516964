"""VXLAN tunnel device (the overlay's ``flannel.1`` / ``vxlan0``).

As a bridge port it encapsulates L2 frames of the overlay network in
outer Ethernet/IP/UDP/VXLAN and routes them through the underlay; on
receive, the node's UDP input path diverts port-4789 datagrams here for
decapsulation.  Two behaviours matter for the paper's Case Study III:

* encapsulation breaks TSO: a 64 KB inner super-segment becomes ~45
  MTU-sized wire packets, each paying per-packet encap/stack costs;
* decapsulated inner packets are *reinjected* through the softirq path
  (the kernel's ``gro_cells``), so every overlay packet executes extra
  ``net_rx_action`` invocations, steered by the **inner** flow hash --
  which is why the softirq distribution shifts off CPU 0 (Fig. 13a) and
  the data path deepens (Fig. 13b).
"""

from __future__ import annotations

from typing import Dict, Optional, TYPE_CHECKING

from repro.net.addressing import IPv4Address, MACAddress
from repro.net.device import NetDevice
from repro.net.flow import flow_hash, packet_five_tuple
from repro.net.gso import GROEngine, segment_packet
from repro.net.packet import (
    ETHERTYPE_IPV4,
    EthernetHeader,
    IPPROTO_UDP,
    IPv4Header,
    Packet,
    UDPHeader,
    VXLANHeader,
)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.net.stack import KernelNode

VXLAN_UDP_PORT = 4789
VXLAN_OVERHEAD = 14 + 20 + 8 + 8  # outer Eth + IP + UDP + VXLAN


class VXLANDevice(NetDevice):
    """One VTEP endpoint."""

    kind = "vxlan"

    def __init__(
        self,
        node: "KernelNode",
        name: str,
        vni: int,
        local_vtep: IPv4Address,
        udp_port: int = VXLAN_UDP_PORT,
        inner_mss: int = 1398,  # 1500 - VXLAN_OVERHEAD - inner Eth/IP/TCP
        gro_batch: int = 16,
        gro_window_ns: int = 30_000,
        napi_quota: int = 16,
        **kwargs,
    ):
        kwargs.setdefault("rps_enabled", True)
        super().__init__(node, name, napi_quota=napi_quota, **kwargs)
        self.vni = vni
        self.local_vtep = local_vtep
        self.udp_port = udp_port
        self.inner_mss = inner_mss
        self.vtep_fdb: Dict[int, IPv4Address] = {}  # inner MAC -> remote VTEP
        self.default_vtep: Optional[IPv4Address] = None
        self.encapsulated = 0
        self.decapsulated = 0
        self.unknown_dst_drops = 0
        self.gro = GROEngine(
            node.engine,
            deliver=self._gro_deliver,
            flush_batch=gro_batch,
            window_ns=gro_window_ns,
            name=f"{node.name}/{name}/gro",
        )
        node.register_vxlan_port(udp_port, self)

    # -- control plane ------------------------------------------------------

    def add_vtep(self, inner_mac: MACAddress, vtep_ip: IPv4Address) -> None:
        """FDB entry (the etcd-fed mapping in a Docker overlay)."""
        self.vtep_fdb[inner_mac.value] = vtep_ip

    def remote_vtep_for(self, packet: Packet) -> Optional[IPv4Address]:
        eth = packet.eth
        if eth is not None:
            vtep = self.vtep_fdb.get(eth.dst.value)
            if vtep is not None:
                return vtep
        return self.default_vtep

    # -- encapsulation (bridge egress through this port) -------------------------

    def _tx_cost_ns(self, packet: Packet) -> int:
        return 0  # encap cost is charged per resulting wire packet below

    def _egress(self, packet: Packet, cpu) -> None:
        node = self.node
        vtep_ip = self.remote_vtep_for(packet)
        if vtep_ip is None:
            self.unknown_dst_drops += 1
            return
        # Software segmentation: the tunnel cannot carry super-segments.
        segments = segment_packet(packet, self.inner_mss)

        def emit(index: int) -> None:
            if index >= len(segments):
                return
            inner = segments[index]
            outer = self._encapsulate(inner, vtep_ip)
            self.encapsulated += 1
            node.send_ip(outer, cpu, dst_ip=vtep_ip)
            node.charge(
                cpu,
                node.noisy(node.costs.vxlan_encap_ns),
                lambda: emit(index + 1),
                front=True,
            )

        node.charge(cpu, node.noisy(node.costs.vxlan_encap_ns), lambda: emit(0), front=True)

    def _encapsulate(self, inner: Packet, vtep_ip: IPv4Address) -> Packet:
        flow = packet_five_tuple(inner)
        src_port = 49152 + (flow_hash(flow) % 16383 if flow else 0)
        outer = Packet(
            [
                EthernetHeader(MACAddress.broadcast(), self.mac, ETHERTYPE_IPV4),
                IPv4Header(self.local_vtep, vtep_ip, IPPROTO_UDP),
                UDPHeader(src_port, self.udp_port),
                VXLANHeader(self.vni),
            ],
            inner,
            app=inner.app,
            app_seq=inner.app_seq,
            created_at_ns=inner.created_at_ns,
        )
        outer.metadata.update(inner.metadata)
        return outer

    # -- decapsulation (UDP input path diverts 4789 here) ----------------------------

    def decap_receive(self, outer: Packet, cpu) -> None:
        """Called in softirq context by the node's UDP input."""
        node = self.node
        inner = outer.inner
        if inner is None or outer.vxlan is None or outer.vxlan.vni != self.vni:
            self.stats.rx_dropped += 1
            return
        self.decapsulated += 1
        inner.path = outer.path  # keep the ground-truth trail continuous
        eth = inner.eth
        if eth is not None and outer.ip is not None:
            self.vtep_fdb.setdefault(eth.src.value, outer.ip.src)  # learn
        inner.log_point(node.name, f"dev:{self.name}:decap", node.engine.now, cpu.index)
        hook_cost = node.fire_device_hook(self, inner, cpu)
        node.charge(
            cpu,
            hook_cost + node.noisy(node.costs.vxlan_decap_ns),
            lambda: self.gro.push(inner, cpu),
            front=True,
        )

    def _gro_deliver(self, inner: Packet, cpu) -> None:
        # gro_cells reinjection: back through the softirq path, steered
        # by the *inner* flow hash (this device has RPS enabled).
        NetDevice.receive(self, inner)

    def deliver(self, packet: Packet, cpu) -> None:
        # The dev hook already fired at decap time; after reinjection the
        # frame goes straight to the overlay bridge (or the local stack).
        if self.master is not None:
            self.master.ingress(self, packet, cpu)
        else:
            self.node.l3_receive(self, packet, cpu)
