"""Flow identity and hashing.

The five-tuple identifies a flow for vNetTracer's filter rules, and the
Toeplitz-style hash drives Receive Packet Steering (``get_rps_cpu``):
packets of one connection hash to one CPU, which is precisely why RPS
cannot spread a single containerized application's softirq load (§IV-E).
"""

from __future__ import annotations

import hashlib
from typing import NamedTuple, Optional

from repro.net.addressing import IPv4Address
from repro.net.packet import IPPROTO_TCP, IPPROTO_UDP, Packet


class FiveTuple(NamedTuple):
    """Canonical (src ip, dst ip, src port, dst port, protocol)."""

    src_ip: IPv4Address
    dst_ip: IPv4Address
    src_port: int
    dst_port: int
    protocol: int

    def reversed(self) -> "FiveTuple":
        """The reply direction of the same conversation."""
        return FiveTuple(self.dst_ip, self.src_ip, self.dst_port, self.src_port, self.protocol)


def packet_five_tuple(packet: Packet) -> Optional[FiveTuple]:
    """Extract the five-tuple of a packet's outermost L3/L4 headers."""
    ip = packet.ip
    if ip is None:
        return None
    if packet.tcp is not None:
        l4 = packet.tcp
        proto = IPPROTO_TCP
    elif packet.udp is not None:
        l4 = packet.udp
        proto = IPPROTO_UDP
    else:
        return None
    return FiveTuple(ip.src, ip.dst, l4.src_port, l4.dst_port, proto)


def flow_hash(flow: FiveTuple) -> int:
    """Deterministic 32-bit flow hash (stand-in for the kernel's Toeplitz
    RSS hash).  Symmetry is NOT required: RPS hashes each direction
    independently, as the real ``__skb_get_hash`` does by default."""
    material = (
        flow.src_ip.to_bytes()
        + flow.dst_ip.to_bytes()
        + flow.src_port.to_bytes(2, "big")
        + flow.dst_port.to_bytes(2, "big")
        + bytes([flow.protocol])
    )
    digest = hashlib.md5(material).digest()
    return int.from_bytes(digest[:4], "big")


def rps_cpu(flow: FiveTuple, num_cpus: int, rps_enabled: bool = True) -> int:
    """Which CPU RPS steers this flow's receive softirq to.

    With RPS off, everything lands on CPU 0 (the hardware IRQ target).
    With RPS on, one flow still always maps to one CPU -- the limitation
    the paper observes for single-connection container workloads.
    """
    if not rps_enabled or num_cpus <= 1:
        return 0
    return flow_hash(flow) % num_cpus
