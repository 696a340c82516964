"""Simulated Linux network substrate.

This package models the pieces of the kernel data path that vNetTracer
instruments: packets with real binary header layouts, network devices
(NICs, veth pairs, learning bridges, VXLAN tunnels), the socket/UDP/TCP/IP
stack organised as *named kernel functions* that probes attach to, and
the softirq machinery (``net_rx_action``, ``ksoftirqd``, RPS steering).

Everything here is intentionally faithful at the level the paper's
experiments observe: header bytes parse correctly (eBPF filter programs
read them), stage costs accrue on simulated CPUs, and device hops raise
softirqs whose distribution across cores can be measured.
"""

from repro.net.addressing import IPv4Address, MACAddress
from repro.net.pcap import PacketCapture, PcapReader, PcapWriter
from repro.net.flow import FiveTuple, flow_hash
from repro.net.packet import (
    EthernetHeader,
    IPv4Header,
    Packet,
    TCPHeader,
    UDPHeader,
    VXLANHeader,
)

__all__ = [
    "IPv4Address",
    "MACAddress",
    "FiveTuple",
    "flow_hash",
    "Packet",
    "EthernetHeader",
    "IPv4Header",
    "TCPHeader",
    "UDPHeader",
    "VXLANHeader",
    "PacketCapture",
    "PcapReader",
    "PcapWriter",
]
