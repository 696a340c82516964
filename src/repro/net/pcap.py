"""Packet capture to the classic libpcap format.

The original BPF's flagship application is tcpdump (§II); this module
provides the equivalent for the simulated substrate: a
:class:`PacketCapture` attaches to any device hook and serializes the
frames it sees -- trace IDs and all -- into a standard ``.pcap`` file
that real Wireshark/tcpdump can open.  A matching :class:`PcapReader`
round-trips captures for tests and offline analysis.
"""

from __future__ import annotations

import struct
from typing import BinaryIO, Iterator, List, Optional, Tuple, Union

from repro.ebpf.probes import Attachment, ProbeEvent
from repro.net.packet import Packet

PCAP_MAGIC = 0xA1B2C3D4
PCAP_VERSION = (2, 4)
LINKTYPE_ETHERNET = 1
GLOBAL_HEADER = struct.Struct("<IHHiIII")
RECORD_HEADER = struct.Struct("<IIII")

# tcpdump-style per-packet capture cost (copy into the capture buffer).
CAPTURE_COST_NS = 650


class PcapError(ValueError):
    """Malformed capture file."""


class PcapWriter:
    """Stream packets into a pcap file (or any binary file-like)."""

    def __init__(
        self,
        target: Union[str, BinaryIO],
        snaplen: int = 65535,
    ):
        if isinstance(target, str):
            self._file: BinaryIO = open(target, "wb")
            self._owns_file = True
        else:
            self._file = target
            self._owns_file = False
        self.snaplen = snaplen
        self.packets_written = 0
        self._file.write(
            GLOBAL_HEADER.pack(
                PCAP_MAGIC, PCAP_VERSION[0], PCAP_VERSION[1],
                0, 0, snaplen, LINKTYPE_ETHERNET,
            )
        )

    def write_packet(self, wire_bytes: bytes, timestamp_ns: int) -> None:
        captured = wire_bytes[: self.snaplen]
        seconds, remainder_ns = divmod(timestamp_ns, 1_000_000_000)
        self._file.write(
            RECORD_HEADER.pack(seconds, remainder_ns // 1000, len(captured), len(wire_bytes))
        )
        self._file.write(captured)
        self.packets_written += 1

    def close(self) -> None:
        if self._owns_file:
            self._file.close()

    def __enter__(self) -> "PcapWriter":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


class PcapReader:
    """Iterate (timestamp_ns, wire_bytes) records of a pcap file."""

    def __init__(self, target: Union[str, BinaryIO]):
        if isinstance(target, str):
            self._file: BinaryIO = open(target, "rb")
            self._owns_file = True
        else:
            self._file = target
            self._owns_file = False
        header = self._file.read(GLOBAL_HEADER.size)
        if len(header) < GLOBAL_HEADER.size:
            raise PcapError("truncated pcap global header")
        (magic, major, minor, _tz, _sig, self.snaplen, self.linktype) = (
            GLOBAL_HEADER.unpack(header)
        )
        if magic != PCAP_MAGIC:
            raise PcapError(f"bad pcap magic {magic:#x}")
        if (major, minor) != PCAP_VERSION:
            raise PcapError(f"unsupported pcap version {major}.{minor}")

    def __iter__(self) -> Iterator[Tuple[int, bytes]]:
        while True:
            header = self._file.read(RECORD_HEADER.size)
            if not header:
                return
            if len(header) < RECORD_HEADER.size:
                raise PcapError("truncated pcap record header")
            seconds, micros, incl_len, _orig_len = RECORD_HEADER.unpack(header)
            data = self._file.read(incl_len)
            if len(data) < incl_len:
                raise PcapError("truncated pcap record body")
            yield seconds * 1_000_000_000 + micros * 1000, data

    def close(self) -> None:
        if self._owns_file:
            self._file.close()


class PacketCapture(Attachment):
    """A hook attachment that captures frames pcap-style.

    Attach to any device hook:

        capture = PacketCapture(node)
        node.hooks.attach("dev:eth0", capture)
        ...
        capture.save("eth0.pcap")

    Timestamps come from the node's CLOCK_MONOTONIC (like tcpdump's
    adapter timestamps); ``rule`` optionally filters like a capture
    expression; ``snaplen`` truncates stored bytes.
    """

    def __init__(
        self,
        node,
        snaplen: int = 65535,
        max_packets: Optional[int] = None,
        rule=None,
        name: str = "pcap",
    ):
        super().__init__(name)
        self.node = node
        self.snaplen = snaplen
        self.max_packets = max_packets
        self.rule = rule
        self.records: List[Tuple[int, bytes]] = []
        self.dropped = 0

    def handle(self, event: ProbeEvent) -> int:
        if event.packet is None:
            return 0
        if self.rule is not None and not _rule_matches(self.rule, event.packet):
            return 0
        if self.max_packets is not None and len(self.records) >= self.max_packets:
            self.dropped += 1
            return 0
        wire = event.packet.to_bytes()[: self.snaplen]
        self.records.append((self.node.clock.monotonic_ns(), wire))
        return CAPTURE_COST_NS

    def save(self, target: Union[str, BinaryIO]) -> int:
        """Write the capture; returns the number of packets written."""
        with PcapWriter(target, snaplen=self.snaplen) as writer:
            for timestamp_ns, wire in self.records:
                writer.write_packet(wire, timestamp_ns)
            return writer.packets_written

    def packets(self) -> List[Packet]:
        """Parse captured frames back into structured packets."""
        return [Packet.from_bytes(wire) for _ts, wire in self.records]


def _rule_matches(rule, packet: Packet) -> bool:
    """Capture-filter evaluation in user space (mirrors the compiled
    filter semantics; used because a capture runs without the VM)."""
    inner = packet.innermost
    ip = inner.ip
    if ip is None:
        return rule.matches_everything()
    l4 = inner.tcp or inner.udp
    if rule.protocol is not None and ip.protocol != rule.protocol:
        return False
    if rule.src_ip is not None and not ip.src.in_subnet(rule.src_ip, rule.src_prefix_len):
        return False
    if rule.dst_ip is not None and not ip.dst.in_subnet(rule.dst_ip, rule.dst_prefix_len):
        return False
    if rule.src_port is not None and (l4 is None or l4.src_port != rule.src_port):
        return False
    if rule.dst_port is not None and (l4 is None or l4.dst_port != rule.dst_port):
        return False
    return True
