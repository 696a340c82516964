"""Packets and binary header layouts.

Headers serialize to real wire format.  That matters because the eBPF
tracing scripts this repo compiles do not inspect Python objects -- they
load bytes at header offsets out of the serialized packet image, exactly
like a socket-filter program reading ``skb`` data.  A packet therefore
carries both its structured form (cheap for the simulator to route) and,
on demand, its byte image (what programs see).

Encapsulation nests: a VXLAN packet is an outer
Ethernet/IPv4/UDP/VXLAN whose payload is the entire inner packet, as in
the paper's Docker overlay network (§IV-E), where tracing scripts must
"strip the VXLAN header off to read the skb information".
"""

from __future__ import annotations

import itertools
import struct
from typing import List, Optional, Tuple, Union

from repro.net.addressing import IPv4Address, MACAddress

ETHERTYPE_IPV4 = 0x0800
ETHERTYPE_ARP = 0x0806

IPPROTO_TCP = 6
IPPROTO_UDP = 17

TCP_FLAG_FIN = 0x01
TCP_FLAG_SYN = 0x02
TCP_FLAG_RST = 0x04
TCP_FLAG_PSH = 0x08
TCP_FLAG_ACK = 0x10

# TCP option kind used for the embedded vNetTracer trace ID (§III-B uses a
# 4-byte space in the TCP options; we follow the experimental-use kind).
TCPOPT_TRACE_ID = 0xFD

_packet_uid_counter = itertools.count(1)

# Wire layouts, compiled once.  A 48-bit MAC travels as a 16+32-bit pair.
_ETH = struct.Struct("!HIHIH")
_IPV4 = struct.Struct("!BBHHHBBHII")
_UDP = struct.Struct("!HHHH")
_TCP = struct.Struct("!HHIIHHHH")
_VXLAN = struct.Struct("!BBHI")


class HeaderError(ValueError):
    """Raised when a header cannot be built or parsed."""


class _WireHeader:
    """What the header classes share.  Each defines ``pack_into(buffer,
    offset)`` -- write the wire form in place, return the offset after
    it -- and ``slot``, the :class:`Packet` attribute it is reachable
    through."""

    __slots__ = ()

    def pack(self) -> bytes:
        buffer = bytearray(self.length)
        self.pack_into(buffer, 0)
        return bytes(buffer)

    def copy(self):
        """A field-for-field duplicate.  Field values are ints, bytes
        and immutable address objects, so sharing them is safe, and
        ``__init__``'s validation and re-wrapping has nothing to add."""
        duplicate = object.__new__(type(self))
        for name in self.__slots__:
            setattr(duplicate, name, getattr(self, name))
        return duplicate


class EthernetHeader(_WireHeader):
    """14-byte Ethernet II header."""

    __slots__ = ("dst", "src", "ethertype")

    LENGTH = length = 14
    slot = "eth"

    def __init__(self, dst: MACAddress, src: MACAddress, ethertype: int = ETHERTYPE_IPV4):
        self.dst = MACAddress(dst)
        self.src = MACAddress(src)
        self.ethertype = ethertype

    def pack_into(self, buffer: bytearray, offset: int) -> int:
        dst, src = self.dst.value, self.src.value
        _ETH.pack_into(
            buffer, offset, dst >> 32, dst & 0xFFFFFFFF, src >> 32, src & 0xFFFFFFFF, self.ethertype
        )
        return offset + 14

    @classmethod
    def unpack(cls, data: bytes) -> "EthernetHeader":
        if len(data) < cls.LENGTH:
            raise HeaderError("truncated Ethernet header")
        dst_hi, dst_lo, src_hi, src_lo, ethertype = _ETH.unpack_from(data)
        return cls(MACAddress(dst_hi << 32 | dst_lo), MACAddress(src_hi << 32 | src_lo), ethertype)

    def __repr__(self) -> str:
        return f"<Eth {self.src}->{self.dst} type=0x{self.ethertype:04x}>"


class IPv4Header(_WireHeader):
    """20-byte IPv4 header (no IP options)."""

    __slots__ = ("src", "dst", "protocol", "ttl", "identification", "total_length", "dscp")

    LENGTH = length = 20
    slot = "ip"

    def __init__(
        self,
        src: IPv4Address,
        dst: IPv4Address,
        protocol: int,
        ttl: int = 64,
        identification: int = 0,
        total_length: int = 0,
        dscp: int = 0,
    ):
        self.src = IPv4Address(src)
        self.dst = IPv4Address(dst)
        self.protocol = protocol
        self.ttl = ttl
        self.identification = identification & 0xFFFF
        self.total_length = total_length
        self.dscp = dscp

    def pack_into(self, buffer: bytearray, offset: int) -> int:
        tos = self.dscp << 2
        src, dst = self.src.value, self.dst.value
        # RFC 1071 over the header's 16-bit words (version 4 / IHL 5;
        # flags and fragment offset are zero: nothing fragments in this
        # substrate).  struct range-checks every field it packs below,
        # so the words summed here are the words on the wire.
        total = 0x4500 + tos + self.total_length + self.identification + (self.ttl << 8)
        total += self.protocol + (src >> 16) + (src & 0xFFFF) + (dst >> 16) + (dst & 0xFFFF)
        total = (total & 0xFFFF) + (total >> 16)
        total = (total & 0xFFFF) + (total >> 16)
        _IPV4.pack_into(
            buffer,
            offset,
            0x45,
            tos,
            self.total_length,
            self.identification,
            0,  # flags / fragment offset
            self.ttl,
            self.protocol,
            ~total & 0xFFFF,
            src,
            dst,
        )
        return offset + 20

    @classmethod
    def unpack(cls, data: bytes) -> "IPv4Header":
        if len(data) < cls.LENGTH:
            raise HeaderError("truncated IPv4 header")
        fields = _IPV4.unpack_from(data)
        version_ihl, tos, total_length, identification, _frag, ttl, protocol, _, src, dst = fields
        if version_ihl >> 4 != 4:
            raise HeaderError(f"not IPv4 (version={version_ihl >> 4})")
        if version_ihl & 0xF != 5:
            raise HeaderError(f"IP options are not modeled (IHL={version_ihl & 0xF})")
        return cls(
            IPv4Address(src),
            IPv4Address(dst),
            protocol,
            ttl=ttl,
            identification=identification,
            total_length=total_length,
            dscp=tos >> 2,
        )

    def __repr__(self) -> str:
        return f"<IPv4 {self.src}->{self.dst} proto={self.protocol} ttl={self.ttl}>"


class UDPHeader(_WireHeader):
    """8-byte UDP header."""

    __slots__ = ("src_port", "dst_port", "udp_length", "checksum")

    LENGTH = length = 8
    slot = "udp"

    def __init__(self, src_port: int, dst_port: int, udp_length: int = 0, checksum: int = 0):
        self.src_port = src_port
        self.dst_port = dst_port
        self.udp_length = udp_length
        self.checksum = checksum

    def pack_into(self, buffer: bytearray, offset: int) -> int:
        _UDP.pack_into(buffer, offset, self.src_port, self.dst_port, self.udp_length, self.checksum)
        return offset + 8

    @classmethod
    def unpack(cls, data: bytes) -> "UDPHeader":
        if len(data) < cls.LENGTH:
            raise HeaderError("truncated UDP header")
        return cls(*_UDP.unpack_from(data))

    def __repr__(self) -> str:
        return f"<UDP {self.src_port}->{self.dst_port} len={self.udp_length}>"


class TCPHeader(_WireHeader):
    """TCP header with an options area (where the trace ID lives)."""

    __slots__ = ("src_port", "dst_port", "seq", "ack", "flags", "window", "options")

    BASE_LENGTH = 20
    slot = "tcp"

    def __init__(
        self,
        src_port: int,
        dst_port: int,
        seq: int = 0,
        ack: int = 0,
        flags: int = TCP_FLAG_ACK,
        window: int = 65535,
        options: bytes = b"",
    ):
        if len(options) % 4 != 0:
            raise HeaderError("TCP options must be padded to 4-byte multiples")
        if len(options) > 40:
            raise HeaderError("TCP options exceed 40 bytes")
        self.src_port = src_port
        self.dst_port = dst_port
        self.seq = seq & 0xFFFFFFFF
        self.ack = ack & 0xFFFFFFFF
        self.flags = flags
        self.window = window
        self.options = bytes(options)

    @property
    def data_offset_words(self) -> int:
        return (self.BASE_LENGTH + len(self.options)) // 4

    @property
    def length(self) -> int:
        return self.BASE_LENGTH + len(self.options)

    def pack_into(self, buffer: bytearray, offset: int) -> int:
        options = self.options
        end = offset + 20 + len(options)
        _TCP.pack_into(
            buffer,
            offset,
            self.src_port,
            self.dst_port,
            self.seq,
            self.ack,
            (self.data_offset_words << 12) | (self.flags & 0x1FF),
            self.window,
            0,  # checksum: offloaded in this substrate
            0,  # urgent pointer
        )
        buffer[offset + 20 : end] = options
        return end

    @classmethod
    def unpack(cls, data: bytes) -> "TCPHeader":
        if len(data) < cls.BASE_LENGTH:
            raise HeaderError("truncated TCP header")
        src_port, dst_port, seq, ack, offset_flags, window, _csum, _urg = _TCP.unpack_from(data)
        data_offset = (offset_flags >> 12) * 4
        if data_offset < cls.BASE_LENGTH or len(data) < data_offset:
            raise HeaderError("bad TCP data offset")
        options = data[cls.BASE_LENGTH : data_offset]
        return cls(
            src_port,
            dst_port,
            seq=seq,
            ack=ack,
            flags=offset_flags & 0x1FF,
            window=window,
            options=options,
        )

    def find_option(self, kind: int) -> Optional[bytes]:
        """Return the value bytes of a TLV option, or None."""
        buf = self.options
        i = 0
        while i < len(buf):
            opt_kind = buf[i]
            if opt_kind == 0:  # end of options
                return None
            if opt_kind == 1:  # NOP
                i += 1
                continue
            if i + 1 >= len(buf):
                return None
            opt_len = buf[i + 1]
            if opt_len < 2 or i + opt_len > len(buf):
                return None
            if opt_kind == kind:
                return buf[i + 2 : i + opt_len]
            i += opt_len
        return None

    def __repr__(self) -> str:
        return f"<TCP {self.src_port}->{self.dst_port} seq={self.seq} flags=0x{self.flags:x}>"


class VXLANHeader(_WireHeader):
    """8-byte VXLAN header (RFC 7348)."""

    __slots__ = ("vni",)

    LENGTH = length = 8
    slot = "vxlan"

    def __init__(self, vni: int):
        if not 0 <= vni < (1 << 24):
            raise HeaderError(f"VNI out of range: {vni}")
        self.vni = vni

    def pack_into(self, buffer: bytearray, offset: int) -> int:
        _VXLAN.pack_into(buffer, offset, 0x08, 0, 0, self.vni << 8)
        return offset + 8

    @classmethod
    def unpack(cls, data: bytes) -> "VXLANHeader":
        if len(data) < cls.LENGTH:
            raise HeaderError("truncated VXLAN header")
        flags, _r1, _r2, vni_field = _VXLAN.unpack_from(data)
        if not flags & 0x08:
            raise HeaderError("VXLAN I flag not set")
        return cls(vni_field >> 8)

    def __repr__(self) -> str:
        return f"<VXLAN vni={self.vni}>"


Header = Union[EthernetHeader, IPv4Header, UDPHeader, TCPHeader, VXLANHeader]


def _pack_header(header: Header, buffer: bytearray, offset: int, remaining: int) -> int:
    """Write ``header`` at ``offset`` with its length field fixed up:
    ``remaining`` is everything from this header to the end of the wire
    image, nested packets included.  Returns the offset after it."""
    if isinstance(header, UDPHeader):
        header.udp_length = remaining
    elif isinstance(header, IPv4Header):
        header.total_length = remaining
    return header.pack_into(buffer, offset)


class Packet:
    """A simulated packet: structured headers + payload (+ wire image on demand).

    ``payload`` is either raw bytes or a nested :class:`Packet`
    (encapsulation).  ``uid`` is a simulator-level identity; the 32-bit
    trace ID that vNetTracer embeds lives *in the header bytes*, not
    here, because tracing must work off what is actually on the wire.
    """

    __slots__ = (
        "headers",
        "eth",
        "ip",
        "udp",
        "tcp",
        "vxlan",
        "payload",
        "uid",
        "app",
        "app_seq",
        "created_at_ns",
        "metadata",
    )

    def __init__(
        self,
        headers: List[Header],
        payload: Union[bytes, "Packet"] = b"",
        app: str = "",
        app_seq: int = 0,
        created_at_ns: int = 0,
    ):
        self.headers = headers = list(headers)
        # The header list is fixed from here on, so each layer resolves
        # once: ``packet.ip`` etc. are plain attributes holding the first
        # header of their kind, or None.
        self.eth: Optional[EthernetHeader] = None
        self.ip: Optional[IPv4Header] = None
        self.udp: Optional[UDPHeader] = None
        self.tcp: Optional[TCPHeader] = None
        self.vxlan: Optional[VXLANHeader] = None
        for header in reversed(headers):
            setattr(self, header.slot, header)
        self.payload = payload
        self.uid = next(_packet_uid_counter)
        self.app = app
        self.app_seq = app_seq
        self.created_at_ns = created_at_ns
        self.metadata: dict = {}

    @property
    def inner(self) -> Optional["Packet"]:
        """The encapsulated packet, if this is a tunnel packet."""
        return self.payload if isinstance(self.payload, Packet) else None

    @property
    def innermost(self) -> "Packet":
        """Follow encapsulation down to the original packet."""
        packet = self
        while isinstance(packet.payload, Packet):
            packet = packet.payload
        return packet

    # -- sizes ---------------------------------------------------------------

    @property
    def payload_length(self) -> int:
        payload = self.payload
        return payload.total_length if isinstance(payload, Packet) else len(payload)

    @property
    def header_length(self) -> int:
        length = 0
        for header in self.headers:
            length += header.length
        return length

    @property
    def total_length(self) -> int:
        # Every hop asks (device stats, link serialization, copy costs),
        # so this walks the nesting in one frame.
        length = 0
        payload = self
        while isinstance(payload, Packet):
            for header in payload.headers:
                length += header.length
            payload = payload.payload
        return length + len(payload)

    # -- wire image ----------------------------------------------------------

    def wire_image(self) -> bytearray:
        """Serialize to wire format in one pre-sized buffer, fixing up
        the UDP / IPv4 length fields along the way."""
        size = self.total_length
        image = bytearray(size)
        offset = 0
        packet = self
        while True:
            for header in packet.headers:
                offset = _pack_header(header, image, offset, size - offset)
            payload = packet.payload
            if not isinstance(payload, Packet):
                image[offset:] = payload
                return image
            packet = payload

    def wire_header(self, offset: int, size: int, total: int) -> Optional[Tuple[bytes, int]]:
        """The one header holding bytes ``offset .. offset + size`` of
        the ``total``-byte wire image, serialised alone exactly as
        :meth:`wire_image` would write it, and where it starts in the
        image -- or, for a range inside a TCP header's options, the
        options and where they start: they go on the wire verbatim.
        ``None`` when no single header holds the range: it straddles
        two, or reaches the innermost payload."""
        start = 0
        packet = self
        while isinstance(packet, Packet):
            for header in packet.headers:
                end = start + header.length
                if offset < end:
                    if offset + size > end:
                        return None
                    fixed = start + TCPHeader.BASE_LENGTH
                    if header.__class__ is TCPHeader and offset >= fixed:
                        return header.options, fixed
                    wire = bytearray(end - start)
                    _pack_header(header, wire, 0, total - start)
                    return wire, start
                start = end
            packet = packet.payload
        return None

    def to_bytes(self) -> bytes:
        """The wire image as immutable bytes."""
        return bytes(self.wire_image())

    @classmethod
    def from_bytes(cls, data: bytes, decapsulate_vxlan_port: int = 4789) -> "Packet":
        """Parse a wire image (Ethernet first).  VXLAN payloads on the
        given UDP port are recursively parsed as inner packets."""
        eth = EthernetHeader.unpack(data)
        offset = eth.length
        headers: List[Header] = [eth]
        payload: Union[bytes, Packet] = b""
        if eth.ethertype == ETHERTYPE_IPV4:
            ip = IPv4Header.unpack(data[offset:])
            headers.append(ip)
            offset += ip.length
            if ip.protocol == IPPROTO_UDP:
                udp = UDPHeader.unpack(data[offset:])
                headers.append(udp)
                offset += udp.length
                if udp.dst_port == decapsulate_vxlan_port:
                    vxlan = VXLANHeader.unpack(data[offset:])
                    headers.append(vxlan)
                    offset += vxlan.length
                    payload = cls.from_bytes(data[offset:], decapsulate_vxlan_port)
                else:
                    payload = data[offset:]
            elif ip.protocol == IPPROTO_TCP:
                tcp = TCPHeader.unpack(data[offset:])
                headers.append(tcp)
                offset += tcp.length
                payload = data[offset:]
            else:
                payload = data[offset:]
        else:
            payload = data[offset:]
        return cls(headers, payload)

    def clone(self) -> "Packet":
        """A structural copy with a fresh uid (used when a bridge floods
        one frame out several ports)."""
        payload = self.payload
        duplicate = Packet(
            [header.copy() for header in self.headers],
            payload.clone() if isinstance(payload, Packet) else payload,
            app=self.app,
            app_seq=self.app_seq,
            created_at_ns=self.created_at_ns,
        )
        duplicate.metadata = dict(self.metadata)
        return duplicate

    def __repr__(self) -> str:
        layers = "/".join(type(h).__name__.replace("Header", "") for h in self.headers)
        return f"<Packet#{self.uid} {layers} len={self.total_length} app={self.app!r}>"


def make_udp_packet(
    src_mac: MACAddress,
    dst_mac: MACAddress,
    src_ip: IPv4Address,
    dst_ip: IPv4Address,
    src_port: int,
    dst_port: int,
    payload: bytes,
    app: str = "",
    app_seq: int = 0,
    created_at_ns: int = 0,
) -> Packet:
    """Convenience constructor for a plain UDP datagram."""
    headers: List[Header] = [
        EthernetHeader(dst_mac, src_mac, ETHERTYPE_IPV4),
        IPv4Header(src_ip, dst_ip, IPPROTO_UDP),
        UDPHeader(src_port, dst_port),
    ]
    return Packet(headers, payload, app=app, app_seq=app_seq, created_at_ns=created_at_ns)


def make_tcp_packet(
    src_mac: MACAddress,
    dst_mac: MACAddress,
    src_ip: IPv4Address,
    dst_ip: IPv4Address,
    src_port: int,
    dst_port: int,
    payload: bytes,
    seq: int = 0,
    ack: int = 0,
    flags: int = TCP_FLAG_ACK,
    options: bytes = b"",
    app: str = "",
    app_seq: int = 0,
    created_at_ns: int = 0,
) -> Packet:
    """Convenience constructor for a TCP segment."""
    headers: List[Header] = [
        EthernetHeader(dst_mac, src_mac, ETHERTYPE_IPV4),
        IPv4Header(src_ip, dst_ip, IPPROTO_TCP),
        TCPHeader(src_port, dst_port, seq=seq, ack=ack, flags=flags, options=options),
    ]
    return Packet(headers, payload, app=app, app_seq=app_seq, created_at_ns=created_at_ns)
