"""The program context: a ``__sk_buff``-like struct handed to programs in R1.

Layout (little-endian, fixed offsets -- programs hardcode these, as real
socket-filter programs hardcode ``__sk_buff`` offsets):

====== ====== ==========================================================
offset size   field
====== ====== ==========================================================
0      u32    len          -- wire length of the packet at this hook
4      u16    protocol     -- ethertype
8      u32    ifindex      -- device the hook fired on
12     u32    rx_cpu       -- CPU the event is being processed on
16     u32    src_ip       -- IPv4 source (host byte order)
20     u32    dst_ip       -- IPv4 destination (host byte order)
24     u16    src_port     -- L4 source port (host byte order)
26     u16    dst_port     -- L4 destination port (host byte order)
28     u8     ip_proto     -- 6 TCP / 17 UDP
32     u32    hook_id      -- numeric tracepoint id assigned at attach
36     u32    payload_off  -- offset of L4 payload within data
40     u64    data         -- pointer to the first packet byte
48     u64    data_end     -- pointer one past the last packet byte
====== ====== ==========================================================

For VXLAN hooks inside an overlay, the builder can be asked to describe
the *inner* packet (the paper: "the tracing scripts need to strip the
VXLAN header off to read the skb information").  The parsed fields then
refer to the inner five-tuple while data/data_end still cover the bytes
visible at the hook.
"""

from __future__ import annotations

import struct
from typing import Optional, Tuple

from repro.ebpf.memory import PACKET_REGION_BASE
from repro.net.packet import Packet

CTX_SIZE = 56

OFF_LEN = 0
OFF_PROTOCOL = 4
OFF_IFINDEX = 8
OFF_RX_CPU = 12
OFF_SRC_IP = 16
OFF_DST_IP = 20
OFF_SRC_PORT = 24
OFF_DST_PORT = 26
OFF_IP_PROTO = 28
OFF_HOOK_ID = 32
OFF_PAYLOAD_OFF = 36
OFF_DATA = 40
OFF_DATA_END = 48

# The whole table above as one layout, in field order.
_CTX = struct.Struct("<IH2xIIIIHHB3xIIQQ")


class PacketImage:
    """The ``data`` .. ``data_end`` region of one invocation, as a view
    over the packet's segments.

    Nothing is serialised up front.  A :meth:`load` that falls wholly
    inside the innermost byte payload reads the payload; one wholly
    inside a header serialises that header alone
    (:meth:`Packet.wire_header`: same length fix-ups and IPv4 checksum
    as the full image).  Anything else -- a load straddling segments, a
    store, a helper read, the interpreter, shadow mode -- builds the
    whole wire image once (:meth:`materialise`), and every later access
    of the invocation uses it, so a store is seen by the loads after it.
    A program whose filter misses on context fields pays for none of it.
    """

    __slots__ = ("_packet", "_length", "_payload", "_payload_start", "_bytes")

    def __init__(self, packet: Packet, length: int, payload: bytes, payload_start: int):
        self._packet = packet
        self._length = length
        self._payload = payload  # the innermost packet's bytes ...
        self._payload_start = payload_start  # ... and where they start in the image
        self._bytes: Optional[bytearray] = None

    def __len__(self) -> int:
        return self._length

    def load(self, offset: int, size: int) -> int:
        """The little-endian value of bytes ``offset .. offset + size``
        (in bounds -- the caller checked against ``len()``)."""
        segment = self._bytes
        if segment is None:
            start = self._payload_start
            if offset >= start:
                segment = self._payload
            else:
                found = self._packet.wire_header(offset, size, self._length)
                if found is None:
                    segment, start = self.materialise(), 0
                else:
                    segment, start = found
            offset -= start
        return int.from_bytes(segment[offset : offset + size], "little")

    def materialise(self) -> bytearray:
        if self._bytes is None:
            self._bytes = self._packet.wire_image()
        return self._bytes

    def __bytes__(self) -> bytes:
        return bytes(self.materialise())


def build_skb_context(
    packet: Packet,
    ifindex: int = 0,
    cpu: int = 0,
    hook_id: int = 0,
    use_inner: bool = False,
) -> Tuple[bytearray, PacketImage]:
    """Build (ctx, packet region) for one program invocation.

    ``use_inner`` fills the parsed fields from the innermost packet
    (after notional VXLAN decap).
    """
    # One walk down the encapsulation for every length the context and
    # the image need (``total_length`` / ``innermost`` /
    # ``payload_length`` would each walk it again).
    length = 0
    logical = packet
    while True:
        for header in logical.headers:
            length += header.length
        if logical is packet:
            outer_headers = length
        payload = logical.payload
        if not isinstance(payload, Packet):
            break
        logical = payload
    payload_start = length
    length += len(payload)
    if use_inner:
        payload_off = payload_start
    else:
        logical = packet
        payload_off = outer_headers
    eth = logical.eth
    ip = logical.ip
    l4 = logical.tcp if logical.tcp is not None else logical.udp
    ctx = bytearray(CTX_SIZE)
    _CTX.pack_into(
        ctx,
        0,
        length,
        eth.ethertype if eth is not None else 0,
        ifindex,
        cpu,
        ip.src.value if ip is not None else 0,
        ip.dst.value if ip is not None else 0,
        l4.src_port if l4 is not None else 0,
        l4.dst_port if l4 is not None else 0,
        ip.protocol if ip is not None else 0,
        hook_id,
        # Where the L4 payload of the *logical* packet starts inside the
        # image: after the outer headers and the logical packet's own.
        payload_off,
        PACKET_REGION_BASE,
        PACKET_REGION_BASE + length,
    )
    return ctx, PacketImage(packet, length, payload, payload_start)


def build_empty_context(
    ifindex: int = 0, cpu: int = 0, hook_id: int = 0
) -> Tuple[bytearray, bytearray]:
    """A context for probe points with no packet: all packet fields are
    zero, data == data_end (an empty, valid region)."""
    ctx = bytearray(CTX_SIZE)
    base = PACKET_REGION_BASE
    _CTX.pack_into(ctx, 0, 0, 0, ifindex, cpu, 0, 0, 0, 0, 0, hook_id, 0, base, base)
    return ctx, bytearray(0)


def context_field(ctx: bytearray, offset: int, size: int) -> int:
    """Read a context field from the byte image (user-space debugging)."""
    return int.from_bytes(ctx[offset : offset + size], "little")
