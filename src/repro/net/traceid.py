"""Per-packet trace IDs carried across domain boundaries (§III-B).

The paper modifies the kernel ("tens of lines") so every packet of a
traced application carries a unique 32-bit random ID:

* TCP -- a 4-byte value in the TCP options (written in
  ``tcp_options_write``; we use an experimental option kind with two
  leading NOPs for alignment, 8 option bytes total);
* UDP -- 4 bytes appended to the payload in ``udp_send_skb`` via
  ``__skb_put()`` and trimmed at the receiver with
  ``pskb_trim_rcsum()`` before the copy to the application buffer, so
  applications never see it.

The ID lives in the *wire bytes*, which is what lets eBPF programs in
any later protection domain (host, Dom0, another machine) read it back
and lets the collector correlate records end-to-end.

RPC causality (docs/SERVICES.md) rides in the same embed: a sender may
declare *parent* trace IDs, and the engine carries them next to the
fresh per-packet ID so the collector can link child RPCs back to the
request that caused them.

* UDP wire layout: ``payload ++ parent0 .. parentN-1 ++ trace_id``
  (each 4 bytes, network order; the fresh ID stays last so readers of
  the original format are unchanged).
* TCP: the option value grows from 4 to 8 bytes when one parent is
  present (two leading NOPs, kind, len, trace_id, parent) -- 12 option
  bytes total, still 4-byte aligned.

The embed is all-or-nothing: if appending the trailer would push a UDP
packet past the egress device MTU, nothing is embedded and the packet
goes out untraced (mirroring the kernel patch, which must not cause
fragmentation).

Embedding costs "tens of nanoseconds" (§III-B); the model charges
:data:`EMBED_COST_NS` / :data:`STRIP_COST_NS`.

The engine attaches to a node through the
:class:`repro.net.stack.PacketMetadataHooks` registry::

    engine = TraceIDEngine.attach(node, mode="udp_payload")
"""

from __future__ import annotations

import struct
from typing import Iterable, Optional, Sequence, Tuple, Union, TYPE_CHECKING

from repro.net.packet import Packet, TCPOPT_TRACE_ID
from repro.sim.rng import SeededRNG

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.net.stack import KernelNode

EMBED_COST_NS = 38
STRIP_COST_NS = 30

# NOP, NOP, kind, len=6, 4 value bytes -> 8 bytes, 4-byte aligned.
_TCP_OPTION_LEN = 8
# With one parent ID: NOP, NOP, kind, len=10, 8 value bytes -> 12 bytes.
_TCP_OPTION_PARENT_LEN = 12

META_TRACE_ID = "trace_id"
META_PARENT_IDS = "trace_parent_ids"
META_UDP_ID_EMBEDDED = "udp_trace_id_embedded"
META_UDP_PARENT_COUNT = "udp_trace_parent_count"

# Attachment modes: which wire formats the engine participates in.
MODE_TCP_OPTION = "tcp_option"
MODE_UDP_PAYLOAD = "udp_payload"
ALL_MODES = (MODE_TCP_OPTION, MODE_UDP_PAYLOAD)

ParentSpec = Union[None, int, Sequence[int]]


def _as_parents(parent: ParentSpec) -> Tuple[int, ...]:
    """Normalize a parent declaration to a tuple of 32-bit IDs."""
    if parent is None:
        return ()
    if isinstance(parent, int):
        return (parent,)
    return tuple(int(p) for p in parent)


class TraceIDEngine:
    """The per-node kernel patch that writes and trims trace IDs."""

    def __init__(self, rng: SeededRNG, modes: Iterable[str] = ALL_MODES):
        self.rng = rng
        self.modes = self._normalize_modes(modes)
        self.ids_embedded = 0
        self.ids_stripped = 0
        self.embeds_refused_mtu = 0

    @staticmethod
    def _normalize_modes(modes: Union[str, Iterable[str]]) -> Tuple[str, ...]:
        if isinstance(modes, str):
            modes = (modes,)
        normalized = tuple(modes)
        for mode in normalized:
            if mode not in ALL_MODES:
                raise ValueError(f"unknown trace-ID mode {mode!r}; expected one of {ALL_MODES}")
        return normalized

    @classmethod
    def attach(
        cls,
        node: "KernelNode",
        *,
        mode: Union[str, Iterable[str], None] = None,
        rng: Optional[SeededRNG] = None,
    ) -> "TraceIDEngine":
        """Install the trace-ID kernel patch on ``node`` (idempotent).

        ``mode`` selects the wire formats -- ``"tcp_option"``,
        ``"udp_payload"``, or an iterable of both (the default).
        Attaching again widens the mode set of the existing engine
        rather than installing a second one.
        """
        modes = cls._normalize_modes(mode if mode is not None else ALL_MODES)
        existing = node.packet_hooks.find(cls)
        if existing is not None:
            existing.modes = tuple(
                m for m in ALL_MODES if m in existing.modes or m in modes
            )
            return existing
        engine = cls(rng or node.rng.fork("traceid"), modes)
        node.packet_hooks.register(engine)
        return engine

    # -- PacketMetadataHooks protocol ---------------------------------------

    def on_udp_send(
        self, packet: Packet, mtu: Optional[int] = None, parent: ParentSpec = None
    ) -> int:
        if MODE_UDP_PAYLOAD not in self.modes:
            return 0
        return self.embed_udp(packet, mtu=mtu, parents=parent)

    def on_udp_deliver(self, packet: Packet) -> int:
        # Stripping is guarded by the embed flag, not the mode: a
        # packet embedded elsewhere must still be trimmed before the
        # application copy.
        return self.strip_udp(packet)

    def on_tcp_options(self, packet: Packet, parent: ParentSpec = None) -> int:
        if MODE_TCP_OPTION not in self.modes:
            return 0
        return self.embed_tcp(packet, parent=parent)

    # -- UDP ----------------------------------------------------------------

    def embed_udp(
        self, packet: Packet, mtu: Optional[int] = None, parents: ParentSpec = None
    ) -> int:
        """Append parent IDs + the fresh 4-byte ID to the UDP payload
        (``__skb_put``); all-or-nothing under the egress MTU."""
        if not isinstance(packet.payload, bytes):
            return 0
        parent_ids = _as_parents(parents)
        extra = 4 * (1 + len(parent_ids))
        if mtu is not None and packet.total_length + extra > mtu:
            self.embeds_refused_mtu += 1
            return 0
        trace_id = self.rng.random_u32()
        trailer = b"".join(struct.pack("!I", p) for p in parent_ids)
        packet.payload = packet.payload + trailer + struct.pack("!I", trace_id)
        packet.metadata[META_TRACE_ID] = trace_id
        packet.metadata[META_PARENT_IDS] = parent_ids
        packet.metadata[META_UDP_ID_EMBEDDED] = True
        packet.metadata[META_UDP_PARENT_COUNT] = len(parent_ids)
        self.ids_embedded += 1
        return EMBED_COST_NS

    def strip_udp(self, packet: Packet) -> int:
        """Trim the trailer before app delivery (``pskb_trim_rcsum``)."""
        if not packet.metadata.get(META_UDP_ID_EMBEDDED):
            return 0
        trim = 4 * (1 + packet.metadata.get(META_UDP_PARENT_COUNT, 0))
        if isinstance(packet.payload, bytes) and len(packet.payload) >= trim:
            packet.payload = packet.payload[:-trim]
        packet.metadata[META_UDP_ID_EMBEDDED] = False
        self.ids_stripped += 1
        return STRIP_COST_NS

    # -- TCP ----------------------------------------------------------------

    def tcp_option_bytes(self, parent: ParentSpec = None) -> "tuple[bytes, int]":
        """Build the option bytes for one segment; returns (bytes, id)."""
        trace_id = self.rng.random_u32()
        parent_ids = _as_parents(parent)
        if parent_ids:
            value = struct.pack("!II", trace_id, parent_ids[0])
        else:
            value = struct.pack("!I", trace_id)
        option = b"\x01\x01" + bytes([TCPOPT_TRACE_ID, 2 + len(value)]) + value
        assert len(option) in (_TCP_OPTION_LEN, _TCP_OPTION_PARENT_LEN)
        self.ids_embedded += 1
        return option, trace_id

    def embed_tcp(self, packet: Packet, parent: ParentSpec = None) -> int:
        """Add the trace-ID option to a built TCP segment
        (``tcp_options_write`` time)."""
        tcp = packet.tcp
        parent_ids = _as_parents(parent)
        option_len = _TCP_OPTION_PARENT_LEN if parent_ids else _TCP_OPTION_LEN
        if tcp is None or len(tcp.options) + option_len > 40:
            return 0
        option, trace_id = self.tcp_option_bytes(parent_ids)
        tcp.options = tcp.options + option
        packet.metadata[META_TRACE_ID] = trace_id
        packet.metadata[META_PARENT_IDS] = parent_ids[:1]
        return EMBED_COST_NS


def wire_record_id(trace_id: int) -> int:
    """Map an embedded ID to the value compiled probes record.

    In-kernel programs load the ID little-endian over the big-endian
    wire bytes (see ``core/compiler._emit_trace_id``), so collector-side
    rows carry this fixed permutation of the embedded value.  Anything
    that joins app-level IDs (packet metadata) against TraceDB rows --
    e.g. the RPC causality links -- converts through here first.
    """
    return struct.unpack("<I", struct.pack("!I", trace_id))[0]


def extract_trace_id(packet: Packet) -> Optional[int]:
    """Read the trace ID back out of a packet's *wire format* -- the
    user-space analog of what compiled eBPF programs do in-kernel."""
    inner = packet.innermost
    tcp = inner.tcp
    if tcp is not None:
        value = tcp.find_option(TCPOPT_TRACE_ID)
        if value is not None and len(value) in (4, 8):
            return struct.unpack("!I", value[:4])[0]
        return None
    if inner.udp is not None and inner.metadata.get(META_UDP_ID_EMBEDDED):
        payload = inner.payload
        if isinstance(payload, bytes) and len(payload) >= 4:
            return struct.unpack("!I", payload[-4:])[0]
    return None


def extract_parent_ids(packet: Packet) -> Tuple[int, ...]:
    """Read the parent trace IDs out of a packet's wire format (the
    RPC-causality half of the embed; empty for root packets)."""
    inner = packet.innermost
    tcp = inner.tcp
    if tcp is not None:
        value = tcp.find_option(TCPOPT_TRACE_ID)
        if value is not None and len(value) == 8:
            return (struct.unpack("!I", value[4:8])[0],)
        return ()
    if inner.udp is not None and inner.metadata.get(META_UDP_ID_EMBEDDED):
        count = inner.metadata.get(META_UDP_PARENT_COUNT, 0)
        payload = inner.payload
        need = 4 * (1 + count)
        if count and isinstance(payload, bytes) and len(payload) >= need:
            words = struct.unpack(f"!{count}I", payload[-need:-4])
            return tuple(words)
    return ()
