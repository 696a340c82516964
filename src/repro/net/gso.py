"""Segmentation offload (TSO/GSO) and receive coalescing (GRO/LRO).

These are the mechanisms that make Case Study III's numbers what they
are: VM-to-VM TCP rides 64 KB super-segments through virtio (one stack
traversal amortized over ~45 MSS), while a VXLAN overlay must put
MTU-sized packets on the wire and re-aggregate after decapsulation --
each wire packet paying per-packet costs and raising softirqs.

* :func:`segment_packet` -- split a TCP super-segment into MSS-sized
  wire segments (what a TSO NIC or the GSO software path does).
* :class:`GROEngine` -- flow-aware coalescing of in-order TCP segments
  back into super-segments, flushed by batch size or a short timer.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Tuple

from repro.net.flow import FiveTuple, packet_five_tuple
from repro.net.packet import Packet
from repro.sim.engine import Engine

META_GSO_SEGS = "gso_segs"


def gso_segs(packet: Packet) -> int:
    """How many logical MSS segments a (possibly super-) packet carries."""
    return int(packet.metadata.get(META_GSO_SEGS, 1))


def segment_packet(packet: Packet, mss: int) -> List[Packet]:
    """Split a large packet into wire-sized pieces.

    TCP super-segments split at ``mss`` with advancing sequence numbers
    (TSO/GSO).  Large UDP datagrams split the same way, modeling IP
    fragmentation when UFO cannot carry them further (e.g. into a VXLAN
    tunnel).  Small and non-L4 packets pass through."""
    payload = packet.payload
    if not isinstance(payload, bytes) or len(payload) <= mss:
        return [packet]
    tcp = packet.tcp
    if tcp is None and packet.udp is None:
        return [packet]
    segments: List[Packet] = []
    offset = 0
    while offset < len(payload):
        chunk = payload[offset : offset + mss]
        clone = packet.clone()
        clone.payload = chunk
        if tcp is not None:
            clone.tcp.seq = (tcp.seq + offset) & 0xFFFFFFFF
        clone.metadata[META_GSO_SEGS] = 1
        segments.append(clone)
        offset += len(chunk)
    return segments


class GROEngine:
    """Coalesce in-order TCP segments of one flow into super-segments.

    ``deliver(packet, cpu)`` is called with either a pass-through packet
    or a merged super-segment.  Flush triggers: ``flush_batch`` segments
    accumulated, a sequence gap / non-mergeable packet, or the
    ``window_ns`` timer (packets must not sit forever -- GRO trades a
    few microseconds of latency for amortization)."""

    def __init__(
        self,
        engine: Engine,
        deliver: Callable[[Packet, object], None],
        flush_batch: int = 8,
        window_ns: int = 30_000,
        name: str = "gro",
    ):
        self.engine = engine
        self.deliver = deliver
        self.flush_batch = flush_batch
        self.window_ns = window_ns
        self.name = name
        # flow -> (segments, expected_next_seq, cpu, timer_event)
        self._buffers: Dict[FiveTuple, Tuple[List[Packet], int, object, object]] = {}
        self.merged_out = 0
        self.passthrough = 0

    def push(self, packet: Packet, cpu) -> None:
        tcp = packet.tcp
        flow = packet_five_tuple(packet)
        mergeable = (
            tcp is not None
            and flow is not None
            and isinstance(packet.payload, bytes)
            and len(packet.payload) > 0
        )
        if not mergeable:
            # Flush any buffer of the same flow first to preserve order.
            if flow is not None and flow in self._buffers:
                self.flush(flow)
            self.passthrough += 1
            self.deliver(packet, cpu)
            return

        buffer = self._buffers.get(flow)
        if buffer is not None:
            segments, expected_seq, _cpu, timer = buffer
            if tcp.seq == expected_seq:
                segments.append(packet)
                new_expected = (expected_seq + len(packet.payload)) & 0xFFFFFFFF
                self._buffers[flow] = (segments, new_expected, cpu, timer)
                if len(segments) >= self.flush_batch:
                    self.flush(flow)
                return
            self.flush(flow)  # gap or retransmit: drain, then start fresh

        timer = self.engine.timer(self.window_ns, self._timer_flush, flow)
        expected = (tcp.seq + len(packet.payload)) & 0xFFFFFFFF
        self._buffers[flow] = ([packet], expected, cpu, timer)

    def _timer_flush(self, flow: FiveTuple) -> None:
        if flow in self._buffers:
            self.flush(flow)

    def flush(self, flow: FiveTuple) -> None:
        segments, _expected, cpu, timer = self._buffers.pop(flow)
        if timer is not None:
            timer.cancel()
        if len(segments) == 1:
            self.passthrough += 1
            self.deliver(segments[0], cpu)
            return
        merged = segments[0]
        merged.payload = b"".join(
            seg.payload for seg in segments if isinstance(seg.payload, bytes)
        )
        merged.metadata[META_GSO_SEGS] = sum(gso_segs(seg) for seg in segments)
        self.merged_out += 1
        self.deliver(merged, cpu)

    def flush_all(self) -> None:
        for flow in list(self._buffers):
            self.flush(flow)

    def __repr__(self) -> str:
        return f"<GROEngine {self.name} buffered_flows={len(self._buffers)}>"
