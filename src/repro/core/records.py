"""The on-wire trace record format.

A record is what one eBPF script invocation writes through
``perf_event_output``: exactly 24 little-endian bytes (the layout the
compiled programs build on their stack frame):

====== ====== ====================================================
offset size   field
====== ====== ====================================================
0      u32    trace_id        -- the in-packet ID (0 if none)
4      u32    tracepoint_id   -- which attached script produced it
8      u64    timestamp_ns    -- bpf_ktime_get_ns() on that node
16     u32    packet_len      -- wire length at that point
20     u32    cpu             -- smp_processor_id()
====== ====== ====================================================
"""

from __future__ import annotations

import struct
from typing import NamedTuple

RECORD_STRUCT = struct.Struct("<IIQII")
RECORD_BYTES = RECORD_STRUCT.size  # 24

assert RECORD_BYTES == 24

# Timestamps must stay below 2**62 ns (~146 years of ktime): with every
# clock skew below it too (TraceDB.set_clock_skew), an aligned timestamp
# always fits the TraceDB's signed 64-bit columns.
MAX_TIMESTAMP_NS = 1 << 62
# The top byte of a timestamp below MAX_TIMESTAMP_NS is one of these.
_TIMESTAMP_TOP_BYTES = bytes(range(MAX_TIMESTAMP_NS >> 56))


class MalformedBatchError(ValueError):
    """A shipment blob that is not bytes-like, not a whole number of
    :data:`RECORD_BYTES`-byte records (truncated in flight), or holding
    a timestamp of :data:`MAX_TIMESTAMP_NS` or more."""

    @classmethod
    def check(cls, blob) -> None:
        """Raise unless ``blob`` can be bulk-decoded and stored.  Ingest
        calls this before touching any state, so a rejected blob leaves
        no trace and its well-formed retransmission still applies."""
        if not isinstance(blob, (bytes, bytearray, memoryview)):
            raise cls(f"shipment blob must be bytes-like, got {type(blob).__name__}")
        size = memoryview(blob).nbytes
        if size % RECORD_BYTES:
            raise cls(
                f"shipment blob of {size} bytes is not a whole number of "
                f"{RECORD_BYTES}-byte records"
            )
        # Byte 15 of each record is its timestamp's most significant byte.
        if bytes(blob[15::RECORD_BYTES]).translate(None, _TIMESTAMP_TOP_BYTES):
            raise cls(f"shipment blob holds a timestamp of {MAX_TIMESTAMP_NS} ns or more")


class TraceRecord(NamedTuple):
    trace_id: int
    tracepoint_id: int
    timestamp_ns: int
    packet_len: int
    cpu: int

    def pack(self) -> bytes:
        return RECORD_STRUCT.pack(
            self.trace_id, self.tracepoint_id, self.timestamp_ns, self.packet_len, self.cpu
        )

    @classmethod
    def unpack(cls, data: bytes) -> "TraceRecord":
        if len(data) != RECORD_BYTES:
            raise ValueError(f"trace record must be {RECORD_BYTES} bytes, got {len(data)}")
        return cls(*RECORD_STRUCT.unpack(data))


# Stack frame offsets used by the compiler (relative to R10).
FRAME_OFF_TRACE_ID = -24
FRAME_OFF_TRACEPOINT_ID = -20
FRAME_OFF_TIMESTAMP = -16
FRAME_OFF_LEN = -8
FRAME_OFF_CPU = -4
FRAME_BASE = -24
