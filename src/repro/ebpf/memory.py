"""The VM's memory model: a handful of byte regions at virtual bases.

Pointers inside the VM are plain 64-bit integers.  Each execution sees:

* the 512-byte stack (R10 points one past its top),
* the context struct (``__sk_buff`` analog),
* the packet data (``ctx->data`` .. ``ctx->data_end``),
* value buffers returned by map lookups (they alias map storage, so
  stores through them persist across invocations, as in the kernel).

Loads and stores outside a registered region, and stores into a
read-only one (a ``bytes`` buffer: the context), raise
:class:`MemoryFault` -- the runtime backstop behind the verifier.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

STACK_REGION_BASE = 0x1_0000_0000
CTX_REGION_BASE = 0x2_0000_0000
PACKET_REGION_BASE = 0x3_0000_0000
MAP_VALUE_REGION_BASE = 0x4_0000_0000


class MemoryFault(RuntimeError):
    """An out-of-bounds or misaligned access at runtime."""


class Memory:
    """Region registry with bounds-checked little-endian access.

    eBPF memory accesses are little-endian (the ISA is LE); network
    byte order conversions are done explicitly by programs.
    """

    __slots__ = ("_regions", "_next_dynamic_base")

    def __init__(self, regions: Optional[List[Tuple[int, bytearray, str]]] = None) -> None:
        """``regions`` pre-installs ``(base, buffer, name)`` triples with
        no overlap scan -- the per-run fast path for the fixed stack /
        ctx / packet bases, which are disjoint by construction.  Later
        :meth:`add_region` calls still check against them."""
        self._regions: List[Tuple[int, bytearray, str]] = regions if regions is not None else []
        self._next_dynamic_base = MAP_VALUE_REGION_BASE

    def add_region(self, base: int, buffer: bytearray, name: str = "") -> int:
        """Register ``buffer`` at virtual address ``base``; returns base."""
        for existing_base, existing_buf, existing_name in self._regions:
            if base < existing_base + len(existing_buf) and existing_base < base + len(buffer):
                raise MemoryFault(
                    f"region {name!r} at {base:#x} overlaps {existing_name!r}"
                )
        self._regions.append((base, buffer, name))
        return base

    def add_dynamic_region(self, buffer: bytearray, name: str = "") -> int:
        """Register a buffer at the next free dynamic address (map values)."""
        base = self._next_dynamic_base
        # Keep regions page-separated so off-by-small-N bugs fault loudly.
        self._next_dynamic_base += max(4096, len(buffer) + 4096)
        return self.add_region(base, buffer, name)

    def _locate(self, address: int, size: int) -> Tuple[bytearray, int]:
        for base, buffer, _name in self._regions:
            if base <= address and address + size <= base + len(buffer):
                return buffer, address - base
        raise MemoryFault(f"access of {size} bytes at {address:#x} hits no region")

    def load(self, address: int, size: int) -> int:
        buffer, offset = self._locate(address, size)
        return int.from_bytes(buffer[offset : offset + size], "little")

    def store(self, address: int, size: int, value: int) -> None:
        buffer, offset = self._locate(address, size)
        if buffer.__class__ is bytes:
            raise MemoryFault(f"store of {size} bytes at {address:#x} into a read-only region")
        buffer[offset : offset + size] = (value & ((1 << (size * 8)) - 1)).to_bytes(
            size, "little"
        )

    def read_bytes(self, address: int, size: int) -> bytes:
        """Bulk read (used by helpers such as perf_event_output)."""
        buffer, offset = self._locate(address, size)
        # memoryview avoids the intermediate bytearray a slice would copy.
        return bytes(memoryview(buffer)[offset : offset + size])
