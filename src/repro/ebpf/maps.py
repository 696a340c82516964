"""BPF maps: the kernel-resident state tracing programs read and write.

The paper's scripts keep counters and intermediate records "temporarily
stored in the eBPF data structures inside kernel" (§II), then stream
them out through a perf buffer.  Four map types cover everything this
repo's compiler emits:

* :class:`HashMap` -- arbitrary fixed-size keys to fixed-size values.
* :class:`ArrayMap` -- u32-indexed, preallocated.
* :class:`PerCPUArrayMap` -- one value slot per CPU per index; the
  lock-free counter idiom.
* :class:`PerfEventArray` -- the ``bpf_perf_event_output`` target; user
  space (the agent) drains it.

Keys/values cross the VM boundary as bytes, exactly as via the syscall.
"""

from __future__ import annotations

import itertools
from typing import Callable, Dict, List, Optional, Tuple

_map_fd_counter = itertools.count(3)  # fds 0..2 are taken, like a real process


class MapError(ValueError):
    """Bad key/value size, capacity exhausted, or unknown index."""


class BPFMap:
    """Common behaviour: fd identity, key/value size checking."""

    kind = "abstract"

    def __init__(self, key_size: int, value_size: int, max_entries: int, name: str = ""):
        if key_size <= 0 or value_size <= 0 or max_entries <= 0:
            raise MapError("sizes and capacity must be positive")
        self.key_size = key_size
        self.value_size = value_size
        self.max_entries = max_entries
        self.name = name or f"{self.kind}-map"
        self.fd = next(_map_fd_counter)

    def _check_key(self, key: bytes) -> bytes:
        key = bytes(key)
        if len(key) != self.key_size:
            raise MapError(f"{self.name}: key size {len(key)} != {self.key_size}")
        return key

    def _check_value(self, value: bytes) -> bytes:
        value = bytes(value)
        if len(value) != self.value_size:
            raise MapError(f"{self.name}: value size {len(value)} != {self.value_size}")
        return value

    # The helper layer calls these three.

    def lookup(self, key: bytes, cpu: int = 0) -> Optional[bytearray]:
        raise NotImplementedError

    def update(self, key: bytes, value: bytes, cpu: int = 0) -> None:
        raise NotImplementedError

    def delete(self, key: bytes, cpu: int = 0) -> bool:
        raise NotImplementedError

    # Shadow-mode support: deep copies and comparable state snapshots.

    def _clone_shell(self) -> "BPFMap":
        """A same-type instance sharing fd/shape but no storage.

        ``object.__new__`` keeps the fd counter untouched -- clones are
        shadow-execution scratch, not new kernel objects.
        """
        other = object.__new__(type(self))
        other.key_size = self.key_size
        other.value_size = self.value_size
        other.max_entries = self.max_entries
        other.name = self.name
        other.fd = self.fd
        return other

    def clone(self) -> "BPFMap":
        """Deep copy for the differential oracle to mutate."""
        raise NotImplementedError

    def state_snapshot(self):
        """Immutable view of the map contents for equality comparison."""
        raise NotImplementedError

    def __repr__(self) -> str:
        return f"<{type(self).__name__} {self.name!r} fd={self.fd}>"


class HashMap(BPFMap):
    """BPF_MAP_TYPE_HASH."""

    kind = "hash"

    def __init__(self, key_size: int, value_size: int, max_entries: int, name: str = ""):
        super().__init__(key_size, value_size, max_entries, name)
        self._entries: Dict[bytes, bytearray] = {}

    def lookup(self, key: bytes, cpu: int = 0) -> Optional[bytearray]:
        return self._entries.get(self._check_key(key))

    def update(self, key: bytes, value: bytes, cpu: int = 0) -> None:
        key = self._check_key(key)
        value = self._check_value(value)
        if key not in self._entries and len(self._entries) >= self.max_entries:
            raise MapError(f"{self.name}: map full ({self.max_entries} entries)")
        slot = self._entries.get(key)
        if slot is None:
            self._entries[key] = bytearray(value)
        else:
            slot[:] = value

    def delete(self, key: bytes, cpu: int = 0) -> bool:
        return self._entries.pop(self._check_key(key), None) is not None

    def items(self) -> List[Tuple[bytes, bytes]]:
        """User-space iteration (``bpf_map_get_next_key`` analog)."""
        return [(k, bytes(v)) for k, v in self._entries.items()]

    def __len__(self) -> int:
        return len(self._entries)

    def clone(self) -> "HashMap":
        other = self._clone_shell()
        other._entries = {k: bytearray(v) for k, v in self._entries.items()}
        return other

    def state_snapshot(self) -> Dict[bytes, bytes]:
        return {k: bytes(v) for k, v in self._entries.items()}


class ArrayMap(BPFMap):
    """BPF_MAP_TYPE_ARRAY: u32 index keys, preallocated zeroed values."""

    kind = "array"

    def __init__(self, value_size: int, max_entries: int, name: str = ""):
        super().__init__(4, value_size, max_entries, name)
        self._slots = [bytearray(value_size) for _ in range(max_entries)]

    def _index(self, key: bytes) -> int:
        index = int.from_bytes(self._check_key(key), "little")
        if index >= self.max_entries:
            raise MapError(f"{self.name}: index {index} out of range")
        return index

    def lookup(self, key: bytes, cpu: int = 0) -> Optional[bytearray]:
        try:
            return self._slots[self._index(key)]
        except MapError:
            return None

    def update(self, key: bytes, value: bytes, cpu: int = 0) -> None:
        self._slots[self._index(key)][:] = self._check_value(value)

    def delete(self, key: bytes, cpu: int = 0) -> bool:
        # Array map entries cannot be deleted, matching the kernel.
        raise MapError(f"{self.name}: array maps do not support delete")

    def value_at(self, index: int) -> bytes:
        return bytes(self._slots[index])

    def clone(self) -> "ArrayMap":
        other = self._clone_shell()
        other._slots = [bytearray(slot) for slot in self._slots]
        return other

    def state_snapshot(self) -> List[bytes]:
        return [bytes(slot) for slot in self._slots]


class PerCPUArrayMap(BPFMap):
    """BPF_MAP_TYPE_PERCPU_ARRAY: a value per (index, cpu) pair."""

    kind = "percpu-array"

    def __init__(self, value_size: int, max_entries: int, num_cpus: int, name: str = ""):
        super().__init__(4, value_size, max_entries, name)
        if num_cpus <= 0:
            raise MapError("need at least one CPU")
        self.num_cpus = num_cpus
        self._slots = [
            [bytearray(value_size) for _ in range(num_cpus)] for _ in range(max_entries)
        ]

    def _index(self, key: bytes) -> int:
        index = int.from_bytes(self._check_key(key), "little")
        if index >= self.max_entries:
            raise MapError(f"{self.name}: index {index} out of range")
        return index

    def lookup(self, key: bytes, cpu: int = 0) -> Optional[bytearray]:
        try:
            return self._slots[self._index(key)][cpu]
        except MapError:
            return None

    def update(self, key: bytes, value: bytes, cpu: int = 0) -> None:
        self._slots[self._index(key)][cpu][:] = self._check_value(value)

    def delete(self, key: bytes, cpu: int = 0) -> bool:
        raise MapError(f"{self.name}: per-cpu array maps do not support delete")

    def sum_u64(self, index: int) -> int:
        """User-space aggregation across CPUs (the usual counter read)."""
        return sum(
            int.from_bytes(slot[:8], "little") for slot in self._slots[index]
        )

    def clone(self) -> "PerCPUArrayMap":
        other = self._clone_shell()
        other.num_cpus = self.num_cpus
        other._slots = [[bytearray(slot) for slot in row] for row in self._slots]
        return other

    def state_snapshot(self) -> List[List[bytes]]:
        return [[bytes(slot) for slot in row] for row in self._slots]


class PerfEventArray(BPFMap):
    """BPF_MAP_TYPE_PERF_EVENT_ARRAY: the record stream to user space.

    ``bpf_perf_event_output`` pushes ``(cpu, bytes)`` records here; the
    agent registers its ring buffer's ``append`` as the consumer, which
    takes the record alone (the CPU is one of its fields).  If no
    consumer is attached records accumulate in :attr:`pending` for tests.
    """

    kind = "perf-event-array"

    def __init__(self, num_cpus: int, name: str = ""):
        super().__init__(4, 4, max(1, num_cpus), name)
        self.num_cpus = num_cpus
        self.pending: List[Tuple[int, bytes]] = []
        self._consumer: Optional[Callable[[bytes], None]] = None
        self.events_emitted = 0
        self.events_lost = 0

    def set_consumer(self, consumer: Optional[Callable[[bytes], None]]) -> None:
        self._consumer = consumer

    def output(self, cpu: int, record: bytes) -> None:
        """Called by the perf_event_output helper."""
        self.events_emitted += 1
        if self._consumer is not None:
            self._consumer(record)
        else:
            self.pending.append((cpu, bytes(record)))

    def tee(self, capture: Callable[[int, bytes], None]) -> Callable[[], None]:
        """Observe every output without disturbing delivery.

        Until the returned undo callable runs, ``capture(cpu, record)``
        sees each record before :meth:`output` delivers it (one tee at
        a time).  Shadow mode uses this to compare the compiled tier's
        perf stream against the oracle's.
        """

        def observed(cpu: int, record: bytes) -> None:
            capture(cpu, record)
            PerfEventArray.output(self, cpu, record)

        self.output = observed  # shadows the method on this instance only

        def undo() -> None:
            del self.output

        return undo

    def clone(self) -> "PerfEventArray":
        # The oracle gets a fresh, unconsumed stream: shadow comparison
        # wants the records it emits, not the live agent's ring buffer.
        other = self._clone_shell()
        other.num_cpus = self.num_cpus
        other.pending = []
        other._consumer = None
        other.events_emitted = 0
        other.events_lost = 0
        return other

    def state_snapshot(self) -> None:
        return None  # stream, not state; compared via tee()/pending

    def lookup(self, key: bytes, cpu: int = 0) -> Optional[bytearray]:
        return None  # perf arrays are not data maps

    def update(self, key: bytes, value: bytes, cpu: int = 0) -> None:
        raise MapError(f"{self.name}: perf event arrays take no direct updates")

    def delete(self, key: bytes, cpu: int = 0) -> bool:
        raise MapError(f"{self.name}: perf event arrays take no deletes")
