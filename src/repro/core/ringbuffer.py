"""The agent's kernel-side record buffer (§III-C).

The paper loads a kernel module per monitored machine that mmap()s a
kernel buffer into /proc so trace records cross into user space
*without* per-record copies or context switches -- the key difference
from SystemTap's per-event relay.  We model it as a bounded byte buffer
the perf-event consumer appends to; a periodic flush drains it to the
agent's local store at a small fixed cost (the page-remap, not a
per-record copy).

Size limits follow the paper's footnote: 32 bytes .. 128 KB - 16
(kmalloc bounds).  When the buffer fills between flushes, the
configured *degradation policy* decides what is lost (docs/FAULTS.md):

* ``drop-newest`` (default, the classic behaviour) -- the arriving
  record is rejected;
* ``drop-oldest`` -- buffered records are evicted from the head until
  the arriving record fits (freshest data wins);
* ``sample`` -- with probability ``sample_prob`` the arriving record
  is admitted by evicting from the head (as drop-oldest), otherwise it
  is rejected (an unbiased thinning of the overflow window; decisions
  come from a :class:`~repro.sim.rng.SeededRNG`, so runs stay
  deterministic).

Every lost record is counted in ``total_dropped`` (and, when a
:class:`~repro.faults.metrics.FaultMetrics` is attached, under
``vnt_fault_records_lost_total{reason="ring_policy"}``) -- loss
accounting is exact under every policy.  With ``strict=True`` the
buffer raises :class:`RingBufferFull` whenever a record is lost (the
drop is still counted), for callers that must fail fast rather than
lose records silently.  A record larger than the effective capacity
can never fit: each attempt counts one drop (and raises in strict
mode) without wedging the buffer for subsequent records.

``reserve()`` / ``release()`` shrink and restore the effective
capacity -- the fault injector's "forced ring pressure" windows, which
model a competing kernel consumer squeezing the buffer.

When a :class:`~repro.obs.registry.MetricsRegistry` is supplied, the
buffer exports the ``ringbuffer`` stage of the metrics contract
(``docs/OBSERVABILITY.md``): appends, drops, flushes, flush batch
sizes, and the occupancy high-water mark.
"""

from __future__ import annotations

from collections import deque
from typing import Callable, Deque, List, Optional, TYPE_CHECKING

from repro.core.config import (
    GlobalConfig,
    RING_POLICIES,
    RING_POLICY_DROP_NEWEST,
    RING_POLICY_DROP_OLDEST,
    RING_POLICY_SAMPLE,
)
from repro.obs import contract as obs_contract
from repro.obs.registry import MetricsRegistry
from repro.sim.engine import Engine
from repro.sim.rng import SeededRNG

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.faults.metrics import FaultMetrics

FLUSH_FIXED_COST_NS = 900  # remap + bookkeeping, independent of volume


class RingBufferFull(Exception):
    """Raised by ``append`` in strict mode; normally fullness just drops."""


class TraceRingBuffer:
    """Bounded in-kernel record buffer with periodic flush."""

    def __init__(
        self,
        engine: Engine,
        capacity_bytes: int,
        flush_interval_ns: int,
        on_flush: Callable[[List[bytes]], None],
        name: str = "ringbuf",
        strict: bool = False,
        registry: Optional[MetricsRegistry] = None,
        node: str = "",
        policy: str = RING_POLICY_DROP_NEWEST,
        sample_prob: float = 0.5,
        rng: Optional[SeededRNG] = None,
        fault_metrics: "Optional[FaultMetrics]" = None,
    ):
        if not GlobalConfig.MIN_RING_BYTES <= capacity_bytes <= GlobalConfig.MAX_RING_BYTES:
            raise ValueError(
                f"ring buffer size {capacity_bytes} outside kmalloc bounds "
                f"[{GlobalConfig.MIN_RING_BYTES}, {GlobalConfig.MAX_RING_BYTES}]"
            )
        if policy not in RING_POLICIES:
            raise ValueError(f"unknown ring policy {policy!r}")
        self.engine = engine
        self.capacity_bytes = capacity_bytes
        self.flush_interval_ns = flush_interval_ns
        self.on_flush = on_flush
        self.name = name
        self.strict = strict
        self.node = node or name
        self.policy = policy
        self.sample_prob = sample_prob
        # The sample policy needs randomness; a policy-less buffer never
        # draws, so existing deployments stay on their exact RNG streams.
        self._rng = rng
        self._fault_metrics = fault_metrics
        self._reserved_bytes = 0
        self._records: Deque[bytes] = deque()
        self._used_bytes = 0
        self.total_appended = 0
        self.total_dropped = 0
        self.flushes = 0
        self.occupancy_hwm_bytes = 0
        # Virtual time of the oldest buffered record's append; the age of
        # the batch at flush time is the flush latency records experience.
        self._first_append_ns: Optional[int] = None
        self.last_flush_age_ns = 0
        self._timer = None
        self._running = False

        self._m_batch = self._m_hwm = None
        if registry is not None:
            # The append/drop/flush counters are *pull-based* (evaluated at
            # collection time from the totals this buffer already keeps), so
            # the per-record hot path does no metric work.  Summing is
            # monotone-correct across redeploys: a replaced ring's callback
            # keeps reporting its frozen totals.  The occupancy gauge must
            # stay push-based -- maxima from successive rings do not sum.
            appended = registry.register_spec(obs_contract.RING_APPENDED)
            appended.add_callback(lambda: {(self.node,): float(self.total_appended)})
            dropped = registry.register_spec(obs_contract.RING_DROPPED)
            dropped.add_callback(lambda: {(self.node,): float(self.total_dropped)})
            flushes = registry.register_spec(obs_contract.RING_FLUSHES)
            flushes.add_callback(lambda: {(self.node,): float(self.flushes)})
            self._m_batch = registry.register_spec(obs_contract.RING_FLUSH_BATCH)
            self._m_hwm = registry.register_spec(obs_contract.RING_OCCUPANCY_HWM)

    # -- producer side (called by the perf-event consumer) ----------------

    def append(self, record: bytes) -> bool:
        size = len(record)
        # effective_capacity_bytes, inline: reserve() never grants more
        # than the capacity, so the difference cannot go negative.
        capacity = self.capacity_bytes - self._reserved_bytes
        evicted = 0
        if self._used_bytes + size > capacity:
            if self.policy == RING_POLICY_DROP_NEWEST:
                return self._reject(size)
            if self.policy == RING_POLICY_SAMPLE and not (
                self._rng is not None and self._rng.random() < self.sample_prob
            ):
                return self._reject(size)
            # drop-oldest (or a sample admit): evict from the head until
            # the arriving record fits.
            while self._records and self._used_bytes + size > capacity:
                oldest = self._records.popleft()
                self._used_bytes -= len(oldest)
                evicted += 1
            self._count_drops(evicted)
            if self._used_bytes + size > capacity:
                # The record alone exceeds the (possibly squeezed)
                # capacity; nothing to admit.
                return self._reject(size)
        if self._first_append_ns is None:
            self._first_append_ns = self.engine.now
        self._records.append(record)
        self._used_bytes += size
        self.total_appended += 1
        if self._used_bytes > self.occupancy_hwm_bytes:
            self.occupancy_hwm_bytes = self._used_bytes
            if self._m_hwm is not None:
                self._m_hwm.set_max(self._used_bytes, labels=(self.node,))
        if evicted and self.strict:
            raise RingBufferFull(
                f"{self.name}: evicted {evicted} record(s) to admit a "
                f"{size}B record ({self._used_bytes}/{capacity}B used)"
            )
        return True

    def _reject(self, size: int) -> bool:
        self._count_drops(1)
        if self.strict:
            raise RingBufferFull(
                f"{self.name}: {size}B record does not fit "
                f"({self._used_bytes}/{self.effective_capacity_bytes}B used)"
            )
        return False

    def _count_drops(self, count: int) -> None:
        if count:
            self.total_dropped += count
            if self._fault_metrics is not None:
                self._fault_metrics.records_lost(self.node, "ring_policy", count)

    @property
    def used_bytes(self) -> int:
        return self._used_bytes

    # -- forced pressure (faults/inject.py) -----------------------------------

    @property
    def effective_capacity_bytes(self) -> int:
        """Capacity minus any fault-injected reservation."""
        return max(0, self.capacity_bytes - self._reserved_bytes)

    def reserve(self, nbytes: int) -> int:
        """Squeeze the buffer by ``nbytes`` (clamped to the capacity);
        returns the bytes actually reserved.  Buffered records are not
        evicted -- the squeeze constrains what still fits until the next
        flush or a matching :meth:`release`."""
        grant = max(0, min(int(nbytes), self.capacity_bytes - self._reserved_bytes))
        self._reserved_bytes += grant
        return grant

    def release(self, nbytes: int) -> None:
        """Undo (part of) a reservation; over-release clamps to zero."""
        self._reserved_bytes = max(0, self._reserved_bytes - int(nbytes))

    # -- flush side ----------------------------------------------------------

    def start(self) -> None:
        if self._running:
            return
        self._running = True
        self._timer = self.engine.timer(self.flush_interval_ns, self._periodic)

    def stop(self) -> None:
        self._running = False
        if self._timer is not None:
            self._timer.cancel()
            self._timer = None

    def _periodic(self) -> None:
        if not self._running:
            return
        self.flush()
        self._timer = self.engine.timer(self.flush_interval_ns, self._periodic)

    def flush(self) -> int:
        """Drain to the consumer; returns the number of records moved."""
        if not self._records:
            return 0
        batch = list(self._records)
        self._records.clear()
        self._used_bytes = 0
        self.flushes += 1
        self.last_flush_age_ns = self.engine.now - (self._first_append_ns or 0)
        self._first_append_ns = None
        if self._m_batch is not None:
            self._m_batch.observe(len(batch), labels=(self.node,))
        self.on_flush(batch)
        return len(batch)

    def discard(self) -> int:
        """Throw away buffered records *without* flushing (an agent
        crash); returns how many were lost.  The caller accounts the
        loss -- a crash is not a ring-policy drop, so ``total_dropped``
        is left alone."""
        lost = len(self._records)
        self._records.clear()
        self._used_bytes = 0
        self._first_append_ns = None
        return lost

    def __repr__(self) -> str:
        return (
            f"<TraceRingBuffer {self.name} used={self._used_bytes}/"
            f"{self.capacity_bytes}B dropped={self.total_dropped}>"
        )
