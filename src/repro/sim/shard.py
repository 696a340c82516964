"""Sharded drop-in engine: per-shard event heaps behind the Engine API.

This is the *compatibility tier* of the sharded simulation substrate
(docs/SHARDING.md).  A :class:`ShardedEngine` partitions its event
population across per-shard binary heaps and advances them in
lookahead-bounded rounds, but executes events in exact global
``(time, seq)`` order by merging shard heads inside each round -- so any
scenario written against :class:`~repro.sim.engine.Engine` produces
byte-identical results on a ShardedEngine, shared object graph and all.
That property is what the differential suite
(``tests/test_shard_differential.py``) proves on the quickstart, OVS,
and fault scenarios.

The *fleet tier* (:mod:`repro.sim.coordinator`) drops the shared-state
assumption: fully independent per-shard engines coupled only through
boundary queues, which is what permits ``multiprocessing`` workers.

Shard placement is *affinity* based: every scheduled event lands on the
shard of the event currently executing (causal inheritance), or on the
shard pinned with :meth:`ShardedEngine.pinned`.  An event scheduled onto
a shard other than the one executing is a *boundary event* -- the
compat-tier analogue of a cross-shard packet -- and is counted in the
``vnt_shard_*`` metrics (docs/OBSERVABILITY.md, ``shard`` stage).
"""

from __future__ import annotations

import heapq
from contextlib import contextmanager
from typing import Any, Callable, Iterator, List, Optional

from repro.sim.engine import Engine, Event, SimulationError, compact_if_mostly_dead

# The default conservative-lookahead window, in virtual nanoseconds.
# The fleet tier requires every cross-shard boundary latency to be at
# least this large (wire/VXLAN latency gives the natural window); the
# compat tier only uses it to bound round granularity.
DEFAULT_LOOKAHEAD_NS = 1_000_000


class _ShardEvent(Event):
    """An Event that remembers which shard heap holds it."""

    __slots__ = ("shard",)


class ShardedEngine(Engine):
    """Engine-compatible event loop over ``shards`` per-shard heaps.

    Execution order is exactly the base engine's global ``(time, seq)``
    order, reconstructed by merging shard heads within each
    lookahead-bounded round; determinism therefore holds *by
    construction*, not by scenario discipline.
    """

    def __init__(self, shards: int = 4, lookahead_ns: int = DEFAULT_LOOKAHEAD_NS):
        super().__init__()
        if shards < 1:
            raise SimulationError(f"need at least one shard, got {shards}")
        if lookahead_ns <= 0:
            raise SimulationError(f"lookahead must be positive, got {lookahead_ns}")
        self.num_shards = int(shards)
        self.lookahead_ns = int(lookahead_ns)
        self._shard_heaps: List[List[_ShardEvent]] = [[] for _ in range(self.num_shards)]
        self._affinity = 0  # shard receiving newly scheduled events
        self._exec_shard: Optional[int] = None  # shard of the running event
        # Counters behind the vnt_shard_* metrics.
        self.rounds = 0
        self.last_horizon_ns = 0
        self.events_by_shard = [0] * self.num_shards
        self.boundary_events_by_shard = [0] * self.num_shards

    # -- scheduling --------------------------------------------------------

    def _push(self, time_ns: int, fn: Callable[..., Any], args: tuple) -> _ShardEvent:
        shard = self._affinity
        event = _ShardEvent(time_ns, self._seq, fn, args, self)
        event.shard = shard
        self._seq += 1
        self._live += 1
        heapq.heappush(self._shard_heaps[shard], event)
        if self._exec_shard is not None and shard != self._exec_shard:
            self.boundary_events_by_shard[shard] += 1
        return event

    def schedule(self, delay_ns: int, fn: Callable[..., Any], *args: Any) -> Event:
        if delay_ns:
            if delay_ns < 0:
                raise SimulationError(f"negative delay {delay_ns}")
            time_ns = self._now + int(delay_ns)
        else:
            time_ns = self._now
        return self._push(time_ns, fn, args)

    def schedule_at(self, time_ns: int, fn: Callable[..., Any], *args: Any) -> Event:
        if time_ns < self._now:
            raise SimulationError(
                f"cannot schedule at {time_ns} before now={self._now}"
            )
        return self._push(int(time_ns), fn, args)

    @contextmanager
    def pinned(self, shard: int) -> Iterator[None]:
        """Route events scheduled inside the block onto ``shard``.

        Used to place causally independent domains (workloads, clock
        sync, samplers) on their own shards; events they schedule in
        turn inherit the placement.
        """
        if not 0 <= shard < self.num_shards:
            raise SimulationError(
                f"shard {shard} out of range [0, {self.num_shards})"
            )
        previous, self._affinity = self._affinity, shard
        try:
            yield
        finally:
            self._affinity = previous

    def _on_cancel(self, event: _ShardEvent) -> None:
        # Same rule as the base engine, per shard heap, with the global
        # live count standing in for the shard's (an upper bound, so a
        # shard heap compacts no earlier than the single heap would).
        self._live -= 1
        compact_if_mostly_dead(self._shard_heaps[event.shard], self._live)

    def shard_of(self, event: Event) -> int:
        """Which shard heap holds ``event`` (0 for plain-Engine events)."""
        return getattr(event, "shard", 0)

    # -- execution ---------------------------------------------------------

    def _min_head(self) -> Optional[_ShardEvent]:
        """The globally earliest live event, popping cancelled heads."""
        pop = heapq.heappop
        best = None
        for heap in self._shard_heaps:
            while heap and heap[0].cancelled:
                pop(heap)
            if heap:
                head = heap[0]
                if (
                    best is None
                    or head.time < best.time
                    or (head.time == best.time and head.seq < best.seq)
                ):
                    best = head
        return best

    def run(self, until: Optional[int] = None, max_events: Optional[int] = None) -> int:
        if self._running:
            raise SimulationError("engine.run() is not reentrant")
        self._running = True
        executed = 0
        heaps = self._shard_heaps
        pop = heapq.heappop
        events_by_shard = self.events_by_shard
        try:
            while max_events is None or executed < max_events:
                head = self._min_head()
                if head is None:
                    break
                if until is not None and head.time > until:
                    break
                horizon = head.time + self.lookahead_ns
                if until is not None and horizon > until:
                    horizon = until
                self.rounds += 1
                self.last_horizon_ns = horizon
                # One round: execute everything up to the horizon in
                # exact global (time, seq) order.  New events landing
                # inside the horizon join the round as their heap heads
                # surface in the merge.
                while True:
                    event = self._min_head()
                    if event is None or event.time > horizon:
                        break
                    if max_events is not None and executed >= max_events:
                        break
                    shard = event.shard
                    pop(heaps[shard])
                    event.cancelled = True  # fired; late cancel() is a no-op
                    self._live -= 1
                    self._now = event.time
                    self._exec_shard = self._affinity = shard
                    event.fn(*event.args)
                    executed += 1
                    events_by_shard[shard] += 1
                self._exec_shard = None
        finally:
            self._running = False
            self._exec_shard = None
        if until is not None and self._now < until:
            head = self._min_head()
            if head is None or head.time > until:
                self._now = until
        self.events_executed += executed
        Engine._events_executed_global += executed
        return executed

    # -- observability -----------------------------------------------------

    @property
    def boundary_events(self) -> int:
        """Total events routed onto a shard other than their scheduler's."""
        return sum(self.boundary_events_by_shard)

    def attach_metrics(self, registry) -> None:
        """Register the ``shard`` stage of the metrics contract as pull
        callbacks over this engine's counters (no per-event cost)."""
        from repro.obs import contract as obs_contract

        registry.register_spec(obs_contract.SHARD_ROUNDS).add_callback(
            lambda: float(self.rounds)
        )
        registry.register_spec(obs_contract.SHARD_EVENTS).add_callback(
            lambda: {
                (str(shard),): float(count)
                for shard, count in enumerate(self.events_by_shard)
            }
        )
        registry.register_spec(obs_contract.SHARD_BOUNDARY).add_callback(
            lambda: {
                (str(shard),): float(count)
                for shard, count in enumerate(self.boundary_events_by_shard)
            }
        )
        registry.register_spec(obs_contract.SHARD_HORIZON).add_callback(
            lambda: float(self.last_horizon_ns)
        )
        registry.register_spec(obs_contract.SHARD_WORKERS).add_callback(
            lambda: 0.0  # the compat tier is always in-process
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<ShardedEngine now={self._now}ns shards={self.num_shards} "
            f"pending={self.pending()} rounds={self.rounds}>"
        )
