"""Sharded drop-in engine: shard placement and round accounting behind
the Engine API.

This is the *compatibility tier* of the sharded simulation substrate
(docs/SHARDING.md).  A :class:`ShardedEngine` *is* an
:class:`~repro.sim.engine.Engine` -- the one heap, the one loop, hence
exactly the base engine's ``(time, seq)`` execution order -- that also
tags every event with a shard and counts lookahead-bounded rounds over
the execution, so any scenario written against ``Engine`` produces
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

from contextlib import contextmanager
from typing import Any, Callable, Iterator, List, Optional

from repro.sim.engine import Engine, SimulationError, Timer

# The default conservative-lookahead window, in virtual nanoseconds.
# The fleet tier requires every cross-shard boundary latency to be at
# least this large (wire/VXLAN latency gives the natural window); the
# compat tier only uses it to bound round granularity.
DEFAULT_LOOKAHEAD_NS = 1_000_000


def register_shard_stage(registry, source) -> None:
    """Register the ``shard`` stage of the metrics contract as pull
    callbacks (no per-event cost) over the counters both tiers keep:
    ``source`` is a :class:`ShardedEngine` or a ``ShardCoordinator``."""
    from repro.obs import contract as obs_contract

    def per_shard(counts: List[int]):
        return {(str(shard),): float(count) for shard, count in enumerate(counts)}

    for spec, read in (
        (obs_contract.SHARD_ROUNDS, lambda: float(source.rounds)),
        (obs_contract.SHARD_EVENTS, lambda: per_shard(source.events_by_shard)),
        (obs_contract.SHARD_BOUNDARY, lambda: per_shard(source.boundary_events_by_shard)),
        (obs_contract.SHARD_HORIZON, lambda: float(source.last_horizon_ns)),
        (obs_contract.SHARD_WORKERS, lambda: float(source.worker_count)),
    ):
        registry.register_spec(spec).add_callback(read)


class ShardedEngine(Engine):
    """An Engine that places its events on ``shards`` shards and counts
    lookahead-bounded rounds.

    Every callback is scheduled on the base engine wrapped in
    :meth:`_fire`, which does the accounting; execution order is the
    base engine's because there is only the base engine's heap, so
    determinism holds *by construction*, not by scenario discipline.
    """

    worker_count = 0  # the compat tier is always in-process

    def __init__(self, shards: int = 4, lookahead_ns: int = DEFAULT_LOOKAHEAD_NS):
        super().__init__()
        if shards < 1:
            raise SimulationError(f"need at least one shard, got {shards}")
        if lookahead_ns <= 0:
            raise SimulationError(f"lookahead must be positive, got {lookahead_ns}")
        self.num_shards = int(shards)
        self.lookahead_ns = int(lookahead_ns)
        self._affinity = 0  # shard receiving newly scheduled events
        self._exec_shard: Optional[int] = None  # shard of the running event
        self._until: Optional[int] = None  # the current run()'s bound
        self._horizon = -1  # of the open round; no event time is below 0
        # Counters behind the vnt_shard_* metrics.
        self.rounds = 0
        self.last_horizon_ns = 0
        self.events_by_shard = [0] * self.num_shards
        self.boundary_events_by_shard = [0] * self.num_shards

    # -- scheduling --------------------------------------------------------
    # Base methods are named outright: on the per-event path a zero-argument
    # super() costs as much as the heap push it would delegate to.

    def _placed(self) -> None:
        """Count the event just scheduled onto ``_affinity`` as a boundary
        event if another shard is executing."""
        if self._exec_shard is not None and self._affinity != self._exec_shard:
            self.boundary_events_by_shard[self._affinity] += 1

    def schedule(self, delay_ns: int, fn: Callable[..., Any], *args: Any) -> None:
        Engine.schedule(self, delay_ns, self._fire, self._affinity, fn, args)
        self._placed()

    def schedule_at(self, time_ns: int, fn: Callable[..., Any], *args: Any) -> None:
        Engine.schedule_at(self, time_ns, self._fire, self._affinity, fn, args)
        self._placed()

    def timer(self, delay_ns: int, fn: Callable[..., Any], *args: Any) -> Timer:
        timer = Engine.timer(self, delay_ns, self._fire, self._affinity, fn, args)
        self._placed()
        return timer

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

    # -- execution ---------------------------------------------------------

    def _fire(self, shard: int, fn: Callable[..., Any], args: tuple) -> None:
        now = self.now
        if now > self._horizon:
            # The first event past the open round's horizon opens the
            # next round: everything up to ``now + lookahead`` belongs to
            # it, including events scheduled from inside the round.
            horizon = now + self.lookahead_ns
            if self._until is not None and horizon > self._until:
                horizon = self._until
            self._horizon = self.last_horizon_ns = horizon
            self.rounds += 1
        self._exec_shard = self._affinity = shard
        fn(*args)
        self.events_by_shard[shard] += 1

    def run(self, until: Optional[int] = None, max_events: Optional[int] = None) -> int:
        if self._running:  # before the open round's state is touched
            raise SimulationError("engine.run() is not reentrant")
        self._until = until
        self._horizon = -1  # every run() opens a fresh round
        try:
            return Engine.run(self, until, max_events)
        finally:
            self._exec_shard = None

    # -- observability -----------------------------------------------------

    @property
    def boundary_events(self) -> int:
        """Total events routed onto a shard other than their scheduler's."""
        return sum(self.boundary_events_by_shard)

    def attach_metrics(self, registry) -> None:
        """Register the ``shard`` stage over this engine's counters."""
        register_shard_stage(registry, self)
