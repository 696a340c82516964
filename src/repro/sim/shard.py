"""Sharded drop-in engine: round accounting behind the Engine API.

This is the *compatibility tier* of the sharded simulation substrate
(docs/SHARDING.md).  A :class:`ShardedEngine` *is* an
:class:`~repro.sim.engine.Engine` -- the one heap, the one loop, the
base engine's own ``(time, seq, fn, args)`` entries, hence exactly the
base engine's execution order -- whose :meth:`~ShardedEngine.run`
drains that heap in lookahead-bounded rounds and counts them, so any
scenario written against ``Engine`` produces byte-identical results on
a ShardedEngine, shared object graph and all.  That property is what
the differential suite (``tests/test_shard_differential.py``) proves on
the quickstart, OVS, and fault scenarios.

The *fleet tier* (:mod:`repro.sim.coordinator`) drops the shared-state
assumption: fully independent per-shard engines coupled only through
boundary queues, which is what permits ``multiprocessing`` workers.

This tier places nothing: every event is counted on shard 0 and no
event crosses a boundary, so the ``vnt_shard_*`` metrics
(docs/OBSERVABILITY.md, ``shard`` stage) report ``num_shards`` series of
which only shard 0's events move.  Rounds and the horizon are a function
of event times alone.
"""

from __future__ import annotations

import sys
from typing import List, Optional

from repro.sim.engine import Engine, SimulationError, run_bound

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
    """An Engine whose :meth:`run` advances in lookahead-bounded rounds,
    the way the fleet tier advances its shards, and counts them.

    Scheduling is the base engine's, untouched; only the edge of the
    loop differs, so determinism holds *by construction*, not by
    scenario discipline.
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
        # Counters behind the vnt_shard_* metrics.
        self.rounds = 0
        self.last_horizon_ns = 0
        self.events_by_shard = [0] * self.num_shards
        self.boundary_events_by_shard = [0] * self.num_shards

    def run(self, until: Optional[int] = None, max_events: Optional[int] = None) -> int:
        """:meth:`Engine.run`, one round at a time: the next live event
        opens a round with horizon ``min(head + lookahead, until)``, which
        is drained (events the round schedules inside it included) before
        the next one opens.  Every ``run`` opens a fresh round."""
        if self._running:  # before any round is opened
            raise SimulationError("engine.run() is not reentrant")
        if until is not None:
            until = run_bound(until)
        budget = sys.maxsize if max_events is None else max_events
        before = self.events_executed
        try:
            while self.events_executed - before < budget:
                head = self.next_time()
                if head is None or (until is not None and head > until):
                    break
                horizon = head + self.lookahead_ns
                if until is not None and horizon > until:
                    horizon = until
                self.rounds += 1
                self.last_horizon_ns = horizon
                self._drain(horizon, budget - (self.events_executed - before))
        finally:
            # Also reached when a callback raises: the events that did
            # return are counted, the one that raised is not.
            self.events_by_shard[0] += self.events_executed - before
        self._settle(until)
        return self.events_executed - before

    # -- observability -----------------------------------------------------

    @property
    def boundary_events(self) -> int:
        """Total events routed onto a shard other than their scheduler's
        (always 0 on this tier)."""
        return sum(self.boundary_events_by_shard)

    def attach_metrics(self, registry) -> None:
        """Register the ``shard`` stage over this engine's counters."""
        register_shard_stage(registry, self)
