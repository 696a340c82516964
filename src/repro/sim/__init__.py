"""Discrete-event simulation kernel used by every substrate in the repo.

The engine keeps integer-nanosecond virtual time and one binary heap of
``(time, seq, fn, args)`` tuples with deterministic tie-breaking, so any
experiment driven from a fixed seed regenerates bit-identically.  Every
tier below runs the same loop, :meth:`Engine.run`.

Public surface:

* :class:`~repro.sim.engine.Engine` -- the event loop.
* :class:`~repro.sim.engine.Timer` / ``Engine.timer`` -- a scheduled
  callback that can be cancelled (``schedule`` returns nothing).
* :class:`~repro.sim.clock.NodeClock` -- a per-node monotonic clock with
  configurable offset and drift (models CLOCK_MONOTONIC on distinct
  machines whose clocks disagree).
* :mod:`repro.sim.rng` -- deterministic random helpers.
* :class:`~repro.sim.shard.ShardedEngine` -- an Engine that runs in
  lookahead-bounded rounds and counts them (same heap, same order);
  :func:`new_engine` / :func:`engine_factory` let scenarios swap
  it in without touching topology builders (docs/SHARDING.md).
* :mod:`repro.sim.coordinator` -- the fleet tier: one independent Engine
  per shard, coupled only by boundary messages, optionally hosted on
  ``multiprocessing`` workers.
"""

from contextlib import contextmanager
from typing import Callable, Iterator, Optional

from repro.sim.clock import NodeClock
from repro.sim.coordinator import (
    BoundaryBatch,
    BoundaryError,
    BoundaryMessage,
    BoundaryOutbox,
    CoordinatorRun,
    InlineOutbox,
    ShardCoordinator,
    ShardWorkerError,
)
from repro.sim.engine import Engine, Timer
from repro.sim.rng import SeededRNG
from repro.sim.shard import DEFAULT_LOOKAHEAD_NS, ShardedEngine

_engine_factory: Optional[Callable[[], Engine]] = None


def new_engine() -> Engine:
    """The engine every topology builder constructs its scene on.

    Returns a plain :class:`Engine` unless an :func:`engine_factory`
    override is active -- which is how the sharding differential suite
    runs existing scenarios, unchanged, on a :class:`ShardedEngine`.
    """
    if _engine_factory is None:
        return Engine()
    return _engine_factory()


@contextmanager
def engine_factory(factory: Callable[[], Engine]) -> Iterator[None]:
    """Make :func:`new_engine` return ``factory()`` inside the block."""
    global _engine_factory
    previous, _engine_factory = _engine_factory, factory
    try:
        yield
    finally:
        _engine_factory = previous


__all__ = [
    "Engine",
    "Timer",
    "NodeClock",
    "SeededRNG",
    "ShardedEngine",
    "DEFAULT_LOOKAHEAD_NS",
    "ShardCoordinator",
    "CoordinatorRun",
    "BoundaryMessage",
    "BoundaryBatch",
    "BoundaryOutbox",
    "InlineOutbox",
    "BoundaryError",
    "ShardWorkerError",
    "new_engine",
    "engine_factory",
]
