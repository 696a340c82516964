"""The discrete-event engine.

Time is an integer number of *nanoseconds* since simulation start.  All
substrates (network stack, hypervisor scheduler, eBPF VM cost model)
schedule work on a single shared engine, which makes cross-layer latency
accounting exact: the time a packet spends queued at an OVS ingress port
and the time a vCPU waits for the Xen rate limit are measured on the same
clock the tracing scripts read.

There is one programming model: a callback and its arguments, run at
a virtual time.  ``engine.schedule(delay_ns, fn, *args)`` arms one;
``engine.timer(delay_ns, fn, *args)`` arms one and returns a
:class:`Timer` whose ``cancel()`` prevents the call.  Work that repeats
(a workload's sender, an agent's heartbeat) reschedules itself.

There is one event loop, :meth:`Engine.run`, over one binary heap of
plain tuples ``(time, seq, fn, args)``.  ``(time, seq)`` is unique, so
``heapq`` orders entries in C and never looks at ``fn``.  A timer's
entry is ``(time, seq, None, timer)``: only the callers that cancel pay
for an object, and a cancelled timer stays in the heap until it is
popped or compacted away (docs/SHARDING.md, "One loop").

Determinism: events firing at the same timestamp run in scheduling order
(the monotone ``seq`` breaks ties), so a fixed RNG seed reproduces every
experiment exactly.
"""

from __future__ import annotations

import heapq
import math
import sys
from heapq import heappush
from typing import Any, Callable, List, Optional


# Dead-timer compaction: the heap is rebuilt without its cancelled timers
# once they outnumber the live entries by this factor, and by enough to
# be worth the pass.
COMPACT_DEAD_FACTOR = 4
COMPACT_MIN_DEAD = 64


class SimulationError(RuntimeError):
    """Raised for misuse of the engine (negative delays, running twice...)."""


def run_bound(until: float) -> int:
    """A run's ``until`` as the integer nanosecond it stops after, the
    way :meth:`Engine.schedule_at` takes a time: truncated, and a NaN or
    infinite bound is an error rather than a run that never stops."""
    try:
        return int(until)
    except (ValueError, OverflowError):  # NaN, infinity
        raise SimulationError(f"invalid run bound {until}") from None


def _whole_ns(value: float, what: str = "delay") -> int:
    """A delay (or a CPU job's cost) as whole nanoseconds: truncated,
    and a negative, NaN or infinite one is a :class:`SimulationError`
    at the call.  Callers test for a non-negative ``int`` first, the
    common case, and call this only for anything else."""
    if value < 0:
        raise SimulationError(f"negative {what} {value}")
    try:
        return int(value)
    except (ValueError, OverflowError):  # NaN, infinity
        raise SimulationError(f"invalid {what} {value}") from None


class Timer:
    """A scheduled callback that can be cancelled (:meth:`Engine.timer`).

    ``fn`` is ``None`` once the timer has fired or been cancelled, so a
    late or repeated :meth:`cancel` is exactly a no-op.
    """

    __slots__ = ("fn", "args", "engine")

    def __init__(self, fn: Callable[..., Any], args: tuple, engine: "Engine"):
        self.fn: Optional[Callable[..., Any]] = fn
        self.args = args
        self.engine = engine

    def cancel(self) -> None:
        """Prevent the callback from running; safe to call more than once.

        The heap entry stays where it is (lazy deletion) unless dead
        entries now dominate the heap.  A TCP sender cancels and re-arms
        its RTO on every ACK, so without compaction the heap is thousands
        of dead timers around a handful of live events and every push and
        pop pays for their depth.  ``(time, seq)`` is a total order, so
        rebuilding the heap cannot change what pops next.  The heap is
        edited in place: a running loop keeps its reference to it.
        """
        if self.fn is None:
            return
        self.fn = None
        engine = self.engine
        engine._dead += 1
        dead, heap = engine._dead, engine._heap
        if dead > COMPACT_MIN_DEAD and dead > COMPACT_DEAD_FACTOR * (len(heap) - dead):
            heap[:] = [
                entry for entry in heap if entry[2] is not None or entry[3].fn is not None
            ]
            heapq.heapify(heap)
            engine._dead = 0

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Timer {'done' if self.fn is None else 'armed'} fn={self.fn!r}>"


class Engine:
    """Single-threaded discrete-event loop with integer-ns virtual time."""

    # Process-wide total across every engine instance.  The benchmark
    # harness (repro.bench) snapshots this around a scenario to count
    # events without reaching into the engines the scenario builds.
    _events_executed_global = 0

    @classmethod
    def global_events_executed(cls) -> int:
        """Total events executed by all engines in this process."""
        return cls._events_executed_global

    def __init__(self) -> None:
        self.now = 0  # current virtual time in nanoseconds
        self._seq = 0
        self._heap: List[tuple] = []  # (time, seq, fn, args) | (time, seq, None, Timer)
        self._dead = 0  # cancelled timers still in the heap
        self._running = False
        self.events_executed = 0

    def schedule(self, delay_ns: int, fn: Callable[..., Any], *args: Any) -> None:
        """Run ``fn(*args)`` after ``delay_ns`` nanoseconds."""
        if delay_ns.__class__ is not int or delay_ns < 0:
            delay_ns = _whole_ns(delay_ns)
        heappush(self._heap, (self.now + delay_ns, self._seq, fn, args))
        self._seq += 1

    def schedule_at(self, time_ns: int, fn: Callable[..., Any], *args: Any) -> None:
        """Run ``fn(*args)`` at absolute virtual time ``time_ns``."""
        if time_ns < self.now:
            raise SimulationError(f"cannot schedule at {time_ns} before now={self.now}")
        if time_ns.__class__ is not int:
            try:
                time_ns = int(time_ns)
            except (ValueError, OverflowError):  # NaN, infinity
                raise SimulationError(f"invalid time {time_ns}") from None
        heappush(self._heap, (time_ns, self._seq, fn, args))
        self._seq += 1

    def at_or_now(self, time_ns: int, fn: Callable[..., Any], *args: Any) -> None:
        """Run ``fn(*args)`` at absolute time ``time_ns``, clamped to now.

        Unlike :meth:`schedule_at`, a timestamp already in the past is not
        an error: the callback fires at the current time instead.  Fault
        plans use this so "crash node X at t=50ms" armed at t=60ms still
        takes effect (immediately) rather than aborting the run.
        """
        self.schedule_at(max(time_ns, self.now), fn, *args)

    def timer(self, delay_ns: int, fn: Callable[..., Any], *args: Any) -> Timer:
        """Like :meth:`schedule`, but returns a :class:`Timer` to cancel."""
        if delay_ns.__class__ is not int or delay_ns < 0:
            delay_ns = _whole_ns(delay_ns)
        timer = Timer(fn, args, self)
        heappush(self._heap, (self.now + delay_ns, self._seq, None, timer))
        self._seq += 1
        return timer

    def run(self, until: Optional[int] = None, max_events: Optional[int] = None) -> int:
        """Execute events until the heap drains, ``until`` ns is reached
        (inclusive), or ``max_events`` have run.  Returns the number of
        events executed; ``now`` ends at ``until`` unless a live event at
        or before it is still queued."""
        if self._running:
            raise SimulationError("engine.run() is not reentrant")
        if until is not None:
            until = run_bound(until)
        # An absent bound becomes one no run can reach: one loop for all.
        executed = self._drain(
            math.inf if until is None else until,
            sys.maxsize if max_events is None else max_events,
        )
        self._settle(until)
        return executed

    def _drain(self, horizon: float, budget: int) -> int:
        """The loop: execute events at or before ``horizon``, at most
        ``budget`` of them, and return how many ran.  The clock stays at
        the last event executed."""
        self._running = True
        executed = 0
        heap = self._heap
        pop = heapq.heappop
        try:
            while heap and executed < budget:
                if heap[0][0] > horizon:
                    break
                time_ns, _, fn, args = pop(heap)
                if fn is None:  # a Timer
                    timer = args
                    fn = timer.fn
                    if fn is None:  # cancelled
                        self._dead -= 1
                        continue
                    timer.fn = None  # fired; a late cancel() is a no-op
                    args = timer.args
                self.now = time_ns
                fn(*args)
                executed += 1
        finally:
            # Also reached when a callback raises: the events that did
            # return are counted, the one that raised is not.
            self._running = False
            self.events_executed += executed
            Engine._events_executed_global += executed
        return executed

    def _settle(self, until: Optional[int]) -> None:
        """The end-of-run clock rule: advance the clock to ``until`` even
        if nothing was left to do, unless a live event at or before it is
        still queued; callers rely on ``now`` reflecting how far the run
        progressed."""
        if until is not None and self.now < until:
            head = self.next_time()
            if head is None or head > until:
                self.now = until

    def next_time(self) -> Optional[int]:
        """Timestamp of the earliest live event, ``None`` when there is
        none.  Pops cancelled timers off the top, so a heap holding
        nothing else cannot pin the clock."""
        heap = self._heap
        while heap:
            time_ns, _, fn, timer = heap[0]
            if fn is not None or timer.fn is not None:
                return time_ns
            heapq.heappop(heap)
            self._dead -= 1
        return None

    def pending(self) -> int:
        """Number of not-yet-cancelled events still queued."""
        return len(self._heap) - self._dead

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<{type(self).__name__} now={self.now}ns pending={self.pending()}>"
