"""The discrete-event engine.

Time is an integer number of *nanoseconds* since simulation start.  All
substrates (network stack, hypervisor scheduler, eBPF VM cost model)
schedule work on a single shared engine, which makes cross-layer latency
accounting exact: the time a packet spends queued at an OVS ingress port
and the time a vCPU waits for the Xen rate limit are measured on the same
clock the tracing scripts read.

Two programming models are supported:

* plain callbacks -- ``engine.schedule(delay_ns, fn, *args)``;
* cooperative processes -- ``engine.process(generator)`` where the
  generator yields either an integer delay in nanoseconds or a
  :class:`Signal` to wait on.  This is how workloads (Sockperf, iPerf,
  memcached clients) are written.

Determinism: events firing at the same timestamp run in scheduling order
(a monotone sequence number breaks ties), so a fixed RNG seed reproduces
every experiment exactly.
"""

from __future__ import annotations

import heapq
from typing import Any, Callable, Generator, List, Optional


# Dead-timer compaction: a heap is rebuilt without its cancelled events
# once they outnumber the live ones by this factor, and by enough to be
# worth the pass.
COMPACT_DEAD_FACTOR = 4
COMPACT_MIN_DEAD = 64


class SimulationError(RuntimeError):
    """Raised for misuse of the engine (negative delays, running twice...)."""


def compact_if_mostly_dead(heap: List["Event"], live: int) -> None:
    """Drop the cancelled events from ``heap`` when it is mostly them.

    ``live`` is (an upper bound on) the live events in ``heap``.  A TCP
    sender cancels and re-arms its RTO on every ACK, so without this the
    heap is thousands of dead timers around a handful of live events and
    every push and pop pays for their depth.  ``(time, seq)`` is a total
    order, so rebuilding the heap cannot change what pops next.  The
    heap is edited in place: event loops keep their reference to it.
    """
    dead = len(heap) - live
    if dead > COMPACT_MIN_DEAD and dead > COMPACT_DEAD_FACTOR * live:
        heap[:] = [event for event in heap if not event.cancelled]
        heapq.heapify(heap)


class Event:
    """A single scheduled callback.

    Instances are returned by :meth:`Engine.schedule` so callers can
    :meth:`cancel` them.  Cancelled events stay in the heap and are
    skipped when popped (lazy deletion), or dropped earlier by
    :func:`compact_if_mostly_dead`; the engine's live-event counter is
    decremented eagerly so ``pending()`` and the end-of-run clock
    advance never have to rescan the heap.  ``cancelled`` is also set
    when the event fires, so a late ``cancel()`` is a no-op.
    """

    __slots__ = ("time", "seq", "fn", "args", "cancelled", "engine")

    def __init__(
        self, time: int, seq: int, fn: Callable[..., Any], args: tuple, engine: "Engine"
    ):
        self.time = time
        self.seq = seq
        self.fn = fn
        self.args = args
        self.cancelled = False
        self.engine = engine

    def cancel(self) -> None:
        """Prevent the event from firing; safe to call more than once."""
        if not self.cancelled:
            self.cancelled = True
            self.engine._on_cancel(self)

    def __lt__(self, other: "Event") -> bool:
        # heapq calls this O(log n) times per push/pop; comparing fields
        # directly avoids allocating two tuples per comparison.
        if self.time != other.time:
            return self.time < other.time
        return self.seq < other.seq

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "cancelled" if self.cancelled else "pending"
        return f"<Event t={self.time} seq={self.seq} {state} fn={self.fn!r}>"


class Signal:
    """A one-shot wakeup that processes can ``yield`` to block on.

    ``trigger(value)`` wakes every waiter with ``value``.  Triggering an
    already-triggered signal is an error; waiting on a triggered signal
    resumes immediately with the stored value.
    """

    __slots__ = ("engine", "_waiters", "triggered", "value")

    def __init__(self, engine: "Engine"):
        self.engine = engine
        self._waiters: List[Callable[[Any], None]] = []
        self.triggered = False
        self.value: Any = None

    def add_waiter(self, callback: Callable[[Any], None]) -> None:
        """Register ``callback(value)``; fires now if already triggered."""
        if self.triggered:
            self.engine.schedule(0, callback, self.value)
        else:
            self._waiters.append(callback)

    def trigger(self, value: Any = None) -> None:
        """Wake all waiters at the current simulation time."""
        if self.triggered:
            raise SimulationError("Signal triggered twice")
        self.triggered = True
        self.value = value
        waiters, self._waiters = self._waiters, []
        for callback in waiters:
            self.engine.schedule(0, callback, value)


class SimProcess:
    """Drives a generator as a cooperative process.

    The generator may yield:

    * ``int``/``float`` >= 0 -- sleep that many nanoseconds;
    * :class:`Signal` -- block until triggered; the triggered value is
      sent back into the generator;
    * ``None`` -- yield to the scheduler (resume at the same timestamp).

    When the generator returns, :attr:`done` becomes ``True`` and
    :attr:`completion` (a :class:`Signal`) is triggered with the return
    value, so processes can wait on each other.
    """

    __slots__ = ("engine", "generator", "done", "result", "completion", "name")

    def __init__(self, engine: "Engine", generator: Generator, name: str = ""):
        self.engine = engine
        self.generator = generator
        self.done = False
        self.result: Any = None
        self.completion = Signal(engine)
        self.name = name or getattr(generator, "__name__", "process")

    def _step(self, send_value: Any = None) -> None:
        if self.done:
            return
        try:
            yielded = self.generator.send(send_value)
        except StopIteration as stop:
            self.done = True
            self.result = stop.value
            self.completion.trigger(stop.value)
            return
        if yielded is None:
            self.engine.schedule(0, self._step, None)
        elif isinstance(yielded, Signal):
            yielded.add_waiter(self._step)
        elif isinstance(yielded, (int, float)):
            if yielded < 0:
                raise SimulationError(
                    f"process {self.name!r} yielded negative delay {yielded}"
                )
            self.engine.schedule(int(yielded), self._step, None)
        else:
            raise SimulationError(
                f"process {self.name!r} yielded unsupported value {yielded!r}"
            )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "done" if self.done else "running"
        return f"<SimProcess {self.name} {state}>"


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
        self._now = 0
        self._seq = 0
        self._heap: List[Event] = []
        self._live = 0  # not-yet-cancelled, not-yet-fired events in the heap
        self._running = False
        self.events_executed = 0

    @property
    def now(self) -> int:
        """Current virtual time in nanoseconds."""
        return self._now

    def schedule(self, delay_ns: int, fn: Callable[..., Any], *args: Any) -> Event:
        """Run ``fn(*args)`` after ``delay_ns`` nanoseconds; returns the Event."""
        if delay_ns:
            if delay_ns < 0:
                raise SimulationError(f"negative delay {delay_ns}")
            time_ns = self._now + int(delay_ns)
        else:
            # Zero-delay wakeups (signal triggers, process steps) dominate
            # scheduling; skip the add/convert entirely.
            time_ns = self._now
        event = Event(time_ns, self._seq, fn, args, self)
        self._seq += 1
        self._live += 1
        heapq.heappush(self._heap, event)
        return event

    def schedule_at(self, time_ns: int, fn: Callable[..., Any], *args: Any) -> Event:
        """Run ``fn(*args)`` at absolute virtual time ``time_ns``."""
        if time_ns < self._now:
            raise SimulationError(
                f"cannot schedule at {time_ns} before now={self._now}"
            )
        event = Event(int(time_ns), self._seq, fn, args, self)
        self._seq += 1
        self._live += 1
        heapq.heappush(self._heap, event)
        return event

    def at_or_now(self, time_ns: int, fn: Callable[..., Any], *args: Any) -> Event:
        """Run ``fn(*args)`` at absolute time ``time_ns``, clamped to now.

        Unlike :meth:`schedule_at`, a timestamp already in the past is not
        an error: the callback fires at the current time instead.  Fault
        plans use this so "crash node X at t=50ms" armed at t=60ms still
        takes effect (immediately) rather than aborting the run.
        """
        return self.schedule_at(max(int(time_ns), self._now), fn, *args)

    def process(self, generator: Generator, name: str = "") -> SimProcess:
        """Start a cooperative process; its first step runs at the current time."""
        proc = SimProcess(self, generator, name=name)
        self.schedule(0, proc._step, None)
        return proc

    def signal(self) -> Signal:
        """Convenience constructor for a :class:`Signal` bound to this engine."""
        return Signal(self)

    def run(self, until: Optional[int] = None, max_events: Optional[int] = None) -> int:
        """Execute events until the heap drains, ``until`` ns is reached, or
        ``max_events`` have run.  Returns the number of events executed."""
        if self._running:
            raise SimulationError("engine.run() is not reentrant")
        self._running = True
        executed = 0
        heap = self._heap
        pop = heapq.heappop
        try:
            if until is None and max_events is None:
                # Run-to-drain is the overwhelmingly common call; keep the
                # loop body free of bound checks.
                while heap:
                    event = pop(heap)
                    if event.cancelled:
                        continue
                    event.cancelled = True  # fired; late cancel() is a no-op
                    self._live -= 1
                    self._now = event.time
                    event.fn(*event.args)
                    executed += 1
            else:
                while heap:
                    event = heap[0]
                    if event.cancelled:
                        pop(heap)
                        continue
                    if until is not None and event.time > until:
                        break
                    if max_events is not None and executed >= max_events:
                        break
                    pop(heap)
                    event.cancelled = True
                    self._live -= 1
                    self._now = event.time
                    event.fn(*event.args)
                    executed += 1
        finally:
            self._running = False
        if until is not None and self._now < until:
            # Advance the clock even if nothing was left to do; callers
            # rely on `now` reflecting how far the run progressed.  Pop the
            # cancelled prefix so heap[0] (if any) is the earliest *live*
            # event -- a heap holding only cancelled events must not pin
            # the clock.
            while heap and heap[0].cancelled:
                pop(heap)
            if not heap or heap[0].time > until:
                self._now = until
        self.events_executed += executed
        Engine._events_executed_global += executed
        return executed

    def pending(self) -> int:
        """Number of not-yet-cancelled events still queued."""
        return self._live

    def _on_cancel(self, event: Event) -> None:
        self._live -= 1
        compact_if_mostly_dead(self._heap, self._live)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Engine now={self._now}ns pending={self.pending()}>"
