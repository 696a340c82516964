"""A CPU as a serialized work queue.

Softirq processing, protocol stages, and probe overhead all consume CPU
time; a CPU runs one job at a time, so when per-packet demand exceeds
capacity a queue builds.  This is the mechanism behind both overhead
experiments (tracing cost eats the packet budget) and the container case
study (softirqs concentrated on one core saturate it).

A job submitted to an idle, running CPU with nothing queued starts at
once, without passing through the queue: that is the common case, and
it schedules exactly the completion event queue-then-pop would.

:class:`GatedCPU` extends this with a run/pause gate driven by a
hypervisor scheduler: a Xen vCPU only executes its queued work while the
scheduler has it on a physical CPU -- the source of Case Study II's
scheduling latency.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Callable, Deque, Optional, Tuple

from repro.sim.engine import Engine, _whole_ns


class CPU:
    """One hardware thread: FIFO job queue, run-to-completion jobs.

    A job is ``(cost_ns, fn, args)``: when its service completes the CPU
    calls ``fn(*args)``, so a stage hands its continuation over as a
    bound method and its arguments instead of building a closure.
    """

    def __init__(self, engine: Engine, name: str = "cpu0", index: int = 0):
        self.engine = engine
        self.name = name
        self.index = index
        self._queue: Deque[Tuple[int, Optional[Callable[..., Any]], tuple]] = deque()
        self._busy = False
        self._paused = False  # only a GatedCPU is ever paused
        self.busy_ns = 0
        self.jobs_completed = 0
        # Fired when the CPU transitions to fully idle (used by the
        # hypervisor scheduler to detect a vCPU going to sleep).
        self.on_idle: Optional[Callable[[], None]] = None

    def submit(self, cost_ns: int, fn: Optional[Callable[..., Any]] = None, *args: Any) -> None:
        """Queue a job; ``fn(*args)`` runs when its service completes."""
        if cost_ns.__class__ is not int or cost_ns < 0:
            cost_ns = _whole_ns(cost_ns, "job cost")
        self._enqueue(cost_ns, fn, args, False)

    def submit_front(
        self, cost_ns: int, fn: Optional[Callable[..., Any]] = None, *args: Any
    ) -> None:
        """Queue a job ahead of everything waiting (run-to-completion
        continuations within one softirq context use this)."""
        if cost_ns.__class__ is not int or cost_ns < 0:
            cost_ns = _whole_ns(cost_ns, "job cost")
        self._enqueue(cost_ns, fn, args, True)

    def _enqueue(
        self, cost_ns: int, fn: Optional[Callable[..., Any]], args: tuple, front: bool
    ) -> None:
        """Queue one job whose cost is already a valid ``int``: the one
        entry behind :meth:`submit` / :meth:`submit_front`, and the one
        ``KernelNode.charge`` calls, which has checked its cost itself."""
        if self._busy or self._paused:
            if front:
                self._queue.appendleft((cost_ns, fn, args))
            else:
                self._queue.append((cost_ns, fn, args))
        elif front or not self._queue:  # the job is the queue's head: start it
            self._busy = True
            self.engine.schedule(cost_ns, self._complete, cost_ns, fn, args)
        else:  # a completion callback, with jobs still waiting
            self._queue.append((cost_ns, fn, args))
            self._start()

    @property
    def queue_depth(self) -> int:
        return len(self._queue)

    @property
    def busy(self) -> bool:
        return self._busy

    def _start(self) -> None:
        self._busy = True
        cost_ns, fn, args = self._queue.popleft()
        self.engine.schedule(cost_ns, self._complete, cost_ns, fn, args)

    def _complete(self, cost_ns: int, fn: Optional[Callable[..., Any]], args: tuple) -> None:
        self._busy = False
        self.busy_ns += cost_ns
        self.jobs_completed += 1
        if fn is not None:
            fn(*args)
        if self._busy:  # the callback's own submit started a job
            return
        queue = self._queue
        if queue:
            if not self._paused:
                self._busy = True
                cost_ns, fn, args = queue.popleft()
                self.engine.schedule(cost_ns, self._complete, cost_ns, fn, args)
        elif self.on_idle is not None:
            self.on_idle()

    def __repr__(self) -> str:
        return f"<CPU {self.name} busy={self._busy} depth={len(self._queue)}>"


class GatedCPU(CPU):
    """A vCPU whose execution is gated by a hypervisor scheduler.

    While ``paused`` the queue holds; :meth:`resume` drains it.  A job
    in flight when :meth:`pause` is called runs to completion (the
    hypervisor deschedules at the next safe point), which is a faithful
    enough model for the microsecond-scale jobs here.
    """

    def __init__(
        self,
        engine: Engine,
        name: str = "vcpu0",
        index: int = 0,
        start_paused: bool = False,
    ):
        super().__init__(engine, name, index)
        self._paused = start_paused
        self.on_work_queued: Optional[Callable[[], None]] = None

    def _enqueue(
        self, cost_ns: int, fn: Optional[Callable[..., Any]], args: tuple, front: bool
    ) -> None:
        super()._enqueue(cost_ns, fn, args, front)
        # Tell the hypervisor there is pending work (event-channel kick),
        # even while paused -- that is what wakes a blocked vCPU.
        if self.on_work_queued is not None:
            self.on_work_queued()

    def pause(self) -> None:
        self._paused = True

    def resume(self) -> None:
        if self._paused:
            self._paused = False
            if not self._busy and self._queue:
                self._start()

    def has_pending_work(self) -> bool:
        return self._busy or bool(self._queue)
