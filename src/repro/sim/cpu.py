"""A CPU as a serialized work queue.

Softirq processing, protocol stages, and probe overhead all consume CPU
time; a CPU runs one job at a time, so when per-packet demand exceeds
capacity a queue builds and (with a bounded queue) packets drop.  This
is the mechanism behind both overhead experiments (tracing cost eats the
packet budget) and the container case study (softirqs concentrated on
one core saturate it).

:class:`GatedCPU` extends this with a run/pause gate driven by a
hypervisor scheduler: a Xen vCPU only executes its queued work while the
scheduler has it on a physical CPU -- the source of Case Study II's
scheduling latency.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Callable, Deque, Optional, Tuple

from repro.sim.engine import Engine


class CPU:
    """One hardware thread: FIFO job queue, run-to-completion jobs."""

    def __init__(
        self,
        engine: Engine,
        name: str = "cpu0",
        index: int = 0,
        queue_limit: Optional[int] = None,
    ):
        self.engine = engine
        self.name = name
        self.index = index
        self.queue_limit = queue_limit
        self._queue: Deque[Tuple[int, Optional[Callable[[], Any]], str]] = deque()
        self._busy = False
        self.busy_ns = 0
        self.jobs_completed = 0
        self.jobs_dropped = 0
        self._created_at = engine.now
        # Fired when the CPU transitions to fully idle (used by the
        # hypervisor scheduler to detect a vCPU going to sleep).
        self.on_idle: Optional[Callable[[], None]] = None

    def submit(
        self,
        cost_ns: int,
        callback: Optional[Callable[[], Any]] = None,
        tag: str = "",
    ) -> bool:
        """Queue a job; ``callback`` runs when its service completes.

        Returns False (and drops the job) if the queue is full -- the
        receive-ring-overflow analog.
        """
        if self.queue_limit is not None and len(self._queue) >= self.queue_limit:
            self.jobs_dropped += 1
            return False
        self._queue.append((int(cost_ns), callback, tag))
        self._maybe_start()
        return True

    def submit_front(
        self,
        cost_ns: int,
        callback: Optional[Callable[[], Any]] = None,
        tag: str = "",
    ) -> bool:
        """Queue a job ahead of everything waiting (run-to-completion
        continuations within one softirq context use this)."""
        if self.queue_limit is not None and len(self._queue) >= self.queue_limit:
            self.jobs_dropped += 1
            return False
        self._queue.appendleft((int(cost_ns), callback, tag))
        self._maybe_start()
        return True

    @property
    def queue_depth(self) -> int:
        return len(self._queue)

    @property
    def busy(self) -> bool:
        return self._busy

    def _can_run(self) -> bool:
        return True

    def _maybe_start(self) -> None:
        if self._busy or not self._queue or not self._can_run():
            return
        self._busy = True
        cost_ns, callback, _tag = self._queue.popleft()
        self.engine.schedule(cost_ns, self._complete, cost_ns, callback)

    def _complete(self, cost_ns: int, callback: Optional[Callable[[], Any]]) -> None:
        self._busy = False
        self.busy_ns += cost_ns
        self.jobs_completed += 1
        if callback is not None:
            callback()
        self._maybe_start()
        if not self._busy and not self._queue and self.on_idle is not None:
            self.on_idle()

    def utilization(self) -> float:
        """Fraction of wall time spent executing since creation."""
        elapsed = self.engine.now - self._created_at
        if elapsed <= 0:
            return 0.0
        return min(1.0, self.busy_ns / elapsed)

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
        queue_limit: Optional[int] = None,
        start_paused: bool = False,
    ):
        super().__init__(engine, name, index, queue_limit)
        self._paused = start_paused
        self.on_work_queued: Optional[Callable[[], None]] = None

    def _can_run(self) -> bool:
        return not self._paused

    def submit(
        self,
        cost_ns: int,
        callback: Optional[Callable[[], Any]] = None,
        tag: str = "",
    ) -> bool:
        accepted = super().submit(cost_ns, callback, tag)
        # Tell the hypervisor there is pending work (event-channel kick),
        # even while paused -- that is what wakes a blocked vCPU.
        if accepted and self.on_work_queued is not None:
            self.on_work_queued()
        return accepted

    def submit_front(
        self,
        cost_ns: int,
        callback: Optional[Callable[[], Any]] = None,
        tag: str = "",
    ) -> bool:
        accepted = super().submit_front(cost_ns, callback, tag)
        if accepted and self.on_work_queued is not None:
            self.on_work_queued()
        return accepted

    def pause(self) -> None:
        self._paused = True

    def resume(self) -> None:
        if self._paused:
            self._paused = False
            self._maybe_start()

    def has_pending_work(self) -> bool:
        return self._busy or bool(self._queue)
