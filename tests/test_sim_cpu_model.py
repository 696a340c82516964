"""Generated scripts: CPU and GatedCPU against a queue-then-pop reference.

``CPU.submit`` / ``submit_front`` start a job on an idle, running CPU
with nothing queued without passing it through the queue.  Hypothesis
writes scripts of ``submit`` / ``submit_front`` / ``pause`` / ``resume``
calls and of ``KernelNode.charge`` calls, back and front (the path a
protocol stage hands its job to the CPU by, which skips the public
entries), made directly, from events scheduled later, and from the
completion callbacks of earlier jobs, and plays each on the real CPU and
on :class:`ReferenceCPU` below -- every job goes through the queue,
written to be obviously right rather than fast, sharing no code with
``repro.sim.cpu``.  Every job carries a generated argument tuple, and
its callback must receive exactly those arguments.  After every ``run``
the completion log (with the arguments each callback got), the busy
time, the completed-job count, the ``on_idle`` times, the
``on_work_queued`` count, the queue state and the engine's own event
count and clock must agree.
"""

from __future__ import annotations

import itertools
from collections import deque
from functools import partial

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.net.stack import KernelNode
from repro.sim.cpu import CPU, GatedCPU
from repro.sim.engine import Engine


class ReferenceCPU:
    """Every job is queued, then popped when the CPU can run it."""

    def __init__(self, engine, gated, start_paused):
        self.engine = engine
        self.gated = gated
        self.paused = gated and start_paused
        self.queue = deque()
        self.running = False
        self.busy_ns = 0
        self.jobs_completed = 0
        self.on_idle = None
        self.on_work_queued = None

    def submit(self, cost_ns, callback=None, *args):
        self.queue.append((cost_ns, callback, args))
        self._arrived()

    def submit_front(self, cost_ns, callback=None, *args):
        self.queue.appendleft((cost_ns, callback, args))
        self._arrived()

    def charge(self, cost_ns, callback, args, front):
        """``KernelNode.charge``: a job of no cost runs at once."""
        if cost_ns <= 0:
            callback(*args)
        elif front:
            self.submit_front(cost_ns, callback, *args)
        else:
            self.submit(cost_ns, callback, *args)

    def _arrived(self):
        self._maybe_start()
        if self.gated and self.on_work_queued is not None:
            self.on_work_queued()

    def _maybe_start(self):
        if self.running or self.paused or not self.queue:
            return
        self.running = True
        job = self.queue.popleft()
        self.engine.schedule(job[0], self._complete, job)

    def _complete(self, job):
        cost_ns, callback, args = job
        self.running = False
        self.busy_ns += cost_ns
        self.jobs_completed += 1
        if callback is not None:
            callback(*args)
        self._maybe_start()
        if not self.running and not self.queue and self.on_idle is not None:
            self.on_idle()

    def pause(self):
        self.paused = True

    def resume(self):
        if self.paused:
            self.paused = False
            self._maybe_start()

    def state(self):
        return self.running, len(self.queue)


def _real(engine, gated, start_paused):
    return GatedCPU(engine, start_paused=start_paused) if gated else CPU(engine)


def _reference_charge(engine, cpu):
    return cpu.charge


def _real_charge(engine, cpu):
    node = KernelNode(engine, "n", cpus=[cpu])
    return lambda cost, callback, args, front: node.charge(
        cpu, cost, callback, *args, front=front
    )


def _real_state(cpu):
    return cpu.busy, cpu.queue_depth


# -- scripts -----------------------------------------------------------------

_costs = st.integers(0, 30)
_args = st.lists(st.integers(-3, 3), max_size=3).map(tuple)


def _actions(bodies):
    return st.one_of(
        # A job: its cost, what its completion callback does (None: no
        # callback at all) and the arguments it is submitted with.
        st.tuples(st.sampled_from(["submit", "submit_front"]), _costs,
                  st.one_of(st.none(), bodies), _args),
        # The same through KernelNode.charge, whose continuation is never
        # None.
        st.tuples(st.sampled_from(["charge", "charge_front"]), _costs, bodies, _args),
        st.tuples(st.sampled_from(["pause", "resume"])),  # gated CPUs only
        st.tuples(st.just("later"), st.integers(0, 40), bodies),
    )


_bodies = st.recursive(
    st.just([]), lambda bodies: st.lists(_actions(bodies), max_size=3), max_leaves=8
)
_runs = st.tuples(st.just("run"), st.one_of(st.none(), st.integers(0, 60)))
_scripts = st.lists(st.one_of(_actions(_bodies), _runs), max_size=14).map(
    lambda script: script + [("resume",), ("run", None)]
)


def play(make, state, charger, gated, start_paused, script):
    """Run ``script`` on the CPU ``make`` builds, charging through what
    ``charger`` returns for it; one snapshot per ``run``."""
    engine = Engine()
    cpu = make(engine, gated, start_paused)
    charge = charger(engine, cpu)
    log, idles, kicks, snapshots = [], [], [], []
    labels = itertools.count()
    cpu.on_idle = lambda: idles.append(engine.now)
    if gated:
        cpu.on_work_queued = lambda: kicks.append(engine.now)

    def done(label, body, expected, *received):
        assert received == expected
        log.append((engine.now, label, received))
        perform(body)

    def perform(body):
        for action in body:
            kind = action[0]
            if kind in ("pause", "resume"):
                if gated:
                    getattr(cpu, kind)()
            elif kind == "later":
                engine.schedule(action[1], perform, action[2])
            elif kind.startswith("charge"):
                _, cost, then, args = action
                callback = partial(done, next(labels), then, args)
                charge(cost, callback, args, kind == "charge_front")
            else:
                _, cost, then, args = action
                callback = None if then is None else partial(done, next(labels), then, args)
                getattr(cpu, kind)(cost, callback, *args)

    for op in script:
        if op[0] != "run":
            perform([op])
            continue
        engine.run(until=None if op[1] is None else engine.now + op[1])
        snapshots.append([
            list(log), cpu.busy_ns, cpu.jobs_completed, list(idles), list(kicks),
            state(cpu), engine.now, engine.events_executed,
        ])
    return snapshots


@settings(max_examples=300, deadline=None)
@given(gated=st.booleans(), start_paused=st.booleans(), script=_scripts)
def test_generated_scripts_match_queue_then_pop(gated, start_paused, script):
    reference = play(
        ReferenceCPU, ReferenceCPU.state, _reference_charge, gated, start_paused, script
    )
    assert play(_real, _real_state, _real_charge, gated, start_paused, script) == reference
