"""Generated scripts: Engine and ShardedEngine against a reference engine.

Hypothesis writes scripts of ``schedule`` / ``schedule_at`` / ``timer`` /
``cancel`` / ``run`` calls whose callbacks themselves schedule, arm
timers, cancel any timer ever armed (live, fired, cancelled already,
their own) and sometimes raise.  Each script runs on :class:`Engine`, on
:class:`ShardedEngine` and on :class:`ReferenceEngine` below -- a list
searched with ``min()`` on every pop, sharing no code with
``repro.sim`` -- and after every ``run`` everything observable must
agree: the execution log, the return value (or the exception), the
clock, ``pending()``, ``next_time()``, the event count and, for the
sharded pair, the round accounting behind ``vnt_shard_*``.  The
reference opens a round when an event *executes* past the open round's
horizon; ``ShardedEngine`` opens one at the loop's edge before draining
it, so the two formulations check each other.
"""

from __future__ import annotations

import itertools
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim import Engine, ShardedEngine
from repro.sim import engine as engine_mod

SHARDS = 3
LOOKAHEAD_NS = 16


class _ReferenceEntry:
    def __init__(self, time_ns, seq, fn, args):
        self.key = (time_ns, seq)
        self.fn = fn
        self.args = args
        self.live = True

    def cancel(self):
        self.live = False


class ReferenceEngine:
    """The specification, written to be obviously right rather than fast."""

    def __init__(self):
        self.now = 0
        self.events_executed = 0
        self.rounds = 0
        self.last_horizon_ns = 0
        self._entries = []
        self._seq = itertools.count()

    @property
    def events_by_shard(self):
        # The compat tier places nothing: every event is shard 0's.
        return [self.events_executed] + [0] * (SHARDS - 1)

    @property
    def boundary_events_by_shard(self):
        return [0] * SHARDS

    def _live(self):
        return [entry for entry in self._entries if entry.live]

    def schedule_at(self, time_ns, fn, *args):
        assert time_ns >= self.now
        entry = _ReferenceEntry(time_ns, next(self._seq), fn, args)
        self._entries.append(entry)
        return entry

    def timer(self, delay_ns, fn, *args):
        return self.schedule_at(self.now + delay_ns, fn, *args)

    def schedule(self, delay_ns, fn, *args):
        self.timer(delay_ns, fn, *args)

    def pending(self):
        return len(self._live())

    def next_time(self):
        return min((entry.key[0] for entry in self._live()), default=None)

    def run(self, until=None, max_events=None):
        executed = 0
        round_end = None  # every run() opens a fresh round
        try:
            while max_events is None or executed < max_events:
                head = min(self._live(), key=lambda entry: entry.key, default=None)
                if head is None or (until is not None and head.key[0] > until):
                    break
                self.now = head.key[0]
                if round_end is None or self.now > round_end:
                    round_end = self.now + LOOKAHEAD_NS
                    if until is not None:
                        round_end = min(round_end, until)
                    self.rounds += 1
                    self.last_horizon_ns = round_end
                head.live = False  # fired: a late cancel() changes nothing
                head.fn(*head.args)
                executed += 1
        finally:
            self.events_executed += executed  # the raiser is not counted
        if until is not None and self.now < until:
            upcoming = self.next_time()
            if upcoming is None or upcoming > until:
                self.now = until
        return executed


class _Boom(Exception):
    """What a ``raise`` action throws out of its callback."""


# -- scripts -----------------------------------------------------------------

_delays = st.integers(0, 40)


def _actions(bodies):
    return st.one_of(
        st.tuples(st.sampled_from(["schedule", "schedule_at", "timer"]), _delays, bodies),
        st.tuples(st.just("cancel"), st.integers(-3, 30)),
        st.tuples(st.just("raise")),  # abandons the rest of its body too
    )


# What a callback does when it fires: nothing, or a few actions whose
# own callbacks are smaller bodies.
_bodies = st.recursive(
    st.just([]), lambda bodies: st.lists(_actions(bodies), max_size=3), max_leaves=6
)
_runs = st.tuples(
    st.just("run"),
    st.one_of(st.none(), st.integers(0, 60)),  # until = now + k
    st.one_of(st.none(), st.integers(0, 5)),  # max_events
)
# Top-level actions never raise: only a callback does, in mid-run.
_scripts = st.lists(
    st.one_of(_actions(_bodies).filter(lambda action: action[0] != "raise"), _runs),
    max_size=14,
).map(lambda script: script + [("run", None, None)])


def play(engine, script):
    """Run ``script`` on ``engine``; return one snapshot per ``run``."""
    log, timers, snapshots = [], [], []
    labels = itertools.count()
    sharded = hasattr(engine, "rounds")

    def fire(label, body):
        log.append((engine.now, label))
        perform(body)

    def perform(body):
        for action in body:
            kind = action[0]
            if kind == "raise":
                raise _Boom
            if kind == "cancel":
                if timers:
                    timers[action[1] % len(timers)].cancel()
                continue
            _, delay, child = action
            if kind == "schedule":
                assert engine.schedule(delay, fire, next(labels), child) is None
            elif kind == "schedule_at":
                engine.schedule_at(engine.now + delay, fire, next(labels), child)
            else:
                timers.append(engine.timer(delay, fire, next(labels), child))

    for op in script:
        if op[0] != "run":
            perform([op])
            continue
        _, horizon, max_events = op
        until = None if horizon is None else engine.now + horizon
        try:
            executed = engine.run(until=until, max_events=max_events)
        except _Boom:
            executed = "raised"
        snapshot = [
            list(log), executed, engine.now, engine.pending(),
            engine.next_time(), engine.events_executed,
        ]
        if sharded:
            assert sum(engine.events_by_shard) == engine.events_executed
            snapshot += [
                engine.rounds, engine.last_horizon_ns,
                list(engine.events_by_shard), list(engine.boundary_events_by_shard),
            ]
        snapshots.append(snapshot)
    return snapshots


@pytest.mark.parametrize("thresholds", [(0, 0), (64, 4)],
                         ids=["compact-every-cancel", "default"])
@settings(max_examples=150, deadline=None)
@given(script=_scripts)
def test_generated_scripts_match_the_reference(thresholds, script):
    with mock.patch.multiple(
        engine_mod, COMPACT_MIN_DEAD=thresholds[0], COMPACT_DEAD_FACTOR=thresholds[1]
    ):
        reference = play(ReferenceEngine(), script)
        sharded = play(ShardedEngine(shards=SHARDS, lookahead_ns=LOOKAHEAD_NS), script)
        plain = play(Engine(), script)
    assert sharded == reference
    # The plain engine has no rounds; the rest must agree.
    assert plain == [snapshot[:6] for snapshot in reference]
