"""Generated fault scripts: AtLeastOnceSender against a reference timeline.

Hypothesis writes, per message, the channel's decisions in the order the
sender will draw them (drop / duplicate / delay, for copies and for
acks), a budget, when the first attempt starts, and optionally an owner
``cancel``, a budget retune mid-flight (the agent's budget follows a
redeploy) and copies the far end refuses to ack (the dispatcher's
"stale").  Each case runs on the real sender over the real
:class:`Engine` with both constant sets -- the dispatcher's and the
agent's -- and on :func:`reference` below, a list searched with
``min()`` that shares no code with ``repro.core.delivery`` or
``repro.sim``.  Everything observable must agree: every hook call with
its time and the delivery's counters, every ``schedule`` / ``timer``
call the sender makes in order (copy, duplicate, then timer), the
number of decisions drawn, and the final state.
"""

from __future__ import annotations

import itertools
from typing import NamedTuple, Optional, Tuple

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import agent as agent_mod
from repro.core import dispatcher as dispatcher_mod
from repro.core.delivery import AtLeastOnceSender, Delivery
from repro.faults.inject import Decision
from repro.sim.engine import Engine

# (latency, backoff base, backoff cap) of the two users.
CONSTANTS = {
    "control": (
        dispatcher_mod.CONTROL_LATENCY_NS,
        dispatcher_mod.DEPLOY_BACKOFF_BASE_NS,
        dispatcher_mod.DEPLOY_BACKOFF_CAP_NS,
    ),
    "shipment": (
        agent_mod.SHIP_NET_LATENCY_NS,
        agent_mod.SHIP_BACKOFF_BASE_NS,
        agent_mod.SHIP_BACKOFF_CAP_NS,
    ),
}
# Both caps are sixteen bases: the cap first bites at attempt 7.
MAX_ATTEMPTS = 8
ACK_TIMEOUTS = (50_000, 2_000_000)
# Decisions as (drop, duplicate, extra delay).
DROP = (True, False, 0)
CLEAN = (False, False, 0)


class Case(NamedTuple):
    script: Tuple[Tuple[bool, bool, int], ...] = ()  # decisions, in draw order
    accepts: Tuple[bool, ...] = ()  # per arriving copy: does an ack go back
    budget: Tuple[int, int] = (3, 50_000)  # (max_attempts, ack_timeout_ns)
    start_ns: int = 0  # the first attempt runs from a deferred callback
    cancel_ns: Optional[int] = None
    retune: Optional[Tuple[int, Tuple[int, int]]] = None  # (at_ns, new budget)
    clean_channel: bool = False  # decide is None: no injector attached


def _pad(values, index, default):
    return values[index] if index < len(values) else default


def reference(case: Case, latency: int, base: int, cap: int):
    """The specification, written to be obviously right."""
    pending = []  # [time, order, kind, sent_ns]
    order = itertools.count()
    hooks, calls = [], []
    budget = case.budget
    attempts = arrivals = draws = 0
    acked = abandoned = False
    timer = None

    def draw():
        nonlocal draws
        if case.clean_channel:
            return CLEAN
        draws += 1
        return _pad(case.script, draws - 1, CLEAN)

    def push(now, delay, kind, sent_ns=None, record=True):
        entry = [now + delay, next(order), kind, sent_ns]
        pending.append(entry)
        if record:
            calls.append((now, "timer" if kind == "timeout" else "schedule", delay))
        return entry

    def attempt(now):
        nonlocal attempts, timer
        if abandoned:
            return
        attempts += 1
        hooks.append((now, "counted", attempts))
        drop, duplicate, extra = draw()
        if not drop:
            push(now, latency + extra, "copy", now)
            if duplicate:
                push(now, latency + extra + latency, "copy", now)
        backoff = 0
        if attempts >= 2:  # base, doubled once per further retry, capped
            backoff = base
            for _ in range(attempts - 2):
                backoff *= 2
            backoff = min(backoff, cap)
        timer = push(now, latency + budget[1] + backoff, "timeout")

    # The owner's own events come first at their timestamp, as in run().
    if case.cancel_ns is not None:
        push(case.cancel_ns, 0, "cancel", record=False)
    if case.retune is not None:
        push(case.retune[0], 0, "retune", record=False)
    push(case.start_ns, 0, "start", record=False)

    while pending:
        entry = min(pending, key=lambda e: (e[0], e[1]))
        pending.remove(entry)
        now, _, kind, sent_ns = entry
        if kind == "start":
            attempt(now)
        elif kind == "cancel":
            abandoned = True
            if timer in pending:
                pending.remove(timer)
        elif kind == "retune":
            budget = case.retune[1]
        elif kind == "copy":
            arrivals += 1
            hooks.append((now, "arrived", sent_ns, arrivals, abandoned))
            if _pad(case.accepts, arrivals - 1, True):
                drop, _, extra = draw()  # an ack is never duplicated
                if not drop:
                    push(now, latency + extra, "ack")
        elif kind == "ack":
            if not acked and not abandoned:
                acked = True
                if timer in pending:
                    pending.remove(timer)
                hooks.append((now, "acked", attempts))
        elif kind == "timeout":
            if attempts < budget[0]:
                attempt(now)
            else:
                abandoned = True
                hooks.append((now, "gave_up", attempts, arrivals))
    return hooks, calls, draws, (attempts, arrivals, acked, abandoned)


class RecordingEngine(Engine):
    """An Engine that lists the sender's ``schedule`` / ``timer`` calls."""

    def __init__(self):
        super().__init__()
        self.calls = None  # off while the test itself schedules

    def schedule(self, delay_ns, fn, *args):
        if self.calls is not None:
            self.calls.append((self.now, "schedule", delay_ns))
        super().schedule(delay_ns, fn, *args)

    def timer(self, delay_ns, fn, *args):
        if self.calls is not None:
            self.calls.append((self.now, "timer", delay_ns))
        return super().timer(delay_ns, fn, *args)


def play(case: Case, latency: int, base: int, cap: int):
    engine = RecordingEngine()
    hooks = []
    budget = [case.budget]
    decisions = iter(case.script)
    draws = [0]

    def decide():
        draws[0] += 1
        return Decision(*next(decisions, CLEAN))

    def arrived(delivery, sent_ns):
        hooks.append(
            (engine.now, "arrived", sent_ns, delivery.arrivals, delivery.abandoned))
        return _pad(case.accepts, delivery.arrivals - 1, True)

    sender = AtLeastOnceSender(
        engine,
        latency_ns=latency,
        backoff_base_ns=base,
        backoff_cap_ns=cap,
        budget=lambda delivery: budget[0],
        arrived=arrived,
        counted=lambda d: hooks.append((engine.now, "counted", d.attempts)),
        acked=lambda d: hooks.append((engine.now, "acked", d.attempts)),
        gave_up=lambda d: hooks.append((engine.now, "gave_up", d.attempts, d.arrivals)),
    )
    if not case.clean_channel:
        sender.decide = decide
    delivery = Delivery("payload")
    if case.cancel_ns is not None:
        engine.schedule_at(case.cancel_ns, sender.cancel, delivery)
    if case.retune is not None:
        engine.schedule_at(case.retune[0], budget.__setitem__, 0, case.retune[1])
    engine.schedule_at(case.start_ns, sender.transmit, delivery)
    engine.calls = []
    engine.run()
    assert engine.pending() == 0
    final = (delivery.attempts, delivery.arrivals, delivery.acked, delivery.abandoned)
    return hooks, engine.calls, draws[0], final


# -- cases --------------------------------------------------------------------

# Delays that tie a copy or an ack with an ack timer, among others.
_extras = st.one_of(
    st.integers(0, 3_000_000),
    st.sampled_from(
        [0, 50_000, 2_000_000, 1_800_000, 2_500_000, 3_000_000, 550_000, 1_050_000]
    ),
)
_decisions = st.one_of(
    st.just(DROP),  # a dropped message has no duplicate, no delay
    st.tuples(st.just(False), st.booleans(), _extras),
)
_budgets = st.tuples(st.integers(1, MAX_ATTEMPTS), st.sampled_from(ACK_TIMEOUTS))
_times = st.integers(0, 40_000_000)
_cases = st.builds(
    Case,
    script=st.lists(_decisions, max_size=3 * MAX_ATTEMPTS).map(tuple),
    accepts=st.lists(st.booleans(), max_size=4).map(tuple),
    budget=_budgets,
    start_ns=st.integers(0, 5_000),
    cancel_ns=st.one_of(st.none(), _times),
    retune=st.one_of(st.none(), st.tuples(_times, _budgets)),
    clean_channel=st.booleans(),
)

def check(case: Case, constants) -> None:
    expected = reference(case, *constants)
    hooks, calls, draws, final = play(case, *constants)
    assert (hooks, calls, draws, final) == expected
    # Said directly, whatever the reference thinks:
    names = [hook[1] for hook in hooks]
    assert names.count("gave_up") + names.count("acked") <= 1
    assert sum(call[1] == "timer" for call in calls) == final[0]  # one per attempt
    if not case.clean_channel:
        # One decision per copy sent, one per ack attempted.
        accepted = sum(
            1 for i in range(final[1]) if _pad(case.accepts, i, True))
        assert draws == final[0] + accepted
    if case.cancel_ns is not None:
        late = [h for h in hooks if h[0] >= case.cancel_ns and h[1] != "arrived"]
        assert not late  # nothing sent, acked or given up after cancel


@pytest.mark.parametrize("channel", sorted(CONSTANTS))
@settings(max_examples=200, deadline=None)
@given(case=_cases)
def test_generated_cases_match_the_reference(channel, case):
    check(case, CONSTANTS[channel])


@pytest.mark.parametrize("channel", sorted(CONSTANTS))
@pytest.mark.parametrize(
    "case",
    [
        # Every copy lost up to the budget: all eight backoffs, the last
        # two at the cap; gives up once.
        Case((DROP,) * MAX_ATTEMPTS, budget=(MAX_ATTEMPTS, 50_000)),
        # Copies arrive, every ack is lost: data safe, still gives up.
        Case((CLEAN, DROP) * 3),
        # The duplicate's ack arrives after the first ack: ignored.
        Case(((False, True, 0), CLEAN, CLEAN)),
        # First ack delayed past the timer: a retransmission, then one ack wins.
        Case((CLEAN, (False, False, 2_000_000), CLEAN, CLEAN)),
        # Cancelled before the deferred first attempt: nothing is sent.
        Case(start_ns=4_000, cancel_ns=1_000),
        # Cancelled with a copy on the wire: it arrives, is acked, the
        # ack is ignored, nothing is re-sent.
        Case(cancel_ns=100_000),
        # The far end refuses the copy (stale): no ack draw, retransmits.
        Case((CLEAN, CLEAN, CLEAN), accepts=(False,)),
        # Budget cut to one attempt while the first is unacked.
        Case((DROP,) * 4, budget=(4, 50_000), retune=(10_000, (1, 2_000_000))),
        # No injector attached.
        Case(clean_channel=True),
    ],
)
def test_named_cases(channel, case):
    check(case, CONSTANTS[channel])


def test_backoff_is_capped_exponential_on_top_of_the_timeout():
    """Literal attempt times for the dispatcher's constants, so the
    formula is pinned without the reference: timer(N) = latency +
    timeout + min(base * 2**(N-2), cap) after attempt N >= 2."""
    latency, base, cap = CONSTANTS["control"]
    hooks, _, _, _ = play(
        Case((DROP,) * MAX_ATTEMPTS, budget=(MAX_ATTEMPTS, 50_000)), latency, base, cap)
    times = [hook[0] for hook in hooks if hook[1] == "counted"]
    gaps = [b - a for a, b in zip(times, times[1:])]
    fixed = latency + 50_000
    assert gaps == [
        fixed,  # after attempt 1: no backoff
        fixed + 500_000,
        fixed + 1_000_000,
        fixed + 2_000_000,
        fixed + 4_000_000,
        fixed + 8_000_000,
        fixed + 8_000_000,  # capped
    ]
    assert hooks[-1] == (times[-1] + fixed + 8_000_000, "gave_up", MAX_ATTEMPTS, 0)
