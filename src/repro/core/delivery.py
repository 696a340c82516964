"""At-least-once delivery over a lossy channel (docs/FAULTS.md).

The dispatcher ships control packages to agents and every agent ships
record batches to the collector; both legs are the same protocol, and
this module is the one place it is written:

1. count the attempt;
2. draw the channel's fault decision for the copy and put it (and its
   fault-injected duplicate) on the wire;
3. arm the ack timer at ``latency + ack_timeout + backoff``, where the
   backoff before attempt N >= 2 is ``min(base * 2**(N-2), cap)``;
4. a copy that arrives is handed to the owner; if the owner accepts
   it, the ack crosses the same channel back with a draw of its own;
5. the first ack cancels the timer and closes the delivery; a timer
   that fires retransmits while the attempt budget lasts and gives up,
   exactly once, when it is spent.

What the message *is* stays with the owner, behind four hooks:

``arrived(delivery, sent_ns) -> bool``
    a copy reached the far end (``sent_ns`` is when that attempt left);
    return whether an ack goes back.  Called for every copy, also one
    still on the wire when the delivery was abandoned -- whether such a
    copy still counts is the owner's call (``delivery.abandoned``).
``counted(delivery)``
    an attempt was counted (``delivery.attempts`` is already updated).
``acked(delivery)``
    the first ack came back.
``gave_up(delivery)``
    the budget ran out unacked; ``delivery.arrivals`` says whether only
    the acks were lost.  May raise: it runs from the engine's loop.

``budget(delivery) -> (max_attempts, ack_timeout_ns)`` is read at every
attempt and every timeout, so an owner decides whether a delivery keeps
the budget it started with or follows a later reconfiguration.

Schedule order inside an attempt is copy, duplicate, timer; decisions
are drawn one per copy sent, then one per ack, from :attr:`decide` (the
channel's ``FaultInjector`` method, ``None`` for a clean channel).
"""

from __future__ import annotations

from typing import Any, Callable, Optional, Tuple

from repro.sim.engine import Engine, Timer


class Delivery:
    """Send state of one message; ``payload`` is the owner's."""

    __slots__ = ("payload", "attempts", "arrivals", "acked", "abandoned", "timer")

    def __init__(self, payload: Any):
        self.payload = payload
        self.attempts = 0
        self.arrivals = 0  # copies that reached the far end
        self.acked = False
        # Cancelled by the owner or given up by the sender: nothing more
        # is sent and a late ack is ignored.
        self.abandoned = False
        self.timer: Optional[Timer] = None


class AtLeastOnceSender:
    """Ack / retransmit / capped-exponential-backoff sender for one
    channel (module docstring)."""

    def __init__(
        self,
        engine: Engine,
        *,
        latency_ns: int,
        backoff_base_ns: int,
        backoff_cap_ns: int,
        budget: Callable[[Delivery], Tuple[int, int]],
        arrived: Callable[[Delivery, int], bool],
        counted: Callable[[Delivery], None],
        acked: Callable[[Delivery], None],
        gave_up: Callable[[Delivery], None],
    ):
        self.engine = engine
        self.latency_ns = latency_ns
        self.backoff_base_ns = backoff_base_ns
        self.backoff_cap_ns = backoff_cap_ns
        self.decide: Optional[Callable[[], Any]] = None
        self._budget = budget
        self._arrived = arrived
        self._counted = counted
        self._acked = acked
        self._gave_up = gave_up

    def transmit(self, delivery: Delivery) -> None:
        """One attempt: the first for a new :class:`Delivery`, later
        ones from the ack timer.  A no-op once abandoned, so an owner
        may start the first attempt from a deferred callback."""
        if delivery.abandoned:
            return
        delivery.attempts += 1
        self._counted(delivery)
        engine = self.engine
        latency = self.latency_ns
        decision = self.decide() if self.decide is not None else None
        if decision is None or not decision.drop:
            delay = latency + (decision.extra_delay_ns if decision else 0)
            engine.schedule(delay, self._arrive, delivery, engine.now)
            if decision is not None and decision.duplicate:
                engine.schedule(delay + latency, self._arrive, delivery, engine.now)
        backoff = 0
        if delivery.attempts >= 2:
            backoff = min(
                self.backoff_base_ns * 2 ** (delivery.attempts - 2), self.backoff_cap_ns
            )
        _, ack_timeout_ns = self._budget(delivery)
        delivery.timer = engine.timer(
            latency + ack_timeout_ns + backoff, self._timeout, delivery
        )

    def cancel(self, delivery: Delivery) -> None:
        """Abandon a delivery without the ``gave_up`` hook: copies on
        the wire still arrive, nothing is re-sent."""
        delivery.abandoned = True
        if delivery.timer is not None:
            delivery.timer.cancel()

    def _arrive(self, delivery: Delivery, sent_ns: int) -> None:
        delivery.arrivals += 1
        if not self._arrived(delivery, sent_ns):
            return
        # The ack crosses the same lossy channel, in the other direction.
        decision = self.decide() if self.decide is not None else None
        if decision is None or not decision.drop:
            delay = self.latency_ns + (decision.extra_delay_ns if decision else 0)
            self.engine.schedule(delay, self._ack, delivery)

    def _ack(self, delivery: Delivery) -> None:
        if delivery.acked or delivery.abandoned:
            return
        delivery.acked = True
        delivery.timer.cancel()
        self._acked(delivery)

    def _timeout(self, delivery: Delivery) -> None:
        # Live only while unacked and not abandoned: both cancel it.
        max_attempts, _ = self._budget(delivery)
        if delivery.attempts < max_attempts:
            self.transmit(delivery)
            return
        delivery.abandoned = True
        self._gave_up(delivery)
