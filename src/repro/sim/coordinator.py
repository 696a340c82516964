"""Fleet-tier sharding: independent per-shard engines under a coordinator.

Where :class:`~repro.sim.shard.ShardedEngine` counts rounds over the
event loop of a *shared* world, this module shards the world itself.
Each shard is a self-contained *shard program* (its own plain
:class:`~repro.sim.engine.Engine`, its own nodes and state), and shards
communicate **only** through :class:`BoundaryMessage` values routed by
the coordinator -- the simulation analogue of packets crossing a
wire/VXLAN boundary.  Because no state is shared, shards can run on
``multiprocessing`` workers with pickled boundary batches
(``workers=True``).

Synchronization is conservative lookahead (docs/SHARDING.md):

1. the coordinator injects last round's boundary messages into each
   destination shard (one *bucket-flush* event per distinct delivery
   timestamp, messages sorted by ``(src_shard, seq)``);
2. it computes ``t_min``, the earliest pending event across all shards,
   and advances every shard to ``horizon = t_min + lookahead``;
3. it drains each shard's outbox and routes the messages for the next
   round.

Step 2 is safe because the boundary contract requires every message's
``deliver_ns - send_ns >= lookahead_ns`` (checked at send time): nothing
sent during a round can be delivered inside that round's horizon.

The coordinator advances each shard's engine with ``run(until=horizon)``
(inclusive bound, clock left at the horizon -- the round barrier) and
reads ``next_time()`` to place the next horizon.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, NamedTuple, Optional, Sequence, Tuple

from repro.sim.engine import Engine, SimulationError, run_bound
from repro.sim.shard import DEFAULT_LOOKAHEAD_NS, register_shard_stage


class BoundaryError(SimulationError):
    """A boundary message violated the lookahead contract."""


class ShardWorkerError(RuntimeError):
    """A multiprocessing shard worker crashed, hung, or died."""


class BoundaryMessage(NamedTuple):
    """One cross-shard event, picklable by construction (ints only)."""

    deliver_ns: int  # absolute virtual delivery time at the destination
    src_shard: int
    src_node: int
    dst_shard: int
    dst_node: int
    kind: int  # scenario-defined message type
    trace_id: int  # carried in-band, like the paper's in-packet trace ID
    payload: int  # scenario-defined scalar (length, echoed clock, ...)
    send_ns: int  # absolute virtual send time at the source
    seq: int  # per-source-shard monotone send counter (tie-breaking)


class BoundaryBatch(NamedTuple):
    """One shard's outbound messages for one round (the pickled unit
    shipped between coordinator and workers)."""

    round_index: int
    src_shard: int
    messages: Tuple[BoundaryMessage, ...]


# Sorted delivery order inside a bucket: deterministic no matter which
# round or worker produced the messages.
_BUCKET_KEY = lambda m: (m.deliver_ns, m.src_shard, m.seq)  # noqa: E731

# The worker wire protocol (tuples over a Pipe); docs/SHARDING.md
# documents both tables and tests/test_docs_sharding.py diffs them.
PARENT_OPS = ("round", "finish")
WORKER_REPLIES = ("ready", "done", "result", "error")


class BoundaryOutbox:
    """Where a shard program emits cross-shard messages.

    Enforces the lookahead contract at send time and stamps the
    per-source-shard ``seq`` used for deterministic bucket ordering.
    """

    __slots__ = ("shard", "lookahead_ns", "_seq", "_pending", "sent_total")

    def __init__(self, shard: int, lookahead_ns: int):
        self.shard = shard
        self.lookahead_ns = lookahead_ns
        self._seq = 0
        self._pending: List[BoundaryMessage] = []
        self.sent_total = 0

    def send(
        self,
        *,
        deliver_ns: int,
        dst_shard: int,
        dst_node: int,
        send_ns: int,
        src_node: int = 0,
        kind: int = 0,
        trace_id: int = 0,
        payload: int = 0,
    ) -> BoundaryMessage:
        if deliver_ns - send_ns < self.lookahead_ns:
            raise BoundaryError(
                f"boundary latency {deliver_ns - send_ns}ns below the "
                f"lookahead window {self.lookahead_ns}ns "
                f"(shard {self.shard} -> {dst_shard})"
            )
        message = BoundaryMessage(
            deliver_ns, self.shard, src_node, dst_shard, dst_node,
            kind, trace_id, payload, send_ns, self._seq,
        )
        self._seq += 1
        self.sent_total += 1
        self._pending.append(message)
        return message

    def drain(self) -> List[BoundaryMessage]:
        pending, self._pending = self._pending, []
        return pending


class InlineOutbox(BoundaryOutbox):
    """Boundary machinery for the *unsharded* leg: same contract, same
    bucket-flush delivery, but scheduled straight onto the one engine.

    Running the identical send/bucket/deliver path in every mode is what
    makes single-engine vs. sharded vs. worker runs comparable event for
    event (docs/SHARDING.md, "Boundary rules").
    """

    __slots__ = ("engine", "deliver", "_buckets")

    def __init__(self, engine, deliver: Callable[[BoundaryMessage], None],
                 lookahead_ns: int, shard: int = 0):
        super().__init__(shard, lookahead_ns)
        self.engine = engine
        self.deliver = deliver
        self._buckets: Dict[int, List[BoundaryMessage]] = {}

    def send(self, **fields: int) -> BoundaryMessage:
        message = super().send(**fields)
        self._pending.clear()  # inline mode never accumulates a round
        bucket = self._buckets.get(message.deliver_ns)
        if bucket is None:
            bucket = self._buckets[message.deliver_ns] = []
            self.engine.schedule_at(
                message.deliver_ns, self._flush, message.deliver_ns
            )
        bucket.append(message)
        return message

    def _flush(self, deliver_ns: int) -> None:
        bucket = self._buckets.pop(deliver_ns)
        bucket.sort(key=_BUCKET_KEY)
        deliver = self.deliver
        for message in bucket:
            deliver(message)


def inject_messages(program, messages: Sequence[BoundaryMessage]) -> None:
    """Schedule inbound boundary messages onto a shard program: one
    bucket-flush event per distinct delivery time, each bucket sorted by
    ``(src_shard, seq)`` so delivery order is independent of routing
    order (and therefore identical across in-process and worker runs)."""
    buckets: Dict[int, List[BoundaryMessage]] = {}
    for message in sorted(messages, key=_BUCKET_KEY):
        buckets.setdefault(message.deliver_ns, []).append(message)
    engine = program.engine
    for deliver_ns in sorted(buckets):
        engine.schedule_at(deliver_ns, _deliver_bucket, program, buckets[deliver_ns])


def _deliver_bucket(program, bucket: List[BoundaryMessage]) -> None:
    deliver = program.deliver
    for message in bucket:
        deliver(message)


class CoordinatorRun(NamedTuple):
    """Everything a fleet run produces: per-shard ``collect()`` results
    plus the coordinator's own accounting."""

    results: List[Any]
    rounds: int
    boundary_messages: int
    events_executed: int
    workers: int


class ShardCoordinator:
    """Advance ``num_shards`` shard programs in lookahead-bounded rounds.

    ``build(shard_index, num_shards, outbox)`` must return a *shard
    program*: an object with an ``engine`` (an :class:`Engine`), a
    ``deliver(message)`` method for inbound boundary messages, and a
    ``collect()`` method returning a picklable per-shard result.  With
    ``workers=True`` the build callable itself must be picklable (a
    module-level function or :func:`functools.partial` of one) because
    it is shipped to spawned worker processes.
    """

    def __init__(
        self,
        num_shards: int,
        build: Callable[..., Any],
        *,
        lookahead_ns: int = DEFAULT_LOOKAHEAD_NS,
        workers: bool = False,
        mp_start_method: Optional[str] = None,
        worker_timeout_s: float = 120.0,
    ) -> None:
        if num_shards < 1:
            raise SimulationError(f"need at least one shard, got {num_shards}")
        if lookahead_ns <= 0:
            raise SimulationError(f"lookahead must be positive, got {lookahead_ns}")
        self.num_shards = int(num_shards)
        self.build = build
        self.lookahead_ns = int(lookahead_ns)
        # A single shard has no boundary to parallelize across: ``--shards 1``
        # is exactly the in-process coordinator, never a worker pool.
        self.workers = bool(workers) and self.num_shards > 1
        self.mp_start_method = mp_start_method
        self.worker_timeout_s = worker_timeout_s
        # Filled by run(); read by attach_metrics callbacks.
        self.rounds = 0
        self.last_horizon_ns = 0
        self.boundary_events_by_shard = [0] * self.num_shards
        self.events_by_shard = [0] * self.num_shards
        self.worker_count = 0

    # -- in-process --------------------------------------------------------

    def _run_in_process(self, until: int) -> CoordinatorRun:
        outboxes = [
            BoundaryOutbox(shard, self.lookahead_ns) for shard in range(self.num_shards)
        ]
        programs = [
            self.build(shard, self.num_shards, outboxes[shard])
            for shard in range(self.num_shards)
        ]
        pending: List[List[BoundaryMessage]] = [[] for _ in range(self.num_shards)]
        executed = 0
        while True:
            for shard, inbound in enumerate(pending):
                if inbound:
                    inject_messages(programs[shard], inbound)
                    pending[shard] = []
            next_times = [p.engine.next_time() for p in programs]
            live = [t for t in next_times if t is not None]
            if not live:
                break
            t_min = min(live)
            if t_min > until:
                break
            horizon = min(t_min + self.lookahead_ns, until)
            for shard, program in enumerate(programs):
                ran = program.engine.run(until=horizon)
                executed += ran
                self.events_by_shard[shard] += ran
            self.rounds += 1
            self.last_horizon_ns = horizon
            for shard, outbox in enumerate(outboxes):
                messages = outbox.drain()
                self.boundary_events_by_shard[shard] += len(messages)
                for message in messages:
                    pending[message.dst_shard].append(message)
        return CoordinatorRun(
            results=[program.collect() for program in programs],
            rounds=self.rounds,
            boundary_messages=sum(self.boundary_events_by_shard),
            events_executed=executed,
            workers=0,
        )

    # -- multiprocessing ---------------------------------------------------

    def _expect(self, conn, shard: int):
        """Receive one worker reply or raise a clean ShardWorkerError --
        a hung or dead worker must never hang the coordinator."""
        if not conn.poll(self.worker_timeout_s):
            raise ShardWorkerError(
                f"shard {shard} worker sent nothing for "
                f"{self.worker_timeout_s:.0f}s (assuming it hung)"
            )
        try:
            reply = conn.recv()
        except EOFError:
            raise ShardWorkerError(
                f"shard {shard} worker died without a reply"
            ) from None
        if reply[0] == "error":
            raise ShardWorkerError(
                f"shard {shard} worker crashed:\n{reply[1]}"
            )
        return reply

    def _run_on_workers(self, until: int) -> CoordinatorRun:
        import multiprocessing

        context = multiprocessing.get_context(self.mp_start_method or "spawn")
        connections = []
        processes = []
        try:
            for shard in range(self.num_shards):
                parent_conn, child_conn = context.Pipe(duplex=True)
                process = context.Process(
                    target=_shard_worker_main,
                    args=(child_conn, self.build, shard, self.num_shards,
                          self.lookahead_ns),
                    daemon=True,
                )
                process.start()
                child_conn.close()
                connections.append(parent_conn)
                processes.append(process)
            self.worker_count = len(processes)

            next_times: List[Optional[int]] = []
            for shard, conn in enumerate(connections):
                tag, next_time = self._expect(conn, shard)
                assert tag == "ready"
                next_times.append(next_time)

            pending: List[List[BoundaryMessage]] = [
                [] for _ in range(self.num_shards)
            ]
            executed = 0
            round_index = 0
            while True:
                live = [t for t in next_times if t is not None]
                # Pending boundary messages are not yet in any worker's
                # heap (they ship with the next "round" op), so their
                # delivery times must bound the horizon too -- otherwise
                # a shard could advance past a delivery it has not seen.
                live.extend(
                    message.deliver_ns
                    for inbound in pending
                    for message in inbound
                )
                if not live:
                    break
                t_min = min(live)
                if t_min > until:
                    break
                horizon = min(t_min + self.lookahead_ns, until)
                for shard, conn in enumerate(connections):
                    conn.send(("round", horizon, tuple(pending[shard])))
                    pending[shard] = []
                for shard, conn in enumerate(connections):
                    tag, next_time, batch, ran = self._expect(conn, shard)
                    assert tag == "done"
                    next_times[shard] = next_time
                    executed += ran
                    self.events_by_shard[shard] += ran
                    self.boundary_events_by_shard[shard] += len(batch.messages)
                    for message in batch.messages:
                        pending[message.dst_shard].append(message)
                self.rounds += 1
                self.last_horizon_ns = horizon
                round_index += 1

            results = []
            for shard, conn in enumerate(connections):
                conn.send(("finish",))
            for shard, conn in enumerate(connections):
                tag, result, total = self._expect(conn, shard)
                assert tag == "result"
                results.append(result)
            # Worker-side engines bumped *their* process's global event
            # counter; fold the reported counts into this process so the
            # pin table's event counts see worker runs like in-process ones.
            Engine._events_executed_global += executed
            return CoordinatorRun(
                results=results,
                rounds=self.rounds,
                boundary_messages=sum(self.boundary_events_by_shard),
                events_executed=executed,
                workers=len(processes),
            )
        finally:
            for conn in connections:
                try:
                    conn.close()
                except OSError:  # pragma: no cover - teardown best effort
                    pass
            for process in processes:
                process.join(timeout=5.0)
                if process.is_alive():  # pragma: no cover - hung worker
                    process.terminate()
                    process.join(timeout=5.0)

    def run(self, until: int) -> CoordinatorRun:
        """Advance every shard to ``until`` and return the merged run."""
        until = run_bound(until)
        if self.workers:
            return self._run_on_workers(until)
        return self._run_in_process(until)

    # -- observability -----------------------------------------------------

    def attach_metrics(self, registry) -> None:
        """Register the ``shard`` stage over this coordinator's counters."""
        register_shard_stage(registry, self)


def _shard_worker_main(conn, build, shard_index: int, num_shards: int,
                       lookahead_ns: int) -> None:
    """Worker process entry point: host one shard, speak the round
    protocol over ``conn``.  Any exception -- in build, in a callback,
    in the protocol -- is reported as an ``("error", traceback)`` reply
    so the coordinator can raise instead of hanging."""
    import traceback

    try:
        outbox = BoundaryOutbox(shard_index, lookahead_ns)
        program = build(shard_index, num_shards, outbox)
        conn.send(("ready", program.engine.next_time()))
        round_index = 0
        while True:
            op = conn.recv()
            if op[0] == "round":
                _, horizon, inbound = op
                if inbound:
                    inject_messages(program, inbound)
                executed = program.engine.run(until=horizon)
                batch = BoundaryBatch(round_index, shard_index, tuple(outbox.drain()))
                conn.send(("done", program.engine.next_time(), batch, executed))
                round_index += 1
            elif op[0] == "finish":
                conn.send(("result", program.collect(),
                           program.engine.events_executed))
                return
            else:  # pragma: no cover - protocol misuse
                raise RuntimeError(f"unknown coordinator op {op[0]!r}")
    except BaseException:
        try:
            conn.send(("error", traceback.format_exc()))
        except (OSError, BrokenPipeError):  # pragma: no cover - parent gone
            pass
    finally:
        conn.close()
