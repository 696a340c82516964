"""1000-node fleet scenario for the sharded simulation substrate.

This is the workload behind the ``macro_fleet`` benchmarks: ``nodes``
hosts in ``racks`` racks exchange cross-rack probe/reply pairs every
tick, rack leaders run one exact Cristian clock-sync round against the
rack-0 master, and a fraction of probes record tracepoint hits that are
merged into one :class:`~repro.core.tracedb.TraceDB` through the
packed-blob path.  The same world runs in three modes:

* ``shards=1`` -- one plain :class:`~repro.sim.engine.Engine` hosting
  every rack, with an :class:`~repro.sim.coordinator.InlineOutbox`
  carrying cross-rack traffic (the status-quo baseline leg);
* ``shards=N`` -- a :class:`~repro.sim.coordinator.ShardCoordinator`
  over N independent shard programs (contiguous rack blocks) coupled
  only by boundary messages;
* ``shards=N, workers=True`` -- the same coordinator hosting each shard
  on a ``multiprocessing`` worker with pickled boundary batches.

All modes produce the **same fingerprint** by construction: every event
class lands on its own residue modulo 1000 virtual nanoseconds (ticks
on 0, polls on 3·j, probe arrivals on 7, reply arrivals on 14, sync on
500/507/514) and the per-tick probe pattern is a permutation of the
nodes, so no destination ever sees two deliveries at one timestamp and
results never depend on engine interleaving.  The differential tests in
``tests/test_macro_fleet.py`` assert that equality; docs/SHARDING.md
explains why it holds.

A node keeps **one** poll pending: its tick arms the tick's first poll
and each poll arms the next (``LOCAL_NS`` apart, ``POLLS_PER_TICK`` per
tick), so the heap holds about two entries per node however long the
run is.  With no ties, when an entry was pushed cannot change what
pops next, so the events, their order and every count are those of a
run that queued all its polls at t = 0.  A poll still only counts
itself: draining the node's records there would move the blobs
``collect()`` packs, and the fingerprint with them, for no reader.
"""

from __future__ import annotations

import functools
import hashlib
import struct
from typing import Any, Dict, List, NamedTuple, Optional

from repro.core.records import RECORD_STRUCT
from repro.core.tracedb import TraceDB
from repro.streaming import StreamingAggregator, StreamingConfig, canonical_json
from repro.sim.coordinator import (
    BoundaryMessage,
    BoundaryOutbox,
    CoordinatorRun,
    InlineOutbox,
    ShardCoordinator,
)
from repro.sim.engine import Engine, SimulationError

# Boundary message kinds.
PROBE = 1
REPLY = 2
SYNC_REQ = 3
SYNC_RESP = 4

# Stable tracepoint ids for the packed-blob merge: passed explicitly to
# ``TraceDB.insert_packed`` so fleet fingerprints never depend on the
# process-global tracepoint allocator.
TP_PROBE_TX = 1
TP_PROBE_RX = 2
TP_REPLY_RX = 3
FLEET_LABELS = {
    TP_PROBE_TX: "fleet.probe.tx",
    TP_PROBE_RX: "fleet.probe.rx",
    TP_REPLY_RX: "fleet.reply.rx",
}
# Probe path order, for the streaming window aggregation over the merge.
FLEET_CHAIN = (
    FLEET_LABELS[TP_PROBE_TX],
    FLEET_LABELS[TP_PROBE_RX],
    FLEET_LABELS[TP_REPLY_RX],
)

# Cadence, tie-free by residue modulo 1000 ns (module docstring).
TICK_NS = 1_000_000  # residue 0
LOCAL_NS = 61_003  # polls at residues 3, 6, 9, ...
POLLS_PER_TICK = 10  # node-local agent polls per tick
PROBE_EVERY = 4  # each node probes every Nth tick (staggered)
RECORD_EVERY = 2  # record tracepoints every Nth probing tick
# Rack leaders stagger their sync rounds by this much so the master
# never sees two requests at one timestamp (keeps residue 500 mod 1000).
SYNC_STAGGER_NS = 100_000

_RECORD = RECORD_STRUCT  # struct.Struct("<IIQII"): the packed-blob layout


class FleetConfig(NamedTuple):
    """Fleet shape and wire timing.  The defaults are the 1000-node
    scenario the benchmarks run; timings are chosen tie-free (module
    docstring).
    """

    nodes: int = 1000
    racks: int = 40
    ticks: int = 20
    wire_ns: int = 1_000_007  # cross-rack latency; arrivals at 7 / 14
    lookahead_ns: int = 1_000_000  # <= wire_ns, the conservative window
    seed: int = 42  # rack clock-skew seed
    # Fault injection for the worker-crash tests: raise inside this
    # shard at this virtual time.
    crash_in_shard: Optional[int] = None
    crash_at_ns: Optional[int] = None

    @property
    def per_rack(self) -> int:
        return self.nodes // self.racks

    @property
    def end_ns(self) -> int:
        """Virtual horizon: last tick plus room for replies in flight."""
        return (self.ticks + 3) * TICK_NS


def fleet_rack_skews(config: FleetConfig) -> List[int]:
    """Deterministic per-rack clock skew; rack 0 is the sync master and
    defines zero.  A small multiplicative hash keeps skews reproducible
    without touching any RNG state shared with other scenarios."""
    skews = [0]
    for rack in range(1, config.racks):
        mixed = (config.seed * 1_000_003 + rack * 7919) % 60_000
        skews.append(mixed - 30_000)
    return skews


def shard_of_rack(rack: int, racks: int, num_shards: int) -> int:
    """Contiguous balanced rack->shard placement."""
    return rack * num_shards // racks


def _probe_peer(node: int, tick: int, config: FleetConfig) -> int:
    """Per-tick probe destination: same slot, rack shifted by a
    tick-dependent constant -- a permutation of the nodes, so every node
    receives exactly one probe per tick."""
    per_rack = config.per_rack
    rack, slot = divmod(node, per_rack)
    dst_rack = (rack + 1 + tick % (config.racks - 1)) % config.racks
    return dst_rack * per_rack + slot


def _packet_len(trace_id: int) -> int:
    return 64 + trace_id % 1400


class _FleetWorld:
    """One shard program: the racks this shard hosts, their workload,
    and their tracepoint record buffers.  With ``num_shards == 1`` it is
    the whole fleet on a single engine."""

    def __init__(
        self,
        config: FleetConfig,
        shard_index: int,
        num_shards: int,
        outbox: BoundaryOutbox,
        engine,
    ) -> None:
        if config.nodes % config.racks:
            raise SimulationError(
                f"nodes ({config.nodes}) must divide evenly into "
                f"racks ({config.racks})"
            )
        if config.racks < num_shards:
            raise SimulationError(
                f"more shards ({num_shards}) than racks ({config.racks})"
            )
        if config.wire_ns < config.lookahead_ns:
            raise SimulationError(
                f"wire latency {config.wire_ns}ns below the lookahead "
                f"window {config.lookahead_ns}ns"
            )
        self.config = config
        self.shard = shard_index
        self.num_shards = num_shards
        self.outbox = outbox
        self.engine = engine
        self.rack_skews = fleet_rack_skews(config)
        self.racks = [
            rack
            for rack in range(config.racks)
            if shard_of_rack(rack, config.racks, num_shards) == shard_index
        ]
        per_rack = config.per_rack
        self.nodes = [
            node
            for rack in self.racks
            for node in range(rack * per_rack, (rack + 1) * per_rack)
        ]
        self.records: Dict[int, List[tuple]] = {node: [] for node in self.nodes}
        self.pending_sync: Dict[int, int] = {}  # rack -> virtual send time
        self.skew_estimates: Dict[int, int] = {}  # rack -> Cristian estimate
        self.polls = 0
        self.probes_sent = 0
        self.probes_received = 0
        self.replies_received = 0
        self.sync_requests = 0
        self.rtt_sum = 0
        self.rtt_count = 0

        for node in self.nodes:
            engine.schedule_at(TICK_NS, self._tick, node, 0)
        for rack in self.racks:
            if rack == 0:
                continue  # the master is the reference; it never syncs
            engine.schedule_at(
                TICK_NS + rack * SYNC_STAGGER_NS + 500,
                self._sync_send,
                rack,
            )
        if (
            config.crash_at_ns is not None
            and config.crash_in_shard == shard_index
        ):
            engine.schedule_at(config.crash_at_ns, self._crash)

    # -- helpers -----------------------------------------------------------

    def _shard_of_node(self, node: int) -> int:
        return shard_of_rack(
            node // self.config.per_rack, self.config.racks, self.num_shards
        )

    def _local_ts(self, node: int, time_ns: int) -> int:
        return time_ns + self.rack_skews[node // self.config.per_rack]

    def _crash(self) -> None:
        raise RuntimeError(f"injected fleet crash (shard {self.shard})")

    # -- workload ----------------------------------------------------------

    def _tick(self, node: int, tick: int) -> None:
        config = self.config
        now = self.engine.now
        if tick + 1 < config.ticks:
            self.engine.schedule_at(now + TICK_NS, self._tick, node, tick + 1)
        self.engine.schedule_at(now + LOCAL_NS, self._poll, node, 1)
        # Staggered probe cadence: the per-tick probe map stays injective
        # (a subset of a permutation), so no receiver ever sees two
        # probes at one timestamp.
        if (tick + node) % PROBE_EVERY:
            return
        recorded = tick % RECORD_EVERY == 0
        trace_id = tick * config.nodes + node + 1 if recorded else 0
        peer = _probe_peer(node, tick, config)
        self.outbox.send(
            deliver_ns=now + config.wire_ns,
            dst_shard=self._shard_of_node(peer),
            dst_node=peer,
            send_ns=now,
            src_node=node,
            kind=PROBE,
            trace_id=trace_id,
            payload=now,  # echoed back by the reply for RTT measurement
        )
        self.probes_sent += 1
        if recorded:
            self.records[node].append(
                (
                    trace_id,
                    TP_PROBE_TX,
                    self._local_ts(node, now),
                    _packet_len(trace_id),
                    node % 8,
                )
            )

    def _poll(self, node: int, j: int) -> None:
        """The tick's j-th node-local agent poll; each arms the next, so
        a node has one poll pending, not the run's."""
        self.polls += 1
        if j < POLLS_PER_TICK:
            self.engine.schedule_at(
                self.engine.now + LOCAL_NS, self._poll, node, j + 1)

    def _sync_send(self, rack: int) -> None:
        now = self.engine.now
        leader = rack * self.config.per_rack
        self.pending_sync[rack] = now
        self.outbox.send(
            deliver_ns=now + self.config.wire_ns,
            dst_shard=self._shard_of_node(0),
            dst_node=0,
            send_ns=now,
            src_node=leader,
            kind=SYNC_REQ,
        )

    def deliver(self, message: BoundaryMessage) -> None:
        config = self.config
        now = self.engine.now
        kind = message.kind
        if kind == PROBE:
            self.probes_received += 1
            node = message.dst_node
            if message.trace_id:
                self.records[node].append(
                    (
                        message.trace_id,
                        TP_PROBE_RX,
                        self._local_ts(node, now),
                        _packet_len(message.trace_id),
                        node % 8,
                    )
                )
            self.outbox.send(
                deliver_ns=now + config.wire_ns,
                dst_shard=self._shard_of_node(message.src_node),
                dst_node=message.src_node,
                send_ns=now,
                src_node=node,
                kind=REPLY,
                trace_id=message.trace_id,
                payload=message.payload,
            )
        elif kind == REPLY:
            self.replies_received += 1
            node = message.dst_node
            self.rtt_sum += now - message.payload
            self.rtt_count += 1
            if message.trace_id:
                self.records[node].append(
                    (
                        message.trace_id,
                        TP_REPLY_RX,
                        self._local_ts(node, now),
                        _packet_len(message.trace_id),
                        node % 8,
                    )
                )
        elif kind == SYNC_REQ:
            self.sync_requests += 1
            self.outbox.send(
                deliver_ns=now + config.wire_ns,
                dst_shard=self._shard_of_node(message.src_node),
                dst_node=message.src_node,
                send_ns=now,
                src_node=0,
                kind=SYNC_RESP,
                payload=self._local_ts(0, now),  # the master clock reading
            )
        elif kind == SYNC_RESP:
            # Cristian's algorithm; with symmetric wire latency and pure
            # offsets the estimate is *exact* (docs/SHARDING.md).
            rack = message.dst_node // config.per_rack
            t0 = self.pending_sync.pop(rack)
            rtt = now - t0
            self.skew_estimates[rack] = self._local_ts(message.dst_node, now) - (
                message.payload + rtt // 2
            )
        else:  # pragma: no cover - scenario bug
            raise SimulationError(f"unknown boundary message kind {kind}")

    # -- results -----------------------------------------------------------

    def collect(self) -> Dict[str, Any]:
        """Picklable per-shard result: packed record blobs per node,
        recovered skews, and workload counters."""
        pack = _RECORD.pack
        return {
            "shard": self.shard,
            "blobs": {
                node: b"".join(pack(*record) for record in records)
                for node, records in self.records.items()
            },
            "skews": dict(self.skew_estimates),
            "counters": {
                "polls": self.polls,
                "probes_sent": self.probes_sent,
                "probes_received": self.probes_received,
                "replies_received": self.replies_received,
                "sync_requests": self.sync_requests,
                "rtt_sum": self.rtt_sum,
                "rtt_count": self.rtt_count,
            },
        }


def build_fleet_shard(
    config: FleetConfig, shard_index: int, num_shards: int, outbox: BoundaryOutbox
) -> _FleetWorld:
    """Shard-program builder for :class:`ShardCoordinator`; module-level
    so ``functools.partial(build_fleet_shard, config)`` pickles into
    spawned workers."""
    return _FleetWorld(config, shard_index, num_shards, outbox, Engine())


class FleetRunResult(NamedTuple):
    """A fleet run, merged: the TraceDB, the cross-mode fingerprint, and
    the deterministic metrics dict the benchmarks report."""

    db: TraceDB
    digest16: str
    metrics: Dict[str, object]
    skews: Dict[int, int]
    # The drained streaming aggregator over the merge path (every
    # per-shard collector's blobs fanned into one set of tumbling
    # windows); its closed frames are part of the fingerprint.
    streaming: Optional[StreamingAggregator] = None


def merge_fleet_results(
    config: FleetConfig, results: List[Dict[str, Any]]
) -> FleetRunResult:
    """Merge per-shard collect() payloads into one TraceDB via the
    packed-blob path, de-skewing each node with its rack's recovered
    sync estimate, and fingerprint the mode-independent content."""
    blobs: Dict[int, bytes] = {}
    skews: Dict[int, int] = {}
    totals: Dict[str, int] = {}
    for result in results:
        blobs.update(result["blobs"])
        skews.update(result["skews"])
        for key, value in result["counters"].items():
            totals[key] = totals.get(key, 0) + value

    db = TraceDB()
    digest = hashlib.sha256()
    # One streaming aggregator spans the whole merge: it reads the merge
    # database, so every shard's blobs, decoded once by insert_packed,
    # fan into the same tumbling windows.  No collector means no
    # expected nodes: windows only close in close_all(), after every
    # node's whole-run blob is in.
    streaming = StreamingAggregator(
        StreamingConfig(chain=FLEET_CHAIN, window_ns=TICK_NS)
    ).attach(db)
    per_rack = config.per_rack
    for node in sorted(blobs):
        name = f"node-{node:04d}"
        estimate = skews.get(node // per_rack, 0)
        if estimate:
            db.set_clock_skew(name, -estimate)
        db.insert_packed(name, blobs[node], FLEET_LABELS)
        streaming.observe_ingest(name)
        digest.update(struct.pack("<I", node))
        digest.update(blobs[node])
    streaming.close_all()
    for frame in streaming.frames:
        digest.update(canonical_json(frame.as_dict()).encode())
    for rack in sorted(skews):
        digest.update(struct.pack("<iq", rack, skews[rack]))
    for key in sorted(totals):
        digest.update(f"{key}={totals[key]};".encode())

    rtt_avg = totals["rtt_sum"] // totals["rtt_count"] if totals.get("rtt_count") else 0
    metrics: Dict[str, object] = {
        "nodes": config.nodes,
        "racks": config.racks,
        "ticks": config.ticks,
        "rows_inserted": db.rows_inserted,
        "rtt_avg_ns": rtt_avg,
        "skew_racks_recovered": len(skews),
        "stream_windows_closed": streaming.windows_closed,
        "stream_records": streaming.records,
        "digest16": digest.hexdigest()[:16],
    }
    return FleetRunResult(
        db=db,
        digest16=metrics["digest16"],
        metrics=metrics,
        skews=skews,
        streaming=streaming,
    )


def run_macro_fleet(
    config: FleetConfig = FleetConfig(),
    shards: int = 1,
    workers: bool = False,
    mp_start_method: Optional[str] = None,
) -> FleetRunResult:
    """Run the fleet scenario and merge the result.

    ``shards=1`` without workers is the plain single-Engine baseline;
    otherwise a :class:`ShardCoordinator` advances the shard programs
    (``workers=True`` hosts them on multiprocessing workers -- which the
    coordinator downgrades to in-process when ``shards == 1``)."""
    if shards < 1:
        raise SimulationError(f"need at least one shard, got {shards}")
    if shards == 1 and not workers:
        engine = Engine()
        world_cell: List[_FleetWorld] = []
        outbox = InlineOutbox(
            engine, lambda message: world_cell[0].deliver(message), config.lookahead_ns
        )
        world_cell.append(_FleetWorld(config, 0, 1, outbox, engine))
        engine.run(until=config.end_ns)
        results = [world_cell[0].collect()]
        rounds = 0
        boundary = outbox.sent_total
        worker_count = 0
    else:
        coordinator = ShardCoordinator(
            shards,
            functools.partial(build_fleet_shard, config),
            lookahead_ns=config.lookahead_ns,
            workers=workers,
            mp_start_method=mp_start_method,
        )
        run: CoordinatorRun = coordinator.run(config.end_ns)
        results = run.results
        rounds = run.rounds
        boundary = run.boundary_messages
        worker_count = run.workers

    merged = merge_fleet_results(config, results)
    merged.metrics.update(
        {
            "shards": shards,
            "workers": worker_count,
            "rounds": rounds,
            "boundary_messages": boundary,
        }
    )
    return merged


def macro_fleet_digest(ticks: int = 10, shards: int = 4) -> str:
    """16-hex-char digest of a small deterministic run (the
    ScenarioSpec registry's digest hook); the fleet result already
    carries its own order-insensitive digest."""
    result = run_macro_fleet(FleetConfig(ticks=ticks), shards=shards)
    return result.digest16


def _pinned_fleet(shards: int) -> dict:
    """Pinned metrics: 10 ticks."""
    return dict(run_macro_fleet(FleetConfig(ticks=10), shards=shards).metrics)


def pinned_macro_fleet() -> dict:
    return _pinned_fleet(shards=16)


def pinned_macro_fleet_single() -> dict:
    return _pinned_fleet(shards=1)


def pinned_macro_fleet_shards4() -> dict:
    return _pinned_fleet(shards=4)
