"""The raw data collector (master node, §III-A/C).

Receives packed record blobs from agents and bulk-decodes them into the
:class:`~repro.core.tracedb.TraceDB`, which resolves tracepoint IDs to
labels.  Per-node clock-skew alignment is *delegated to the database*:
:meth:`TraceDB.insert_packed` aligns each timestamp using the per-node
offsets registered via :meth:`TraceDB.set_clock_skew` (fed by
:mod:`repro.core.clocksync`) and stores both the raw and aligned
values.  Records ingested *before* a node's skew estimate lands keep a
zero offset -- deploy tracing after synchronization (as the quickstart
does) for aligned cross-node latencies.  Because agents report
periodically, the collector doubles as a heartbeat monitor "to
guarantee that the agents work properly".

Shipment is *at-least-once* (docs/FAULTS.md): agents stamp each batch
with a per-node sequence number and retransmit until acked, so the
collector may see duplicates and out-of-order arrivals.  Duplicates
are discarded via :meth:`TraceDB.mark_batch`; fresh batches are held
in a per-node resequencer and applied strictly in sequence order, so
the database ends up with exactly the rows -- in exactly the
per-node order -- a fault-free run would produce.  When an agent
abandons a batch (retry budget exhausted, or it crashed with the
batch unsent) it posts a :meth:`skip_shipment` gap notice so the
resequencer never wedges behind a hole.

All liveness bookkeeping runs on the *simulation clock* (``engine.now``,
master time): registration, heartbeats, and online batch arrivals each
stamp the current virtual time.  Offline collection (the master pulling
an agent's local store at the end of a run) is *not* a liveness signal
-- the agent did not report, the master reached out -- so it never
refreshes the heartbeat stamp; an agent that went silent mid-run stays
stale through final collection.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple, TYPE_CHECKING

from repro.core.records import MalformedBatchError
from repro.core.reports import CollectReport
from repro.core.tracedb import TraceDB
from repro.faults.metrics import FaultMetrics
from repro.obs import contract as obs_contract
from repro.obs.registry import MetricsRegistry
from repro.sim.engine import Engine

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.agent import Agent
    from repro.tracing.reconstruct import SpanAssembler


class RawDataCollector:
    """Batch ingest + heartbeat monitoring."""

    def __init__(
        self,
        engine: Engine,
        db: Optional[TraceDB] = None,
        registry: Optional[MetricsRegistry] = None,
    ):
        self.engine = engine
        registry = registry if registry is not None else MetricsRegistry()
        self.db = db if db is not None else TraceDB(registry=registry)
        self.registry = registry
        self.agents: Dict[str, "Agent"] = {}
        self._labels: Dict[int, str] = {}  # tracepoint_id -> label
        self._last_heartbeat_ns: Dict[str, int] = {}
        self.batches_received = 0
        self.records_received = 0
        self.unknown_tracepoint_records = 0
        # (arrival_ns, node, records) per ingested batch, for the
        # control-plane track of the span timeline.
        self.batch_log: List[Tuple[int, str, int]] = []
        # At-least-once resequencing state, per node: the next sequence
        # number to apply, batches held for an earlier gap, and seqs the
        # agent told us will never arrive (docs/FAULTS.md).
        self._next_seq: Dict[str, int] = {}
        self._held: Dict[str, Dict[int, bytes]] = {}
        self._skipped: Dict[str, set] = {}
        self.fault_metrics = FaultMetrics(registry)
        # Optional streaming tap (docs/STREAMING.md), fed from _apply so
        # it sits downstream of the dedup/resequencing pipeline.
        self._streaming = None

        self._m_batches = registry.register_spec(obs_contract.COLLECTOR_BATCHES)
        self._m_records = registry.register_spec(obs_contract.COLLECTOR_RECORDS)
        self._m_unknown = registry.register_spec(obs_contract.COLLECTOR_UNKNOWN)
        staleness = registry.register_spec(obs_contract.COLLECTOR_HEARTBEAT_STALENESS)
        staleness.add_callback(self._staleness_samples)
        # The ingest-rate gauge is set by the StatsSampler (it owns
        # the sampling window); registering it here keeps the whole
        # collector stage present even before a sampler attaches.
        registry.register_spec(obs_contract.COLLECTOR_INGEST_RATE)

    # -- registration ---------------------------------------------------------

    def register_agent(self, agent: "Agent") -> None:
        self.agents[agent.node.name] = agent
        self._last_heartbeat_ns[agent.node.name] = self.engine.now

    def register_labels(self, labels: Dict[int, str]) -> None:
        """Tracepoint-id -> label mapping from the deployed spec."""
        self._labels.update(labels)

    def set_streaming_tap(self, tap) -> None:
        """Subscribe a streaming aggregator to applied batches and gap
        notices.  The tap observes each batch right after the database
        insert, so it sees exactly the deduplicated, in-sequence record
        stream the TraceDB stores (docs/STREAMING.md)."""
        if self._streaming is not None and self._streaming is not tap:
            raise ValueError("collector already has a streaming tap")
        self._streaming = tap

    # -- ingest -----------------------------------------------------------------

    def receive_batch(
        self,
        node: str,
        blob: bytes,
        liveness: bool = True,
        seq: Optional[int] = None,
    ) -> bool:
        """Ingest one packed shipment blob (N x 24-byte records,
        bulk-decoded by ``TraceDB.insert_packed``); timestamps are
        aligned by the database using the node's registered skew offset
        (see the module docstring).  A blob that is not bytes-like, not
        a whole number of records or holding an out-of-range timestamp
        raises :class:`~repro.core.records.MalformedBatchError` before
        any state changes, so a well-formed retransmission of the same
        ``seq`` still applies.

        ``liveness`` controls whether the batch refreshes the node's
        heartbeat stamp: online shipments do (the agent reported on its
        own), offline pulls must pass ``False`` (the master collected; a
        dead agent's buffered records arriving must not mark it alive).

        ``seq`` is the agent's per-node shipment sequence number; when
        given, the batch is deduplicated against the database and held
        until every earlier sequence has been applied or skipped (the
        at-least-once path).  Without it the batch applies immediately.
        Returns ``False`` only for a discarded duplicate."""
        MalformedBatchError.check(blob)
        if liveness:
            self._last_heartbeat_ns[node] = self.engine.now
        if seq is None:
            self._apply(node, blob)
            return True
        if not self.db.mark_batch(node, seq):
            self.fault_metrics.shipment_deduped(node)
            return False
        self._held.setdefault(node, {})[seq] = blob
        self._drain(node)
        return True

    def skip_shipment(self, node: str, seq: int) -> None:
        """Gap notice: batch ``seq`` from ``node`` will never arrive
        (retry budget exhausted or the agent crashed).  Later batches
        held behind the gap are released."""
        if not self.db.mark_batch(node, seq):
            return  # it actually arrived earlier; nothing to skip
        self._skipped.setdefault(node, set()).add(seq)
        if self._streaming is not None:
            self._streaming.observe_gap(node, seq)
        self._drain(node)

    def _drain(self, node: str) -> None:
        """Apply held batches in strict sequence order."""
        held = self._held.get(node, {})
        skipped = self._skipped.get(node, set())
        nxt = self._next_seq.get(node, 1)
        while True:
            if nxt in held:
                self._apply(node, held.pop(nxt))
            elif nxt in skipped:
                skipped.discard(nxt)
            else:
                break
            nxt += 1
        self._next_seq[node] = nxt

    def _apply(self, node: str, blob: bytes) -> None:
        self.batches_received += 1
        self._m_batches.inc()
        count, unknown = self.db.insert_packed(node, blob, self._labels)
        self.records_received += count
        self.unknown_tracepoint_records += unknown
        if unknown:
            self._m_unknown.inc(unknown)
        self._m_records.inc(count)
        self.batch_log.append((self.engine.now, node, count))
        if self._streaming is not None:
            self._streaming.observe_ingest(node)

    def pending_batches(self, node: str) -> int:
        """Batches held by the resequencer waiting for an earlier seq."""
        return len(self._held.get(node, {}))

    def collect_all_offline(self) -> CollectReport:
        """Pull every agent's local store (offline collection mode).

        Crashed agents cannot serve the pull and are listed in the
        report's ``skipped_nodes``."""
        report = CollectReport()
        deduped_before = self.db.deduped_batches
        for name, agent in self.agents.items():
            if getattr(agent, "crashed", False):
                report.skipped_nodes.append(name)
                continue
            pulled = agent.collect_local()
            if pulled:
                report.records += pulled
                report.batches += 1
                report.records_by_node[name] = pulled
        report.deduped_batches = self.db.deduped_batches - deduped_before
        return report

    # -- heartbeat monitoring --------------------------------------------------------

    def heartbeat(self, node: str) -> None:
        self._last_heartbeat_ns[node] = self.engine.now

    def stale_agents(self, max_age_ns: int) -> List[str]:
        """Agents that have not reported within ``max_age_ns``.

        The boundary is exclusive: an agent whose last report is exactly
        ``max_age_ns`` old is still considered healthy."""
        now = self.engine.now
        return [
            node
            for node, last in self._last_heartbeat_ns.items()
            if now - last > max_age_ns
        ]

    # -- span feed -------------------------------------------------------------

    def span_feed(self) -> "SpanAssembler":
        """A span assembler over this collector's database, exporting
        into the same metrics registry (``docs/TIMELINES.md``)."""
        from repro.tracing.reconstruct import SpanAssembler

        return SpanAssembler(self.db, registry=self.registry)

    def _staleness_samples(self) -> Dict[Tuple[str], float]:
        """Pull source for ``vnt_collector_heartbeat_staleness_ns``."""
        now = self.engine.now
        return {
            (node,): float(now - last)
            for node, last in self._last_heartbeat_ns.items()
        }

    def __repr__(self) -> str:
        return (
            f"<RawDataCollector records={self.records_received} "
            f"agents={sorted(self.agents)}>"
        )
