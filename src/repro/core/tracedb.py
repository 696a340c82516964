"""The trace database (the paper uses InfluxDB; §III-C: "all the
tracing records at different tracepoints are dumped into the trace
database, where records are indexed by their packet IDs").

An in-memory *columnar* time-series store: one table per tracepoint
label, each table a set of parallel ``array`` columns (one machine word
per field instead of one Python object per record).  The collector's
hot path, :meth:`TraceDB.insert_packed`, decodes a whole packed
shipment blob straight into the columns -- no ``TraceRecord`` or
:class:`TraceRow` objects exist on the ingest path.

Query-side indexes are lazy and insert-invalidated:

* per table, a position list sorted by aligned timestamp
  (:meth:`ts_minmax` and the metric kernels reuse it until the next
  insert into that table invalidates it);
* per trace ID, the timestamp-sorted materialized rows
  (:meth:`rows_for_trace`), cached so span reconstruction never re-sorts
  an unchanged trace;
* per table, the aligned timestamp of each trace ID's first row
  (``first_ts``), written at append time in first-occurrence order: the
  latency kernels read it (:meth:`first_ts_at` copies it), completeness
  intersects its key sets (:meth:`complete_traces`), and it is the
  streaming aggregator's one first-occurrence index (the IDs it gained
  since the last fold are the new first occurrences; the hop join
  looks sink IDs up in it);
* per trace ID, every ``(table, position)`` it was stored at, in global
  insertion order (:meth:`trace_ids` order, and how the cold
  :meth:`trace_ids_at` finds a first row).

Every mutation that can change what a consumer would read back --
row inserts (single or packed), shipment dedup bookkeeping, clock-skew
registration -- bumps :attr:`TraceDB.generation`, the monotonic counter
the span layer keys its forest memo cache on (docs/TIMELINES.md):
equal generations guarantee identical assembly output, so a cached
forest may be served; any mutation forces a rebuild.

:class:`TraceRow` views are materialized only at the API boundary, so
existing callers (metrics, span reconstruction, reports) keep their
row-level contract -- including iteration orders, which reproduce the
legacy row-store byte-for-byte (see tests/test_tracedb_columnar.py).
"""

from __future__ import annotations

import struct
from array import array
from typing import Dict, Iterable, List, NamedTuple, Optional, Tuple

from repro.core.records import (
    MAX_TIMESTAMP_NS,
    RECORD_STRUCT,
    MalformedBatchError,
    TraceRecord,
)
from repro.obs import contract as obs_contract
from repro.obs.registry import MetricsRegistry


class TraceRow(NamedTuple):
    """One stored record, enriched with collection metadata."""

    trace_id: int
    tracepoint_id: int
    timestamp_ns: int  # aligned to the master clock when skew is known
    raw_timestamp_ns: int
    packet_len: int
    cpu: int
    node: str
    label: str


class TraceColumns(NamedTuple):
    """Read-only view of one table's columns (for vectorized kernels).

    The arrays are the live storage: treat them as immutable snapshots
    between inserts, never mutate them.
    """

    trace_id: array
    timestamp_ns: array
    packet_len: array
    cpu: array


class _ColumnTable:
    """One tracepoint table: parallel signed-64 columns + its indexes."""

    __slots__ = (
        "label",
        "trace_id",
        "tracepoint_id",
        "timestamp_ns",
        "raw_timestamp_ns",
        "packet_len",
        "cpu",
        "node_idx",
        "first_ts",
        "ts_order",
    )

    def __init__(self, label: str):
        self.label = label
        self.trace_id = array("q")
        self.tracepoint_id = array("q")
        self.timestamp_ns = array("q")  # aligned; skew can push it negative
        self.raw_timestamp_ns = array("q")
        self.packet_len = array("q")
        self.cpu = array("q")
        self.node_idx = array("q")  # index into TraceDB._nodes
        # trace_id -> aligned timestamp of its first (truthy-ID) row, in
        # first-occurrence order -- the legacy trace_ids_at dict order.
        self.first_ts: Dict[int, int] = {}
        # Positions stable-sorted by aligned timestamp; None = stale.
        self.ts_order: Optional[List[int]] = None

    def __len__(self) -> int:
        return len(self.timestamp_ns)

    def append(
        self,
        trace_id: int,
        tracepoint_id: int,
        aligned_ns: int,
        raw_ns: int,
        packet_len: int,
        cpu: int,
        node_idx: int,
    ) -> int:
        pos = len(self.timestamp_ns)
        self.trace_id.append(trace_id)
        self.tracepoint_id.append(tracepoint_id)
        self.timestamp_ns.append(aligned_ns)
        self.raw_timestamp_ns.append(raw_ns)
        self.packet_len.append(packet_len)
        self.cpu.append(cpu)
        self.node_idx.append(node_idx)
        self.ts_order = None  # insert invalidates the sorted index
        if trace_id and trace_id not in self.first_ts:
            self.first_ts[trace_id] = aligned_ns
        return pos

    def bytes_stored(self) -> int:
        return sum(
            len(column) * column.itemsize
            for column in (
                self.trace_id,
                self.tracepoint_id,
                self.timestamp_ns,
                self.raw_timestamp_ns,
                self.packet_len,
                self.cpu,
                self.node_idx,
            )
        )


class TraceDB:
    """Columnar tables keyed by tracepoint label + a trace-ID index."""

    def __init__(
        self,
        table_prefix: str = "vnettracer",
        registry: Optional[MetricsRegistry] = None,
    ):
        self.table_prefix = table_prefix
        self._tables: Dict[str, _ColumnTable] = {}
        self._nodes: List[str] = []
        self._node_ids: Dict[str, int] = {}
        # trace_id -> [(table, position), ...] in global insertion order
        # (truthy IDs only), plus the lazily materialized sorted rows.
        self._trace_refs: Dict[int, List[Tuple[_ColumnTable, int]]] = {}
        self._trace_rows: Dict[int, List[TraceRow]] = {}
        self._skew_ns: Dict[str, int] = {}  # node -> (master - node) offset
        self.rows_inserted = 0
        # Monotonic mutation counter: bumped by every insert (single or
        # packed), every shipment-dedup decision, and every clock-skew
        # registration.  Consumers (SpanAssembler's forest memo cache)
        # treat "same generation" as "assembly output cannot have
        # changed".
        self.generation = 0
        # (node, shipment seq) pairs already ingested -- the dedup index
        # behind at-least-once shipment (docs/FAULTS.md).
        self._seen_batches: set = set()
        self.deduped_batches = 0
        # Observability counters (docs/OBSERVABILITY.md, tracedb stage).
        self.bulk_batches = 0
        self.index_rebuilds = 0
        if registry is not None:
            registry.register_spec(obs_contract.TRACEDB_BYTES).add_callback(
                self._bytes_stored_sample
            )
            registry.register_spec(obs_contract.TRACEDB_INDEX_REBUILDS).add_callback(
                self._index_rebuilds_sample
            )
            registry.register_spec(obs_contract.TRACEDB_BULK_BATCHES).add_callback(
                self._bulk_batches_sample
            )

    # -- clock alignment -----------------------------------------------------

    def set_clock_skew(self, node: str, skew_ns: int) -> None:
        """Record the estimated offset to ADD to ``node`` timestamps to
        express them on the master clock.  Counts as a mutation: device
        spans stamp the current skew at assembly time, so cached forests
        must not survive a skew change.  ``|skew_ns|`` must stay below
        :data:`~repro.core.records.MAX_TIMESTAMP_NS`, so that every
        aligned timestamp fits a signed 64-bit column."""
        skew_ns = int(skew_ns)
        if not -MAX_TIMESTAMP_NS < skew_ns < MAX_TIMESTAMP_NS:
            raise ValueError(f"clock skew {skew_ns} ns of {node!r} is not below 2**62 ns")
        self._skew_ns[node] = skew_ns
        self.generation += 1

    def clock_skew(self, node: str) -> int:
        return self._skew_ns.get(node, 0)

    def clock_offsets(self) -> Dict[str, int]:
        """Every registered per-node alignment offset (a copy) -- the
        corrections the span layer stamps onto device spans."""
        return dict(self._skew_ns)

    # -- ingest ------------------------------------------------------------------

    def _table(self, label: str) -> _ColumnTable:
        table = self._tables.get(label)
        if table is None:
            table = self._tables[label] = _ColumnTable(label)
        return table

    def _node_index(self, node: str) -> int:
        idx = self._node_ids.get(node)
        if idx is None:
            idx = self._node_ids[node] = len(self._nodes)
            self._nodes.append(node)
        return idx

    def _note_trace(self, trace_id: int, table: _ColumnTable, pos: int) -> None:
        self._trace_refs.setdefault(trace_id, []).append((table, pos))
        self._trace_rows.pop(trace_id, None)  # insert invalidates the cache

    def insert(self, node: str, label: str, record: TraceRecord) -> TraceRow:
        """Store one record; a record that does not pack into the wire
        format, or whose timestamp is out of range, raises
        :class:`~repro.core.records.MalformedBatchError` and stores
        nothing."""
        try:
            packed = record.pack()
        except struct.error as exc:
            raise MalformedBatchError(f"trace record {record} does not pack: {exc}") from None
        MalformedBatchError.check(packed)
        aligned = record.timestamp_ns + self._skew_ns.get(node, 0)
        table = self._table(label)
        pos = table.append(
            record.trace_id,
            record.tracepoint_id,
            aligned,
            record.timestamp_ns,
            record.packet_len,
            record.cpu,
            self._node_index(node),
        )
        if record.trace_id:
            self._note_trace(record.trace_id, table, pos)
        self.rows_inserted += 1
        self.generation += 1
        return TraceRow(
            trace_id=record.trace_id,
            tracepoint_id=record.tracepoint_id,
            timestamp_ns=aligned,
            raw_timestamp_ns=record.timestamp_ns,
            packet_len=record.packet_len,
            cpu=record.cpu,
            node=node,
            label=label,
        )

    def insert_packed(
        self, node: str, blob: bytes, labels: Dict[int, str]
    ) -> Tuple[int, int]:
        """Bulk-ingest one packed shipment blob (N x 24-byte records).

        Decodes straight into the columns -- no per-record Python
        objects exist on this path.  ``labels`` maps tracepoint IDs to
        table labels; records with an unregistered ID land in a
        ``tracepoint-<id>`` table and are counted.  Returns
        ``(records_ingested, unknown_tracepoint_records)``; a blob that
        :meth:`~repro.core.records.MalformedBatchError.check` rejects
        raises :class:`~repro.core.records.MalformedBatchError` and
        stores nothing."""
        MalformedBatchError.check(blob)
        skew = self._skew_ns.get(node, 0)
        node_idx = self._node_index(node)
        tables: Dict[int, _ColumnTable] = {}
        unknown_ids: set = set()
        count = 0
        unknown = 0
        for trace_id, tracepoint_id, ts, packet_len, cpu in RECORD_STRUCT.iter_unpack(blob):
            table = tables.get(tracepoint_id)
            if table is None:
                label = labels.get(tracepoint_id)
                if label is None:
                    unknown_ids.add(tracepoint_id)
                    label = f"tracepoint-{tracepoint_id}"
                table = tables[tracepoint_id] = self._table(label)
            if tracepoint_id in unknown_ids:
                unknown += 1
            pos = table.append(
                trace_id, tracepoint_id, ts + skew, ts, packet_len, cpu, node_idx
            )
            if trace_id:
                self._note_trace(trace_id, table, pos)
            count += 1
        self.rows_inserted += count
        self.bulk_batches += 1
        self.generation += 1
        return count, unknown

    def mark_batch(self, node: str, seq: int) -> bool:
        """Record a (node, sequence-number) shipment; returns ``False``
        if that batch was already ingested (a retry duplicate the
        collector must discard).  This is the database side of the
        at-least-once delivery contract: agents may send a batch more
        than once, the DB guarantees it lands at most once."""
        key = (node, seq)
        self.generation += 1  # dedup bookkeeping is a mutation too
        if key in self._seen_batches:
            self.deduped_batches += 1
            return False
        self._seen_batches.add(key)
        return True

    # -- row materialization ------------------------------------------------------

    def _row(self, table: _ColumnTable, pos: int) -> TraceRow:
        return TraceRow(
            trace_id=table.trace_id[pos],
            tracepoint_id=table.tracepoint_id[pos],
            timestamp_ns=table.timestamp_ns[pos],
            raw_timestamp_ns=table.raw_timestamp_ns[pos],
            packet_len=table.packet_len[pos],
            cpu=table.cpu[pos],
            node=self._nodes[table.node_idx[pos]],
            label=table.label,
        )

    def _materialize(self, table: _ColumnTable) -> List[TraceRow]:
        nodes = self._nodes
        label = table.label
        return [
            TraceRow(tid, tp, ts, raw, plen, cpu, nodes[node], label)
            for tid, tp, ts, raw, plen, cpu, node in zip(
                table.trace_id,
                table.tracepoint_id,
                table.timestamp_ns,
                table.raw_timestamp_ns,
                table.packet_len,
                table.cpu,
                table.node_idx,
            )
        ]

    # -- queries ------------------------------------------------------------------

    def tables(self) -> List[str]:
        return list(self._tables)

    def table(self, label: str) -> List[TraceRow]:
        table = self._tables.get(label)
        return [] if table is None else self._materialize(table)

    def columns(self, label: str) -> Optional[TraceColumns]:
        """The columns the vectorized metric kernels iterate; ``None``
        for an unknown label."""
        table = self._tables.get(label)
        if table is None:
            return None
        return TraceColumns(
            table.trace_id, table.timestamp_ns, table.packet_len, table.cpu
        )

    def ts_index(self, label: str) -> List[int]:
        """Row positions of ``label``'s table, stable-sorted by aligned
        timestamp.  Built lazily, cached until the next insert into the
        table, counted in ``index_rebuilds``."""
        table = self._tables.get(label)
        if table is None:
            return []
        if table.ts_order is None:
            column = table.timestamp_ns
            table.ts_order = sorted(range(len(column)), key=column.__getitem__)
            self.index_rebuilds += 1
        return table.ts_order

    def ts_minmax(self, label: str) -> Optional[Tuple[int, int]]:
        """(min, max) aligned timestamp at one tracepoint, via the
        sorted index; ``None`` for an empty or unknown table."""
        order = self.ts_index(label)
        if not order:
            return None
        column = self._tables[label].timestamp_ns
        return column[order[0]], column[order[-1]]

    def rows_for_trace(self, trace_id: int) -> List[TraceRow]:
        cached = self._trace_rows.get(trace_id)
        if cached is None:
            refs = self._trace_refs.get(trace_id)
            if not refs:
                return []
            rows = [self._row(table, pos) for table, pos in refs]
            # Stable sort over insertion order: ties keep arrival order,
            # exactly like the legacy per-call sorted(...).
            rows.sort(key=lambda r: r.timestamp_ns)
            self._trace_rows[trace_id] = cached = rows
        return list(cached)

    def trace_group_rows(
        self,
        trace_ids: Optional[Iterable[int]] = None,
        snapshot: bool = True,
    ) -> List[Tuple[int, List[Tuple[int, int, str, str, int, int]]]]:
        """The span layer's group-by kernel: rows bucketed per trace.

        Returns ``[(trace_id, rows), ...]`` in request order (default:
        every indexed trace in first-seen order), where each ``rows``
        list holds ``(timestamp_ns, seq, node, label, cpu, packet_len)``
        tuples sorted by (aligned timestamp, global insertion order) --
        exactly the order :meth:`rows_for_trace` produces, without
        materializing :class:`TraceRow` objects.  ``seq`` is the row's
        insertion rank within its trace; because it is unique, plain
        tuple sort never compares past it, which makes ``list.sort``
        the stable argsort the assembler needs.

        With ``snapshot`` (the full-forest path) each touched table's
        columns are converted to lists once up front (``array.tolist``
        is a single C pass), so the per-row cost is two list indexes and
        one tuple build; ``snapshot=False`` (single-trace lookups)
        indexes the live arrays directly and never pays the O(table)
        copy.
        """
        if trace_ids is None:
            trace_ids = self._trace_refs.keys()
        nodes = self._nodes
        columns: Dict[str, tuple] = {}
        groups: List[Tuple[int, List[Tuple[int, int, str, str, int, int]]]] = []
        for trace_id in trace_ids:
            refs = self._trace_refs.get(trace_id)
            if not refs:
                groups.append((trace_id, []))
                continue
            rows: List[Tuple[int, int, str, str, int, int]] = []
            append = rows.append
            seq = 0
            for table, pos in refs:
                cols = columns.get(table.label)
                if cols is None:
                    if snapshot:
                        cols = (
                            table.timestamp_ns.tolist(),
                            table.node_idx.tolist(),
                            table.cpu.tolist(),
                            table.packet_len.tolist(),
                        )
                    else:
                        cols = (
                            table.timestamp_ns,
                            table.node_idx,
                            table.cpu,
                            table.packet_len,
                        )
                    columns[table.label] = cols
                append(
                    (
                        cols[0][pos],
                        seq,
                        nodes[cols[1][pos]],
                        table.label,
                        cols[2][pos],
                        cols[3][pos],
                    )
                )
                seq += 1
            rows.sort()
            groups.append((trace_id, rows))
        return groups

    def record_count_for_trace(self, trace_id: int) -> int:
        """How many rows a trace has, without materializing them (the
        span layer's orphan accounting)."""
        refs = self._trace_refs.get(trace_id)
        return 0 if refs is None else len(refs)

    def trace_ids(self) -> List[int]:
        """Every indexed trace ID, in first-seen (insertion) order --
        the deterministic iteration order span reconstruction uses."""
        return list(self._trace_refs)

    def trace_ids_at(self, label: str) -> Dict[int, TraceRow]:
        """First row per trace ID at one tracepoint (dup-safe)."""
        table = self._tables.get(label)
        if table is None:
            return {}
        rows = {}
        for trace_id in table.first_ts:
            pos = next(pos for owner, pos in self._trace_refs[trace_id] if owner is table)
            rows[trace_id] = self._row(table, pos)
        return rows

    def first_ts_at(self, label: str) -> Dict[int, int]:
        """Aligned timestamp of the first row per trace ID at one
        tracepoint, in first-occurrence order -- :meth:`trace_ids_at`
        without materializing rows (the latency kernels only need the
        timestamps).  A copy of the index: the caller owns it."""
        table = self._tables.get(label)
        return {} if table is None else dict(table.first_ts)

    def time_range(
        self, label: str, start_ns: Optional[int] = None, end_ns: Optional[int] = None
    ) -> List[TraceRow]:
        table = self._tables.get(label)
        if table is None:
            return []
        if start_ns is None and end_ns is None:
            return self._materialize(table)
        return [
            self._row(table, pos)
            for pos, ts in enumerate(table.timestamp_ns)
            if (start_ns is None or ts >= start_ns) and (end_ns is None or ts <= end_ns)
        ]

    def count(self, label: str) -> int:
        table = self._tables.get(label)
        return 0 if table is None else len(table)

    # -- data cleaning (§III-C) --------------------------------------------------------

    def complete_traces(self, required_labels: Iterable[str]) -> List[int]:
        """Trace IDs seen at every one of the given tracepoints (the
        rest were dropped packets or ring-buffer overruns), in global
        first-seen order: the intersection of the tables' first-row key
        sets, smallest first.  A table that saw every trace filters
        nothing and is skipped."""
        total = len(self._trace_refs)
        keys = []
        for label in required_labels:
            table = self._tables.get(label)
            if table is None:
                return []
            if len(table.first_ts) < total:
                keys.append(table.first_ts.keys())
        if not keys:
            return list(self._trace_refs)
        keys.sort(key=len)
        complete = keys[0]
        for others in keys[1:]:
            complete = others & complete  # iterates the smaller side
        return list(filter(complete.__contains__, self._trace_refs))

    # -- self-observability ------------------------------------------------------

    def bytes_stored(self) -> int:
        """Bytes held in column storage across every table."""
        return sum(table.bytes_stored() for table in self._tables.values())

    def _bytes_stored_sample(self) -> float:
        return float(self.bytes_stored())

    def _index_rebuilds_sample(self) -> float:
        return float(self.index_rebuilds)

    def _bulk_batches_sample(self) -> float:
        return float(self.bulk_batches)

    def __repr__(self) -> str:
        sizes = {label: len(table) for label, table in self._tables.items()}
        return f"<TraceDB {self.table_prefix!r} tables={sizes}>"
