"""Differential equivalence suite for the columnar TraceDB (PR 5).

The trace store was rewritten from per-row ``TraceRow`` lists to
per-column arrays, the agents now ship packed blobs end-to-end, and the
metric kernels iterate columns instead of rows.  Nothing externally
visible may change: every query result, metric value, decomposition
table, and exported timeline must be identical to what the legacy row
store produced.

``LegacyTraceDB`` below is a verbatim port of the pre-columnar
implementation (plus the ``record_count_for_trace`` accessor the span
layer now uses), and the ``legacy_*`` kernels are the pre-columnar
metric functions.  ``ShadowDB`` subclasses the real columnar store and
mirrors every mutation into a legacy twin, so monkeypatching it into
``repro.core.vnettracer`` runs full scenarios -- quickstart, OVS
congestion, fault-injected collection -- against both stores at once.

The hypothesis tests at the bottom drive interleaved
insert / bulk-ingest / query / dedup sequences: queries force the lazy
sorted indexes to build, the next insert must invalidate them, and the
stores must agree at every step.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.core.vnettracer as vnettracer_module
from repro.core import metrics
from repro.core.records import RECORD_STRUCT, TraceRecord
from repro.core.tracedb import TraceDB, TraceRow
from repro.tracing.export import chrome_trace_json, otlp_json
from repro.tracing.reconstruct import SpanAssembler
from repro.workloads.stats import LatencySummary, summarize_latencies
from tests.conftest import pack
from tests.span_reference import reference_chrome_json, reference_forest, reference_otlp_json

# ---------------------------------------------------------------------------
# The legacy row store, ported verbatim from the pre-columnar tracedb.py.
# ---------------------------------------------------------------------------


class LegacyTraceDB:
    """Row-list TraceDB as it existed before the columnar rewrite."""

    def __init__(self, table_prefix: str = "vnettracer"):
        self.table_prefix = table_prefix
        self._tables: Dict[str, List[TraceRow]] = {}
        self._by_trace_id: Dict[int, List[TraceRow]] = {}
        self._skew_ns: Dict[str, int] = {}
        self.rows_inserted = 0
        self._seen_batches: set = set()
        self.deduped_batches = 0

    def set_clock_skew(self, node: str, skew_ns: int) -> None:
        self._skew_ns[node] = int(skew_ns)

    def clock_skew(self, node: str) -> int:
        return self._skew_ns.get(node, 0)

    def clock_offsets(self) -> Dict[str, int]:
        return dict(self._skew_ns)

    def insert(self, node: str, label: str, record: TraceRecord) -> TraceRow:
        aligned = record.timestamp_ns + self._skew_ns.get(node, 0)
        row = TraceRow(
            trace_id=record.trace_id,
            tracepoint_id=record.tracepoint_id,
            timestamp_ns=aligned,
            raw_timestamp_ns=record.timestamp_ns,
            packet_len=record.packet_len,
            cpu=record.cpu,
            node=node,
            label=label,
        )
        self._tables.setdefault(label, []).append(row)
        if record.trace_id:
            self._by_trace_id.setdefault(record.trace_id, []).append(row)
        self.rows_inserted += 1
        return row

    def mark_batch(self, node: str, seq: int) -> bool:
        key = (node, seq)
        if key in self._seen_batches:
            self.deduped_batches += 1
            return False
        self._seen_batches.add(key)
        return True

    def tables(self) -> List[str]:
        return list(self._tables)

    def table(self, label: str) -> List[TraceRow]:
        return list(self._tables.get(label, []))

    def rows_for_trace(self, trace_id: int) -> List[TraceRow]:
        return sorted(self._by_trace_id.get(trace_id, []), key=lambda r: r.timestamp_ns)

    def record_count_for_trace(self, trace_id: int) -> int:
        return len(self._by_trace_id.get(trace_id, []))

    def trace_ids(self) -> List[int]:
        return list(self._by_trace_id)

    def trace_ids_at(self, label: str) -> Dict[int, TraceRow]:
        result: Dict[int, TraceRow] = {}
        for row in self._tables.get(label, []):
            if row.trace_id and row.trace_id not in result:
                result[row.trace_id] = row
        return result

    def time_range(
        self, label: str, start_ns: Optional[int] = None, end_ns: Optional[int] = None
    ) -> List[TraceRow]:
        rows = self._tables.get(label, [])
        return [
            row
            for row in rows
            if (start_ns is None or row.timestamp_ns >= start_ns)
            and (end_ns is None or row.timestamp_ns <= end_ns)
        ]

    def count(self, label: str) -> int:
        return len(self._tables.get(label, []))

    def complete_traces(self, required_labels: Iterable[str]) -> List[int]:
        required = list(required_labels)
        complete = []
        for trace_id, rows in self._by_trace_id.items():
            seen = {row.label for row in rows}
            if all(label in seen for label in required):
                complete.append(trace_id)
        return complete


# ---------------------------------------------------------------------------
# The legacy metric kernels, ported verbatim from the pre-columnar
# metrics.py (they iterate materialized rows, not columns).
# ---------------------------------------------------------------------------


def legacy_throughput_at(
    db,
    label: str,
    subtract_id_bytes: bool = True,
    start_ns: Optional[int] = None,
    end_ns: Optional[int] = None,
) -> metrics.ThroughputResult:
    rows = db.time_range(label, start_ns, end_ns)
    if len(rows) < 2:
        return metrics.ThroughputResult(0.0, len(rows), 0, 0)
    rows = sorted(rows, key=lambda r: r.timestamp_ns)
    overhead = metrics.TRACE_ID_BYTES if subtract_id_bytes else 0
    payload = sum(max(0, row.packet_len - overhead) for row in rows)
    window = rows[-1].timestamp_ns - rows[0].timestamp_ns
    if window <= 0:
        return metrics.ThroughputResult(0.0, len(rows), payload, 0)
    return metrics.ThroughputResult(payload * 8 * 1e9 / window, len(rows), payload, window)


def legacy_latency_between(db, from_label: str, to_label: str) -> List[int]:
    first = db.trace_ids_at(from_label)
    second = db.trace_ids_at(to_label)
    latencies = []
    for trace_id, row_a in first.items():
        row_b = second.get(trace_id)
        if row_b is not None:
            latencies.append(row_b.timestamp_ns - row_a.timestamp_ns)
    return latencies


def legacy_latency_pairs(db, from_label: str, to_label: str) -> List[tuple]:
    first = db.trace_ids_at(from_label)
    second = db.trace_ids_at(to_label)
    pairs = []
    for trace_id, row_a in first.items():
        row_b = second.get(trace_id)
        if row_b is not None:
            pairs.append((row_a.timestamp_ns, row_b.timestamp_ns - row_a.timestamp_ns))
    pairs.sort()
    return pairs


def legacy_decompose_latency(db, chain: Sequence[str]) -> List[metrics.SegmentLatency]:
    if len(chain) < 2:
        raise ValueError("decomposition needs at least two tracepoints")
    complete_ids = set(db.complete_traces(chain))
    per_label: Dict[str, Dict[int, int]] = {
        label: {
            trace_id: row.timestamp_ns
            for trace_id, row in db.trace_ids_at(label).items()
            if trace_id in complete_ids
        }
        for label in chain
    }
    segments = []
    for from_label, to_label in zip(chain, chain[1:]):
        latencies = [
            per_label[to_label][trace_id] - per_label[from_label][trace_id]
            for trace_id in sorted(
                per_label[from_label].keys() & per_label[to_label].keys(),
                key=lambda t: per_label[from_label][t],
            )
        ]
        segments.append(metrics.SegmentLatency(from_label, to_label, latencies))
    return segments


def legacy_per_cpu_distribution(db, label: str) -> Dict[int, float]:
    rows = db.table(label)
    if not rows:
        return {}
    counts: Dict[int, int] = {}
    for row in rows:
        counts[row.cpu] = counts.get(row.cpu, 0) + 1
    total = len(rows)
    return {cpu: count / total for cpu, count in sorted(counts.items())}


def legacy_event_rate(db, label: str) -> float:
    rows = sorted(db.table(label), key=lambda r: r.timestamp_ns)
    if len(rows) < 2:
        return 0.0
    window = rows[-1].timestamp_ns - rows[0].timestamp_ns
    if window <= 0:
        return 0.0
    return (len(rows) - 1) * 1e9 / window


def legacy_packet_loss(db, from_label: str, to_label: str) -> metrics.LossResult:
    sent = db.count(from_label)
    received = db.count(to_label)
    lost = max(0, sent - received)
    rate = lost / sent if sent else 0.0
    return metrics.LossResult(sent, received, lost, rate)


# ---------------------------------------------------------------------------
# ShadowDB: the columnar store with a legacy twin riding along.
# ---------------------------------------------------------------------------


class ShadowDB(TraceDB):
    """Columnar TraceDB that mirrors every mutation into a legacy twin."""

    def __init__(self, table_prefix: str = "vnettracer", registry=None):
        super().__init__(table_prefix=table_prefix, registry=registry)
        self.legacy = LegacyTraceDB(table_prefix)

    def set_clock_skew(self, node: str, skew_ns: int) -> None:
        super().set_clock_skew(node, skew_ns)
        self.legacy.set_clock_skew(node, skew_ns)

    def insert(self, node: str, label: str, record: TraceRecord) -> TraceRow:
        self.legacy.insert(node, label, record)
        return super().insert(node, label, record)

    def insert_packed(self, node: str, blob, labels: Dict[int, str]):
        for fields in RECORD_STRUCT.iter_unpack(bytes(blob)):
            record = TraceRecord(*fields)
            label = labels.get(record.tracepoint_id)
            if label is None:
                label = f"tracepoint-{record.tracepoint_id}"
            self.legacy.insert(node, label, record)
        return super().insert_packed(node, blob, labels)

    def mark_batch(self, node: str, seq: int) -> bool:
        self.legacy.mark_batch(node, seq)
        return super().mark_batch(node, seq)


def assert_db_equivalent(db: TraceDB, legacy: LegacyTraceDB) -> None:
    """Every query surface of the columnar store matches the row store,
    including iteration order (the determinism contract)."""
    assert db.rows_inserted == legacy.rows_inserted
    assert db.deduped_batches == legacy.deduped_batches
    assert db.tables() == legacy.tables()
    assert db.trace_ids() == legacy.trace_ids()
    assert db.clock_offsets() == legacy.clock_offsets()
    for label in legacy.tables():
        assert db.count(label) == legacy.count(label)
        assert db.table(label) == legacy.table(label)
        first_new = db.trace_ids_at(label)
        first_old = legacy.trace_ids_at(label)
        assert list(first_new) == list(first_old)  # insertion order matters
        assert first_new == first_old
        assert db.first_ts_at(label) == {
            trace_id: row.timestamp_ns for trace_id, row in first_old.items()
        }
        assert list(db.first_ts_at(label)) == list(first_old)  # first-seen order
        rows = legacy.table(label)
        assert db.time_range(label) == legacy.time_range(label)
        if rows:
            timestamps = sorted(row.timestamp_ns for row in rows)
            mid = timestamps[len(timestamps) // 2]
            assert db.time_range(label, start_ns=mid) == legacy.time_range(label, start_ns=mid)
            assert db.time_range(label, end_ns=mid) == legacy.time_range(label, end_ns=mid)
            assert db.time_range(label, timestamps[0], mid) == legacy.time_range(
                label, timestamps[0], mid
            )
            assert db.ts_minmax(label) == (timestamps[0], timestamps[-1])
            # The lazy sorted index really is a sort of the column.
            column = db.columns(label).timestamp_ns
            assert [column[i] for i in db.ts_index(label)] == timestamps
    for trace_id in legacy.trace_ids():
        assert db.rows_for_trace(trace_id) == legacy.rows_for_trace(trace_id)
        assert db.record_count_for_trace(trace_id) == legacy.record_count_for_trace(trace_id)
    labels = legacy.tables()
    # Every contiguous sub-chain (the empty one asks for every trace),
    # and chains naming a label no row was stored at.
    for low in range(len(labels) + 1):
        for high in range(low, len(labels) + 1):
            chain = labels[low:high]
            assert db.complete_traces(chain) == legacy.complete_traces(chain)
    for chain in (["absent"], labels + ["absent"]):
        assert db.complete_traces(chain) == legacy.complete_traces(chain) == []


def assert_metrics_equivalent(db: TraceDB, legacy: LegacyTraceDB) -> None:
    """The columnar kernels on the columnar store produce exactly what
    the row kernels produced on the row store."""
    labels = legacy.tables()
    for label in labels:
        assert metrics.throughput_at(db, label) == legacy_throughput_at(legacy, label)
        assert metrics.throughput_at(db, label, subtract_id_bytes=False) == legacy_throughput_at(
            legacy, label, subtract_id_bytes=False
        )
        rows = legacy.table(label)
        if rows:
            mid = sorted(row.timestamp_ns for row in rows)[len(rows) // 2]
            assert metrics.throughput_at(db, label, start_ns=mid) == legacy_throughput_at(
                legacy, label, start_ns=mid
            )
            assert metrics.throughput_at(db, label, end_ns=mid) == legacy_throughput_at(
                legacy, label, end_ns=mid
            )
        assert metrics.event_rate(db, label) == legacy_event_rate(legacy, label)
        assert metrics.per_cpu_distribution(db, label) == legacy_per_cpu_distribution(
            legacy, label
        )
    for from_label, to_label in zip(labels, labels[1:]):
        assert metrics.latency_between(db, from_label, to_label) == legacy_latency_between(
            legacy, from_label, to_label
        )
        assert metrics.latency_pairs(db, from_label, to_label) == legacy_latency_pairs(
            legacy, from_label, to_label
        )
        assert metrics.packet_loss(db, from_label, to_label) == legacy_packet_loss(
            legacy, from_label, to_label
        )
    if len(labels) >= 2:
        assert metrics.decompose_latency(db, labels) == legacy_decompose_latency(legacy, labels)


def assert_exports_equivalent(db: TraceDB, legacy: LegacyTraceDB, chain: Sequence[str]) -> None:
    """Decomposition segments are equal, exported timelines byte-identical."""
    assert metrics.decompose_latency(db, chain) == legacy_decompose_latency(legacy, chain)
    forest_new = SpanAssembler(db).forest(chain=chain)
    forest_old = reference_forest(legacy, chain=chain)
    assert chrome_trace_json(forest_new) == reference_chrome_json(forest_old)
    assert otlp_json(forest_new) == reference_otlp_json(forest_old)


@pytest.fixture
def shadow_instances(monkeypatch):
    """Swap the TraceDB every VNetTracer builds for a ShadowDB and hand
    the test the list of created instances."""
    created: List[ShadowDB] = []

    def factory(*args, **kwargs):
        db = ShadowDB(*args, **kwargs)
        created.append(db)
        return db

    monkeypatch.setattr(vnettracer_module, "TraceDB", factory)
    return created


# ---------------------------------------------------------------------------
# Scenario-level differentials: real end-to-end runs through the
# packed-blob shipment path, compared store-for-store.
# ---------------------------------------------------------------------------


class TestScenarioEquivalence:
    def test_quickstart_scenario(self, shadow_instances):
        from repro.obs.scenario import QUICKSTART_CHAIN, run_quickstart_scenario

        run_quickstart_scenario(seed=42, duration_ns=250_000_000)
        dbs = [db for db in shadow_instances if db.rows_inserted]
        assert dbs, "quickstart scenario stored no trace records"
        for db in dbs:
            assert db.bulk_batches > 0  # blobs really took the packed path
            assert_db_equivalent(db, db.legacy)
            assert_metrics_equivalent(db, db.legacy)
        assert_exports_equivalent(dbs[0], dbs[0].legacy, QUICKSTART_CHAIN)

    def test_ovs_congestion_case(self, shadow_instances):
        from repro.experiments.ovs_case import run_case

        run_case("I", duration_ns=100_000_000, trace=True)
        dbs = [db for db in shadow_instances if db.rows_inserted]
        assert dbs, "OVS case stored no trace records"
        for db in dbs:
            assert_db_equivalent(db, db.legacy)
            assert_metrics_equivalent(db, db.legacy)

    def test_fault_injected_collection(self, shadow_instances):
        from repro.experiments.fault_case import run_fault_case
        from repro.faults.plan import ChannelFaults, FaultPlan

        plan = FaultPlan(seed=5, shipment=ChannelFaults(loss_prob=0.2, dup_prob=0.3))
        run_fault_case(seed=7, plan=plan, packets=80)
        dbs = [db for db in shadow_instances if db.rows_inserted]
        assert dbs, "fault case stored no trace records"
        deduped = sum(db.deduped_batches for db in dbs)
        assert deduped > 0, "fault plan produced no duplicate shipments to dedup"
        for db in dbs:
            assert_db_equivalent(db, db.legacy)
            assert_metrics_equivalent(db, db.legacy)


# ---------------------------------------------------------------------------
# Direct API differentials (no scenario machinery).
# ---------------------------------------------------------------------------

_LABELS = {0: "send", 1: "nic-out", 2: "nic-in", 3: "deliver"}


class TestDirectEquivalence:
    def test_unknown_tracepoints_land_in_fallback_tables(self):
        db = ShadowDB()
        records = [
            TraceRecord(trace_id=1, tracepoint_id=0, timestamp_ns=10, packet_len=100, cpu=0),
            TraceRecord(trace_id=1, tracepoint_id=9, timestamp_ns=20, packet_len=100, cpu=1),
            TraceRecord(trace_id=0, tracepoint_id=9, timestamp_ns=30, packet_len=64, cpu=1),
        ]
        count, unknown = db.insert_packed("tx", pack(records), _LABELS)
        assert (count, unknown) == (3, 2)
        assert db.tables() == ["send", "tracepoint-9"]
        assert_db_equivalent(db, db.legacy)

    def test_negative_skew_alignment(self):
        db = ShadowDB()
        db.set_clock_skew("rx", -1_500_000)
        db.insert_packed(
            "rx",
            pack([TraceRecord(7, 2, 2_000_000, 128, 0)]),
            _LABELS,
        )
        row = db.table("nic-in")[0]
        assert row.timestamp_ns == 500_000 and row.raw_timestamp_ns == 2_000_000
        assert_db_equivalent(db, db.legacy)

    def test_dedup_counters_stay_in_sync(self):
        db = ShadowDB()
        assert db.mark_batch("tx", 1) is True
        assert db.mark_batch("tx", 1) is False
        assert db.mark_batch("rx", 1) is True
        assert db.deduped_batches == db.legacy.deduped_batches == 1

    def test_index_rebuilds_only_after_invalidation(self):
        db = ShadowDB()
        db.insert_packed("tx", pack([TraceRecord(1, 0, 30, 100, 0)]), _LABELS)
        db.insert_packed("tx", pack([TraceRecord(2, 0, 10, 100, 0)]), _LABELS)
        assert db.index_rebuilds == 0
        first = db.ts_index("send")
        assert db.index_rebuilds == 1
        assert db.ts_index("send") is first  # cached: no rebuild on re-query
        assert db.index_rebuilds == 1
        db.insert_packed("tx", pack([TraceRecord(3, 0, 20, 100, 0)]), _LABELS)
        rebuilt = db.ts_index("send")
        assert db.index_rebuilds == 2
        column = db.columns("send").timestamp_ns
        assert [column[i] for i in rebuilt] == [10, 20, 30]
        assert_db_equivalent(db, db.legacy)

    def test_rows_for_trace_cache_invalidation(self):
        db = ShadowDB()
        db.insert("tx", "send", TraceRecord(5, 0, 100, 64, 0))
        assert [row.timestamp_ns for row in db.rows_for_trace(5)] == [100]
        db.insert("rx", "nic-in", TraceRecord(5, 2, 50, 64, 1))
        # The cached per-trace view must be invalidated by the insert.
        assert [row.timestamp_ns for row in db.rows_for_trace(5)] == [50, 100]
        assert_db_equivalent(db, db.legacy)

    def test_timestamp_ties_keep_insertion_order(self):
        db = ShadowDB()
        db.insert("tx", "send", TraceRecord(9, 0, 100, 10, 0))
        db.insert("rx", "nic-in", TraceRecord(9, 2, 100, 20, 1))
        db.insert("tx", "nic-out", TraceRecord(9, 1, 100, 30, 0))
        rows = db.rows_for_trace(9)
        assert [row.packet_len for row in rows] == [10, 20, 30]  # stable sort
        assert rows == db.legacy.rows_for_trace(9)


# ---------------------------------------------------------------------------
# Property tests: interleaved insert / bulk-ingest / query / dedup.
# ---------------------------------------------------------------------------

_record_st = st.builds(
    TraceRecord,
    trace_id=st.integers(min_value=0, max_value=12),
    tracepoint_id=st.integers(min_value=0, max_value=5),  # 4, 5 are unknown
    timestamp_ns=st.integers(min_value=0, max_value=10**9),
    packet_len=st.integers(min_value=0, max_value=2_000),
    cpu=st.integers(min_value=0, max_value=3),
)

_node_st = st.sampled_from(["tx", "rx"])

_op_st = st.one_of(
    st.tuples(st.just("insert"), _node_st, _record_st),
    st.tuples(
        st.just("packed"), _node_st, st.lists(_record_st, min_size=1, max_size=6)
    ),
    st.tuples(st.just("mark"), _node_st, st.integers(min_value=0, max_value=3)),
    st.tuples(st.just("query"), st.integers(min_value=0, max_value=12), st.just(None)),
)


class TestInterleavedProperties:
    @settings(max_examples=60, deadline=None)
    @given(
        ops=st.lists(_op_st, max_size=30),
        skew=st.integers(min_value=-(10**6), max_value=10**6),
    )
    def test_interleaved_ops_stay_equivalent(self, ops, skew):
        db = ShadowDB()
        db.set_clock_skew("rx", skew)
        for kind, arg_a, arg_b in ops:
            if kind == "insert":
                record = arg_b
                label = _LABELS.get(
                    record.tracepoint_id, f"tracepoint-{record.tracepoint_id}"
                )
                db.insert(arg_a, label, record)
            elif kind == "packed":
                db.insert_packed(arg_a, pack(arg_b), _LABELS)
            elif kind == "mark":
                db.mark_batch(arg_a, arg_b)
                assert db.deduped_batches == db.legacy.deduped_batches
            else:
                # Queries build the lazy indexes mid-stream; later
                # inserts must invalidate them, not serve stale views.
                assert db.rows_for_trace(arg_a) == db.legacy.rows_for_trace(arg_a)
                for label in db.tables():
                    column = db.columns(label).timestamp_ns
                    assert [column[i] for i in db.ts_index(label)] == sorted(column)
        assert_db_equivalent(db, db.legacy)
        assert_metrics_equivalent(db, db.legacy)

    @settings(max_examples=40, deadline=None)
    @given(batches=st.lists(st.lists(_record_st, min_size=1, max_size=5), max_size=8))
    def test_packed_ingest_matches_per_record_insert(self, batches):
        packed = ShadowDB()
        for seq, batch in enumerate(batches):
            if packed.mark_batch("tx", seq):
                packed.insert_packed("tx", pack(batch), _LABELS)
        # The legacy twin ingested record-by-record; the packed path
        # must be indistinguishable from it.
        assert_db_equivalent(packed, packed.legacy)

    @settings(max_examples=40, deadline=None)
    @given(
        records=st.lists(_record_st, min_size=2, max_size=12),
        split=st.integers(min_value=1, max_value=11),
    )
    def test_query_between_batches_sees_all_rows(self, records, split):
        split = min(split, len(records) - 1)
        db = ShadowDB()
        db.insert_packed("tx", pack(records[:split]), _LABELS)
        summaries_before = {
            label: metrics.throughput_at(db, label) for label in db.tables()
        }
        assert summaries_before  # index built, caches warm
        db.insert_packed("rx", pack(records[split:]), _LABELS)
        assert_db_equivalent(db, db.legacy)
        assert_metrics_equivalent(db, db.legacy)


def test_latency_summary_sanity():
    """Anchor: SegmentLatency.summary still summarizes the same list."""
    segment = metrics.SegmentLatency("a", "b", [10, 20, 30])
    assert isinstance(segment.summary(), LatencySummary)
    assert segment.summary() == summarize_latencies([10, 20, 30])
