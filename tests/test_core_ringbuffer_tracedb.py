"""The kernel ring buffer and the trace database."""

import pytest

from repro.core.records import RECORD_BYTES, TraceRecord
from repro.core.ringbuffer import RingBufferFull, TraceRingBuffer
from repro.core.tracedb import TraceDB
from repro.obs import contract
from repro.obs.registry import MetricsRegistry
from repro.sim.engine import Engine


def _record(trace_id=1, tp=1, ts=100, length=64, cpu=0):
    return TraceRecord(trace_id, tp, ts, length, cpu)


class TestRingBuffer:
    def test_size_bounds_enforced(self, engine):
        with pytest.raises(ValueError):
            TraceRingBuffer(engine, 16, 1000, lambda b: None)
        with pytest.raises(ValueError):
            TraceRingBuffer(engine, 128 * 1024, 1000, lambda b: None)
        TraceRingBuffer(engine, 32, 1000, lambda b: None)

    def test_append_until_full_then_drop(self, engine):
        ring = TraceRingBuffer(engine, 96, 1000, lambda b: None)  # 4 records of 24B
        results = [ring.append(b"x" * RECORD_BYTES) for _ in range(6)]
        assert results == [True, True, True, True, False, False]
        assert ring.total_dropped == 2
        assert ring.used_bytes == 96

    def test_flush_drains_and_resets(self, engine):
        flushed = []
        ring = TraceRingBuffer(engine, 1024, 1000, flushed.extend)
        for i in range(3):
            ring.append(bytes([i]) * RECORD_BYTES)
        assert ring.flush() == 3
        assert len(flushed) == 3
        assert ring.used_bytes == 0
        assert ring.flush() == 0  # empty flush is a no-op

    def test_periodic_flush_timer(self, engine):
        flushed = []
        ring = TraceRingBuffer(engine, 1024, 10_000, flushed.extend)
        ring.start()
        engine.schedule(1_000, lambda: ring.append(b"a" * RECORD_BYTES))
        engine.schedule(15_000, lambda: ring.append(b"b" * RECORD_BYTES))
        engine.run(until=30_000)
        ring.stop()
        assert len(flushed) == 2
        assert ring.flushes >= 2

    def test_stop_cancels_timer(self, engine):
        ring = TraceRingBuffer(engine, 1024, 10_000, lambda b: None)
        ring.start()
        ring.stop()
        engine.run(until=50_000)
        assert ring.flushes == 0

    def test_space_reusable_after_flush(self, engine):
        ring = TraceRingBuffer(engine, 48, 1000, lambda b: None)  # 2 records
        assert ring.append(b"x" * RECORD_BYTES)
        assert ring.append(b"x" * RECORD_BYTES)
        assert not ring.append(b"x" * RECORD_BYTES)
        ring.flush()
        assert ring.append(b"x" * RECORD_BYTES)


class TestStrictMode:
    def test_overflow_raises_and_still_counts(self, engine):
        ring = TraceRingBuffer(engine, 48, 1000, lambda b: None, strict=True)
        assert ring.append(b"x" * RECORD_BYTES)
        assert ring.append(b"x" * RECORD_BYTES)
        with pytest.raises(RingBufferFull):
            ring.append(b"x" * RECORD_BYTES)
        assert ring.total_dropped == 1
        # Buffered records are intact; the ring keeps working.
        assert ring.used_bytes == 2 * RECORD_BYTES
        assert ring.flush() == 2
        assert ring.append(b"x" * RECORD_BYTES)

    def test_default_mode_never_raises(self, engine):
        ring = TraceRingBuffer(engine, 48, 1000, lambda b: None)
        for _ in range(5):
            ring.append(b"x" * RECORD_BYTES)
        assert ring.total_dropped == 3


class TestOversizeRecord:
    def test_record_larger_than_ring_drops_per_attempt(self, engine):
        flushed = []
        ring = TraceRingBuffer(engine, 32, 1000, flushed.extend)
        giant = b"x" * 64  # exceeds capacity_bytes outright
        assert not ring.append(giant)
        assert not ring.append(giant)
        assert ring.total_dropped == 2
        # The ring never wedges: fitting records still flow afterwards.
        assert ring.append(b"y" * RECORD_BYTES)
        assert ring.flush() == 1
        assert flushed == [b"y" * RECORD_BYTES]
        assert not ring.append(giant)
        assert ring.total_dropped == 3

    def test_oversize_raises_in_strict_mode(self, engine):
        ring = TraceRingBuffer(engine, 32, 1000, lambda b: None, strict=True)
        with pytest.raises(RingBufferFull):
            ring.append(b"x" * 64)
        assert ring.total_dropped == 1
        assert ring.append(b"y" * RECORD_BYTES)  # still usable


class TestRingMetrics:
    def test_ring_exports_its_contract_stage(self, engine):
        reg = MetricsRegistry()
        ring = TraceRingBuffer(engine, 48, 1000, lambda b: None,
                               registry=reg, node="n1")
        for _ in range(3):
            ring.append(b"x" * RECORD_BYTES)
        ring.flush()
        assert reg.get(contract.RING_APPENDED.name).value(("n1",)) == 2
        assert reg.get(contract.RING_DROPPED.name).value(("n1",)) == 1
        assert reg.get(contract.RING_FLUSHES.name).value(("n1",)) == 1
        assert reg.get(contract.RING_OCCUPANCY_HWM.name).value(("n1",)) == 48
        batch = reg.get(contract.RING_FLUSH_BATCH.name).data(("n1",))
        assert batch.count == 1
        assert batch.sum == 2

    def test_hwm_survives_flush(self, engine):
        reg = MetricsRegistry()
        ring = TraceRingBuffer(engine, 96, 1000, lambda b: None,
                               registry=reg, node="n1")
        for _ in range(3):
            ring.append(b"x" * RECORD_BYTES)
        ring.flush()
        ring.append(b"x" * RECORD_BYTES)
        hwm = reg.get(contract.RING_OCCUPANCY_HWM.name)
        assert hwm.value(("n1",)) == 3 * RECORD_BYTES


class TestTraceRecord:
    def test_pack_unpack_roundtrip(self):
        record = _record(trace_id=0xDEADBEEF, tp=42, ts=1 << 40, length=1500, cpu=3)
        assert TraceRecord.unpack(record.pack()) == record

    def test_wrong_size_rejected(self):
        with pytest.raises(ValueError):
            TraceRecord.unpack(b"\x00" * 10)


class TestTraceDB:
    def test_insert_and_table_query(self):
        db = TraceDB()
        db.insert("n1", "point-a", _record(ts=10))
        db.insert("n1", "point-a", _record(ts=20))
        db.insert("n1", "point-b", _record(ts=30))
        assert db.count("point-a") == 2
        assert sorted(db.tables()) == ["point-a", "point-b"]
        assert db.rows_inserted == 3

    def test_trace_id_index_ordered_by_time(self):
        db = TraceDB()
        db.insert("n1", "b", _record(trace_id=7, ts=50))
        db.insert("n1", "a", _record(trace_id=7, ts=10))
        rows = db.rows_for_trace(7)
        assert [row.label for row in rows] == ["a", "b"]

    def test_zero_trace_id_not_indexed(self):
        db = TraceDB()
        db.insert("n1", "a", _record(trace_id=0))
        assert db.rows_for_trace(0) == []

    def test_skew_alignment_applied_on_insert(self):
        db = TraceDB()
        db.set_clock_skew("n2", 500)
        row = db.insert("n2", "a", _record(ts=100))
        assert row.timestamp_ns == 600
        assert row.raw_timestamp_ns == 100
        assert db.clock_skew("n2") == 500
        assert db.clock_skew("unknown") == 0

    def test_time_range_query(self):
        db = TraceDB()
        for ts in (10, 20, 30, 40):
            db.insert("n", "a", _record(ts=ts))
        rows = db.time_range("a", start_ns=15, end_ns=35)
        assert [r.timestamp_ns for r in rows] == [20, 30]

    def test_trace_ids_at_dedupes(self):
        db = TraceDB()
        db.insert("n", "a", _record(trace_id=5, ts=10))
        db.insert("n", "a", _record(trace_id=5, ts=99))  # duplicate firing
        first = db.trace_ids_at("a")
        assert first[5].timestamp_ns == 10

    def test_complete_and_incomplete_traces(self):
        db = TraceDB()
        db.insert("n", "a", _record(trace_id=1, ts=1))
        db.insert("n", "b", _record(trace_id=1, ts=2))
        db.insert("n", "a", _record(trace_id=2, ts=3))  # dropped before b
        assert db.complete_traces(["a", "b"]) == [1]
