"""Unit tests for the streaming query layer (docs/STREAMING.md).

Window primitives, the percentile sketch and its shared quantile
estimator, the watermark protocol, and the fault semantics the tap
inherits from the resequencer: duplicates never double-count, late
data within the allowed lateness lands in its proper window, gap
notices surface as ``vnt_stream_late_or_gap_total{kind="gap"}``.
"""

from bisect import bisect_left

import pytest

from repro.core import VNetTracer
from repro.core.collector import RawDataCollector
from repro.core.records import MalformedBatchError, TraceRecord
from repro.core.tracedb import TraceDB
from repro.obs import MetricsRegistry
from repro.obs.registry import MetricError, estimate_quantile
from repro.sim.engine import Engine
from repro.streaming import (
    LATENCY_SKETCH_BUCKETS_NS,
    StreamSketch,
    StreamingAggregator,
    StreamingConfig,
    StreamingError,
    TopKSlowest,
)
from tests.conftest import pack
from tests.streaming_budget import fan_in

LABELS = {0: "send", 1: "recv"}
CHAIN = ("send", "recv")


def _config(**kwargs):
    kwargs.setdefault("chain", CHAIN)
    kwargs.setdefault("window_ns", 100)
    return StreamingConfig(**kwargs)


def _records(label_ts_tid, plen=100):
    """[(tracepoint_id, ts, tid), ...] -> one packed shipment blob."""
    return pack(TraceRecord(tid, tp, ts, plen, 0) for tp, ts, tid in label_ts_tid)


def _on_db(**kwargs):
    """An aggregator attached to a fresh TraceDB (no collector)."""
    db = TraceDB()
    return db, StreamingAggregator(_config(**kwargs)).attach(db)


def _feed(db, agg, node, label_ts_tid):
    """Ingest one blob the one way streaming sees records: the database
    decodes it, then the aggregator folds the rows it appended."""
    db.insert_packed(node, _records(label_ts_tid), LABELS)
    agg.observe_ingest(node)


class TestConfigValidation:
    def test_defaults_validate(self):
        _config().validate()

    @pytest.mark.parametrize(
        "kwargs, message",
        [
            ({"chain": ("send",)}, "at least two"),
            ({"chain": ("send", "send")}, "unique"),
            ({"window_ns": 0}, "window_ns"),
            ({"allowed_lateness_ns": -1}, "lateness"),
            ({"top_k": 0}, "top_k"),
            ({"emit_interval_ns": 0}, "emit_interval_ns"),
            # A bool is an int to Python, a float window yields float
            # window indices, and a NaN window closes nothing.
            ({"window_ns": True}, "window_ns"),
            ({"window_ns": 1.5}, "window_ns"),
            ({"window_ns": float("nan")}, "window_ns"),
            ({"allowed_lateness_ns": False}, "lateness"),
            ({"allowed_lateness_ns": 0.5}, "lateness"),
            ({"allowed_lateness_ns": float("inf")}, "lateness"),
            ({"top_k": True}, "top_k"),
            ({"top_k": 2.0}, "top_k"),
            ({"top_k": float("inf")}, "top_k"),
            ({"emit_interval_ns": True}, "emit_interval_ns"),
            ({"emit_interval_ns": "100"}, "emit_interval_ns"),
            ({"emit_interval_ns": float("nan")}, "emit_interval_ns"),
        ],
    )
    def test_rejects_bad_config(self, kwargs, message):
        with pytest.raises(StreamingError, match=message):
            _config(**kwargs).validate()


def _frame_of(ts, window_ns=100):
    """The one frame a single record at aligned time ``ts`` closes
    (raw timestamps are unsigned; the node's skew takes it below zero)."""
    db, agg = _on_db(window_ns=window_ns)
    db.set_clock_skew("a", ts - 1_000)
    _feed(db, agg, "a", [(0, 1_000, 1)])
    agg.close_all()
    (frame,) = agg.frames
    return frame


class TestWindowIndices:
    """Windows are tumbling: ``index`` is ``ts // window_ns``."""

    def test_tumbling_covers_each_timestamp_once(self):
        assert _frame_of(250).index == 2
        assert _frame_of(0).index == 0
        assert _frame_of(99).index == 0
        assert _frame_of(100).index == 1

    def test_negative_timestamps_floor_divide(self):
        # Clock de-skewing can push aligned timestamps below zero; they
        # must still map to a well-defined window.
        assert _frame_of(-1).index == -1
        assert _frame_of(-100).index == -1
        assert _frame_of(-101).index == -2

    def test_brute_force_agreement(self):
        window = 90
        for ts in range(-200, 200):
            frame = _frame_of(ts, window)
            assert frame.start_ns == frame.index * window, ts
            assert frame.start_ns <= ts < frame.end_ns == frame.start_ns + window, ts


class TestTopKSlowest:
    def test_k_must_be_positive(self):
        with pytest.raises(ValueError, match="k >= 1"):
            TopKSlowest(0)

    def test_under_capacity_never_evicts(self):
        topk = TopKSlowest(3)
        assert topk.push(10, 1) is False
        assert topk.push(30, 2) is False
        assert topk.evictions == 0
        assert topk.items() == [(2, 30), (1, 10)]

    def test_full_heap_keeps_largest_and_counts_evictions(self):
        topk = TopKSlowest(2)
        for latency, tid in ((10, 1), (30, 2), (20, 3), (5, 4)):
            topk.push(latency, tid)
        assert topk.items() == [(2, 30), (3, 20)]
        assert topk.evictions == 2  # the 10 got displaced, the 5 bounced

    def test_equal_latency_smaller_trace_id_wins(self):
        topk = TopKSlowest(1)
        topk.push(50, 7)
        topk.push(50, 3)
        assert topk.items() == [(3, 50)]
        topk2 = TopKSlowest(1)
        topk2.push(50, 3)
        topk2.push(50, 7)
        assert topk2.items() == [(3, 50)]  # arrival order is irrelevant

    def test_extend_matches_per_entry_pushes(self):
        entries = [(lat, -tid) for tid, lat in enumerate(
            (40, 10, 90, 40, 70, 5, 90, 60, 20, 55), start=1)]
        for split in range(len(entries) + 1):
            one = TopKSlowest(4)
            for latency, neg in entries:
                one.push(latency, -neg)
            batched = TopKSlowest(4)
            batched.extend(entries[:split])
            batched.extend(entries[split:])
            assert batched.items() == one.items()
            assert batched.evictions == one.evictions == len(entries) - 4

    def test_extend_lazy_iterable_with_count(self):
        topk = TopKSlowest(2)
        evicted = topk.extend(zip((10, 30, 20), (-1, -2, -3)), 3)
        assert evicted == 1
        assert topk.items() == [(2, 30), (3, 20)]


class TestStreamSketch:
    def test_value_lands_at_or_below_upper_edge(self):
        sketch = StreamSketch((10, 100))
        for value in (1, 10):  # both <= 10: first bucket
            sketch.observe(value)
        sketch.observe(11)  # second bucket
        sketch.observe(101)  # +Inf bucket
        assert sketch.bucket_counts() == (2, 1, 1)
        assert sketch.count == 4

    def test_merge_is_exact_vector_addition(self):
        left, right, joint = StreamSketch(), StreamSketch(), StreamSketch()
        for value in (2_000, 90_000, 2_000_000):
            left.observe(value)
            joint.observe(value)
        for value in (2_500, 500_000_000):
            right.observe(value)
            joint.observe(value)
        left.merge(right)
        assert left.bucket_counts() == joint.bucket_counts()
        assert left.count == joint.count
        # Exactness: quantiles of the merge == quantiles of one sketch
        # fed every value (the run-level merge relies on this).
        for q in (0.0, 0.5, 0.9, 1.0):
            assert left.quantile(q) == joint.quantile(q)

    def test_mismatched_bounds_refuse_to_merge(self):
        with pytest.raises(ValueError, match="different bounds"):
            StreamSketch((10,)).merge(StreamSketch((20,)))

    def test_bounds_must_strictly_increase(self):
        with pytest.raises(ValueError, match="strictly increase"):
            StreamSketch((10, 10))


class TestEstimateQuantile:
    """Satellite: the shared estimator's documented error bound --
    within the width of the bucket holding the true quantile."""

    BOUNDS = LATENCY_SKETCH_BUCKETS_NS

    def test_empty_histogram_is_none(self):
        assert estimate_quantile(self.BOUNDS, [0] * (len(self.BOUNDS) + 1), 0.5) is None

    def test_quantile_out_of_range_rejected(self):
        with pytest.raises(MetricError, match="quantile"):
            estimate_quantile(self.BOUNDS, [1] * (len(self.BOUNDS) + 1), 1.5)

    def test_count_arity_enforced(self):
        with pytest.raises(MetricError, match="bucket counts"):
            estimate_quantile(self.BOUNDS, [1, 2], 0.5)

    def test_inf_bucket_clamps_to_highest_finite_bound(self):
        counts = [0] * len(self.BOUNDS) + [5]
        assert estimate_quantile(self.BOUNDS, counts, 0.99) == float(self.BOUNDS[-1])

    def test_error_bounded_by_bucket_width(self):
        values = [1_500 + 137 * i for i in range(400)]  # spans several buckets
        sketch = StreamSketch(self.BOUNDS)
        for value in values:
            sketch.observe(value)
        ordered = sorted(values)
        for q in (0.01, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99):
            rank = max(0, min(len(ordered) - 1, int(q * len(ordered)) - 1))
            true = ordered[rank]
            i = bisect_left(self.BOUNDS, true)
            lower = self.BOUNDS[i - 1] if i else 0
            width = self.BOUNDS[i] - lower
            estimate = sketch.quantile(q)
            assert abs(estimate - true) <= width, (q, true, estimate)


class TestWatermark:
    def _agg(self, **kwargs):
        db, agg = _on_db(**kwargs)
        agg.expect_nodes(["a", "b"])
        return db, agg

    # Record sets below populate windows [0,100), [100,200), [200,300).
    A = [(0, 10, 1), (0, 150, 2), (0, 260, 3)]
    B = [(1, 30, 1), (1, 170, 2), (1, 280, 3)]

    def test_waits_for_every_expected_node(self):
        db, agg = self._agg()
        _feed(db, agg, "a", self.A)
        assert agg.watermark_ns is None
        assert agg.windows_closed == 0
        _feed(db, agg, "b", self.B)
        assert agg.watermark_ns == 260  # min over nodes, zero lateness
        # Windows [0,100) and [100,200) are closed; [200,300) stays open.
        assert agg.windows_closed == 2
        assert agg.open_windows() == 1

    def test_watermark_is_monotone(self):
        db, agg = self._agg()
        _feed(db, agg, "a", [(0, 260, 1)])
        _feed(db, agg, "b", [(1, 280, 1)])
        assert agg.watermark_ns == 260
        # An older (but not late) record cannot regress the watermark.
        _feed(db, agg, "a", [(0, 250, 2)])
        assert agg.watermark_ns == 260

    def test_late_record_dropped_and_counted(self):
        db, agg = self._agg()
        _feed(db, agg, "a", self.A)
        _feed(db, agg, "b", self.B)
        assert agg.windows_closed == 2
        _feed(db, agg, "a", [(0, 40, 9)])
        assert agg.late_records == 1
        # The drop is total: the closed window's throughput is frozen.
        frame = agg.frames[0]
        assert frame.records == 2  # one send + one recv, not the late one

    def test_allowed_lateness_keeps_windows_open(self):
        prompt_db, prompt = self._agg()
        _feed(prompt_db, prompt, "a", self.A)
        _feed(prompt_db, prompt, "b", self.B)
        # Without lateness ts=155's window [100,200) has already closed...
        _feed(prompt_db, prompt, "a", [(0, 155, 9)])
        assert prompt.late_records == 1

        patient_db, patient = self._agg(allowed_lateness_ns=100)
        _feed(patient_db, patient, "a", self.A)
        _feed(patient_db, patient, "b", self.B)
        assert patient.watermark_ns == 160  # 260 - lateness
        assert patient.windows_closed == 1  # only [0,100) closed
        # ...with 100 ns of allowed lateness it lands in its window.
        _feed(patient_db, patient, "a", [(0, 155, 9)])
        assert patient.late_records == 0
        patient.close_all()
        (window1,) = [f for f in patient.frames if f.index == 1]
        assert window1.throughput["send"]["records"] == 2

    def test_standalone_without_expected_nodes_only_closes_at_end(self):
        db, agg = _on_db()
        _feed(db, agg, "a", [(0, 10, 1), (0, 950, 2)])
        assert agg.windows_closed == 0
        agg.close_all()
        assert agg.windows_closed == 2
        assert agg.open_windows() == 0


def _attached(window_ns=100, registry=None):
    engine = Engine()
    db = TraceDB()
    collector = RawDataCollector(engine, db, registry=registry)
    collector.register_labels(LABELS)
    agg = StreamingAggregator(
        _config(window_ns=window_ns), registry=registry
    ).attach(collector)
    return collector, agg


class TestResequencerSemantics:
    """The tap sits downstream of the dedup/resequencing pipeline."""

    def test_duplicate_shipment_never_double_counts(self):
        collector, agg = _attached()
        blob = _records([(0, 10, 1), (0, 20, 2)])
        assert collector.receive_batch("a", blob, seq=1) is True
        assert collector.receive_batch("a", blob, seq=1) is False  # dup
        assert agg.records == 2
        agg.close_all()
        assert agg.frames[0].throughput["send"]["records"] == 2

    def test_reordered_shipments_apply_in_sequence(self):
        collector, agg = _attached()
        collector.receive_batch("a", _records([(0, 50, 2)]), seq=2)
        assert agg.records == 0  # held behind the gap
        collector.receive_batch("a", _records([(0, 10, 1)]), seq=1)
        assert agg.records == 2
        agg.close_all()
        assert agg.summary()["late_records"] == 0

    def test_gap_notice_increments_kind_gap(self):
        registry = MetricsRegistry()
        collector, agg = _attached(registry=registry)
        collector.receive_batch("a", _records([(0, 10, 1)]), seq=1)
        collector.skip_shipment("a", 2)
        collector.receive_batch("a", _records([(0, 30, 3)]), seq=3)
        assert agg.gap_notices == 1
        assert agg.records == 2  # seq 3 released past the gap
        metric = registry.get("vnt_stream_late_or_gap_total")
        assert metric.value(("gap",)) == 1
        assert metric.value(("late",)) == 0

    def test_skip_of_an_applied_shipment_is_not_a_gap(self):
        collector, agg = _attached()
        collector.receive_batch("a", _records([(0, 10, 1)]), seq=1)
        collector.skip_shipment("a", 1)  # it did arrive: no notice
        assert agg.gap_notices == 0


class TestFirstOccurrence:
    def test_duplicate_trace_id_keeps_first_arrival_timestamp(self):
        db, agg = _on_db(window_ns=1_000)
        _feed(db, agg, "a", [(0, 10, 1), (0, 50, 1), (1, 100, 1)])
        agg.close_all()
        hop = agg.summary()["hops"]["send->recv"]
        assert hop["count"] == 1
        assert hop["sum_ns"] == 90  # 100 - 10, never 100 - 50

    def test_non_monotone_slice_is_sorted_once(self):
        db, agg = _on_db(window_ns=1_000)
        _feed(db, agg, "a", [(0, 50, 2), (0, 10, 1), (0, 30, 3)])  # out of order
        _feed(db, agg, "b", [(1, 110, 1), (1, 150, 2), (1, 130, 3)])
        agg.close_all()
        hop = agg.summary()["hops"]["send->recv"]
        assert hop["count"] == 3
        assert hop["sum_ns"] == (110 - 10) + (150 - 50) + (130 - 30)

    def test_non_ascending_ids_pair_by_lookup(self):
        db, agg = _on_db(window_ns=1_000)
        _feed(db, agg, "a", [(0, 10, 5), (0, 20, 3)])
        _feed(db, agg, "b", [(1, 40, 3), (1, 60, 5)])
        agg.close_all()
        hop = agg.summary()["hops"]["send->recv"]
        assert hop["count"] == 2
        assert hop["sum_ns"] == (40 - 20) + (60 - 10)

    def test_zero_trace_id_is_untraced_filler(self):
        db, agg = _on_db(window_ns=1_000)
        _feed(db, agg, "a", [(0, 10, 1), (0, 20, 0), (1, 90, 1)])
        agg.close_all()
        summary = agg.summary()
        assert summary["throughput"]["send"]["packets"] == 2  # counted there
        assert summary["hops"]["send->recv"]["count"] == 1  # never joined


class TestOneIndex:
    """Both sides of a hop are the database's ``first_ts``: a pair
    counts iff the source's first occurrence was on time and the sink's
    first occurrence is stored when the source window closes -- a late
    row is dropped from the windows but stays in that index."""

    def _agg(self):
        db, agg = _on_db()
        agg.expect_nodes(["a", "b"])
        return db, agg

    def test_a_late_sink_row_pairs(self):
        db, agg = self._agg()
        _feed(db, agg, "a", [(0, 10, 1), (0, 150, 2), (0, 250, 3)])
        _feed(db, agg, "b", [(1, 40, 1), (1, 160, 2), (1, 260, 4)])
        assert agg.windows_closed == 2
        _feed(db, agg, "b", [(1, 120, 3)])  # the recv of trace 3, late
        assert agg.late_records == 1
        agg.close_all()
        hop = agg.summary()["hops"]["send->recv"]
        assert hop["count"] == 3
        assert hop["sum_ns"] == (40 - 10) + (160 - 150) + (120 - 250)

    def test_an_on_time_duplicate_of_a_late_source_does_not_pair(self):
        db, agg = self._agg()
        _feed(db, agg, "a", [(0, 10, 0), (0, 150, 0)])
        _feed(db, agg, "b", [(1, 30, 0), (1, 160, 0)])
        assert agg.windows_closed == 1
        _feed(db, agg, "a", [(0, 40, 9)])  # trace 9's first send, late
        _feed(db, agg, "a", [(0, 170, 9)])  # on time, but not its first
        _feed(db, agg, "b", [(1, 190, 9)])
        assert agg.late_records == 1
        agg.close_all()
        assert agg.summary()["hops"]["send->recv"]["count"] == 0


class TestMalformedInput:
    """Every record reaches streaming through ``insert_packed``'s check,
    so a blob the database rejects leaves the aggregator as it was."""

    @pytest.mark.parametrize(
        "blob",
        [_records([(0, 20, 2)])[:-1], "not a blob", _records([(0, 1 << 62, 2)])],
        ids=["torn", "str", "timestamp-2**62"],
    )
    def test_rejected_blob_changes_nothing(self, blob):
        db, agg = _on_db()
        _feed(db, agg, "a", [(0, 10, 1)])
        before = (db.rows_inserted, agg.records, dict(agg._cursors))
        with pytest.raises(MalformedBatchError):
            db.insert_packed("a", blob, LABELS)
        agg.observe_ingest("a")
        assert (db.rows_inserted, agg.records, agg._cursors) == before
        _feed(db, agg, "b", [(1, 60, 1)])  # the next good blob folds
        assert agg.records == 2
        agg.close_all()
        assert agg.summary()["hops"]["send->recv"]["count"] == 1

    def test_the_blob_entries_point_at_the_database(self):
        _db, agg = _on_db()
        for entry in (agg.observe_batch, agg.observe_packed):
            with pytest.raises(StreamingError, match="observe_ingest"):
                entry("a", _records([(0, 10, 1)]), LABELS)


class TestAggregatorUsage:
    def test_observe_ingest_before_attach_is_refused(self):
        agg = StreamingAggregator(_config())
        with pytest.raises(StreamingError, match=r"attach\(db\)"):
            agg.observe_ingest("a")

    def test_attach_to_second_collector_rejected(self):
        collector, agg = _attached()
        engine, db = Engine(), TraceDB()
        other = RawDataCollector(engine, db)
        with pytest.raises(StreamingError, match="already attached"):
            agg.attach(other)

    def test_emitter_snapshots_are_virtual_time_only(self):
        engine = Engine()
        db = TraceDB()
        collector = RawDataCollector(engine, db)
        collector.register_labels(LABELS)
        agg = StreamingAggregator(_config(window_ns=100, emit_interval_ns=100)).attach(collector)
        agg.start_emitter(engine)
        blob = _records([(0, 10, 1), (1, 60, 1)])
        engine.schedule(50, lambda: collector.receive_batch("a", blob, seq=1))
        engine.run(until=350)
        agg.close_all()
        assert [snap["t_ns"] for snap in agg.snapshots] == [100, 200, 300]
        assert agg.snapshots[-1]["records"] == 2
        assert set(agg.snapshots[0]) == {
            "t_ns", "watermark_ns", "open_windows",
            "windows_closed", "records", "late_or_gaps",
        }

    def test_repr_smoke(self):
        assert "StreamingAggregator" in repr(StreamingAggregator(_config()))


class TestAttachStreaming:
    """``VNetTracer.attach_streaming``: a tracer carries one aggregator."""

    def test_taps_the_tracers_collector_and_registry(self):
        tracer = VNetTracer(Engine())
        agg = tracer.attach_streaming(CHAIN, window_ns=100)
        assert tracer.streaming is agg
        assert agg.config == _config()
        tracer.collector.register_labels(LABELS)
        tracer.collector.receive_batch("a", _records([(0, 10, 1), (1, 60, 1)]), seq=1)
        agg.close_all()
        assert agg.summary()["hops"]["send->recv"]["count"] == 1
        assert tracer.obs.total("vnt_stream_records_total") == 2

    def test_the_same_request_returns_the_same_aggregator(self):
        tracer = VNetTracer(Engine())
        first = tracer.attach_streaming(list(CHAIN), window_ns=100)
        assert tracer.attach_streaming(CHAIN, window_ns=100) is first

    @pytest.mark.parametrize(
        "other",
        [{"chain": ("recv", "send")}, {"window_ns": 200}, {"top_k": 3}],
        ids=["chain", "window", "top_k"],
    )
    def test_a_different_request_is_refused(self, other):
        # Handing back the first aggregator whatever was asked for would
        # give the caller the wrong hops or windows without a sign.
        tracer = VNetTracer(Engine())
        first = tracer.attach_streaming(CHAIN, window_ns=100)
        with pytest.raises(StreamingError, match="already attached"):
            tracer.attach_streaming(**{"chain": CHAIN, "window_ns": 100, **other})
        assert tracer.streaming is first

    def test_emit_interval_starts_the_emitter(self):
        engine = Engine()
        agg = VNetTracer(engine).attach_streaming(CHAIN, window_ns=100, emit_interval_ns=50)
        engine.run(until=120)
        agg.stop_emitter()
        assert [snap["t_ns"] for snap in agg.snapshots] == [50, 100]


class TestFanIn:
    """The three-node fan-in ``tests/streaming_budget.py`` times, counted:
    every row the database takes reaches the windows, once, on time."""

    TRACES = 1_500  # 4 us apart from 1 ms: the windows of 1..7 ms

    def test_every_row_is_streamed_once_and_none_is_late(self):
        engine, db, agg = fan_in(self.TRACES, windowed=True)
        engine.run()
        agg.close_all()
        assert db.rows_inserted == 4 * self.TRACES
        assert agg.records == db.rows_inserted
        assert agg.windows_closed == 7
        assert agg.late_records == 0
        hops = agg.summary()["hops"]
        assert {hop: stats["count"] for hop, stats in hops.items()} == {
            hop: self.TRACES
            for hop in ("send->fwd-in", "fwd-in->fwd-out", "fwd-out->deliver", "send->deliver")
        }
