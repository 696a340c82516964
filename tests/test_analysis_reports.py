"""Report formatting."""

from repro.analysis.reports import anomaly_table, format_ns, hop_stats_table
from repro.core.metrics import decompose_latency
from repro.core.records import TraceRecord
from repro.core.tracedb import TraceDB
from repro.tracing.critical import segments_from_forest

CHAIN = ["a:send", "b:recv"]


def _insert(db, trace_id, label, ts, node="n1"):
    db.insert(node, label, TraceRecord(trace_id, 1, ts, 64, 0))


class TestFormatters:
    def test_format_ns_scales(self):
        assert format_ns(500) == "500 ns"
        assert format_ns(2_500) == "2.50 us"
        assert format_ns(3_000_000) == "3.00 ms"


class TestEdgeCases:
    """Empty flows, single-record traces, and unordered ingest must
    decompose to segments, not tracebacks."""

    def test_empty_flow_renders_zero_rows(self):
        (segment,) = decompose_latency(TraceDB(), CHAIN)
        assert (segment.from_label, segment.to_label) == tuple(CHAIN)
        assert segment.latencies_ns == []

    def test_single_record_trace_contributes_nothing(self):
        # A trace seen at only one tracepoint fails the completeness
        # cut of §III-C: the segment must come out empty, not crash.
        db = TraceDB()
        _insert(db, trace_id=7, label=CHAIN[0], ts=100)
        (segment,) = decompose_latency(db, CHAIN)
        assert segment.latencies_ns == []

    def test_out_of_order_records_decompose_correctly(self):
        # Batches arrive per-node, so cross-node timestamp order is
        # never insertion order; latencies must not depend on it.
        db = TraceDB()
        _insert(db, trace_id=2, label=CHAIN[1], ts=2_500, node="n2")
        _insert(db, trace_id=1, label=CHAIN[1], ts=1_300, node="n2")
        _insert(db, trace_id=2, label=CHAIN[0], ts=2_000)
        _insert(db, trace_id=1, label=CHAIN[0], ts=1_000)
        (segment,) = decompose_latency(db, CHAIN)
        assert sorted(segment.latencies_ns) == [300, 500]


class TestSpanTables:
    """The span-layer views of the same data (docs/TIMELINES.md)."""

    def _db(self):
        db = TraceDB()
        for trace_id, (t0, t1) in enumerate([(1_000, 1_400), (2_000, 2_300)], 1):
            _insert(db, trace_id, CHAIN[0], t0, node="n1")
            _insert(db, trace_id, CHAIN[1], t1, node="n2")
        return db

    def _forest(self, db):
        from repro.tracing import SpanAssembler

        return SpanAssembler(db).forest(chain=CHAIN)

    def test_span_decomposition_matches_metric_layer(self):
        db = self._db()
        assert segments_from_forest(self._forest(db), CHAIN) == decompose_latency(db, CHAIN)

    def test_hop_stats_table_lists_hops(self):
        table = hop_stats_table(self._forest(self._db()))
        assert "a:send -> b:recv" in table
        assert "p95" in table

    def test_hop_stats_table_empty_forest(self):
        table = hop_stats_table(self._forest(TraceDB()))
        assert "hop" in table  # headers render with no rows

    def test_anomaly_table_quiet_flow(self):
        table = anomaly_table(self._forest(self._db()))
        assert "no spans above" in table

    def test_anomaly_table_flags_outlier(self):
        db = self._db()
        _insert(db, 9, CHAIN[0], 10_000, node="n1")
        _insert(db, 9, CHAIN[1], 60_000, node="n2")  # ~100x the median hop
        table = anomaly_table(self._forest(db))
        assert "0x00000009" in table and "a:send -> b:recv" in table
