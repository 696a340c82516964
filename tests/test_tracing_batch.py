"""Differential suite for the batch span-reconstruction pipeline.

The columnar assembler (`SpanAssembler` over `TraceDB.trace_group_rows`,
writing `SpanColumns`) and the streaming serialisers are the only
implementation in ``src/``; the per-row algorithm survives as the test
oracle in ``tests/span_reference.py`` (nested dicts, ``json.dumps``).
This suite proves, on every end-to-end scenario the repo ships, that
the two produce byte-identical exports -- Chrome trace JSON, OTLP JSON
and the text timeline -- that those bytes are the ones recorded in
``tests/golden/span_exports.json`` before the reference left ``src/``,
and that the generation-keyed forest cache can never serve a stale
forest across any mutation path.
"""

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.records import TraceRecord
from repro.core.tracedb import TraceDB
from repro.tracing.export import chrome_trace_json, otlp_json
from repro.tracing.reconstruct import SpanAssembler
from tests import span_goldens
from tests.span_reference import (
    reference_chrome_json,
    reference_exports,
    reference_forest,
    reference_rpc_forest,
    span_count,
)


def reference_for(case: span_goldens.Case):
    if case.links is not None:
        return reference_rpc_forest(case.db, case.links, chain=case.chain)
    return reference_forest(case.db, None, case.chain, complete_only=case.complete_only)


def assert_case_equivalent(case: span_goldens.Case):
    """Production vs the per-row oracle vs the recorded goldens, byte
    for byte on every export format."""
    forest = span_goldens.production_forest(case)
    oracle = reference_for(case)
    texts = span_goldens.exports(forest)
    assert texts == reference_exports(oracle)
    span_goldens.assert_matches_golden(case, texts)
    assert forest.orphan_records == oracle["orphan_records"]
    assert forest.span_count() == span_count(oracle)
    return texts


# ---------------------------------------------------------------------------
# Scenario differentials: every end-to-end flow the repo ships.
# ---------------------------------------------------------------------------

_checked = {}  # scenario -> [(case name, exports)], each scenario run once


def checked(scenario: str):
    if scenario not in _checked:
        _checked[scenario] = [
            (case.name, assert_case_equivalent(case))
            for case in span_goldens.SCENARIOS[scenario]()
        ]
    return _checked[scenario]


def assert_shard_counts_agree(scenario: str, runs: int):
    """Every case of a scenario that ran at ``runs`` shard counts
    exported the same bytes each time."""
    by_name = {}
    for name, texts in checked(scenario):
        by_name.setdefault(name, []).append(texts)
    for name, found in by_name.items():
        assert len(found) == runs, name
        assert all(texts == found[0] for texts in found), name


class TestScenarioDifferentials:
    def test_quickstart(self):
        # Complete trees, partial trees (the no-filter orphan
        # accounting) and no chain at all.
        names = {name for name, _ in checked("quickstart")}
        assert names == {"quickstart/complete", "quickstart/partial", "quickstart/no-chain"}

    def test_quickstart_shard_counts_byte_identical(self):
        assert_shard_counts_agree("quickstart", runs=2)

    def test_ovs_case_iii(self):
        assert checked("ovs_case_iii")

    def test_fault_case_both_legs(self):
        assert len(checked("fault_case")) == 4  # two legs, complete and partial

    def test_macro_fleet(self):
        assert checked("macro_fleet")

    def test_rpc_case_both_shard_counts(self):
        # The request forest and the plain packet forest of the same DB.
        assert_shard_counts_agree("rpc_case", runs=2)

    def test_goldens_cover_exactly_the_scenarios(self):
        names = {name for scenario in span_goldens.SCENARIOS for name, _ in checked(scenario)}
        assert names == set(span_goldens.load_goldens())


# ---------------------------------------------------------------------------
# Generation counter: every mutation path invalidates cached forests.
# ---------------------------------------------------------------------------

_LABELS = {0: "send", 1: "nic-out", 2: "nic-in", 3: "deliver"}
_CHAIN = ["send", "nic-out", "nic-in", "deliver"]


def _record(trace_id, tp, ts, length=64, cpu=0):
    return TraceRecord(
        trace_id=trace_id,
        tracepoint_id=tp,
        timestamp_ns=ts,
        packet_len=length,
        cpu=cpu,
    )


def _seed_db():
    db = TraceDB()
    for trace_id in (1, 2):
        base = 1_000 + trace_id * 100_000
        for tp, label in sorted(_LABELS.items()):
            node = "tx" if tp < 2 else "rx"
            db.insert(node, label, _record(trace_id, tp, base + tp * 1_000))
    return db


class TestGenerationAudit:
    def test_insert_bumps_generation(self):
        db = _seed_db()
        before = db.generation
        db.insert("tx", "send", _record(9, 0, 999_999))
        assert db.generation > before

    def test_insert_packed_bumps_generation(self):
        db = _seed_db()
        before = db.generation
        db.insert_packed("tx", _record(9, 0, 999_999).pack(), _LABELS)
        assert db.generation > before

    def test_mark_batch_bumps_generation_even_on_dedup(self):
        db = _seed_db()
        before = db.generation
        assert db.mark_batch("tx", 1) is True
        assert db.generation > before
        mid = db.generation
        assert db.mark_batch("tx", 1) is False  # deduped -- still a mutation
        assert db.generation > mid

    def test_set_clock_skew_bumps_generation(self):
        # Device spans read skew at assembly time, so a cached forest
        # must not survive a skew change.
        db = _seed_db()
        before = db.generation
        db.set_clock_skew("rx", -5_000)
        assert db.generation > before

    def test_cached_forest_invalidated_by_each_mutation(self):
        db = _seed_db()
        assembler = SpanAssembler(db)

        def snapshot():
            return chrome_trace_json(assembler.forest(chain=_CHAIN))

        first = snapshot()
        assert snapshot() == first
        assert assembler.forest_cache_hits == 1

        db.insert("tx", "send", _record(3, 0, 500_000))
        db.insert("tx", "nic-out", _record(3, 1, 501_000))
        db.insert("rx", "nic-in", _record(3, 2, 502_000))
        db.insert("rx", "deliver", _record(3, 3, 503_000))
        second = snapshot()
        assert second != first  # new trace appeared: no stale forest

        db.set_clock_skew("rx", -100_000)
        third = snapshot()
        assert third != second  # skew change re-aligned device offsets

    def test_cache_hit_returns_equivalent_forest(self):
        db = _seed_db()
        assembler = SpanAssembler(db)
        cold = assembler.forest(chain=_CHAIN)
        rebuilds = assembler.forest_rebuilds
        warm = assembler.forest(chain=_CHAIN)
        assert assembler.forest_rebuilds == rebuilds  # served from cache
        assert assembler.forest_cache_hits >= 1
        assert chrome_trace_json(warm) == chrome_trace_json(cold)
        assert otlp_json(warm) == otlp_json(cold)


# ---------------------------------------------------------------------------
# Property test: interleaved mutations never yield a stale cached forest.
# ---------------------------------------------------------------------------

_mutation_st = st.lists(
    st.one_of(
        st.tuples(
            st.just("insert"),
            st.integers(min_value=1, max_value=6),  # trace_id
            st.integers(min_value=0, max_value=3),  # tracepoint
            st.integers(min_value=0, max_value=2_000_000),  # ts
        ),
        st.tuples(
            st.just("packed"),
            st.integers(min_value=1, max_value=6),
            st.integers(min_value=0, max_value=3),
            st.integers(min_value=0, max_value=2_000_000),
        ),
        st.tuples(
            st.just("mark"),
            st.integers(min_value=1, max_value=3),  # seq
            st.just(0),
            st.just(0),
        ),
        st.tuples(
            st.just("skew"),
            st.integers(min_value=-1_000_000, max_value=1_000_000),
            st.just(0),
            st.just(0),
        ),
        st.tuples(st.just("query"), st.just(0), st.just(0), st.just(0)),
    ),
    min_size=1,
    max_size=30,
)


class TestCacheFreshnessProperty:
    @settings(
        max_examples=60,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(ops=_mutation_st)
    def test_cached_forest_always_matches_fresh_rebuild(self, ops):
        db = TraceDB()
        assembler = SpanAssembler(db)
        for op, a, b, c in ops:
            if op == "insert":
                node = "tx" if b < 2 else "rx"
                db.insert(node, _LABELS[b], _record(a, b, c))
            elif op == "packed":
                node = "tx" if b < 2 else "rx"
                db.insert_packed(node, _record(a, b, c).pack(), _LABELS)
            elif op == "mark":
                db.mark_batch("tx", a)
            elif op == "skew":
                db.set_clock_skew("rx", a)
            # Whether this call hits the memo or rebuilds, it must equal
            # a from-scratch assembly by the per-row oracle.
            cached = assembler.forest(chain=_CHAIN, complete_only=True)
            fresh = reference_forest(db, None, _CHAIN, complete_only=True)
            assert chrome_trace_json(cached) == reference_chrome_json(fresh)
