"""Generated differential for the streaming hop join (docs/STREAMING.md).

Random shipments go into a TraceDB with a ``StreamingAggregator``
attached and no expected nodes, so no window closes before
``close_all()`` and nothing is late.  Blobs may be unsorted, repeat a
trace ID or carry the zero (untraced) ID, a sink row may arrive before
its source, and every node has its own clock skew.  Whatever the
shipments, the closed windows must merge into exactly the offline
answer (``offline_reference_json``) and hold every stored row once.

The default hypothesis profile runs it on tier-1; CI's ``properties``
job runs it under ``HYPOTHESIS_PROFILE=long`` (tests/conftest.py).
"""

from hypothesis import HealthCheck, given, settings, strategies as st

from repro.core.records import TraceRecord
from repro.core.tracedb import TraceDB
from repro.streaming import StreamingAggregator, StreamingConfig, offline_reference_json
from tests.conftest import pack

# "other" is outside the chain: throughput only, never joined.
LABELS = {0: "send", 1: "nic", 2: "recv", 3: "other"}
CHAIN = ("send", "nic", "recv")
NODES = ("a", "b", "c")

records = st.lists(
    st.tuples(
        st.sampled_from(sorted(LABELS)),  # tracepoint
        st.integers(min_value=0, max_value=20_000),  # raw timestamp (ns)
        st.integers(min_value=0, max_value=24),  # trace ID: 0 is untraced
        st.sampled_from([0, 8, 60, 1_500]),  # packet length, around the ID overhead
    ),
    min_size=1,
    max_size=12,
)
shipments = st.lists(
    # (node, rows, sort the blob by timestamp first)
    st.tuples(st.sampled_from(NODES), records, st.booleans()),
    min_size=1,
    max_size=10,
)
skews = st.fixed_dictionaries(
    {node: st.integers(min_value=-5_000, max_value=5_000) for node in NODES}
)


@settings(deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    shipments=shipments,
    skew=skews,
    window_ns=st.sampled_from([1, 700, 50_000]),
)
def test_closed_windows_equal_the_offline_answer(shipments, skew, window_ns):
    config = StreamingConfig(chain=CHAIN, window_ns=window_ns, top_k=3)
    db = TraceDB()
    for node, offset in skew.items():
        db.set_clock_skew(node, offset)
    agg = StreamingAggregator(config).attach(db)
    for node, rows, ordered in shipments:
        if ordered:
            rows = sorted(rows, key=lambda row: row[1])
        blob = pack(TraceRecord(tid, tp, ts, plen, 0) for tp, ts, tid, plen in rows)
        db.insert_packed(node, blob, LABELS)
        agg.observe_ingest(node)
    agg.close_all()

    assert agg.late_records == 0
    assert sum(frame.records for frame in agg.frames) == db.rows_inserted
    assert agg.summary_json() == offline_reference_json(db, config)
