"""The span forest as columns: views, memory, streaming, robustness.

What the columnar forest (docs/TIMELINES.md, "Reconstruction pipeline")
promises beyond byte-identical exports:

* the view API (``walk`` / ``children`` / ``attributes`` / ``spans`` /
  ``hop_spans`` / ``tree_for`` / ``critical_path``) agrees with the
  per-row oracle span for span on generated databases;
* a forest holds no Python object per span: retained bytes per span are
  bounded and the garbage collector sees no more objects afterwards;
* the Chrome export streams: chunks, ``chrome_trace_json`` and
  ``write_chrome_trace`` are the same bytes;
* shape templates are keyed on labels and run pattern, never on node
  names, so a fleet where every trace has its own nodes compiles O(1);
* assembly and all exporters are iterative (a 5 000-deep RPC chain);
* link cycles lose no records: every observed trace sits in exactly one
  RPC tree;
* nothing at module level in ``repro.tracing`` grows with use.
"""

import gc
import io
import json
import sys
import tracemalloc
import types
from array import array

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import repro.tracing.critical
import repro.tracing.export
import repro.tracing.reconstruct
import repro.tracing.spans
from repro.core.records import TraceRecord
from repro.core.tracedb import TraceDB
from repro.tracing import (
    SpanAssembler,
    aggregate_hops,
    build_control_root,
    chrome_trace_chunks,
    chrome_trace_json,
    critical_path,
    flag_anomalies,
    otlp_json,
    timeline_text,
    write_chrome_trace,
)
from repro.workloads.stats import percentile
from tests.conftest import pack
from tests.span_reference import (
    reference_control_root,
    reference_exports,
    reference_forest,
    reference_rpc_forest,
    reference_tree,
    walk,
)

LABELS = ["a", "b", "c", "d", "e"]
NODES = ["n1", "n2", "n3"]


def exports(forest):
    return {
        "chrome": chrome_trace_json(forest),
        "otlp": otlp_json(forest),
        "text": timeline_text(forest, limit=None),
    }


# -- (a) the views agree with the oracle ---------------------------------------

# (trace id, label, node, timestamp, cpu): small ranges on purpose, so
# duplicates, timestamp ties, reordered and missing tracepoints and one
# label seen on several nodes all come up constantly.
_observations = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=6),
        st.sampled_from(LABELS),
        st.sampled_from(NODES),
        st.integers(min_value=0, max_value=40),
        st.integers(min_value=0, max_value=3),
    ),
    min_size=1,
    max_size=40,
)
_chains = st.one_of(
    st.none(), st.lists(st.sampled_from(LABELS), min_size=1, max_size=5, unique=True)
)
_logs = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=50),
        st.integers(min_value=0, max_value=50),
        st.sampled_from(NODES),
        st.integers(min_value=0, max_value=9),
    ),
    max_size=4,
)


def _database(observations, skew=-7):
    db = TraceDB()
    db.set_clock_skew("n2", skew)
    for trace_id, label, node, ts, cpu in observations:
        db.insert(node, label, TraceRecord(trace_id, LABELS.index(label), ts, 64 + cpu, cpu))
    return db


def assert_span_equal(view, span):
    assert view.name == span["name"]
    assert view.kind == span["kind"]
    assert view.node == span["node"]
    assert (view.start_ns, view.end_ns) == (span["start_ns"], span["end_ns"])
    assert view.duration_ns == span["end_ns"] - span["start_ns"]
    assert view.attributes == span["attributes"]
    assert list(view.attributes) == list(span["attributes"])  # same key order
    assert [child.name for child in view.children] == [c["name"] for c in span["children"]]


def assert_tree_equal(tree, reference):
    assert tree.trace_id == reference["trace_id"]
    assert tree.record_count == reference["record_count"]
    assert tree.duplicate_records == reference["duplicate_records"]
    spans = list(walk(reference["root"]))
    assert (tree.start_ns, tree.end_ns) == (spans[0]["start_ns"], spans[0]["end_ns"])
    views = list(tree.root.walk())
    assert len(views) == len(spans) == len(tree.spans())
    for view, listed, span in zip(views, tree.spans(), spans):
        assert view == listed
        assert_span_equal(view, span)
    leaves = [span for span in spans if span["kind"] in ("hop", "wire")]
    assert [view.name for view in tree.hop_spans()] == [span["name"] for span in leaves]
    # Critical path: slowest child at each level, earliest on a tie.
    span, expected = reference["root"], [reference["root"]["name"]]
    while span["children"]:
        span = max(span["children"], key=lambda child: child["end_ns"] - child["start_ns"])
        expected.append(span["name"])
    assert [view.name for view in critical_path(tree)] == expected


def assert_forest_equal(forest, reference):
    assert len(forest) == len(forest.trees) == len(reference["trees"])
    assert forest.orphan_records == reference["orphan_records"]
    for tree, expected in zip(forest, reference["trees"]):
        assert_tree_equal(tree, expected)
        assert forest.tree_for(expected["trace_id"]).trace_id == expected["trace_id"]
    assert forest.tree_for(12345) is None
    assert forest.span_count() == sum(len(list(walk(t["root"]))) for t in reference["trees"])
    assert exports(forest) == reference_exports(reference)


def reference_hops(reference):
    """``aggregate_hops`` / ``flag_anomalies`` restated over the oracle."""
    leaves = {}
    for tree in reference["trees"]:
        for span in walk(tree["root"]):
            if span["kind"] in ("hop", "wire"):
                leaves.setdefault(span["name"], []).append((tree["trace_id"], span))
    stats, anomalies = [], []
    for name, found in leaves.items():
        ordered = sorted(span["end_ns"] - span["start_ns"] for _, span in found)
        stats.append(
            (name, found[0][1]["kind"], len(ordered), sum(ordered) / len(ordered),
             percentile(ordered, 0.5), percentile(ordered, 0.95), percentile(ordered, 0.99),
             ordered[-1])
        )  # fmt: skip
        mid = len(ordered) // 2
        median = float(ordered[mid]) if len(ordered) % 2 else (ordered[mid - 1] + ordered[mid]) / 2
        for trace_id, span in found:
            duration = span["end_ns"] - span["start_ns"]
            if median > 0 and duration > 1.5 * median:
                anomalies.append((trace_id, name, duration, median, duration / median))
    return stats, anomalies


class TestViewEquivalence:
    @settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(observations=_observations, chain=_chains, complete_only=st.booleans(), logs=_logs)
    def test_forest_views_match_the_oracle(self, observations, chain, complete_only, logs):
        db = _database(observations)
        deploys = [(min(a, b), max(a, b), node) for a, b, node, _ in logs[:2]]
        ships = [(min(a, b), max(a, b), node, records) for a, b, node, records in logs[2:]]
        assembler = SpanAssembler(db)
        forest = assembler.forest(
            chain=chain,
            complete_only=complete_only,
            control_root=build_control_root(deploys, ships),
        )
        reference = reference_forest(
            db, None, chain, complete_only, control_root=reference_control_root(deploys, ships)
        )
        assert_forest_equal(forest, reference)
        if forest.control_root is not None:
            for view, span in zip(forest.control_root.walk(), walk(reference["control_root"])):
                assert_span_equal(view, span)
        stats, anomalies = reference_hops(reference)
        assert [tuple(found) for found in aggregate_hops(forest)] == stats
        assert [tuple(found) for found in flag_anomalies(forest, factor=1.5)] == anomalies
        # The memo serves the same forest; an explicit subset assembles afresh.
        assert exports(assembler.forest(chain=chain, complete_only=complete_only)) == exports(
            assembler.forest(
                trace_ids=db.trace_ids(), chain=chain, complete_only=complete_only
            )
        )

    @settings(max_examples=60, deadline=None)
    @given(observations=_observations, chain=_chains)
    def test_single_tree_lookup_matches_the_oracle(self, observations, chain):
        db = _database(observations)
        assembler = SpanAssembler(db)
        for trace_id in db.trace_ids() + [99]:
            tree = assembler.tree(trace_id, chain=chain)
            reference = reference_tree(db, trace_id, chain=chain)
            assert (tree is None) == (reference is None)
            if tree is not None:
                assert_tree_equal(tree, reference)

    def test_a_subset_forest_is_a_selection_not_a_copy(self):
        db = _database([(t, label, "n1", t * 10 + i, 0) for t in (1, 2, 3)
                        for i, label in enumerate(LABELS)])  # fmt: skip
        forest = SpanAssembler(db).forest()
        picked = type(forest)(trees=forest.trees[1:], orphan_records=4)
        assert [tree.trace_id for tree in picked] == [2, 3]
        assert picked.trees.columns is forest.trees.columns
        assert picked.span_count() == forest.span_count() * 2 // 3
        single = type(forest)(trees=[forest.tree_for(3)])
        reference = reference_forest(db, [3])
        assert exports(single) == reference_exports(reference)
        assert [tuple(s) for s in aggregate_hops(single)] == reference_hops(reference)[0]
        other = SpanAssembler(db).forest(trace_ids=[1])
        with pytest.raises(ValueError, match="share one SpanColumns"):
            type(forest)(trees=[forest.trees[0], other.trees[0]])


# -- (b) no Python object per span ----------------------------------------------


def _flow_database(traces, nodes_of=lambda trace_id: ("tx", "tx", "mid", "rx", "rx")):
    """``traces`` five-point traces, shipped as packed blobs per node."""
    db = TraceDB()
    labels = dict(enumerate(LABELS))
    blobs = {}
    for trace_id in range(1, traces + 1):
        for tracepoint, node in enumerate(nodes_of(trace_id)):
            record = TraceRecord(
                trace_id, tracepoint, 1_000 * trace_id + 10 * tracepoint, 64, trace_id % 4
            )
            blobs.setdefault(node, []).append(record)
    for node, records in blobs.items():
        db.insert_packed(node, pack(records), labels)
    return db


class TestMemory:
    def test_retained_bytes_and_gc_objects_do_not_scale_with_spans(self):
        traces = 20_000
        db = _flow_database(traces)
        links = {t: (t - 1,) for t in range(2, traces + 1) if t % 4 != 1}
        assembler = SpanAssembler(db)
        gc.collect()
        objects_before = len(gc.get_objects())
        tracemalloc.start()
        try:
            forest = assembler.forest()
            requests = assembler.rpc_forest(links)
            gc.collect()
            retained, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        grown = len(gc.get_objects()) - objects_before
        for columns in (forest.trees.columns, requests.trees.columns):
            stored = [getattr(columns, name) for name in type(columns).__slots__]
            per_row = [column for column in stored + list(columns.slots) if len(column) > 1000]
            assert len(per_row) == 14  # ten per span, four per tree
            assert all(isinstance(column, array) for column in per_row)
        spans = forest.span_count() + requests.span_count()
        assert spans == traces * 8 + traces * 9
        # Ten 8-byte columns per span, plus per-trace bookkeeping (the
        # object-graph forest this replaced held ~490 bytes per span).
        assert retained / spans <= 128, f"{retained / spans:.0f} bytes per span"
        # O(1) in fact: arrays, intern tables and a few dicts.
        assert grown < traces // 10, f"{grown} more gc-tracked objects"
        # Walking every span (what a checker does) stores nothing either.
        walked = sum(1 for tree in forest for span in tree.root.walk() if span.children or True)
        assert walked == forest.span_count()
        gc.collect()
        assert len(gc.get_objects()) - objects_before < traces // 10


# -- (c) streaming export ---------------------------------------------------------


class TestChunkedExport:
    def _forest(self, trees):
        db = _flow_database(trees)
        control = build_control_root([(5, 50, "tx")], [(60, 70, "rx", 12)])
        return SpanAssembler(db).forest(control_root=control)

    @pytest.mark.parametrize("trees", [0, 1, 1024, 1025, 2500])
    def test_chunks_json_and_file_are_the_same_bytes(self, trees):
        forest = self._forest(trees)
        chunks = list(chrome_trace_chunks(forest))
        text = chrome_trace_json(forest)
        assert "".join(chunks) == text
        handle = io.StringIO()
        write_chrome_trace(forest, handle)
        assert handle.getvalue() == text
        assert len(chunks) >= 3 + trees // 1024  # header, control, blocks, tail
        document = json.loads(text)
        assert document["otherData"]["trees"] == trees
        spans = [event for event in document["traceEvents"] if event["ph"] == "X"]
        assert len(spans) == forest.span_count() + 3  # + the control track
        assert text == reference_exports(
            reference_forest(
                _flow_database(trees),
                control_root=reference_control_root([(5, 50, "tx")], [(60, 70, "rx", 12)]),
            )
        )["chrome"]

    def test_json_is_one_join_over_small_events(self):
        # Every piece of ``chrome_trace_json``'s join fits CPython's
        # small-object allocator (<= 512 B), so the document is the only
        # large block an export allocates (docs/TIMELINES.md, Exporters).
        forest = self._forest(1025)
        blocks = list(repro.tracing.export._chrome_event_blocks(forest))
        events = [event for block in blocks for event in block]
        assert len(blocks) == 3  # the control track, then 1 024 trees a block
        assert len(events) > forest.span_count()
        assert max(map(sys.getsizeof, events)) <= 512
        assert ",".join(events) in chrome_trace_json(forest)

    def test_no_control_track_and_no_trees(self):
        empty = SpanAssembler(TraceDB()).forest()
        assert chrome_trace_json(empty) == "".join(chrome_trace_chunks(empty))
        assert json.loads("".join(chrome_trace_chunks(empty)))["traceEvents"] == []
        assert json.loads(otlp_json(empty))["resourceSpans"][0]["scopeSpans"][0]["spans"] == []

    def test_names_that_need_escaping(self):
        db = TraceDB()
        for index, (node, label) in enumerate(
            [('n"1', "a%s"), ('n"1', 'b"\\'), ("né", "c\n"), ("né", "d%d")]
        ):
            db.insert(node, label, TraceRecord(1, index, 10 * index, 64, 0))
        forest = SpanAssembler(db).forest()
        assert exports(forest) == reference_exports(reference_forest(db))


# -- (d) shapes are keyed on labels and run pattern ----------------------------------


class TestShapeKeying:
    def test_fleet_of_private_node_pairs_compiles_one_shape(self, monkeypatch):
        compiled = []
        compile_shape = repro.tracing.reconstruct._compile_shape

        def counting(columns, labels, breaks):
            compiled.append((labels, breaks))
            return compile_shape(columns, labels, breaks)

        monkeypatch.setattr(repro.tracing.reconstruct, "_compile_shape", counting)
        traces = 400
        db = _flow_database(
            traces, lambda t: (f"h{t}", f"h{t}", f"peer{t}", f"peer{t}", f"peer{t}")
        )
        forest = SpanAssembler(db).forest()
        assert len(forest) == traces
        assert compiled == [(tuple(LABELS), (False, True, False, False))]
        columns = forest.trees.columns
        assert len(columns.names) == 4  # one per label pair, whatever the nodes
        assert len(columns.nodes) == 3 * traces  # two nodes and one wire per trace
        assert exports(forest) == reference_exports(reference_forest(db))

    def test_same_labels_other_run_pattern_is_another_shape(self):
        db = _flow_database(2, lambda t: ("x",) * 5 if t == 1 else ("x", "y", "y", "x", "x"))
        forest = SpanAssembler(db).forest()
        assert [len(tree.spans()) for tree in forest] == [6, 8]
        assert exports(forest) == reference_exports(reference_forest(db))


# -- deep chains and link cycles ------------------------------------------------------


def _chain_database(traces, records):
    db = TraceDB()
    for trace_id in range(1, traces + 1):
        for index in range(records):
            record = TraceRecord(trace_id, index, trace_id + index, 64, 0)
            db.insert(f"n{index}", LABELS[index], record)
    return db


class TestDeepChains:
    DEPTH = 5_000

    def test_assembly_and_json_exports_do_not_recurse(self):
        db = _chain_database(self.DEPTH, records=2)
        links = {t: (t - 1,) for t in range(2, self.DEPTH + 1)}
        forest = SpanAssembler(db).rpc_forest(links)
        assert len(forest) == 1
        (tree,) = forest.trees
        assert tree.record_count == 2 * self.DEPTH
        assert forest.span_count() == 5 * self.DEPTH  # rpc + packet, device, wire, device
        assert (tree.start_ns, tree.end_ns) == (1, self.DEPTH + 1)
        assert sum(1 for _ in tree.root.walk()) == 5 * self.DEPTH
        # Every rpc but the last (its 1 ns ties with the packet beside
        # it and the earlier child wins), then that packet and its wire.
        path = critical_path(tree)
        assert [span.kind for span in path[-3:]] == ["rpc", "packet", "wire"]
        assert len(path) == self.DEPTH + 1
        chrome = json.loads(chrome_trace_json(forest))
        assert sum(event["ph"] == "X" for event in chrome["traceEvents"]) == 5 * self.DEPTH
        otlp = json.loads(otlp_json(forest))["resourceSpans"][0]["scopeSpans"][0]["spans"]
        ids = {span["spanId"] for span in otlp}
        assert len(ids) == 5 * self.DEPTH
        assert sum(span["parentSpanId"] == "" for span in otlp) == 1
        assert all(span["parentSpanId"] in ids for span in otlp[1:])
        # The deepest wrapper: 4 999 rpc ancestors above it.
        deepest = otlp[5 * (self.DEPTH - 1)]
        assert deepest["name"] == f"rpc:0x{self.DEPTH:08x}"

    def test_text_rendering_does_not_recurse(self):
        # One record per trace keeps the O(depth^2) indentation small.
        db = _chain_database(self.DEPTH, records=1)
        links = {t: (t - 1,) for t in range(2, self.DEPTH + 1)}
        forest = SpanAssembler(db).rpc_forest(links)
        lines = timeline_text(forest, limit=None).splitlines()
        assert len(lines) == 2 + self.DEPTH
        assert lines[-1].startswith("  " * (self.DEPTH - 1) + "rpc ")


_link_maps = st.dictionaries(
    st.integers(min_value=1, max_value=9),
    st.lists(st.integers(min_value=0, max_value=11), max_size=3).map(tuple),
    max_size=9,
)


class TestLinkCycles:
    def test_two_cycle_keeps_every_record(self):
        db = _chain_database(2, records=2)
        forest = SpanAssembler(db).rpc_forest({1: (2,), 2: (1,)})
        assert (len(forest), forest.span_count(), forest.orphan_records) == (1, 10, 0)
        (tree,) = forest.trees
        assert (tree.trace_id, tree.record_count) == (1, 4)  # broken at the first seen
        assert tree.root.attributes == {"trace_id": 1, "parent_id": 0, "rpc_children": 1}
        child = tree.root.children[-1]
        assert child.attributes == {"trace_id": 2, "parent_id": 1, "rpc_children": 0}

    def test_self_link_is_a_root(self):
        db = _chain_database(1, records=2)
        forest = SpanAssembler(db).rpc_forest({1: (1,)})
        assert [tree.trace_id for tree in forest] == [1]
        assert forest.trees[0].root.attributes["parent_id"] == 0

    def test_tail_hanging_off_a_cycle_follows_it(self):
        db = _chain_database(4, records=2)
        forest = SpanAssembler(db).rpc_forest({2: (3,), 3: (2,), 4: (3,), 1: (7,)})
        assert [tree.trace_id for tree in forest] == [1, 2]
        assert forest.trees[0].root.attributes["parent_id"] == 7  # unobserved parent: kept
        spans = [span for span in forest.trees[1].root.walk() if span.kind == "rpc"]
        assert [span.attributes["trace_id"] for span in spans] == [2, 3, 4]

    @settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(
        observations=_observations,
        links=_link_maps,
        chain=_chains,
    )
    def test_every_record_and_trace_is_accounted_for(self, observations, links, chain):
        db = _database(observations)
        forest = SpanAssembler(db).rpc_forest(links, chain=chain)
        traced_rows = sum(1 for trace_id, *_ in observations if trace_id)
        assert sum(tree.record_count for tree in forest) + forest.orphan_records == traced_rows
        wrapped = sorted(
            span.attributes["trace_id"]
            for tree in forest
            for span in tree.root.walk()
            if span.kind == "rpc"
        )
        assert wrapped == sorted(db.trace_ids())  # each observed trace, exactly once
        reference = reference_rpc_forest(db, links, chain=chain)
        assert_forest_equal(forest, reference)


# -- nothing global grows ---------------------------------------------------------------


def _module_containers():
    found = {}
    for module in (
        repro.tracing.spans,
        repro.tracing.reconstruct,
        repro.tracing.critical,
        repro.tracing.export,
    ):
        for name, value in vars(module).items():
            if isinstance(value, (dict, list, set)) and not isinstance(value, types.ModuleType):
                if not name.startswith("__"):
                    found[f"{module.__name__}.{name}"] = len(value)
    return found


def test_module_globals_hold_nothing_per_forest():
    before = _module_containers()
    db = _flow_database(300, lambda t: (f"h{t}", f"h{t}", f"peer{t}", f"peer{t}", f"peer{t}"))
    assembler = SpanAssembler(db)
    forest = assembler.forest()
    requests = assembler.rpc_forest({t: (t - 1,) for t in range(2, 301)})
    for found in (forest, requests):
        exports(found)
        aggregate_hops(found)
        flag_anomalies(found)
    del forest, requests, assembler
    assert _module_containers() == before
    mutable = [name for name in before if name.rsplit(".", 1)[1].islower()]
    assert mutable == [], f"mutable module-level containers: {mutable}"
