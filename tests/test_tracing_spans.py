"""Span-tree reconstruction, critical-path analysis, and exporters.

Acceptance properties (docs/TIMELINES.md):

* the top-level children of every packet span *partition* it, so their
  durations telescope to the end-to-end latency exactly -- pinned to
  the nanosecond against ``analysis``'s decomposition on a two-node
  overlay flow;
* the Chrome trace-event export is byte-identical across two runs of
  the same seeded scenario;
* the assembler drives the ``tracing`` stage of the metrics contract.
"""

import json
import random
import re

import pytest

from repro.core import FilterRule, TracepointSpec, TracingSpec, VNetTracer
from repro.core.metrics import decompose_latency
from repro.core.records import TraceRecord
from repro.core.tracedb import TraceDB
from repro.experiments.topologies import build_two_host_kvm
from repro.net.addressing import IPv4Address
from repro.net.packet import IPPROTO_UDP
from repro.obs.registry import MetricsRegistry
from repro.tracing import (
    Span,
    SpanAssembler,
    SpanColumns,
    SpanForest,
    aggregate_hops,
    build_control_root,
    chrome_trace_json,
    critical_path,
    flag_anomalies,
    otlp_json,
    segments_from_forest,
    span_tree_text,
    timeline_text,
)
from repro.tracing.spans import DEVICE, HOP, PACKET, SpanTrees
from repro.virt.overlay import OverlayNetwork

CHAIN = ["n1:a", "n1:b", "n2:c", "n2:d"]


def _record(trace_id, ts, tracepoint=1, cpu=0):
    return TraceRecord(trace_id, tracepoint, ts, 64, cpu)


def _populate(db, trace_id, stamps=(100, 250, 900, 1_000)):
    """One trace crossing n1 (two points) then n2 (two points)."""
    nodes = ("n1", "n1", "n2", "n2")
    for label, node, ts in zip(CHAIN, nodes, stamps):
        db.insert(node, label, _record(trace_id, ts))


def span_tree(db, trace_id, chain=None):
    return SpanAssembler(db).tree(trace_id, chain=chain)


class TestSpanModel:
    """Hand-built columns: ``SpanColumns.append`` is the validated way in."""

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown span kind"):
            SpanColumns().append("banana", "n1", 0, 1)
        with pytest.raises(ValueError, match="unknown span kind"):
            SpanColumns().append(8, "n1", 0, 1)

    def test_backwards_interval_rejected(self):
        with pytest.raises(ValueError, match="ends before it starts"):
            SpanColumns().append(HOP, "n1", 10, 5, name="x")

    def test_name_only_on_leaf_kinds(self):
        with pytest.raises(ValueError, match="hop span"):
            SpanColumns().append(HOP, "n1", 0, 5)
        with pytest.raises(ValueError, match="device span"):
            SpanColumns().append(DEVICE, "n1", 0, 5, name="x")

    def test_walk_is_preorder(self):
        columns = SpanColumns()
        root = columns.append(PACKET, "n1", 0, 10, slots=(7, 3, 64))
        a = columns.append(DEVICE, "n1", 0, 5, parent=root)
        columns.append(HOP, "n1", 0, 5, parent=a, name="a1")
        columns.append(DEVICE, "n2", 5, 10, parent=root)
        names = ["packet:0x00000007", "device:n1", "a1", "device:n2"]
        assert [s.name for s in Span(columns, root).walk()] == names
        assert [s.name for s in Span(columns, root).children] == [names[1], names[3]]
        assert [s.name for s in Span(columns, a).walk()] == names[1:3]

    def test_rows_must_arrive_in_preorder(self):
        columns = SpanColumns()
        root = columns.append(PACKET, "n1", 0, 10)
        a = columns.append(DEVICE, "n1", 0, 5, parent=root)
        columns.append(DEVICE, "n1", 5, 10, parent=root)
        with pytest.raises(ValueError, match="out of pre-order"):
            columns.append(HOP, "n1", 0, 5, parent=a, name="late")

    def test_views_compare_by_row(self):
        columns = SpanColumns()
        root = columns.append(PACKET, "n1", 0, 10)
        assert Span(columns, root) == Span(columns, root)
        assert Span(columns, root) != Span(SpanColumns(), root)
        assert len({Span(columns, root), Span(columns, root)}) == 1


class TestReconstruct:
    def test_single_record_trace_yields_none(self):
        db = TraceDB()
        db.insert("n1", CHAIN[0], _record(1, 100))
        assert span_tree(db, 1) is None

    def test_unknown_trace_yields_none(self):
        assert span_tree(TraceDB(), 404) is None

    def test_tree_shape_two_nodes(self):
        db = TraceDB()
        _populate(db, 1)
        tree = span_tree(db, 1)
        kinds = [s.kind for s in tree.spans()]
        # packet > [device(n1) > hop, wire, device(n2) > hop]
        assert kinds == ["packet", "device", "hop", "wire", "device", "hop"]
        wire = next(s for s in tree.spans() if s.kind == "wire")
        assert wire.name == "n1:b -> n2:c"
        assert wire.duration_ns == 650
        assert wire.attributes["from_node"] == "n1"

    def test_top_level_children_partition_the_root(self):
        db = TraceDB()
        _populate(db, 1)
        root = span_tree(db, 1).root
        assert root.children[0].start_ns == root.start_ns
        assert root.children[-1].end_ns == root.end_ns
        for left, right in zip(root.children, root.children[1:]):
            assert left.end_ns == right.start_ns  # no gaps, no overlap
        assert sum(c.duration_ns for c in root.children) == root.duration_ns

    def test_duplicates_counted_not_folded(self):
        db = TraceDB()
        _populate(db, 1)
        db.insert("n1", CHAIN[0], _record(1, 120))  # retransmit-style dup
        tree = span_tree(db, 1)
        assert tree.duplicate_records == 1
        assert tree.root.start_ns == 100  # earliest observation wins

    def test_chain_filter_ignores_other_labels(self):
        db = TraceDB()
        _populate(db, 1)
        db.insert("n3", "noise:x", _record(1, 500))
        tree = span_tree(db, 1, chain=CHAIN)
        assert all("noise" not in s.name for s in tree.spans())
        assert tree.duplicate_records == 0

    def test_device_span_carries_clock_offset(self):
        db = TraceDB()
        db.set_clock_skew("n2", -1_500)
        _populate(db, 1)
        devices = {
            s.node: s.attributes["clock_offset_ns"]
            for s in span_tree(db, 1).spans()
            if s.kind == "device"
        }
        assert devices == {"n1": 0, "n2": -1_500}

    def test_out_of_order_ingest_is_reordered(self):
        # Rows arrive per-node batch, so cross-node timestamp order is
        # never ingest order; the tree must sort by aligned time.
        db = TraceDB()
        db.insert("n2", CHAIN[2], _record(1, 900))
        db.insert("n1", CHAIN[0], _record(1, 100))
        db.insert("n2", CHAIN[3], _record(1, 1_000))
        db.insert("n1", CHAIN[1], _record(1, 250))
        tree = span_tree(db, 1)
        stamps = [s.start_ns for s in tree.root.children]
        assert stamps == sorted(stamps)
        assert tree.root.duration_ns == 900


class TestControlRoot:
    def test_empty_logs_yield_none(self):
        assert build_control_root([], []) is None

    def test_children_sorted_and_enveloped(self):
        root = build_control_root(
            deploy_spans=[(50, 250, "n2"), (50, 200, "n1")],
            ship_spans=[(300, 400, "n1", 12)],
        )
        assert [c.name for c in root.children] == [
            "deploy:n1", "deploy:n2", "ship:n1",
        ]
        assert (root.start_ns, root.end_ns) == (50, 400)
        assert root.children[-1].attributes["records"] == 12


class TestAssembler:
    def test_forest_counts_orphans_and_metrics(self):
        db = TraceDB()
        _populate(db, 1)
        _populate(db, 2)
        db.insert("n1", CHAIN[0], _record(3, 5_000))  # single-point trace
        registry = MetricsRegistry()
        assembler = SpanAssembler(db, registry=registry)
        forest = assembler.forest(chain=CHAIN)
        assert len(forest) == 2
        assert forest.orphan_records == 1
        assert registry.total("vnt_span_trees_built_total") == 2
        assert registry.total("vnt_span_spans_total") == forest.span_count()
        assert registry.total("vnt_span_orphan_records_total") == 1

    def test_complete_only_drops_partial_traces(self):
        db = TraceDB()
        _populate(db, 1)
        for label, node, ts in zip(CHAIN[:2], ("n1", "n1"), (100, 260)):
            db.insert(node, label, _record(9, ts))  # lost after n1
        assembler = SpanAssembler(db)
        strict = assembler.forest(chain=CHAIN, complete_only=True)
        assert [t.trace_id for t in strict.trees] == [1]
        assert strict.orphan_records == 2
        loose = assembler.forest(chain=CHAIN, complete_only=False)
        assert [t.trace_id for t in loose.trees] == [1, 9]

    def test_anomaly_pass_drives_metric(self):
        db = TraceDB()
        for trace_id in (1, 2, 3):
            _populate(db, trace_id, stamps=(100, 250, 900, 1_000))
        _populate(db, 4, stamps=(100, 250, 90_000, 90_100))  # slow wire
        registry = MetricsRegistry()
        assembler = SpanAssembler(db, registry=registry)
        found = assembler.anomalies(assembler.forest(chain=CHAIN), factor=3.0)
        assert [a.trace_id for a in found] == [4]
        assert found[0].name == "n1:b -> n2:c"
        assert registry.total("vnt_span_anomalous_total") == 1


class TestCriticalPath:
    def _forest(self):
        db = TraceDB()
        for trace_id in (1, 2):
            _populate(db, trace_id)
        return SpanAssembler(db).forest(chain=CHAIN)

    def test_path_follows_longest_child(self):
        forest = self._forest()
        path = critical_path(forest.trees[0])
        assert path[0].kind == "packet"
        assert path[1].kind == "wire"  # the 650 ns gap dominates

    def test_hop_stats_cover_every_leaf(self):
        stats = aggregate_hops(self._forest())
        assert [s.name for s in stats] == [
            "n1:a -> n1:b", "n1:b -> n2:c", "n2:c -> n2:d",
        ]
        wire = stats[1]
        assert wire.kind == "wire"
        assert wire.count == 2 and wire.p50_ns == 650

    def test_segments_match_decompose(self):
        db = TraceDB()
        for trace_id in (1, 2):
            _populate(db, trace_id)
        forest = SpanAssembler(db).forest(chain=CHAIN)
        assert segments_from_forest(forest, CHAIN) == decompose_latency(db, CHAIN)

    def test_anomaly_factor_validated(self):
        with pytest.raises(ValueError):
            flag_anomalies(self._forest(), factor=0)


class TestExporters:
    def _forest(self):
        db = TraceDB()
        _populate(db, 1)
        control = build_control_root([(10, 60, "n1")], [])
        return SpanAssembler(db).forest(chain=CHAIN, control_root=control)

    def test_chrome_dict_shape(self):
        doc = json.loads(chrome_trace_json(self._forest()))
        assert doc["displayTimeUnit"] == "ns"
        events = doc["traceEvents"]
        complete = [e for e in events if e["ph"] == "X"]
        meta = [e for e in events if e["ph"] == "M"]
        assert len(complete) == 8  # 6 packet-tree spans + control root + leg
        assert meta  # process/thread names for Perfetto's track labels
        assert all(e["ts"] >= 0 and e["dur"] >= 0 for e in complete)

    def test_chrome_json_parses_and_is_canonical(self):
        text = chrome_trace_json(self._forest())
        doc = json.loads(text)
        assert doc["otherData"]["trees"] == 1
        assert text == chrome_trace_json(self._forest())  # stable bytes

    def test_otlp_ids_and_times(self):
        doc = json.loads(otlp_json(self._forest()))
        scope = doc["resourceSpans"][0]["scopeSpans"][0]
        spans = scope["spans"]
        root = spans[0]
        assert len(root["traceId"]) == 32 and len(root["spanId"]) == 16
        assert root["parentSpanId"] == ""
        children = [s for s in spans if s["parentSpanId"] == root["spanId"]]
        assert children  # tree structure survives the flattening
        for span in spans:
            assert int(span["endTimeUnixNano"]) >= int(span["startTimeUnixNano"])

    def test_text_rendering_mentions_every_span(self):
        forest = self._forest()
        text = timeline_text(forest)
        tree_text = span_tree_text(forest.trees[0])
        for span in forest.trees[0].spans():
            assert span.name in tree_text
        assert "control-plane" in text


_EVENT_TIMES = re.compile(r'"dur":([^,]+),"name":[^,]+,"ph":"X","pid":\d+,"tid":\d+,"ts":([^}]+)\}')


def _chrome_times(intervals):
    """One tree -- a packet root over hop spans at ``intervals`` -- through
    the Chrome export; the raw ``dur`` / ``ts`` texts of its events."""
    columns = SpanColumns()
    low = min(start for start, _ in intervals)
    high = max(end for _, end in intervals)
    root = columns.append(PACKET, "n1", low, high, slots=(1, len(intervals), 64))
    for i, (start, end) in enumerate(intervals):
        columns.append(HOP, "n1", start, end, parent=root, name=f"h{i}")
    columns.append_tree(root, 1, len(intervals))
    text = chrome_trace_json(SpanForest(SpanTrees(columns)))
    return _EVENT_TIMES.findall(text)


def _float_times(intervals):
    """What the canonical encoder prints for the same events' floats."""
    low = min(start for start, _ in intervals)
    high = max(end for _, end in intervals)
    return [
        (repr((end - start) / 1000.0), repr(start / 1000.0))
        for start, end in [(low, high), *intervals]
    ]


class TestMicrosecondPrinter:
    """The Chrome export prints microseconds from integers; every value
    must read exactly as ``repr(ns / 1000.0)`` would."""

    def test_random_values_match_float_repr(self):
        rng = random.Random(25)
        stamps = sorted(rng.randrange(10**k) for k in range(1, 16) for _ in range(50))
        intervals = list(zip(stamps, stamps[1:]))  # every stamp a start and a gap
        assert _chrome_times(intervals) == _float_times(intervals)

    @pytest.mark.parametrize(
        "intervals",
        [
            [(0, 1), (1, 999), (999, 1000), (1000, 10**15 - 1)],  # in range
            [(0, 10**15)],  # one end at the bound
            [(0, 9_000_000_000_000_001)],  # where a double is coarser than 0.001 us
            [(-1_500_000, -1_499_001), (-1_499_001, -1)],  # all negative
            [(-1_500, 250), (250, 1_000), (1_000, 10**12)],  # mixed sign
        ],
        ids=["exact", "bound", "beyond", "negative", "mixed-sign"],
    )
    def test_export_matches_float_repr(self, intervals):
        assert _chrome_times(intervals) == _float_times(intervals)


@pytest.fixture(scope="module")
def overlay_flow():
    """A two-node overlay flow traced at four points: container egress
    and VXLAN device on vm1, VXLAN device and container delivery on vm2
    (the §III-A walkthrough with enough tracepoints for device spans)."""
    scene = build_two_host_kvm(seed=99)
    engine = scene.engine
    overlay = OverlayNetwork("flannel", vni=7, subnet=IPv4Address("10.32.0.0"))
    member1 = overlay.join(scene.vm1.node, scene.vm1_ip)
    member2 = overlay.join(scene.vm2.node, scene.vm2_ip)
    c1 = overlay.create_container(member1, "c1", IPv4Address("10.32.0.2"))
    c2 = overlay.create_container(member2, "c2", IPv4Address("10.32.0.3"))

    tracer = VNetTracer(engine)
    tracer.add_agent(scene.vm1.node)
    tracer.add_agent(scene.vm2.node)
    sync = tracer.synchronize_clocks(
        scene.host1.node, scene.host1_ip, "dev:eth0",
        scene.host2.node, scene.host2_ip, "dev:eth0",
    )
    previous = sync.on_done
    sync.on_done = lambda est: (
        previous(est),
        tracer.db.set_clock_skew(scene.vm2.node.name, est.skew_ns),
    )
    engine.run(until=150_000_000)

    chain = ["egress", "flannel_i", "flannel_j", "deliver"]
    spec = TracingSpec(
        rule=FilterRule(dst_ip=c2.ip, dst_port=7100, protocol=IPPROTO_UDP),
        tracepoints=[
            TracepointSpec(node=scene.vm1.node.name,
                           hook="kprobe:udp_send_skb", label="egress"),
            TracepointSpec(node=scene.vm1.node.name,
                           hook=f"dev:{member1.vxlan.name}",
                           label="flannel_i", strip_vxlan=True),
            TracepointSpec(node=scene.vm2.node.name,
                           hook=f"dev:{member2.vxlan.name}",
                           label="flannel_j", strip_vxlan=True),
            TracepointSpec(node=scene.vm2.node.name,
                           hook="kprobe:skb_copy_datagram_iovec",
                           label="deliver"),
        ],
    )
    tracer.deploy(spec)
    server = c2.bind_udp(7100)
    server.on_receive = lambda *a: None
    client = c1.bind_udp(7101)
    start = engine.now
    for i in range(25):
        engine.schedule(1_000_000 * (i + 1), client.sendto, c2.ip, 7100,
                        b"payload", "span-acceptance", i)
    engine.run(until=start + 150_000_000)
    tracer.collect()
    return tracer, chain


class TestOverlayAcceptance:
    """ISSUE acceptance: span durations vs the metric-layer decomposition."""

    def test_span_durations_telescope_to_end_to_end_latency(self, overlay_flow):
        tracer, chain = overlay_flow
        forest = tracer.span_forest(chain, include_control=False)
        assert len(forest) == 25

        segments = decompose_latency(tracer.db, chain)
        end_to_end = {}  # trace_id -> summed segment latency, per packet
        order = sorted(
            tracer.db.complete_traces(chain),
            key=lambda t: tracer.db.trace_ids_at(chain[0])[t].timestamp_ns,
        )
        for index, trace_id in enumerate(order):
            end_to_end[trace_id] = sum(
                segment.latencies_ns[index] for segment in segments
            )
        for tree in forest:
            spans_sum = sum(c.duration_ns for c in tree.root.children)
            # Exact: top-level children partition the packet span.
            assert spans_sum == tree.duration_ns
            assert abs(spans_sum - end_to_end[tree.trace_id]) <= 1

    def test_device_spans_have_positive_time_on_each_node(self, overlay_flow):
        tracer, chain = overlay_flow
        forest = tracer.span_forest(chain, include_control=False)
        tree = forest.trees[0]
        devices = [s for s in tree.root.children if s.kind == "device"]
        assert len(devices) == 2  # vm1 run, vm2 run
        assert all(d.duration_ns > 0 for d in devices)
        wires = [s for s in tree.root.children if s.kind == "wire"]
        assert len(wires) == 1
        assert wires[0].name == "flannel_i -> flannel_j"

    def test_control_root_present_with_deploy_legs(self, overlay_flow):
        tracer, chain = overlay_flow
        forest = tracer.span_forest(chain)
        assert forest.control_root is not None
        names = [c.name for c in forest.control_root.children]
        assert any(name.startswith("deploy:") for name in names)
