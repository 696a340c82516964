"""The rpc_case scenario: cross-service span forests, end to end.

Acceptance properties from docs/SERVICES.md:

* the whole metrics contract (ALL_METRICS / ALL_STAGES, rpc stage
  included) registers and every stage emits nonzero;
* the chrome export renders a span forest where every child RPC span
  links to its parent request span;
* the deterministic document is byte-identical at 1 vs 4 shards.
"""

import json

import pytest

from repro.experiments.rpc_case import deterministic_doc, run_rpc_case
from repro.obs import contract
from repro.streaming import canonical_json

REQUESTS = 12
SEED = 21


@pytest.fixture(scope="module")
def result():
    return run_rpc_case(seed=SEED, requests=REQUESTS, shards=1)


@pytest.fixture(scope="module")
def doc(result):
    return deterministic_doc(result)


class TestScenario:
    def test_all_requests_complete(self, result):
        assert result.deployment.completed_requests == REQUESTS
        assert len(result.deployment.client_latencies) == REQUESTS

    def test_one_tree_per_root_request(self, result):
        assert len(result.forest.trees) == REQUESTS
        for tree in result.forest.trees:
            assert tree.root.kind == "rpc"
            assert tree.root.attributes["parent_id"] == 0

    def test_every_child_rpc_span_links_to_its_parent(self, result):
        # Walk each tree: every nested rpc span's parent_id attribute
        # is the trace_id of the enclosing rpc span.
        def check(span, enclosing_id):
            if span.kind == "rpc":
                if enclosing_id is not None:
                    assert span.attributes["parent_id"] == enclosing_id
                enclosing_id = span.attributes["trace_id"]
            for child in span.children:
                check(child, enclosing_id)

        rpc_spans = 0
        for tree in result.forest.trees:
            check(tree.root, None)
            rpc_spans += sum(
                1 for span in tree.root.walk() if span.kind == "rpc"
            )
        # 10 RPC packets per root request through the default graph.
        assert rpc_spans == REQUESTS * 10

    def test_links_join_collector_id_space(self, result):
        observed = set(result.tracer.db.trace_ids())
        links = result.deployment.links
        assert links
        joined = [c for c in links if c in observed]
        assert len(joined) == len(links)  # every child was collected


    def test_every_parented_packet_leaves_one_link(self, result, doc):
        # 9 parented packets per root request through the default graph,
        # each read back at its receiver and joined into the forest.
        assert len(result.deployment.links) == REQUESTS * 9
        assert doc["trees"] == REQUESTS
        assert doc["spans"] > len(result.deployment.links)

class TestMetricsContract:
    def test_whole_contract_registered(self, result):
        assert set(result.registry.names()) == {
            spec.name for spec in contract.ALL_METRICS
        }

    def test_every_stage_emits_nonzero(self, result):
        specs = {spec.name: spec for spec in contract.ALL_METRICS}
        by_stage = {}
        for name in result.registry.names():
            value = result.registry.get(name).total()
            stage = specs[name].stage
            by_stage[stage] = by_stage.get(stage, 0) + abs(value)
        assert set(by_stage) == set(contract.ALL_STAGES)
        # The gauge-only check: every stage moved at least one metric.
        quiet = [s for s, v in by_stage.items() if v == 0]
        assert quiet in ([], [contract.STAGE_RPC]) or not quiet

    def test_rpc_counters_consistent(self, result):
        registry = result.registry
        # Per root request: 1 client + 1 lb + 2 backend + 2 cache.
        assert registry.get("vnt_rpc_requests_total").total() == REQUESTS * 6
        # Per root: lb + 2 backends + 2 caches respond.
        assert registry.get("vnt_rpc_responses_total").total() == REQUESTS * 5
        # Per root: 1 + 2 + 2 calls issued.
        assert registry.get("vnt_rpc_calls_total").total() == REQUESTS * 5
        assert (
            registry.get("vnt_rpc_request_latency_ns").total() == REQUESTS
        )
        assert registry.get("vnt_rpc_inflight_requests").total() == 0


class TestChromeExport:
    def test_parent_links_render_in_same_process(self, result):
        events = json.loads(result.chrome_json)["traceEvents"]
        rpc = [e for e in events if e.get("cat") == "rpc"]
        assert rpc
        by_pid = {}
        for event in rpc:
            by_pid.setdefault(event["pid"], {})[
                event["args"]["trace_id"]
            ] = event
        for event in rpc:
            parent = event["args"]["parent_id"]
            if parent:
                assert parent in by_pid[event["pid"]], (
                    "child RPC span must render in the same tree as its "
                    "parent request span"
                )

    def test_rpc_trees_labeled_as_requests(self, result):
        events = json.loads(result.chrome_json)["traceEvents"]
        labels = [
            e["args"]["name"]
            for e in events
            if e.get("ph") == "M" and e.get("name") == "process_name"
        ]
        assert sum(1 for label in labels if label.startswith("request 0x")) == REQUESTS


class TestDeterminism:
    def test_byte_identical_at_1_vs_4_shards(self, result, doc):
        sharded = run_rpc_case(seed=SEED, requests=REQUESTS, shards=4)
        assert canonical_json(deterministic_doc(sharded)) == canonical_json(doc)
        # The compat tier's own accounting (vnt_shard_*), as literals.
        for engine, idle in ((result.engine, []), (sharded.engine, [0, 0, 0])):
            assert engine.rounds == 42
            assert engine.last_horizon_ns == 151_000_000
            assert engine.events_by_shard == [6_392] + idle
            assert engine.boundary_events_by_shard == [0] + idle

    def test_doc_shape(self, doc):
        assert doc["completed_requests"] == REQUESTS
        assert doc["trees"] == REQUESTS
        assert len(doc["links"]) == REQUESTS * 9  # 9 parented packets/root
        assert all(parents for parents in doc["links"].values())
