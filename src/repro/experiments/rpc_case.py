"""The microservice RPC scenario (docs/SERVICES.md).

A four-tier service graph -- client, load balancer, backend, cache --
compiled from the declarative :class:`~repro.services.ServiceGraph`
builder onto per-edge rate-limited links, traced end to end with one
UDP dst-port filter.  Every RPC packet carries its parent's trace ID
in the wire embed, so the run reconstructs into a cross-service span
*forest*: one tree per root request, child RPC spans nested under the
request that caused them.

Congestion varies over the run: midway through the request load a
background TCP bulk transfer (AIMD / slow-start dynamics from
``net/tcp.py``) saturates the client -> lb0 edge, so later requests
routed through lb0 see queueing the early ones did not.

The run is deterministic -- same seed, same doc, byte-identical at any
shard count -- which is what the ``repro rpc --deterministic`` CI
double-run and the 1-vs-4-shard differential test pin down.
"""

from __future__ import annotations

import hashlib
from typing import List, NamedTuple, Optional

from repro.core import FilterRule, TracepointSpec, TracingSpec, VNetTracer
from repro.net.packet import IPPROTO_UDP
from repro.net.stack import HOOK_SKB_COPY_DATAGRAM, HOOK_UDP_SEND_SKB
from repro.obs.registry import MetricsRegistry
from repro.obs.sampler import StatsSampler
from repro.services import RPC_PORT, ServiceDeployment, ServiceGraph
from repro.sim import ShardedEngine, engine_factory, new_engine
from repro.sim.engine import Engine
from repro.streaming import canonical_json
from repro.tracing.export import chrome_trace_json
from repro.tracing.spans import SpanForest

# Clock sync (30 Cristian samples) settles well inside this window;
# the request load starts after it.
SYNC_BUDGET_NS = 40_000_000
# Trailing settle so the last fan-ins, responses, and the background
# TCP flow all complete before collection.
SETTLE_NS = 100_000_000

# The streaming layer watches the client -> lb0 front edge.
RPC_CHAIN = ["client0:send", "lb0:recv"]

# Background congestion: one TCP bulk transfer over the client -> lb0
# edge, starting a third of the way into the request load.
BULK_PORT = 5001
DEFAULT_BULK_BYTES = 300_000


def default_service_graph() -> ServiceGraph:
    """The scenario topology: client -> lb -> backend -> cache."""
    return (
        ServiceGraph()
        .tier("client", replicas=1, work_ns=5_000)
        .calls("lb", fanout=1, payload_bytes=96)
        .tier("lb", replicas=2, work_ns=10_000)
        .calls("backend", fanout=2, payload_bytes=64)
        .tier("backend", replicas=2, work_ns=25_000)
        .calls("cache", fanout=1, payload_bytes=48)
        .tier("cache", replicas=2, work_ns=8_000)
    )


class RpcCaseResult(NamedTuple):
    """Everything the CLI / tests need after the run."""

    engine: Engine
    tracer: VNetTracer
    registry: MetricsRegistry
    sampler: StatsSampler
    deployment: ServiceDeployment
    forest: SpanForest
    streaming: object
    chrome_json: str


def _tracepoints(deployment: ServiceDeployment) -> List[TracepointSpec]:
    points: List[TracepointSpec] = []
    for node in deployment.nodes:
        points.append(
            TracepointSpec(node=node.name, hook=HOOK_UDP_SEND_SKB, label=f"{node.name}:send")
        )
        points.append(
            TracepointSpec(
                node=node.name, hook=HOOK_SKB_COPY_DATAGRAM, label=f"{node.name}:recv"
            )
        )
    return points


def run_rpc_case(
    seed: int = 21,
    requests: int = 40,
    interval_ns: int = 1_000_000,
    shards: int = 1,
    graph: Optional[ServiceGraph] = None,
    bulk_bytes: int = DEFAULT_BULK_BYTES,
    sample_interval_ns: int = 50_000_000,
    window_ns: int = 50_000_000,
) -> RpcCaseResult:
    """Run the RPC scenario and return its artifacts.

    ``shards`` >= 1 runs on a compat-tier
    :class:`~repro.sim.ShardedEngine` (results are byte-identical at
    any shard count; the differential test pins 1 vs 4); ``shards=0``
    keeps the plain single-heap engine.
    """
    if shards:
        with engine_factory(lambda: ShardedEngine(shards=shards)):
            engine = new_engine()
    else:
        engine = new_engine()

    tracer = VNetTracer(engine)
    if isinstance(engine, ShardedEngine):
        engine.attach_metrics(tracer.obs)

    deployment = tracer.add_service_graph(graph or default_service_graph(), seed=seed)
    sampler = tracer.attach_stats_sampler(interval_ns=sample_interval_ns)
    streaming = tracer.attach_streaming(RPC_CHAIN, window_ns=window_ns, emit_interval_ns=window_ns)

    front = deployment.edge("client0", "lb0")
    client_node = deployment.service("client").node
    lb_node = deployment.service("lb").node
    sync = tracer.synchronize_clocks(
        client_node, front.caller_ip, f"dev:{front.caller_device}",
        lb_node, front.callee_ip, f"dev:{front.callee_device}",
        samples=30,
    )

    spec = TracingSpec(
        rule=FilterRule(dst_port=RPC_PORT, protocol=IPPROTO_UDP),
        tracepoints=_tracepoints(deployment),
    )

    # The background bulk flow server listens on lb0's front-edge IP.
    lb_node.tcp.listen(front.callee_ip, BULK_PORT)

    def start_bulk() -> None:
        conn = client_node.tcp.connect(front.caller_ip, front.callee_ip, BULK_PORT)
        previous = conn.on_established
        conn.on_established = lambda c: (
            previous(c) if previous else None,
            c.send_app_bytes(bulk_bytes),
        )

    def after_sync(estimate) -> None:
        tracer.deploy(spec)
        start_ns = engine.now + 2_000_000
        deployment.start_load(requests, interval_ns, start_ns=start_ns)
        if bulk_bytes > 0:
            engine.schedule(
                start_ns + (requests * interval_ns) // 3, start_bulk
            )

    previous = sync.on_done
    sync.on_done = lambda est: (previous(est), after_sync(est))

    engine.run(until=SYNC_BUDGET_NS + requests * interval_ns + SETTLE_NS)
    tracer.collect()
    streaming.close_all()
    forest = tracer.rpc_forest(deployment.links)
    chrome = chrome_trace_json(forest)
    sampler.sample_now()
    return RpcCaseResult(engine, tracer, tracer.obs, sampler, deployment, forest, streaming, chrome)


# -- deterministic digest (CLI + CI double-run + bench) -----------------------


def deterministic_doc(result: RpcCaseResult) -> dict:
    """The canonical run summary: everything observable, sorted."""
    registry = result.registry
    rpc_metrics = {
        name: registry.get(name).total()
        for name in registry.names()
        if name.startswith("vnt_rpc_")
    }
    return {
        "scenario": "rpc_case",
        "completed_requests": result.deployment.completed_requests,
        "latencies_ns": list(result.deployment.client_latencies),
        "links": {
            f"0x{child:08x}": [f"0x{parent:08x}" for parent in parents]
            for child, parents in sorted(result.deployment.links.items())
        },
        "trees": len(result.forest.trees),
        "spans": result.forest.span_count(),
        "metrics": rpc_metrics,
        "chrome_sha256": hashlib.sha256(result.chrome_json.encode()).hexdigest(),
        "streaming_sha256": hashlib.sha256(
            result.streaming.summary_json().encode()
        ).hexdigest(),
    }


def rpc_case_digest(seed: int = 21, requests: int = 12, shards: int = 1) -> str:
    """16-hex-char digest of a small deterministic run (the
    ScenarioSpec registry's digest hook)."""
    result = run_rpc_case(seed=seed, requests=requests, shards=shards)
    doc = deterministic_doc(result)
    return hashlib.sha256(canonical_json(doc).encode()).hexdigest()[:16]
