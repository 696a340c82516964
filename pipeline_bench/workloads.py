"""The five workloads: one pass each, split into timed stages.

A pass is the whole pipeline for one workload at one size: build ->
deploy -> run -> collect -> query -> reconstruct -> export.  Every call
into the program under test sits inside a ``with stages("<name>")``
block, so the stage times sum to the pass's wall time and the split is
taken from outside (nothing under ``src/`` is instrumented).

Each pass returns a :class:`PassResult` holding what the correctness
checks (``checks.py``) and the digest need.  The result keeps the big
artefacts (database, forests, exports) alive only until the child has
checked them.
"""

from __future__ import annotations

from contextlib import contextmanager
from time import perf_counter
from typing import Any, Callable, Dict, Iterator, List, NamedTuple, Optional, Tuple

from repro.core import FilterRule, GlobalConfig, TracepointSpec, TracingSpec, VNetTracer
from repro.core import metrics as core_metrics
from repro.core.collector import RawDataCollector
from repro.core.records import RECORD_BYTES
from repro.core.tracedb import TraceDB
from repro.experiments.macro_fleet import FleetConfig, run_macro_fleet
from repro.experiments.topologies import build_overlay_case, build_two_host_kvm
from repro.net.packet import IPPROTO_TCP, IPPROTO_UDP
from repro.obs.registry import MetricsRegistry
from repro.sim import ShardedEngine, engine_factory
from repro.sim.engine import Engine
from repro.streaming import StreamingAggregator, StreamingConfig
from repro.tracing import (
    SpanAssembler,
    aggregate_hops,
    chrome_trace_json,
    flag_anomalies,
    otlp_json,
)
from repro.workloads.netperf import NetperfClient, NetperfServer
from repro.workloads.sockperf import SockperfClient, SockperfServer

from pipeline_bench import generator
from pipeline_bench.spec import STAGES


class Stages:
    """Accumulating ``perf_counter`` timers, one per stage name.  A
    stage may be entered many times in a pass (the replay alternates
    ingest and query rounds); its time is the sum."""

    def __init__(self) -> None:
        self.seconds: Dict[str, float] = dict.fromkeys(STAGES, 0.0)

    @contextmanager
    def __call__(self, name: str) -> Iterator[None]:
        start = perf_counter()
        try:
            yield
        finally:
            self.seconds[name] += perf_counter() - start


class PassResult(NamedTuple):
    """What one pass leaves behind for the checks and the digest."""

    units: int  # deterministic work count (sim events, or records replayed)
    counts: Dict[str, int]  # exact counts; must repeat on every pass
    # (law, left, right): conservation equations that must balance --
    # every record is stored or lost with a reason.
    laws: List[Tuple[str, int, int]]
    outputs: List[Any]  # results folded into sim_digest by repr(), after the clock stops
    db: TraceDB
    forests: Dict[str, Any]  # name -> SpanForest
    exports: Dict[str, str]  # name -> exported JSON text ("<forest>.<format>")
    streaming: Optional[StreamingAggregator]
    query_round_s: List[float]  # wall time of each query round


class Workload(NamedTuple):
    name: str
    # prepare(seed, scale) -> inputs; run(inputs, stages) -> PassResult
    prepare: Callable[[int, float], Any]
    run: Callable[[Any, Stages], PassResult]


def _obs_counts(registry: MetricsRegistry) -> Dict[str, int]:
    """The record-path counters from the ``vnt_*`` snapshot."""
    names = {
        "ring_appends": "vnt_ring_appended_total",
        "ring_drops": "vnt_ring_dropped_total",
        "ring_flushes": "vnt_ring_flushes_total",
        "agent_shipments": "vnt_agent_batches_sent_total",
        "agent_records": "vnt_agent_records_forwarded_total",
        "collector_batches": "vnt_collector_batches_received_total",
        "collector_records": "vnt_collector_records_received_total",
        "dedup_batches": "vnt_fault_shipment_deduped_total",
        "records_lost": "vnt_fault_records_lost_total",
        "program_runs": "vnt_ebpf_runs_total",
    }
    return {
        key: int(registry.total(name)) if name in registry else 0
        for key, name in names.items()
    }


def _hook_fires(nodes) -> int:
    return sum(sum(node.hooks.fire_counts.values()) for node in nodes)


def _agent_laws(counts: Dict[str, int]) -> List[Tuple[str, int, int]]:
    """The record path where agents ship what the probes wrote."""
    return [
        ("ring appends = records forwarded", counts["ring_appends"], counts["agent_records"]),
        ("records forwarded = records received",
         counts["agent_records"], counts["collector_records"]),
        ("records received = rows stored", counts["collector_records"], counts["rows_stored"]),
        ("ring drops = records lost with a reason",
         counts["ring_drops"], counts["records_lost"]),
    ]


def _reconstruct(stages: Stages, build_forest: Callable[[], Any]):
    """The analysis tail every workload shares: the forest cold, then
    warm (a generation-keyed cache hit), then the critical-path pass."""
    with stages("forest"):
        forest = build_forest()
    with stages("forest_warm"):
        build_forest()
    with stages("critical"):
        hops = aggregate_hops(forest)
        anomalies = flag_anomalies(forest)
    return forest, hops, len(anomalies)


def _result(
    counts: Dict[str, int],
    laws: Callable[[Dict[str, int]], List[Tuple[str, int, int]]],
    outputs: List[Any],
    db: TraceDB,
    forests: Dict[str, Any],
    exports: Dict[str, str],
    streaming: Optional[StreamingAggregator] = None,
    query_round_s: Optional[List[float]] = None,
    units: Optional[int] = None,
) -> PassResult:
    """Close a pass: add the counts every workload reports the same
    way, zero the ones it has no layer for, and state its laws.
    ``units`` defaults to the simulated event count."""
    for idle in ("events", "shard_rounds", "boundary_messages", "hook_fires"):
        counts.setdefault(idle, 0)
    counts.update(
        bytes_shipped=counts["agent_records"] * RECORD_BYTES,
        rows_stored=db.rows_inserted,
        bytes_stored=db.bytes_stored(),
        trees=sum(len(forest.trees) for forest in forests.values()),
        orphan_records=sum(forest.orphan_records for forest in forests.values()),
        export_bytes=sum(len(text) for text in exports.values()),
        windows_closed=streaming.windows_closed if streaming is not None else 0,
        late_records=streaming.late_records if streaming is not None else 0,
    )
    return PassResult(
        units=counts["events"] if units is None else units,
        counts=counts,
        laws=laws(counts),
        outputs=outputs,
        db=db,
        forests=forests,
        exports=exports,
        streaming=streaming,
        query_round_s=query_round_s or [],
    )


# -- udp_trace / udp_untraced -------------------------------------------------

UDP_MPS = 20_000
UDP_DURATION_NS = 800_000_000
UDP_STREAM_WINDOW_NS = 50_000_000
UDP_FLUSH_NS = 5_000_000
UDP_PORT = 11111
UDP_CHAIN = ("vm1:udp_send", "host1:wire-out", "host2:wire-in", "vm2:app-copy")


class UdpInput(NamedTuple):
    seed: int
    duration_ns: int
    traced: bool


def _prepare_udp(traced: bool) -> Callable[[int, float], UdpInput]:
    def prepare(seed: int, scale: float) -> UdpInput:
        return UdpInput(seed, int(UDP_DURATION_NS * scale), traced)

    return prepare


def _run_udp(inp: UdpInput, stages: Stages) -> PassResult:
    events_before = Engine.global_events_executed()
    with stages("build"):
        with engine_factory(lambda: ShardedEngine(shards=2)):
            scene = build_two_host_kvm(seed=inp.seed)
        engine = scene.engine
        kernels = (scene.host1.node, scene.host2.node, scene.vm1.node, scene.vm2.node)
        server = SockperfServer(scene.vm2.node, scene.vm2_ip, port=UDP_PORT)
        client = SockperfClient(
            scene.vm1.node, scene.vm1_ip, scene.vm2_ip, server_port=UDP_PORT, mps=UDP_MPS
        )
        tracer = VNetTracer(engine)
        for kernel in kernels:
            tracer.add_agent(kernel)
    streaming = None
    with stages("deploy"):
        if inp.traced:
            # The quickstart order: synchronize clocks, then deploy, so
            # every stored row is aligned at insert time.
            sync = tracer.synchronize_clocks(
                scene.host1.node, scene.host1_ip, "dev:eth0",
                scene.host2.node, scene.host2_ip, "dev:eth0",
            )
            record = sync.on_done
            sync.on_done = lambda est: (
                record(est),
                tracer.db.set_clock_skew(scene.vm2.node.name, est.skew_ns),
            )
            engine.run(until=400_000_000)
            hooks = (
                (scene.vm1.node, "kprobe:udp_send_skb"),
                (scene.host1.node, "dev:eth0"),
                (scene.host2.node, "dev:eth0"),
                (scene.vm2.node, "kprobe:skb_copy_datagram_iovec"),
            )
            spec = TracingSpec(
                rule=FilterRule(dst_port=UDP_PORT, protocol=IPPROTO_UDP),
                tracepoints=[
                    # Explicit ids: the process-global allocator would
                    # hand every pass different ones.
                    TracepointSpec(node=node.name, hook=hook, label=label,
                                   tracepoint_id=101 + index)
                    for index, ((node, hook), label) in enumerate(zip(hooks, UDP_CHAIN))
                ],
                global_config=GlobalConfig(
                    online_collection=True, flush_interval_ns=UDP_FLUSH_NS
                ),
            )
            streaming = tracer.attach_streaming(UDP_CHAIN, window_ns=UDP_STREAM_WINDOW_NS)
            tracer.deploy(spec)
        # Both twins idle to the same instant, so the traffic starts at
        # the same virtual time with and without tracing.
        engine.run(until=402_000_000)
    with stages("run"):
        client.start(inp.duration_ns)
        engine.run(until=402_000_000 + inp.duration_ns + 20_000_000)
    with stages("collect"):
        tracer.collect()
        if streaming is not None:
            streaming.close_all()
    forests: Dict[str, Any] = {}
    exports: Dict[str, str] = {}
    outputs: List[Any] = [client.summary()]
    if inp.traced:
        with stages("query"):
            segments = tracer.decompose(UDP_CHAIN)
            throughput = tracer.throughput(UDP_CHAIN[-1])
            loss = tracer.loss(UDP_CHAIN[0], UDP_CHAIN[-1])
        forest, hops, anomalies = _reconstruct(stages, lambda: tracer.span_forest(UDP_CHAIN))
        with stages("export_chrome"):
            exports["packets.chrome"] = chrome_trace_json(forest)
        forests["packets"] = forest
        outputs += [segments, throughput, loss, hops, anomalies, streaming.summary_json()]
    counts = _obs_counts(tracer.obs)
    counts.update(
        events=Engine.global_events_executed() - events_before,
        shard_rounds=engine.rounds,
        boundary_messages=engine.boundary_events,
        hook_fires=_hook_fires(kernels),
        messages_offered=inp.duration_ns * UDP_MPS // 10**9,
        messages_sent=client.sent,
        messages_delivered=server.requests,
        replies_received=client.received,
    )

    def laws(c: Dict[str, int]) -> List[Tuple[str, int, int]]:
        twin = (
            ("one row per message per tracepoint", c["rows_stored"], 4 * c["messages_sent"])
            if inp.traced
            else ("untraced twin stores no rows and runs no program",
                  c["rows_stored"] + c["program_runs"], 0)
        )
        return _agent_laws(c) + [
            ("messages sent = offered load", c["messages_sent"], c["messages_offered"]),
            ("messages delivered = messages sent", c["messages_delivered"], c["messages_sent"]),
            ("replies received = messages sent", c["replies_received"], c["messages_sent"]),
            twin,
        ]

    return _result(counts, laws, outputs, tracer.db, forests, exports, streaming)


# -- tcp_bulk_overlay ---------------------------------------------------------

TCP_DURATION_NS = 120_000_000
TCP_PORT = 12865
TCP_GSO_BYTES = 65160
TCP_FLUSH_NS = 2_000_000


class TcpInput(NamedTuple):
    seed: int
    duration_ns: int


def _prepare_tcp(seed: int, scale: float) -> TcpInput:
    return TcpInput(seed, int(TCP_DURATION_NS * scale))


def _run_tcp(inp: TcpInput, stages: Stages) -> PassResult:
    events_before = Engine.global_events_executed()
    with stages("build"):
        scene = build_overlay_case(seed=inp.seed)
        engine = scene.engine
        receiver = scene.vm2.node
        server = NetperfServer(scene.container2.node, scene.c2_ip, port=TCP_PORT, cpu_index=1)
        client = NetperfClient(
            scene.container1.node, scene.c1_ip, scene.c2_ip, server_port=TCP_PORT,
            mode="TCP_STREAM", gso_bytes=TCP_GSO_BYTES, cpu_index=1,
        )
        tracer = VNetTracer(engine)
        tracer.add_agent(scene.vm1.node)
        tracer.add_agent(receiver)
    with stages("deploy"):
        devices = [name for name in receiver.devices if name != "lo"]
        hooks = [f"dev:{name}" for name in devices] + ["kretprobe:tcp_recvmsg"]
        # veth names come from a process-global counter; label them by
        # kind so every pass stores the same tables.
        labels = [
            "vm2:veth" if name.startswith("veth") else f"vm2:{name}" for name in devices
        ] + ["vm2:tcp_recvmsg"]
        spec = TracingSpec(
            rule=FilterRule(dst_ip=scene.c2_ip, dst_port=TCP_PORT, protocol=IPPROTO_TCP),
            tracepoints=[
                TracepointSpec(node=receiver.name, hook=hook, label=label,
                               strip_vxlan=True, id_mode="tcp-option",
                               tracepoint_id=201 + index)
                for index, (hook, label) in enumerate(zip(hooks, labels))
            ],
            # Flush often enough that the 64 KB ring never fills: a
            # workload on which no record is dropped.
            global_config=GlobalConfig(flush_interval_ns=TCP_FLUSH_NS),
        )
        tracer.deploy(spec)
        engine.run(until=2_000_000)
    with stages("run"):
        client.start(inp.duration_ns)
        engine.run(until=2_000_000 + inp.duration_ns + 20_000_000)
    with stages("collect"):
        tracer.collect()
    with stages("query"):
        throughput = [tuple(tracer.throughput(label)) for label in labels]
        loss = tracer.loss(labels[0], labels[-1])
        cpus = tracer.cpu_distribution(labels[0])
    forest, hops, anomalies = _reconstruct(stages, tracer.span_forest)
    exports = {}
    with stages("export_chrome"):
        exports["packets.chrome"] = chrome_trace_json(forest)
    kernels = (scene.host.node, scene.vm1.node, receiver,
               scene.container1.node, scene.container2.node)
    counts = _obs_counts(tracer.obs)
    counts.update(
        events=Engine.global_events_executed() - events_before,
        hook_fires=_hook_fires(kernels),
        bytes_received=server.bytes_received,
    )
    outputs = [server.bytes_received, throughput, loss, cpus, hops, anomalies]
    return _result(counts, _agent_laws, outputs, tracer.db, {"packets": forest}, exports)


# -- fleet_sharded ------------------------------------------------------------

FLEET_TICKS = 200
FLEET_SHARDS = 16


class FleetInput(NamedTuple):
    config: FleetConfig


def _prepare_fleet(seed: int, scale: float) -> FleetInput:
    return FleetInput(FleetConfig(ticks=max(4, int(FLEET_TICKS * scale)), seed=seed))


def _run_fleet(inp: FleetInput, stages: Stages) -> PassResult:
    events_before = Engine.global_events_executed()
    with stages("run"):
        result = run_macro_fleet(inp.config, shards=FLEET_SHARDS, workers=False)
    forest, hops, anomalies = _reconstruct(stages, SpanAssembler(result.db).forest)
    exports = {}
    with stages("export_chrome"):
        exports["packets.chrome"] = chrome_trace_json(forest)
    counts = _obs_counts(MetricsRegistry())  # no tracer: every record counter reads 0
    counts.update(
        events=Engine.global_events_executed() - events_before,
        shard_rounds=int(result.metrics["rounds"]),
        boundary_messages=int(result.metrics["boundary_messages"]),
        stream_records=result.streaming.records,
    )
    outputs = [result.digest16, result.streaming.summary_json(), hops, anomalies]

    def laws(c: Dict[str, int]) -> List[Tuple[str, int, int]]:
        # The fleet merges per-shard blobs without agents or a collector.
        return [("rows merged = records streamed", c["rows_stored"], c["stream_records"])]

    return _result(
        counts, laws, outputs, result.db, {"packets": forest}, exports, result.streaming
    )


# -- analysis_replay ----------------------------------------------------------

REPLAY_TRACES = 48_000
REPLAY_QUERY_EVERY = 16  # shipment windows between query rounds
REPLAY_LOOKUPS = 25
REPLAY_OTLP_TRACES = 2_000
REPLAY_STREAM_WINDOW_NS = 10_000_000


def _prepare_replay(seed: int, scale: float) -> generator.ReplayInput:
    return generator.generate(seed, max(600, int(REPLAY_TRACES * scale)))


def _run_replay(inp: generator.ReplayInput, stages: Stages) -> PassResult:
    chain = generator.CHAIN
    first, last = chain[0], chain[-1]
    with stages("build"):
        registry = MetricsRegistry()
        db = TraceDB(registry=registry)
        db.set_clock_skew("rx", generator.RX_SKEW_NS)
        collector = RawDataCollector(Engine(), db, registry=registry)
        collector.register_labels(generator.LABELS)
        stream_config = StreamingConfig(chain=chain, window_ns=REPLAY_STREAM_WINDOW_NS)
        streaming = StreamingAggregator(stream_config, registry=registry)
        streaming.attach(collector)
        streaming.expect_nodes(generator.NODES)
        assembler = SpanAssembler(db, registry=registry)
    query_round_s: List[float] = []
    outputs: List[Any] = [inp.sha256]

    def query_round(upto_trace: int) -> None:
        start = perf_counter()
        with stages("query"):
            latencies = core_metrics.latency_between(db, first, last)
            segments = core_metrics.decompose_latency(db, chain)
            throughput = core_metrics.throughput_at(db, last)
            loss = core_metrics.packet_loss(db, first, last)
            cpus = core_metrics.per_cpu_distribution(db, last)
            rows = 0
            for trace_id in range(max(1, upto_trace - REPLAY_LOOKUPS + 1), upto_trace + 1):
                rows += len(db.rows_for_trace(trace_id))
        query_round_s.append(perf_counter() - start)
        # Every round's sizes, and the last round's full answers.
        outputs.append((len(latencies), len(segments[-1].latencies_ns), throughput, loss, rows))
        if upto_trace == inp.traces:
            outputs.extend((latencies, segments, cpus))

    windows_seen = set()
    for node, seq, blob in inp.deliveries:
        with stages("run"):
            collector.receive_batch(node, blob, seq=seq)
        if node == generator.NODES[-1] and seq not in windows_seen:
            windows_seen.add(seq)
            if len(windows_seen) % REPLAY_QUERY_EVERY == 0:
                query_round(min(seq * generator.TRACES_PER_SHIPMENT, inp.traces))
    with stages("collect"):
        streaming.close_all()
    query_round(inp.traces)
    forest, hops, anomalies = _reconstruct(stages, assembler.forest)
    with stages("rpc_forest"):
        rpc = assembler.rpc_forest(inp.links)
    exports = {}
    with stages("export_chrome"):
        exports["packets.chrome"] = chrome_trace_json(forest)
        exports["requests.chrome"] = chrome_trace_json(rpc)
    with stages("export_otlp"):
        sliced = assembler.forest(
            trace_ids=range(1, min(REPLAY_OTLP_TRACES, inp.traces) + 1)
        )
        exports["slice.otlp"] = otlp_json(sliced)
    counts = _obs_counts(registry)
    counts.update(
        records_sent=inp.records,
        deliveries=len(inp.deliveries),
        duplicates_sent=inp.duplicate_deliveries,
        query_rounds=len(query_round_s),
        anomalies=anomalies,
    )
    outputs += [streaming.summary_json(), hops]

    def laws(c: Dict[str, int]) -> List[Tuple[str, int, int]]:
        return [
            ("records sent = records received", c["records_sent"], c["collector_records"]),
            ("records received = rows stored", c["collector_records"], c["rows_stored"]),
            ("duplicate deliveries = deduped batches", c["duplicates_sent"], c["dedup_batches"]),
            ("deliveries = applied + deduped batches",
             c["deliveries"], c["collector_batches"] + c["dedup_batches"]),
        ]

    return _result(
        counts, laws, outputs, db, {"packets": forest, "requests": rpc, "slice": sliced},
        exports, streaming, query_round_s, units=inp.records,
    )


WORKLOADS = {
    w.name: w
    for w in (
        Workload("udp_trace", _prepare_udp(True), _run_udp),
        Workload("udp_untraced", _prepare_udp(False), _run_udp),
        Workload("tcp_bulk_overlay", _prepare_tcp, _run_tcp),
        Workload("fleet_sharded", _prepare_fleet, _run_fleet),
        Workload("analysis_replay", _prepare_replay, _run_replay),
    )
}
