"""Layer tracing from outside: timing wrappers on public entry points.

``LayerTrace`` replaces a fixed table of ``module:Class.method`` and
``module:function`` targets with wrappers for the duration of one
traced pass, then puts the originals back, so measured passes never see
a wrapper.  Nothing under ``src/`` is edited.

Every wrapped call is a span: entry point, start, end, and the entry
point that caused it (the innermost wrapped call on the stack; engine
callbacks therefore nest under ``Engine.run``).  A span's *self time*
is its duration minus the part its child spans cover.  Calls are far
too many to keep one by one, so they are aggregated per (entry point,
causing entry point) as count, total ns and self ns; individual spans
are kept only for stage-level entry points and for calls of at least
``KEEP_SPAN_NS``, capped at ``MAX_SPANS``, and can be written as Chrome
trace-event JSON.

The table is validated before anything is patched: a target that does
not resolve to a plain function is a hard error, so a later rename
cannot silently report zeros.
"""

from __future__ import annotations

import importlib
import json
import sys
from time import perf_counter_ns
from types import FunctionType
from typing import Dict, Iterable, List, NamedTuple, Optional, Tuple

KEEP_SPAN_NS = 100_000
MAX_SPANS = 200_000
ROOT = "bench"  # the pseudo entry point every top-level call nests under

# layer -> targets.  A leading "*" marks a stage-level entry point whose
# every call is kept as an individual span.
TARGETS: Dict[str, Tuple[str, ...]] = {
    "sim": (
        "*repro.sim.engine:Engine.run",
        "*repro.sim.shard:ShardedEngine.run",
        "*repro.sim.coordinator:ShardCoordinator.run",
        "repro.sim.cpu:CPU.submit",
    ),
    "net": (
        "repro.net.stack:KernelNode.udp_send",
        "repro.net.stack:KernelNode.send_ip",
        "repro.net.stack:KernelNode.l3_receive",
        "repro.net.device:NetDevice.transmit",
        "repro.net.device:NetDevice.receive",
        "repro.net.bridge:BridgeDevice.ingress",
        "repro.net.softirq:SoftirqNet.enqueue",
        "repro.net.gso:GROEngine.push",
        "repro.net.gso:segment_packet",
        "repro.net.packet:Packet.clone",
        "repro.net.tcp:TCPStack.handle_segment",
    ),
    "virt": (
        "repro.virt.ovs:OVSBridge.ingress",
        "repro.virt.ovs:OVSPort.submit",
        "repro.net.vxlan:VXLANDevice._encapsulate",
        "repro.net.vxlan:VXLANDevice.decap_receive",
    ),
    "ebpf": (
        "repro.ebpf.probes:HookRegistry.fire",
        "repro.ebpf.vm:BPFProgram.run",
        "*repro.ebpf.vm:BPFProgram.load",
    ),
    "core.ring": (
        "repro.core.ringbuffer:TraceRingBuffer.append",
        "repro.core.ringbuffer:TraceRingBuffer.flush",
    ),
    "core.agent": (
        "*repro.core.agent:Agent.install",
        "*repro.core.agent:Agent.collect_local",
        "*repro.core.dispatcher:ControlDataDispatcher.deploy",
    ),
    "core.collector": (
        "repro.core.collector:RawDataCollector.receive_batch",
        "*repro.core.collector:RawDataCollector.collect_all_offline",
    ),
    "core.tracedb": ("repro.core.tracedb:TraceDB.insert_packed",),
    "core.metrics": (
        "*repro.core.metrics:throughput_at",
        "*repro.core.metrics:latency_between",
        "*repro.core.metrics:decompose_latency",
        "*repro.core.metrics:packet_loss",
        "*repro.core.metrics:per_cpu_distribution",
    ),
    "streaming": (
        "repro.streaming.aggregate:StreamingAggregator.observe_ingest",
        "repro.streaming.aggregate:StreamingAggregator.observe_batch",
        "repro.streaming.aggregate:StreamingAggregator.observe_packed",
        "*repro.streaming.aggregate:StreamingAggregator.close_all",
    ),
    "tracing": (
        "*repro.tracing.reconstruct:SpanAssembler.forest",
        "*repro.tracing.reconstruct:SpanAssembler.rpc_forest",
        "*repro.tracing.critical:aggregate_hops",
        "*repro.tracing.critical:flag_anomalies",
        "*repro.tracing.export:chrome_trace_json",
        "*repro.tracing.export:otlp_json",
    ),
}
# Event loops: their self time is the loop plus every callback no table
# entry covers, which is what ``trace.unattributed_share`` reports.
EVENT_LOOPS = ("Engine.run", "ShardedEngine.run")


class TraceError(RuntimeError):
    """The wrap table does not match the code."""


class _Target(NamedTuple):
    layer: str
    name: str  # "Class.method" or "function"
    owner: object  # class or module holding the attribute
    attr: str
    original: FunctionType
    keep: bool


class CallStats(NamedTuple):
    count: int
    total_ns: int
    self_ns: int


def resolve(layer: str, spec: str) -> _Target:
    """Look one table entry up; raise :class:`TraceError` unless it is a
    plain Python function reachable exactly where the table says."""
    keep = spec.startswith("*")
    module_name, _, path = spec.lstrip("*").partition(":")
    try:
        owner: object = importlib.import_module(module_name)
    except ImportError as error:
        raise TraceError(f"{spec}: cannot import {module_name}: {error}") from None
    parts = path.split(".")
    for part in parts[:-1]:
        owner = getattr(owner, part, None)
        if owner is None:
            raise TraceError(f"{spec}: {part!r} not found in {module_name}")
    attr = parts[-1]
    # vars(), not getattr: a method inherited from a base class is the
    # base's table entry, and a static/class method is not a function.
    original = vars(owner).get(attr)
    if not isinstance(original, FunctionType):
        raise TraceError(
            f"{spec}: expected a plain function defined on {owner!r}, "
            f"found {type(original).__name__}"
        )
    return _Target(layer, path, owner, attr, original, keep)


class LayerTrace:
    """Install the wrappers, run the traced pass, remove them."""

    def __init__(
        self,
        targets: Optional[Dict[str, Tuple[str, ...]]] = None,
        alias_prefixes: Iterable[str] = ("repro", "pipeline_bench"),
    ):
        table = TARGETS if targets is None else targets
        # Validation happens here, before the pass and before any patch.
        self.targets: List[_Target] = [
            resolve(layer, spec) for layer, specs in table.items() for spec in specs
        ]
        names = [t.name for t in self.targets]
        if len(set(names)) != len(names):
            raise TraceError(f"duplicate entry point names in the table: {names}")
        self._alias_prefixes = tuple(alias_prefixes)
        self._patched: List[Tuple[object, str, object]] = []
        self._names = [ROOT] + names
        # frame = [entry index, child ns]; the root frame stays at the bottom.
        self._stack: List[List[int]] = [[0, 0]]
        self._agg: Dict[Tuple[int, int], List[int]] = {}
        self.spans: List[Tuple[int, int, int, int]] = []  # (entry, cause, start, end)
        self.dropped_spans = 0
        self.excluded_ns = 0
        self._root_start = 0
        self._root_end = 0

    # -- patching ----------------------------------------------------------

    def _wrap(self, index: int, target: _Target):
        fn = target.original
        keep = target.keep
        stack = self._stack
        agg = self._agg
        spans = self.spans
        clock = perf_counter_ns

        def wrapper(*args, **kwargs):
            parent = stack[-1]
            frame = [index, 0]
            stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                parent[1] += duration
                key = (index, parent[0])
                stats = agg.get(key)
                if stats is None:
                    agg[key] = [1, duration, duration - frame[1]]
                else:
                    stats[0] += 1
                    stats[1] += duration
                    stats[2] += duration - frame[1]
                if keep or duration >= KEEP_SPAN_NS:
                    if len(spans) < MAX_SPANS:
                        spans.append((index, parent[0], start, end))
                    else:
                        self.dropped_spans += 1

        wrapper.__name__ = fn.__name__
        return wrapper

    def _patch(self, owner: object, attr: str, value: object) -> None:
        self._patched.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def install(self) -> None:
        if self._patched:
            raise TraceError("layer trace is already installed")
        modules = [
            module
            for name, module in list(sys.modules.items())
            if module is not None and name.split(".")[0] in self._alias_prefixes
        ]
        for index, target in enumerate(self.targets, start=1):
            wrapper = self._wrap(index, target)
            self._patch(target.owner, target.attr, wrapper)
            if isinstance(target.owner, type):
                continue
            # A module-level function: every ``from m import f`` made a
            # second binding that has to point at the wrapper too.
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is target.original and module is not target.owner:
                        self._patch(module, attr, wrapper)
        self._root_start = perf_counter_ns()

    def remove(self) -> None:
        self._root_end = perf_counter_ns()
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    @property
    def installed(self) -> bool:
        return bool(self._patched)

    def __enter__(self) -> "LayerTrace":
        self.install()
        return self

    def __exit__(self, *_exc) -> None:
        self.remove()

    def exclude(self, seconds: float) -> None:
        """Time spent by the harness inside the current call (a
        calibration sample): charge it as a child so it leaves the self
        time of the interrupted entry point, and the traced wall."""
        ns = int(seconds * 1e9)
        self._stack[-1][1] += ns
        self.excluded_ns += ns

    # -- results -----------------------------------------------------------

    def calls(self) -> Dict[Tuple[str, str], CallStats]:
        """(entry point, causing entry point) -> count, total ns, self ns."""
        names = self._names
        return {
            (names[entry], names[cause]): CallStats(*stats)
            for (entry, cause), stats in self._agg.items()
        }

    def by_entry(self) -> Dict[str, CallStats]:
        merged: Dict[str, List[int]] = {}
        for (entry, _cause), stats in self.calls().items():
            into = merged.setdefault(entry, [0, 0, 0])
            for i in range(3):
                into[i] += stats[i]
        return {entry: CallStats(*stats) for entry, stats in merged.items()}

    def layer_self_ns(self) -> Dict[str, int]:
        """Self time per layer, event loops excluded (see
        :meth:`unattributed_ns`)."""
        by_entry = self.by_entry()
        totals = dict.fromkeys((t.layer for t in self.targets), 0)
        for target in self.targets:
            if target.name not in EVENT_LOOPS and target.name in by_entry:
                totals[target.layer] += by_entry[target.name].self_ns
        return totals

    def wall_ns(self) -> int:
        """install() to remove(), minus excluded harness time.  Every
        self time plus :meth:`root_self_ns` adds up to exactly this."""
        return self._root_end - self._root_start - self.excluded_ns

    def root_self_ns(self) -> int:
        """The harness's own code, outside every wrapped call."""
        return self._root_end - self._root_start - self._stack[0][1]

    def unattributed_ns(self) -> int:
        """Time in no layer's entry points: the harness's own code at
        the root plus the event loops' self time."""
        by_entry = self.by_entry()
        return self.root_self_ns() + sum(
            by_entry[name].self_ns for name in EVENT_LOOPS if name in by_entry
        )

    def write_chrome_trace(self, path: str) -> None:
        """The kept spans as Chrome trace-event JSON (open in Perfetto)."""
        names = self._names
        layer_of = {t.name: t.layer for t in self.targets}
        base = self._root_start
        events = [
            {
                "name": names[entry],
                "cat": layer_of[names[entry]],
                "ph": "X",
                "pid": 1,
                "tid": 1,
                "ts": (start - base) / 1e3,
                "dur": (end - start) / 1e3,
                "args": {"cause": names[cause]},
            }
            for entry, cause, start, end in self.spans
        ]
        events.sort(key=lambda event: (event["ts"], -event["dur"]))
        document = {
            "displayTimeUnit": "ms",
            "otherData": {
                "generator": "pipeline_bench.layertrace",
                "dropped_spans": self.dropped_spans,
            },
            "traceEvents": events,
        }
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(document, handle, separators=(",", ":"))
