"""Cross-node clock synchronization via Cristian's algorithm (§III-B).

Exactly the paper's Fig. 4 procedure: tracing scripts attach at the NIC
interfaces of the master and a monitored node; sequential UDP
ping-pongs record T1 (master tx), T2 (node rx), T3 (node tx), T4
(master rx) *using each node's own CLOCK_MONOTONIC through
bpf_ktime_get_ns()*.  With 100 samples, the minimum of
(RTT - processing)/2 estimates the one-way transmission time, and the
skew is T1 + T_1wt - T2 evaluated at that minimal sample.

The probes are real compiled eBPF programs: one filtering the sync
port as destination (requests -> T1/T2) and one as source
(replies -> T3/T4), so the four timestamp streams separate cleanly.
"""

from __future__ import annotations

from typing import Callable, List, NamedTuple, Optional

from repro.core.compiler import compile_script
from repro.core.config import ActionSpec, FilterRule, ID_MODE_NONE, TracepointSpec
from repro.core.records import TraceRecord
from repro.ebpf.maps import PerfEventArray
from repro.ebpf.probes import EBPFAttachment
from repro.ebpf.vm import ExecutionEnv
from repro.net.addressing import IPv4Address
from repro.net.packet import IPPROTO_UDP
from repro.net.stack import KernelNode
from repro.obs import contract as obs_contract
from repro.obs.registry import MetricsRegistry

DEFAULT_SYNC_PORT = 19997
DEFAULT_SAMPLES = 100


class SkewEstimate(NamedTuple):
    """Result of one synchronization run."""

    skew_ns: int  # ADD to monitored-node timestamps to get master time
    one_way_ns: int  # estimated minimal one-way transmission time
    rtt_min_ns: int
    samples: int


class _ProbePoint:
    """One compiled program attached at a NIC hook; timestamps in order."""

    def __init__(self, node: KernelNode, hook: str, rule: FilterRule, label: str):
        self.node = node
        self.hook = hook
        self.timestamps: List[int] = []
        perf = PerfEventArray(num_cpus=len(node.cpus), name=f"sync:{label}")
        perf.set_consumer(self._on_record)
        tracepoint = TracepointSpec(
            node=node.name, hook=hook, id_mode=ID_MODE_NONE, label=f"sync:{label}"
        )
        program, maps = compile_script(
            rule, tracepoint, ActionSpec(record=True), perf_map=perf
        )
        program.load()
        env = ExecutionEnv(maps=maps, clock=node.clock.monotonic_ns)
        self.attachment = EBPFAttachment(program, env, hook_id=tracepoint.tracepoint_id)
        node.hooks.attach(hook, self.attachment)

    def _on_record(self, raw: bytes) -> None:
        self.timestamps.append(TraceRecord.unpack(raw).timestamp_ns)

    def detach(self) -> None:
        self.node.hooks.detach(self.hook, self.attachment)


class ClockSynchronizer:
    """Runs the Fig. 4 exchange between the master and one node."""

    def __init__(
        self,
        master_node: KernelNode,
        master_ip: IPv4Address,
        master_nic_hook: str,
        target_node: KernelNode,
        target_ip: IPv4Address,
        target_nic_hook: str,
        samples: int = DEFAULT_SAMPLES,
        port: int = DEFAULT_SYNC_PORT,
        interval_ns: int = 500_000,
        registry: Optional[MetricsRegistry] = None,
    ):
        self.master_node = master_node
        self.target_node = target_node
        self.registry = registry if registry is not None else MetricsRegistry()
        self.master_ip = master_ip
        self.target_ip = target_ip
        self.samples = samples
        self.port = port
        self.interval_ns = interval_ns
        self.engine = master_node.engine

        request_rule = FilterRule(dst_port=port, protocol=IPPROTO_UDP)
        reply_rule = FilterRule(src_port=port, protocol=IPPROTO_UDP)
        self._t1 = _ProbePoint(master_node, master_nic_hook, request_rule, "t1")
        self._t2 = _ProbePoint(target_node, target_nic_hook, request_rule, "t2")
        self._t3 = _ProbePoint(target_node, target_nic_hook, reply_rule, "t3")
        self._t4 = _ProbePoint(master_node, master_nic_hook, reply_rule, "t4")

        self._server = target_node.bind_udp(target_ip, port)
        self._server.on_receive = self._echo
        # The client must NOT use the sync port as its source, or the
        # request- and reply-filter programs would both match both
        # directions and the four timestamp streams would interleave.
        self._client = master_node.bind_udp(master_ip, port + 1)
        self._client.on_receive = self._on_reply
        self._sent = 0
        self._received = 0
        self.result: Optional[SkewEstimate] = None
        self.on_done: Optional[Callable[[SkewEstimate], None]] = None

    def programs(self) -> List:
        """The four compiled probe programs (for eBPF cost accounting)."""
        return [
            point.attachment.program
            for point in (self._t1, self._t2, self._t3, self._t4)
        ]

    # -- exchange -------------------------------------------------------------

    def start(self) -> None:
        self._send_next()

    def _send_next(self) -> None:
        if self._sent >= self.samples:
            return
        self._sent += 1
        self._client.sendto(self.target_ip, self.port, b"\x00" * 16, app="clocksync")

    def _echo(self, payload: bytes, src_ip, src_port, _packet) -> None:
        self._server.sendto(src_ip, src_port, payload, app="clocksync-reply")

    def _on_reply(self, _payload: bytes, _src, _port, _packet) -> None:
        self._received += 1
        if self._received >= self.samples:
            self._finish()
        else:
            # Strictly sequential samples keep the four streams index-aligned.
            self.engine.schedule(self.interval_ns, self._send_next)

    # -- estimation -----------------------------------------------------------------

    def _finish(self) -> None:
        n = min(
            len(self._t1.timestamps),
            len(self._t2.timestamps),
            len(self._t3.timestamps),
            len(self._t4.timestamps),
        )
        if n == 0:
            raise RuntimeError("clock sync: no samples recorded")
        best_owt = None
        best_index = 0
        rtt_min = None
        for i in range(n):
            rtt = self._t4.timestamps[i] - self._t1.timestamps[i]
            processing = self._t3.timestamps[i] - self._t2.timestamps[i]
            owt = (rtt - processing) // 2
            if best_owt is None or owt < best_owt:
                best_owt = owt
                best_index = i
            if rtt_min is None or rtt < rtt_min:
                rtt_min = rtt
        # Skew to ADD to target timestamps: master_time - target_time.
        skew = (self._t1.timestamps[best_index] + best_owt) - self._t2.timestamps[best_index]
        self.result = SkewEstimate(
            skew_ns=skew, one_way_ns=best_owt, rtt_min_ns=rtt_min, samples=n
        )
        self._export_round(self.result)
        self._teardown()
        if self.on_done is not None:
            self.on_done(self.result)

    def _export_round(self, estimate: SkewEstimate) -> None:
        """Export the round to the ``clocksync`` obs stage.  The residual
        error gauge is Cristian's accuracy bound: the estimate is within
        +/- the minimal one-way transmission time of the true skew."""
        node = (self.target_node.name,)
        self.registry.register_spec(obs_contract.CLOCKSYNC_ROUNDS).inc()
        self.registry.register_spec(obs_contract.CLOCKSYNC_SKEW).set(
            estimate.skew_ns, labels=node)
        self.registry.register_spec(obs_contract.CLOCKSYNC_RESIDUAL).set(
            estimate.one_way_ns, labels=node)
        self.registry.register_spec(obs_contract.CLOCKSYNC_RTT_MIN).set(
            estimate.rtt_min_ns, labels=node)

    def _teardown(self) -> None:
        for point in (self._t1, self._t2, self._t3, self._t4):
            point.detach()
        self._client.close()
        self._server.close()
