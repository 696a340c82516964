"""The per-node tracing agent (the daemon of §III-A/E).

An agent sleeps until the dispatcher delivers a control package, then:

1. compiles each tracepoint's script to eBPF bytecode
   (:mod:`repro.core.compiler`);
2. loads it -- verification (and JIT) time is charged on the node's
   CPU 0, so deploying tracing is itself visible in the timeline;
3. attaches it at the configured hook with the node's clock and a
   per-agent perf-event consumer feeding the kernel ring buffer;
4. periodically flushes the ring buffer to a local store and, online or
   at collection time, ships batches to the collector with simulated
   CPU + transfer costs;
5. heartbeats to the collector.

``teardown()`` detaches everything -- the paper's "reconfigured ...
during the system runtime" path is deploy/teardown/deploy.

Resilience (docs/FAULTS.md):

* installation is *idempotent*: deliveries carry a monotone deploy ID,
  a duplicate of the current deploy acks without reinstalling, and a
  stale (superseded) one is ignored;
* online shipment is *at-least-once*: each batch gets a per-node
  sequence number and is retransmitted (capped exponential backoff,
  ``GlobalConfig.ship_max_attempts`` budget) until the collector's ack
  arrives; the collector dedups on (node, seq) and applies batches in
  sequence order, so retries cannot duplicate or reorder rows.
  Retransmissions re-send the already-serialized buffer and charge no
  extra agent CPU -- only the first send pays the batch cost, keeping
  the data-plane timing of a faulty run identical to a fault-free one;
* ``crash()`` models the daemon dying: scripts detach, buffered and
  in-flight records are discarded *with exact loss accounting*
  (``vnt_fault_records_lost_total``), abandoned sequence numbers post
  gap notices so the collector's resequencer never wedges, and
  ``restart()`` reinstalls the last package (shipment seqs continue,
  never reuse).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple, TYPE_CHECKING

from repro.core.compiler import compile_script
from repro.core.config import ControlPackage
from repro.core.delivery import AtLeastOnceSender, Delivery
from repro.core.records import RECORD_BYTES
from repro.core.ringbuffer import FLUSH_FIXED_COST_NS, TraceRingBuffer
from repro.ebpf.maps import PerCPUArrayMap, PerfEventArray
from repro.ebpf.probes import EBPFAttachment
from repro.ebpf.vm import BPFProgram, ExecutionEnv
from repro.faults.metrics import FaultMetrics
from repro.net.stack import KernelNode
from repro.obs import contract as obs_contract
from repro.obs.registry import MetricsRegistry

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.collector import RawDataCollector
    from repro.faults.inject import FaultInjector

# Shipping a batch to the collector: syscall + send cost per batch plus
# a per-byte serialization term (only when collection is online).
BATCH_FIXED_COST_NS = 4_000
BATCH_NS_PER_BYTE = 0.35
# Agent -> collector network latency for one online batch (or its ack).
SHIP_NET_LATENCY_NS = 200_000
# Backoff before shipment attempt N (N >= 2): min(base * 2**(N-2), cap),
# on top of the ack timeout.
SHIP_BACKOFF_BASE_NS = 1_000_000
SHIP_BACKOFF_CAP_NS = 16_000_000
# Admit probability of the "sample" ring policy once the ring is full.
RING_SAMPLE_PROB = 0.5
# Agent -> collector liveness report period.
HEARTBEAT_INTERVAL_NS = 100_000_000


class InstalledScript:
    """Bookkeeping for one attached tracing script."""

    def __init__(
        self,
        label: str,
        hook: str,
        attachment: EBPFAttachment,
        perf_map: PerfEventArray,
        counter_map: Optional[PerCPUArrayMap],
        histogram_map: Optional[PerCPUArrayMap] = None,
    ):
        self.label = label
        self.hook = hook
        self.attachment = attachment
        self.perf_map = perf_map
        self.counter_map = counter_map
        self.histogram_map = histogram_map

    def counter_value(self) -> int:
        if self.counter_map is None:
            return 0
        return self.counter_map.sum_u64(0)

    def histogram(self) -> List[int]:
        """Per-bucket totals aggregated across CPUs (log2 size hist)."""
        if self.histogram_map is None:
            return []
        return [
            self.histogram_map.sum_u64(i)
            for i in range(self.histogram_map.max_entries)
        ]


class Agent:
    """One monitoring daemon."""

    def __init__(
        self,
        node: KernelNode,
        collector: "RawDataCollector",
        registry: Optional[MetricsRegistry] = None,
    ):
        self.node = node
        self.collector = collector
        self.engine = node.engine
        self.registry = registry
        self.package: Optional[ControlPackage] = None
        self.scripts: Dict[str, InstalledScript] = {}
        self.ring: Optional[TraceRingBuffer] = None
        self.local_store: List[bytes] = []
        self.batches_sent = 0
        self.records_forwarded = 0
        # (ship_start_ns, delivered_ns, node, records) per batch shipped
        # online -- the agent->collector legs of the control-plane
        # timeline (offline pulls are the master's work, not the
        # agent's, and are logged by the collector only).
        self.ship_log: List[Tuple[int, int, str, int]] = []
        # Every program this agent ever loaded (kept across teardown so
        # the obs layer's eBPF counters stay monotone).
        self.loaded_programs: List[BPFProgram] = []
        # Fires accumulated by scripts that were since torn down.
        self._retired_fires: Dict[Tuple[str, str], int] = {}
        self._heartbeat_timer = None
        self._online = False
        self.crashed = False
        self.fault_metrics = FaultMetrics(registry)
        # At-least-once shipping state: a per-node monotone sequence
        # number (never reused, survives crash/restart), the sender, and
        # the batches still awaiting the collector's ack.  A delivery's
        # payload is ``(seq, blob, count, shipped_at)`` -- the packed
        # blob exactly as the ring buffer produced it; the records are
        # never decoded on the agent.
        self._ship_seq = 0
        self._shipments = AtLeastOnceSender(
            self.engine,
            latency_ns=SHIP_NET_LATENCY_NS,
            backoff_base_ns=SHIP_BACKOFF_BASE_NS,
            backoff_cap_ns=SHIP_BACKOFF_CAP_NS,
            budget=self._ship_budget,
            arrived=self._ship_arrived,
            counted=self._ship_counted,
            acked=self._ship_acked,
            gave_up=self._ship_gave_up,
        )
        self._pending_ships: Dict[int, Delivery] = {}
        self._installed_deploy_id: Optional[int] = None

        self._m_flush_latency = self._m_batches = None
        self._m_records = self._m_load_ns = None
        if registry is not None:
            fires = registry.register_spec(obs_contract.AGENT_PROBE_FIRES)
            fires.add_callback(self._probe_fire_samples)
            self._m_flush_latency = registry.register_spec(
                obs_contract.AGENT_FLUSH_LATENCY)
            self._m_batches = registry.register_spec(obs_contract.AGENT_BATCHES_SENT)
            self._m_records = registry.register_spec(
                obs_contract.AGENT_RECORDS_FORWARDED)
            self._m_load_ns = registry.register_spec(obs_contract.AGENT_BPF_LOAD_NS)
        collector.register_agent(self)

    # -- control plane -------------------------------------------------------

    def install(
        self,
        package: ControlPackage,
        deploy_id: Optional[int] = None,
        force: bool = False,
    ) -> str:
        """Deploy a control package (called on dispatcher delivery).

        Idempotent under retries: ``deploy_id`` is the dispatcher's
        monotone deployment number.  Returns one of

        * ``"installed"`` -- scripts compiled and attached;
        * ``"duplicate"`` -- this deploy is already installed (a retry
          or fault-injected copy); ack it, change nothing;
        * ``"stale"`` -- a newer deploy superseded this one; ignored;
        * ``"down"`` -- the agent is crashed and cannot install.

        ``deploy_id=None`` (direct calls, tests) always installs;
        ``force=True`` reinstalls the same deploy (the restart path).
        """
        if self.crashed and not force:
            return "down"
        if deploy_id is not None and self._installed_deploy_id is not None:
            if deploy_id == self._installed_deploy_id and not force:
                return "duplicate"
            if deploy_id < self._installed_deploy_id:
                return "stale"
        if self.scripts:
            self.teardown()
        self.package = package
        if deploy_id is not None:
            self._installed_deploy_id = deploy_id
        cfg = package.global_config
        self._online = cfg.online_collection
        self.ring = TraceRingBuffer(
            self.engine,
            capacity_bytes=cfg.ring_buffer_bytes,
            flush_interval_ns=cfg.flush_interval_ns,
            on_flush=self._on_ring_flush,
            name=f"{self.node.name}/ring",
            registry=self.registry,
            node=self.node.name,
            policy=cfg.ring_policy,
            sample_prob=RING_SAMPLE_PROB,
            rng=self.node.rng.fork("ring-policy"),
            fault_metrics=self.fault_metrics,
        )
        self.ring.start()

        for tracepoint in package.tracepoints:
            perf_map = PerfEventArray(
                num_cpus=len(self.node.cpus), name=f"perf:{tracepoint.label}"
            )
            # Bound to this install's ring: every install makes both
            # anew, and capacity, policy and strict stay on the path.
            perf_map.set_consumer(self.ring.append)
            counter_map = None
            if package.action.count:
                counter_map = PerCPUArrayMap(
                    value_size=8,
                    max_entries=1,
                    num_cpus=len(self.node.cpus),
                    name=f"count:{tracepoint.label}",
                )
            histogram_map = None
            if package.action.size_histogram:
                from repro.core.compiler import HISTOGRAM_BUCKETS

                histogram_map = PerCPUArrayMap(
                    value_size=8,
                    max_entries=HISTOGRAM_BUCKETS,
                    num_cpus=len(self.node.cpus),
                    name=f"hist:{tracepoint.label}",
                )
            program, maps = compile_script(
                package.rule,
                tracepoint,
                package.action,
                perf_map=perf_map,
                counter_map=counter_map,
                histogram_map=histogram_map,
                jit=cfg.jit,
            )
            load_cost = program.load()
            self.loaded_programs.append(program)
            if self._m_load_ns is not None:
                self._m_load_ns.inc(load_cost, labels=(self.node.name,))
            # Verification/JIT happens in the bpf() syscall on a host CPU.
            self.node.cpus[0].submit(load_cost)
            env = ExecutionEnv(
                maps=maps,
                clock=self.node.clock.monotonic_ns,
                prandom_u32=self.node.rng.fork(f"bpf/{tracepoint.label}").random_u32,
            )
            attachment = EBPFAttachment(
                program,
                env,
                hook_id=tracepoint.tracepoint_id,
                use_inner=tracepoint.strip_vxlan,
                name=f"vnettracer:{tracepoint.label}",
            )
            self.node.hooks.attach(tracepoint.hook, attachment)
            self.scripts[tracepoint.label] = InstalledScript(
                tracepoint.label, tracepoint.hook, attachment, perf_map,
                counter_map, histogram_map,
            )

        self._schedule_heartbeat()
        return "installed"

    def set_fault_injector(self, injector: "Optional[FaultInjector]") -> None:
        """Route this agent's shipments through a fault injector."""
        self._shipments.decide = (
            injector.shipment_decision if injector is not None else None)

    def crash(self) -> None:
        """The daemon dies: scripts detach, buffered records are lost.

        Unlike :meth:`teardown` (a graceful reconfiguration that flushes
        the ring first), a crash discards the ring buffer and the local
        store outright and abandons in-flight shipments.  Every lost
        record is accounted under ``vnt_fault_records_lost_total`` with
        reasons ``crash_ring`` / ``crash_store`` / ``shipment``, and
        abandoned sequence numbers post gap notices so the collector's
        resequencer is never left waiting."""
        if self.crashed:
            return
        name = self.node.name
        for label, script in self.scripts.items():
            key = (name, label)
            self._retired_fires[key] = (
                self._retired_fires.get(key, 0) + script.attachment.program.run_count
            )
            self.node.hooks.detach(script.hook, script.attachment)
        self.scripts.clear()
        if self.ring is not None:
            lost = self.ring.discard()
            self.ring.stop()
            self.fault_metrics.records_lost(name, "crash_ring", lost)
        if self.local_store:
            self.fault_metrics.records_lost(name, "crash_store", len(self.local_store))
            self.local_store = []
        for delivery in self._pending_ships.values():
            self._shipments.cancel(delivery)
            self._account_abandoned(delivery)
        self._pending_ships.clear()
        if self._heartbeat_timer is not None:
            self._heartbeat_timer.cancel()
            self._heartbeat_timer = None
        self.crashed = True

    def restart(self) -> None:
        """Bring a crashed daemon back: reinstall the last control
        package (if any) and resume heartbeats.  Shipment sequence
        numbers continue where they left off -- a restarted agent never
        reuses a sequence number, so collector-side dedup stays sound."""
        if not self.crashed:
            return
        self.crashed = False
        if self.package is not None:
            self.install(self.package, deploy_id=self._installed_deploy_id, force=True)

    def teardown(self) -> None:
        """Detach all scripts and stop buffering (runtime reconfiguration)."""
        for label, script in self.scripts.items():
            key = (self.node.name, label)
            self._retired_fires[key] = (
                self._retired_fires.get(key, 0) + script.attachment.program.run_count
            )
            self.node.hooks.detach(script.hook, script.attachment)
        self.scripts.clear()
        if self.ring is not None:
            self.ring.flush()
            self.ring.stop()
        if self._heartbeat_timer is not None:
            self._heartbeat_timer.cancel()
            self._heartbeat_timer = None

    # -- data plane ------------------------------------------------------------

    def _on_ring_flush(self, batch: List[bytes]) -> None:
        # The mmap'd /proc buffer: the drain itself is cheap and does
        # not copy per record.
        self.node.cpus[0].submit(FLUSH_FIXED_COST_NS)
        if self._m_flush_latency is not None and self.ring is not None:
            self._m_flush_latency.observe(
                self.ring.last_flush_age_ns, labels=(self.node.name,))
        if self._online:
            self._ship(batch)
        else:
            self.local_store.extend(batch)

    def _ship(self, batch: List[bytes]) -> None:
        blob = b"".join(batch)
        # Same formula as the legacy per-record path: every record is
        # exactly RECORD_BYTES on the wire, so len(blob) == len(batch) *
        # RECORD_BYTES and the simulated timing is unchanged.
        cost = BATCH_FIXED_COST_NS + int(len(blob) * BATCH_NS_PER_BYTE)
        self.batches_sent += 1
        self.records_forwarded += len(batch)
        self._count_shipment(len(batch))
        self._ship_seq += 1
        delivery = Delivery((self._ship_seq, blob, len(batch), self.engine.now))
        self._pending_ships[self._ship_seq] = delivery
        # Online shipping consumes agent CPU (once -- retransmissions
        # resend the serialized buffer for free) and takes network time.
        self.node.cpus[0].submit(cost, self._shipments.transmit, delivery)

    # -- the shipment sender's hooks (core/delivery.py) ---------------------

    def _ship_budget(self, delivery: Delivery) -> Tuple[int, int]:
        # The current package's at every attempt, not the one the batch
        # was flushed under: a redeploy retunes shipments in flight.
        cfg = self.package.global_config
        return cfg.ship_max_attempts, cfg.ship_ack_timeout_ns

    def _ship_counted(self, delivery: Delivery) -> None:
        name = self.node.name
        self.fault_metrics.ship_attempt(name)
        if delivery.attempts > 1:
            self.fault_metrics.ship_retry(name)

    def _ship_arrived(self, delivery: Delivery, sent_ns: int) -> bool:
        """One copy of the batch arrives at the collector -- also one
        that was on the wire when the agent crashed; dedup on (node,
        seq) makes every further copy harmless."""
        seq, blob, count, shipped_at = delivery.payload
        if delivery.arrivals == 1:
            self.ship_log.append((shipped_at, self.engine.now, self.node.name, count))
        self.collector.receive_batch(self.node.name, blob, seq=seq)
        return True

    def _ship_acked(self, delivery: Delivery) -> None:
        del self._pending_ships[delivery.payload[0]]

    def _ship_gave_up(self, delivery: Delivery) -> None:
        del self._pending_ships[delivery.payload[0]]
        self._account_abandoned(delivery)

    def _account_abandoned(self, delivery: Delivery) -> None:
        """A batch the agent stopped sending (budget spent, or crashed).
        If no copy ever reached the collector the records are lost --
        account them exactly and post the gap notice; if only the acks
        were lost, the data is safe in the database already."""
        if not delivery.arrivals:
            seq, _, count, _ = delivery.payload
            self.fault_metrics.records_lost(self.node.name, "shipment", count)
            self.collector.skip_shipment(self.node.name, seq)

    def collect_local(self) -> int:
        """Offline collection: drain the local store to the collector
        as one packed blob (records stay serialized end to end)."""
        if self.ring is not None:
            self.ring.flush()
        if not self.local_store:
            return 0
        batch, self.local_store = self.local_store, []
        blob = b"".join(batch)
        count = len(blob) // RECORD_BYTES
        self.records_forwarded += count
        self.batches_sent += 1
        self._count_shipment(count)
        # Offline pull: the master collected, the agent did not report
        # -- must not refresh the agent's heartbeat (see collector docs).
        self.collector.receive_batch(self.node.name, blob, liveness=False)
        return count

    # -- heartbeats -------------------------------------------------------------

    def _schedule_heartbeat(self) -> None:
        self._heartbeat_timer = self.engine.timer(HEARTBEAT_INTERVAL_NS, self._heartbeat)

    def _heartbeat(self) -> None:
        self.collector.heartbeat(self.node.name)
        self._schedule_heartbeat()

    # -- self-observability ------------------------------------------------------

    def _count_shipment(self, records: int) -> None:
        if self._m_batches is not None:
            self._m_batches.inc(labels=(self.node.name,))
            self._m_records.inc(records, labels=(self.node.name,))

    def _probe_fire_samples(self) -> Dict[Tuple[str, str], int]:
        """Pull source for ``vnt_agent_probe_fires_total``: each deployed
        script's program run counter (plus fires from torn-down
        deployments), keyed (node, probe label)."""
        fires = dict(self._retired_fires)
        for label, script in self.scripts.items():
            key = (self.node.name, label)
            fires[key] = fires.get(key, 0) + script.attachment.program.run_count
        return fires

    # -- introspection --------------------------------------------------------------

    def counter(self, label: str) -> int:
        script = self.scripts.get(label)
        return script.counter_value() if script else 0

    def histogram(self, label: str) -> List[int]:
        script = self.scripts.get(label)
        return script.histogram() if script else []

    def dropped_records(self) -> int:
        return self.ring.total_dropped if self.ring is not None else 0

    def __repr__(self) -> str:
        return f"<Agent {self.node.name} scripts={list(self.scripts)}>"
