"""NET_RX softirq machinery: per-CPU backlogs, ``net_rx_action``, ksoftirqd.

Receive processing is deferred: devices enqueue ``(device, packet)``
entries on a per-CPU backlog, and a ``net_rx_action`` invocation -- one
CPU job with its own overhead -- drains up to a budget of entries.  The
invocation count per second is directly observable by attaching a probe
at ``kprobe:net_rx_action``, which is exactly the paper's Fig. 13(a)
measurement; the per-packet steering decision fires
``kprobe:get_rps_cpu`` (their CPU-distribution measurement).

Waking an idle ksoftirqd costs extra (``ksoftirqd_wake_ns``): the
sleep/wakeup churn the paper cites via Iron [39] as a container-network
tax.
"""

from __future__ import annotations

from collections import deque
from typing import TYPE_CHECKING, Deque, List, Tuple

from repro.net.packet import Packet

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.net.device import NetDevice
    from repro.net.stack import KernelNode

HOOK_NET_RX_ACTION = "kprobe:net_rx_action"


class SoftirqNet:
    """Per-kernel NET_RX subsystem."""

    def __init__(self, node: "KernelNode"):
        self.node = node
        num_cpus = len(node.cpus)
        self._backlogs: List[Deque[Tuple["NetDevice", Packet]]] = [
            deque() for _ in range(num_cpus)
        ]
        self._invocation_pending = [False] * num_cpus
        self.invocations = [0] * num_cpus
        self.packets_processed = [0] * num_cpus
        self.backlog_drops = 0

    # -- enqueue ---------------------------------------------------------

    def enqueue(self, device: "NetDevice", packet: Packet, cpu_index: int) -> bool:
        """Queue a received packet for softirq processing on ``cpu_index``."""
        node = self.node
        backlog = self._backlogs[cpu_index]
        if len(backlog) >= node.costs.rx_backlog_packets:
            self.backlog_drops += 1
            return False
        backlog.append((device, packet))
        self._kick(cpu_index)
        return True

    def _kick(self, cpu_index: int) -> None:
        if self._invocation_pending[cpu_index]:
            return
        self._invocation_pending[cpu_index] = True
        node = self.node
        cpu = node.cpus[cpu_index]
        cost = node.noisy(node.costs.net_rx_action_invocation_ns)
        if not cpu.busy and cpu.queue_depth == 0:
            # ksoftirqd (or the softirq exit path) has gone idle; waking
            # it costs real time.
            cost += node.costs.ksoftirqd_wake_ns
        cpu.submit(cost, self._run, cpu_index)

    # -- the invocation ---------------------------------------------------

    def _run(self, cpu_index: int) -> None:
        node = self.node
        cpu = node.cpus[cpu_index]
        self._invocation_pending[cpu_index] = False
        self.invocations[cpu_index] += 1
        hook_cost = node.fire_function_hook(HOOK_NET_RX_ACTION, None, cpu)

        backlog = self._backlogs[cpu_index]
        if not backlog:
            return

        # Snapshot a batch bounded by the NAPI budget and by each
        # device's own quota within the run.
        budget = node.costs.napi_budget
        quota_used: dict = {}
        batch: List[Tuple["NetDevice", Packet]] = []
        deferred: List[Tuple["NetDevice", Packet]] = []
        while backlog and len(batch) < budget:
            device, packet = backlog.popleft()
            used = quota_used.get(device.ifindex, 0)
            if used >= device.napi_quota:
                deferred.append((device, packet))
                continue
            quota_used[device.ifindex] = used + 1
            batch.append((device, packet))
        for item in reversed(deferred):
            backlog.appendleft(item)

        # Per-packet delivery jobs run ahead of other queued work on this
        # CPU (softirq runs to completion before process context).
        for device, packet in reversed(batch):
            self.packets_processed[cpu_index] += 1
            cpu.submit_front(
                node.noisy(device.rx_job_cost_ns(packet)), device.deliver, packet, cpu
            )
        if hook_cost > 0:
            # Probe overhead delays the whole batch (runs first).
            cpu.submit_front(hook_cost)

        if backlog:
            # Budget exhausted: NAPI requeues; another invocation follows.
            self._kick(cpu_index)

    # -- introspection ---------------------------------------------------------

    def invocation_distribution(self) -> List[float]:
        """Fraction of invocations per CPU (Fig. 13a style)."""
        total = sum(self.invocations)
        if total == 0:
            return [0.0] * len(self.invocations)
        return [count / total for count in self.invocations]

    def __repr__(self) -> str:
        return (
            f"<SoftirqNet {self.node.name} invocations={self.invocations} "
            f"drops={self.backlog_drops}>"
        )
