"""Open vSwitch: per-ingress-port queues, a serialized datapath,
ingress policing, and HTB egress shaping (Case Study I).

The model captures the two delay sources the paper decomposes in
Fig. 9(a):

* **queueing delay** at an ingress port -- packets from one VM (e.g.
  Sockperf + iPerf sharing ``vnet0``) wait behind each other in the
  port's bounded FIFO; once the queue saturates, adding more senders on
  the same port does not increase the delay (Case II vs II+);
* **processing delay** in the switching engine -- one serialized
  datapath serves busy ports round-robin, and each additional busy
  ingress port stretches every packet's service (Case III vs III+).

Mitigations from the paper:

* :class:`TokenBucketPolicer` -- `ingress_policing_rate`/`burst`: drop
  packets above the rate before they enter the queue (Fig. 9b);
* :class:`HTBShaper` -- per-class egress shaping, "the effect was
  similar as the results using rate limit".
"""

from __future__ import annotations

from collections import deque
from typing import Callable, Deque, Dict, List, Optional, TYPE_CHECKING

from repro.net.device import NetDevice
from repro.net.packet import Packet
from repro.sim.cpu import CPU
from repro.sim.engine import Engine

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.net.stack import KernelNode


class TokenBucketPolicer:
    """OVS `ingress_policing_rate` (kbps) + `ingress_policing_burst` (kb)."""

    def __init__(self, engine: Engine, rate_kbps: int, burst_kb: int):
        self.engine = engine
        self.rate_bytes_per_ns = rate_kbps * 1000 / 8 / 1e9
        self.burst_bytes = burst_kb * 1000 // 8
        self.tokens = float(self.burst_bytes)
        self._last_refill_ns = engine.now
        self.passed = 0
        self.dropped = 0

    def admit(self, packet: Packet) -> bool:
        now = self.engine.now
        self.tokens = min(
            self.burst_bytes,
            self.tokens + (now - self._last_refill_ns) * self.rate_bytes_per_ns,
        )
        self._last_refill_ns = now
        size = packet.total_length
        if self.tokens >= size:
            self.tokens -= size
            self.passed += 1
            return True
        self.dropped += 1
        return False


class HTBClass:
    """One HTB class: a shaped FIFO with its own rate."""

    def __init__(self, engine: Engine, rate_kbps: int, ceil_packets: int = 2048):
        self.engine = engine
        self.rate_bytes_per_ns = rate_kbps * 1000 / 8 / 1e9
        self.pending = 0  # packets awaiting their release time
        self.ceil_packets = ceil_packets
        self._next_free_ns = 0
        self.dropped = 0
        self.shaped = 0


class HTBShaper:
    """Hierarchy Token Bucket on a port: classify, shape, then release."""

    def __init__(self, engine: Engine, release: Callable[[Packet], None]):
        self.engine = engine
        self.release = release
        self._classes: List[tuple] = []  # (match_fn, HTBClass)
        self.default_class: Optional[HTBClass] = None

    def add_class(
        self, match: Callable[[Packet], bool], rate_kbps: int, ceil_packets: int = 2048
    ) -> HTBClass:
        cls = HTBClass(self.engine, rate_kbps, ceil_packets)
        self._classes.append((match, cls))
        return cls

    def submit(self, packet: Packet) -> None:
        for match, cls in self._classes:
            if match(packet):
                self._shape(cls, packet)
                return
        self.release(packet)  # unclassified traffic is not shaped

    def _shape(self, cls: HTBClass, packet: Packet) -> None:
        if cls.pending >= cls.ceil_packets:
            cls.dropped += 1
            return
        now = self.engine.now
        start = max(now, cls._next_free_ns)
        cls._next_free_ns = start + int(packet.total_length / cls.rate_bytes_per_ns)
        cls.shaped += 1
        cls.pending += 1
        self.engine.schedule_at(cls._next_free_ns, self._release, cls, packet)

    def _release(self, cls: HTBClass, packet: Packet) -> None:
        cls.pending -= 1
        self.release(packet)


class OVSPort:
    """An OVS port wrapping an attached device (e.g. ``vnet0``)."""

    def __init__(self, bridge: "OVSBridge", device: NetDevice, queue_capacity: int):
        self.bridge = bridge
        self.device = device
        self.queue: Deque[Packet] = deque()
        self.queue_capacity = queue_capacity
        self.policer: Optional[TokenBucketPolicer] = None
        self.htb: Optional[HTBShaper] = None
        self.enqueued = 0
        self.policer_drops = 0
        self.queue_drops = 0

    def set_policing(self, rate_kbps: int, burst_kb: int) -> TokenBucketPolicer:
        """`ovs-vsctl set interface <port> ingress_policing_rate=...`"""
        self.policer = TokenBucketPolicer(self.bridge.node.engine, rate_kbps, burst_kb)
        return self.policer

    def set_htb(self) -> HTBShaper:
        """Attach an HTB shaper; classify with ``htb.add_class(...)``."""
        self.htb = HTBShaper(self.bridge.node.engine, self._enqueue)
        return self.htb

    def submit(self, packet: Packet) -> None:
        if self.policer is not None and not self.policer.admit(packet):
            self.policer_drops += 1
            return
        if self.htb is not None:
            self.htb.submit(packet)
        else:
            self._enqueue(packet)

    def _enqueue(self, packet: Packet) -> None:
        if len(self.queue) >= self.queue_capacity:
            self.queue_drops += 1
            return
        self.queue.append(packet)
        self.enqueued += 1
        self.bridge._kick()


class OVSBridge(NetDevice):
    """The switch itself (``ovs-br1``); also a device so probes attach
    to it by name, as in the paper's Fig. 7(a) setup."""

    kind = "ovs"

    def __init__(
        self,
        node: "KernelNode",
        name: str = "ovs-br1",
        datapath_cpu: Optional[CPU] = None,
        **kwargs,
    ):
        super().__init__(node, name, **kwargs)
        self.ports: List[OVSPort] = []
        self._port_by_ifindex: Dict[int, OVSPort] = {}
        self.fdb: Dict[int, OVSPort] = {}
        self.datapath_cpu = datapath_cpu or CPU(
            node.engine, name=f"{node.name}/{name}-datapath"
        )
        self._rr_index = 0
        self._serving = False
        self.switched = 0
        self.flooded = 0

    # -- topology -----------------------------------------------------------

    def add_port(self, device: NetDevice, queue_capacity: Optional[int] = None) -> OVSPort:
        if device.master is not None:
            raise ValueError(f"{device.name} is already enslaved")
        capacity = queue_capacity or self.node.costs.ovs_ingress_queue_packets
        port = OVSPort(self, device, capacity)
        device.master = self
        self.ports.append(port)
        self._port_by_ifindex[device.ifindex] = port
        return port

    def port_of(self, device_name: str) -> OVSPort:
        for port in self.ports:
            if port.device.name == device_name:
                return port
        raise KeyError(f"no OVS port {device_name!r} on {self.name}")

    # -- ingress (called from the attached device's softirq delivery) -----------

    def ingress(self, from_device: NetDevice, packet: Packet, cpu) -> None:
        node = self.node
        port = self._port_by_ifindex.get(from_device.ifindex)
        if port is None:
            return
        eth = packet.eth
        if eth is not None:
            self.fdb[eth.src.value] = port  # learn
        node.charge(cpu, node.noisy(node.costs.ovs_port_rx_ns), port.submit, packet, front=True)

    # -- the serialized datapath ---------------------------------------------------

    def _busy_port_count(self) -> int:
        return sum(1 for port in self.ports if port.queue)

    def _kick(self) -> None:
        if self._serving:
            return
        self._serving = True
        self._serve_next()

    def _serve_next(self) -> None:
        node = self.node
        # Round-robin over ports with queued packets.
        n = len(self.ports)
        chosen: Optional[OVSPort] = None
        for step in range(n):
            port = self.ports[(self._rr_index + step) % n]
            if port.queue:
                chosen = port
                self._rr_index = (self._rr_index + step + 1) % n
                break
        if chosen is None:
            self._serving = False
            return
        packet = chosen.queue.popleft()
        busy_ports = self._busy_port_count() + 1  # including this one
        service_ns = node.noisy(
            node.costs.ovs_switch_ns
            + (busy_ports - 1) * node.costs.ovs_switch_per_busy_port_ns
        )
        self.datapath_cpu.submit(service_ns, self._switch, chosen, packet)

    def _switch(self, in_port: OVSPort, packet: Packet) -> None:
        self.switched += 1
        hook_cost = self.node.fire_device_hook(self, packet, self.datapath_cpu)
        self.node.charge(
            self.datapath_cpu, hook_cost, self._switch_out, in_port, packet, front=True
        )

    def _switch_out(self, in_port: OVSPort, packet: Packet) -> None:
        node = self.node
        cpu = self.datapath_cpu
        eth = packet.eth
        if eth is not None and (
            eth.dst == self.mac
            or (self.ip is not None and packet.ip is not None and packet.ip.dst == self.ip)
        ):
            # The LOCAL port: traffic for the host stack itself.
            node.l3_receive(self, packet, cpu)
            self._serve_next()
            return
        out_port: Optional[OVSPort] = None
        if eth is not None:
            out_port = self.fdb.get(eth.dst.value)
        if out_port is not None and out_port is not in_port:
            node.charge(
                cpu,
                node.noisy(node.costs.ovs_port_tx_ns),
                out_port.device.transmit,
                packet,
                cpu,
                front=True,
            )
        elif out_port is None:
            self._flood(in_port, packet)
        self._serve_next()

    def _flood(self, in_port: OVSPort, packet: Packet) -> None:
        self.flooded += 1
        targets = [p for p in self.ports if p is not in_port and p.device.up]
        for index, port in enumerate(targets):
            copy = packet if index == len(targets) - 1 else packet.clone()
            port.device.transmit(copy, self.datapath_cpu)

    def _egress(self, packet: Packet, cpu) -> None:
        # Host-originated traffic through the bridge device: rare in our
        # topologies; forward by MAC directly.
        eth = packet.eth
        out_port = self.fdb.get(eth.dst.value) if eth is not None else None
        if out_port is not None:
            out_port.device.transmit(packet, cpu)
        else:
            self._flood(None, packet)  # type: ignore[arg-type]

    def _tx_cost_ns(self, packet: Packet) -> int:
        return self.node.costs.ovs_switch_ns
