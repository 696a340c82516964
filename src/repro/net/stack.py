"""The kernel: devices, routes, sockets, and the protocol stack stages.

A :class:`KernelNode` is one Linux kernel instance -- a physical host,
a Dom0, or a guest.  Its protocol path is organised as the *named kernel
functions* the paper instruments (``udp_send_skb``, ``ip_output``,
``dev_queue_xmit``, ``net_rx_action``, ``udp_rcv``, ``tcp_v4_rcv``,
``tcp_recvmsg`` ...), each firing a hook that attached eBPF programs
run at.  Stage service times come from the node's
:class:`~repro.net.costs.CostModel` and are charged on simulated CPUs,
so probe overhead genuinely delays packets and steals CPU capacity.
"""

from __future__ import annotations

import itertools
from math import exp, log, sqrt
from typing import Any, Callable, Dict, List, NamedTuple, Optional, TYPE_CHECKING

from repro.ebpf.probes import HookRegistry, ProbeEvent
from repro.net.addressing import IPv4Address, MACAddress
from repro.net.costs import DEFAULT_COSTS, CostModel
from repro.net.device import NetDevice
from repro.net.packet import (
    IPPROTO_TCP,
    IPPROTO_UDP,
    Packet,
    make_udp_packet,
)
from repro.net.softirq import SoftirqNet
from repro.sim.clock import NodeClock
from repro.sim.cpu import CPU
from repro.sim.engine import Engine
from repro.sim.rng import SeededRNG

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.net.tcp import TCPStack

_mac_counter = itertools.count(0x10)

# Kinderman & Monahan's ratio-of-uniforms constant, 4 e^-0.5 / sqrt(2),
# spelled as ``random.normalvariate`` spells it (see KernelNode.noisy).
_NV_MAGICCONST = 4 * exp(-0.5) / sqrt(2.0)

HOOK_UDP_SEND_SKB = "kprobe:udp_send_skb"
HOOK_IP_OUTPUT = "kprobe:ip_output"
HOOK_DEV_QUEUE_XMIT = "kprobe:dev_queue_xmit"
HOOK_IP_RCV = "kprobe:ip_rcv"
HOOK_UDP_RCV = "kprobe:udp_rcv"
HOOK_TCP_V4_RCV = "kprobe:tcp_v4_rcv"
HOOK_TCP_RECVMSG = "kretprobe:tcp_recvmsg"
HOOK_GET_RPS_CPU = "kprobe:get_rps_cpu"
HOOK_SKB_COPY_DATAGRAM = "kprobe:skb_copy_datagram_iovec"


class PacketMetadataHooks:
    """Explicit registry of packet-metadata engines attached to a node.

    Any engine that rewrites wire bytes at the kernel's metadata points
    (``udp_send_skb``, the pre-copy trim, ``tcp_options_write``)
    registers here -- the trace-ID patch does, through
    :meth:`repro.net.traceid.TraceIDEngine.attach` -- and a node can
    carry several such engines without attribute collisions.

    An engine implements any subset of the hook methods below; each
    returns the CPU cost (ns) its rewrite charges, and the stack sums
    the costs across engines.
    """

    _METHODS = ("on_udp_send", "on_udp_deliver", "on_tcp_options")

    def __init__(self) -> None:
        self.engines: List[object] = []
        # Each hook's bound methods, in registration order, resolved
        # when an engine registers rather than on every packet.
        self._udp_send: List[Callable[..., int]] = []
        self._udp_deliver: List[Callable[..., int]] = []
        self._tcp_options: List[Callable[..., int]] = []

    def register(self, engine: object) -> object:
        """Add ``engine`` (idempotent); it must implement at least one
        hook method."""
        if not any(hasattr(engine, m) for m in self._METHODS):
            raise StackError(
                f"packet-metadata engine {engine!r} implements none of {self._METHODS}"
            )
        if engine not in self.engines:
            self.engines.append(engine)
            for method, hooks in zip(
                self._METHODS, (self._udp_send, self._udp_deliver, self._tcp_options)
            ):
                if hasattr(engine, method):
                    hooks.append(getattr(engine, method))
        return engine

    def find(self, kind: type) -> Optional[object]:
        """The first registered engine of class ``kind``, or ``None``."""
        for engine in self.engines:
            if isinstance(engine, kind):
                return engine
        return None

    def on_udp_send(self, packet: Packet, mtu: Optional[int] = None, parent=None) -> int:
        """``udp_send_skb`` time: engines may append wire bytes."""
        cost = 0
        for hook in self._udp_send:
            cost += hook(packet, mtu=mtu, parent=parent)
        return cost

    def on_udp_deliver(self, packet: Packet) -> int:
        """Pre-copy trim time: engines remove what they appended."""
        cost = 0
        for hook in self._udp_deliver:
            cost += hook(packet)
        return cost

    def on_tcp_options(self, packet: Packet, parent=None) -> int:
        """``tcp_options_write`` time: engines may add TCP options."""
        cost = 0
        for hook in self._tcp_options:
            cost += hook(packet, parent=parent)
        return cost


class Route(NamedTuple):
    network: IPv4Address
    prefix_len: int
    device: NetDevice
    src_ip: Optional[IPv4Address] = None
    gateway: Optional[IPv4Address] = None


class StackError(RuntimeError):
    """Configuration errors (duplicate binds, no route, ...)."""


class UDPSocket:
    """A bound UDP endpoint.

    Receive by assigning :attr:`on_receive`; a datagram that reaches a
    socket without one is counted in :attr:`rx_packets` /
    :attr:`rx_bytes` and dropped.
    """

    def __init__(self, node: "KernelNode", ip: IPv4Address, port: int, cpu_index: int = 0):
        self.node = node
        self.ip = ip
        self.port = port
        self.cpu_index = cpu_index
        self.on_receive: Optional[Callable[[bytes, IPv4Address, int, Packet], None]] = None
        self.rx_packets = 0
        self.rx_bytes = 0
        self.tx_packets = 0
        self.closed = False

    def sendto(
        self,
        dst_ip: IPv4Address,
        dst_port: int,
        payload: bytes,
        app: str = "",
        app_seq: int = 0,
        parent_id=None,
    ) -> None:
        self.tx_packets += 1
        self.node.udp_send(
            self, dst_ip, dst_port, payload, app=app, app_seq=app_seq, parent_id=parent_id
        )

    def deliver(self, payload: bytes, src_ip: IPv4Address, src_port: int, packet: Packet) -> None:
        if self.closed:
            return
        self.rx_packets += 1
        self.rx_bytes += len(payload)
        if self.on_receive is not None:
            self.on_receive(payload, src_ip, src_port, packet)

    def close(self) -> None:
        self.closed = True
        self.node.unbind_udp(self)


class KernelNode:
    """One kernel instance with CPUs, devices, hooks, and sockets."""

    def __init__(
        self,
        engine: Engine,
        name: str,
        num_cpus: int = 4,
        costs: Optional[CostModel] = None,
        rng: Optional[SeededRNG] = None,
        clock: Optional[NodeClock] = None,
        cpus: Optional[List[CPU]] = None,
    ):
        self.engine = engine
        self.name = name
        self.costs = costs or DEFAULT_COSTS
        self.rng = rng or SeededRNG(0, f"node/{name}")
        self.clock = clock or NodeClock(engine)
        if cpus is not None:
            self.cpus = cpus
        else:
            self.cpus = [
                CPU(engine, name=f"{name}/cpu{i}", index=i) for i in range(num_cpus)
            ]
        self.hooks = HookRegistry(node_name=name)
        self.softirq = SoftirqNet(self)
        self.devices: Dict[str, NetDevice] = {}
        self._ifindex_counter = itertools.count(1)
        self.routes: List[Route] = []
        self.neighbors: Dict[int, MACAddress] = {}
        self._udp_sockets: Dict[tuple, UDPSocket] = {}
        self._vxlan_ports: Dict[int, object] = {}  # udp port -> VXLANDevice
        self.packet_hooks = PacketMetadataHooks()
        self._tcp: Optional["TCPStack"] = None
        self.ip_forward = False

    # -- plumbing -----------------------------------------------------------

    def next_mac(self) -> MACAddress:
        return MACAddress.from_index(next(_mac_counter))

    def register_device(self, device: NetDevice) -> int:
        if device.name in self.devices:
            raise StackError(f"{self.name}: duplicate device {device.name!r}")
        self.devices[device.name] = device
        return next(self._ifindex_counter)

    def device(self, name: str) -> NetDevice:
        try:
            return self.devices[name]
        except KeyError:
            raise StackError(f"{self.name}: no device {name!r}") from None

    def noisy(self, base_ns: int) -> int:
        """Service-time jitter: ``int(lognormvariate(log(base_ns),
        sigma))``, drawn from the node's stream in this one frame (it
        runs for every kernel job).  The Kinderman--Monahan loop draws
        the same floats in the same order and applies the same float
        operations as ``random.normalvariate``, so the result is bit
        for bit the standard library's, and the draws (hence every
        digest) do not depend on the library keeping its algorithm.
        ``exp`` is never negative, so the ``int`` needs no clamp."""
        sigma = self.costs.timer_noise_sigma
        if sigma <= 0 or base_ns <= 0:
            return int(base_ns)
        random = self.rng.random
        while True:
            u1 = random()
            u2 = 1.0 - random()
            z = _NV_MAGICCONST * (u1 - 0.5) / u2
            if z * z / 4.0 <= -log(u2):
                return int(exp(log(base_ns) + z * sigma))

    def charge(
        self,
        cpu: Optional[CPU],
        cost_ns: int,
        fn: Callable[..., None],
        *args: Any,
        front: bool = False,
    ) -> None:
        """Charge ``cost_ns`` (on ``cpu`` if given) then run ``fn(*args)``.

        A stage passes its continuation as a bound method and its
        arguments, so a hop allocates no closure."""
        cost = int(cost_ns)
        if cpu is None:
            self.engine.schedule(cost, fn, *args)
        elif cost <= 0:
            fn(*args)
        else:  # a positive int: the CPU's own entry takes it as it is
            cpu._enqueue(cost, fn, args, front)

    # -- hooks ------------------------------------------------------------------

    def fire_device_hook(self, device: NetDevice, packet: Packet, cpu) -> int:
        if self.hooks.fire_unattached(device.hook_name):
            return 0
        cpu_index = cpu.index if cpu is not None else 0
        return self.hooks.fire(ProbeEvent(device.hook_name, packet, device.ifindex, cpu_index))

    def fire_function_hook(
        self,
        hook: str,
        packet: Optional[Packet],
        cpu,
        device: Optional[NetDevice] = None,
    ) -> int:
        if self.hooks.fire_unattached(hook):
            return 0
        ifindex = device.ifindex if device is not None else 0
        cpu_index = cpu.index if cpu is not None else 0
        return self.hooks.fire(ProbeEvent(hook, packet, ifindex, cpu_index))

    def fire_steering_hook(self, device: NetDevice, packet: Packet, cpu_index: int) -> int:
        if self.hooks.fire_unattached(HOOK_GET_RPS_CPU):
            return 0
        return self.hooks.fire(ProbeEvent(HOOK_GET_RPS_CPU, packet, device.ifindex, cpu_index))

    # -- routing ---------------------------------------------------------------------

    def add_route(
        self,
        network: IPv4Address,
        prefix_len: int,
        device: NetDevice,
        src_ip: Optional[IPv4Address] = None,
        gateway: Optional[IPv4Address] = None,
    ) -> None:
        self.routes.append(Route(network, prefix_len, device, src_ip, gateway))
        self.routes.sort(key=lambda r: -r.prefix_len)

    def route_lookup(self, dst_ip: IPv4Address) -> Route:
        for route in self.routes:
            if dst_ip.in_subnet(route.network, route.prefix_len):
                return route
        raise StackError(f"{self.name}: no route to {dst_ip}")

    def add_neighbor(self, ip: IPv4Address, mac: MACAddress) -> None:
        self.neighbors[ip.value] = mac

    def resolve_mac(self, ip: IPv4Address) -> MACAddress:
        return self.neighbors.get(ip.value, MACAddress.broadcast())

    # -- UDP sockets ------------------------------------------------------------------

    def bind_udp(self, ip: IPv4Address, port: int, cpu_index: Optional[int] = None) -> UDPSocket:
        key = (ip.value, port)
        if key in self._udp_sockets:
            raise StackError(f"{self.name}: UDP {ip}:{port} already bound")
        if cpu_index is None:
            cpu_index = 1 if len(self.cpus) > 1 else 0
        socket = UDPSocket(self, ip, port, cpu_index=cpu_index)
        self._udp_sockets[key] = socket
        return socket

    def unbind_udp(self, socket: UDPSocket) -> None:
        self._udp_sockets.pop((socket.ip.value, socket.port), None)

    def lookup_udp(self, ip: IPv4Address, port: int) -> Optional[UDPSocket]:
        socket = self._udp_sockets.get((ip.value, port))
        if socket is None:
            socket = self._udp_sockets.get((0, port))  # INADDR_ANY
        return socket

    def register_vxlan_port(self, udp_port: int, vxlan_device) -> None:
        self._vxlan_ports[udp_port] = vxlan_device

    # -- TCP --------------------------------------------------------------------------------

    @property
    def tcp(self) -> "TCPStack":
        if self._tcp is None:
            from repro.net.tcp import TCPStack

            self._tcp = TCPStack(self)
        return self._tcp

    # -- UDP send path -----------------------------------------------------------------------

    def udp_send(
        self,
        socket: UDPSocket,
        dst_ip: IPv4Address,
        dst_port: int,
        payload: bytes,
        app: str = "",
        app_seq: int = 0,
        parent_id=None,
    ) -> None:
        route = self.route_lookup(dst_ip)
        device = route.device
        src_ip = socket.ip if socket.ip.value != 0 else (route.src_ip or socket.ip)
        packet = make_udp_packet(
            device.mac,
            self.resolve_mac(route.gateway or dst_ip),
            src_ip,
            dst_ip,
            socket.port,
            dst_port,
            payload,
            app=app,
            app_seq=app_seq,
            created_at_ns=self.engine.now,
        )
        cpu = self.cpus[socket.cpu_index]
        costs = self.costs
        self.charge(
            cpu,
            self.noisy(costs.syscall_send_ns + costs.udp_send_skb_ns),
            self._udp_send_skb,
            packet,
            cpu,
            device,
            parent_id,
        )

    def _udp_send_skb(self, packet: Packet, cpu, device: NetDevice, parent_id) -> None:
        # Metadata engines write first (the paper's kernel patch runs
        # inside udp_send_skb), so a probe here already sees the trace ID
        # on the wire bytes.
        embed_cost = self.packet_hooks.on_udp_send(packet, mtu=device.mtu, parent=parent_id)
        hook_cost = self.fire_function_hook(HOOK_UDP_SEND_SKB, packet, cpu, device)
        self.charge(cpu, hook_cost + embed_cost, self._ip_output, packet, cpu, device, front=True)

    def _ip_output(self, packet: Packet, cpu, device: NetDevice) -> None:
        hook_cost = self.fire_function_hook(HOOK_IP_OUTPUT, packet, cpu, device)
        self.charge(
            cpu,
            hook_cost + self.noisy(self.costs.ip_output_ns),
            self._dev_queue_xmit,
            packet,
            cpu,
            device,
            front=True,
        )

    def _dev_queue_xmit(self, packet: Packet, cpu, device: NetDevice) -> None:
        hook_cost = self.fire_function_hook(HOOK_DEV_QUEUE_XMIT, packet, cpu, device)
        self.charge(
            cpu,
            hook_cost + self.noisy(self.costs.dev_queue_xmit_ns),
            device.transmit,
            packet,
            cpu,
            front=True,
        )

    def send_ip(self, packet: Packet, cpu, dst_ip: Optional[IPv4Address] = None) -> None:
        """Route and transmit a fully-built packet (VXLAN encap, TCP)."""
        target = dst_ip if dst_ip is not None else packet.ip.dst
        route = self.route_lookup(target)
        device = route.device
        if packet.eth is not None:
            packet.eth.src = device.mac
            packet.eth.dst = self.resolve_mac(route.gateway or target)
        self._ip_output(packet, cpu, device)

    # -- receive path --------------------------------------------------------------------------

    def owns_ip(self, ip: IPv4Address) -> bool:
        return any(dev.ip == ip for dev in self.devices.values() if dev.ip is not None)

    def l3_receive(self, device: NetDevice, packet: Packet, cpu) -> None:
        """IP input: runs in softirq context after the device rx hook.

        Delivery semantics: a packet addressed to the receiving
        device's own IP is delivered locally.  A packet addressed to an
        IP owned by *another* device of this kernel (a container's veth
        inside the VM) is forwarded along the route -- through
        ``docker0`` and the veth pair -- when ``ip_forward`` is on; with
        forwarding off Linux's weak-host model applies and the packet
        is delivered directly.
        """
        ip = packet.ip
        if ip is None:
            return  # non-IP frames (ARP etc.) are not modeled
        hook_cost = self.fire_function_hook(HOOK_IP_RCV, packet, cpu, device)
        if (
            device.ip != ip.dst
            and self.ip_forward
            and (self.owns_ip(ip.dst) or self._has_forward_route(ip.dst))
        ):
            self.charge(cpu, hook_cost, self._ip_forward, packet, cpu, front=True)
        else:  # ours, or Linux's weak-host model: deliver to the socket
            self.charge(cpu, hook_cost, self._ip_local_deliver, device, packet, cpu, front=True)

    def _ip_forward(self, packet: Packet, cpu) -> None:
        # ip_forward: back out through the routing table.
        self.charge(
            cpu, self.noisy(self.costs.ip_forward_ns), self.send_ip, packet, cpu, front=True
        )

    def _ip_local_deliver(self, device: NetDevice, packet: Packet, cpu) -> None:
        protocol = packet.ip.protocol
        if protocol == IPPROTO_UDP:
            self._udp_receive(device, packet, cpu)
        elif protocol == IPPROTO_TCP:
            self._tcp_receive(device, packet, cpu)
        # other protocols: counted but dropped

    def _has_forward_route(self, dst: IPv4Address) -> bool:
        try:
            self.route_lookup(dst)
            return True
        except StackError:
            return False

    def _udp_receive(self, device: NetDevice, packet: Packet, cpu) -> None:
        costs = self.costs
        vxlan_device = self._vxlan_ports.get(packet.udp.dst_port)
        if vxlan_device is not None:
            self.charge(
                cpu,
                self.noisy(costs.udp_rcv_ns),
                vxlan_device.decap_receive,
                packet,
                cpu,
                front=True,
            )
            return
        hook_cost = self.fire_function_hook(HOOK_UDP_RCV, packet, cpu, device)
        self.charge(
            cpu,
            hook_cost + self.noisy(costs.udp_rcv_ns),
            self._udp_deliver,
            device,
            packet,
            cpu,
            front=True,
        )

    def _udp_deliver(self, device: NetDevice, packet: Packet, cpu) -> None:
        socket = self.lookup_udp(packet.ip.dst, packet.udp.dst_port)
        if socket is None:
            return  # ICMP port-unreachable in real life
        # Probe point at the entry of the app-buffer copy: the trace ID
        # is still on the skb here; pskb_trim_rcsum() removes it just
        # before the bytes reach the application.
        copy_hook_cost = self.fire_function_hook(HOOK_SKB_COPY_DATAGRAM, packet, cpu, device)
        strip_cost = self.packet_hooks.on_udp_deliver(packet)
        payload = packet.payload if isinstance(packet.payload, bytes) else b""
        costs = self.costs
        self.charge(
            cpu,
            strip_cost + self.noisy(costs.socket_deliver_ns + costs.socket_wakeup_ns),
            self._udp_copy_to_user,
            socket,
            payload,
            packet,
            cpu,
            copy_hook_cost,
            front=True,
        )

    def _udp_copy_to_user(
        self, socket: UDPSocket, payload: bytes, packet: Packet, cpu, copy_hook_cost: int
    ) -> None:
        self.charge(
            cpu,
            copy_hook_cost,
            socket.deliver,
            payload,
            packet.ip.src,
            packet.udp.src_port,
            packet,
            front=True,
        )

    def _tcp_receive(self, device: NetDevice, packet: Packet, cpu) -> None:
        hook_cost = self.fire_function_hook(HOOK_TCP_V4_RCV, packet, cpu, device)
        self.charge(
            cpu,
            hook_cost + self.noisy(self.costs.tcp_v4_rcv_ns),
            self.tcp.handle_segment,
            packet,
            cpu,
            front=True,
        )

    def __repr__(self) -> str:
        return f"<KernelNode {self.name} devices={list(self.devices)}>"
