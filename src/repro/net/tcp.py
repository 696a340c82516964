"""A compact but real TCP: handshake, sliding window, slow start/AIMD,
fast retransmit, RTO -- enough dynamics for the paper's workloads
(Netperf/iPerf streams, memcached request/response) to behave credibly
under queueing, policing drops, and scheduling delay.

Segments are real :class:`~repro.net.packet.Packet` objects flowing
through the same device/softirq substrate as UDP, so probes observe
them identically.  The sender emits super-segments of up to
``gso_bytes`` (TSO); receivers see whatever GRO hands up.  The trace-ID
option is written at the ``tcp_options_write`` stage when the node's
trace-ID patch is enabled, matching §III-E.
"""

from __future__ import annotations

from typing import Callable, Dict, Optional, Tuple, TYPE_CHECKING

from repro.net.addressing import IPv4Address
from repro.net.packet import (
    Packet,
    TCP_FLAG_ACK,
    TCP_FLAG_PSH,
    TCP_FLAG_SYN,
    make_tcp_packet,
)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.net.stack import KernelNode

HOOK_TCP_TRANSMIT_SKB = "kprobe:tcp_transmit_skb"
HOOK_TCP_OPTIONS_WRITE = "kprobe:tcp_options_write"
HOOK_TCP_RECVMSG = "kretprobe:tcp_recvmsg"

MSS = 1448
DEFAULT_RTO_NS = 50_000_000  # LAN-tuned minimum RTO
SEQ_MASK = 0xFFFFFFFF


def _seq_lt(a: int, b: int) -> bool:
    return ((a - b) & SEQ_MASK) > 0x7FFFFFFF


def _seq_lte(a: int, b: int) -> bool:
    return a == b or _seq_lt(a, b)


class TCPListener:
    """A passive socket; ``on_connection(conn)`` fires per accepted peer."""

    def __init__(
        self,
        stack: "TCPStack",
        ip: IPv4Address,
        port: int,
        cpu_index: int,
        on_connection: Optional[Callable[["TCPConnection"], None]] = None,
        gso_bytes: int = MSS,
    ):
        self.stack = stack
        self.ip = ip
        self.port = port
        self.cpu_index = cpu_index
        self.on_connection = on_connection
        self.gso_bytes = gso_bytes
        self.accepted = 0


class TCPConnection:
    """One end of an established (or establishing) connection."""

    CLOSED = "closed"
    SYN_SENT = "syn-sent"
    SYN_RECEIVED = "syn-received"
    ESTABLISHED = "established"

    def __init__(
        self,
        stack: "TCPStack",
        local_ip: IPv4Address,
        local_port: int,
        remote_ip: IPv4Address,
        remote_port: int,
        cpu_index: int,
        is_client: bool,
        gso_bytes: int = MSS,
        app: str = "tcp",
    ):
        self.stack = stack
        self.node = stack.node
        self.local_ip = local_ip
        self.local_port = local_port
        self.remote_ip = remote_ip
        self.remote_port = remote_port
        self.cpu_index = cpu_index
        self.is_client = is_client
        self.gso_bytes = max(MSS, gso_bytes)
        self.app = app
        self.state = self.CLOSED

        iss = 1_000 if is_client else 5_000
        self.snd_una = iss
        self.snd_nxt = iss
        self.rcv_nxt = 0
        self.cwnd = 10 * MSS
        # LAN-scale receive window (Linux autotuning keeps buffers near
        # the BDP; an unbounded window just builds standing queues).
        self.rwnd = 1024 * 1024
        # Slow start runs until the first loss event (RFC 5681: initial
        # ssthresh arbitrarily high); drops then set it to cwnd/2.
        self.ssthresh = self.rwnd
        self.dup_acks = 0
        self._unacked: list = []  # [seq, length] in order
        self._ooo: Dict[int, int] = {}  # seq -> length
        self._app_pending = 0
        self._sending = False
        self._rto_event = None
        # RPC causality: when set, every segment's trace-ID option also
        # carries this parent ID (retransmits re-embed it, so duplicate
        # parents on the wire are expected and deduped at reassembly).
        self.trace_parent: Optional[int] = None

        # Callbacks
        self.on_established: Optional[Callable[["TCPConnection"], None]] = None
        self.on_data: Optional[Callable[["TCPConnection", int, Packet], None]] = None

        # Stats
        self.bytes_sent = 0
        self.bytes_delivered = 0
        self.segments_sent = 0
        self.segments_received = 0
        self.retransmits = 0
        self.acks_sent = 0

    # -- identity ------------------------------------------------------------

    @property
    def key(self) -> Tuple[int, int, int, int]:
        return (self.local_ip.value, self.local_port, self.remote_ip.value, self.remote_port)

    @property
    def in_flight(self) -> int:
        return (self.snd_nxt - self.snd_una) & SEQ_MASK

    # -- connection establishment ------------------------------------------------

    def open(self) -> None:
        """Client side: send SYN."""
        self.state = self.SYN_SENT
        self._send_segment(flags=TCP_FLAG_SYN, seq=self.snd_nxt, payload=b"")
        self.snd_nxt = (self.snd_nxt + 1) & SEQ_MASK

    # -- app send path --------------------------------------------------------------

    def send_app_bytes(self, nbytes: int) -> None:
        """Queue application bytes for transmission (netperf-style)."""
        if nbytes <= 0:
            return
        self._app_pending += nbytes
        self._pump()

    def _window_available(self) -> int:
        return min(self.cwnd, self.rwnd) - self.in_flight

    def _next_size(self) -> int:
        if self.state != self.ESTABLISHED or self._app_pending <= 0:
            return 0
        window = self._window_available()
        if window <= 0:
            return 0
        return min(self.gso_bytes, self._app_pending, window)

    def _pump(self) -> None:
        if self._sending:
            return
        size = self._next_size()
        if size <= 0:
            return
        self._sending = True
        self._emit(size)

    def _emit(self, size: int) -> None:
        seq = self.snd_nxt
        self.snd_nxt = (self.snd_nxt + size) & SEQ_MASK
        self._app_pending -= size
        self._unacked.append([seq, size])
        self.bytes_sent += size
        self._arm_rto()
        self._send_segment(
            flags=TCP_FLAG_ACK | TCP_FLAG_PSH,
            seq=seq,
            payload=bytes(size),
            then=self._sent,
        )

    def _sent(self) -> None:
        self._sending = False
        self._pump()

    # -- segment transmission (the instrumented send path) -----------------------------

    def _send_segment(
        self,
        flags: int,
        seq: int,
        payload: bytes,
        ack: Optional[int] = None,
        then: Optional[Callable[[], None]] = None,
    ) -> None:
        node = self.node
        cpu = node.cpus[self.cpu_index]
        costs = node.costs
        route = node.route_lookup(self.remote_ip)
        device = route.device
        packet = make_tcp_packet(
            device.mac,
            node.resolve_mac(route.gateway or self.remote_ip),
            self.local_ip,
            self.remote_ip,
            self.local_port,
            self.remote_port,
            payload,
            seq=seq,
            ack=ack if ack is not None else self.rcv_nxt,
            flags=flags,
            app=self.app,
            created_at_ns=node.engine.now,
        )
        if payload:
            self.segments_sent += 1
        # Pure ACKs and handshake segments are kernel-generated: no
        # syscall crossing, cheaper transmit work.
        if payload:
            base_cost = costs.syscall_send_ns + costs.tcp_transmit_skb_ns
        else:
            base_cost = costs.tcp_transmit_skb_ns // 2
        node.charge(cpu, node.noisy(base_cost), self._transmit_skb, packet, cpu, device, then)

    def _transmit_skb(
        self, packet: Packet, cpu, device, then: Optional[Callable[[], None]]
    ) -> None:
        node = self.node
        hook_cost = node.fire_function_hook(HOOK_TCP_TRANSMIT_SKB, packet, cpu, device)
        node.charge(cpu, hook_cost, self._options_write, packet, cpu, device, then, front=True)

    def _options_write(
        self, packet: Packet, cpu, device, then: Optional[Callable[[], None]]
    ) -> None:
        node = self.node
        hook_cost = node.fire_function_hook(HOOK_TCP_OPTIONS_WRITE, packet, cpu, device)
        embed_cost = node.packet_hooks.on_tcp_options(packet, parent=self.trace_parent)
        node.charge(
            cpu,
            hook_cost + embed_cost + node.noisy(node.costs.tcp_options_write_ns),
            node.send_ip,
            packet,
            cpu,
            self.remote_ip,
            front=True,
        )
        if then is not None:
            then()

    # -- receive path -----------------------------------------------------------------------

    def on_segment(self, packet: Packet, cpu) -> None:
        tcp = packet.tcp
        node = self.node
        payload_len = packet.payload_length

        # Handshake transitions.
        if self.state == self.SYN_SENT and tcp.flags & TCP_FLAG_SYN and tcp.flags & TCP_FLAG_ACK:
            self.rcv_nxt = (tcp.seq + 1) & SEQ_MASK
            self.snd_una = tcp.ack
            self.state = self.ESTABLISHED
            self._send_ack()
            if self.on_established is not None:
                self.on_established(self)
            self._pump()
            return
        if self.state == self.SYN_RECEIVED and tcp.flags & TCP_FLAG_ACK:
            self.state = self.ESTABLISHED
            self.snd_una = tcp.ack
            if self.on_established is not None:
                self.on_established(self)
            if payload_len == 0:
                return
            # fall through: the ACK carried data

        if self.state != self.ESTABLISHED:
            return

        # ACK processing (sender side).
        if tcp.flags & TCP_FLAG_ACK:
            self._process_ack(tcp.ack)

        # Data processing (receiver side).
        if payload_len > 0:
            self.segments_received += 1
            self._process_data(tcp.seq, payload_len, packet, cpu)

    def _process_ack(self, ack: int) -> None:
        if _seq_lt(self.snd_una, ack) and _seq_lte(ack, self.snd_nxt):
            acked = (ack - self.snd_una) & SEQ_MASK
            self.snd_una = ack
            self.dup_acks = 0
            while self._unacked and _seq_lte(
                (self._unacked[0][0] + self._unacked[0][1]) & SEQ_MASK, ack
            ):
                self._unacked.pop(0)
            # Congestion window growth.
            if self.cwnd < self.ssthresh:
                self.cwnd += min(acked, MSS)  # slow start
            else:
                self.cwnd += max(1, MSS * MSS // self.cwnd)  # congestion avoidance
            self._arm_rto()
            self._pump()
        elif ack == self.snd_una and self._unacked:
            self.dup_acks += 1
            if self.dup_acks == 3:
                self._fast_retransmit()

    def _fast_retransmit(self) -> None:
        self.ssthresh = max(self.cwnd // 2, 2 * MSS)
        self.cwnd = self.ssthresh
        self.retransmits += 1
        seq, size = self._unacked[0]
        self._send_segment(flags=TCP_FLAG_ACK | TCP_FLAG_PSH, seq=seq, payload=bytes(size))

    def _arm_rto(self) -> None:
        if self._rto_event is not None:
            self._rto_event.cancel()
        if self._unacked:
            self._rto_event = self.node.engine.timer(DEFAULT_RTO_NS, self._on_rto)
        else:
            self._rto_event = None

    def _on_rto(self) -> None:
        if not self._unacked or self.state != self.ESTABLISHED:
            return
        self.ssthresh = max(self.cwnd // 2, 2 * MSS)
        self.cwnd = 2 * MSS
        self.retransmits += 1
        seq, size = self._unacked[0]
        self._send_segment(flags=TCP_FLAG_ACK | TCP_FLAG_PSH, seq=seq, payload=bytes(size))
        self._arm_rto()

    def _process_data(self, seq: int, length: int, packet: Packet, cpu) -> None:
        node = self.node
        if seq == self.rcv_nxt:
            delivered = length
            self.rcv_nxt = (self.rcv_nxt + length) & SEQ_MASK
            while self.rcv_nxt in self._ooo:  # drain out-of-order queue
                extra = self._ooo.pop(self.rcv_nxt)
                self.rcv_nxt = (self.rcv_nxt + extra) & SEQ_MASK
                delivered += extra
            self._deliver_to_app(delivered, packet, cpu)
        elif _seq_lt(self.rcv_nxt, seq):
            self._ooo[seq] = length
            self._send_ack()  # duplicate ACK signals the gap
        else:
            self._send_ack()  # stale retransmission

    def _deliver_to_app(self, nbytes: int, packet: Packet, cpu) -> None:
        node = self.node
        costs = node.costs
        node.charge(
            cpu,
            node.noisy(costs.socket_deliver_ns + costs.socket_wakeup_ns),
            self._app_read,
            nbytes,
            packet,
            cpu,
            front=True,
        )

    def _app_read(self, nbytes: int, packet: Packet, cpu) -> None:
        hook_cost = self.node.fire_function_hook(HOOK_TCP_RECVMSG, packet, cpu)
        self.node.charge(cpu, hook_cost, self._app_delivered, nbytes, packet, front=True)

    def _app_delivered(self, nbytes: int, packet: Packet) -> None:
        self.bytes_delivered += nbytes
        self._send_ack()
        if self.on_data is not None:
            self.on_data(self, nbytes, packet)

    def _send_ack(self) -> None:
        self.acks_sent += 1
        self._send_segment(flags=TCP_FLAG_ACK, seq=self.snd_nxt, payload=b"")

    def __repr__(self) -> str:
        return (
            f"<TCPConnection {self.local_ip}:{self.local_port}->"
            f"{self.remote_ip}:{self.remote_port} {self.state} cwnd={self.cwnd}>"
        )


class TCPStack:
    """Per-node TCP: listeners, connections, and segment dispatch."""

    def __init__(self, node: "KernelNode"):
        self.node = node
        self.listeners: Dict[Tuple[int, int], TCPListener] = {}
        self.connections: Dict[Tuple[int, int, int, int], TCPConnection] = {}
        self._ephemeral = 40_000

    def listen(
        self,
        ip: IPv4Address,
        port: int,
        on_connection: Optional[Callable[[TCPConnection], None]] = None,
        cpu_index: Optional[int] = None,
        gso_bytes: int = MSS,
    ) -> TCPListener:
        key = (ip.value, port)
        if key in self.listeners:
            raise ValueError(f"{self.node.name}: TCP {ip}:{port} already listening")
        if cpu_index is None:
            cpu_index = 1 if len(self.node.cpus) > 1 else 0
        listener = TCPListener(self, ip, port, cpu_index, on_connection, gso_bytes)
        self.listeners[key] = listener
        return listener

    def connect(
        self,
        local_ip: IPv4Address,
        remote_ip: IPv4Address,
        remote_port: int,
        local_port: Optional[int] = None,
        cpu_index: Optional[int] = None,
        gso_bytes: int = MSS,
        app: str = "tcp",
    ) -> TCPConnection:
        if local_port is None:
            self._ephemeral += 1
            local_port = self._ephemeral
        if cpu_index is None:
            cpu_index = 1 if len(self.node.cpus) > 1 else 0
        conn = TCPConnection(
            self,
            local_ip,
            local_port,
            remote_ip,
            remote_port,
            cpu_index,
            is_client=True,
            gso_bytes=gso_bytes,
            app=app,
        )
        self.connections[conn.key] = conn
        conn.open()
        return conn

    def handle_segment(self, packet: Packet, cpu) -> None:
        ip = packet.ip
        tcp = packet.tcp
        if ip is None or tcp is None:
            return
        key = (ip.dst.value, tcp.dst_port, ip.src.value, tcp.src_port)
        conn = self.connections.get(key)
        if conn is not None:
            conn.on_segment(packet, cpu)
            return
        listener = self.listeners.get((ip.dst.value, tcp.dst_port))
        if listener is None:
            listener = self.listeners.get((0, tcp.dst_port))
        if listener is not None and tcp.flags & TCP_FLAG_SYN:
            conn = TCPConnection(
                self,
                ip.dst,
                tcp.dst_port,
                ip.src,
                tcp.src_port,
                listener.cpu_index,
                is_client=False,
                gso_bytes=listener.gso_bytes,
                app="tcp-server",
            )
            conn.state = TCPConnection.SYN_RECEIVED
            conn.rcv_nxt = (tcp.seq + 1) & SEQ_MASK
            self.connections[conn.key] = conn
            listener.accepted += 1
            if listener.on_connection is not None:
                listener.on_connection(conn)
            # SYN|ACK consumes one sequence number.
            syn_ack_seq = conn.snd_nxt
            conn.snd_nxt = (conn.snd_nxt + 1) & SEQ_MASK
            conn._send_segment(
                flags=TCP_FLAG_SYN | TCP_FLAG_ACK, seq=syn_ack_seq, payload=b""
            )
