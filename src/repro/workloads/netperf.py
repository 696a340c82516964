"""Netperf: stream throughput measurement (Fig. 7b, Fig. 12b).

``NetperfServer`` accepts TCP connections (or a UDP socket) and counts
delivered bytes inside a measurement window; ``NetperfClient`` drives a
TCP_STREAM or UDP_STREAM test.  TCP receive delivery passes through
``kretprobe:tcp_recvmsg`` -- the exact function the paper attaches both
SystemTap and vNetTracer to in the overhead comparison.
"""

from __future__ import annotations

from typing import List, Optional

from repro.net.addressing import IPv4Address
from repro.net.stack import KernelNode
from repro.net.tcp import MSS, TCPConnection
from repro.workloads.stats import throughput_bps

DEFAULT_PORT = 12865


class NetperfServer:
    """TCP (and optional UDP) sink with windowed byte accounting."""

    def __init__(
        self,
        node: KernelNode,
        ip: IPv4Address,
        port: int = DEFAULT_PORT,
        cpu_index: Optional[int] = None,
        udp: bool = False,
        gso_bytes: int = MSS,
    ):
        self.node = node
        self.ip = ip
        self.port = port
        self.bytes_received = 0
        self._window_start_ns: Optional[int] = None
        self._window_end_ns = 0
        self.connections: List[TCPConnection] = []
        if udp:
            self.socket = node.bind_udp(ip, port, cpu_index=cpu_index)
            self.socket.on_receive = self._on_udp
        else:
            self.listener = node.tcp.listen(
                ip, port, on_connection=self._on_connection,
                cpu_index=cpu_index, gso_bytes=gso_bytes,
            )

    def _on_connection(self, conn: TCPConnection) -> None:
        self.connections.append(conn)
        conn.on_data = self._on_tcp_data

    def _on_tcp_data(self, _conn: TCPConnection, nbytes: int, _packet) -> None:
        self._account(nbytes)

    def _on_udp(self, payload: bytes, _src, _port, _packet) -> None:
        self._account(len(payload))

    def _account(self, nbytes: int) -> None:
        now = self.node.engine.now
        if self._window_start_ns is None:
            self._window_start_ns = now
        self._window_end_ns = now
        self.bytes_received += nbytes

    def reset_window(self) -> None:
        """Discard warm-up bytes; measurement restarts at the next byte."""
        self.bytes_received = 0
        self._window_start_ns = None
        self._window_end_ns = 0

    def goodput_bps(self) -> float:
        if self._window_start_ns is None:
            return 0.0
        return throughput_bps(self.bytes_received, self._window_end_ns - self._window_start_ns)


class NetperfClient:
    """TCP_STREAM / UDP_STREAM driver."""

    def __init__(
        self,
        node: KernelNode,
        ip: IPv4Address,
        server_ip: IPv4Address,
        server_port: int = DEFAULT_PORT,
        mode: str = "TCP_STREAM",
        gso_bytes: int = MSS,
        udp_payload_bytes: int = 1470,
        udp_rate_pps: int = 100_000,
        cpu_index: Optional[int] = None,
    ):
        if mode not in ("TCP_STREAM", "UDP_STREAM"):
            raise ValueError(f"unknown netperf mode {mode!r}")
        self.node = node
        self.mode = mode
        self.server_ip = server_ip
        self.server_port = server_port
        self._running = False
        self._deadline_ns = 0
        if mode == "TCP_STREAM":
            self.conn: Optional[TCPConnection] = node.tcp.connect(
                ip, server_ip, server_port,
                cpu_index=cpu_index, gso_bytes=gso_bytes, app="netperf",
            )
            self.socket = None
        else:
            self.conn = None
            self.socket = node.bind_udp(ip, 31000, cpu_index=cpu_index)
        self.udp_payload_bytes = udp_payload_bytes
        self.udp_rate_pps = udp_rate_pps
        self.chunk_bytes = 256 * 1024

    def start(self, duration_ns: int, start_delay_ns: int = 0) -> None:
        engine = self.node.engine
        self._running = True
        self._deadline_ns = engine.now + start_delay_ns + duration_ns
        engine.schedule(start_delay_ns, self._tick)

    def _tick(self) -> None:
        engine = self.node.engine
        if not self._running or engine.now >= self._deadline_ns:
            self._running = False
            return
        if self.conn is not None:
            # Keep several chunks queued so the app never starves the
            # congestion window (netperf's send loop is back-to-back).
            if self.conn._app_pending < self.chunk_bytes:
                self.conn.send_app_bytes(4 * self.chunk_bytes)
            engine.schedule(250_000, self._tick)
        else:
            self.socket.sendto(
                self.server_ip, self.server_port,
                bytes(self.udp_payload_bytes), app="netperf-udp",
            )
            engine.schedule(int(1e9 / self.udp_rate_pps), self._tick)
