"""iPerf: the bulk UDP traffic generator [7].

The client paces datagrams at a target packet rate (``-b`` analog);
with a rate beyond what the data path can switch, queues at the OVS
ingress saturate -- the congestion driver of Case Study I.
"""

from __future__ import annotations

from typing import Optional

from repro.net.addressing import IPv4Address
from repro.net.stack import KernelNode
from repro.workloads.stats import throughput_bps

DEFAULT_PORT = 5201
DEFAULT_UDP_PAYLOAD = 1470  # classic iperf UDP datagram size


class IperfUDPServer:
    """Counts received datagrams/bytes over the run."""

    def __init__(
        self,
        node: KernelNode,
        ip: IPv4Address,
        port: int = DEFAULT_PORT,
        cpu_index: Optional[int] = None,
    ):
        self.node = node
        self.socket = node.bind_udp(ip, port, cpu_index=cpu_index)
        self.socket.on_receive = self._on_datagram
        self.bytes_received = 0
        self.datagrams = 0
        self._first_ns: Optional[int] = None
        self._last_ns = 0

    def _on_datagram(self, payload: bytes, _src, _port, _packet) -> None:
        now = self.node.engine.now
        if self._first_ns is None:
            self._first_ns = now
        self._last_ns = now
        self.datagrams += 1
        self.bytes_received += len(payload)

    def goodput_bps(self) -> float:
        if self._first_ns is None:
            return 0.0
        return throughput_bps(self.bytes_received, self._last_ns - self._first_ns)


class IperfUDPClient:
    """Fixed-rate UDP sender."""

    def __init__(
        self,
        node: KernelNode,
        ip: IPv4Address,
        server_ip: IPv4Address,
        server_port: int = DEFAULT_PORT,
        local_port: int = 30000,
        payload_bytes: int = DEFAULT_UDP_PAYLOAD,
        rate_pps: int = 100_000,
        cpu_index: Optional[int] = None,
    ):
        self.node = node
        self.server_ip = server_ip
        self.server_port = server_port
        self.payload_bytes = payload_bytes
        self.rate_pps = rate_pps
        self.socket = node.bind_udp(ip, local_port, cpu_index=cpu_index)
        self.sent = 0
        self._running = False
        self._deadline_ns = 0

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
        self.sent += 1
        self.socket.sendto(
            self.server_ip,
            self.server_port,
            bytes(self.payload_bytes),
            app="iperf-udp",
            app_seq=self.sent,
        )
        engine.schedule(int(1e9 / self.rate_pps), self._tick)
