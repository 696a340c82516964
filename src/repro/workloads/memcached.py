"""CloudSuite Data Caching stand-in: memcached server + fixed-rate client.

Matches the paper's Case Study II configuration: the server "simulated
the behavior of a Twitter caching server"; the client runs 4 worker
threads with 20 connections, a GET:SET ratio of 4:1, and a fixed
request rate of 5000 rps, measuring per-request latency.

The protocol is a simplified memcached text protocol over our TCP:
fixed-size requests, value-sized responses, per-request service cost on
the server's vCPU.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.net.addressing import IPv4Address
from repro.net.stack import KernelNode
from repro.net.tcp import TCPConnection
from repro.sim.rng import SeededRNG
from repro.workloads.stats import LatencySummary, summarize_latencies

DEFAULT_PORT = 11211
REQUEST_BYTES = 64        # "get <twitter key>\r\n" padded
GET_RESPONSE_BYTES = 2400  # Twitter dataset multi-get reply
SET_RESPONSE_BYTES = 8    # "STORED\r\n"
GET_SERVICE_NS = 28_000
SET_SERVICE_NS = 32_000
GET_SET_RATIO = 4


def request_is_set(request_index: int) -> bool:
    """The deterministic GET/SET schedule both sides derive: every
    (ratio+1)-th request on a connection is a SET -> a 4:1 mix."""
    return request_index % (GET_SET_RATIO + 1) == GET_SET_RATIO


class MemcachedServer:
    """Accepts connections; answers fixed-size GET/SET requests."""

    def __init__(
        self,
        node: KernelNode,
        ip: IPv4Address,
        port: int = DEFAULT_PORT,
        cpu_index: Optional[int] = None,
    ):
        self.node = node
        self.cpu_index = cpu_index if cpu_index is not None else (
            1 if len(node.cpus) > 1 else 0
        )
        self.listener = node.tcp.listen(
            ip, port, on_connection=self._on_connection, cpu_index=self.cpu_index
        )
        self._rx_bytes: Dict[tuple, int] = {}
        self._req_counts: Dict[tuple, int] = {}
        self.gets = 0
        self.sets = 0

    def _on_connection(self, conn: TCPConnection) -> None:
        conn.on_data = self._on_data
        self._rx_bytes[conn.key] = 0
        self._req_counts[conn.key] = 0

    def _on_data(self, conn: TCPConnection, nbytes: int, packet) -> None:
        pending = self._rx_bytes.get(conn.key, 0) + nbytes
        while pending >= REQUEST_BYTES:
            pending -= REQUEST_BYTES
            self._serve_request(conn)
        self._rx_bytes[conn.key] = pending

    def _serve_request(self, conn: TCPConnection) -> None:
        # Our TCP substrate carries byte counts, not payload contents, so
        # the GET/SET schedule is derived deterministically from the
        # per-connection request index (client and server agree on it):
        # every (ratio+1)-th request is a SET, giving the 4:1 mix.
        count = self._req_counts.get(conn.key, 0)
        self._req_counts[conn.key] = count + 1
        is_set = request_is_set(count)
        if is_set:
            self.sets += 1
            service_ns, response = SET_SERVICE_NS, SET_RESPONSE_BYTES
        else:
            self.gets += 1
            service_ns, response = GET_SERVICE_NS, GET_RESPONSE_BYTES
        cpu = self.node.cpus[self.cpu_index]
        self.node.charge(cpu, self.node.noisy(service_ns), conn.send_app_bytes, response)


class DataCachingClient:
    """Open-loop fixed-rate GET/SET client over many connections."""

    def __init__(
        self,
        node: KernelNode,
        ip: IPv4Address,
        server_ip: IPv4Address,
        server_port: int = DEFAULT_PORT,
        workers: int = 4,
        connections_per_worker: int = 5,  # 4 workers x 20 total connections
        rps: int = 5000,
        get_set_ratio: int = 4,
        rng: Optional[SeededRNG] = None,
        cpu_index: Optional[int] = None,
    ):
        self.node = node
        self.rps = rps
        self.get_set_ratio = get_set_ratio
        self.rng = rng or node.rng.fork("datacaching")
        self.connections: List[TCPConnection] = []
        self._conn_busy: Dict[tuple, bool] = {}
        self._conn_expected: Dict[tuple, int] = {}
        self._conn_started: Dict[tuple, int] = {}
        self._conn_rx: Dict[tuple, int] = {}
        self._conn_req_index: Dict[tuple, int] = {}
        self.latencies_ns: List[int] = []
        self.dropped_for_busy = 0
        self.issued = 0
        self._running = False
        self._deadline_ns = 0
        self._rr = 0
        total_conns = workers * connections_per_worker
        for i in range(total_conns):
            conn = node.tcp.connect(
                ip, server_ip, server_port, cpu_index=cpu_index, app="datacaching"
            )
            conn.on_data = self._on_response
            self.connections.append(conn)
            self._conn_busy[conn.key] = False
            self._conn_rx[conn.key] = 0
            self._conn_req_index[conn.key] = 0

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
        self._issue()
        engine.schedule(int(1e9 / self.rps), self._tick)

    def _pick_connection(self) -> Optional[TCPConnection]:
        for _ in range(len(self.connections)):
            conn = self.connections[self._rr % len(self.connections)]
            self._rr += 1
            if conn.state == TCPConnection.ESTABLISHED and not self._conn_busy[conn.key]:
                return conn
        return None

    def _issue(self) -> None:
        conn = self._pick_connection()
        if conn is None:
            self.dropped_for_busy += 1
            return
        request_index = self._conn_req_index[conn.key]
        self._conn_req_index[conn.key] = request_index + 1
        is_set = request_is_set(request_index)
        expected = SET_RESPONSE_BYTES if is_set else GET_RESPONSE_BYTES
        self._conn_busy[conn.key] = True
        self._conn_expected[conn.key] = expected
        self._conn_started[conn.key] = self.node.engine.now
        self._conn_rx[conn.key] = 0
        self.issued += 1
        conn.send_app_bytes(REQUEST_BYTES)

    def _on_response(self, conn: TCPConnection, nbytes: int, _packet) -> None:
        key = conn.key
        if not self._conn_busy.get(key):
            return
        self._conn_rx[key] += nbytes
        if self._conn_rx[key] >= self._conn_expected[key]:
            self.latencies_ns.append(self.node.engine.now - self._conn_started[key])
            self._conn_busy[key] = False

    def summary(self) -> LatencySummary:
        return summarize_latencies(self.latencies_ns)
