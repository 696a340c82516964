"""The compiled service layer: nodes, links, and the RPC event loop.

:class:`ServiceDeployment` turns a validated
:class:`~repro.services.graph.ServiceGraph` into engine wiring:

* one :class:`~repro.net.stack.KernelNode` per tier replica, its RNG
  forked from the deployment seed so runs are deterministic;
* one rate-limited point-to-point link (``connect_hosts``) per
  (caller replica, callee replica) pair, each on its own /30 subnet,
  so congestion is per-edge and real;
* a :class:`Service` on every node: one UDP socket bound to
  ``INADDR_ANY`` on the tier port, handling requests (charge
  ``work_ns``, fan out child calls), responses (fan-in, reply
  upstream), and client-origin load.

Causality travels *in the wire bytes*: every request carries its
parent's trace ID in the embed trailer
(:mod:`repro.net.traceid`), and every receiver records the
(child, parents) link it reads back, building the
``deployment.links`` map that
:meth:`repro.tracing.reconstruct.SpanAssembler.rpc_forest` turns into
cross-service span forests.  The RPC message itself
(:data:`RPC_STRUCT`) stays causality-free -- kind, depth, and a
caller-local sequence tag only -- exactly like a production app whose
framing knows nothing about tracing.
"""

from __future__ import annotations

import itertools
import struct
from dataclasses import dataclass
from typing import Dict, List, NamedTuple, Optional, Tuple

from repro.net.addressing import IPv4Address
from repro.net.nic import connect_hosts
from repro.net.stack import KernelNode, UDPSocket
from repro.net.traceid import (
    META_PARENT_IDS,
    META_TRACE_ID,
    TraceIDEngine,
    wire_record_id,
)
from repro.obs import contract
from repro.obs.registry import MetricsRegistry
from repro.services.graph import CallSpec, ServiceGraph, TierSpec
from repro.sim.rng import SeededRNG

# On-wire RPC framing (docs/SERVICES.md): kind u8, depth u8, seq u32.
RPC_STRUCT = struct.Struct("!BBI")
RPC_KIND_REQUEST = 1
RPC_KIND_RESPONSE = 2
# Responses are fixed-size control messages; request sizes come from
# the per-edge ``payload_bytes`` config key.
RESPONSE_PAYLOAD_BYTES = 32

# The doc contract table (tests/test_docs_services.py) pins this.
RPC_MESSAGE_FIELDS: Tuple[Tuple[str, str, str], ...] = (
    ("kind", "u8", "1 = request, 2 = response"),
    ("depth", "u8", "tiers below the originating root tier"),
    ("seq", "u32", "caller-local fan-in tag, echoed by the response"),
)

# Per-edge /30 subnets are carved from this block in declaration order.
_SUBNET_BASE = IPv4Address("10.90.0.0").value


def _pack_rpc(kind: int, depth: int, seq: int, payload_bytes: int) -> bytes:
    body = RPC_STRUCT.pack(kind, depth & 0xFF, seq & 0xFFFFFFFF)
    return body.ljust(max(payload_bytes, RPC_STRUCT.size), b"\x00")


def unpack_rpc(payload: bytes) -> Tuple[int, int, int]:
    """(kind, depth, seq) from an RPC payload (post-trim)."""
    return RPC_STRUCT.unpack_from(payload)


class ServiceEdge(NamedTuple):
    """One compiled (caller replica, callee replica) link."""

    caller: str
    callee: str
    caller_ip: IPv4Address
    callee_ip: IPv4Address
    caller_device: str
    callee_device: str
    link: object


@dataclass
class _Pending:
    """One request awaiting fan-in on a service node."""

    upstream: Optional[Tuple[IPv4Address, int]]
    request_id: Optional[int]
    seq_echo: int
    depth: int
    outstanding: int
    started_ns: int


class Service:
    """The per-replica RPC event loop."""

    def __init__(self, deployment: "ServiceDeployment", tier: TierSpec, node: KernelNode):
        self.deployment = deployment
        self.tier = tier
        self.node = node
        self.name = node.name
        self.socket: UDPSocket = node.bind_udp(IPv4Address(0), tier.port)
        self.socket.on_receive = self._on_datagram
        # Deterministic replica selection, forked per node.
        self.rng: SeededRNG = node.rng.fork("rpc")
        self._pending: Dict[int, _Pending] = {}
        self._tags = itertools.count(1)
        self.requests_handled = 0
        self.responses_sent = 0
        self.calls_issued = 0
        self.completed: List[int] = []  # root-request latencies, ns

    # -- ingress ------------------------------------------------------------

    def _on_datagram(
        self, payload: bytes, src_ip: IPv4Address, src_port: int, packet
    ) -> None:
        rid = packet.metadata.get(META_TRACE_ID)
        parents = tuple(packet.metadata.get(META_PARENT_IDS, ()))
        self.deployment.record_link(rid, parents)
        if len(payload) < RPC_STRUCT.size:
            return
        kind, depth, seq = unpack_rpc(payload)
        if kind == RPC_KIND_REQUEST:
            self._handle_request(src_ip, src_port, rid, depth, seq)
        elif kind == RPC_KIND_RESPONSE:
            self._handle_response(seq)

    # -- requests -----------------------------------------------------------

    def issue_request(self) -> None:
        """Client-origin load: handle a virtual request with no upstream."""
        self._start_request(upstream=None, request_id=None, seq_echo=0, depth=0)

    def _handle_request(
        self,
        src_ip: IPv4Address,
        src_port: int,
        request_id: Optional[int],
        depth: int,
        seq: int,
    ) -> None:
        self._start_request(
            upstream=(src_ip, src_port),
            request_id=request_id,
            seq_echo=seq,
            depth=depth,
        )

    def _start_request(
        self,
        upstream: Optional[Tuple[IPv4Address, int]],
        request_id: Optional[int],
        seq_echo: int,
        depth: int,
    ) -> None:
        self.requests_handled += 1
        self.deployment.count_request(self.tier.name)
        started_ns = self.node.engine.now
        cpu = self.node.cpus[self.socket.cpu_index]

        def after_work() -> None:
            calls = self.deployment.graph.calls_from(self.tier.name)
            total = sum(call.fanout for call in calls)
            if total == 0:
                self._respond(upstream, request_id, seq_echo, depth)
                return
            tag = next(self._tags)
            self._pending[tag] = _Pending(
                upstream=upstream,
                request_id=request_id,
                seq_echo=seq_echo,
                depth=depth,
                outstanding=total,
                started_ns=started_ns,
            )
            self.deployment.set_inflight(self.name, len(self._pending))
            for call in calls:
                self._fan_out(call, tag, depth, request_id)

        self.node.charge(cpu, self.tier.work_ns, after_work, front=True)

    def _fan_out(
        self, call: CallSpec, tag: int, depth: int, parent_id: Optional[int]
    ) -> None:
        replicas = self.deployment.services[call.target]
        offset = self.rng.random_u32() % len(replicas)
        for k in range(call.fanout):
            callee = replicas[(offset + k) % len(replicas)]
            dst_ip = self.deployment.edge_ip(self.name, callee.name)
            self.calls_issued += 1
            self.deployment.count_call(self.tier.name, call.target)
            self.socket.sendto(
                dst_ip,
                callee.tier.port,
                _pack_rpc(RPC_KIND_REQUEST, depth + 1, tag, call.payload_bytes),
                app=f"rpc:{self.tier.name}->{call.target}",
                app_seq=tag,
                parent_id=parent_id,
            )

    # -- responses ----------------------------------------------------------

    def _handle_response(self, seq: int) -> None:
        pending = self._pending.get(seq)
        if pending is None:
            return
        pending.outstanding -= 1
        if pending.outstanding > 0:
            return
        del self._pending[seq]
        self.deployment.set_inflight(self.name, len(self._pending))
        if pending.upstream is None:
            latency = self.node.engine.now - pending.started_ns
            self.completed.append(latency)
            self.deployment.count_completion(self.tier.name, latency)
            return
        self._respond(
            pending.upstream, pending.request_id, pending.seq_echo, pending.depth
        )

    def _respond(
        self,
        upstream: Optional[Tuple[IPv4Address, int]],
        request_id: Optional[int],
        seq_echo: int,
        depth: int,
    ) -> None:
        if upstream is None:  # a root tier with no downstream calls
            self.completed.append(0)
            return
        dst_ip, dst_port = upstream
        self.responses_sent += 1
        self.deployment.count_response(self.tier.name)
        self.socket.sendto(
            dst_ip,
            dst_port,
            _pack_rpc(RPC_KIND_RESPONSE, depth, seq_echo, RESPONSE_PAYLOAD_BYTES),
            app=f"rpc:{self.tier.name}",
            app_seq=seq_echo,
            parent_id=request_id,
        )


class ServiceDeployment:
    """A compiled service graph bound to one engine."""

    def __init__(
        self,
        engine,
        graph: ServiceGraph,
        *,
        registry=None,
        seed: int = 0,
        link_gbps: float = 1.0,
        propagation_ns: int = 20_000,
    ):
        self.engine = engine
        self.graph = graph
        self.seed = seed
        self.services: Dict[str, List[Service]] = {}
        self.nodes: List[KernelNode] = []
        self.edges: List[ServiceEdge] = []
        self._edge_ip: Dict[Tuple[str, str], IPv4Address] = {}
        # child trace ID -> parent trace IDs, read back from the wire.
        self.links: Dict[int, Tuple[int, ...]] = {}
        registry = registry if registry is not None else MetricsRegistry()
        self._metrics = {
            "requests": registry.register_spec(contract.RPC_REQUESTS),
            "responses": registry.register_spec(contract.RPC_RESPONSES),
            "calls": registry.register_spec(contract.RPC_CALLS),
            "links": registry.register_spec(contract.RPC_LINKS_RECORDED),
            "inflight": registry.register_spec(contract.RPC_INFLIGHT),
            "latency": registry.register_spec(contract.RPC_REQUEST_LATENCY),
        }
        self._link_count = itertools.count(0)

        for tier in graph.tiers:
            replicas: List[Service] = []
            for index in range(tier.replicas):
                name = f"{tier.name}{index}"
                node = KernelNode(
                    engine,
                    name,
                    num_cpus=tier.cpus,
                    rng=SeededRNG(seed, f"services/{name}"),
                )
                TraceIDEngine.attach(node, mode="udp_payload")
                replicas.append(Service(self, tier, node))
                self.nodes.append(node)
            self.services[tier.name] = replicas

        for call in graph.call_specs:
            for caller in self.services[call.caller]:
                for callee in self.services[call.target]:
                    self._wire_edge(caller, callee, link_gbps, propagation_ns)

    # -- wiring -------------------------------------------------------------

    def _wire_edge(
        self, caller: Service, callee: Service, link_gbps: float, propagation_ns: int
    ) -> None:
        index = next(self._link_count)
        network = IPv4Address(_SUBNET_BASE + 4 * index)
        caller_ip = IPv4Address(network.value + 1)
        callee_ip = IPv4Address(network.value + 2)
        dev_a = f"eth{len(caller.node.devices)}"
        dev_b = f"eth{len(callee.node.devices)}"
        nic_a, nic_b, link = connect_hosts(
            self.engine,
            caller.node,
            dev_a,
            callee.node,
            dev_b,
            rate_gbps=link_gbps,
            propagation_ns=propagation_ns,
        )
        nic_a.ip, nic_b.ip = caller_ip, callee_ip
        caller.node.add_route(network, 30, nic_a, src_ip=caller_ip)
        callee.node.add_route(network, 30, nic_b, src_ip=callee_ip)
        caller.node.add_neighbor(callee_ip, nic_b.mac)
        callee.node.add_neighbor(caller_ip, nic_a.mac)
        self._edge_ip[(caller.name, callee.name)] = callee_ip
        self.edges.append(
            ServiceEdge(
                caller=caller.name,
                callee=callee.name,
                caller_ip=caller_ip,
                callee_ip=callee_ip,
                caller_device=dev_a,
                callee_device=dev_b,
                link=link,
            )
        )

    def edge_ip(self, caller_name: str, callee_name: str) -> IPv4Address:
        return self._edge_ip[(caller_name, callee_name)]

    def edge(self, caller_name: str, callee_name: str) -> ServiceEdge:
        for edge in self.edges:
            if edge.caller == caller_name and edge.callee == callee_name:
                return edge
        raise KeyError(f"no edge {caller_name!r} -> {callee_name!r}")

    def service(self, tier_name: str, replica: int = 0) -> Service:
        return self.services[tier_name][replica]

    # -- load ---------------------------------------------------------------

    def start_load(
        self, requests: int, interval_ns: int, start_ns: int = 0
    ) -> None:
        """Schedule ``requests`` root requests, round-robin across the
        replicas of the root tiers."""
        roots = [svc for tier in self.graph.root_tiers() for svc in self.services[tier.name]]
        if not roots:
            raise ValueError("service graph has no root tier to originate load")
        for i in range(requests):
            svc = roots[i % len(roots)]
            self.engine.schedule(start_ns + i * interval_ns, svc.issue_request)

    @property
    def completed_requests(self) -> int:
        return sum(
            len(svc.completed)
            for tier in self.graph.root_tiers()
            for svc in self.services[tier.name]
        )

    @property
    def client_latencies(self) -> List[int]:
        return [
            latency
            for tier in self.graph.root_tiers()
            for svc in self.services[tier.name]
            for latency in svc.completed
        ]

    # -- causality ----------------------------------------------------------

    def record_link(self, child_id: Optional[int], parents: Tuple[int, ...]) -> None:
        """Record a (child, parents) causality link, keyed in the
        collector's ID space (see :func:`wire_record_id`) so the links
        join directly against TraceDB rows."""
        if child_id is None or not parents:
            return
        child = wire_record_id(child_id)
        if child not in self.links:
            self.links[child] = tuple(wire_record_id(p) for p in parents)
            self._metrics["links"].inc()

    # -- metrics ------------------------------------------------------------

    def count_request(self, tier_name: str) -> None:
        self._metrics["requests"].inc(labels=(tier_name,))

    def count_response(self, tier_name: str) -> None:
        self._metrics["responses"].inc(labels=(tier_name,))

    def count_call(self, caller: str, callee: str) -> None:
        self._metrics["calls"].inc(labels=(caller, callee))

    def count_completion(self, tier_name: str, latency_ns: int) -> None:
        self._metrics["latency"].observe(latency_ns, labels=(tier_name,))

    def set_inflight(self, node_name: str, value: int) -> None:
        self._metrics["inflight"].set(value, labels=(node_name,))
