"""Declarative multi-tier service topologies (docs/SERVICES.md).

A :class:`ServiceGraph` names the tiers of a microservice deployment
(client, load balancer, mesh, backend, cache ...) and the RPC edges
between them, then *compiles* to real engine wiring: one
:class:`~repro.net.stack.KernelNode` per replica, one rate-limited
point-to-point link per (caller replica, callee replica) pair, and a
:class:`~repro.services.runtime.Service` event loop on every node.

The builder is order-sensitive in one deliberate way: ``.calls(...)``
applies to the most recently declared tier, so a topology reads
top-down::

    graph = (
        ServiceGraph()
        .tier("client", replicas=1)
        .calls("lb", fanout=1)
        .tier("lb", replicas=2)
        .calls("backend", fanout=3)
        .tier("backend", replicas=3)
        .calls("cache", fanout=1)
        .tier("cache", replicas=2)
    )
    deployment = graph.compile(engine, seed=21)

Tiers may be declared after the edges that reference them (as above);
:meth:`validate` checks the whole graph at compile time.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

# Every service binds this UDP port on all its link addresses, so one
# dst-port filter rule traces every request *and* response in a run.
RPC_PORT = 7000

# Defaults for the ServiceGraph config keys (docs/SERVICES.md pins the
# documented table to this mapping).
TIER_DEFAULTS = {
    "replicas": 1,
    "work_ns": 20_000,
    "port": RPC_PORT,
    "cpus": 2,
}
CALL_DEFAULTS = {
    "fanout": 1,
    "payload_bytes": 64,
}
SERVICEGRAPH_DEFAULTS = {**TIER_DEFAULTS, **CALL_DEFAULTS}


class ServiceGraphError(ValueError):
    """Invalid topology declarations (unknown targets, cycles, ...)."""


@dataclass(frozen=True)
class TierSpec:
    """One named tier: ``replicas`` identical service nodes."""

    name: str
    replicas: int = TIER_DEFAULTS["replicas"]
    work_ns: int = TIER_DEFAULTS["work_ns"]
    port: int = TIER_DEFAULTS["port"]
    cpus: int = TIER_DEFAULTS["cpus"]


@dataclass(frozen=True)
class CallSpec:
    """One RPC edge: every request handled by ``caller`` issues
    ``fanout`` child requests into the ``target`` tier."""

    caller: str
    target: str
    fanout: int = CALL_DEFAULTS["fanout"]
    payload_bytes: int = CALL_DEFAULTS["payload_bytes"]


class ServiceGraph:
    """Fluent builder for a tiered RPC topology."""

    def __init__(self) -> None:
        self._tiers: Dict[str, TierSpec] = {}
        self._calls: List[CallSpec] = []
        self._current: Optional[str] = None

    # -- declaration --------------------------------------------------------

    def tier(
        self,
        name: str,
        *,
        replicas: int = TIER_DEFAULTS["replicas"],
        work_ns: int = TIER_DEFAULTS["work_ns"],
        port: int = TIER_DEFAULTS["port"],
        cpus: int = TIER_DEFAULTS["cpus"],
    ) -> "ServiceGraph":
        """Declare a tier; subsequent :meth:`calls` attach to it."""
        if not name or not name.isidentifier():
            raise ServiceGraphError(f"tier name must be an identifier, got {name!r}")
        if name in self._tiers:
            raise ServiceGraphError(f"duplicate tier {name!r}")
        if replicas < 1:
            raise ServiceGraphError(f"tier {name!r}: replicas must be >= 1")
        if work_ns < 0:
            raise ServiceGraphError(f"tier {name!r}: work_ns must be >= 0")
        self._tiers[name] = TierSpec(
            name=name, replicas=replicas, work_ns=work_ns, port=port, cpus=cpus
        )
        self._current = name
        return self

    def calls(
        self,
        target: str,
        *,
        fanout: int = CALL_DEFAULTS["fanout"],
        payload_bytes: int = CALL_DEFAULTS["payload_bytes"],
    ) -> "ServiceGraph":
        """Declare an RPC edge from the most recent tier to ``target``."""
        if self._current is None:
            raise ServiceGraphError(".calls() must follow a .tier() declaration")
        if fanout < 1:
            raise ServiceGraphError(f"call {self._current!r}->{target!r}: fanout must be >= 1")
        self._calls.append(
            CallSpec(
                caller=self._current,
                target=target,
                fanout=fanout,
                payload_bytes=payload_bytes,
            )
        )
        return self

    # -- inspection ---------------------------------------------------------

    @property
    def tiers(self) -> Tuple[TierSpec, ...]:
        return tuple(self._tiers.values())

    @property
    def call_specs(self) -> Tuple[CallSpec, ...]:
        return tuple(self._calls)

    def calls_from(self, tier_name: str) -> Tuple[CallSpec, ...]:
        return tuple(call for call in self._calls if call.caller == tier_name)

    def root_tiers(self) -> Tuple[TierSpec, ...]:
        """Tiers that originate requests: callers nobody calls into."""
        targets = {call.target for call in self._calls}
        return tuple(
            spec
            for spec in self._tiers.values()
            if spec.name not in targets and self.calls_from(spec.name)
        )

    def validate(self) -> None:
        """Whole-graph checks, raised as :class:`ServiceGraphError`."""
        if not self._tiers:
            raise ServiceGraphError("service graph has no tiers")
        for call in self._calls:
            if call.target not in self._tiers:
                raise ServiceGraphError(
                    f"call {call.caller!r}->{call.target!r} targets an undeclared tier"
                )
        if self._calls and not self.root_tiers():
            raise ServiceGraphError("no root tier: every tier is called by another")
        self._check_acyclic()

    def _check_acyclic(self) -> None:
        WHITE, GRAY, BLACK = 0, 1, 2
        color = {name: WHITE for name in self._tiers}

        def visit(name: str, path: Tuple[str, ...]) -> None:
            color[name] = GRAY
            for call in self.calls_from(name):
                if color.get(call.target) == GRAY:
                    cycle = " -> ".join(path + (name, call.target))
                    raise ServiceGraphError(f"service graph has a cycle: {cycle}")
                if color.get(call.target) == WHITE:
                    visit(call.target, path + (name,))
            color[name] = BLACK

        for name in self._tiers:
            if color[name] == WHITE:
                visit(name, ())

    # -- compilation --------------------------------------------------------

    def compile(
        self,
        engine,
        *,
        registry=None,
        seed: int = 0,
        link_gbps: float = 1.0,
        propagation_ns: int = 20_000,
    ):
        """Compile to engine wiring; returns a
        :class:`~repro.services.runtime.ServiceDeployment`."""
        from repro.services.runtime import ServiceDeployment

        self.validate()
        return ServiceDeployment(
            engine,
            self,
            registry=registry,
            seed=seed,
            link_gbps=link_gbps,
            propagation_ns=propagation_ns,
        )
