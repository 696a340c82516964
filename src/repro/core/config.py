"""Control-plane configuration objects (§III-D: "highly modularized
control package, which includes the tracing rules, tracepoint
locations, actions and global configurations").

A :class:`TracingSpec` is what the user gives the dispatcher; the
dispatcher expands it into per-node :class:`ControlPackage` objects.
All of it is plain data.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.net.addressing import IPv4Address
from repro.net.packet import IPPROTO_TCP, IPPROTO_UDP

_tracepoint_id_counter = itertools.count(1)


class ConfigError(ValueError):
    """Malformed tracing configuration."""


@dataclass
class FilterRule:
    """Which packets a script matches; None fields are wildcards.

    Mirrors the paper's example inputs: "the containerized application
    source IP, destination IP, source port, destination port, etc."
    IP matches may be narrowed to prefixes (``src_prefix_len`` /
    ``dst_prefix_len``), compiled to mask-and-compare instructions.
    """

    src_ip: Optional[IPv4Address] = None
    dst_ip: Optional[IPv4Address] = None
    src_port: Optional[int] = None
    dst_port: Optional[int] = None
    protocol: Optional[int] = None  # IPPROTO_TCP / IPPROTO_UDP
    ethertype: Optional[int] = None
    src_prefix_len: int = 32
    dst_prefix_len: int = 32

    def __post_init__(self) -> None:
        for port in (self.src_port, self.dst_port):
            if port is not None and not 0 < port < 65536:
                raise ConfigError(f"port out of range: {port}")
        if self.protocol is not None and self.protocol not in (IPPROTO_TCP, IPPROTO_UDP):
            raise ConfigError(f"unsupported protocol {self.protocol}")
        for prefix in (self.src_prefix_len, self.dst_prefix_len):
            if not 0 <= prefix <= 32:
                raise ConfigError(f"prefix length out of range: {prefix}")

    def matches_everything(self) -> bool:
        return all(
            value is None
            for value in (
                self.src_ip,
                self.dst_ip,
                self.src_port,
                self.dst_port,
                self.protocol,
                self.ethertype,
            )
        )


# Trace-ID location modes the compiler knows how to read back.
ID_MODE_NONE = "none"
ID_MODE_UDP_TRAILER = "udp-trailer"
ID_MODE_TCP_OPTION = "tcp-option"


@dataclass
class TracepointSpec:
    """Where to attach: node + hook (+ VXLAN stripping + ID location).

    ``hook`` uses the probe syntax: ``dev:vnet0``,
    ``kprobe:udp_send_skb``, ``kretprobe:tcp_recvmsg`` ...
    """

    node: str
    hook: str
    strip_vxlan: bool = False
    id_mode: str = ID_MODE_UDP_TRAILER
    label: str = ""
    tracepoint_id: int = field(default_factory=lambda: next(_tracepoint_id_counter))

    def __post_init__(self) -> None:
        if ":" not in self.hook:
            raise ConfigError(f"hook {self.hook!r} must be '<kind>:<target>'")
        if self.id_mode not in (ID_MODE_NONE, ID_MODE_UDP_TRAILER, ID_MODE_TCP_OPTION):
            raise ConfigError(f"unknown id_mode {self.id_mode!r}")
        if not self.label:
            self.label = f"{self.node}:{self.hook}"


@dataclass
class ActionSpec:
    """What a matching script does.

    * record -- build a trace record (ID, timestamp, length, CPU) and
      stream it out through the perf buffer;
    * count -- bump a per-CPU counter map (cheap rate accounting);
    * size_histogram -- log2-bucket the packet length into a per-CPU
      histogram map, entirely in kernel (BCC ``lhist`` style): a size
      distribution with zero per-packet records;
    * sample_shift -- when > 0, record/count only ~1/2^n of matching
      packets, decided in-program via ``get_prandom_u32`` (overhead
      control for very hot tracepoints).
    """

    record: bool = True
    count: bool = False
    size_histogram: bool = False
    sample_shift: int = 0

    def __post_init__(self) -> None:
        if not (self.record or self.count or self.size_histogram):
            raise ConfigError("an action must record, count, or histogram")
        if not 0 <= self.sample_shift <= 16:
            raise ConfigError(f"sample_shift out of range: {self.sample_shift}")


# Ring-buffer overflow degradation policies (docs/FAULTS.md).
RING_POLICY_DROP_NEWEST = "drop-newest"
RING_POLICY_DROP_OLDEST = "drop-oldest"
RING_POLICY_SAMPLE = "sample"
RING_POLICIES = (RING_POLICY_DROP_NEWEST, RING_POLICY_DROP_OLDEST, RING_POLICY_SAMPLE)


@dataclass
class GlobalConfig:
    """§III-D "global information": ring sizing, collection mode and
    the delivery retry budgets."""

    ring_buffer_bytes: int = 64 * 1024
    flush_interval_ns: int = 10_000_000  # 10 ms
    online_collection: bool = False
    jit: bool = True

    # Resilient delivery (docs/FAULTS.md).  ``*_max_attempts`` counts
    # every transmission including the first; 1 disables retries.  The
    # capped exponential backoff between attempts is a constant of the
    # dispatcher and the agent.
    deploy_max_attempts: int = 4
    deploy_ack_timeout_ns: int = 1_000_000  # 1 ms
    ship_max_attempts: int = 4
    ship_ack_timeout_ns: int = 2_000_000  # 2 ms

    # Ring-buffer degradation policy on overflow: "drop-newest" (the
    # classic behaviour: the arriving record is rejected), "drop-oldest"
    # (evict buffered records to make room), or "sample" (admit the
    # arriving record with probability ``agent.RING_SAMPLE_PROB`` once
    # full).
    ring_policy: str = RING_POLICY_DROP_NEWEST

    # The paper's footnote 1: "the buffer size range is from 32 bytes to
    # 128k-16 bytes" (a kmalloc limitation).
    MIN_RING_BYTES = 32
    MAX_RING_BYTES = 128 * 1024 - 16

    def __post_init__(self) -> None:
        if not self.MIN_RING_BYTES <= self.ring_buffer_bytes <= self.MAX_RING_BYTES:
            raise ConfigError(
                f"ring buffer size {self.ring_buffer_bytes} outside "
                f"[{self.MIN_RING_BYTES}, {self.MAX_RING_BYTES}]"
            )
        for name in ("deploy_max_attempts", "ship_max_attempts"):
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} must be >= 1")
        for name in ("deploy_ack_timeout_ns", "ship_ack_timeout_ns"):
            if getattr(self, name) < 0:
                raise ConfigError(f"{name} must be >= 0")
        if self.ring_policy not in RING_POLICIES:
            raise ConfigError(
                f"unknown ring_policy {self.ring_policy!r} "
                f"(choose from {sorted(RING_POLICIES)})"
            )


@dataclass
class TracingSpec:
    """Everything the user asks for in one deployment."""

    rule: FilterRule
    tracepoints: List[TracepointSpec]
    action: ActionSpec = field(default_factory=ActionSpec)
    global_config: GlobalConfig = field(default_factory=GlobalConfig)

    def __post_init__(self) -> None:
        if not self.tracepoints:
            raise ConfigError("a tracing spec needs at least one tracepoint")
        labels = [tp.label for tp in self.tracepoints]
        if len(set(labels)) != len(labels):
            raise ConfigError(f"duplicate tracepoint labels: {labels}")

    def tracepoints_for(self, node: str) -> List[TracepointSpec]:
        return [tp for tp in self.tracepoints if tp.node == node]

    def nodes(self) -> List[str]:
        seen: Dict[str, None] = {}
        for tp in self.tracepoints:
            seen.setdefault(tp.node, None)
        return list(seen)


@dataclass
class ControlPackage:
    """What the dispatcher actually ships to one agent."""

    node: str
    rule: FilterRule
    tracepoints: List[TracepointSpec]
    action: ActionSpec
    global_config: GlobalConfig
