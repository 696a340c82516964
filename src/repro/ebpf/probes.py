"""Probe attach points and the per-kernel hook registry.

Every simulated kernel function and network device is a *hook*.  The
stack fires hooks as packets traverse it; attached handlers (eBPF
programs via :class:`EBPFAttachment`, or the SystemTap baseline) run and
return their simulated cost, which the caller charges to the packet /
CPU.  This is the mechanism behind §III-B: "vNetTracer supports
instrumenting kernel functions, return of kernel functions, kernel
tracepoints and raw sockets through kprobe, kretprobe, tracepoints and
network devices."

Hook names are structured: ``kprobe:udp_send_skb``,
``kretprobe:tcp_recvmsg``, ``tracepoint:net:net_dev_xmit``,
``dev:eth0``, ``socket:5201``.
"""

from __future__ import annotations

import itertools
from typing import Callable, Dict, Optional, Tuple

from repro.ebpf.context import empty_fields, skb_fields
from repro.ebpf.vm import BPFProgram, ExecutionEnv
from repro.net.packet import Packet

_attach_id_counter = itertools.count(1)


class ProbeEvent:
    """What a firing hook passes to handlers: the hook, the packet (if
    the probe point has one), the device's ifindex and the CPU."""

    __slots__ = ("hook", "packet", "ifindex", "cpu")

    def __init__(self, hook: str, packet: Optional[Packet] = None, ifindex: int = 0, cpu: int = 0):
        self.hook = hook
        self.packet = packet
        self.ifindex = ifindex
        self.cpu = cpu

    def __repr__(self) -> str:
        return f"<ProbeEvent {self.hook} cpu{self.cpu} pkt={self.packet!r}>"


class Attachment:
    """Base class: anything attachable to a hook."""

    def __init__(self, name: str = ""):
        self.attach_id = next(_attach_id_counter)
        self.name = name or f"attachment-{self.attach_id}"

    def handle(self, event: ProbeEvent) -> int:
        """Process one event; return the simulated cost in nanoseconds."""
        raise NotImplementedError


class EBPFAttachment(Attachment):
    """An eBPF program bound to a hook with its execution environment.

    ``clock`` should be the owning node's CLOCK_MONOTONIC reader;
    ``hook_id`` is baked into the context so records identify their
    tracepoint; ``use_inner`` asks the context builder to strip
    encapsulation before parsing the five-tuple; ``shadow`` turns on the
    program's shadow mode so every firing is checked against the
    interpreter.
    """

    def __init__(
        self,
        program: BPFProgram,
        env: ExecutionEnv,
        hook_id: int = 0,
        use_inner: bool = False,
        name: str = "",
        shadow: bool = False,
    ):
        super().__init__(name or program.name)
        self.program = program
        if shadow:
            program.shadow = True
        self.env = env
        self.hook_id = hook_id
        self.use_inner = use_inner
        self.events_seen = 0
        self.events_matched = 0

    def handle(self, event: ProbeEvent) -> int:
        self.events_seen += 1
        packet = event.packet
        if packet is None:
            # kprobe on a function without an skb (e.g. net_rx_action):
            # the program runs against a zeroed context.
            fields, data = empty_fields(event.ifindex, event.cpu, self.hook_id), bytearray(0)
        else:
            fields, data = skb_fields(
                packet, event.ifindex, event.cpu, self.hook_id, self.use_inner
            )
        env = self.env
        env.cpu = event.cpu
        r0, cost_ns = self.program.fire(env, fields, data)
        if r0:
            self.events_matched += 1
        return cost_ns


class CallbackAttachment(Attachment):
    """A plain-Python handler with a fixed cost; used by tests and by the
    SystemTap baseline's building blocks."""

    def __init__(self, callback: Callable[[ProbeEvent], None], cost_ns: int = 0, name: str = ""):
        super().__init__(name)
        self.callback = callback
        self.cost_ns = cost_ns

    def handle(self, event: ProbeEvent) -> int:
        self.callback(event)
        return self.cost_ns


class HookRegistry:
    """Per-kernel registry of hooks and their attachments.

    The simulated stack reaches every instrumentable point through
    :meth:`fire_unattached` first: with nothing attached a fire is one
    counter increment and no :class:`ProbeEvent` is built, which models
    how an un-probed kernel function costs nothing extra.  Only an
    attached hook pays for the event and goes through :meth:`fire`.

    Each hook's handlers are a tuple that :meth:`attach` and
    :meth:`detach` replace rather than edit (copy-on-write, as an RCU
    probe list is): a fire runs exactly the handlers attached when it
    began, even if one of them detaches itself or another mid-fire.
    """

    def __init__(self, node_name: str = ""):
        self.node_name = node_name
        self._attachments: Dict[str, Tuple[Attachment, ...]] = {}
        self.fire_counts: Dict[str, int] = {}

    def attach(self, hook_name: str, attachment: Attachment) -> Attachment:
        self._attachments[hook_name] = self._attachments.get(hook_name, ()) + (attachment,)
        return attachment

    def detach(self, hook_name: str, attachment: Attachment) -> bool:
        handlers = self._attachments.get(hook_name, ())
        try:
            at = handlers.index(attachment)
        except ValueError:
            return False
        remaining = handlers[:at] + handlers[at + 1 :]
        if remaining:
            self._attachments[hook_name] = remaining
        else:
            del self._attachments[hook_name]
        return True

    def has_attachments(self, hook_name: str) -> bool:
        return hook_name in self._attachments

    def fire_unattached(self, hook_name: str) -> bool:
        """Count one fire of ``hook_name`` if nothing is attached to it.

        ``False`` means something is attached and nothing was counted:
        the caller builds the :class:`ProbeEvent` and calls :meth:`fire`.
        """
        if hook_name in self._attachments:
            return False
        self.fire_counts[hook_name] = self.fire_counts.get(hook_name, 0) + 1
        return True

    def fire(self, event: ProbeEvent) -> int:
        """Fire a hook; returns total handler cost in nanoseconds."""
        self.fire_counts[event.hook] = self.fire_counts.get(event.hook, 0) + 1
        total_cost = 0
        for handler in self._attachments.get(event.hook, ()):
            total_cost += handler.handle(event)
        return total_cost

    def fires(self, hook_name: str) -> int:
        return self.fire_counts.get(hook_name, 0)

    def __repr__(self) -> str:
        active = {k: len(v) for k, v in self._attachments.items()}
        return f"<HookRegistry {self.node_name!r} active={active}>"
