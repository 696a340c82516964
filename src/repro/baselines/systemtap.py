"""A SystemTap-style tracer: the paper's overhead baseline (Fig. 7b).

§II attributes SystemTap's cost to (a) the per-event handler work scaled
by trace frequency and (b) "the continual data copies between the
kernel space and user space" via the relayfs channel, plus the
compilation of the script at start.  The figure measures steady state,
so the model arms a pre-compiled module and charges per event: handler
execution + a per-record kernel->user copy with a per-byte term +
amortized context-switch/wakeup cost for the userspace reader.

Run with ``no_overload=True`` to mimic ``STP_NO_OVERLOAD`` (the paper
disables the overload threshold so tracing never self-suspends);
without it, the session detaches itself when the per-interval overhead
budget is exceeded, as real SystemTap does.
"""

from __future__ import annotations

from typing import Callable, List, NamedTuple, Optional

from repro.ebpf.probes import Attachment, ProbeEvent
from repro.net.stack import KernelNode

HANDLER_COST_NS = 1_600  # probe body execution (interpreted runtime)
COPYOUT_FIXED_NS = 2_600  # per-record relay write + wakeup share
COPYOUT_NS_PER_BYTE = 4.0  # record formatting + copy_to_user
CONTEXT_SWITCH_SHARE_NS = 1_600  # reader thread scheduling, amortized
DEFAULT_RECORD_BYTES = 448  # formatted text record incl. header dump
OVERLOAD_INTERVAL_NS = 1_000_000_000
OVERLOAD_BUDGET_NS = 500_000_000  # 50% of one CPU per interval


class STapRecord(NamedTuple):
    timestamp_ns: int
    length: int
    cpu: int


class SystemTapScript(Attachment):
    """One probe point of a stap script (e.g. ``probe kernel.function
    ("tcp_recvmsg")``)."""

    def __init__(
        self,
        session: "SystemTapSession",
        record_bytes: int = DEFAULT_RECORD_BYTES,
        callback: Optional[Callable[[ProbeEvent], None]] = None,
        name: str = "stap-probe",
    ):
        super().__init__(name)
        self.session = session
        self.record_bytes = record_bytes
        self.callback = callback
        self.events = 0
        self.records: List[STapRecord] = []

    def handle(self, event: ProbeEvent) -> int:
        if not self.session.active:
            return 0
        self.events += 1
        length = event.packet.total_length if event.packet is not None else 0
        self.records.append(
            STapRecord(self.session.node.clock.monotonic_ns(), length, event.cpu)
        )
        if self.callback is not None:
            self.callback(event)
        cost = (
            HANDLER_COST_NS
            + COPYOUT_FIXED_NS
            + int(self.record_bytes * COPYOUT_NS_PER_BYTE)
            + CONTEXT_SWITCH_SHARE_NS
        )
        self.session.account(cost)
        return cost


class SystemTapSession:
    """A running ``stap`` process on one node."""

    def __init__(self, node: KernelNode, no_overload: bool = False):
        self.node = node
        self.no_overload = no_overload
        self.active = False
        self.scripts: List[SystemTapScript] = []
        self._hooks: List[tuple] = []
        self._interval_cost_ns = 0
        self._interval_start_ns = node.engine.now
        self.overload_trips = 0
        self.total_overhead_ns = 0

    def add_probe(
        self,
        hook: str,
        record_bytes: int = DEFAULT_RECORD_BYTES,
        callback: Optional[Callable[[ProbeEvent], None]] = None,
    ) -> SystemTapScript:
        script = SystemTapScript(
            self, record_bytes=record_bytes, callback=callback, name=f"stap:{hook}"
        )
        self.scripts.append(script)
        self._hooks.append((hook, script))
        return script

    def arm(self) -> None:
        """Insert the (pre-compiled) module: every probe attaches now."""
        self.active = True
        self._interval_start_ns = self.node.engine.now
        for hook, script in self._hooks:
            self.node.hooks.attach(hook, script)

    def stop(self) -> None:
        self.active = False
        for hook, script in self._hooks:
            self.node.hooks.detach(hook, script)

    def account(self, cost_ns: int) -> None:
        """Overload accounting (MAXACTION/overload threshold analog)."""
        self.total_overhead_ns += cost_ns
        if self.no_overload:
            return
        now = self.node.engine.now
        if now - self._interval_start_ns > OVERLOAD_INTERVAL_NS:
            self._interval_start_ns = now
            self._interval_cost_ns = 0
        self._interval_cost_ns += cost_ns
        if self._interval_cost_ns > OVERLOAD_BUDGET_NS:
            self.overload_trips += 1
            self.stop()

    def __repr__(self) -> str:
        return f"<SystemTapSession on {self.node.name} active={self.active}>"
