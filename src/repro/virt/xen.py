"""Xen-style scheduling and split-driver networking (Case Study II).

The credit2-flavoured :class:`CreditScheduler` orders runnable vCPUs by
credit, but honours the **context-switch rate limit** introduced in Xen
4.2: the running vCPU may not be preempted until it has run
``ratelimit_us`` microseconds, *even by a higher-priority woken vCPU*.
A latency-sensitive VM sharing a pCPU with a CPU-bound VM therefore
waits up to the full rate limit for every packet -- the 0..1000 µs
sawtooth of Fig. 11(b) and the 22x 99.9th-percentile blowup of
Fig. 10(a).  Setting ``ratelimit_us=0`` restores immediate wake-up
preemption, which is the paper's fix (confirmed by Citrix engineers).

:class:`XenVifPair` models the netback (``vif1.0`` in Dom0) /
netfront (``eth1`` in the guest) split driver: packets transferred via
the shared ring, with delivery into the guest gated on its vCPU
actually being scheduled.
"""

from __future__ import annotations

import enum
from typing import List, Optional, TYPE_CHECKING

from repro.net.device import NetDevice
from repro.net.packet import Packet
from repro.sim.cpu import GatedCPU
from repro.sim.engine import Engine

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.net.stack import KernelNode

CONTEXT_SWITCH_NS = 1_500
CREDIT_RESET = 10_000_000  # ns-denominated credit refill

# Grant-copy bandwidth terms (ns per byte) for the split driver.
NETBACK_COPY_NS_PER_BYTE = 0.30
NETFRONT_COPY_NS_PER_BYTE = 0.45


class VCPUState(enum.Enum):
    RUNNING = "running"
    RUNNABLE = "runnable"
    BLOCKED = "blocked"


class VCPU:
    """One virtual CPU under the hypervisor scheduler."""

    def __init__(
        self,
        name: str,
        cpu: GatedCPU,
        weight: int = 256,
        always_busy: bool = False,
    ):
        self.name = name
        self.cpu = cpu
        self.weight = weight
        self.always_busy = always_busy  # a CPU-hog guest: never blocks
        self.state = VCPUState.BLOCKED
        self.credit = CREDIT_RESET
        self.run_start_ns = 0
        self.total_run_ns = 0
        self.wakeups = 0
        self.scheduler: Optional["CreditScheduler"] = None
        cpu.pause()
        cpu.on_work_queued = self._on_work
        cpu.on_idle = self._on_idle

    def _on_work(self) -> None:
        if self.scheduler is not None and self.state == VCPUState.BLOCKED:
            self.scheduler.wake(self)

    def _on_idle(self) -> None:
        if (
            self.scheduler is not None
            and self.state == VCPUState.RUNNING
            and not self.always_busy
        ):
            self.scheduler.block(self)

    def has_work(self) -> bool:
        return self.always_busy or self.cpu.has_pending_work()

    def __repr__(self) -> str:
        return f"<VCPU {self.name} {self.state.value} credit={self.credit}>"


class CreditScheduler:
    """Credit2-style scheduler for one physical CPU."""

    def __init__(
        self,
        engine: Engine,
        ratelimit_us: int = 1000,
        timeslice_ms: int = 10,
        name: str = "sched0",
    ):
        self.engine = engine
        self.ratelimit_ns = int(ratelimit_us) * 1000
        self.timeslice_ns = int(timeslice_ms) * 1_000_000
        self.name = name
        self.vcpus: List[VCPU] = []
        self.current: Optional[VCPU] = None
        self._preempt_event = None
        self._timeslice_event = None
        self.context_switches = 0
        self.ratelimit_deferrals = 0

    # -- registration --------------------------------------------------------

    def add_vcpu(self, vcpu: VCPU) -> None:
        vcpu.scheduler = self
        self.vcpus.append(vcpu)
        if vcpu.always_busy:
            self.wake(vcpu)

    # -- state transitions ----------------------------------------------------

    def wake(self, vcpu: VCPU) -> None:
        """A blocked vCPU has pending work (event-channel notification)."""
        if vcpu.state != VCPUState.BLOCKED:
            return
        vcpu.state = VCPUState.RUNNABLE
        vcpu.wakeups += 1
        if self.current is None:
            chosen = self._pick_next()
            self._switch_to(chosen)
            if chosen is not None and chosen is not vcpu and self._preempt_event is None:
                # Lost the pick (e.g. woke during a context switch to a
                # higher-credit vCPU): make sure a re-evaluation fires.
                self._preempt_event = self.engine.timer(
                    max(1, self.ratelimit_ns), self._ratelimit_expired
                )
            return
        ran_ns = self.engine.now - self.current.run_start_ns
        if self._outranks(vcpu, self.current):
            if ran_ns >= self.ratelimit_ns:
                self._preempt()
            else:
                # The rate limit protects the running vCPU: defer the
                # preemption until its minimum slice has elapsed.
                self.ratelimit_deferrals += 1
                remaining = self.ratelimit_ns - ran_ns
                if self._preempt_event is None:
                    self._preempt_event = self.engine.timer(
                        remaining, self._ratelimit_expired
                    )
        else:
            # Not yet ahead of the incumbent, but the incumbent's credit
            # burns while it runs: re-evaluate at the crossing time (and
            # never before the rate limit allows preemption anyway).
            deficit = self._live_credit(self.current) - self._live_credit(vcpu)
            crossing_ns = deficit * max(1, self.current.weight) // 256 + 1
            wait_ns = max(crossing_ns, self.ratelimit_ns - ran_ns)
            if self._preempt_event is None:
                self._preempt_event = self.engine.timer(
                    wait_ns, self._ratelimit_expired
                )

    def block(self, vcpu: VCPU) -> None:
        """The running vCPU went idle."""
        if vcpu is not self.current:
            if vcpu.state == VCPUState.RUNNABLE and not vcpu.has_work():
                vcpu.state = VCPUState.BLOCKED
            return
        self._charge_current()
        vcpu.state = VCPUState.BLOCKED
        vcpu.cpu.pause()
        self.current = None
        self._cancel_events()
        next_vcpu = self._pick_next()
        if next_vcpu is not None:
            self._switch_to(next_vcpu)

    # -- internals --------------------------------------------------------------

    def _live_credit(self, vcpu: VCPU) -> int:
        """Credit with the incumbent's in-progress burn applied (credit2
        accounts the running vCPU's consumption continuously)."""
        credit = vcpu.credit
        if vcpu.state == VCPUState.RUNNING:
            ran_ns = self.engine.now - vcpu.run_start_ns
            credit -= ran_ns * 256 // max(1, vcpu.weight)
        return credit

    def _outranks(self, challenger: VCPU, incumbent: VCPU) -> bool:
        return self._live_credit(challenger) > self._live_credit(incumbent)

    def _pick_next(self) -> Optional[VCPU]:
        runnable = [v for v in self.vcpus if v.state == VCPUState.RUNNABLE and v.has_work()]
        if not runnable:
            return None
        if all(v.credit <= 0 for v in runnable):
            self._reset_credits()
        return max(runnable, key=lambda v: (v.credit, -self.vcpus.index(v)))

    def _reset_credits(self) -> None:
        """Credit2's reset: add CSCHED2_CREDIT_INIT to everyone, capped
        at INIT.  The addition preserves relative order, so a vCPU that
        consumed little CPU keeps its advantage over a hog and its
        wakeups preempt immediately (modulo the rate limit)."""
        for v in self.vcpus:
            v.credit = min(v.credit + CREDIT_RESET, CREDIT_RESET)

    def _charge_current(self) -> None:
        if self.current is None:
            return
        ran_ns = self.engine.now - self.current.run_start_ns
        self.current.total_run_ns += ran_ns
        self.current.credit -= ran_ns * 256 // max(1, self.current.weight)
        # credit2 clamps the deficit so one long solo run cannot starve
        # the vCPU through many reset epochs afterwards.
        self.current.credit = max(self.current.credit, -CREDIT_RESET)

    def _ratelimit_expired(self) -> None:
        self._preempt_event = None
        if self.current is None:
            # Mid context-switch: re-evaluate once the switch lands.
            self._preempt_event = self.engine.timer(
                CONTEXT_SWITCH_NS, self._ratelimit_expired
            )
            return
        challenger = self._pick_next()
        if challenger is None or challenger is self.current:
            return
        if self._outranks(challenger, self.current):
            self._preempt()
        else:
            # Re-arm at the credit crossing so a runnable vCPU is never
            # silently parked until the end of a full timeslice.
            deficit = self._live_credit(self.current) - self._live_credit(challenger)
            crossing_ns = deficit * max(1, self.current.weight) // 256 + 1
            self._preempt_event = self.engine.timer(
                crossing_ns, self._ratelimit_expired
            )

    def _preempt(self) -> None:
        self._charge_current()
        preempted = self.current
        if preempted is not None:
            preempted.state = VCPUState.RUNNABLE
            preempted.cpu.pause()
        self.current = None
        self._cancel_events()
        next_vcpu = self._pick_next()
        if next_vcpu is not None:
            self._switch_to(next_vcpu)
        elif preempted is not None:
            self._switch_to(preempted)

    def _switch_to(self, vcpu: Optional[VCPU]) -> None:
        if vcpu is None:
            return
        self.context_switches += 1

        def start() -> None:
            if self.current is not None:
                # Another vCPU won the switch race.  Do not drop this
                # one's claim: if it outranks the incumbent, fall back
                # to the normal (rate-limited) preemption path.
                if vcpu.state == VCPUState.RUNNABLE and self._outranks(vcpu, self.current):
                    ran_ns = self.engine.now - self.current.run_start_ns
                    if ran_ns >= self.ratelimit_ns:
                        self._preempt()
                    elif self._preempt_event is None:
                        self._preempt_event = self.engine.timer(
                            self.ratelimit_ns - ran_ns, self._ratelimit_expired
                        )
                return
            vcpu.state = VCPUState.RUNNING
            vcpu.run_start_ns = self.engine.now
            self.current = vcpu
            vcpu.cpu.resume()
            if self._timeslice_event is not None:
                self._timeslice_event.cancel()
            self._timeslice_event = self.engine.timer(
                self.timeslice_ns, self._timeslice_expired
            )
            # An always-busy vCPU never calls block(); nothing to do here.

        self.engine.schedule(CONTEXT_SWITCH_NS, start)

    def _timeslice_expired(self) -> None:
        self._timeslice_event = None
        if self.current is None:
            return
        # Account the elapsed slice so a solo hog cannot accumulate an
        # unbounded credit deficit between scheduling points.
        self._charge_current()
        self.current.run_start_ns = self.engine.now
        active = [
            v
            for v in self.vcpus
            if v is self.current or (v.state == VCPUState.RUNNABLE and v.has_work())
        ]
        if active and all(v.credit <= 0 for v in active):
            self._reset_credits()
        runnable_others = [
            v
            for v in self.vcpus
            if v is not self.current and v.state == VCPUState.RUNNABLE and v.has_work()
        ]
        if runnable_others:
            self._preempt()
        else:
            self._timeslice_event = self.engine.timer(
                self.timeslice_ns, self._timeslice_expired
            )

    def _cancel_events(self) -> None:
        if self._preempt_event is not None:
            self._preempt_event.cancel()
            self._preempt_event = None
        if self._timeslice_event is not None:
            self._timeslice_event.cancel()
            self._timeslice_event = None

    def __repr__(self) -> str:
        return (
            f"<CreditScheduler {self.name} ratelimit={self.ratelimit_ns}ns "
            f"current={self.current and self.current.name}>"
        )


class XenNetback(NetDevice):
    """``vifX.Y`` in Dom0: the backend half of the split driver."""

    kind = "xen-netback"

    def __init__(self, node: "KernelNode", name: str, **kwargs):
        super().__init__(node, name, napi_quota=64, **kwargs)
        self.frontend: Optional["XenNetfront"] = None

    def _tx_cost_ns(self, packet: Packet) -> int:
        return self.node.costs.xen_netback_ns + int(
            packet.total_length * NETBACK_COPY_NS_PER_BYTE
        )

    def _egress(self, packet: Packet, cpu) -> None:
        if self.frontend is None:
            self.stats.tx_dropped += 1
            return
        # Into the shared ring; the guest processes it when its vCPU runs
        # (the frontend's CPU is a GatedCPU under the scheduler).
        self.frontend.receive(packet)

    def rx_job_cost_ns(self, packet: Packet) -> int:
        return self.node.costs.ip_rcv_ns + self.node.costs.xen_netback_ns // 2


class XenNetfront(NetDevice):
    """``eth1`` inside the guest: the frontend half."""

    kind = "xen-netfront"

    def __init__(self, node: "KernelNode", name: str, **kwargs):
        super().__init__(node, name, napi_quota=64, **kwargs)
        self.backend: Optional[XenNetback] = None

    def _tx_cost_ns(self, packet: Packet) -> int:
        return self.node.costs.xen_netfront_ns

    def _egress(self, packet: Packet, cpu) -> None:
        if self.backend is None:
            self.stats.tx_dropped += 1
            return
        self.backend.receive(packet)

    def rx_job_cost_ns(self, packet: Packet) -> int:
        return (
            self.node.costs.ip_rcv_ns
            + self.node.costs.xen_netfront_ns
            + int(packet.total_length * NETFRONT_COPY_NS_PER_BYTE)
        )


def create_vif_pair(
    guest: "KernelNode",
    frontend_name: str,
    dom0: "KernelNode",
    backend_name: str,
    guest_irq_cpu: int = 0,
    dom0_irq_cpu: int = 0,
) -> tuple:
    """Wire netfront <-> netback; returns (frontend, backend)."""
    frontend = XenNetfront(guest, frontend_name, irq_cpu=guest_irq_cpu)
    backend = XenNetback(dom0, backend_name, irq_cpu=dom0_irq_cpu)
    frontend.backend = backend
    backend.frontend = frontend
    return frontend, backend
