"""The SystemTap-style baseline tracer."""

import pytest

from repro.baselines.systemtap import (
    SystemTapSession,
)
from repro.ebpf.probes import ProbeEvent


class TestSystemTap:
    def test_per_event_cost_much_higher_than_ebpf(self, engine, node):
        session = SystemTapSession(node, no_overload=True)
        script = session.add_probe("kprobe:x")
        session.active = True
        cost = script.handle(ProbeEvent(hook="kprobe:x", node=node.name))
        # Several microseconds per event (vs ~0.1-0.3us for eBPF).
        assert cost > 4_000

    def test_records_captured(self, engine, node):
        session = SystemTapSession(node, no_overload=True)
        script = session.add_probe("kprobe:x")
        session.active = True
        for _ in range(3):
            script.handle(ProbeEvent(hook="kprobe:x", node=node.name, cpu=1))
        assert script.events == 3
        assert len(script.records) == 3
        assert script.records[0].cpu == 1

    def test_inactive_session_costs_nothing(self, engine, node):
        session = SystemTapSession(node)
        script = session.add_probe("kprobe:x")
        assert script.handle(ProbeEvent(hook="kprobe:x", node=node.name)) == 0

    def test_overload_protection_detaches(self, engine, node):
        session = SystemTapSession(node, no_overload=False)
        script = session.add_probe("kprobe:x")
        session.active = True
        node.hooks.attach("kprobe:x", script)
        # Hammer events within one accounting interval.
        for _ in range(200_000):
            if not session.active:
                break
            script.handle(ProbeEvent(hook="kprobe:x", node=node.name))
        assert session.overload_trips == 1
        assert not session.active
        assert not node.hooks.has_attachments("kprobe:x")

    def test_no_overload_flag_never_detaches(self, engine, node):
        session = SystemTapSession(node, no_overload=True)
        script = session.add_probe("kprobe:x")
        session.active = True
        for _ in range(200_000):
            script.handle(ProbeEvent(hook="kprobe:x", node=node.name))
        assert session.overload_trips == 0
        assert session.active

    def test_stop_detaches(self, engine, node):
        session = SystemTapSession(node)
        session.add_probe("kprobe:x")
        session.arm()
        assert session.active and node.hooks.has_attachments("kprobe:x")
        session.stop()
        assert not node.hooks.has_attachments("kprobe:x")
