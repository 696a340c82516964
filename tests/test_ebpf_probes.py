"""Hook registry and context building."""

import pytest

from repro.ebpf import context as ctxmod
from repro.ebpf.assembler import Assembler
from repro.ebpf.context import build_empty_context, build_skb_context, context_field
from repro.ebpf.isa import R0, R1, R2, R3
from repro.ebpf.memory import PACKET_REGION_BASE
from repro.ebpf.probes import (
    CallbackAttachment,
    EBPFAttachment,
    HookRegistry,
    ProbeEvent,
)
from repro.ebpf.vm import BPFProgram, ExecutionEnv
from repro.net.addressing import IPv4Address, MACAddress
from repro.net.packet import (
    EthernetHeader,
    IPPROTO_UDP,
    IPv4Header,
    Packet,
    TCPOPT_TRACE_ID,
    UDPHeader,
    VXLANHeader,
    make_tcp_packet,
    make_udp_packet,
)
from repro.sim.engine import Engine
from tests.conftest import build_two_nodes

MAC_A, MAC_B = MACAddress.from_index(1), MACAddress.from_index(2)
IP_A, IP_B = IPv4Address("10.0.0.1"), IPv4Address("10.0.0.2")


class TestContext:
    def _packet(self):
        return make_udp_packet(MAC_A, MAC_B, IP_A, IP_B, 1234, 5678, b"payload")

    def test_fields_populated(self):
        ctx, data = build_skb_context(self._packet(), ifindex=3, cpu=2, hook_id=9)
        assert context_field(ctx, ctxmod.OFF_LEN, 4) == len(data)
        assert context_field(ctx, ctxmod.OFF_IFINDEX, 4) == 3
        assert context_field(ctx, ctxmod.OFF_RX_CPU, 4) == 2
        assert context_field(ctx, ctxmod.OFF_HOOK_ID, 4) == 9
        assert context_field(ctx, ctxmod.OFF_SRC_IP, 4) == IP_A.value
        assert context_field(ctx, ctxmod.OFF_DST_IP, 4) == IP_B.value
        assert context_field(ctx, ctxmod.OFF_SRC_PORT, 2) == 1234
        assert context_field(ctx, ctxmod.OFF_DST_PORT, 2) == 5678
        assert context_field(ctx, ctxmod.OFF_IP_PROTO, 1) == IPPROTO_UDP

    def test_data_pointers_span_packet(self):
        ctx, data = build_skb_context(self._packet())
        start = context_field(ctx, ctxmod.OFF_DATA, 8)
        end = context_field(ctx, ctxmod.OFF_DATA_END, 8)
        assert start == PACKET_REGION_BASE
        assert end - start == len(data)

    def test_payload_offset_plain(self):
        ctx, _ = build_skb_context(self._packet())
        assert context_field(ctx, ctxmod.OFF_PAYLOAD_OFF, 4) == 14 + 20 + 8

    def test_inner_context_strips_vxlan(self):
        inner = self._packet()
        outer = Packet(
            [
                EthernetHeader(MAC_B, MAC_A),
                IPv4Header(IPv4Address("1.1.1.1"), IPv4Address("2.2.2.2"), IPPROTO_UDP),
                UDPHeader(50000, 4789),
                VXLANHeader(7),
            ],
            inner,
        )
        ctx, data = build_skb_context(outer, use_inner=True)
        assert context_field(ctx, ctxmod.OFF_SRC_IP, 4) == IP_A.value
        assert context_field(ctx, ctxmod.OFF_DST_PORT, 2) == 5678
        # payload offset covers outer headers + inner headers
        assert context_field(ctx, ctxmod.OFF_PAYLOAD_OFF, 4) == (14 + 20 + 8 + 8) + (14 + 20 + 8)

    def test_empty_context(self):
        ctx, data = build_empty_context(ifindex=1, cpu=3, hook_id=7)
        assert len(data) == 0
        assert context_field(ctx, ctxmod.OFF_DATA, 8) == context_field(
            ctx, ctxmod.OFF_DATA_END, 8
        )
        assert context_field(ctx, ctxmod.OFF_RX_CPU, 4) == 3


class TestHookRegistry:
    def test_fire_counts_even_without_attachments(self):
        hooks = HookRegistry("n")
        event = ProbeEvent(hook="kprobe:foo", node="n")
        assert hooks.fire(event) == 0
        assert hooks.fires("kprobe:foo") == 1

    def test_attached_callback_runs_and_costs(self):
        hooks = HookRegistry("n")
        seen = []
        hooks.attach("dev:eth0", CallbackAttachment(seen.append, cost_ns=50))
        cost = hooks.fire(ProbeEvent(hook="dev:eth0", node="n"))
        assert cost == 50 and len(seen) == 1

    def test_multiple_attachments_costs_sum(self):
        hooks = HookRegistry("n")
        hooks.attach("h", CallbackAttachment(lambda e: None, cost_ns=10))
        hooks.attach("h", CallbackAttachment(lambda e: None, cost_ns=20))
        assert hooks.fire(ProbeEvent(hook="h", node="n")) == 30

    def test_detach(self):
        hooks = HookRegistry("n")
        att = hooks.attach("h", CallbackAttachment(lambda e: None, cost_ns=10))
        assert hooks.detach("h", att)
        assert not hooks.detach("h", att)
        assert hooks.fire(ProbeEvent(hook="h", node="n")) == 0


class TestEBPFAttachment:
    def _counting_program(self):
        asm = Assembler()
        asm.ldx_h(R2, R1, ctxmod.OFF_DST_PORT)
        asm.jne_imm(R2, 5678, "miss")
        asm.mov_imm(R0, 1)
        asm.exit_()
        asm.label("miss")
        asm.mov_imm(R0, 0)
        asm.exit_()
        program = BPFProgram(asm.assemble(), name="count")
        program.load()
        return program

    def test_match_statistics(self):
        program = self._counting_program()
        attachment = EBPFAttachment(program, ExecutionEnv())
        hit = make_udp_packet(MAC_A, MAC_B, IP_A, IP_B, 1, 5678, b"")
        miss = make_udp_packet(MAC_A, MAC_B, IP_A, IP_B, 1, 9, b"")
        attachment.handle(ProbeEvent(hook="h", node="n", packet=hit))
        attachment.handle(ProbeEvent(hook="h", node="n", packet=miss))
        assert attachment.events_seen == 2
        assert attachment.events_matched == 1

    def test_packetless_event_runs_with_empty_context(self):
        program = self._counting_program()
        attachment = EBPFAttachment(program, ExecutionEnv())
        cost = attachment.handle(ProbeEvent(hook="h", node="n", packet=None))
        assert cost > 0
        assert attachment.events_seen == 1
        assert attachment.events_matched == 0  # dst_port is 0 in empty ctx

    def test_env_cpu_follows_event(self):
        asm = Assembler()
        asm.call(8)  # smp_processor_id
        asm.exit_()
        program = BPFProgram(asm.assemble(), name="cpu")
        program.load()
        env = ExecutionEnv()
        attachment = EBPFAttachment(program, env)
        attachment.handle(ProbeEvent(hook="h", node="n",
                                     packet=make_udp_packet(MAC_A, MAC_B, IP_A, IP_B, 1, 2, b""),
                                     cpu=3))
        assert env.cpu == 3


class TestHookGate:
    """An unattached hook costs a counter increment: no ProbeEvent."""

    def _run(self, monkeypatch, attach):
        import repro.net.stack as stack

        built = []

        def counting_event(*args, **kwargs):
            event = ProbeEvent(*args, **kwargs)
            built.append(event)
            return event

        monkeypatch.setattr(stack, "ProbeEvent", counting_event)
        engine = Engine()
        node_a, node_b, ip_a, ip_b = build_two_nodes(engine)
        for node in (node_a, node_b):
            for hook in attach:
                node.hooks.attach(hook, CallbackAttachment(lambda event: None))
        node_b.bind_udp(ip_b, 7000)
        sender = node_a.bind_udp(ip_a, 7001)
        for seq in range(5):
            sender.sendto(ip_b, 7000, b"ping", app_seq=seq)
        engine.run()
        return built, [dict(node.hooks.fire_counts) for node in (node_a, node_b)]

    def test_unattached_fires_build_no_events_and_count_the_same(self, monkeypatch):
        built, idle_counts = self._run(monkeypatch, attach=())
        assert built == []
        fired = set(idle_counts[0]) | set(idle_counts[1])
        # The UDP path crosses all three helpers: function hooks, the
        # veth device hook, and the RPS steering hook.
        assert {"kprobe:udp_send_skb", "dev:veth0", "kprobe:get_rps_cpu"} <= fired
        built, attached_counts = self._run(monkeypatch, attach=sorted(fired))
        assert attached_counts == idle_counts
        assert len(built) == sum(sum(counts.values()) for counts in idle_counts)
        steering = [event for event in built if event.hook == "kprobe:get_rps_cpu"]
        assert steering and all(
            event.extra == {"steered_cpu": event.cpu} for event in steering
        )

    def test_partially_attached_node_builds_events_only_for_that_hook(self, monkeypatch):
        built, counts = self._run(monkeypatch, attach=("dev:veth0",))
        assert {event.hook for event in built} == {"dev:veth0"}
        assert len(built) == sum(c["dev:veth0"] for c in counts)

    def test_fire_unattached_contract(self):
        hooks = HookRegistry("n")
        assert hooks.fire_unattached("h") and hooks.fires("h") == 1
        hooks.attach("h", CallbackAttachment(lambda event: None, cost_ns=5))
        assert not hooks.fire_unattached("h") and hooks.fires("h") == 1
        assert hooks.fire(ProbeEvent(hook="h", node="n")) == 5 and hooks.fires("h") == 2


@pytest.fixture
def serialisations(monkeypatch):
    """Every packet ``Packet.wire_image`` serialises during the test."""
    calls = []
    original = Packet.wire_image

    def counting(packet):
        calls.append(packet)
        return original(packet)

    monkeypatch.setattr(Packet, "wire_image", counting)
    return calls


class TestLazyPacketRegion:
    """The packet region is serialised only when a program reads it."""

    @staticmethod
    def PACKET(port):
        return make_udp_packet(MAC_A, MAC_B, IP_A, IP_B, 1, port, bytes(range(22)))

    TIERS = {
        "compiled": {},
        "interpreter": {"precompile": False},
        "shadow": {"shadow": True},
    }

    def _program(self, offset, **tier):
        """r0 = the 8 packet bytes at ``offset`` if dst_port == 5678, else 0."""
        asm = Assembler()
        asm.mov_imm(R0, 0)
        asm.ldx_h(R2, R1, ctxmod.OFF_DST_PORT)
        asm.jne_imm(R2, 5678, "out")
        asm.ldx_dw(R3, R1, ctxmod.OFF_DATA)
        asm.ldx_dw(R0, R3, offset)
        asm.label("out")
        asm.exit_()
        program = BPFProgram(asm.assemble(), name=f"peek{offset}", **tier)
        program.load()
        return program

    @pytest.mark.parametrize("tier", ["compiled", "interpreter"])
    def test_filter_miss_never_serialises(self, tier, serialisations):
        attachment = EBPFAttachment(self._program(0, **self.TIERS[tier]), ExecutionEnv())
        attachment.handle(ProbeEvent(hook="h", node="n", packet=self.PACKET(9)))
        assert attachment.events_seen == 1 and attachment.events_matched == 0
        assert serialisations == []

    @pytest.mark.parametrize("tier", list(TIERS))
    def test_filter_hit_sees_exactly_to_bytes(self, tier, serialisations):
        packet = self.PACKET(5678)
        image = packet.to_bytes()
        assert len(image) == 64
        # Ethernet 0..14, IPv4 14..34, UDP 34..42, payload 42..64: the
        # loads at 8, 32 and 40 straddle two segments.
        straddles = {8, 32, 40}
        for offset in range(0, 64, 8):
            serialisations.clear()
            program = self._program(offset, **self.TIERS[tier])
            ctx, data = build_skb_context(packet)
            result = program.run(ExecutionEnv(), ctx, data)
            assert result.r0 == int.from_bytes(image[offset : offset + 8], "little")
            if tier == "compiled":
                # One header alone, or the payload, needs no image.
                assert len(serialisations) == (1 if offset in straddles else 0)
            else:
                # The oracle reads the whole region: one image per run,
                # however many tiers replay it.
                assert len(serialisations) == 1

    def test_shadow_agrees_on_hit_and_miss(self):
        program = self._program(8, shadow=True)
        attachment = EBPFAttachment(program, ExecutionEnv())
        for port in (5678, 9):
            attachment.handle(ProbeEvent(hook="h", node="n", packet=self.PACKET(port)))
        assert attachment.events_seen == 2 and attachment.events_matched == 1

    @pytest.mark.parametrize("tier", list(TIERS))
    def test_read_past_data_end_still_faults(self, tier):
        from repro.ebpf.memory import MemoryFault
        from repro.ebpf.vm import ExecutionError

        program = self._program(57, **self.TIERS[tier])  # bytes 57..64 of a 64-byte image
        ctx, data = build_skb_context(self.PACKET(5678))
        with pytest.raises((MemoryFault, ExecutionError)):
            program.run(ExecutionEnv(), ctx, data)


def _udp(payload):
    return make_udp_packet(MAC_A, MAC_B, IP_A, IP_B, 1234, 5678, payload)


def _tcp_with_trace_option():
    option = b"\x01\x01" + bytes([TCPOPT_TRACE_ID, 6]) + (0xA97B5A48).to_bytes(4, "big")
    return make_tcp_packet(MAC_A, MAC_B, IP_A, IP_B, 1234, 5678, b"segment!", seq=77,
                           options=option)


def _vxlan_nested():
    return Packet(
        [
            EthernetHeader(MAC_B, MAC_A),
            IPv4Header(IPv4Address("192.168.0.1"), IPv4Address("192.168.0.2"), IPPROTO_UDP),
            UDPHeader(49999, 4789),
            VXLANHeader(42),
        ],
        payload=_tcp_with_trace_option(),
    )


# Built anew for every use: serialising fixes up the length fields of
# the headers it writes, and a segment read must not depend on an
# earlier full image having done that.
PACKET_SHAPES = {
    "udp": lambda: _udp(bytes(range(22))),
    "udp-trailer": lambda: _udp(bytes(range(14)) + (0xA97B5A48).to_bytes(4, "big")),
    "tcp-option": _tcp_with_trace_option,
    "vxlan-nested": _vxlan_nested,
    "empty-payload": lambda: _udp(b""),
}


class TestPacketSegmentView:
    """The law of the lazy packet region: whatever it serialises, a
    program sees exactly the bytes of ``to_bytes()``."""

    @pytest.mark.parametrize("shape", list(PACKET_SHAPES))
    def test_every_load_equals_the_wire_image_slice(self, shape):
        image = PACKET_SHAPES[shape]().to_bytes()
        packet = PACKET_SHAPES[shape]()
        for size in (1, 2, 4, 8):
            for offset in range(len(image) - size + 1):
                _ctx, data = build_skb_context(packet)  # a fresh view per load
                assert len(data) == len(image)
                assert data.load(offset, size) == int.from_bytes(
                    image[offset : offset + size], "little"
                ), (shape, offset, size)

    @pytest.mark.parametrize("shape", list(PACKET_SHAPES))
    def test_only_a_straddling_load_serialises_and_only_once(self, shape, serialisations):
        packet = PACKET_SHAPES[shape]()
        image = packet.to_bytes()
        # Segment boundaries: after each header of each nesting level.
        boundaries, layer, position = [], packet, 0
        while isinstance(layer, Packet):
            for header in layer.headers:
                position += header.length
                boundaries.append(position)
            layer = layer.payload
        for offset in range(len(image) - 1):
            serialisations.clear()
            _ctx, data = build_skb_context(packet)
            data.load(offset, 2)
            straddles = offset + 1 in boundaries
            assert len(serialisations) == straddles, (shape, offset)
            # Once built, the image serves every later load of the run.
            data.load(0, 1)
            data.load(len(image) - 1, 1)
            if straddles:
                assert len(serialisations) == 1

    @pytest.mark.parametrize("tier", list(TestLazyPacketRegion.TIERS))
    def test_store_then_load_sees_the_store(self, tier, serialisations):
        """*(u32*)(data + 44) = 0xdeadbeef; r0 = *(u64*)(data + 40) --
        the load straddles nothing the store did not already build."""
        asm = Assembler()
        asm.ldx_dw(R3, R1, ctxmod.OFF_DATA)
        asm.st_imm(4, R3, 44, 0xDEADBEEF)
        asm.ldx_dw(R0, R3, 40)
        asm.exit_()
        program = BPFProgram(asm.assemble(), name="poke", **TestLazyPacketRegion.TIERS[tier])
        program.load()
        packet = PACKET_SHAPES["udp"]()
        expected = bytearray(packet.to_bytes())
        expected[44:48] = (0xDEADBEEF).to_bytes(4, "little")
        serialisations.clear()
        ctx, data = build_skb_context(packet)
        result = program.run(ExecutionEnv(), ctx, data)
        assert result.r0 == int.from_bytes(expected[40:48], "little")
        assert bytes(data) == bytes(expected)
        assert len(serialisations) == 1

    def test_header_mutated_between_hooks_is_reflected(self, serialisations):
        packet = PACKET_SHAPES["udp-trailer"]()
        ttl_at, checksum_at = 14 + 8, 14 + 10
        _ctx, first = build_skb_context(packet)
        before = (first.load(ttl_at, 1), first.load(checksum_at, 2))
        packet.ip.ttl -= 1  # a router hop between two tracepoints
        _ctx, second = build_skb_context(packet)
        after = (second.load(ttl_at, 1), second.load(checksum_at, 2))
        assert after[0] == before[0] - 1 and after[1] != before[1]
        assert serialisations == []
        image = packet.to_bytes()
        checksum = int.from_bytes(image[checksum_at : checksum_at + 2], "little")
        assert after == (image[ttl_at], checksum)

    def test_trace_id_reads_of_the_compiled_scripts_never_serialise(self, serialisations):
        """The two loads the tracing scripts make: the UDP trailer (in
        the payload) and the TCP option (in the innermost TCP header)."""
        from repro.core.compiler import compile_script
        from repro.core.config import ActionSpec, FilterRule, TracepointSpec
        from repro.core.records import TraceRecord
        from repro.ebpf.maps import PerfEventArray

        for shape, id_mode, use_inner in (
            ("udp-trailer", "udp-trailer", False),
            ("tcp-option", "tcp-option", False),
            ("vxlan-nested", "tcp-option", True),
        ):
            perf = PerfEventArray(num_cpus=1)
            program, maps = compile_script(
                FilterRule(dst_port=5678),
                TracepointSpec(node="n", hook="dev:x", id_mode=id_mode, strip_vxlan=use_inner),
                ActionSpec(record=True),
                perf_map=perf,
            )
            program.load()
            attachment = EBPFAttachment(program, ExecutionEnv(maps=maps), use_inner=use_inner)
            attachment.handle(ProbeEvent(hook="h", node="n", packet=PACKET_SHAPES[shape]()))
            assert attachment.events_matched == 1 and serialisations == []
            (_cpu, raw), = perf.pending
            assert TraceRecord.unpack(raw).trace_id == int.from_bytes(
                (0xA97B5A48).to_bytes(4, "big"), "little"
            )
