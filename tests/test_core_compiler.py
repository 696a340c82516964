"""The rule->eBPF compiler: every emitted program verifies; filters
match exactly what a reference matcher matches; IDs extract correctly."""

import struct

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.compiler import compile_script
from repro.core.config import (
    ActionSpec,
    FilterRule,
    ID_MODE_NONE,
    ID_MODE_TCP_OPTION,
    ID_MODE_UDP_TRAILER,
    TracepointSpec,
)
from repro.core.records import TraceRecord
from repro.ebpf.context import skb_fields
from repro.ebpf.maps import PerCPUArrayMap, PerfEventArray
from repro.ebpf.vm import ExecutionEnv
from repro.net.addressing import IPv4Address, MACAddress
from repro.net.packet import IPPROTO_TCP, IPPROTO_UDP, make_tcp_packet, make_udp_packet
from repro.net.traceid import TraceIDEngine
from repro.sim.rng import SeededRNG

MAC_A, MAC_B = MACAddress.from_index(1), MACAddress.from_index(2)

ips = st.sampled_from([IPv4Address("10.0.0.1"), IPv4Address("10.0.0.2"), None])
port_opts = st.sampled_from([1000, 2000, None])
protocols = st.sampled_from([IPPROTO_UDP, IPPROTO_TCP, None])

rules = st.builds(
    FilterRule,
    src_ip=ips,
    dst_ip=ips,
    src_port=port_opts,
    dst_port=port_opts,
    protocol=protocols,
)


def _reference_match(rule: FilterRule, packet) -> bool:
    ip, l4 = packet.ip, packet.udp or packet.tcp
    if rule.src_ip is not None and ip.src != rule.src_ip:
        return False
    if rule.dst_ip is not None and ip.dst != rule.dst_ip:
        return False
    if rule.src_port is not None and l4.src_port != rule.src_port:
        return False
    if rule.dst_port is not None and l4.dst_port != rule.dst_port:
        return False
    if rule.protocol is not None and ip.protocol != rule.protocol:
        return False
    return True


def _build(rule, id_mode=ID_MODE_UDP_TRAILER, action=None, num_cpus=2):
    perf = PerfEventArray(num_cpus=num_cpus)
    counter = PerCPUArrayMap(8, 1, num_cpus)
    tracepoint = TracepointSpec(node="n", hook="dev:x", id_mode=id_mode)
    program, maps = compile_script(
        rule, tracepoint, action or ActionSpec(record=True, count=True),
        perf_map=perf, counter_map=counter,
    )
    program.load()  # verifier must accept
    env = ExecutionEnv(maps=maps)
    return program, env, perf, counter, tracepoint


def _run_on(program, env, packet, cpu=0):
    fields, data = skb_fields(packet, cpu=cpu)
    env.cpu = cpu
    return program.run(env, fields, data)


class TestCompilerVsReference:
    @settings(max_examples=60, deadline=None)
    @given(
        rule=rules,
        src_ip=st.sampled_from(["10.0.0.1", "10.0.0.2"]),
        dst_ip=st.sampled_from(["10.0.0.1", "10.0.0.2"]),
        src_port=st.sampled_from([1000, 2000]),
        dst_port=st.sampled_from([1000, 2000]),
        is_tcp=st.booleans(),
    )
    def test_filter_equivalence(self, rule, src_ip, dst_ip, src_port, dst_port, is_tcp):
        maker = make_tcp_packet if is_tcp else make_udp_packet
        packet = maker(
            MAC_A, MAC_B, IPv4Address(src_ip), IPv4Address(dst_ip),
            src_port, dst_port, b"payload",
        )
        program, env, perf, counter, _tp = _build(rule, id_mode=ID_MODE_NONE)
        result = _run_on(program, env, packet)
        assert bool(result.r0) == _reference_match(rule, packet)

    @settings(max_examples=30, deadline=None)
    @given(rule=rules, id_mode=st.sampled_from(
        [ID_MODE_NONE, ID_MODE_UDP_TRAILER, ID_MODE_TCP_OPTION]))
    def test_every_shape_passes_verifier(self, rule, id_mode):
        _build(rule, id_mode=id_mode)  # load() inside raises on failure


class TestRecordEmission:
    def test_record_layout(self):
        rule = FilterRule(dst_port=4000, protocol=IPPROTO_UDP)
        program, env, perf, counter, tp = _build(rule)
        env.clock = lambda: 777_000
        # Zeroed payload tail: the UDP-trailer read yields trace_id 0
        # (untraced flows simply have no ID at data_end-4).
        packet = make_udp_packet(MAC_A, MAC_B, IPv4Address("1.1.1.1"),
                                 IPv4Address("2.2.2.2"), 1, 4000, bytes(8))
        _run_on(program, env, packet, cpu=1)
        assert len(perf.pending) == 1
        cpu, raw = perf.pending[0]
        record = TraceRecord.unpack(raw)
        assert cpu == 1
        assert record.timestamp_ns == 777_000
        assert record.tracepoint_id == tp.tracepoint_id
        assert record.packet_len == packet.total_length
        assert record.cpu == 1
        assert record.trace_id == 0  # no ID embedded

    def test_non_matching_packet_emits_nothing(self):
        rule = FilterRule(dst_port=4000)
        program, env, perf, counter, _tp = _build(rule)
        packet = make_udp_packet(MAC_A, MAC_B, IPv4Address("1.1.1.1"),
                                 IPv4Address("2.2.2.2"), 1, 9999, b"")
        _run_on(program, env, packet)
        assert perf.pending == []
        assert counter.sum_u64(0) == 0

    def test_counter_increments_per_cpu(self):
        program, env, perf, counter, _tp = _build(FilterRule(), num_cpus=4)
        packet = make_udp_packet(MAC_A, MAC_B, IPv4Address("1.1.1.1"),
                                 IPv4Address("2.2.2.2"), 1, 2, b"")
        for cpu in (0, 0, 3):
            _run_on(program, env, packet, cpu=cpu)
        assert counter.sum_u64(0) == 3

    def test_count_only_action(self):
        perf = PerfEventArray(num_cpus=1)
        counter = PerCPUArrayMap(8, 1, 1)
        tp = TracepointSpec(node="n", hook="dev:x", id_mode=ID_MODE_NONE)
        program, maps = compile_script(
            FilterRule(), tp, ActionSpec(record=False, count=True), counter_map=counter
        )
        program.load()
        env = ExecutionEnv(maps=maps)
        packet = make_udp_packet(MAC_A, MAC_B, IPv4Address("1.1.1.1"),
                                 IPv4Address("2.2.2.2"), 1, 2, b"")
        _run_on(program, env, packet)
        assert counter.sum_u64(0) == 1

    def test_missing_maps_rejected(self):
        tp = TracepointSpec(node="n", hook="dev:x")
        with pytest.raises(ValueError):
            compile_script(FilterRule(), tp, ActionSpec(record=True))


class TestTraceIDExtraction:
    def _id_from_record(self, perf):
        _cpu, raw = perf.pending[-1]
        return TraceRecord.unpack(raw).trace_id

    def test_udp_trailer_id_read_back(self):
        traceid = TraceIDEngine(SeededRNG(7, "ids"))
        packet = make_udp_packet(MAC_A, MAC_B, IPv4Address("1.1.1.1"),
                                 IPv4Address("2.2.2.2"), 1, 2, b"payload")
        traceid.embed_udp(packet)
        program, env, perf, _c, _tp = _build(FilterRule(), id_mode=ID_MODE_UDP_TRAILER)
        _run_on(program, env, packet)
        embedded = packet.metadata["trace_id"]
        # The program loads the 4 BE bytes little-endian: a fixed
        # permutation, identical at every tracepoint.
        expected = int.from_bytes(struct.pack("!I", embedded), "little")
        assert self._id_from_record(perf) == expected

    def test_udp_without_id_reads_zero_or_payload_tail(self):
        packet = make_udp_packet(MAC_A, MAC_B, IPv4Address("1.1.1.1"),
                                 IPv4Address("2.2.2.2"), 1, 2, b"\x00" * 8)
        program, env, perf, _c, _tp = _build(FilterRule(), id_mode=ID_MODE_UDP_TRAILER)
        _run_on(program, env, packet)
        assert self._id_from_record(perf) == 0

    def test_tcp_option_id_read_back(self):
        traceid = TraceIDEngine(SeededRNG(7, "ids"))
        packet = make_tcp_packet(MAC_A, MAC_B, IPv4Address("1.1.1.1"),
                                 IPv4Address("2.2.2.2"), 1, 2, b"data")
        traceid.embed_tcp(packet)
        program, env, perf, _c, _tp = _build(FilterRule(), id_mode=ID_MODE_TCP_OPTION)
        _run_on(program, env, packet)
        embedded = packet.metadata["trace_id"]
        expected = int.from_bytes(struct.pack("!I", embedded), "little")
        assert self._id_from_record(perf) == expected

    def test_tcp_without_option_reads_zero(self):
        packet = make_tcp_packet(MAC_A, MAC_B, IPv4Address("1.1.1.1"),
                                 IPv4Address("2.2.2.2"), 1, 2, b"data")
        program, env, perf, _c, _tp = _build(FilterRule(), id_mode=ID_MODE_TCP_OPTION)
        _run_on(program, env, packet)
        assert self._id_from_record(perf) == 0

    def test_same_id_at_two_tracepoints(self):
        traceid = TraceIDEngine(SeededRNG(7, "ids"))
        packet = make_udp_packet(MAC_A, MAC_B, IPv4Address("1.1.1.1"),
                                 IPv4Address("2.2.2.2"), 1, 2, b"payload")
        traceid.embed_udp(packet)
        ids = []
        for _ in range(2):
            program, env, perf, _c, _tp = _build(FilterRule(), id_mode=ID_MODE_UDP_TRAILER)
            _run_on(program, env, packet)
            ids.append(self._id_from_record(perf))
        assert ids[0] == ids[1] != 0
