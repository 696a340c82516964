"""Compiler extensions: prefix filters, size histograms, sampling."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.compiler import HISTOGRAM_BUCKETS, compile_script, histogram_bucket
from repro.core.config import ActionSpec, ConfigError, FilterRule, ID_MODE_NONE, TracepointSpec
from repro.ebpf.context import skb_fields
from repro.ebpf.maps import PerCPUArrayMap, PerfEventArray
from repro.ebpf.vm import ExecutionEnv
from repro.net.addressing import IPv4Address, MACAddress
from repro.net.packet import IPPROTO_UDP, make_udp_packet

MAC_A, MAC_B = MACAddress.from_index(1), MACAddress.from_index(2)


def _build(rule=None, action=None, num_cpus=2):
    perf = PerfEventArray(num_cpus=num_cpus)
    counter = PerCPUArrayMap(8, 1, num_cpus)
    hist = PerCPUArrayMap(8, HISTOGRAM_BUCKETS, num_cpus)
    tracepoint = TracepointSpec(node="n", hook="dev:x", id_mode=ID_MODE_NONE)
    program, maps = compile_script(
        rule or FilterRule(),
        tracepoint,
        action or ActionSpec(record=True),
        perf_map=perf,
        counter_map=counter,
        histogram_map=hist,
    )
    program.load()
    return program, ExecutionEnv(maps=maps), perf, counter, hist


def _packet(src="10.1.2.3", dst="10.9.8.7", payload=b"x" * 50):
    return make_udp_packet(MAC_A, MAC_B, IPv4Address(src), IPv4Address(dst),
                           1000, 2000, payload)


def _run(program, env, packet):
    fields, data = skb_fields(packet)
    return program.run(env, fields, data)


class TestPrefixFilters:
    @pytest.mark.parametrize("prefix,src,matches", [
        (24, "10.1.2.99", True),
        (24, "10.1.3.99", False),
        (16, "10.1.200.1", True),
        (16, "10.2.0.1", False),
        (8, "10.255.255.255", True),
        (8, "11.0.0.0", False),
        (32, "10.1.2.3", True),
        (32, "10.1.2.4", False),
    ])
    def test_src_prefix_matching(self, prefix, src, matches):
        rule = FilterRule(src_ip=IPv4Address("10.1.2.3"), src_prefix_len=prefix)
        program, env, *_ = _build(rule=rule)
        assert bool(_run(program, env, _packet(src=src)).r0) == matches

    def test_zero_prefix_matches_everything(self):
        rule = FilterRule(dst_ip=IPv4Address("10.9.8.7"), dst_prefix_len=0,
                          protocol=IPPROTO_UDP)
        program, env, *_ = _build(rule=rule)
        assert _run(program, env, _packet(dst="99.99.99.99")).r0 == 1

    def test_bad_prefix_rejected(self):
        with pytest.raises(ConfigError):
            FilterRule(src_ip=IPv4Address("1.1.1.1"), src_prefix_len=33)

    @settings(max_examples=40, deadline=None)
    @given(prefix=st.integers(min_value=0, max_value=32),
           ip=st.integers(min_value=0, max_value=0xFFFFFFFF))
    def test_prefix_matches_reference_subnet_check(self, prefix, ip):
        network = IPv4Address("172.16.32.7")
        rule = FilterRule(dst_ip=network, dst_prefix_len=prefix)
        program, env, *_ = _build(rule=rule)
        candidate = IPv4Address(ip)
        packet = _packet(dst=str(candidate))
        expected = candidate.in_subnet(network, prefix)
        assert bool(_run(program, env, packet).r0) == expected


class TestSizeHistogram:
    def test_reference_bucketing(self):
        assert histogram_bucket(0) == 0
        assert histogram_bucket(1) == 1
        assert histogram_bucket(2) == 2
        assert histogram_bucket(255) == 8
        assert histogram_bucket(256) == 9
        assert histogram_bucket(65535) == 16

    @settings(max_examples=40, deadline=None)
    @given(size=st.integers(min_value=0, max_value=1400))
    def test_in_kernel_bucket_matches_reference(self, size):
        action = ActionSpec(record=False, size_histogram=True)
        program, env, perf, counter, hist = _build(action=action)
        packet = _packet(payload=bytes(size))
        _run(program, env, packet)
        expected_bucket = histogram_bucket(packet.total_length)
        buckets = [hist.sum_u64(i) for i in range(HISTOGRAM_BUCKETS)]
        assert buckets[expected_bucket] == 1
        assert sum(buckets) == 1

    def test_histogram_accumulates(self):
        action = ActionSpec(record=False, size_histogram=True)
        program, env, perf, counter, hist = _build(action=action)
        for size in (10, 10, 1000):
            _run(program, env, _packet(payload=bytes(size)))
        buckets = [hist.sum_u64(i) for i in range(HISTOGRAM_BUCKETS)]
        assert sum(buckets) == 3

    def test_histogram_requires_map(self):
        tp = TracepointSpec(node="n", hook="dev:x")
        with pytest.raises(ValueError):
            compile_script(FilterRule(), tp, ActionSpec(size_histogram=True),
                           perf_map=PerfEventArray(num_cpus=1))


class TestSampling:
    def test_sampled_program_records_fraction(self):
        action = ActionSpec(record=True, sample_shift=2)  # ~1/4
        program, env, perf, *_ = _build(action=action)
        draws = iter(range(1000))
        env.prandom_u32 = lambda: next(draws)  # 0,1,2,3,... -> every 4th hits
        for _ in range(100):
            _run(program, env, _packet())
        assert perf.events_emitted == 25

    def test_sampled_out_returns_2(self):
        action = ActionSpec(record=True, sample_shift=1)
        program, env, perf, *_ = _build(action=action)
        env.prandom_u32 = lambda: 1  # always sampled out
        result = _run(program, env, _packet())
        assert result.r0 == 2
        assert perf.events_emitted == 0

    def test_sampling_cheaper_when_skipping(self):
        action = ActionSpec(record=True, sample_shift=1)
        program, env, perf, *_ = _build(action=action)
        env.prandom_u32 = lambda: 1
        skip_cost = _run(program, env, _packet()).cost_ns
        env.prandom_u32 = lambda: 0
        hit_cost = _run(program, env, _packet()).cost_ns
        assert skip_cost < hit_cost

    def test_bad_shift_rejected(self):
        with pytest.raises(ConfigError):
            ActionSpec(sample_shift=17)

    def test_action_must_do_something_still_enforced(self):
        with pytest.raises(ConfigError):
            ActionSpec(record=False, count=False, size_histogram=False)


class TestAgentIntegration:
    def test_histogram_via_full_pipeline(self, engine, two_nodes):
        from repro.core import GlobalConfig, TracingSpec, VNetTracer

        node_a, node_b, ip_a, ip_b = two_nodes
        tracer = VNetTracer(engine)
        tracer.add_agent(node_a)
        spec = TracingSpec(
            rule=FilterRule(dst_port=9000, protocol=IPPROTO_UDP),
            tracepoints=[
                TracepointSpec(node=node_a.name, hook="kprobe:udp_send_skb",
                               label="send", id_mode=ID_MODE_NONE),
            ],
            action=ActionSpec(record=True, count=True, size_histogram=True),
        )
        tracer.deploy(spec)
        node_b.bind_udp(ip_b, 9000)
        client = node_a.bind_udp(ip_a, 9001)
        for i, size in enumerate((10, 10, 500, 500, 500)):
            engine.schedule(1_000_000 * (i + 1), client.sendto, ip_b, 9000,
                            bytes(size))
        engine.run(until=100_000_000)
        assert tracer.counter(node_a.name, "send") == 5
        histogram = tracer.size_histogram(node_a.name, "send")
        assert sum(histogram) == 5
        assert len([b for b in histogram if b]) == 2  # two size classes
