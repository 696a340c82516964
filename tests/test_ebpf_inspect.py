"""Program introspection (bpftool analog)."""

from repro.core.compiler import compile_script
from repro.core.config import ActionSpec, FilterRule, TracepointSpec
from repro.ebpf.context import skb_fields
from repro.ebpf.inspect import dump_program, inspect_program
from repro.ebpf.maps import PerCPUArrayMap, PerfEventArray
from repro.ebpf.vm import ExecutionEnv
from repro.net.addressing import IPv4Address, MACAddress
from repro.net.packet import IPPROTO_UDP, make_udp_packet


def _loaded_script():
    perf = PerfEventArray(num_cpus=2)
    counter = PerCPUArrayMap(8, 1, 2)
    program, maps = compile_script(
        FilterRule(dst_port=4000, protocol=IPPROTO_UDP),
        TracepointSpec(node="n", hook="dev:x"),
        ActionSpec(record=True, count=True),
        perf_map=perf,
        counter_map=counter,
    )
    program.load()
    return program, maps, perf, counter


class TestInspect:
    def test_counts_match_program_shape(self):
        program, maps, perf, counter = _loaded_script()
        info = inspect_program(program)
        assert info.instructions == len(program.insns)
        assert info.alu_ops > 0 and info.jumps > 0
        assert info.loads > 0 and info.stores > 0
        total = info.alu_ops + info.jumps + info.loads + info.stores
        # LD_IMM64 second slots are part of their first slot.
        assert total == info.instructions - sum(
            1 for insn in program.insns if insn.opcode == 0
        )

    def test_helper_and_map_discovery(self):
        program, maps, perf, counter = _loaded_script()
        info = inspect_program(program)
        assert info.helper_calls.get("perf_event_output") == 1
        assert info.helper_calls.get("ktime_get_ns") == 1
        assert info.helper_calls.get("map_lookup_elem") == 1
        assert set(info.map_fds) == set(maps)

    def test_cost_bounds_order(self):
        program, *_ = _loaded_script()
        info = inspect_program(program)
        assert 0 < info.max_cost_ns_jit < info.max_cost_ns_interp

    def test_runtime_stats_reflected(self):
        program, maps, perf, counter = _loaded_script()
        packet = make_udp_packet(
            MACAddress.from_index(1), MACAddress.from_index(2),
            IPv4Address("1.1.1.1"), IPv4Address("2.2.2.2"), 1, 4000, b"x",
        )
        fields, data = skb_fields(packet)
        program.run(ExecutionEnv(maps=maps), fields, data)
        info = inspect_program(program)
        assert info.run_count == 1
        assert info.total_cost_ns > 0
        # Worst case bounds the observed cost.
        assert info.total_cost_ns <= info.max_cost_ns_jit + 1

    def test_dump_renders(self):
        program, *_ = _loaded_script()
        listing = dump_program(program)
        assert "program" in listing
        assert "exit" in listing
        assert "call helper#25" in listing
