"""Interpreter semantics: ALU, memory, jumps, helpers, cost accounting."""

import pytest
from hypothesis import given, strategies as st

from repro.ebpf.assembler import Assembler
from repro.ebpf.isa import R0, R1, R2, R3, R4, R5, R6, R10
from repro.ebpf.maps import HashMap, PerfEventArray
from repro.ebpf.vm import (
    BPFProgram,
    ExecutionEnv,
    ExecutionError,
    INTERPRETER_NS_PER_INSN,
    JIT_NS_PER_INSN,
)

U64 = 0xFFFFFFFFFFFFFFFF
u64s = st.integers(min_value=0, max_value=U64)
imm32 = st.integers(min_value=-(2**31), max_value=2**31 - 1)


def run_program(asm, env=None, ctx=None, data=None, jit=True):
    program = BPFProgram(asm.assemble(), name="t", jit=jit)
    program.load()
    return program.run(env or ExecutionEnv(), ctx if ctx is not None else bytearray(64), data)


class TestALU:
    @given(a=imm32, b=imm32)
    def test_add_matches_wrapping_semantics(self, a, b):
        asm = Assembler()
        asm.mov_imm(R0, a)
        asm.add_imm(R0, b)
        asm.exit_()
        result = run_program(asm)
        assert (
            result.r0 == ((a & U64 if a >= 0 else a & U64) + (b & U64 if b >= 0 else b & U64)) & U64
        )

    @given(a=imm32)
    def test_mov_sign_extends(self, a):
        asm = Assembler()
        asm.mov_imm(R0, a)
        asm.exit_()
        assert run_program(asm).r0 == a & U64

    def test_mov32_zero_extends(self):
        asm = Assembler()
        asm.mov32_imm(R0, -1)
        asm.exit_()
        assert run_program(asm).r0 == 0xFFFFFFFF

    def test_sub_wraps(self):
        asm = Assembler()
        asm.mov_imm(R0, 0)
        asm.sub_imm(R0, 1)
        asm.exit_()
        assert run_program(asm).r0 == U64

    def test_mul_div_mod(self):
        asm = Assembler()
        asm.mov_imm(R0, 100)
        asm.mul_imm(R0, 7)     # 700
        asm.div_imm(R0, 3)     # 233
        asm.mod_imm(R0, 10)    # 3
        asm.exit_()
        assert run_program(asm).r0 == 3

    def test_runtime_division_by_zero_yields_zero(self):
        asm = Assembler()
        asm.mov_imm(R0, 7)
        asm.mov_imm(R2, 0)
        asm._alu(0x30, R0, 0x07, src=R2, use_reg=True)  # div r0, r2
        asm.exit_()
        assert run_program(asm).r0 == 0

    def test_bitwise_ops(self):
        asm = Assembler()
        asm.mov_imm(R0, 0b1100)
        asm.and_imm(R0, 0b1010)  # 0b1000
        asm.or_imm(R0, 0b0001)   # 0b1001
        asm.lsh_imm(R0, 4)       # 0b10010000
        asm.rsh_imm(R0, 2)       # 0b100100
        asm.exit_()
        assert run_program(asm).r0 == 0b100100

    def test_neg(self):
        asm = Assembler()
        asm.mov_imm(R0, 5)
        asm.neg(R0)
        asm.exit_()
        assert run_program(asm).r0 == (-5) & U64

    def test_xor_reg_zeroes(self):
        asm = Assembler()
        asm.mov_imm(R0, 12345)
        asm.xor_reg(R0, R0)
        asm.exit_()
        assert run_program(asm).r0 == 0


class TestMemoryAndJumps:
    def test_stack_store_load_roundtrip(self):
        asm = Assembler()
        asm.ld_imm64(R2, 0xDEADBEEFCAFEF00D)
        asm.stx_dw(R10, R2, -8)
        asm.ldx_dw(R0, R10, -8)
        asm.exit_()
        assert run_program(asm).r0 == 0xDEADBEEFCAFEF00D

    def test_byte_halfword_loads(self):
        asm = Assembler()
        asm.mov_imm(R2, 0x1234)
        asm.stx_h(R10, R2, -2)
        asm.ldx_b(R0, R10, -2)  # little endian: low byte first
        asm.exit_()
        assert run_program(asm).r0 == 0x34

    def test_st_imm(self):
        asm = Assembler()
        asm.st_imm(4, R10, -4, 77)
        asm.ldx_w(R0, R10, -4)
        asm.exit_()
        assert run_program(asm).r0 == 77

    def test_ctx_load(self):
        asm = Assembler()
        asm.ldx_w(R0, R1, 8)
        asm.exit_()
        ctx = bytearray(64)
        ctx[8:12] = (4242).to_bytes(4, "little")
        assert run_program(asm, ctx=ctx).r0 == 4242

    def test_out_of_region_access_faults(self):
        asm = Assembler()
        asm.mov_imm(R2, 0x999)
        asm.ldx_w(R0, R2, 0)
        asm.exit_()
        with pytest.raises(Exception):
            run_program(asm)

    def test_conditional_jump_taken_and_not(self):
        def prog(value):
            asm = Assembler()
            asm.mov_imm(R2, value)
            asm.jgt_imm(R2, 10, "big")
            asm.mov_imm(R0, 0)
            asm.exit_()
            asm.label("big")
            asm.mov_imm(R0, 1)
            asm.exit_()
            return run_program(asm).r0

        assert prog(5) == 0
        assert prog(11) == 1

    def test_unsigned_comparison_semantics(self):
        asm = Assembler()
        asm.mov_imm(R2, -1)  # 0xFFFF... unsigned max
        asm.jgt_imm(R2, 100, "big")
        asm.mov_imm(R0, 0)
        asm.exit_()
        asm.label("big")
        asm.mov_imm(R0, 1)
        asm.exit_()
        assert run_program(asm).r0 == 1

    def test_jset(self):
        asm = Assembler()
        asm.mov_imm(R2, 0b100)
        asm.jset_imm(R2, 0b110, "hit")
        asm.mov_imm(R0, 0)
        asm.exit_()
        asm.label("hit")
        asm.mov_imm(R0, 1)
        asm.exit_()
        assert run_program(asm).r0 == 1


class TestHelpersAndMaps:
    def test_ktime_reads_env_clock(self):
        asm = Assembler()
        asm.call(5)
        asm.exit_()
        env = ExecutionEnv(clock=lambda: 987654321)
        assert run_program(asm, env=env).r0 == 987654321

    def test_smp_processor_id(self):
        asm = Assembler()
        asm.call(8)
        asm.exit_()
        env = ExecutionEnv(cpu=3)
        assert run_program(asm, env=env).r0 == 3

    def test_prandom_u32(self):
        asm = Assembler()
        asm.call(7)
        asm.exit_()
        env = ExecutionEnv(prandom_u32=lambda: 0xABCD)
        assert run_program(asm, env=env).r0 == 0xABCD

    def _map_update_lookup_program(self, bpf_map):
        asm = Assembler()
        # key=1 at fp-4; value=99 at fp-12 (8 bytes)
        asm.st_imm(4, R10, -4, 1)
        asm.st_imm(8, R10, -12, 99)
        asm.ld_map_fd(R1, bpf_map.fd)
        asm.mov_reg(R2, R10)
        asm.add_imm(R2, -4)
        asm.mov_reg(R3, R10)
        asm.add_imm(R3, -12)
        asm.mov_imm(R4, 0)
        asm.call(2)  # update
        asm.ld_map_fd(R1, bpf_map.fd)
        asm.mov_reg(R2, R10)
        asm.add_imm(R2, -4)
        asm.call(1)  # lookup
        asm.jne_imm(R0, 0, "found")
        asm.mov_imm(R0, 0)
        asm.exit_()
        asm.label("found")
        asm.ldx_dw(R0, R0, 0)
        asm.exit_()
        return asm

    def test_map_update_then_lookup(self):
        bpf_map = HashMap(key_size=4, value_size=8, max_entries=8)
        asm = self._map_update_lookup_program(bpf_map)
        program = BPFProgram(asm.assemble(), maps={bpf_map.fd: bpf_map}, name="m")
        program.load()
        result = program.run(ExecutionEnv(maps={bpf_map.fd: bpf_map}), bytearray(64))
        assert result.r0 == 99

    def test_store_through_lookup_pointer_persists(self):
        bpf_map = HashMap(key_size=4, value_size=8, max_entries=8)
        bpf_map.update((1).to_bytes(4, "little"), (5).to_bytes(8, "little"))
        asm = Assembler()
        asm.st_imm(4, R10, -4, 1)
        asm.ld_map_fd(R1, bpf_map.fd)
        asm.mov_reg(R2, R10)
        asm.add_imm(R2, -4)
        asm.call(1)
        asm.jeq_imm(R0, 0, "miss")
        asm.ldx_dw(R2, R0, 0)
        asm.add_imm(R2, 1)
        asm.stx_dw(R0, R2, 0)
        asm.mov_imm(R0, 1)
        asm.exit_()
        asm.label("miss")
        asm.mov_imm(R0, 0)
        asm.exit_()
        program = BPFProgram(asm.assemble(), maps={bpf_map.fd: bpf_map}, name="m")
        program.load()
        env = ExecutionEnv(maps={bpf_map.fd: bpf_map})
        program.run(env, bytearray(64))
        program.run(env, bytearray(64))
        value = bpf_map.lookup((1).to_bytes(4, "little"))
        assert int.from_bytes(value, "little") == 7

    def test_perf_event_output_reaches_map(self):
        perf = PerfEventArray(num_cpus=2)
        asm = Assembler()
        asm.mov_reg(R6, R1)
        asm.st_imm(8, R10, -8, 0x1122)
        asm.mov_reg(R1, R6)
        asm.ld_map_fd(R2, perf.fd)
        asm.mov_imm(R3, -1)
        asm.mov_reg(R4, R10)
        asm.add_imm(R4, -8)
        asm.mov_imm(R5, 8)
        asm.call(25)
        asm.exit_()
        program = BPFProgram(asm.assemble(), maps={perf.fd: perf}, name="p")
        program.load()
        program.run(ExecutionEnv(maps={perf.fd: perf}, cpu=1), bytearray(64))
        assert perf.pending == [(1, (0x1122).to_bytes(8, "little"))]


class TestCostModel:
    def test_unloaded_program_cannot_run(self):
        program = BPFProgram(Assembler().mov_imm(R0, 0).exit_().assemble())
        with pytest.raises(ExecutionError):
            program.run(ExecutionEnv(), bytearray(64))

    def test_jit_cheaper_than_interpreter(self):
        def cost(jit):
            asm = Assembler()
            for _ in range(50):
                asm.mov_imm(R0, 1)
            asm.exit_()
            return run_program(asm, jit=jit).cost_ns

        assert cost(jit=True) < cost(jit=False)

    def test_cost_scales_with_instructions_executed(self):
        asm = Assembler()
        asm.mov_imm(R2, 0)
        asm.jeq_imm(R2, 0, "short")  # taken: skips the long block
        for _ in range(100):
            asm.mov_imm(R0, 1)
        asm.label("short")
        asm.mov_imm(R0, 0)
        asm.exit_()
        result = run_program(asm)
        assert result.insns_executed < 10

    def test_helper_costs_included(self):
        asm_plain = Assembler()
        asm_plain.mov_imm(R0, 0)
        asm_plain.exit_()
        asm_helper = Assembler()
        asm_helper.call(5)
        asm_helper.exit_()
        assert run_program(asm_helper).cost_ns > run_program(asm_plain).cost_ns

    def test_load_cost_positive_and_reports_stats(self):
        asm = Assembler()
        asm.mov_imm(R0, 0)
        asm.exit_()
        program = BPFProgram(asm.assemble(), name="s")
        assert program.load() > 0
        program.run(ExecutionEnv(), bytearray(64))
        assert program.run_count == 1
        assert program.total_cost_ns > 0


class TestRunAccounting:
    """Runs are accounted per distinct outcome, not per run."""

    RUNS = 10_000

    def _record_script(self, **tier):
        from repro.core.compiler import compile_script
        from repro.core.config import ActionSpec, FilterRule, TracepointSpec

        perf = PerfEventArray(num_cpus=2)
        perf.set_consumer(lambda _record: None)
        program, maps = compile_script(
            FilterRule(dst_port=4000),
            TracepointSpec(node="n", hook="dev:x", tracepoint_id=7),
            ActionSpec(record=True),
            perf_map=perf,
        )
        for name, value in tier.items():
            setattr(program, name, value)
        program.load()
        return program, ExecutionEnv(maps=maps, clock=lambda: 5)

    @staticmethod
    def _contexts():
        from repro.ebpf.context import build_skb_context
        from repro.net.addressing import IPv4Address, MACAddress
        from repro.net.packet import make_udp_packet

        def context(port):
            packet = make_udp_packet(
                MACAddress.from_index(1), MACAddress.from_index(2),
                IPv4Address("1.1.1.1"), IPv4Address("2.2.2.2"), 1, port, b"payload!",
            )
            return build_skb_context(packet)

        return context(4000), context(5000)

    @pytest.mark.parametrize("tier", [{}, {"precompile": False}], ids=["compiled", "interpreter"])
    def test_matching_runs_with_no_obs_read_retain_nothing_per_run(self, tier):
        """ISSUE 22's retention bug: one helper-call dict per matching
        run was queued until something read ``helper_call_totals`` --
        without a sampler, for ever."""
        import sys

        from repro.obs import contract
        from repro.obs.instrument import register_ebpf_metrics
        from repro.obs.registry import MetricsRegistry

        program, env = self._record_script(**tier)
        (hit_ctx, hit_data), (miss_ctx, miss_data) = self._contexts()
        program.run(env, hit_ctx, hit_data)  # both outcomes seen once,
        program.run(env, miss_ctx, miss_data)  # so the table is complete
        before = sys.getallocatedblocks()
        for _ in range(self.RUNS):
            program.run(env, hit_ctx, hit_data)
        retained = sys.getallocatedblocks() - before
        assert retained < 100, f"{retained} blocks kept alive by {self.RUNS} runs"
        assert len(program._outcomes) == 2

        runs = self.RUNS + 1
        assert program.run_count == runs + 1
        assert program.helper_call_totals == {
            "ktime_get_ns": runs, "get_smp_processor_id": runs, "perf_event_output": runs,
        }
        registry = MetricsRegistry()
        register_ebpf_metrics(registry, lambda: [program])
        assert registry.total(contract.EBPF_HELPER_CALLS.name) == 3 * runs
        assert registry.total(contract.EBPF_RUNS.name) == runs + 1

    def test_totals_are_the_sum_of_the_per_run_results(self):
        program, env = self._record_script()
        results = [program.run(env, ctx, data) for ctx, data in self._contexts() * 3]
        assert program.run_count == 6
        assert program.total_cost_ns == sum(r.cost_ns for r in results)
        assert program.total_insns_executed == sum(r.insns_executed for r in results)
        totals = {}
        for result in results:
            for helper, count in result.helper_calls.items():
                totals[helper] = totals.get(helper, 0) + count
        assert program.helper_call_totals == totals

    def test_a_result_cannot_corrupt_the_shared_tally(self):
        program, env = self._record_script()
        (ctx, data), _miss = self._contexts()
        result = program.run(env, ctx, data)
        with pytest.raises(TypeError):
            result.helper_calls["ktime_get_ns"] = 99
