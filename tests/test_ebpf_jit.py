"""Differential tests: the compiled tier must match the interpreter
oracle bit for bit -- exit codes, registers, counts, costs, map state,
and perf-event output."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.compiler import compile_script
from repro.core.config import ActionSpec, FilterRule, TracepointSpec
from repro.ebpf import isa
from repro.ebpf.assembler import Assembler
from repro.ebpf.context import build_skb_context
from repro.ebpf.helpers import (
    HELPER_GET_PRANDOM_U32,
    HELPER_GET_SMP_PROCESSOR_ID,
    HELPER_KTIME_GET_NS,
    HELPER_MAP_DELETE_ELEM,
    HELPER_MAP_LOOKUP_ELEM,
    HELPER_MAP_UPDATE_ELEM,
    HELPER_PERF_EVENT_OUTPUT,
)
from repro.ebpf.isa import R0, R1, R2, R3, R4, R5, R10
from repro.ebpf.jit import compile_program
from repro.ebpf.maps import HashMap, PerCPUArrayMap, PerfEventArray
from repro.ebpf.memory import MemoryFault
from repro.ebpf.verifier import verify
from repro.ebpf.vm import (
    BPFProgram,
    ExecutionEnv,
    ExecutionError,
    ShadowMismatch,
    clear_program_cache,
    program_cache_stats,
)
from repro.net.addressing import IPv4Address, MACAddress
from repro.net.packet import IPPROTO_UDP, make_udp_packet

MAC_A, MAC_B = MACAddress.from_index(1), MACAddress.from_index(2)

# Random straight-line ALU programs over pre-initialized registers.
ALU_OPS = ("add", "sub", "mul", "div", "mod", "and", "or", "lsh", "rsh")

alu_steps = st.lists(
    st.tuples(
        st.sampled_from(ALU_OPS),
        st.integers(min_value=0, max_value=5),      # dst register
        st.integers(min_value=-(2**31), max_value=2**31 - 1),  # immediate
    ),
    min_size=1,
    max_size=40,
)
init_values = st.lists(
    st.integers(min_value=-(2**31), max_value=2**31 - 1), min_size=6, max_size=6
)


def _build_random_program(inits, steps):
    asm = Assembler()
    for reg, value in enumerate(inits):
        asm.mov_imm(reg, value)
    for op, dst, imm in steps:
        if op in ("lsh", "rsh"):
            imm = abs(imm) % 64
        if op in ("div", "mod") and imm == 0:
            imm = 7
        getattr(asm, f"{op}_imm")(dst, imm)
    asm.mov_reg(R0, 0)  # result already in r0; keep explicit
    asm.exit_()
    return asm.assemble()


def _run(insns, jit):
    # jit=False runs the genuine interpreter loop (precompile off);
    # jit=True the pre-decoded closures -- that is the differential pair,
    # since by default both cost modes dispatch through closures.
    program = BPFProgram(list(insns), name="diff", jit=jit, precompile=jit)
    program.load()
    return program.run(ExecutionEnv(clock=lambda: 123456), bytearray(64))


class TestDifferentialALU:
    @settings(max_examples=80, deadline=None)
    @given(inits=init_values, steps=alu_steps)
    def test_random_alu_programs_agree(self, inits, steps):
        insns = _build_random_program(inits, steps)
        interp = _run(insns, jit=False)
        compiled = _run(insns, jit=True)
        assert compiled.r0 == interp.r0
        assert compiled.insns_executed == interp.insns_executed

    def test_branching_program_agrees(self):
        asm = Assembler()
        asm.mov_imm(R2, 300)
        asm.jgt_imm(R2, 255, "big")
        asm.mov_imm(R0, 1)
        asm.exit_()
        asm.label("big")
        asm.mov_imm(R0, 2)
        asm.exit_()
        insns = asm.assemble()
        assert _run(insns, jit=True).r0 == _run(insns, jit=False).r0 == 2

    def test_signed_compare_agrees(self):
        for value in (-5, 5):
            asm = Assembler()
            asm.mov_imm(R2, value)
            asm._jmp(isa.BPF_JSLT, "neg", dst=R2, imm=0)
            asm.mov_imm(R0, 0)
            asm.exit_()
            asm.label("neg")
            asm.mov_imm(R0, 1)
            asm.exit_()
            insns = asm.assemble()
            assert _run(insns, jit=True).r0 == _run(insns, jit=False).r0

    def test_ld_imm64_agrees(self):
        asm = Assembler()
        asm.ld_imm64(R0, 0xFEDCBA9876543210)
        asm.exit_()
        insns = asm.assemble()
        interp, compiled = _run(insns, jit=False), _run(insns, jit=True)
        assert compiled.r0 == interp.r0 == 0xFEDCBA9876543210
        assert compiled.insns_executed == interp.insns_executed

    def test_memory_roundtrip_agrees(self):
        asm = Assembler()
        asm.mov_imm(R2, -1)
        asm.stx_dw(R10, R2, -16)
        asm.ldx_w(R0, R10, -16)
        asm.exit_()
        insns = asm.assemble()
        assert _run(insns, jit=True).r0 == _run(insns, jit=False).r0 == 0xFFFFFFFF


# -- whole-subset random programs ---------------------------------------------
#
# Each generated program is a sequence of verifier-safe "steps" over
# r0-r5 plus the stack, conditional forward jumps (always to the exit
# block, keeping the CFG a DAG by construction), and helper-call blocks
# that re-initialize the caller-saved registers they clobber.  Both
# tiers run it against identical deterministic environments; everything
# observable must agree.

_STEP = st.one_of(
    st.tuples(
        st.just("alu"),
        st.sampled_from(ALU_OPS + ("xor_reg", "mov_reg", "add_reg", "sub_reg")),
        st.integers(min_value=0, max_value=5),
        st.integers(min_value=-(2**31), max_value=2**31 - 1),
    ),
    st.tuples(
        st.just("stack"),
        st.sampled_from(("w", "dw")),
        st.integers(min_value=1, max_value=5),
        st.integers(min_value=1, max_value=63),  # slot: fp-8*slot
    ),
    st.tuples(
        st.just("branch"),
        st.sampled_from(("jeq", "jne", "jgt", "jlt", "jle", "jset")),
        st.integers(min_value=0, max_value=5),
        st.integers(min_value=-64, max_value=64),
    ),
    st.tuples(
        st.just("call"),
        st.sampled_from(
            ("ktime", "prandom", "smp", "lookup", "update", "delete", "perf")
        ),
        st.integers(min_value=0, max_value=3),  # map key selector
        st.integers(min_value=0, max_value=0),
    ),
)

random_steps = st.lists(_STEP, min_size=1, max_size=25)
random_inits = st.lists(
    st.integers(min_value=-(2**31), max_value=2**31 - 1), min_size=6, max_size=6
)


def _assemble_subset_program(inits, steps, hash_fd, perf_fd):
    asm = Assembler()
    for reg, value in enumerate(inits):
        asm.mov_imm(reg, value)
    for kind, what, a, b in steps:
        if kind == "alu":
            if what in ("lsh", "rsh"):
                b = abs(b) % 64
            if what in ("div", "mod") and b == 0:
                b = 13
            if what.endswith("_reg"):
                getattr(asm, what)(a, (a + 1) % 6)
            else:
                getattr(asm, f"{what}_imm")(a, b)
        elif kind == "stack":
            offset = -8 * b
            if what == "dw":
                asm.stx_dw(R10, a, offset)
                asm.ldx_dw(a, R10, offset)
            else:
                asm.stx_w(R10, a, offset)
                asm.ldx_w(a, R10, offset)
        elif kind == "branch":
            getattr(asm, f"{what}_imm")(a, b, "end")
        elif kind == "call":
            if what == "ktime":
                asm.call(HELPER_KTIME_GET_NS)
            elif what == "prandom":
                asm.call(HELPER_GET_PRANDOM_U32)
            elif what == "smp":
                asm.call(HELPER_GET_SMP_PROCESSOR_ID)
            elif what in ("lookup", "update", "delete"):
                asm.st_imm(4, R10, -8, a)  # 4-byte key in fp-8
                asm.ld_map_fd(R1, hash_fd)
                asm.mov_reg(R2, R10)
                asm.add_imm(R2, -8)
                if what == "update":
                    asm.stx_dw(R10, R3, -16)  # 8-byte value from r3
                    asm.mov_reg(R3, R10)
                    asm.add_imm(R3, -16)
                    asm.mov_imm(R4, 0)
                    asm.call(HELPER_MAP_UPDATE_ELEM)
                elif what == "lookup":
                    asm.call(HELPER_MAP_LOOKUP_ELEM)
                else:
                    asm.call(HELPER_MAP_DELETE_ELEM)
            else:  # perf
                asm.stx_dw(R10, R0, -24)
                asm.ld_map_fd(R2, perf_fd)
                asm.mov_imm(R3, 0)  # explicit CPU 0
                asm.mov_reg(R4, R10)
                asm.add_imm(R4, -24)
                asm.mov_imm(R5, 8)
                asm.call(HELPER_PERF_EVENT_OUTPUT)
            # Calls clobber r1-r5; restore the invariant that r0-r5
            # are always initialized.
            for reg in (R1, R2, R3, R4, R5):
                asm.mov_imm(reg, reg)
    asm.ja("end")
    asm.label("end")
    asm.exit_()
    return asm.assemble()


def _deterministic_env(maps):
    ticks = [1_000_000]

    def clock():
        ticks[0] += 111
        return ticks[0]

    printks = []
    env = ExecutionEnv(maps=maps, clock=clock, cpu=1, printk_sink=printks.append)
    return env, printks


def _run_subset(insns, precompile):
    hash_map = HashMap(4, 8, 16)
    perf_map = PerfEventArray(num_cpus=2)
    insns = _rebind_map_fds(insns, hash_map.fd, perf_map.fd)
    maps = {hash_map.fd: hash_map, perf_map.fd: perf_map}
    program = BPFProgram(list(insns), name="subset", jit=True, precompile=precompile)
    program.load()
    env, printks = _deterministic_env(maps)
    result = program.run(env, bytearray(64))
    return result, hash_map.state_snapshot(), list(perf_map.pending), printks


# Placeholder fds baked into generated programs, rebound per run.
_HASH_TAG = 901
_PERF_TAG = 902


def _rebind_map_fds(insns, hash_fd, perf_fd):
    """Point the program's map references at this run's fresh maps."""
    fds = {_HASH_TAG: hash_fd, _PERF_TAG: perf_fd}
    out = list(insns)
    for index, insn in enumerate(out):
        if insn.insn_class == isa.BPF_LD and insn.src == isa.BPF_PSEUDO_MAP_FD:
            out[index] = insn._replace(imm=fds[insn.imm])
    return out


class TestDifferentialSubset:
    @settings(max_examples=60, deadline=None)
    @given(inits=random_inits, steps=random_steps)
    def test_random_subset_programs_agree(self, inits, steps):
        insns = _assemble_subset_program(inits, steps, _HASH_TAG, _PERF_TAG)
        interp, i_maps, i_perf, i_printk = _run_subset(insns, precompile=False)
        compiled, c_maps, c_perf, c_printk = _run_subset(insns, precompile=True)
        assert compiled.r0 == interp.r0
        assert compiled.regs == interp.regs
        assert compiled.insns_executed == interp.insns_executed
        assert compiled.cost_ns == interp.cost_ns
        assert compiled.helper_calls == interp.helper_calls
        assert c_maps == i_maps
        assert c_perf == i_perf
        assert c_printk == i_printk


class TestShadowMode:
    def _shadow_program(self, shadow=True):
        hash_map = HashMap(4, 8, 16)
        perf_map = PerfEventArray(num_cpus=2)
        asm = Assembler()
        asm.call(HELPER_KTIME_GET_NS)
        asm.stx_dw(R10, R0, -8)
        asm.call(HELPER_GET_PRANDOM_U32)
        asm.stx_w(R10, R0, -12)
        asm.st_imm(4, R10, -16, 7)
        asm.ld_map_fd(R1, hash_map.fd)
        asm.mov_reg(R2, R10)
        asm.add_imm(R2, -16)
        asm.mov_reg(R3, R10)
        asm.add_imm(R3, -8)
        asm.mov_imm(R4, 0)
        asm.call(HELPER_MAP_UPDATE_ELEM)
        asm.mov_imm(R1, 0)
        asm.ld_map_fd(R2, perf_map.fd)
        asm.mov_imm(R3, 0)
        asm.mov_reg(R4, R10)
        asm.add_imm(R4, -16)
        asm.mov_imm(R5, 4)
        asm.call(HELPER_PERF_EVENT_OUTPUT)
        asm.mov_imm(R0, 0)
        asm.exit_()
        program = BPFProgram(asm.assemble(), name="shadowed", shadow=shadow)
        program.load()
        maps = {hash_map.fd: hash_map, perf_map.fd: perf_map}
        env, _ = _deterministic_env(maps)
        return program, env, hash_map, perf_map

    def test_shadow_agreement_passes_and_counts_once(self):
        program, env, hash_map, perf_map = self._shadow_program()
        for _ in range(3):
            result = program.run(env, bytearray(64))
            assert result.r0 == 0
        # Externally the shadowed runs count once each, against the
        # real maps only.
        assert program.run_count == 3
        assert len(perf_map.pending) == 3
        assert len(hash_map.state_snapshot()) == 1

    def test_shadow_mismatch_raises(self):
        program, env, _hash_map, _perf_map = self._shadow_program()
        native = program._native

        def corrupted(state, stack, ctx, packet):
            return native(state, stack, ctx, packet) + 1  # wrong insn count

        program._native = corrupted
        with pytest.raises(ShadowMismatch):
            program.run(env, bytearray(64))

    def test_attachment_shadow_flag_arms_the_program(self):
        from repro.ebpf.probes import EBPFAttachment

        asm = Assembler()
        asm.mov_imm(R0, 1)
        asm.exit_()
        program = BPFProgram(asm.assemble(), name="plain")
        program.load()
        EBPFAttachment(program, ExecutionEnv())
        assert program.shadow is False
        EBPFAttachment(program, ExecutionEnv(), shadow=True)
        assert program.shadow is True


class TestDifferentialCompiledScripts:
    """Every compiler-emitted script shape, both engines, same packets."""

    def _script(self, action, jit):
        perf = PerfEventArray(num_cpus=2)
        counter = PerCPUArrayMap(8, 1, 2)
        hist = PerCPUArrayMap(8, 17, 2)
        tracepoint = TracepointSpec(node="n", hook="dev:x")
        program, maps = compile_script(
            FilterRule(dst_port=4000, protocol=IPPROTO_UDP),
            tracepoint,
            action,
            perf_map=perf,
            counter_map=counter,
            histogram_map=hist,
            jit=jit,
        )
        program.precompile = jit  # non-jit side must run the real interpreter
        program.load()
        env = ExecutionEnv(maps=maps, clock=lambda: 999, prandom_u32=lambda: 0)
        return program, env, perf

    @pytest.mark.parametrize("action", [
        ActionSpec(record=True),
        ActionSpec(record=True, count=True),
        ActionSpec(record=False, count=True, size_histogram=True),
        ActionSpec(record=True, sample_shift=2),
    ])
    @pytest.mark.parametrize("dst_port", [4000, 5000])
    def test_script_shapes_agree(self, action, dst_port):
        packet = make_udp_packet(MAC_A, MAC_B, IPv4Address("1.1.1.1"),
                                 IPv4Address("2.2.2.2"), 1, dst_port, b"data!")
        outcomes = []
        for jit in (False, True):
            program, env, perf = self._script(action, jit)
            ctx, data = build_skb_context(packet)
            result = program.run(env, ctx, data)
            outcomes.append((result.r0, result.insns_executed,
                             result.helper_calls, perf.events_emitted))
        assert outcomes[0] == outcomes[1]

    def _redeploy(self, tracepoint, action=ActionSpec(record=True)):
        """One agent install of ``tracepoint``: same script, fresh maps."""
        perf = PerfEventArray(num_cpus=2)
        perf.set_consumer(lambda _record: None)
        program, maps = compile_script(
            FilterRule(dst_port=4000, protocol=IPPROTO_UDP),
            tracepoint, action, perf_map=perf, jit=True,
        )
        program.load()
        return program, ExecutionEnv(maps=maps, clock=lambda: 999), perf

    def test_program_cache_hit_on_redeploy(self):
        """Redeploying an unchanged script (same tracepoint, fresh maps
        with fresh fds) must reuse the verified+compiled steps."""
        clear_program_cache()
        packet = make_udp_packet(MAC_A, MAC_B, IPv4Address("1.1.1.1"),
                                 IPv4Address("2.2.2.2"), 1, 4000, b"data!")
        tracepoint = TracepointSpec(node="n", hook="dev:x")
        emitted = []
        for _ in range(3):
            program, env, perf = self._redeploy(tracepoint)
            ctx, data = build_skb_context(packet)
            program.run(env, ctx, data)
            emitted.append(perf.events_emitted)
        stats = program_cache_stats()
        assert stats["misses"] == 1
        assert stats["hits"] == 2
        assert stats["size"] == 1
        # The patched map-load steps hit each redeploy's own fresh maps.
        assert emitted == [1, 1, 1]

    def test_program_cache_miss_on_different_bytecode(self):
        clear_program_cache()
        tracepoint = TracepointSpec(node="n", hook="dev:x")
        self._redeploy(tracepoint)
        self._redeploy(tracepoint, ActionSpec(record=True, sample_shift=2))
        stats = program_cache_stats()
        assert stats["misses"] == 2 and stats["hits"] == 0

    def test_precompile_off_bypasses_the_cache(self):
        clear_program_cache()
        asm = Assembler()
        asm.mov_imm(R0, 1)
        asm.exit_()
        insns = asm.assemble()
        _run(insns, jit=False)  # precompile off -> genuine interpreter
        stats = program_cache_stats()
        assert stats["misses"] == 0 and stats["size"] == 0

    def test_jit_charged_cheaper_per_run(self):
        packet = make_udp_packet(MAC_A, MAC_B, IPv4Address("1.1.1.1"),
                                 IPv4Address("2.2.2.2"), 1, 4000, b"data!")
        costs = {}
        for jit in (False, True):
            program, env, perf = self._script(ActionSpec(record=True), jit)
            ctx, data = build_skb_context(packet)
            costs[jit] = program.run(env, ctx, data).cost_ns
        assert costs[True] < costs[False]


# -- typed code generation -----------------------------------------------------

_CHAIN_HEAD = "<= _cl - "  # the context test that opens every generic region chain

_RULES = {
    "everything": FilterRule(),
    "ethertype": FilterRule(ethertype=0x0800),
    "protocol": FilterRule(protocol=IPPROTO_UDP),
    "src_ip": FilterRule(src_ip=IPv4Address("1.1.1.1")),
    "dst_prefix": FilterRule(dst_ip=IPv4Address("2.2.0.0"), dst_prefix_len=16),
    "ports": FilterRule(src_port=1, dst_port=4000),
    "all": FilterRule(
        ethertype=0x0800, protocol=IPPROTO_UDP, src_ip=IPv4Address("1.1.1.1"),
        dst_ip=IPv4Address("2.2.2.0"), dst_prefix_len=24, src_port=1, dst_port=4000,
    ),
}
_ACTIONS = {
    "record": ActionSpec(record=True),
    "record+count": ActionSpec(record=True, count=True),
    "count+hist": ActionSpec(record=False, count=True, size_histogram=True),
    "sampled": ActionSpec(record=True, sample_shift=2),
    "all": ActionSpec(record=True, count=True, size_histogram=True, sample_shift=1),
}


def _unproven_accesses(insns):
    """Loads and stores whose pointer the verifier could not type as
    context or frame (nor hint as packet): each keeps one chain."""
    reg_types = verify(insns).reg_types
    count = 0
    for index, insn in enumerate(insns):
        cls = insn.insn_class
        if cls == isa.BPF_LDX:
            pointer = reg_types[index][insn.src]
        elif cls in (isa.BPF_ST, isa.BPF_STX):
            pointer = reg_types[index][insn.dst]
        else:
            continue
        count += pointer is None or pointer[0] not in ("ctx", "fp", "pkt")
    return count


class TestTypedCodegen:
    """What the compiled tier makes of the verifier's pointer types."""

    @pytest.mark.parametrize("action", list(_ACTIONS))
    @pytest.mark.parametrize("id_mode", ["udp-trailer", "tcp-option", "none"])
    @pytest.mark.parametrize("rule", list(_RULES))
    def test_script_shapes_fold_every_proven_access(self, rule, id_mode, action):
        spec = _ACTIONS[action]
        program, maps = compile_script(
            _RULES[rule],
            TracepointSpec(node="n", hook="dev:x", id_mode=id_mode),
            spec,
            perf_map=PerfEventArray(num_cpus=2),
            counter_map=PerCPUArrayMap(8, 1, 2),
            histogram_map=PerCPUArrayMap(8, 17, 2),
        )
        source = compile_program(program.insns).source
        # No context- or frame-typed access emits the generic chain:
        # the only chains left are the map-value accesses through R0.
        map_value_accesses = 2 * (spec.count + spec.size_histogram)
        assert _unproven_accesses(program.insns) == map_value_accesses
        assert source.count(_CHAIN_HEAD) == map_value_accesses
        # A record's perf_event_output is a proven site: the stack slice
        # goes straight to the map, behind the map-type check.
        assert source.count("is _PEA") == spec.record
        assert source.count("bytes(_stk[488:512])") == spec.record
        # ...and every shape agrees with the interpreter on a hit and a miss.
        program.shadow = True
        program.load()
        env = ExecutionEnv(maps=maps, clock=lambda: 999, prandom_u32=lambda: 0)
        for port in (4000, 5000):
            packet = make_udp_packet(MAC_A, MAC_B, IPv4Address("1.1.1.1"),
                                     IPv4Address("2.2.2.2"), 1, port, b"data!")
            ctx, data = build_skb_context(packet)
            program.run(env, ctx, data)

    def _both_tiers(self, insns, ctx):
        outcomes = []
        for precompile in (True, False):
            program = BPFProgram(list(insns), name="typed", precompile=precompile)
            program.load()
            try:
                outcomes.append(program.run(ExecutionEnv(), bytearray(ctx)).r0)
            except MemoryFault as fault:
                outcomes.append(type(fault))
        return outcomes

    def test_join_of_pointer_and_scalar_keeps_the_chain_and_agrees(self):
        asm = Assembler()
        asm.ldx_w(R3, R1, 0)
        asm.mov_reg(R2, R1)
        asm.jeq_imm(R3, 0, "use")
        asm.mov_imm(R2, 64)
        asm.label("use")
        asm.ldx_w(R0, R2, 8)
        asm.exit_()
        insns = asm.assemble()
        assert compile_program(insns).source.count(_CHAIN_HEAD) == 1
        pointer = bytearray(64)
        pointer[8:12] = (0xC0FFEE).to_bytes(4, "little")
        assert self._both_tiers(insns, pointer) == [0xC0FFEE, 0xC0FFEE]
        scalar = bytearray(64)
        scalar[0] = 1  # R2 = 64: address 72 hits no region
        assert self._both_tiers(insns, scalar) == [MemoryFault, MemoryFault]

    def test_unprovable_frame_pointer_still_faults_at_run_time(self):
        # fp + a register the verifier cannot see: accepted, chained,
        # and faulting on both tiers when it lands outside the frame.
        asm = Assembler()
        asm.ldx_w(R3, R1, 0)
        asm.mov_reg(R2, R10)
        asm.add_reg(R2, R3)
        asm.ldx_dw(R0, R2, 0)
        asm.exit_()
        insns = asm.assemble()
        assert compile_program(insns).source.count(_CHAIN_HEAD) == 1
        assert self._both_tiers(insns, bytearray(64)) == [MemoryFault, MemoryFault]

    def test_frame_pointer_copy_compiles_to_one_indexed_access(self):
        asm = Assembler()
        asm.mov_reg(R2, R10)
        asm.add_imm(R2, -16)
        asm.st_imm(8, R2, 8, 0x1234)
        asm.ldx_dw(R0, R10, -8)
        asm.exit_()
        insns = asm.assemble()
        source = compile_program(insns).source
        assert "_p8(_stk, 504, 4660)" in source and _CHAIN_HEAD not in source
        assert self._both_tiers(insns, bytearray(64)) == [0x1234, 0x1234]

    def test_short_context_faults_at_entry(self):
        # Folded context accesses rest on the 56-byte context the
        # verifier assumed; the compiled tier checks that once.
        asm = Assembler()
        asm.ldx_w(R0, R1, 0)
        asm.exit_()
        program = BPFProgram(asm.assemble(), name="short")
        program.load()
        with pytest.raises(MemoryFault, match="shorter than the 56"):
            program.run(ExecutionEnv(), bytearray(8))

    def test_unproven_perf_site_takes_the_generic_helper(self):
        """A record size the verifier cannot see keeps the helper call
        -- same record, same oversize error."""
        perf = PerfEventArray(num_cpus=2)
        asm = Assembler()
        asm.st_imm(8, R10, -8, 0x1122)
        asm.ldx_w(R5, R1, 0)  # size from the context: unknown
        asm.ld_map_fd(R2, perf.fd)
        asm.mov_imm(R3, 1)
        asm.mov_reg(R4, R10)
        asm.add_imm(R4, -8)
        asm.call(HELPER_PERF_EVENT_OUTPUT)
        asm.exit_()
        insns = asm.assemble()
        assert "is _PEA" not in compile_program(insns).source
        program = BPFProgram(insns, maps={perf.fd: perf}, name="unproven", shadow=True)
        program.load()
        env = ExecutionEnv(maps={perf.fd: perf})
        ctx = bytearray(64)
        ctx[0] = 8
        program.run(env, ctx)
        assert perf.pending == [(1, (0x1122).to_bytes(8, "little"))]
        ctx[0:4] = (5000).to_bytes(4, "little")
        with pytest.raises(ExecutionError, match="too large"):
            program.run(env, ctx)

    def test_proven_perf_site_keeps_the_map_type_check(self):
        """The fd table is the environment's: a proven site whose fd
        names a non-perf map (or nothing) still gets the helper's error."""
        perf = PerfEventArray(num_cpus=2)
        asm = Assembler()
        asm.st_imm(8, R10, -8, 7)
        asm.mov_imm(R1, 0)
        asm.ld_map_fd(R2, perf.fd)
        asm.mov_imm(R3, 0)
        asm.mov_reg(R4, R10)
        asm.add_imm(R4, -8)
        asm.mov_imm(R5, 8)
        asm.call(HELPER_PERF_EVENT_OUTPUT)
        asm.exit_()
        insns = asm.assemble()
        assert "is _PEA" in compile_program(insns).source
        program = BPFProgram(insns, maps={perf.fd: perf}, name="proven")
        program.load()
        program.run(ExecutionEnv(maps={perf.fd: perf}), bytearray(64))
        assert perf.events_emitted == 1 and perf.pending == [(0, (7).to_bytes(8, "little"))]
        with pytest.raises(ExecutionError, match="non-perf map"):
            program.run(ExecutionEnv(maps={perf.fd: HashMap(4, 8, 4)}), bytearray(64))
        with pytest.raises(ExecutionError, match="no valid map pointer"):
            program.run(ExecutionEnv(), bytearray(64))
