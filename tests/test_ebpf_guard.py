"""The program's one entry: ``fire`` and ``run`` call the same
translation, which builds the stack and the VM state only where a run
first needs them.

A fire must do what ``run`` and the interpreter do -- same r0, cost,
instructions, outcome entry, maps and perf output -- and a run that
exits among the blocks of the program's pure prefix (ALU ops,
whole-field context loads, jumps) builds neither a stack nor a state.
"""

import contextlib

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.ebpf import context as ctxmod
from repro.ebpf.assembler import Assembler
from repro.ebpf.context import FIELDS, PacketImage, skb_fields
from repro.ebpf.helpers import HELPER_GET_PRANDOM_U32
from repro.ebpf.inspect import dump_program
from repro.ebpf.isa import R0, R1, R2, R6, R10
from repro.ebpf.maps import HashMap, PerfEventArray
from repro.ebpf.memory import MemoryFault
from repro.ebpf.probes import EBPFAttachment, ProbeEvent
from repro.ebpf.verifier import VerifierError
from repro.ebpf.vm import BPFProgram, ExecutionEnv
from repro.net.addressing import IPv4Address, MACAddress
from repro.net.packet import Packet, TCPOPT_TRACE_ID, make_tcp_packet, make_udp_packet
from tests.test_ebpf_probes import PACKET_SHAPES
from tests.test_ebpf_jit import (
    _HASH_TAG,
    _PERF_TAG,
    _STEP,
    _deterministic_env,
    _emit_subset_steps,
    _rebind_map_fds,
    random_inits,
)

MAC_A, MAC_B = MACAddress.from_index(1), MACAddress.from_index(2)
IP_A, IP_B = IPv4Address("10.0.0.1"), IPv4Address("10.0.0.2")

# Values the filters compare against; fields are drawn from them too,
# so generated filters both hit and miss.
_POOL = (0, 1, 6, 17, 4789, 5001, 0xFFFF)

_FILTER_STEP = st.one_of(
    # rN = one whole context field
    st.tuples(st.just("field"), st.integers(0, len(FIELDS) - 1), st.integers(0, 5), st.just(0)),
    # rN = the low byte of a field: not a whole field, so the prefix stops here
    st.tuples(st.just("partial"), st.integers(0, len(FIELDS) - 1), st.integers(0, 5), st.just(0)),
    st.tuples(
        st.just("alu"),
        st.sampled_from(("add", "sub", "and", "or", "lsh", "rsh", "mul")),
        st.integers(0, 5),
        st.sampled_from(_POOL),
    ),
    # if rN <op> imm: exit with miss code k
    st.tuples(
        st.just("miss"),
        st.sampled_from(("jeq", "jne", "jgt", "jlt", "jset")),
        st.integers(0, 5),
        st.tuples(st.sampled_from(_POOL), st.integers(0, 2)),
    ),
)

field_tuples = st.tuples(
    *(
        st.one_of(st.sampled_from(_POOL), st.integers(0, (1 << (8 * size)) - 1)).map(
            lambda value, size=size: value & ((1 << (8 * size)) - 1)
        )
        for _name, _offset, size in FIELDS
    )
)


def _assemble_filtered(inits, prefix, steps, tail=()):
    """``mov r6, r1``, the registers, a filter prefix whose misses exit
    with codes 100 + k, then the whole-subset steps, whose branches jump
    to the ``tail`` steps, and ``exit``."""
    asm = Assembler()
    asm.mov_reg(R6, R1)
    for reg, value in enumerate(inits):
        asm.mov_imm(reg, value)
    used = set()
    for kind, what, reg, arg in prefix:
        if kind in ("field", "partial"):
            _name, offset, size = FIELDS[what]
            if kind == "partial":
                size, offset = 1, offset + (size > 1)
            getattr(asm, {1: "ldx_b", 2: "ldx_h", 4: "ldx_w", 8: "ldx_dw"}[size])(reg, R6, offset)
        elif kind == "alu":
            getattr(asm, f"{what}_imm")(reg, arg % 64 if what in ("lsh", "rsh") else arg)
        else:
            imm, code = arg
            getattr(asm, f"{what}_imm")(reg, imm, f"miss{code}")
            used.add(code)
    _emit_subset_steps(asm, steps, _HASH_TAG, _PERF_TAG)
    asm.ja("end")
    asm.label("end")
    _emit_subset_steps(asm, tail, _HASH_TAG, _PERF_TAG)
    asm.exit_()
    for code in sorted(used):
        asm.label(f"miss{code}")
        asm.mov_imm(R0, 100 + code)
        asm.exit_()
    return asm.assemble()


def _prefix(program):
    """The block numbers the program's prefix note lists."""
    note = program._unit.prefix
    if note.startswith("none"):
        return set()
    return {int(n) for n in note.split(";")[0][len("blocks "):].split(", ")}


@contextlib.contextmanager
def _constructions(program):
    """Counts the stacks and VM states the compiled entry builds while
    the block lasts: ``{"stack": n, "state": n}``."""
    namespace = program._native.__globals__
    built = {"stack": 0, "state": 0}

    def counting(name, make):
        def build(*args):
            built[name] += 1
            return make(*args)

        return build

    with pytest.MonkeyPatch.context() as patch:
        patch.setitem(namespace, "_B", counting("stack", namespace["_B"]))
        patch.setitem(namespace, "_VM", counting("state", namespace["_VM"]))
        yield built


def _dispatch(insns, fields, how):
    """One run of ``insns`` on fresh maps: ``fire`` is the probe's path
    (:meth:`BPFProgram.fire`), ``run`` the compiled run, ``interp`` the
    interpreter.  Returns everything observable, the outcome key, the
    program and, for a fire, what its entry built."""
    hash_map = HashMap(4, 8, 16)
    perf_map = PerfEventArray(num_cpus=2)
    insns = _rebind_map_fds(insns, hash_map.fd, perf_map.fd)
    program = BPFProgram(list(insns), name="filtered", precompile=how != "interp")
    program.load()
    env, printks = _deterministic_env({hash_map.fd: hash_map, perf_map.fd: perf_map})
    before = BPFProgram.global_runs()
    built = None
    if how == "fire":
        with _constructions(program) as built:
            r0, cost_ns = program.fire(env, fields, None)
    else:
        result = program.run(env, fields)
        r0, cost_ns = result.r0, result.cost_ns
    assert BPFProgram.global_runs() == before + 1
    (key, entry), = program._outcomes.items()
    observed = {
        "r0": r0,
        "cost_ns": cost_ns,
        "insns": program.total_insns_executed,
        "runs": program.run_count,
        "entry": (entry[0], entry[1], entry[2], dict(entry[3])),
        "maps": hash_map.state_snapshot(),
        "perf": list(perf_map.pending),
        "printk": printks,
    }
    return observed, key, program, built


class TestFireEqualsRun:
    @settings(max_examples=150, deadline=None)
    @given(
        inits=random_inits,
        prefix=st.lists(_FILTER_STEP, min_size=1, max_size=8),
        steps=st.lists(_STEP, max_size=8),
        # steps after the join of every branch: no branch of their own
        tail=st.lists(_STEP.filter(lambda step: step[0] != "branch"), max_size=3),
        fields=field_tuples,
    )
    # A filter that misses on the first field: pure blocks only.
    @example(
        inits=[0] * 6,
        prefix=[("field", 7, 2, 0), ("miss", "jne", 2, (5001, 0))],
        steps=[("call", "perf", 0, 0)],
        tail=[],
        fields=(0,) * 13,
    )
    # A helper after a proven perf output, whose fallback alone may
    # have built the state: the helper must build it.
    @example(
        inits=[0] * 6,
        prefix=[("field", 7, 2, 0), ("miss", "jne", 2, (5001, 0))],
        steps=[("call", "perf", 0, 0), ("call", "lookup", 0, 0)],
        tail=[],
        fields=(0,) * 7 + (5001,) + (0,) * 5,
    )
    # A join of a path with the state and a path without it (the branch
    # is taken): the joined block must build it.
    @example(
        inits=[0] * 6,
        prefix=[("field", 7, 2, 0), ("miss", "jne", 2, (5001, 0))],
        steps=[("branch", "jeq", 0, 0), ("call", "lookup", 0, 0)],
        tail=[("call", "lookup", 1, 0), ("stack", "w", 1, 2)],
        fields=(0,) * 7 + (5001,) + (0,) * 5,
    )
    def test_pure_exits_build_nothing(self, inits, prefix, steps, tail, fields):
        insns = _assemble_filtered(inits, prefix, steps, tail)
        fired, path, program, built = _dispatch(insns, fields, "fire")
        run, run_path, _, _ = _dispatch(insns, fields, "run")
        interp, _key, _, _ = _dispatch(insns, fields, "interp")
        assert fired == run == interp
        assert path == run_path
        # Nothing is built twice, and a run that stays in the prefix
        # builds nothing at all.
        assert built["stack"] <= 1 and built["state"] <= 1
        blocks = {n for n in range(path.bit_length()) if path >> n & 1}
        if blocks <= _prefix(program):
            assert built == {"stack": 0, "state": 0}


def _port_filter():
    """docs/EBPF.md's ``port-filter``: r0 = dst_port == 4789."""
    asm = Assembler()
    asm.ldx_h(R2, R1, ctxmod.OFF_DST_PORT)
    asm.jne_imm(R2, 4789, "miss")
    asm.mov_imm(R0, 1)
    asm.exit_()
    asm.label("miss")
    asm.mov_imm(R0, 0)
    asm.exit_()
    return asm.assemble()


_PARTIAL = "a partial context load at insn 0"


def _udp(dst_port):
    return make_udp_packet(MAC_A, MAC_B, IP_A, IP_B, 1, dst_port, b"x")


def _fields(dst_port):
    return skb_fields(_udp(dst_port))


def _no_run(*args):
    raise AssertionError("a compiled fire calls the entry, not run()")


class TestDirectedGuards:
    def test_port_filter_settles_both_exits_without_a_run(self, monkeypatch):
        program = BPFProgram(_port_filter(), name="port-filter")
        program.load()
        assert program._unit.prefix == "blocks 0, 1, 2; fields dst_port"
        monkeypatch.setattr(program, "run", _no_run)
        env = ExecutionEnv()
        hit_fields, hit_image = _fields(4789)
        miss_fields, miss_image = _fields(9)
        cost_ns = round(4 * 0.35)  # four instructions on either path, no helper
        with _constructions(program) as built:
            assert program.fire(env, hit_fields, hit_image) == (1, cost_ns)
            assert program.fire(env, miss_fields, miss_image) == (0, cost_ns)
            assert program.fire(env, miss_fields, miss_image) == (0, cost_ns)
        assert built == {"stack": 0, "state": 0}
        assert sorted((key, entry[0]) for key, entry in program._outcomes.items()) == [
            (0b011, 1),
            (0b101, 2),
        ]
        assert program.run_count == 3 and program.total_insns_executed == 12

    def test_a_guarded_miss_bumps_the_full_runs_entry(self):
        """A fired miss and a run() of the same miss share one entry."""
        program = BPFProgram(_port_filter(), name="port-filter")
        program.load()
        miss_fields, miss_image = _fields(9)
        full = program.run(ExecutionEnv(), miss_fields, miss_image)
        assert full.regs[0] == 0 and full.regs[2] == 9  # run() still writes back
        entry = program._outcomes[0b101]
        before = BPFProgram.global_runs()
        assert program.fire(ExecutionEnv(), miss_fields, miss_image) == (0, full.cost_ns)
        assert list(program._outcomes) == [0b101] and entry[0] == 2
        assert BPFProgram.global_runs() == before + 1
        assert program.total_cost_ns == 2 * full.cost_ns

    @staticmethod
    def _fire(build):
        """The prefix note of ``build`` + a ``dst_port`` filter, and what
        a miss builds."""
        asm = Assembler()
        build(asm)
        asm.jne_imm(R2, 4789, "miss")
        asm.mov_imm(R0, 1)
        asm.exit_()
        asm.label("miss")
        asm.mov_imm(R0, 0)
        asm.exit_()
        program = BPFProgram(asm.assemble(), name="p")
        program.load()
        fields, image = _fields(9)
        with _constructions(program) as built:
            assert program.fire(ExecutionEnv(), fields, image)[0] == 0
        return program._unit.prefix, built

    @pytest.mark.parametrize(
        "build, why, built",
        [
            # the low byte of dst_port, and two bytes of padding: the
            # context read as memory needs the state
            (lambda asm: asm.ldx_b(R2, R1, ctxmod.OFF_DST_PORT), _PARTIAL, (1, 1)),
            (lambda asm: asm.ldx_h(R2, R1, ctxmod.OFF_PROTOCOL + 2), _PARTIAL, (1, 1)),
            (
                # an environment-only helper reads neither
                lambda asm: (
                    asm.mov_reg(R6, R1),
                    asm.call(HELPER_GET_PRANDOM_U32),
                    asm.ldx_h(R2, R6, ctxmod.OFF_DST_PORT),
                ),
                "a call to get_prandom_u32 at insn 1",
                (0, 0),
            ),
            (
                # a frame store needs the stack alone
                lambda asm: (asm.st_imm(4, R10, -8, 7), asm.ldx_h(R2, R1, ctxmod.OFF_DST_PORT)),
                "a store at insn 0",
                (1, 0),
            ),
        ],
        ids=["partial-field", "padding", "helper", "store"],
    )
    def test_a_side_effect_or_partial_read_before_the_filter_gets_no_guard(
        self, build, why, built
    ):
        """Block 0 is not pure: no prefix, and a miss builds what its
        first instructions need and nothing more."""
        note, counted = self._fire(build)
        assert note == f"none (block 0 has {why})"
        assert (counted["stack"], counted["state"]) == built

    def test_packet_loads_past_the_prefix_build_nothing(self, monkeypatch):
        """A proven packet load reads the region without a state; only
        its out-of-bounds fallback builds one (and faults)."""
        asm = Assembler()
        asm.ldx_dw(R2, R1, ctxmod.OFF_DATA)
        asm.jeq_imm(R2, 0, "other")
        asm.ldx_b(R0, R2, 0)
        asm.exit_()
        asm.label("other")
        asm.ldx_b(R0, R2, 1)
        asm.exit_()
        program = BPFProgram(asm.assemble(), name="p")
        program.load()
        assert program._unit.prefix == "blocks 0; fields data"
        monkeypatch.setattr(program, "run", _no_run)
        fields, image = _fields(9)
        with _constructions(program) as built:
            assert program.fire(ExecutionEnv(), fields, image)[0] == image.load(0, 1)
        assert built == {"stack": 0, "state": 0}
        with _constructions(program) as built:
            with pytest.raises(MemoryFault):
                program.fire(ExecutionEnv(), fields, PacketImage(_udp(9), 0, b"", 0))
        assert built == {"stack": 1, "state": 1}

    def test_a_straight_path_builds_each_at_one_site(self):
        """Once every path has the state, the stack it holds is never
        checked for again, and neither is the state."""
        asm = Assembler()
        asm.ldx_b(R2, R1, ctxmod.OFF_DST_PORT)  # the context as memory: the state
        asm.st_imm(4, R10, -8, 7)  # a frame store: the stack, already built
        asm.ldx_b(R0, R1, ctxmod.OFF_DST_PORT + 1)
        asm.exit_()
        program = BPFProgram(asm.assemble(), name="p")
        program.load()
        source = program._unit.source
        assert source.count("_B(512)") == 1 and source.count("_VM(") == 1

    @pytest.mark.parametrize("tier", [{"precompile": False}, {"shadow": True}])
    def test_interpreter_and_shadow_run_every_fire(self, tier, monkeypatch):
        program = BPFProgram(_port_filter(), name="port-filter", **tier)
        program.load()
        runs = []
        original = BPFProgram.run

        def counting(self, *args):
            runs.append(args)
            return original(self, *args)

        monkeypatch.setattr(BPFProgram, "run", counting)
        for port in (4789, 9):
            fields, image = _fields(port)
            program.fire(ExecutionEnv(), fields, image)
        assert len(runs) == 2 and program.run_count == 2

    def test_a_script_hit_builds_a_stack_and_no_state(self, monkeypatch):
        """A compiler script's record: the filter once, the stack for
        the record, the proven perf output, no state and no run()."""
        from repro.core import ActionSpec, FilterRule, TracepointSpec
        from repro.core.compiler import compile_script
        from repro.net.packet import IPPROTO_UDP

        perf = PerfEventArray(num_cpus=2)
        program, maps = compile_script(
            FilterRule(dst_port=4789, protocol=IPPROTO_UDP),
            TracepointSpec(node="n", hook="dev:x"),
            ActionSpec(record=True),
            perf_map=perf,
        )
        program.load()
        monkeypatch.setattr(program, "run", _no_run)
        with _constructions(program) as built:
            for port in (4789, 9):
                fields, image = _fields(port)
                program.fire(ExecutionEnv(maps=maps), fields, image)
        assert built == {"stack": 1, "state": 0}
        assert perf.events_emitted == 1 and program.run_count == 2

    def test_dump_names_the_prefix(self):
        program = BPFProgram(_port_filter(), name="port-filter")
        assert "prefix: blocks 0, 1, 2; fields dst_port" in dump_program(program)
        program = BPFProgram(_port_filter(), name="port-filter", precompile=False)
        assert "prefix: none (interpreter tier)" in dump_program(program)
        program = BPFProgram(_port_filter(), name="port-filter", shadow=True)
        assert "prefix: none (shadow mode)" in dump_program(program)


class TestLazyContext:
    """A hit packs the 56 context bytes only for what reads them as memory."""

    @staticmethod
    def _packs(monkeypatch):
        from repro.ebpf import vm

        packed = []
        original = vm.pack_context

        def counting(fields):
            packed.append(fields)
            return original(fields)

        monkeypatch.setattr(vm, "pack_context", counting)
        return packed

    def test_whole_field_hit_never_packs(self, monkeypatch):
        packed = self._packs(monkeypatch)
        asm = Assembler()
        asm.ldx_h(R2, R1, ctxmod.OFF_DST_PORT)
        asm.jne_imm(R2, 4789, "miss")
        asm.st_imm(4, R10, -8, 1)  # a side effect: the hit is a full run
        asm.ldx_w(R0, R1, ctxmod.OFF_LEN)
        asm.exit_()
        asm.label("miss")
        asm.mov_imm(R0, 0)
        asm.exit_()
        program = BPFProgram(asm.assemble(), name="p")
        program.load()
        fields, image = _fields(4789)
        assert program.fire(ExecutionEnv(), fields, image)[0] == len(image)
        assert packed == []

    def test_partial_load_packs_once_and_reads_the_bytes(self, monkeypatch):
        packed = self._packs(monkeypatch)
        asm = Assembler()
        asm.ldx_b(R2, R1, ctxmod.OFF_DST_PORT + 1)  # the high byte
        asm.ldx_b(R0, R1, ctxmod.OFF_DST_PORT)
        asm.lsh_imm(R2, 8)
        asm.add_reg(R0, R2)
        asm.exit_()
        program = BPFProgram(asm.assemble(), name="p")
        program.load()
        fields, image = _fields(4789)
        assert program.fire(ExecutionEnv(), fields, image)[0] == 4789
        assert len(packed) == 1

    def test_a_store_into_the_context_is_rejected(self):
        """The context is read-only, so the field tuple a whole-field
        load reads is the context for the whole run."""
        asm = Assembler()
        asm.mov_reg(R2, R1)
        asm.st_imm(2, R2, ctxmod.OFF_DST_PORT, 77)
        asm.ldx_h(R0, R1, ctxmod.OFF_DST_PORT)
        asm.exit_()
        for tier in ({}, {"precompile": False}, {"shadow": True}):
            program = BPFProgram(asm.assemble(), name="p", **tier)
            with pytest.raises(VerifierError, match=r"store at ctx\+26 size 2 into the read-only"):
                program.load()


class TestHeaderMemo:
    """The second load in one header reuses its serialisation; a built
    image still wins over it."""

    @staticmethod
    def _tcp():
        option = b"\x01\x01" + bytes([TCPOPT_TRACE_ID, 6]) + (0xA97B5A48).to_bytes(4, "big")
        return make_tcp_packet(MAC_A, MAC_B, IP_A, IP_B, 1234, 5678, b"segment!", options=option)

    def test_two_loads_in_one_header_find_it_once(self, monkeypatch):
        calls = []
        original = Packet.wire_header

        def counting(packet, *args):
            calls.append(args)
            return original(packet, *args)

        monkeypatch.setattr(Packet, "wire_header", counting)
        packet = self._tcp()
        image = packet.to_bytes()
        _fields, data = skb_fields(packet)
        option_kind = len(image) - len(b"segment!") - 6
        assert data.load(option_kind, 1) == TCPOPT_TRACE_ID
        assert data.load(option_kind + 2, 4) == int.from_bytes(
            image[option_kind + 2 : option_kind + 6], "little"
        )
        assert len(calls) == 1
        data.load(0, 2)  # the Ethernet header: another header, serialised
        assert len(calls) == 2

    @pytest.mark.parametrize("shape", list(PACKET_SHAPES))
    def test_one_view_serves_every_load_in_turn(self, shape):
        """The memo's bounds: loads of every offset and size, one after
        another on one view, read exactly ``to_bytes()``."""
        packet = PACKET_SHAPES[shape]()
        image = packet.to_bytes()
        _fields, data = skb_fields(packet)
        for size in (1, 2, 4, 8):
            for offset in range(len(image) - size + 1):
                assert data.load(offset, size) == int.from_bytes(
                    image[offset : offset + size], "little"
                ), (shape, offset, size)

    def test_a_store_between_two_loads_of_one_header_is_seen(self):
        packet = self._tcp()
        _fields, data = skb_fields(packet)
        assert isinstance(data, PacketImage)
        ttl_at = 14 + 8
        before = data.load(ttl_at, 1)
        data.materialise()[ttl_at] = before ^ 0xFF  # what a store does
        assert data.load(ttl_at, 1) == before ^ 0xFF
        assert data.load(ttl_at + 1, 1) == packet.to_bytes()[ttl_at + 1]

    def test_the_compiled_tier_sees_its_own_store(self):
        asm = Assembler()
        asm.ldx_dw(R2, R1, ctxmod.OFF_DATA)
        asm.ldx_b(R0, R2, 14 + 8)  # TTL: serialises the IPv4 header alone
        asm.st_imm(1, R2, 14 + 8, 3)  # ... then a store builds the image
        asm.ldx_b(R0, R2, 14 + 8)
        asm.exit_()
        program = BPFProgram(asm.assemble(), name="p")
        program.load()
        fields, image = skb_fields(self._tcp())
        assert program.run(ExecutionEnv(), fields, image).r0 == 3


def test_attachment_counts_guarded_and_full_fires_alike():
    """An EBPFAttachment on a probe path: matched counts and costs are
    the same whether a fire calls the compiled entry alone or goes
    through shadow mode's run()."""
    program = BPFProgram(_port_filter(), name="port-filter")
    program.load()
    shadowed = BPFProgram(_port_filter(), name="port-filter", shadow=True)
    shadowed.load()
    costs = []
    for prog in (program, shadowed):
        attachment = EBPFAttachment(prog, ExecutionEnv())
        packets = [_udp(port) for port in (4789, 9, 4789)]
        costs.append([attachment.handle(ProbeEvent("h", packet)) for packet in packets])
        assert attachment.events_matched == 2
    assert costs[0] == costs[1]
    assert program._outcomes.keys() == shadowed._outcomes.keys()
