"""Every small program over a fixed alphabet, exhaustively.

In the spirit of exhaustive model exploration: rather than sample
programs, enumerate every one of up to :data:`MAX_LENGTH` instructions
over :data:`ALPHABET` and check, for each program the verifier accepts,

(a) the interpreter's result does not depend on the value of a register
    the program never wrote (two fills of the unset registers);
(b) no access through a pointer the verifier proved faults;
(c) ``fire`` = ``run()`` = the interpreter: same r0, cost and
    instructions, or the same fault;
(d) no store goes through a proven context pointer -- the verifier
    rejects every one (the context is read-only).

A program must end in ``exit``: one that ends in anything else falls
off the end or jumps out of it, which :func:`test_a_program_not_ending_in_exit_is_rejected`
checks over every such program of up to three instructions.  So the
enumeration is every program of 1..MAX_LENGTH instructions whose last
one is ``exit``.
"""

import itertools

import pytest

from repro.ebpf import context as ctxmod, isa
from repro.ebpf.context import skb_fields
from repro.ebpf.isa import Instruction, R0, R1, R2, R3, R10
from repro.ebpf.memory import CTX_REGION_BASE, MemoryFault, STACK_REGION_BASE
from repro.ebpf.verifier import VerifierError, verify
from repro.ebpf.vm import BPFProgram, ExecutionEnv, VMState, clear_program_cache
from repro.net.addressing import IPv4Address, MACAddress
from repro.net.packet import make_udp_packet


def _alu(cls, op, dst, src=None, imm=0):
    source = isa.BPF_K if src is None else isa.BPF_X
    return Instruction(cls | op | source, dst=dst, src=src or 0, imm=imm)


def _mem(cls, size, dst, src, offset, imm=0):
    return Instruction(cls | isa.BPF_MEM | size, dst=dst, src=src, offset=offset, imm=imm)


EXIT = Instruction(isa.BPF_JMP | isa.BPF_EXIT)

# Registers r0-r3 and r10.  r2 is the pointer register: copies of r1 /
# r10, moved by constants and by a loaded value.
ALPHABET = (
    # 64-bit class: mov (copies), add / sub (offsets, and pointer + value)
    _alu(isa.BPF_ALU64, isa.BPF_MOV, R2, R1),
    _alu(isa.BPF_ALU64, isa.BPF_MOV, R2, R10),
    _alu(isa.BPF_ALU64, isa.BPF_MOV, R0, R3),
    _alu(isa.BPF_ALU64, isa.BPF_MOV, R0, imm=1),
    _alu(isa.BPF_ALU64, isa.BPF_ADD, R2, imm=24),
    _alu(isa.BPF_ALU64, isa.BPF_SUB, R2, imm=8),
    _alu(isa.BPF_ALU64, isa.BPF_ADD, R2, R0),
    # 32-bit class, neg, end
    _alu(isa.BPF_ALU, isa.BPF_ADD, R0, R2),
    _alu(isa.BPF_ALU64, isa.BPF_NEG, R0),
    Instruction(isa.BPF_ALU | isa.BPF_END | isa.BPF_X, dst=R0, imm=16),
    # loads: a whole field, a partial one, through r2, from the frame
    _mem(isa.BPF_LDX, isa.BPF_W, R0, R1, ctxmod.OFF_LEN),
    _mem(isa.BPF_LDX, isa.BPF_B, R3, R1, ctxmod.OFF_DST_PORT),
    _mem(isa.BPF_LDX, isa.BPF_DW, R0, R2, 0),
    _mem(isa.BPF_LDX, isa.BPF_DW, R3, R10, -8),
    # stores: to the frame, through r2, into the context
    _mem(isa.BPF_STX, isa.BPF_DW, R10, R0, -8),
    _mem(isa.BPF_STX, isa.BPF_DW, R2, R0, -8),
    _mem(isa.BPF_ST, isa.BPF_W, R1, 0, ctxmod.OFF_IFINDEX, imm=1),
    # jumps
    Instruction(isa.BPF_JMP | isa.BPF_JA, offset=1),
    Instruction(isa.BPF_JMP | isa.BPF_JEQ | isa.BPF_X, dst=R0, src=R3, offset=1),
    EXIT,
)
MAX_LENGTH = 5
# sum(20 ** (n - 1) for n in 1..5): what the enumeration covers.
ENUMERATED = 168_421

# A 44-byte UDP packet: len = 44 puts ``r2 = r1 + len; *(r2 - 8) = ..``
# inside the context (an unproven store that must fault), and the low
# byte of dst_port is 16.
PACKET = make_udp_packet(
    MACAddress.from_index(1), MACAddress.from_index(2),
    IPv4Address("10.0.0.1"), IPv4Address("10.0.0.2"), 1, 0x1010, b"xy",
)
FILLS = (0, 0x5A5A5A5AA5A5A5A5)


@pytest.fixture(autouse=True)
def _fresh_program_cache():
    yield
    clear_program_cache()  # the enumeration churns the shared cache


def _programs():
    for length in range(1, MAX_LENGTH + 1):
        for body in itertools.product(ALPHABET, repeat=length - 1):
            yield list(body) + [EXIT]


def _pointer(insn, types):
    """The verifier's type for the pointer an access goes through."""
    return types[insn.src if insn.insn_class == isa.BPF_LDX else insn.dst]


def _faulting_pc(fault):
    """The instruction the interpreter was running when it faulted."""
    tb = fault.__traceback__
    while tb is not None:
        if tb.tb_frame.f_code.co_name == "_execute":
            pc = tb.tb_frame.f_locals["pc"]
        tb = tb.tb_next
    return pc


def _outcome(call):
    """``call()``, or ``(MemoryFault, message)`` if it faulted."""
    try:
        return call()
    except MemoryFault as fault:
        return MemoryFault, str(fault)


def _interpret(program, fill):
    """The interpreter with every register but r1 / r10 set to ``fill``:
    ``(r0, instructions, stack)``, or the fault and where it happened."""
    stack = bytearray(isa.STACK_SIZE)
    fields, image = skb_fields(PACKET)
    state = VMState(stack, fields, image, ExecutionEnv())
    state.helper_calls, state.helper_cost_ns = {}, 0
    regs = state.regs = [fill] * isa.NUM_REGS
    regs[R1] = CTX_REGION_BASE
    regs[R10] = STACK_REGION_BASE + isa.STACK_SIZE
    try:
        executed = program._execute(state)
    except MemoryFault as fault:
        return MemoryFault, str(fault), _faulting_pc(fault)
    return regs[R0], executed, bytes(stack)


def _check(insns, analysis):
    # (d) no store through a proven context pointer was accepted
    for index, types in analysis.reg_types.items():
        insn = insns[index]
        if insn.insn_class in (isa.BPF_ST, isa.BPF_STX):
            pointer = _pointer(insn, types)
            assert pointer is None or pointer[0] != "ctx", index

    interpreter = BPFProgram(insns, name="oracle", precompile=False)
    interpreter.load()
    # (a) the result does not depend on what an unwritten register held
    results = [_interpret(interpreter, fill) for fill in FILLS]
    assert results[0] == results[1]
    if results[0][0] is MemoryFault:
        # (b) only an access the verifier could not type faults
        pc = results[0][2]
        pointer = _pointer(insns[pc], analysis.reg_types[pc])
        assert pointer is None or pointer[0] == "pkt", (pc, pointer)

    # (c) fire = run() = the interpreter
    compiled = BPFProgram(insns, name="compiled")
    compiled.load()
    fired = _outcome(lambda: compiled.fire(ExecutionEnv(), *skb_fields(PACKET)))
    if fired[0] is not MemoryFault:
        (entry,) = compiled._outcomes.values()
        fired = (*fired, entry[1])
    ran = _outcome(lambda: compiled.run(ExecutionEnv(), *skb_fields(PACKET))[:3])
    oracle = _outcome(lambda: interpreter.run(ExecutionEnv(), *skb_fields(PACKET))[:3])
    assert fired == ran == oracle
    assert len(compiled._outcomes) <= 1  # fire and run took one path
    if oracle[0] is not MemoryFault:
        assert oracle[0] == results[0][0] and oracle[2] == results[0][1]
    return oracle[0] is MemoryFault


def test_every_small_program():
    enumerated = accepted = faulted = 0
    rejected_stores = 0
    for insns in _programs():
        enumerated += 1
        try:
            analysis = verify(insns)
        except VerifierError as error:
            rejected_stores += "read-only context" in str(error)
            continue
        accepted += 1
        try:
            faulted += _check(insns, analysis)
        except AssertionError as failure:
            listing = isa.disassemble(insns)
            raise AssertionError(f"counterexample:\n{listing}\n{failure}") from failure
    assert enumerated == ENUMERATED
    # The alphabet reaches every kind of outcome.
    assert accepted > 5000 and faulted > 0 and rejected_stores > 0, (accepted, faulted)


@pytest.mark.parametrize("length", [1, 2, 3])
def test_a_program_not_ending_in_exit_is_rejected(length):
    for insns in itertools.product(ALPHABET, repeat=length):
        if insns[-1] != EXIT:
            with pytest.raises(VerifierError):
                verify(list(insns))
