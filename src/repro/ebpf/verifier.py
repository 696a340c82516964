"""Static verifier for eBPF programs.

Programs must pass verification before they can be attached -- the same
contract the kernel enforces.  Checks implemented (matching the
verifier of the paper-era kernels at the level our programs exercise):

* program size: 1 .. 4096 instructions (§II "Limitation");
* every opcode decodes to a known instruction;
* register numbers in range; no writes to the frame pointer R10;
* LD_IMM64 occupies two slots, the second slot is the zero pseudo
  instruction, and no jump lands in the middle;
* all jumps stay in bounds and go *forward* (DAG control flow: loops
  were rejected until kernel 5.3, after the paper);
* no unreachable instructions;
* the final instruction of every path is EXIT (checked via fallthrough
  off the end being impossible);
* constant division/modulo by zero is rejected;
* only known helper IDs may be CALLed, with their argument registers
  proven initialized; R1-R5 are clobbered by calls, R0 holds the result;
* reads of never-written registers are rejected via a dataflow pass
  (merge = intersection over predecessors; entry state = {R1, R10});
* ``end`` (byteswap) is 32-bit class only, with ``imm`` 16, 32 or 64
  and zero ``src`` / ``offset`` ("BPF_END uses reserved fields");
* the same pass tracks register *types* (:data:`RegType`: context or
  frame pointer plus a constant, packet pointer, map pointer, constant
  scalar, or unknown; merge = equal or unknown), and a load or store
  through a proven context / frame pointer must fall inside the
  56-byte context / the 512-byte frame;
* the context is read-only: a store through a proven context pointer
  is rejected, as the kernel's ``is_valid_access`` refuses every
  ``BPF_WRITE`` to a kprobe or tracepoint context (a store that
  reaches it through an unproven pointer faults at run time).
"""

from __future__ import annotations

from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple

from repro.ebpf import isa
from repro.ebpf.context import CTX_SIZE, OFF_DATA, OFF_DATA_END
from repro.ebpf.helpers import HELPERS
from repro.ebpf.isa import Instruction

# Registers a helper call consumes, per helper id (R1..Rn must be init).
HELPER_ARG_COUNTS = {helper_id: info.argc for helper_id, info in HELPERS.items()}

_CALLER_SAVED = (isa.R1, isa.R2, isa.R3, isa.R4, isa.R5)

_VALID_ALU_OPS = frozenset(isa.ALU_OP_NAMES)
_VALID_JMP_OPS = frozenset(isa.JMP_OP_NAMES)


class VerifierError(ValueError):
    """The program was rejected; the message pinpoints the instruction."""


# What the dataflow pass knows about one register's value: ``(kind,
# n)``, or ``None`` for unknown.
#
# ``("ctx", k)`` / ``("fp", k)``
#     exactly R1-at-entry + k / R10 + k (k signed, wrapped to 64 bits)
#     -- a proof: accesses through it are bounds-checked at load;
# ``("const", v)``
#     the scalar ``v`` (unsigned 64-bit) -- a proof;
# ``("map", i)``
#     the map pointer loaded by the LD_IMM64 at instruction ``i`` -- a
#     proof;
# ``("pkt", 0)``
#     loaded from ``ctx->data`` / ``ctx->data_end``, plus or minus
#     anything -- only a hint (nothing bounds the offset), so accesses
#     through it stay checked at run time.
RegType = Optional[Tuple[str, int]]

_ENTRY_TYPES: Tuple[RegType, ...] = tuple(
    ("ctx", 0) if reg == isa.R1 else ("fp", 0) if reg == isa.R10 else None
    for reg in range(isa.NUM_REGS)
)


class VerifierAnalysis(NamedTuple):
    """Facts proven during verification, reused by the JIT tier.

    :func:`verify` returns this so :func:`repro.ebpf.jit.compile_program`
    does not re-derive program structure it already validated: jump
    targets seed the basic-block leaders, LD_IMM64 second slots are
    skipped during translation, map-load positions drive per-load map
    pointer binding, helper sites pre-resolve host helper functions, and
    the register types on entry to every load, store and call let it
    fold proven pointers into direct buffer accesses.
    Existing callers that only want the pass/fail answer can ignore it.
    """

    insn_count: int
    jump_targets: Tuple[int, ...]
    ld64_second_slots: Tuple[int, ...]
    map_load_positions: Tuple[int, ...]
    helper_sites: Tuple[Tuple[int, int], ...]  # (insn index, helper id)
    # insn index of each LDX / ST / STX / CALL -> the eleven RegTypes on
    # entry to it
    reg_types: Dict[int, Tuple[RegType, ...]]


def _bit(reg: int) -> int:
    return 1 << reg


_ENTRY_STATE = _bit(isa.R1) | _bit(isa.R10)
_ALL_REGS = (1 << isa.NUM_REGS) - 1
_U64 = 0xFFFFFFFFFFFFFFFF
_U32 = 0xFFFFFFFF


def verify(program: Sequence[Instruction]) -> VerifierAnalysis:
    """Raise :class:`VerifierError` unless ``program`` is acceptable.

    Returns a :class:`VerifierAnalysis` of the accepted program.
    """
    insns = list(program)
    if not insns:
        raise VerifierError("empty program")
    if len(insns) > isa.MAX_INSNS:
        raise VerifierError(f"program too large: {len(insns)} > {isa.MAX_INSNS} instructions")

    ld64_first_slots = set()
    ld64_second_slots = set()
    map_load_positions = []
    index = 0
    while index < len(insns):
        insn = insns[index]
        if insn.insn_class == isa.BPF_LD:
            if (insn.opcode & isa.MODE_MASK) != isa.BPF_IMM or (
                insn.opcode & isa.SIZE_MASK
            ) != isa.BPF_DW:
                raise VerifierError(f"insn {index}: unsupported BPF_LD form")
            if index + 1 >= len(insns):
                raise VerifierError(f"insn {index}: LD_IMM64 missing second slot")
            second = insns[index + 1]
            if second.opcode != 0 or second.dst != 0 or second.src != 0 or second.offset != 0:
                raise VerifierError(f"insn {index}: malformed LD_IMM64 second slot")
            if insn.src == isa.BPF_PSEUDO_MAP_FD:
                map_load_positions.append(index)
            ld64_first_slots.add(index)
            ld64_second_slots.add(index + 1)
            index += 2
        else:
            index += 1

    # -- per-instruction structural checks -------------------------------
    for i, insn in enumerate(insns):
        if i in ld64_second_slots:
            continue
        _check_structural(insns, i, insn)

    # -- reachability + register-init dataflow ---------------------------
    # Forward-only jumps make program order a topological order, so a
    # single in-order pass computes the meet-over-paths solution.
    states: Dict[int, int] = {0: _ENTRY_STATE}
    types_at: Dict[int, Tuple[RegType, ...]] = {0: _ENTRY_TYPES}
    reg_types: Dict[int, Tuple[RegType, ...]] = {}
    jump_targets = set()
    helper_sites = []
    if 0 in ld64_second_slots:
        raise VerifierError("program starts inside an LD_IMM64 pair")

    def propagate(target: int, state: int, types: Tuple[RegType, ...], source: int) -> None:
        if target == len(insns):
            raise VerifierError(f"insn {source}: control falls off the end of the program")
        if target > len(insns):
            raise VerifierError(f"insn {source}: jump target {target} out of bounds")
        if target in ld64_second_slots:
            raise VerifierError(f"insn {source}: jump into the middle of LD_IMM64")
        states[target] = states.get(target, _ALL_REGS) & state
        seen = types_at.get(target)
        if seen is not None and seen != types:
            types = tuple(a if a == b else None for a, b in zip(seen, types))
        types_at[target] = types

    def retyped(types: Tuple[RegType, ...], reg: int, new: RegType) -> Tuple[RegType, ...]:
        return types[:reg] + (new,) + types[reg + 1 :]

    for i, insn in enumerate(insns):
        if i in ld64_second_slots:
            continue
        if i not in states:
            raise VerifierError(f"insn {i}: unreachable instruction")
        state = states[i]
        types = types_at.pop(i)
        cls = insn.insn_class

        if cls in (isa.BPF_ALU, isa.BPF_ALU64):
            op = insn.alu_op
            if op != isa.BPF_MOV:  # neg / end read their destination too
                _require_init(state, insn.dst, i, "dst")
            if not insn.uses_imm and op not in (isa.BPF_NEG, isa.BPF_END):
                _require_init(state, insn.src, i, "src")
            state |= _bit(insn.dst)
            propagate(i + 1, state, retyped(types, insn.dst, _alu_type(insn, types)), i)

        elif cls == isa.BPF_LDX:
            _require_init(state, insn.src, i, "src")
            _check_access(i, types[insn.src], insn.offset, insn.size_bytes)
            reg_types[i] = types
            state |= _bit(insn.dst)
            loaded: RegType = None
            base = types[insn.src]
            if base is not None and base[0] == "ctx" and insn.size_bytes == 8:
                if base[1] + insn.offset in (OFF_DATA, OFF_DATA_END):
                    loaded = ("pkt", 0)
            propagate(i + 1, state, retyped(types, insn.dst, loaded), i)

        elif cls in (isa.BPF_ST, isa.BPF_STX):
            _require_init(state, insn.dst, i, "dst")
            if cls == isa.BPF_STX:
                _require_init(state, insn.src, i, "src")
            pointer = types[insn.dst]
            _check_access(i, pointer, insn.offset, insn.size_bytes)
            if pointer is not None and pointer[0] == "ctx":
                raise VerifierError(
                    f"insn {i}: store at ctx{pointer[1] + insn.offset:+} size "
                    f"{insn.size_bytes} into the read-only context"
                )
            reg_types[i] = types
            propagate(i + 1, state, types, i)

        elif cls == isa.BPF_LD:  # LD_IMM64 first slot
            state |= _bit(insn.dst)
            if insn.src == isa.BPF_PSEUDO_MAP_FD:
                loaded = ("map", i)
            else:
                loaded = ("const", ((insns[i + 1].imm & _U32) << 32) | (insn.imm & _U32))
            propagate(i + 2, state, retyped(types, insn.dst, loaded), i)

        elif cls == isa.BPF_JMP:
            op = insn.alu_op
            if op == isa.BPF_EXIT:
                _require_init(state, isa.R0, i, "R0 at exit")
                continue
            if op == isa.BPF_CALL:
                for arg in range(1, HELPER_ARG_COUNTS[insn.imm] + 1):
                    _require_init(state, arg, i, f"helper arg r{arg}")
                reg_types[i] = types
                for reg in _CALLER_SAVED:
                    state &= ~_bit(reg)
                state |= _bit(isa.R0)
                helper_sites.append((i, insn.imm))
                # R0 is the result, R1-R5 are clobbered: all unknown.
                propagate(i + 1, state, (None,) * 6 + types[6:], i)
                continue
            if op == isa.BPF_JA:
                jump_targets.add(i + 1 + insn.offset)
                propagate(i + 1 + insn.offset, state, types, i)
                continue
            _require_init(state, insn.dst, i, "dst")
            if not insn.uses_imm:
                _require_init(state, insn.src, i, "src")
            jump_targets.add(i + 1 + insn.offset)
            propagate(i + 1 + insn.offset, state, types, i)  # taken
            propagate(i + 1, state, types, i)  # fallthrough

        else:
            raise VerifierError(f"insn {i}: unknown class {cls}")

    return VerifierAnalysis(
        insn_count=len(insns),
        jump_targets=tuple(sorted(jump_targets)),
        ld64_second_slots=tuple(sorted(ld64_second_slots)),
        map_load_positions=tuple(map_load_positions),
        helper_sites=tuple(helper_sites),
        reg_types=reg_types,
    )


def _signed64(value: int) -> int:
    """``value`` wrapped to the signed 64-bit range (pointer offsets)."""
    value &= _U64
    return value - (1 << 64) if value >> 63 else value


def _alu_type(insn: Instruction, types: Tuple[RegType, ...]) -> RegType:
    """The type an ALU instruction leaves in its destination.

    Only what keeps a pointer or a constant exact is tracked: MOV, and
    64-bit ADD / SUB of a constant.  Everything else yields unknown
    (or, around a packet pointer, keeps the hint)."""
    op = insn.alu_op
    if insn.uses_imm:
        operand: RegType = ("const", insn.imm & _U64)
    else:
        operand = types[insn.src]
    if insn.insn_class == isa.BPF_ALU:
        if op == isa.BPF_MOV and operand is not None and operand[0] == "const":
            return ("const", operand[1] & _U32)
        return None
    if op == isa.BPF_MOV:
        return operand
    if op not in (isa.BPF_ADD, isa.BPF_SUB):
        return None
    target = types[insn.dst]
    if op == isa.BPF_ADD and target is not None and target[0] == "const":
        target, operand = operand, target  # constant + pointer
    if target is None:
        return ("pkt", 0) if op == isa.BPF_ADD and operand == ("pkt", 0) else None
    kind, value = target
    if kind == "pkt":
        return None if op == isa.BPF_SUB and operand == target else target
    if operand is None or operand[0] != "const" or kind == "map":
        return None
    delta = operand[1] if op == isa.BPF_ADD else -operand[1]
    if kind == "const":
        return ("const", (value + delta) & _U64)
    return (kind, _signed64(value + delta))


def _check_access(index: int, pointer: RegType, offset: int, size: int) -> None:
    """Reject a load / store through a proven context or frame pointer
    that falls outside its region."""
    if pointer is None:
        return
    kind, base = pointer
    if kind == "fp" and not -isa.STACK_SIZE <= base + offset <= -size:
        raise VerifierError(
            f"insn {index}: stack access at fp{base + offset:+} size {size} "
            f"outside the {isa.STACK_SIZE}-byte frame"
        )
    if kind == "ctx" and not 0 <= base + offset <= CTX_SIZE - size:
        raise VerifierError(
            f"insn {index}: context access at ctx{base + offset:+} size {size} "
            f"outside the {CTX_SIZE}-byte context"
        )


def _check_structural(insns: List[Instruction], i: int, insn: Instruction) -> None:
    cls = insn.insn_class
    if not 0 <= insn.dst < isa.NUM_REGS or not 0 <= insn.src < isa.NUM_REGS:
        raise VerifierError(f"insn {i}: register out of range")

    writes_dst = (
        cls in (isa.BPF_ALU, isa.BPF_ALU64, isa.BPF_LDX, isa.BPF_LD)
    )
    if writes_dst and insn.dst == isa.FRAME_POINTER:
        raise VerifierError(f"insn {i}: write to frame pointer R10")

    if cls in (isa.BPF_ALU, isa.BPF_ALU64):
        op = insn.alu_op
        if op not in _VALID_ALU_OPS:
            raise VerifierError(f"insn {i}: unknown ALU op {op:#x}")
        if op == isa.BPF_END and (
            cls == isa.BPF_ALU64 or insn.src or insn.offset or insn.imm not in (16, 32, 64)
        ):
            raise VerifierError(f"insn {i}: BPF_END uses reserved fields")
        if op in (isa.BPF_DIV, isa.BPF_MOD) and insn.uses_imm and insn.imm == 0:
            raise VerifierError(f"insn {i}: division by constant zero")
        if op in (isa.BPF_LSH, isa.BPF_RSH, isa.BPF_ARSH) and insn.uses_imm:
            width = 64 if cls == isa.BPF_ALU64 else 32
            if not 0 <= insn.imm < width:
                raise VerifierError(f"insn {i}: shift amount {insn.imm} out of range")
    elif cls == isa.BPF_JMP:
        op = insn.alu_op
        if op not in _VALID_JMP_OPS:
            raise VerifierError(f"insn {i}: unknown JMP op {op:#x}")
        if op == isa.BPF_CALL and insn.imm not in HELPERS:
            raise VerifierError(f"insn {i}: unknown helper id {insn.imm}")
        if op not in (isa.BPF_CALL, isa.BPF_EXIT) and insn.offset < 0:
            raise VerifierError(
                f"insn {i}: backward jump (offset {insn.offset}); loops are rejected"
            )
    elif cls == isa.BPF_JMP32:
        raise VerifierError(f"insn {i}: JMP32 class not supported by this verifier")
    elif cls in (isa.BPF_LDX, isa.BPF_ST, isa.BPF_STX):
        if (insn.opcode & isa.MODE_MASK) != isa.BPF_MEM:
            raise VerifierError(f"insn {i}: unsupported addressing mode")


def _require_init(state: int, reg: int, index: int, what: str) -> None:
    if not state & _bit(reg):
        raise VerifierError(f"insn {index}: read of uninitialized register r{reg} ({what})")
