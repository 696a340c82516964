"""The JIT tier: translate verified bytecode into one Python code object.

The kernel JIT-compiles verified programs to native machine code; the
analog here is translating each program into straight-line Python source
-- registers as local variables, map handles pre-bound into the closure,
jumps lowered to structured control flow over basic blocks -- and
``compile()``-ing it into a single code object at load time.  One call
into that code object replaces the per-instruction dispatch loop
entirely, which matters because probes execute per packet.

The translation leans on facts the verifier proves
(:class:`repro.ebpf.verifier.VerifierAnalysis`):

* jumps are forward-only, so basic blocks execute in program order at
  most once -- no dispatch loop and no runaway check are needed; a
  cascade of ``if _b == N:`` guards is enough;
* direct frame-pointer accesses are in-frame, so they compile to
  unconditional stack reads/writes with the offset folded in;
* helper call sites name known helpers, so the host function, its
  simulated cost, and its argument count are bound at compile time.

The *simulated* cost model is unchanged (that lives in
:mod:`repro.ebpf.vm`); this is a host-side speedup only.  Semantics must
match the interpreter bit for bit -- ``tests/test_ebpf_jit.py`` runs
differential checks over random programs and every compiler-emitted
script shape, and the shadow mode in :mod:`repro.ebpf.vm` replays runs
on the interpreter oracle.
"""

from __future__ import annotations

import struct
from typing import Callable, Dict, List, NamedTuple, Optional, Sequence, Tuple

from repro.ebpf import isa
from repro.ebpf.helpers import (
    HELPER_GET_PRANDOM_U32,
    HELPER_GET_SMP_PROCESSOR_ID,
    HELPER_KTIME_GET_NS,
    HELPERS,
)
from repro.ebpf.isa import Instruction
from repro.ebpf.memory import CTX_REGION_BASE, PACKET_REGION_BASE, STACK_REGION_BASE

U64 = 0xFFFFFFFFFFFFFFFF
U32 = 0xFFFFFFFF

_U64_HEX = "0xFFFFFFFFFFFFFFFF"
_U32_HEX = "0xFFFFFFFF"
_SIGN64_HEX = "0x8000000000000000"
_WRAP64_HEX = "0x10000000000000000"

_SIZE_MASK_HEX = {1: "0xFF", 2: "0xFFFF", 4: "0xFFFFFFFF", 8: _U64_HEX}
_STRUCTS = {2: struct.Struct("<H"), 4: struct.Struct("<I"), 8: struct.Struct("<Q")}

_UNSIGNED_CMP = {
    isa.BPF_JEQ: "==",
    isa.BPF_JNE: "!=",
    isa.BPF_JGT: ">",
    isa.BPF_JGE: ">=",
    isa.BPF_JLT: "<",
    isa.BPF_JLE: "<=",
}
_SIGNED_CMP = {
    isa.BPF_JSGT: ">",
    isa.BPF_JSGE: ">=",
    isa.BPF_JSLT: "<",
    isa.BPF_JSLE: "<=",
}

_WRITEBACK = "_st.regs = [r0, r1, r2, r3, r4, r5, r6, r7, r8, r9, r10]"


class JITError(RuntimeError):
    """Compilation failed (should be unreachable for verified programs)."""


class CompiledProgram(NamedTuple):
    """One translated program, shareable across loads of the same bytecode.

    ``factory`` takes ``{insn_index: tagged map pointer}`` for every
    LD_IMM64/BPF_PSEUDO_MAP_FD slot and returns the run entry point
    ``fn(state, stack, ctx, packet) -> insns_executed``.  Binding map
    pointers through the factory is what lets the program cache share
    one code object between redeploys that differ only in map fds.
    """

    factory: Callable[[Dict[int, int]], Callable]
    map_positions: Tuple[int, ...]
    source: str


def _bswap(value: int, width_bits: int) -> int:
    nbytes = width_bits // 8
    return int.from_bytes((value & ((1 << width_bits) - 1)).to_bytes(nbytes, "little"), "big")


def compile_program(
    insns: Sequence[Instruction], analysis: Optional["VerifierAnalysis"] = None
) -> CompiledProgram:
    """Translate verified ``insns`` into a :class:`CompiledProgram`."""
    insns = list(insns)
    if analysis is None:
        from repro.ebpf.verifier import verify

        analysis = verify(insns)

    second_slots = set(analysis.ld64_second_slots)
    count = len(insns)

    # Basic-block leaders: entry, every jump target, and the slot after
    # every branch.  Forward-only jumps make program order the execution
    # order, so sorted leaders are the block schedule.
    leaders = {0}
    leaders.update(analysis.jump_targets)
    for index, insn in enumerate(insns):
        if index in second_slots or insn.insn_class != isa.BPF_JMP:
            continue
        if insn.alu_op != isa.BPF_CALL and index + 1 < count:
            leaders.add(index + 1)
    starts = sorted(leaders)
    block_of = {start: number for number, start in enumerate(starts)}
    multi = len(starts) > 1

    needs = {"mem": False, "calls": False, "env": False}
    blocks = []
    for number, start in enumerate(starts):
        end = starts[number + 1] if number + 1 < len(starts) else count
        blocks.append(_emit_block(insns, start, end, number, block_of, multi, needs))

    if needs["calls"]:
        # Helper cost accrues in a local and lands in the state once per
        # run, at register writeback (a block holds at most one EXIT).
        for block_lines in blocks:
            for position, line in enumerate(block_lines):
                if line == _WRITEBACK:
                    block_lines.insert(position, "_st.helper_cost_ns = _hcost")
                    break

    body = []
    if needs["calls"]:
        body.append("_hc = _st.helper_calls")
        body.append("_hcost = 0")
    if needs["env"]:
        body.append("_env = _st.env")
    if needs["mem"]:
        body.append("_mem = _st")
        body.append("_cl = len(_ctx)")
        body.append("_pl = -1 if _pkt is None else len(_pkt)")
    if multi:
        body.append("_ex = 0")
    body.append("r0 = r2 = r3 = r4 = r5 = r6 = r7 = r8 = r9 = 0")
    body.append(f"r1 = {CTX_REGION_BASE:#x}")
    body.append(f"r10 = {STACK_REGION_BASE + isa.STACK_SIZE:#x}")
    for number, block_lines in enumerate(blocks):
        if number == 0:
            body.extend(block_lines)
        else:
            body.append(f"if _b == {number}:")
            body.extend("    " + line for line in block_lines)

    map_positions = tuple(analysis.map_load_positions)
    lines = ["def _make(_maps):"]
    for position in map_positions:
        lines.append(f"    _m{position} = _maps[{position}]")
    lines.append("    def _prog(_st, _stk, _ctx, _pkt):")
    lines.extend("        " + line for line in body)
    lines.append("    return _prog")
    source = "\n".join(lines) + "\n"

    namespace: Dict[str, object] = {"__builtins__": {"len": len}, "_bs": _bswap}
    for size, packer in _STRUCTS.items():
        namespace[f"_u{size}"] = packer.unpack_from
        namespace[f"_p{size}"] = packer.pack_into
    for position, helper_id in analysis.helper_sites:
        namespace[f"_h{position}"] = HELPERS[helper_id].func
    exec(compile(source, "<bpf-native>", "exec"), namespace)
    return CompiledProgram(namespace["_make"], map_positions, source)


def _emit_block(
    insns: List[Instruction],
    start: int,
    end: int,
    number: int,
    block_of: Dict[int, int],
    multi: bool,
    needs: Dict[str, bool],
) -> List[str]:
    lines: List[str] = []
    slots = 0
    index = start
    while index < end:
        insn = insns[index]
        cls = insn.insn_class
        if cls in (isa.BPF_ALU64, isa.BPF_ALU):
            lines.extend(_emit_alu(insn))
            slots += 1
            index += 1
        elif cls == isa.BPF_LDX:
            lines.extend(_emit_ldx(insn, needs))
            slots += 1
            index += 1
        elif cls in (isa.BPF_STX, isa.BPF_ST):
            lines.extend(_emit_store(insn, needs))
            slots += 1
            index += 1
        elif cls == isa.BPF_LD:
            lines.append(_emit_ld_imm64(insns, index))
            slots += 2  # the second slot counts as fetched
            index += 2
        elif cls == isa.BPF_JMP:
            op = insn.alu_op
            if op == isa.BPF_CALL:
                lines.extend(_emit_call(insn, index, needs))
                slots += 1
                index += 1
                continue
            slots += 1
            if op == isa.BPF_EXIT:
                lines.append(_WRITEBACK)
                lines.append(f"return _ex + {slots}" if multi else f"return {slots}")
                return lines
            if op == isa.BPF_JA:
                lines.append(f"_ex += {slots}")
                lines.append(f"_b = {block_of[index + 1 + insn.offset]}")
                return lines
            lines.append(f"_ex += {slots}")
            taken = block_of[index + 1 + insn.offset]
            lines.append(f"_b = {taken} if {_cond_expr(insn)} else {number + 1}")
            return lines
        else:  # pragma: no cover - verified programs never reach this
            raise JITError(f"cannot compile class {cls} at {index}")
    # Fell off the block end into the next leader (it is a jump target).
    lines.append(f"_ex += {slots}")
    lines.append(f"_b = {number + 1}")
    return lines


def _emit_alu(insn: Instruction) -> List[str]:
    is32 = insn.insn_class == isa.BPF_ALU
    op = insn.alu_op
    d = f"r{insn.dst}"
    mask = _U32_HEX if is32 else _U64_HEX
    # Locals always hold masked uint64 values, so 64-bit reads need no
    # re-mask; 32-bit ops narrow explicitly, like the interpreter.
    value = f"({d} & {_U32_HEX})" if is32 else d
    if insn.uses_imm:
        operand = str(insn.imm & (U32 if is32 else U64))
    else:
        operand = f"(r{insn.src} & {_U32_HEX})" if is32 else f"r{insn.src}"

    if op == isa.BPF_MOV:
        return [f"{d} = {operand}"]
    if op == isa.BPF_ADD:
        return [f"{d} = ({value} + {operand}) & {mask}"]
    if op == isa.BPF_SUB:
        return [f"{d} = ({value} - {operand}) & {mask}"]
    if op == isa.BPF_MUL:
        return [f"{d} = ({value} * {operand}) & {mask}"]
    if op == isa.BPF_AND:
        return [f"{d} = {value} & {operand}"]
    if op == isa.BPF_OR:
        return [f"{d} = {value} | {operand}"]
    if op == isa.BPF_XOR:
        return [f"{d} = {value} ^ {operand}"]
    if op == isa.BPF_DIV:
        if insn.uses_imm:  # constant zero divisors are rejected at verify
            return [f"{d} = {value} // {operand}"]
        return [f"_t = {operand}", f"{d} = 0 if _t == 0 else {value} // _t"]
    if op == isa.BPF_MOD:
        if insn.uses_imm:
            return [f"{d} = {value} % {operand}"]
        return [f"_t = {operand}", f"{d} = {value} if _t == 0 else {value} % _t"]
    if op in (isa.BPF_LSH, isa.BPF_RSH):
        if insn.uses_imm:  # shift range is verified
            shift = str(insn.imm)
        else:
            shift = f"(r{insn.src} & {31 if is32 else 63})"
        if op == isa.BPF_LSH:
            return [f"{d} = ({value} << {shift}) & {mask}"]
        return [f"{d} = {value} >> {shift}"]
    if op == isa.BPF_ARSH:
        half = "0x80000000" if is32 else _SIGN64_HEX
        wrap = "0x100000000" if is32 else _WRAP64_HEX
        lines = [f"_t = {value}"]
        if insn.uses_imm:
            shift = str(insn.imm)
        else:
            shift = "_s"
            lines.append(f"_s = r{insn.src} & {31 if is32 else 63}")
        lines.append(
            f"{d} = ((_t - {wrap}) >> {shift}) & {mask} if _t >= {half} else _t >> {shift}"
        )
        return lines
    if op == isa.BPF_NEG:
        return [f"{d} = -{value} & {mask}"]
    if op == isa.BPF_END:
        return [f"{d} = _bs({value}, {insn.imm}) & {mask}"]
    raise JITError(f"bad ALU op {op:#x}")  # pragma: no cover


def _cond_expr(insn: Instruction) -> str:
    op = insn.alu_op
    left = f"r{insn.dst}"
    if op in _UNSIGNED_CMP or op == isa.BPF_JSET:
        right = str(insn.imm & U64) if insn.uses_imm else f"r{insn.src}"
        if op == isa.BPF_JSET:
            return f"{left} & {right}"
        return f"{left} {_UNSIGNED_CMP[op]} {right}"
    cmp = _SIGNED_CMP.get(op)
    if cmp is None:  # pragma: no cover - verified programs never reach this
        raise JITError(f"bad JMP op {op:#x}")
    sleft = f"({left} - {_WRAP64_HEX} if {left} >= {_SIGN64_HEX} else {left})"
    if insn.uses_imm:
        sright = str(insn.imm)  # a sign-extended i32 is its own signed value
    else:
        r = f"r{insn.src}"
        sright = f"({r} - {_WRAP64_HEX} if {r} >= {_SIGN64_HEX} else {r})"
    return f"{sleft} {cmp} {sright}"


def _emit_ldx(insn: Instruction, needs: Dict[str, bool]) -> List[str]:
    size = insn.size_bytes
    d = f"r{insn.dst}"
    if insn.src == isa.FRAME_POINTER:
        # Verified in-frame: unconditional stack read, offset folded.
        offset = isa.STACK_SIZE + insn.offset
        if size == 1:
            return [f"{d} = _stk[{offset}]"]
        return [f"{d} = _u{size}(_stk, {offset})[0]"]

    needs["mem"] = True
    lines, addr = _addr_lines(f"r{insn.src}", insn.offset)

    def hit(buf: str) -> str:
        if size == 1:
            return f"{d} = {buf}[_o]"
        return f"{d} = _u{size}({buf}, _o)[0]"

    lines.extend(_region_chain(addr, size, hit, f"{d} = _mem.load({addr}, {size})"))
    return lines


def _emit_store(insn: Instruction, needs: Dict[str, bool]) -> List[str]:
    size = insn.size_bytes
    if insn.insn_class == isa.BPF_STX:
        raw = f"r{insn.src}"
        inline = raw if size == 8 else f"{raw} & {_SIZE_MASK_HEX[size]}"
    else:  # BPF_ST: constant payload
        raw = str(insn.imm & U64)
        inline = str(insn.imm & U64 & ((1 << (size * 8)) - 1))
    if insn.dst == isa.FRAME_POINTER:
        offset = isa.STACK_SIZE + insn.offset
        if size == 1:
            return [f"_stk[{offset}] = {inline}"]
        return [f"_p{size}(_stk, {offset}, {inline})"]

    needs["mem"] = True
    lines, addr = _addr_lines(f"r{insn.dst}", insn.offset)

    def hit(buf: str) -> str:
        if size == 1:
            return f"{buf}[_o] = {inline}"
        return f"_p{size}({buf}, _o, {inline})"

    lines.extend(_region_chain(addr, size, hit, f"_mem.store({addr}, {size}, {raw})"))
    return lines


def _addr_lines(pointer: str, offset: int) -> Tuple[List[str], str]:
    """Effective-address computation; returns (lines, address expression)."""
    if offset == 0:
        return [], pointer  # registers are already masked to u64
    return [f"_a = ({pointer} + {offset}) & {_U64_HEX}"], "_a"


def _region_chain(addr: str, size: int, hit, fallback: str) -> List[str]:
    """Bounds-checked fast paths for the three fixed regions.

    ``_pkt`` may arrive as a lazy image (its ``len()`` is all ``_pl``
    needs); the first access that lands in the packet region swaps it
    for the serialised bytes.  Map-value buffers (dynamic regions) and
    faulting accesses fall back to :meth:`repro.ebpf.memory.Memory`
    lookup, which raises the same
    :class:`~repro.ebpf.memory.MemoryFault` the interpreter would.
    """
    return [
        f"_o = {addr} - {CTX_REGION_BASE:#x}",
        f"if 0 <= _o <= _cl - {size}:",
        f"    {hit('_ctx')}",
        "else:",
        f"    _o = {addr} - {PACKET_REGION_BASE:#x}",
        f"    if 0 <= _o <= _pl - {size}:",
        "        _pkt = _mem.packet_bytes()",
        f"        {hit('_pkt')}",
        "    else:",
        f"        _o = {addr} - {STACK_REGION_BASE:#x}",
        f"        if 0 <= _o <= {isa.STACK_SIZE - size}:",
        f"            {hit('_stk')}",
        "        else:",
        f"            {fallback}",
    ]


# Helpers that only read the execution environment inline to a single
# expression on the bound ``_env`` -- they cannot fault, take no
# arguments, and each expression mirrors the interpreter's
# ``info.func(state) & U64`` result exactly.
_INLINE_CALLS = {
    HELPER_KTIME_GET_NS: f"_env.clock() & {_U64_HEX}",
    HELPER_GET_PRANDOM_U32: "_env.prandom_u32() & 0xFFFFFFFF",
    HELPER_GET_SMP_PROCESSOR_ID: f"_env.cpu & {_U64_HEX}",
}


def _emit_call(insn: Instruction, index: int, needs: Dict[str, bool]) -> List[str]:
    needs["calls"] = True
    info = HELPERS[insn.imm]
    inline = _INLINE_CALLS.get(insn.imm)
    if inline is not None:
        needs["env"] = True
        result = f"r0 = {inline}"
    else:
        # Argument registers pass positionally (helpers never read the
        # register file); locals stay live across the call, matching the
        # interpreter, which leaves R1-R5 physically unchanged.
        args = "".join(f", r{n}" for n in range(1, info.argc + 1))
        result = f"r0 = _h{index}(_st{args}) & {_U64_HEX}"
    return [
        result,
        f'_hc["{info.name}"] = _hc.get("{info.name}", 0) + 1',
        f"_hcost += {info.cost_ns}",
    ]


def _emit_ld_imm64(insns: List[Instruction], index: int) -> str:
    first, second = insns[index], insns[index + 1]
    d = f"r{first.dst}"
    if first.src == isa.BPF_PSEUDO_MAP_FD:
        return f"{d} = _m{index}"
    return f"{d} = {((second.imm & U32) << 32) | (first.imm & U32)}"
