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
* a load or store through a proven frame pointer (R10, or a copy plus
  a constant) and a load through a proven context pointer (R1 likewise;
  the context is read-only, so no store reaches it) are in bounds, so
  each compiles to one indexed read or write with the offset folded in
  -- a load of one whole context field indexes the field tuple, and the
  56 context bytes are packed only for a partial load, an unproven load
  or a helper that reads memory; only an access through an unproven
  pointer keeps the run-time region chain;
* helper call sites name known helpers, so the host function, its
  simulated cost, and its argument count are bound at compile time --
  and a ``perf_event_output`` whose map, flags, frame offset and size
  are all proven constants hands the stack slice straight to the map;
* every basic block runs whole or not at all, so the set of blocks a
  run executed (returned as a bit mask) fixes its instruction count,
  helper cost and helper tallies (:meth:`CompiledProgram.path_info`);
* the stack and the VM state are built at the first instruction that
  touches them, so a run that exits among ALU ops, whole-field context
  loads and jumps -- a filter miss -- builds neither, and needs nothing
  but the context's field tuple.

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
from repro.ebpf.context import FIELD_AT
from repro.ebpf.helpers import (
    BPF_F_CURRENT_CPU,
    HELPER_GET_PRANDOM_U32,
    HELPER_GET_SMP_PROCESSOR_ID,
    HELPER_KTIME_GET_NS,
    HELPER_PERF_EVENT_OUTPUT,
    HELPERS,
    MAP_PTR_BASE,
    PERF_RECORD_MAX_BYTES,
)
from repro.ebpf.isa import Instruction
from repro.ebpf.maps import PerfEventArray
from repro.ebpf.memory import (
    CTX_REGION_BASE,
    PACKET_REGION_BASE,
    STACK_REGION_BASE,
)
from repro.ebpf.verifier import RegType, VerifierAnalysis, verify

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

class JITError(RuntimeError):
    """Compilation failed (should be unreachable for verified programs)."""


class PathInfo(NamedTuple):
    """What one set of executed blocks costs: instructions fetched,
    simulated helper nanoseconds, and calls per helper name."""

    insns_executed: int
    helper_cost_ns: int
    helper_calls: Dict[str, int]


class CompiledProgram(NamedTuple):
    """One translated program, shareable across loads of the same bytecode.

    ``factory`` takes ``{insn_index: tagged map pointer}`` for every
    LD_IMM64/BPF_PSEUDO_MAP_FD slot and returns the run entry point
    ``fn(env, fields, packet, state=None, stack=None) -> (path, r0)``,
    ``path`` being the bit mask of the basic blocks the run executed
    (bit ``n`` = block ``n``).  Without ``state`` the entry builds the
    stack and a :class:`repro.ebpf.vm.VMState` where the run first
    needs them; with one (and its ``stack``) it runs on them and writes
    the register file back to ``state.regs`` at ``exit``.  Binding map
    pointers through the factory is what lets the program cache share
    one code object between redeploys that differ only in map fds.

    ``prefix`` names the blocks a run can pass before it builds
    anything and the context fields they read, or says why there are
    none.
    """

    factory: Callable[[Dict[int, int]], Callable]
    map_positions: Tuple[int, ...]
    source: str
    # per basic block: (instruction slots, helper ids it calls)
    blocks: Tuple[Tuple[int, Tuple[int, ...]], ...]
    prefix: str

    def path_info(self, path: int) -> PathInfo:
        """Account one run from the blocks it executed."""
        executed = cost = 0
        calls: Dict[str, int] = {}
        for number, (slots, helper_ids) in enumerate(self.blocks):
            if path >> number & 1:
                executed += slots
                for helper_id in helper_ids:
                    info = HELPERS[helper_id]
                    cost += info.cost_ns
                    calls[info.name] = calls.get(info.name, 0) + 1
        return PathInfo(executed, cost, calls)


def bswap(value: int, width_bits: int) -> int:
    """The low ``width_bits`` of ``value``, byte-reversed."""
    nbytes = width_bits // 8
    return int.from_bytes((value & ((1 << width_bits) - 1)).to_bytes(nbytes, "little"), "big")


def compile_program(
    insns: Sequence[Instruction], analysis: Optional[VerifierAnalysis] = None
) -> CompiledProgram:
    """Translate verified ``insns`` into a :class:`CompiledProgram`."""
    from repro.ebpf.vm import VMState  # vm imports this module

    insns = list(insns)
    if analysis is None:
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
    bounds = list(zip(starts, starts[1:] + [count]))
    successors = []
    for number, (start, end) in enumerate(bounds):
        last = insns[end - 1]
        if last.insn_class != isa.BPF_JMP or last.alu_op == isa.BPF_CALL:
            successors.append((number + 1,))  # falls into the next leader
        elif last.alu_op == isa.BPF_EXIT:
            successors.append(())
        else:
            taken = block_of[end + last.offset]
            successors.append((taken,) if last.alu_op == isa.BPF_JA else (taken, number + 1))

    # What every path to the point being emitted has built
    # (``_build``).  Jumps go forward, so each block's predecessors are
    # emitted before it.
    needs = dict.fromkeys(_BUILT, False)
    built_out: List[Tuple[bool, ...]] = []
    predecessors: List[List[int]] = [[] for _ in bounds]
    for number, following in enumerate(successors):
        for successor in following:
            predecessors[successor].append(number)
    body_blocks = []
    block_table = []
    for number, (start, end) in enumerate(bounds):
        into = [built_out[p] for p in predecessors[number]]
        for slot, what in enumerate(_BUILT):
            needs[what] = bool(into) and all(out[slot] for out in into)
        lines, slots, helper_ids = _emit_block(insns, start, end, number, block_of, analysis, needs)
        built_out.append(tuple(needs[what] for what in _BUILT))
        body_blocks.append(lines)
        block_table.append((slots, helper_ids))

    body = [
        "_st = _rs",
        "r0 = r2 = r3 = r4 = r5 = r6 = r7 = r8 = r9 = 0",
        f"r1 = {CTX_REGION_BASE:#x}",
        f"r10 = {STACK_REGION_BASE + isa.STACK_SIZE:#x}",
    ]
    for number, block_lines in enumerate(body_blocks):
        if number == 0:
            body.extend(block_lines)
        else:
            body.append(f"if _b == {number}:")
            body.extend("    " + line for line in block_lines)

    map_positions = tuple(analysis.map_load_positions)
    lines = ["def _make(_maps):"]
    for position in map_positions:
        lines.append(f"    _m{position} = _maps[{position}]")
        lines.append(f"    _fd{position} = _m{position} - {MAP_PTR_BASE:#x}")
    lines.append("    def _prog(_env, _f, _pkt, _rs=None, _stk=None):")
    lines.extend("        " + line for line in body)
    lines.append("    return _prog")
    source = "\n".join(lines) + "\n"

    namespace: Dict[str, object] = {
        "__builtins__": {"len": len, "bytes": bytes, "bytearray": bytearray},
        "_bs": bswap,
        "_PEA": PerfEventArray,
        "_B": bytearray,  # a stack, built where a run first needs one
        "_VM": VMState,
    }
    for size, packer in _STRUCTS.items():
        namespace[f"_u{size}"] = packer.unpack_from
        namespace[f"_p{size}"] = packer.pack_into
    for position, helper_id in analysis.helper_sites:
        namespace[f"_h{position}"] = HELPERS[helper_id].func
    exec(compile(source, "<bpf-native>", "exec"), namespace)
    return CompiledProgram(
        namespace["_make"],
        map_positions,
        source,
        tuple(block_table),
        _prefix_note(insns, bounds, successors, analysis),
    )


def _field_index(insn: Instruction, pointer: RegType) -> Optional[int]:
    """The field tuple index a load reads, if it is a load of one whole
    context field through a proven context pointer."""
    if pointer is None or pointer[0] != "ctx":
        return None
    field = FIELD_AT.get(pointer[1] + insn.offset)
    if field is None or field[1] != insn.size_bytes:
        return None
    return field[0]


_LOAD_KINDS = {"ctx": "a partial context load", "fp": "a stack load", "pkt": "a packet load"}


def _impurity(
    insns: List[Instruction], start: int, end: int, analysis: VerifierAnalysis
) -> Optional[str]:
    """Why instructions ``start .. end`` may need the stack or the VM
    state (the first one that has a side effect or reads more than a
    field), or ``None`` if they are ALU ops, whole-field context loads
    and jumps."""
    for index in range(start, end):
        insn = insns[index]
        cls = insn.insn_class
        if cls in (isa.BPF_ALU64, isa.BPF_ALU):
            continue
        if cls == isa.BPF_JMP:
            if insn.alu_op == isa.BPF_CALL:
                return f"a call to {HELPERS[insn.imm].name} at insn {index}"
            continue
        if cls == isa.BPF_LDX:
            pointer = analysis.reg_types[index][insn.src]
            if _field_index(insn, pointer) is not None:
                continue
            kind = pointer[0] if pointer is not None else None
            return f"{_LOAD_KINDS.get(kind, 'a memory load')} at insn {index}"
        if cls in (isa.BPF_ST, isa.BPF_STX):
            return f"a store at insn {index}"
        return f"ld_imm64 at insn {index}"
    return None


def _prefix_note(
    insns: List[Instruction],
    bounds: List[Tuple[int, int]],
    successors: List[Tuple[int, ...]],
    analysis: VerifierAnalysis,
) -> str:
    """The blocks a run can pass before any state exists -- those it
    reaches from the entry through side-effect-free blocks
    (:func:`_impurity`) -- and the context fields they read, or
    ``none`` and why."""
    why = [_impurity(insns, start, end, analysis) for start, end in bounds]
    if why[0] is not None:
        return f"none (block 0 has {why[0]})"
    reached = {0}
    for number in range(len(bounds)):  # forward jumps: program order is topological
        if number in reached:
            reached.update(s for s in successors[number] if why[s] is None)
    fields: List[str] = []
    for number in sorted(reached):
        start, end = bounds[number]
        for index in range(start, end):
            insn = insns[index]
            if insn.insn_class == isa.BPF_LDX:
                name = FIELD_AT[analysis.reg_types[index][insn.src][1] + insn.offset][2]
                if name not in fields:
                    fields.append(name)
    return f"blocks {', '.join(map(str, sorted(reached)))}; fields {', '.join(fields) or 'none'}"


# What a run builds where it first needs it: the packet region's
# length, the stack, the VMState (which holds the stack).
_BUILT = ("pl", "stk", "st")


def _build(what: str, needs: Dict[str, bool], sure: bool = True) -> List[str]:
    """The lines that make ``what`` (one of :data:`_BUILT`) exist unless
    every path here has it.  ``sure`` -- the lines run whenever this
    point does -- records that the code after them has it."""
    if needs[what]:
        return []
    if what == "pl":  # fixed for the run: working it out twice is harmless
        lines = ["_pl = -1 if _pkt is None else len(_pkt)"]
    else:
        lines = [] if needs["stk"] else ["if _stk is None:", f"    _stk = _B({isa.STACK_SIZE})"]
        if what == "st":
            lines = ["if _st is None:", *("    " + line for line in lines)]
            lines.append("    _st = _VM(_stk, _f, _pkt, _env)")
            needs["stk"] = needs["stk"] or sure
    needs[what] = needs[what] or sure
    return lines


def _emit_block(
    insns: List[Instruction],
    start: int,
    end: int,
    number: int,
    block_of: Dict[int, int],
    analysis: VerifierAnalysis,
    needs: Dict[str, bool],
) -> Tuple[List[str], int, Tuple[int, ...]]:
    """One basic block: (source lines, instruction slots, helper ids)."""
    lines: List[str] = []
    helper_ids: List[int] = []
    slots = 0
    bit = 1 << number
    # Block 0 always runs first, so it starts the path mask.
    mark = f"_p = {bit}" if number == 0 else f"_p += {bit}"
    index = start
    while index < end:
        insn = insns[index]
        cls = insn.insn_class
        if cls in (isa.BPF_ALU64, isa.BPF_ALU):
            lines.extend(_emit_alu(insn))
            slots += 1
            index += 1
        elif cls == isa.BPF_LDX:
            lines.extend(_emit_ldx(insn, analysis.reg_types[index][insn.src], needs))
            slots += 1
            index += 1
        elif cls in (isa.BPF_STX, isa.BPF_ST):
            lines.extend(_emit_store(insn, analysis.reg_types[index][insn.dst], needs))
            slots += 1
            index += 1
        elif cls == isa.BPF_LD:
            lines.append(_emit_ld_imm64(insns, index))
            slots += 2  # the second slot counts as fetched
            index += 2
        elif cls == isa.BPF_JMP:
            op = insn.alu_op
            slots += 1
            if op == isa.BPF_CALL:
                lines.extend(_emit_call(insn, index, analysis.reg_types[index], needs))
                helper_ids.append(insn.imm)
                index += 1
                continue
            if op == isa.BPF_EXIT:
                path = str(bit) if number == 0 else f"_p + {bit}"
                lines.append("if _rs is not None:")  # a run() reads the registers
                lines.append(f"    _rs.regs = [{', '.join(f'r{n}' for n in range(11))}]")
                lines.append(f"return {path}, r0")
            elif op == isa.BPF_JA:
                lines.append(mark)
                lines.append(f"_b = {block_of[index + 1 + insn.offset]}")
            else:
                lines.append(mark)
                taken = block_of[index + 1 + insn.offset]
                lines.append(f"_b = {taken} if {_cond_expr(insn)} else {number + 1}")
            return lines, slots, tuple(helper_ids)
        else:  # pragma: no cover - verified programs never reach this
            raise JITError(f"cannot compile class {cls} at {index}")
    # Fell off the block end into the next leader (it is a jump target).
    lines.append(mark)
    lines.append(f"_b = {number + 1}")
    return lines, slots, tuple(helper_ids)


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
    if op == isa.BPF_END:  # 32-bit class only; the width is imm
        if insn.uses_imm:  # to_le: this machine's order, so a truncation
            return [f"{d} = {d} & {(1 << insn.imm) - 1:#x}"]
        return [f"{d} = _bs({d}, {insn.imm})"]
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


def _emit_ldx(insn: Instruction, pointer: RegType, needs: Dict[str, bool]) -> List[str]:
    size = insn.size_bytes
    d = f"r{insn.dst}"
    field = _field_index(insn, pointer)
    if field is not None:  # one whole field: the tuple holds it
        return [f"{d} = _f[{field}]"]

    def hit(buf: str, at: str = "_o") -> List[str]:
        read = f"{buf}[{at}]" if size == 1 else f"_u{size}({buf}, {at})[0]"
        if buf == "_pkt":  # a lazy image answers from one segment
            return [f"{d} = {read} if _pkt.__class__ is bytearray else _pkt.load({at}, {size})"]
        lines = ["_ctx = _st.ctx_bytes()"] if buf == "_ctx" else []
        return lines + [f"{d} = {read}"]

    def fallback(addr: str) -> str:
        return f"{d} = _st.load({addr}, {size})"

    return _emit_access(f"r{insn.src}", insn.offset, size, pointer, hit, fallback, needs)


def _emit_store(insn: Instruction, pointer: RegType, needs: Dict[str, bool]) -> List[str]:
    size = insn.size_bytes
    if insn.insn_class == isa.BPF_STX:
        raw = f"r{insn.src}"
        inline = raw if size == 8 else f"{raw} & {_SIZE_MASK_HEX[size]}"
    else:  # BPF_ST: constant payload
        raw = str(insn.imm & U64)
        inline = str(insn.imm & U64 & ((1 << (size * 8)) - 1))

    def hit(buf: str, at: str = "_o") -> List[str]:
        # A store into the packet serialises a lazy image.
        lines = ["_pkt = _st.packet_bytes()"] if buf == "_pkt" else []
        if size == 1:
            return lines + [f"{buf}[{at}] = {inline}"]
        return lines + [f"_p{size}({buf}, {at}, {inline})"]

    def fallback(addr: str) -> str:
        return f"_st.store({addr}, {size}, {raw})"

    # Only a frame store leaves the VMState unbuilt: the rest reach the
    # region through it.
    lines = [] if pointer is not None and pointer[0] == "fp" else _build("st", needs)
    return lines + _emit_access(f"r{insn.dst}", insn.offset, size, pointer, hit, fallback, needs)


def _emit_access(
    base: str, offset: int, size: int, pointer: RegType, hit, fallback, needs: Dict[str, bool]
) -> List[str]:
    """``size`` bytes at register ``base`` + ``offset``, as cheaply as
    the verifier's type for ``base`` allows.  ``hit(buffer, index)`` is
    the access once its region is known; ``fallback(address)`` is the
    region-registry lookup, which also serves the context and dynamic
    regions and raises every fault (a store into the read-only context
    among them).  Each builds the stack or the VMState first where it
    needs one; a proven packet load needs neither."""
    kind = pointer[0] if pointer is not None else None
    if kind == "fp":  # verified in-frame
        return _build("stk", needs) + hit("_stk", str(isa.STACK_SIZE + pointer[1] + offset))
    if kind == "ctx":  # a load (stores are rejected) verified inside the context
        return _build("st", needs) + hit("_ctx", str(pointer[1] + offset))
    lines = _build("pl", needs)
    if offset == 0:
        addr = base  # registers are already masked to u64
    else:
        lines.append(f"_a = ({base} + {offset}) & {_U64_HEX}")
        addr = "_a"

    def region(base: int, buffer: str, last: str, miss: List[str]) -> List[str]:
        """``hit`` if the address is at offset 0 .. ``last`` of the
        region at ``base`` (the offset is left in ``_o``), else ``miss``."""
        return [
            f"_o = {addr} - {base:#x}",
            f"if 0 <= _o <= {last}:",
            *("    " + line for line in hit(buffer)),
            "else:",
            *("    " + line for line in miss),
        ]

    if kind == "pkt":
        # Most likely the packet region, so that is tested first; a miss
        # (a fault, nearly always) goes to the registry.
        registry = _build("st", needs, sure=False) + [fallback(addr)]
        return lines + region(PACKET_REGION_BASE, "_pkt", f"_pl - {size}", registry)
    # Unproven pointer: bounds-checked fast paths for the stack and the
    # packet.  The context, map-value buffers (dynamic regions) and
    # faulting accesses fall back to :class:`repro.ebpf.memory.Memory`
    # lookup, which raises the same
    # :class:`~repro.ebpf.memory.MemoryFault` the interpreter would.
    lines = _build("st", needs) + lines
    registry = [fallback(addr)]
    packet = region(PACKET_REGION_BASE, "_pkt", f"_pl - {size}", registry)
    return lines + region(STACK_REGION_BASE, "_stk", str(isa.STACK_SIZE - size), packet)


# Helpers that only read the execution environment inline to a single
# expression on the bound ``_env`` -- they cannot fault, take no
# arguments, and each expression mirrors the interpreter's
# ``info.func(state) & U64`` result exactly.
_INLINE_CALLS = {
    HELPER_KTIME_GET_NS: f"_env.clock() & {_U64_HEX}",
    HELPER_GET_PRANDOM_U32: "_env.prandom_u32() & 0xFFFFFFFF",
    HELPER_GET_SMP_PROCESSOR_ID: f"_env.cpu & {_U64_HEX}",
}


def _emit_call(
    insn: Instruction, index: int, types: Tuple[RegType, ...], needs: Dict[str, bool]
) -> List[str]:
    inline = _INLINE_CALLS.get(insn.imm)
    if inline is not None:
        return [f"r0 = {inline}"]
    # Argument registers pass positionally (helpers never read the
    # register file); locals stay live across the call, matching the
    # interpreter, which leaves R1-R5 physically unchanged.
    args = "".join(f", r{n}" for n in range(1, HELPERS[insn.imm].argc + 1))
    generic = f"r0 = _h{index}(_st{args}) & {_U64_HEX}"
    if insn.imm == HELPER_PERF_EVENT_OUTPUT:
        proven = _proven_perf_output(types)
        if proven is not None:
            position, output = proven
            # The fd table belongs to the run's environment, so the map
            # is looked up and type-checked per call; anything but a
            # perf array goes to the helper, which raises what it must.
            lines = _build("stk", needs)
            fallback = _build("st", needs, sure=False) + [generic]
            return lines + [
                f"_mp = _env.maps.get(_fd{position})",
                "if _mp.__class__ is _PEA:",
                f"    _mp.output({output})",
                "    r0 = 0",
                "else:",
                *("    " + line for line in fallback),
            ]
    return _build("st", needs) + [generic]


def _proven_perf_output(types: Tuple[RegType, ...]) -> Optional[Tuple[int, str]]:
    """For a ``perf_event_output`` call site whose map (R2), flags (R3),
    frame offset (R4) and size (R5) the verifier proved: the map's
    LD_IMM64 position and the ``(cpu, record)`` arguments of
    :meth:`PerfEventArray.output`, the record being the stack slice
    itself.  ``None`` leaves the site to the generic helper."""
    kinds = [None if t is None else t[0] for t in types[2:6]]
    if kinds != ["map", "const", "fp", "const"]:
        return None
    (_, position), (_, flags), (_, frame_offset), (_, size) = types[2:6]
    low = isa.STACK_SIZE + frame_offset
    if size > PERF_RECORD_MAX_BYTES or low < 0 or low + size > isa.STACK_SIZE:
        return None
    flags &= U32
    cpu = "_env.cpu" if flags == BPF_F_CURRENT_CPU else str(flags)
    return position, f"{cpu}, bytes(_stk[{low}:{low + size}])"


def _emit_ld_imm64(insns: List[Instruction], index: int) -> str:
    first, second = insns[index], insns[index + 1]
    d = f"r{first.dst}"
    if first.src == isa.BPF_PSEUDO_MAP_FD:
        return f"{d} = _m{index}"
    return f"{d} = {((second.imm & U32) << 32) | (first.imm & U32)}"
