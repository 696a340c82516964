"""Program introspection -- the ``bpftool prog`` analog.

Summarize loaded programs: instruction mix, helper usage, referenced
maps, estimated per-run cost bounds, and a disassembly listing.  Used
by operators to sanity-check what the vNetTracer compiler emitted.
"""

from __future__ import annotations

from typing import Dict, List, NamedTuple

from repro.ebpf import isa
from repro.ebpf.helpers import HELPERS
from repro.ebpf.isa import disassemble
from repro.ebpf.jit import compile_program
from repro.ebpf.vm import BPFProgram, INTERPRETER_NS_PER_INSN, JIT_NS_PER_INSN


class ProgramInfo(NamedTuple):
    name: str
    instructions: int
    alu_ops: int
    jumps: int
    loads: int
    stores: int
    helper_calls: Dict[str, int]
    map_fds: List[int]
    max_cost_ns_interp: int
    max_cost_ns_jit: int
    run_count: int
    total_cost_ns: int


def inspect_program(program: BPFProgram) -> ProgramInfo:
    """Static + runtime summary of one program."""
    alu = jumps = loads = stores = 0
    helper_counts: Dict[str, int] = {}
    map_fds: List[int] = []
    index = 0
    insns = program.insns
    while index < len(insns):
        insn = insns[index]
        cls = insn.insn_class
        if cls in (isa.BPF_ALU, isa.BPF_ALU64):
            alu += 1
        elif cls == isa.BPF_JMP:
            if insn.alu_op == isa.BPF_CALL:
                name = HELPERS[insn.imm].name
                helper_counts[name] = helper_counts.get(name, 0) + 1
            jumps += 1
        elif cls == isa.BPF_LDX:
            loads += 1
        elif cls in (isa.BPF_ST, isa.BPF_STX):
            stores += 1
        elif cls == isa.BPF_LD:
            if insn.src == isa.BPF_PSEUDO_MAP_FD:
                map_fds.append(insn.imm)
            loads += 1
            index += 1  # skip the second slot
        index += 1

    # Worst case: every instruction executes once (DAG property) and
    # every helper call site fires.
    helper_cost = sum(
        HELPERS[insn.imm].cost_ns
        for insn in insns
        if insn.insn_class == isa.BPF_JMP and insn.alu_op == isa.BPF_CALL
    )
    n = len(insns)
    return ProgramInfo(
        name=program.name,
        instructions=n,
        alu_ops=alu,
        jumps=jumps,
        loads=loads,
        stores=stores,
        helper_calls=helper_counts,
        map_fds=sorted(set(map_fds)),
        max_cost_ns_interp=int(n * INTERPRETER_NS_PER_INSN + helper_cost),
        max_cost_ns_jit=int(n * JIT_NS_PER_INSN + helper_cost),
        run_count=program.run_count,
        total_cost_ns=program.total_cost_ns,
    )


def dump_program(program: BPFProgram) -> str:
    """A ``bpftool prog dump xlated``-style listing with a header."""
    info = inspect_program(program)
    # The blocks a run passes before it builds a stack or VM state and
    # the context fields they read, or why there are none (repro.ebpf.jit).
    if not program.precompile:
        prefix = "none (interpreter tier)"
    elif program.shadow:
        prefix = "none (shadow mode)"
    else:
        prefix = (program._unit or compile_program(program.insns)).prefix
    header = [
        f"program {info.name!r}: {info.instructions} insns "
        f"({info.alu_ops} alu, {info.jumps} jmp, {info.loads} ld, {info.stores} st)",
        f"tier: {program.tier} ({program.mode} cost model)",
        f"prefix: {prefix}",
        f"helpers: {info.helper_calls or 'none'}   maps: {info.map_fds or 'none'}",
        f"worst-case cost: {info.max_cost_ns_interp} ns interp / "
        f"{info.max_cost_ns_jit} ns jit",
        f"runtime: {info.run_count} runs, {info.total_cost_ns} ns total",
    ]
    return "\n".join(header) + "\n" + disassemble(program.insns)
