"""A label-aware assembler for building eBPF programs in Python.

The vNetTracer script compiler (:mod:`repro.core.compiler`) emits its
filter-and-record programs through this DSL.  Usage:

    asm = Assembler()
    asm.ldx_w(R2, R1, CTX_OFF_SRC_IP)
    asm.jne_imm(R2, rule_src_ip, "miss")
    ...
    asm.label("miss")
    asm.mov_imm(R0, 0)
    asm.exit_()
    program = asm.assemble()

Jump offsets are resolved from labels at :meth:`assemble` time; emitting
a backward jump raises immediately, mirroring the verifier's DAG rule.
"""

from __future__ import annotations

from typing import Dict, List, Tuple, Union

from repro.ebpf import isa
from repro.ebpf.isa import Instruction

LabelOrOffset = Union[str, int]


class AssemblerError(ValueError):
    """Raised for malformed assembly (duplicate/unknown labels, ...)."""


class Assembler:
    """Collects instructions and fixes up label-based jump offsets."""

    def __init__(self) -> None:
        self._insns: List[Tuple[Instruction, LabelOrOffset]] = []
        self._labels: Dict[str, int] = {}

    # -- layout ----------------------------------------------------------

    def label(self, name: str) -> "Assembler":
        """Define a jump target at the next instruction."""
        if name in self._labels:
            raise AssemblerError(f"duplicate label {name!r}")
        self._labels[name] = len(self._insns)
        return self

    def _emit(self, insn: Instruction, target: LabelOrOffset = 0) -> "Assembler":
        self._insns.append((insn, target))
        return self

    # -- ALU64 -------------------------------------------------------------

    def _alu(self, op: int, dst: int, cls: int, src: int = 0, imm: int = 0, use_reg: bool = False):
        source = isa.BPF_X if use_reg else isa.BPF_K
        return self._emit(Instruction(cls | source | op, dst=dst, src=src, imm=imm))

    def mov_imm(self, dst: int, imm: int):
        """dst = imm (sign-extended 32-bit immediate)."""
        return self._alu(isa.BPF_MOV, dst, isa.BPF_ALU64, imm=imm)

    def mov_reg(self, dst: int, src: int):
        return self._alu(isa.BPF_MOV, dst, isa.BPF_ALU64, src=src, use_reg=True)

    def add_imm(self, dst: int, imm: int):
        return self._alu(isa.BPF_ADD, dst, isa.BPF_ALU64, imm=imm)

    def add_reg(self, dst: int, src: int):
        return self._alu(isa.BPF_ADD, dst, isa.BPF_ALU64, src=src, use_reg=True)

    def sub_imm(self, dst: int, imm: int):
        return self._alu(isa.BPF_SUB, dst, isa.BPF_ALU64, imm=imm)

    def sub_reg(self, dst: int, src: int):
        return self._alu(isa.BPF_SUB, dst, isa.BPF_ALU64, src=src, use_reg=True)

    def mul_imm(self, dst: int, imm: int):
        return self._alu(isa.BPF_MUL, dst, isa.BPF_ALU64, imm=imm)

    def div_imm(self, dst: int, imm: int):
        return self._alu(isa.BPF_DIV, dst, isa.BPF_ALU64, imm=imm)

    def mod_imm(self, dst: int, imm: int):
        return self._alu(isa.BPF_MOD, dst, isa.BPF_ALU64, imm=imm)

    def and_imm(self, dst: int, imm: int):
        return self._alu(isa.BPF_AND, dst, isa.BPF_ALU64, imm=imm)

    def or_imm(self, dst: int, imm: int):
        return self._alu(isa.BPF_OR, dst, isa.BPF_ALU64, imm=imm)

    def xor_reg(self, dst: int, src: int):
        return self._alu(isa.BPF_XOR, dst, isa.BPF_ALU64, src=src, use_reg=True)

    def lsh_imm(self, dst: int, imm: int):
        return self._alu(isa.BPF_LSH, dst, isa.BPF_ALU64, imm=imm)

    def rsh_imm(self, dst: int, imm: int):
        return self._alu(isa.BPF_RSH, dst, isa.BPF_ALU64, imm=imm)

    def neg(self, dst: int):
        return self._alu(isa.BPF_NEG, dst, isa.BPF_ALU64)

    # -- ALU32 ---------------------------------------------------------------

    def mov32_imm(self, dst: int, imm: int):
        """dst = imm, upper 32 bits zeroed."""
        return self._alu(isa.BPF_MOV, dst, isa.BPF_ALU, imm=imm)

    def add32_imm(self, dst: int, imm: int):
        return self._alu(isa.BPF_ADD, dst, isa.BPF_ALU, imm=imm)

    # -- memory ----------------------------------------------------------------

    def _size_bits(self, size: int) -> int:
        sizes = {1: isa.BPF_B, 2: isa.BPF_H, 4: isa.BPF_W, 8: isa.BPF_DW}
        if size not in sizes:
            raise AssemblerError(f"bad access size {size}")
        return sizes[size]

    def ldx(self, size: int, dst: int, src: int, offset: int = 0):
        """dst = *(size*)(src + offset)"""
        opcode = isa.BPF_LDX | isa.BPF_MEM | self._size_bits(size)
        return self._emit(Instruction(opcode, dst=dst, src=src, offset=offset))

    def ldx_b(self, dst: int, src: int, offset: int = 0):
        return self.ldx(1, dst, src, offset)

    def ldx_h(self, dst: int, src: int, offset: int = 0):
        return self.ldx(2, dst, src, offset)

    def ldx_w(self, dst: int, src: int, offset: int = 0):
        return self.ldx(4, dst, src, offset)

    def ldx_dw(self, dst: int, src: int, offset: int = 0):
        return self.ldx(8, dst, src, offset)

    def stx(self, size: int, dst: int, src: int, offset: int = 0):
        """*(size*)(dst + offset) = src"""
        opcode = isa.BPF_STX | isa.BPF_MEM | self._size_bits(size)
        return self._emit(Instruction(opcode, dst=dst, src=src, offset=offset))

    def stx_b(self, dst: int, src: int, offset: int = 0):
        return self.stx(1, dst, src, offset)

    def stx_h(self, dst: int, src: int, offset: int = 0):
        return self.stx(2, dst, src, offset)

    def stx_w(self, dst: int, src: int, offset: int = 0):
        return self.stx(4, dst, src, offset)

    def stx_dw(self, dst: int, src: int, offset: int = 0):
        return self.stx(8, dst, src, offset)

    def st_imm(self, size: int, dst: int, offset: int, imm: int):
        """*(size*)(dst + offset) = imm"""
        opcode = isa.BPF_ST | isa.BPF_MEM | self._size_bits(size)
        return self._emit(Instruction(opcode, dst=dst, offset=offset, imm=imm))

    def ld_map_fd(self, dst: int, map_fd: int):
        """Two-slot LD_IMM64 loading a map reference (BPF_PSEUDO_MAP_FD)."""
        opcode = isa.BPF_LD | isa.BPF_IMM | isa.BPF_DW
        self._emit(Instruction(opcode, dst=dst, src=isa.BPF_PSEUDO_MAP_FD, imm=map_fd))
        return self._emit(Instruction(0, imm=0))

    def ld_imm64(self, dst: int, value: int):
        """Two-slot LD_IMM64 loading a full 64-bit constant."""
        opcode = isa.BPF_LD | isa.BPF_IMM | isa.BPF_DW
        low = value & 0xFFFFFFFF
        high = (value >> 32) & 0xFFFFFFFF
        self._emit(Instruction(opcode, dst=dst, imm=low))
        return self._emit(Instruction(0, imm=high))

    # -- jumps -----------------------------------------------------------------

    def _jmp(
        self,
        op: int,
        target: LabelOrOffset,
        dst: int = 0,
        src: int = 0,
        imm: int = 0,
        use_reg: bool = False,
    ):
        source = isa.BPF_X if use_reg else isa.BPF_K
        insn = Instruction(isa.BPF_JMP | source | op, dst=dst, src=src, imm=imm)
        return self._emit(insn, target)

    def ja(self, target: LabelOrOffset):
        return self._jmp(isa.BPF_JA, target)

    def jeq_imm(self, dst: int, imm: int, target: LabelOrOffset):
        return self._jmp(isa.BPF_JEQ, target, dst=dst, imm=imm)

    def jne_imm(self, dst: int, imm: int, target: LabelOrOffset):
        return self._jmp(isa.BPF_JNE, target, dst=dst, imm=imm)

    def jgt_imm(self, dst: int, imm: int, target: LabelOrOffset):
        return self._jmp(isa.BPF_JGT, target, dst=dst, imm=imm)

    def jge_imm(self, dst: int, imm: int, target: LabelOrOffset):
        return self._jmp(isa.BPF_JGE, target, dst=dst, imm=imm)

    def jlt_imm(self, dst: int, imm: int, target: LabelOrOffset):
        return self._jmp(isa.BPF_JLT, target, dst=dst, imm=imm)

    def jle_imm(self, dst: int, imm: int, target: LabelOrOffset):
        return self._jmp(isa.BPF_JLE, target, dst=dst, imm=imm)

    def jset_imm(self, dst: int, imm: int, target: LabelOrOffset):
        return self._jmp(isa.BPF_JSET, target, dst=dst, imm=imm)

    def jeq_reg(self, dst: int, src: int, target: LabelOrOffset):
        return self._jmp(isa.BPF_JEQ, target, dst=dst, src=src, use_reg=True)

    def jne_reg(self, dst: int, src: int, target: LabelOrOffset):
        return self._jmp(isa.BPF_JNE, target, dst=dst, src=src, use_reg=True)

    def jgt_reg(self, dst: int, src: int, target: LabelOrOffset):
        return self._jmp(isa.BPF_JGT, target, dst=dst, src=src, use_reg=True)

    def jge_reg(self, dst: int, src: int, target: LabelOrOffset):
        return self._jmp(isa.BPF_JGE, target, dst=dst, src=src, use_reg=True)

    def call(self, helper_id: int):
        return self._emit(Instruction(isa.BPF_JMP | isa.BPF_CALL, imm=helper_id))

    def exit_(self):
        return self._emit(Instruction(isa.BPF_JMP | isa.BPF_EXIT))

    # -- assembly ---------------------------------------------------------------

    def assemble(self) -> List[Instruction]:
        """Resolve labels to relative offsets and return the instruction list."""
        program: List[Instruction] = []
        for index, (insn, target) in enumerate(self._insns):
            cls = insn.insn_class
            is_jump = cls == isa.BPF_JMP and insn.alu_op not in (isa.BPF_CALL, isa.BPF_EXIT)
            if not is_jump:
                program.append(insn)
                continue
            if isinstance(target, str):
                if target not in self._labels:
                    raise AssemblerError(f"unknown label {target!r}")
                offset = self._labels[target] - index - 1
            else:
                offset = int(target)
            if offset < 0:
                raise AssemblerError(
                    f"backward jump at insn {index} (offset {offset}); programs must be DAGs"
                )
            program.append(insn._replace(offset=offset))
        return program
