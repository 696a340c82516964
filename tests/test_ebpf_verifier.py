"""The verifier's accept/reject catalogue."""

import pytest

from repro.ebpf import isa
from repro.ebpf.assembler import Assembler
from repro.ebpf.isa import Instruction, R0, R1, R2, R3, R5, R6, R9, R10
from repro.ebpf.verifier import VerifierError, verify


def _minimal():
    asm = Assembler()
    asm.mov_imm(R0, 0)
    asm.exit_()
    return asm


class TestAccepts:
    def test_minimal_program(self):
        verify(_minimal().assemble())

    def test_branching_program(self):
        asm = Assembler()
        asm.ldx_w(R2, R1, 0)
        asm.jeq_imm(R2, 1, "yes")
        asm.mov_imm(R0, 0)
        asm.exit_()
        asm.label("yes")
        asm.mov_imm(R0, 1)
        asm.exit_()
        verify(asm.assemble())

    def test_helper_call_with_args(self):
        asm = Assembler()
        asm.call(5)  # ktime: zero args
        asm.exit_()
        verify(asm.assemble())

    def test_stack_access_within_frame(self):
        asm = Assembler()
        asm.mov_imm(R2, 7)
        asm.stx_dw(R10, R2, -8)
        asm.ldx_dw(R0, R10, -512)
        asm.exit_()
        verify(asm.assemble())

    def test_ld_imm64(self):
        asm = Assembler()
        asm.ld_imm64(R0, 1 << 40)
        asm.exit_()
        verify(asm.assemble())


class TestRejects:
    def test_empty_program(self):
        with pytest.raises(VerifierError, match="empty"):
            verify([])

    def test_too_large_program(self):
        asm = Assembler()
        for _ in range(isa.MAX_INSNS):
            asm.mov_imm(R0, 0)
        asm.exit_()
        with pytest.raises(VerifierError, match="too large"):
            verify(asm.assemble())

    def test_exactly_4096_allowed(self):
        asm = Assembler()
        for _ in range(isa.MAX_INSNS - 2):
            asm.mov_imm(R0, 0)
        asm.mov_imm(R0, 1)
        asm.exit_()
        verify(asm.assemble())

    def test_fallthrough_off_end(self):
        with pytest.raises(VerifierError, match="falls off"):
            verify([Instruction(isa.BPF_ALU64 | isa.BPF_MOV | isa.BPF_K, dst=R0, imm=0)])

    def test_backward_jump(self):
        insns = [
            Instruction(isa.BPF_ALU64 | isa.BPF_MOV | isa.BPF_K, dst=R0, imm=0),
            Instruction(isa.BPF_JMP | isa.BPF_JA, offset=-2),
        ]
        with pytest.raises(VerifierError, match="backward"):
            verify(insns)

    def test_jump_out_of_bounds(self):
        insns = [
            Instruction(isa.BPF_ALU64 | isa.BPF_MOV | isa.BPF_K, dst=R0, imm=0),
            Instruction(isa.BPF_JMP | isa.BPF_JA, offset=5),
            Instruction(isa.BPF_JMP | isa.BPF_EXIT),
        ]
        with pytest.raises(VerifierError, match="out of bounds|falls off"):
            verify(insns)

    def test_unreachable_code(self):
        asm = Assembler()
        asm.mov_imm(R0, 0)
        asm.exit_()
        asm.mov_imm(R0, 1)  # dead
        asm.exit_()
        with pytest.raises(VerifierError, match="unreachable"):
            verify(asm.assemble())

    def test_write_to_frame_pointer(self):
        insns = [
            Instruction(isa.BPF_ALU64 | isa.BPF_MOV | isa.BPF_K, dst=R10, imm=0),
        ]
        with pytest.raises(VerifierError, match="frame pointer"):
            verify(insns)

    def test_uninitialized_register_read(self):
        asm = Assembler()
        asm.mov_reg(R0, R6)  # R6 never written
        asm.exit_()
        with pytest.raises(VerifierError, match="uninitialized"):
            verify(asm.assemble())

    @pytest.mark.parametrize("op", [isa.BPF_NEG, isa.BPF_END], ids=["neg", "end"])
    def test_neg_and_end_read_their_destination(self, op):
        # Linux's check_alu_op checks dst_reg as a source for both ops:
        # negating or byte-swapping an unset register reads it.
        program = [
            Instruction(isa.BPF_ALU | op | isa.BPF_K, dst=R3, imm=32),
            Instruction(isa.BPF_ALU64 | isa.BPF_MOV | isa.BPF_X, dst=R0, src=R3),
            Instruction(isa.BPF_JMP | isa.BPF_EXIT),
        ]
        with pytest.raises(VerifierError, match=r"insn 0: .* register r3 \(dst\)"):
            verify(program)
        verify([Instruction(isa.BPF_ALU64 | isa.BPF_MOV | isa.BPF_K, dst=R3, imm=5)] + program)

    def test_r0_uninitialized_at_exit(self):
        asm = Assembler()
        asm.mov_imm(R2, 1)
        asm.exit_()
        with pytest.raises(VerifierError, match="R0 at exit"):
            verify(asm.assemble())

    def test_merge_requires_init_on_all_paths(self):
        asm = Assembler()
        asm.jeq_imm(R1, 0, "skip")  # one path initializes R6, one does not
        asm.mov_imm(R6, 5)
        asm.label("skip")
        asm.mov_reg(R0, R6)
        asm.exit_()
        with pytest.raises(VerifierError, match="uninitialized"):
            verify(asm.assemble())

    def test_call_clobbers_caller_saved(self):
        asm = Assembler()
        asm.mov_imm(R2, 1)
        asm.call(5)
        asm.mov_reg(R0, R2)  # R2 was clobbered by the call
        asm.exit_()
        with pytest.raises(VerifierError, match="uninitialized"):
            verify(asm.assemble())

    def test_call_preserves_callee_saved(self):
        asm = Assembler()
        asm.mov_imm(R6, 1)
        asm.call(5)
        asm.mov_reg(R0, R6)
        asm.exit_()
        verify(asm.assemble())

    def test_unknown_helper(self):
        asm = Assembler()
        asm.call(9999)
        asm.exit_()
        with pytest.raises(VerifierError, match="unknown helper"):
            verify(asm.assemble())

    def test_helper_args_must_be_initialized(self):
        asm = Assembler()
        asm.call(1)  # map_lookup needs R1, R2; R2 is uninitialized
        asm.exit_()
        with pytest.raises(VerifierError, match="helper arg"):
            verify(asm.assemble())

    def test_division_by_constant_zero(self):
        asm = Assembler()
        asm.mov_imm(R0, 4)
        asm.div_imm(R0, 0)
        asm.exit_()
        with pytest.raises(VerifierError, match="division"):
            verify(asm.assemble())

    def test_shift_amount_out_of_range(self):
        asm = Assembler()
        asm.mov_imm(R0, 1)
        asm.lsh_imm(R0, 64)
        asm.exit_()
        with pytest.raises(VerifierError, match="shift"):
            verify(asm.assemble())

    def test_stack_out_of_frame(self):
        asm = Assembler()
        asm.mov_imm(R2, 0)
        asm.stx_w(R10, R2, -516)
        asm.mov_imm(R0, 0)
        asm.exit_()
        with pytest.raises(VerifierError, match="outside the 512-byte frame"):
            verify(asm.assemble())

    def test_stack_positive_offset_rejected(self):
        asm = Assembler()
        asm.ldx_w(R0, R10, 8)
        asm.exit_()
        with pytest.raises(VerifierError, match="outside the 512-byte frame"):
            verify(asm.assemble())

    def test_jump_into_ld_imm64_pair(self):
        insns = [
            Instruction(isa.BPF_JMP | isa.BPF_JA, offset=1),  # into second slot
            Instruction(isa.BPF_LD | isa.BPF_IMM | isa.BPF_DW, dst=R0, imm=1),
            Instruction(0, imm=0),
            Instruction(isa.BPF_JMP | isa.BPF_EXIT),
        ]
        with pytest.raises(VerifierError):
            verify(insns)

    def test_ld_imm64_missing_second_slot(self):
        insns = [Instruction(isa.BPF_LD | isa.BPF_IMM | isa.BPF_DW, dst=R0, imm=1)]
        with pytest.raises(VerifierError, match="second slot"):
            verify(insns)

    def test_malformed_second_slot(self):
        insns = [
            Instruction(isa.BPF_LD | isa.BPF_IMM | isa.BPF_DW, dst=R0, imm=1),
            Instruction(0, dst=R3, imm=0),
            Instruction(isa.BPF_JMP | isa.BPF_EXIT),
        ]
        with pytest.raises(VerifierError, match="malformed"):
            verify(insns)

    def test_register_out_of_range(self):
        with pytest.raises(VerifierError, match="register out of range"):
            verify([Instruction(isa.BPF_ALU64 | isa.BPF_MOV | isa.BPF_K, dst=12, imm=0)])


class TestPointerTypes:
    """The register-type dataflow: what it proves, and what it rejects."""

    def _load_through(self, setup, offset=0, size="w"):
        """``setup(asm)`` prepares R2, then ``r0 = *(size*)(r2 + offset)``."""
        asm = Assembler()
        setup(asm)
        getattr(asm, f"ldx_{size}")(R0, R2, offset)
        asm.exit_()
        insns = asm.assemble()
        return insns, len(insns) - 2

    def test_frame_pointer_copy_out_of_frame_rejected(self):
        # mov r2, r10; ldx r0, [r2+8] -- verified, then faulted, before.
        insns, _ = self._load_through(lambda asm: asm.mov_reg(R2, R10), offset=8, size="dw")
        with pytest.raises(VerifierError, match=r"fp\+8 size 8 outside the 512-byte frame"):
            verify(insns)

    def test_frame_pointer_copy_below_frame_rejected(self):
        def setup(asm):
            asm.mov_reg(R2, R10)
            asm.add_imm(R2, -510)

        insns, _ = self._load_through(setup, offset=-4)
        with pytest.raises(VerifierError, match=r"fp-514 size 4 outside the 512-byte frame"):
            verify(insns)

    def test_frame_pointer_copy_in_frame_is_typed(self):
        def setup(asm):
            asm.st_imm(8, R10, -16, 7)
            asm.mov_reg(R2, R10)
            asm.add_imm(R2, -24)
            asm.sub_imm(R2, -8)

        insns, load = self._load_through(setup, size="dw")
        assert verify(insns).reg_types[load][R2] == ("fp", -16)

    @pytest.mark.parametrize("delta,offset,size", [(0, 56, "b"), (52, 0, "dw"), (-4, 0, "w")])
    def test_context_copy_out_of_context_rejected(self, delta, offset, size):
        def setup(asm):
            asm.mov_reg(R2, R1)
            asm.add_imm(R2, delta)

        insns, _ = self._load_through(setup, offset=offset, size=size)
        with pytest.raises(VerifierError, match="outside the 56-byte context"):
            verify(insns)

    def test_store_through_context_copy_is_checked_too(self):
        asm = Assembler()
        asm.mov_reg(R6, R1)
        asm.st_imm(8, R6, 52, 1)
        asm.mov_imm(R0, 0)
        asm.exit_()
        with pytest.raises(VerifierError, match=r"ctx\+52 size 8 outside the 56-byte context"):
            verify(asm.assemble())

    def test_last_context_byte_is_in_bounds(self):
        insns, load = self._load_through(lambda asm: asm.mov_reg(R2, R1), offset=55, size="b")
        assert verify(insns).reg_types[load][R2] == ("ctx", 0)

    def test_pointer_plus_unknown_register_is_unproven(self):
        # Pointer + a value the verifier cannot see: no type, no
        # rejection -- the access keeps its run-time check.
        def setup(asm):
            asm.ldx_w(R3, R1, 0)
            asm.mov_reg(R2, R10)
            asm.add_reg(R2, R3)

        insns, load = self._load_through(setup, offset=8)
        assert verify(insns).reg_types[load][R2] is None

    def test_constants_fold_through_mov_and_add(self):
        def setup(asm):
            asm.mov_imm(R3, 40)
            asm.add_imm(R3, 8)
            asm.mov_reg(R2, R1)
            asm.add_reg(R2, R3)

        insns, load = self._load_through(setup, size="dw")
        types = verify(insns).reg_types[load]
        assert types[R3] == ("const", 48) and types[R2] == ("ctx", 48)

    def test_data_pointers_load_as_packet_hints(self):
        def setup(asm):
            asm.ldx_dw(R2, R1, 48)  # data_end
            asm.sub_imm(R2, 4)

        insns, load = self._load_through(setup)
        assert verify(insns).reg_types[load][R2] == ("pkt", 0)

    def test_join_of_pointer_and_scalar_is_unknown(self):
        asm = Assembler()
        asm.ldx_w(R3, R1, 0)
        asm.mov_reg(R2, R1)
        asm.jeq_imm(R3, 0, "use")
        asm.mov_imm(R2, 64)
        asm.label("use")
        asm.ldx_w(R0, R2, 8)
        asm.exit_()
        insns = asm.assemble()
        assert verify(insns).reg_types[4][R2] is None

    def test_calls_clobber_types(self):
        asm = Assembler()
        asm.mov_reg(R6, R1)
        asm.mov_reg(R5, R10)
        asm.call(5)  # ktime_get_ns
        asm.mov_imm(R1, 0)
        asm.call(5)
        asm.mov_imm(R0, 0)
        asm.exit_()
        types = verify(asm.assemble()).reg_types
        assert types[2][R5] == ("fp", 0) and types[2][R6] == ("ctx", 0)
        assert types[4][R0] is None and types[4][R5] is None
        assert types[4][R1] == ("const", 0) and types[4][R6] == ("ctx", 0)
