"""Instruction IR tests: operand roles, dependence info, item stream."""

import pytest

from repro.isa.instructions import (
    Comment,
    Directive,
    Instr,
    Label,
    instr,
    instructions_of,
)
from repro.isa.operands import Imm, LabelRef, Mem
from repro.isa.registers import GP, RSP, vec, xmm, ymm

RAX, RBX = GP["rax"], GP["rbx"]


def test_registers_16_to_31_need_an_avx512f_encoding():
    z16, z3 = vec(16, 64), vec(3, 64)
    # EVEX forms at the widths AVX512F encodes
    for ins in (instr("vfmadd231pd", z3, z16, z16),
                instr("vpxord", z16, z16, z16),
                instr("vaddsd", xmm(17), xmm(17), xmm(17)),
                instr("vextractf64x4", Imm(1), z16, ymm(18))):
        assert ins.unencodable_register() is None, ins
    # VEX-only forms, 256-bit forms (AVX512VL), and legacy SSE
    for ins in (instr("vextractf128", Imm(1), ymm(16), xmm(1)),
                instr("vxorpd", xmm(16), xmm(16), xmm(16)),
                instr("vaddpd", ymm(1), ymm(20), ymm(1)),
                instr("addpd", xmm(1), xmm(16))):
        assert ins.unencodable_register() is not None, ins
    # registers 0-15 are never the problem
    assert instr("vextractf128", Imm(1), ymm(15), xmm(1)) \
        .unencodable_register() is None


def test_unknown_mnemonic_rejected():
    with pytest.raises(ValueError):
        instr("frobnicate", RAX)


def test_operand_count_checked():
    with pytest.raises(ValueError):
        instr("mov", RAX)  # mov needs two operands


def test_mov_reads_and_writes():
    i = instr("mov", RAX, RBX)
    assert RAX in i.reg_reads()
    assert i.reg_writes() == [RBX]


def test_rmw_destination_is_read_and_written():
    i = instr("add", RAX, RBX)
    assert RBX in i.reg_reads() and RBX in i.reg_writes()


def test_mem_base_index_are_reads():
    m = Mem(base=RAX, index=RBX, scale=8)
    i = instr("vmovupd", m, ymm(0))
    reads = i.reg_reads()
    assert RAX in reads and RBX in reads
    assert i.loads_mem() == [m]


def test_store_detected():
    m = Mem(base=RAX)
    i = instr("vmovupd", ymm(1), m)
    assert i.stores_mem() == [m]
    assert i.loads_mem() == []


def test_prefetch_not_a_memory_load():
    i = instr("prefetcht0", Mem(base=RAX))
    assert i.loads_mem() == []


def test_push_pop_implicit_rsp_and_memory():
    p = instr("push", RBX)
    assert RSP in p.reg_reads() and RSP in p.reg_writes()
    assert p.stores_mem()
    q = instr("pop", RBX)
    assert q.loads_mem() and RSP in q.reg_writes()


def test_avx_three_operand_write_only_dest():
    i = instr("vaddpd", ymm(0), ymm(1), ymm(2))
    assert ymm(2) not in i.reg_reads()
    assert i.reg_writes() == [ymm(2)]


def test_fma_dest_is_read_modify_write():
    i = instr("vfmadd231pd", ymm(0), ymm(1), ymm(2))
    assert ymm(2) in i.reg_reads() and ymm(2) in i.reg_writes()


def test_flags_metadata():
    assert instr("cmp", RAX, RBX).info.writes_flags
    assert instr("jl", LabelRef("x")).info.reads_flags
    assert instr("jl", LabelRef("x")).info.is_branch


def test_instructions_of_filters_stream():
    items = [Label("top"), instr("nop"), Comment("hi"),
             Directive(".text"), instr("ret")]
    assert len(instructions_of(items)) == 2


def test_str_renders_att():
    i = instr("vmovupd", Mem(base=RAX, disp=32), ymm(4))
    assert "vmovupd" in str(i) and "32(%rax)" in str(i) and "%ymm4" in str(i)


def test_comment_in_str():
    i = instr("nop", comment="hello")
    assert "# hello" in str(i)
