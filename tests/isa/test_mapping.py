"""Instruction mapping rule tests — paper Tables 1, 2, 3, 4 row by row."""

import pytest

from repro.isa.arch import (GENERIC_SSE, HASWELL, PILEDRIVER, SANDYBRIDGE,
                            SKYLAKE_X)
from repro.isa.mapping import MappingRules
from repro.isa.operands import Imm, Mem
from repro.isa.registers import GP, xmm

M = Mem(base=GP["rax"], disp=8)
R0, R1, R2, R3 = xmm(0), xmm(1), xmm(2), xmm(3)


def mnems(instrs):
    return [i.mnemonic for i in instrs]


# -- Table 1 line 1: Load ------------------------------------------------------

def test_load_scalar_sse_vs_avx():
    assert mnems(MappingRules(GENERIC_SSE).load_scalar(M, R1)) == ["movsd"]
    assert mnems(MappingRules(SANDYBRIDGE).load_scalar(M, R1)) == ["vmovsd"]


# -- Table 1 lines 2-4: Mul+Add -----------------------------------------------

def test_mul_add_sse_three_instructions():
    out = MappingRules(GENERIC_SSE).mul_add_scalar(R0, R1, R3, tmp=R2)
    assert mnems(out) == ["movapd", "mulsd", "addsd"]  # Mov r1,r2; Mul; Add


def test_mul_add_avx_two_instructions():
    out = MappingRules(SANDYBRIDGE).mul_add_scalar(R0, R1, R3, tmp=R2)
    assert mnems(out) == ["vmulsd", "vaddsd"]


def test_mul_add_fma3_single_instruction():
    out = MappingRules(HASWELL).mul_add_scalar(R0, R1, R3)
    assert mnems(out) == ["vfmadd231sd"]


def test_mul_add_fma4_single_instruction():
    out = MappingRules(PILEDRIVER).mul_add_scalar(R0, R1, R3)
    assert mnems(out) == ["vfmaddsd"]
    assert len(out[0].operands) == 4  # the four-operand AMD form


def test_vmul_add_packed_variants():
    assert mnems(MappingRules(GENERIC_SSE).vmul_add(R0, R1, R3, tmp=R2)) == [
        "movapd", "mulpd", "addpd"]
    assert mnems(MappingRules(SANDYBRIDGE).vmul_add(R0, R1, R3, tmp=R2)) == [
        "vmulpd", "vaddpd"]
    assert mnems(MappingRules(HASWELL).vmul_add(R0, R1, R3)) == ["vfmadd231pd"]
    assert mnems(MappingRules(PILEDRIVER).vmul_add(R0, R1, R3)) == ["vfmaddpd"]


def test_non_fma_requires_temp():
    with pytest.raises(AssertionError):
        MappingRules(GENERIC_SSE).mul_add_scalar(R0, R1, R3)


# -- Table 2: mmSTORE ----------------------------------------------------------

def test_store_scalar():
    assert mnems(MappingRules(GENERIC_SSE).store_scalar(R1, M)) == ["movsd"]
    assert mnems(MappingRules(HASWELL).store_scalar(R1, M)) == ["vmovsd"]


def test_add_scalar_two_vs_three_operand():
    sse = MappingRules(GENERIC_SSE).add_scalar(R1, R2)
    assert mnems(sse) == ["addsd"] and len(sse[0].operands) == 2
    avx = MappingRules(SANDYBRIDGE).add_scalar(R1, R2)
    assert mnems(avx) == ["vaddsd"] and len(avx[0].operands) == 3


# -- Table 4: Vld / Vdup / Shuf ------------------------------------------------

def test_vload_width_follows_arch():
    sse = MappingRules(GENERIC_SSE).vload(M, R1)
    assert sse[0].operands[1].width == 16
    avx = MappingRules(HASWELL).vload(M, R1)
    assert avx[0].operands[1].width == 32


def test_vdup_selection():
    assert mnems(MappingRules(GENERIC_SSE).vdup(M, R1)) == ["movddup"]
    assert mnems(MappingRules(SANDYBRIDGE).vdup(M, R1)) == ["vbroadcastsd"]
    narrow = MappingRules(
        SANDYBRIDGE.__class__(name="avx128", simd="avx", vector_bytes=16))
    assert mnems(narrow.vdup(M, R1)) == ["vmovddup"]


def test_shuf_swap_adjacent():
    sse = MappingRules(GENERIC_SSE).shuf_swap_adjacent(R1, R1)
    assert mnems(sse) == ["shufpd"]
    assert sse[0].operands[0] == Imm(1)
    avx = MappingRules(HASWELL).shuf_swap_adjacent(R1, R2)
    assert mnems(avx) == ["vpermilpd"]
    assert avx[0].operands[0] == Imm(5)  # swap within both 128-bit lanes


def test_shuf_swap_lanes_avx_only():
    out = MappingRules(HASWELL).shuf_swap_lanes(R1, R2)
    assert mnems(out) == ["vperm2f128"]
    with pytest.raises(ValueError):
        MappingRules(GENERIC_SSE).shuf_swap_lanes(R1, R2)


def test_shufpd_combine_sse_copies_when_needed():
    out = MappingRules(GENERIC_SSE).shufpd_combine(2, R1, R2, R3)
    assert mnems(out) == ["movapd", "shufpd"]
    out2 = MappingRules(GENERIC_SSE).shufpd_combine(2, R3, R2, R3)
    assert mnems(out2) == ["shufpd"]  # dst aliases first source


def test_zero_idioms():
    assert mnems(MappingRules(GENERIC_SSE).vzero(R1)) == ["xorpd"]
    assert mnems(MappingRules(HASWELL).vzero(R1)) == ["vxorpd"]


def test_zmm_zero_idiom_is_vex_below_16_and_evex_above():
    rules = MappingRules(SKYLAKE_X)
    low, = rules.vzero(xmm(15))
    assert str(low) == "vxorpd\t%xmm15, %xmm15, %xmm15"
    high, = rules.vzero(xmm(16))
    assert str(high) == "vpxord\t%zmm16, %zmm16, %zmm16"
    assert low.unencodable_register() is None
    assert high.unencodable_register() is None


def test_hreduce_shapes():
    sse = MappingRules(GENERIC_SSE).hreduce_to_scalar(R1, R2)
    assert mnems(sse) == ["movapd", "unpckhpd", "addsd"]
    avx = MappingRules(HASWELL).hreduce_to_scalar(R1, R2)
    assert mnems(avx) == ["vextractf128", "vaddpd", "vunpckhpd", "vaddsd"]


def test_vmul_into_sse_avoids_self_copy():
    out = MappingRules(GENERIC_SSE).vmul_into(R1, R2, R1)
    assert mnems(out) == ["mulpd"]
    out2 = MappingRules(GENERIC_SSE).vmul_into(R1, R2, R3)
    assert mnems(out2) == ["movapd", "mulpd"]
