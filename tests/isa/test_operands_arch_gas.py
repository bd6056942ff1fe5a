"""Operand rendering, architecture specs, and GAS emission tests."""

import pytest

from repro.isa.arch import (
    ALL_ARCHS,
    GENERIC_SSE,
    HASWELL,
    PILEDRIVER,
    SANDYBRIDGE,
    SKYLAKE_X,
    ArchSpec,
    detect_host,
    get_arch,
)
from repro.isa.gas import emit_function, emit_items
from repro.isa.instructions import Comment, Directive, Label, instr
from repro.isa.operands import Imm, Mem, mem
from repro.isa.registers import GP, RSP

RAX, RBX = GP["rax"], GP["rbx"]


# -- operands --------------------------------------------------------------

def test_imm_rendering():
    assert str(Imm(42)) == "$42"
    assert str(Imm(-8)) == "$-8"


def test_mem_full_form():
    m = Mem(base=RAX, disp=16, index=RBX, scale=8)
    assert str(m) == "16(%rax,%rbx,8)"


def test_mem_base_only():
    assert str(Mem(base=RAX)) == "(%rax)"


def test_mem_requires_base_or_index():
    with pytest.raises(ValueError):
        Mem()


def test_mem_scale_validation():
    with pytest.raises(ValueError):
        Mem(base=RAX, scale=3)


def test_mem_helper():
    assert mem(RAX, 8) == Mem(base=RAX, disp=8)


# -- arch specs -----------------------------------------------------------

def test_paper_platforms_modelled():
    assert SANDYBRIDGE.simd == "avx" and SANDYBRIDGE.fma is None
    assert PILEDRIVER.fma == "fma4"
    assert SANDYBRIDGE.l1d_bytes == 32 * 1024  # paper Table 5
    assert PILEDRIVER.l1d_bytes == 16 * 1024
    assert PILEDRIVER.l2_bytes == 2048 * 1024


def test_doubles_per_vector():
    assert GENERIC_SSE.doubles_per_vector == 2
    assert HASWELL.doubles_per_vector == 4
    assert SKYLAKE_X.doubles_per_vector == 8


def test_skylake_x_has_the_32_register_evex_file():
    # zmm16-31 are EVEX-only; AVX-512 targets have them, no other does
    assert SKYLAKE_X.simd == "avx" and SKYLAKE_X.fma == "fma3"
    assert SKYLAKE_X.vector_bytes == 64 and SKYLAKE_X.n_vector_regs == 32
    assert "avx512" in str(SKYLAKE_X)
    for arch in ALL_ARCHS.values():
        if arch is not SKYLAKE_X:
            assert arch.n_vector_regs == 16, arch.name


def test_arch_validation():
    with pytest.raises(ValueError):
        ArchSpec(name="bad", simd="neon")
    with pytest.raises(ValueError):
        ArchSpec(name="bad", simd="sse", vector_bytes=32)
    with pytest.raises(ValueError):
        ArchSpec(name="bad", simd="avx", fma="fma9")
    with pytest.raises(ValueError):
        ArchSpec(name="bad", simd="avx", vector_bytes=128)


def test_get_arch():
    assert get_arch("haswell") is HASWELL
    with pytest.raises(KeyError):
        get_arch("m68k")
    assert set(ALL_ARCHS) == {"sandybridge", "piledriver", "haswell",
                              "skylake_x", "generic_sse"}


def test_detect_host_never_fma4():
    host = detect_host()
    assert host.fma != "fma4"


def test_detect_host_fallback(tmp_path):
    assert detect_host(str(tmp_path / "missing")) is GENERIC_SSE


def test_detect_host_parses_flags(tmp_path):
    p = tmp_path / "cpuinfo"
    p.write_text("processor : 0\nflags : fpu sse2 avx\n")
    assert detect_host(str(p)) is SANDYBRIDGE
    p.write_text("flags : fpu sse2 avx avx2 fma\n")
    assert detect_host(str(p)) is HASWELL


# -- GAS emission ------------------------------------------------------------

def test_emit_items_kinds():
    text = emit_items([
        Label("top"),
        instr("mov", Imm(1), RAX),
        Comment("note"),
        Directive(".align 16"),
    ])
    lines = text.splitlines()
    assert lines[0] == "top:"
    assert lines[1] == "\tmov\t$1, %rax"
    assert lines[2] == "\t# note"
    assert lines[3] == "\t.align 16"


def test_size_suffix_for_imm_to_mem():
    text = emit_items([instr("add", Imm(16), Mem(base=RSP, disp=8))])
    assert "addq\t$16, 8(%rsp)" in text


def test_no_suffix_when_register_present():
    text = emit_items([instr("mov", RAX, Mem(base=RSP))])
    assert "mov\t%rax" in text and "movq" not in text


def test_emit_function_wrapper():
    text = emit_function("my_kernel", [instr("ret")])
    assert ".globl my_kernel" in text
    assert "my_kernel:" in text
    assert '.section .note.GNU-stack' in text
    assert ".size my_kernel" in text
