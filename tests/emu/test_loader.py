"""GAS parser tests: operands, lines, and generator round trips."""

import numpy as np
import pytest

from repro.core.framework import Augem
from repro.emu.loader import (
    AsmParseError,
    parse_gas,
    parse_gas_function,
    parse_line,
    parse_operand,
)
from repro.emu.run import call_items
from repro.isa.arch import GENERIC_SSE, HASWELL, PILEDRIVER, SANDYBRIDGE
from repro.isa.instructions import Comment, Directive, Instr, Label
from repro.isa.operands import Imm, LabelRef, Mem
from repro.isa.registers import GP, vec, xmm, ymm


# -- operands --------------------------------------------------------------

def test_register_operand():
    assert parse_operand("%rax") == GP["rax"]
    assert parse_operand("%ymm7") == ymm(7)
    assert parse_operand("%xmm0") == xmm(0)
    assert parse_operand("%zmm31") == vec(31, 64)


def test_immediate_operand():
    assert parse_operand("$42") == Imm(42)
    assert parse_operand("$-8") == Imm(-8)
    assert parse_operand("$0x10") == Imm(16)


def test_memory_operands():
    assert parse_operand("(%rax)") == Mem(base=GP["rax"])
    assert parse_operand("16(%rsp)") == Mem(base=GP["rsp"], disp=16)
    assert parse_operand("-8(%rbp)") == Mem(base=GP["rbp"], disp=-8)
    assert parse_operand("(%rax,%rbx,8)") == Mem(
        base=GP["rax"], index=GP["rbx"], scale=8)
    assert parse_operand("24(%rdi,%rcx,4)") == Mem(
        base=GP["rdi"], index=GP["rcx"], scale=4, disp=24)


def test_label_operand():
    assert parse_operand(".L_f_body1") == LabelRef(".L_f_body1")


def test_bad_operand_raises():
    with pytest.raises(AsmParseError):
        parse_operand("%zmm32")  # the AVX-512 file ends at zmm31
    with pytest.raises(AsmParseError):
        parse_operand("$xyz")


# -- lines --------------------------------------------------------------------

def test_instruction_line():
    item = parse_line("\tvfmadd231pd\t%ymm0, %ymm4, %ymm8")
    assert isinstance(item, Instr)
    assert item.mnemonic == "vfmadd231pd"
    assert item.operands == (ymm(0), ymm(4), ymm(8))


def test_comment_stripped():
    item = parse_line("\tadd\t$8, %rsi\t# ptr_B0 += 1")
    assert isinstance(item, Instr) and item.operands[0] == Imm(8)


def test_size_suffix_stripped():
    item = parse_line("\taddq\t$16, 8(%rsp)")
    assert item.mnemonic == "add"


def test_label_line():
    assert parse_line(".L_f_check2:") == Label(".L_f_check2")
    assert parse_line("dgemm_kernel:") == Label("dgemm_kernel")


def test_directive_line():
    item = parse_line("\t.globl dgemm_kernel")
    assert isinstance(item, Directive)


def test_blank_and_comment_lines():
    assert parse_line("   ") is None
    assert isinstance(parse_line("\t# just a note"), Comment)


def test_unknown_mnemonic_raises():
    with pytest.raises(AsmParseError):
        parse_line("\tbogus\t%rax")


def test_parse_gas_reports_line_number():
    with pytest.raises(AsmParseError) as exc:
        parse_gas("nop\nnop\nbogus %rax\n")
    assert "line 3" in str(exc.value)


# -- round trips -----------------------------------------------------------------

@pytest.mark.parametrize("arch", [GENERIC_SSE, SANDYBRIDGE, HASWELL,
                                  PILEDRIVER], ids=lambda a: a.name)
@pytest.mark.parametrize("kernel", ["gemm", "dot", "axpy", "gemv"])
def test_emitted_text_reparses_identically(arch, kernel):
    gk = Augem(arch=arch).generate_named(kernel)
    parsed = [i for i in parse_gas_function(gk.asm_text)
              if isinstance(i, Instr)]
    original = [i for i in gk.items if isinstance(i, Instr)]
    assert len(parsed) == len(original)
    for p, o in zip(parsed, original):
        assert p.mnemonic == o.mnemonic
        assert p.operands == o.operands


def test_parsed_text_executes_in_emulator(rng):
    gk = Augem(arch=HASWELL).generate_named("axpy")
    items = parse_gas_function(gk.asm_text)
    n = 32
    x = rng.standard_normal(n)
    y = rng.standard_normal(n)
    ref = y + 2.0 * x
    call_items(items, [n, 2.0, x, y])
    assert np.allclose(y, ref)
