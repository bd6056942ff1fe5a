"""Register-file and ABI tests."""

import pytest

from repro.isa.registers import (
    ALLOCATABLE_GP,
    GP,
    RSP,
    SCRATCH_GP,
    Register,
    SysVABI,
    vec,
    xmm,
    ymm,
)


def test_register_str_att_syntax():
    assert str(GP["rax"]) == "%rax"
    assert str(xmm(3)) == "%xmm3"


def test_vector_index_shared_between_widths():
    assert xmm(5).index == 5
    assert ymm(5).index == 5
    assert xmm(5).as_width(32) == ymm(5)
    assert ymm(7).xmm == xmm(7)


def test_as_width_rejects_gp():
    with pytest.raises(ValueError):
        GP["rax"].as_width(32)


def test_vec_constructor():
    assert vec(2, 16) == xmm(2)
    assert vec(2, 32) == ymm(2)
    assert str(vec(2, 64)) == "%zmm2"
    with pytest.raises(ValueError):
        vec(2, 8)


def test_the_evex_only_registers_are_named():
    assert str(vec(31, 64)) == "%zmm31" and vec(31, 64).index == 31
    assert vec(16, 16).name == "xmm16" and vec(16, 64).xmm == xmm(16)
    with pytest.raises(KeyError):
        vec(32, 64)


def test_zmm_shares_index_with_xmm_and_ymm():
    z = xmm(9).as_width(64)
    assert z.name == "zmm9" and z.width == 64 and z.index == 9
    assert z.ymm == ymm(9) and z.xmm == xmm(9)


def test_allocatable_excludes_scratch_and_rsp():
    names = {r.name for r in ALLOCATABLE_GP}
    assert "rsp" not in names and "rax" not in names and "r11" not in names
    assert len(ALLOCATABLE_GP) == 13


def test_scratch_registers():
    assert {r.name for r in SCRATCH_GP} == {"rax", "r11"}


def test_callee_saved_classification():
    assert SysVABI.is_callee_saved(GP["rbx"])
    assert SysVABI.is_callee_saved(GP["r12"])
    assert not SysVABI.is_callee_saved(GP["rdi"])
    assert not SysVABI.is_callee_saved(xmm(0))


def test_classify_args_int_order():
    locs = SysVABI.classify_args(["int"] * 6)
    assert [r.name for r in locs] == ["rdi", "rsi", "rdx", "rcx", "r8", "r9"]


def test_classify_args_mixed():
    locs = SysVABI.classify_args(["int", "float", "int"])
    assert locs[0].name == "rdi"
    assert locs[1] == xmm(0)
    assert locs[2].name == "rsi"


def test_classify_args_seventh_int_on_stack():
    locs = SysVABI.classify_args(["int"] * 8)
    assert locs[6] == 8 and locs[7] == 16  # entry-rsp relative offsets


def test_classify_args_float_overflow_to_stack():
    locs = SysVABI.classify_args(["float"] * 9)
    assert locs[8] == 8
