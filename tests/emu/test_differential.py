"""Differential testing: emulator vs. real silicon, and a tuner-space sweep.

Two layers:

1. **Fuzzing** (needs a toolchain): random straight-line vector-instruction
   sequences are wrapped in a function that loads all vector registers from
   an input buffer and stores them back to an output buffer. The function is
   (a) assembled with gcc and executed natively, (b) interpreted by the
   emulator. The resulting register files must agree **bit for bit** — this
   pins the emulator's semantics for every instruction the generator can
   emit, on whatever subset the host supports.

2. **Tuning-space sweep** (emulator only, runs everywhere — including the
   FMA4 arch no Intel host can execute): the tuner's smallest and largest
   unroll configurations per kernel family are generated for *every* ISA
   mapping and executed under the emulator against the numpy reference, so
   each instruction-selection path of Tables 1-4 (SSE, AVX, FMA3, FMA4,
   Vdup and Shuf, packed stores, reductions) is exercised end to end.
"""

import ctypes
import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.backend.compiler import build_shared
from repro.core.framework import Augem
from repro.emu.machine import Machine
from repro.emu.memory import Memory
from repro.emu.run import call_kernel
from repro.isa.arch import detect_host
from repro.isa.gas import emit_function
from repro.isa.instructions import EVEX_WIDTHS, Instr, instr
from repro.isa.operands import Imm, Mem
from repro.isa.registers import GP, vec, xmm, ymm
from repro.tuning.space import candidates_for

from tests.conftest import (ALL_ARCH_SPECS, gemm_ref_packed, needs_avx512,
                            needs_cc)

_HOST = detect_host()
_HAS_AVX = _HOST.simd == "avx"
_HAS_FMA = _HOST.fma == "fma3"

RDI, RSI = GP["rdi"], GP["rsi"]

# (mnemonic, operand shape) — shapes: R=vec reg, I=imm byte
_SSE_OPS = [
    ("addpd", "RR"), ("subpd", "RR"), ("mulpd", "RR"),
    ("movapd", "RR"), ("unpcklpd", "RR"), ("unpckhpd", "RR"),
    ("haddpd", "RR"), ("xorpd", "RR"),
    ("shufpd", "IRR"), ("addsd", "RR"), ("mulsd", "RR"),
    ("subsd", "RR"), ("movsd", "RR"),
]
_AVX_OPS = [
    ("vaddpd", "RRR"), ("vsubpd", "RRR"), ("vmulpd", "RRR"),
    ("vxorpd", "RRR"), ("vunpcklpd", "RRR"), ("vunpckhpd", "RRR"),
    ("vhaddpd", "RRR"), ("vaddsd", "RRR"), ("vmulsd", "RRR"),
    ("vsubsd", "RRR"),
    ("vshufpd", "IRRR"), ("vblendpd", "IRRR"), ("vpermilpd", "IRR"),
    ("vperm2f128", "IRRR"),
    ("vextractf128", "IRR"), ("vinsertf128", "IRRR"),
    ("vmovapd", "RRx"),
]
_FMA_OPS = [("vfmadd231pd", "RRR"), ("vfmadd213pd", "RRR"),
            ("vfmadd132pd", "RRR"), ("vfmadd231sd", "RRR")]

N_REGS = 8  # registers 0..7 participate; fewer collisions, denser deps


def _op_pool():
    pool = list(_SSE_OPS)
    if _HAS_AVX:
        pool += _AVX_OPS
    if _HAS_FMA:
        pool += _FMA_OPS
    return pool


@st.composite
def instruction_sequences(draw):
    pool = _op_pool()
    n = draw(st.integers(min_value=1, max_value=20))
    out = []
    for _ in range(n):
        mnemonic, shape = draw(st.sampled_from(pool))
        wide = mnemonic.startswith("v") and not mnemonic.endswith("sd")
        ops = []
        for s in shape:
            if s == "I":
                ops.append(Imm(draw(st.integers(0, 15))))
            elif s in ("R", "x"):
                idx = draw(st.integers(0, N_REGS - 1))
                if mnemonic == "vextractf128":
                    # imm, ymm src, xmm dst
                    ops.append(ymm(idx) if len(ops) == 1 else xmm(idx))
                elif mnemonic == "vinsertf128":
                    # imm, xmm src2, ymm src1, ymm dst
                    ops.append(xmm(idx) if len(ops) == 1 else ymm(idx))
                elif mnemonic.endswith("sd") and mnemonic.startswith("v"):
                    ops.append(xmm(idx))
                elif mnemonic.startswith("v") and wide:
                    ops.append(ymm(idx))
                else:
                    ops.append(xmm(idx))
        if mnemonic == "vmovapd":  # emitted as 2-operand
            ops = ops[:2]
        out.append(Instr(mnemonic, tuple(ops)))
    return out


def _wrap(seq):
    """Load ymm0..7 from (rdi), run seq, store ymm0..7 to (rsi)."""
    items = []
    mv = "vmovupd" if _HAS_AVX else "movupd"
    width = 32 if _HAS_AVX else 16
    for i in range(N_REGS):
        reg = ymm(i) if _HAS_AVX else xmm(i)
        items.append(instr(mv, Mem(base=RDI, disp=width * i), reg))
    items.extend(seq)
    for i in range(N_REGS):
        reg = ymm(i) if _HAS_AVX else xmm(i)
        items.append(instr(mv, reg, Mem(base=RSI, disp=width * i)))
    if _HAS_AVX:
        items.append(instr("vzeroupper"))
    items.append(instr("ret"))
    return items


_counter = [0]


def _run_native(items, inputs: np.ndarray) -> np.ndarray:
    _counter[0] += 1
    name = f"fuzz{_counter[0]}"
    asm = emit_function(name, items)
    so = build_shared({f"{name}.S": asm}, tag=name)
    fn = so.symbol(name)
    dp = ctypes.POINTER(ctypes.c_double)
    fn.restype = None
    fn.argtypes = [dp, dp]
    out = np.zeros_like(inputs)
    fn(inputs.ctypes.data_as(dp), out.ctypes.data_as(dp))
    return out


def _run_emulated(items, inputs: np.ndarray) -> np.ndarray:
    from repro.emu.run import call_items

    out = np.zeros_like(inputs)
    call_items(items, [inputs, out])
    return out


@needs_cc
@given(seq=instruction_sequences(),
       seed=st.integers(0, 2**31))
@settings(max_examples=60, deadline=None)
def test_emulator_matches_silicon_bitwise(seq, seed):
    lanes = 4 if _HAS_AVX else 2
    rng = np.random.default_rng(seed)
    inputs = rng.standard_normal(N_REGS * lanes)
    items = _wrap(seq)
    native = _run_native(items, inputs)
    emulated = _run_emulated(items, inputs)
    np.testing.assert_array_equal(
        native.view(np.uint64), emulated.view(np.uint64),
        err_msg="\n".join(str(i) for i in seq),
    )


@needs_cc
def test_differential_harness_detects_differences():
    """Sanity: the harness itself can tell two sequences apart."""
    lanes = 4 if _HAS_AVX else 2
    inputs = np.arange(N_REGS * lanes, dtype=np.float64) + 1.0
    add = _wrap([instr("addsd", xmm(0), xmm(1))])
    mul = _wrap([instr("mulsd", xmm(0), xmm(1))])
    assert not np.array_equal(_run_native(add, inputs),
                              _run_native(mul, inputs))


# the zmm subset the skylake_x tier emits, plus the narrower writes whose
# zeroing of bits 511:256 (or 511:128) the emulator must model; operand
# widths in bytes, "I" for an immediate
_ZMM_OPS = [
    ("vaddpd", (64, 64, 64)), ("vmulpd", (64, 64, 64)),
    ("vsubpd", (64, 64, 64)), ("vfmadd231pd", (64, 64, 64)),
    ("vmovapd", (64, 64)), ("vextractf64x4", ("I", 64, 32)),
    ("vaddpd", (32, 32, 32)), ("vxorpd", (16, 16, 16)),
    ("vaddsd", (16, 16, 16)), ("vpxord", (64, 64, 64)),
]

#: zmm0-7 and the EVEX-only zmm16-23 take part
_ZMM_REGS = list(range(N_REGS)) + list(range(16, 16 + N_REGS))


@st.composite
def zmm_sequences(draw):
    """Operands draw from both halves of the file; a register 16-31 is
    kept only where the generator's encodability rule allows it."""
    out = []
    for _ in range(draw(st.integers(min_value=1, max_value=16))):
        mnemonic, widths = draw(st.sampled_from(_ZMM_OPS))
        ops = []
        for w in widths:
            if w == "I":
                ops.append(Imm(draw(st.integers(0, 1))))
                continue
            idx = draw(st.sampled_from(_ZMM_REGS))
            if w not in EVEX_WIDTHS.get(mnemonic, ()):
                idx %= 16
            ops.append(vec(idx, w))
        out.append(Instr(mnemonic, tuple(ops)))
    return out


def _wrap_zmm(seq):
    """Load zmm0-7 and zmm16-23 from (rdi), run seq, store them to (rsi)."""
    load = [instr("vmovupd", Mem(base=RDI, disp=64 * k), vec(i, 64))
            for k, i in enumerate(_ZMM_REGS)]
    store = [instr("vmovupd", vec(i, 64), Mem(base=RSI, disp=64 * k))
             for k, i in enumerate(_ZMM_REGS)]
    return load + list(seq) + store + [instr("vzeroupper"), instr("ret")]


@needs_avx512
@given(seq=zmm_sequences(), seed=st.integers(0, 2**31))
@settings(max_examples=30, deadline=None)
def test_emulator_matches_silicon_bitwise_zmm(seq, seed):
    assert all(i.unencodable_register() is None for i in seq)
    inputs = np.random.default_rng(seed).standard_normal(len(_ZMM_REGS) * 8)
    items = _wrap_zmm(seq)
    np.testing.assert_array_equal(
        _run_native(items, inputs).view(np.uint64),
        _run_emulated(items, inputs).view(np.uint64),
        err_msg="\n".join(str(i) for i in seq),
    )


# ---------------------------------------------------------------------------
# Tuning-space sweep under the emulator (every ISA, no toolchain needed)
# ---------------------------------------------------------------------------


def _edge_candidates(kernel, arch):
    """The extremes of the tuner's space: smallest and largest unroll shape,
    plus one prefetching variant (the emulator treats prefetch as a nop,
    so its addressing code still executes).  GEMM adds the same extremes
    of its 2- and 4-wide tiles on a 16-register file, the space before
    6- and 8-wide tiles and 32 registers: on skylake_x that is the
    16-register plan generated with zmm16-31 available."""
    def extremes(cands):
        plain = [c for c in cands if c.config.prefetch_distance is None]
        pf = [c for c in cands if c.config.prefetch_distance is not None]
        return [plain[0], plain[-1]] + pf[-1:]

    picked = extremes(candidates_for(kernel, arch))
    if kernel == "gemm":
        narrow = [c for c in candidates_for(
                      kernel, dataclasses.replace(arch, n_vector_regs=16))
                  if dict(c.config.unroll_jam)["j"] <= 4]
        picked += extremes(narrow)
    seen, out = set(), []
    for c in picked:
        if c.describe() not in seen:
            seen.add(c.describe())
            out.append(c)
    return out


def _sweep_cases():
    for arch in ALL_ARCH_SPECS:
        for kernel in ("gemm", "gemv", "axpy", "dot"):
            for cand in _edge_candidates(kernel, arch):
                yield pytest.param(
                    arch, kernel, cand,
                    id=f"{arch.name}-{kernel}-{cand.describe()}")
        # the Shuf vectorization method (n x n grid) per ISA
        for cand in candidates_for("gemm", arch, layout="shuf"):
            if cand.strategy == "shuf":
                yield pytest.param(
                    arch, "gemm_shuf", cand,
                    id=f"{arch.name}-gemm_shuf-{cand.describe()}")


def _unroll_factor(config, var):
    for v, f in config.unroll_jam + config.unroll:
        if v == var:
            return f
    return 1


@pytest.mark.parametrize("arch,kernel,cand", list(_sweep_cases()))
def test_tuner_config_sweep_under_emulator(arch, kernel, cand, rng):
    gk = Augem(arch=arch).generate_named(kernel, config=cand.config,
                                         strategy=cand.strategy,
                                         name="sweep_kernel")
    cfg = cand.config
    if kernel in ("gemm", "gemm_shuf"):
        mu = _unroll_factor(cfg, "i")
        nu = _unroll_factor(cfg, "j")
        ku = _unroll_factor(cfg, "l")
        mc, nc, kc = mu, 2 * nu, 2 * math.lcm(ku, 4)
        ldc = mc + 4
        a = rng.standard_normal(kc * mc)
        b = rng.standard_normal(nc * kc)
        c = rng.standard_normal(ldc * nc)
        ref = gemm_ref_packed(a, b, c, mc, nc, kc, ldc,
                              layout="shuf" if kernel == "gemm_shuf"
                              else "dup")
        call_kernel(gk, [mc, nc, kc, a, b, c, ldc])
        np.testing.assert_allclose(c, ref, rtol=1e-12, atol=1e-12)
    elif kernel == "gemv":
        u = _unroll_factor(cfg, "j")
        m, n, lda = 2 * u, 5, 2 * u + 4
        a = rng.standard_normal(n * lda)
        x = rng.standard_normal(n)
        y = rng.standard_normal(m)
        ref = y + a.reshape(n, lda)[:, :m].T @ x
        call_kernel(gk, [m, n, a, lda, x, y])
        np.testing.assert_allclose(y, ref, rtol=1e-12, atol=1e-12)
    elif kernel == "axpy":
        u = _unroll_factor(cfg, "i")
        n = 2 * u
        x = rng.standard_normal(n)
        y = rng.standard_normal(n)
        ref = y + 1.5 * x
        call_kernel(gk, [n, 1.5, x, y])
        np.testing.assert_allclose(y, ref, rtol=1e-12, atol=1e-12)
    else:  # dot
        u = _unroll_factor(cfg, "i")
        n = 2 * u
        x = rng.standard_normal(n)
        y = rng.standard_normal(n)
        got = call_kernel(gk, [n, x, y])
        np.testing.assert_allclose(got, x @ y, rtol=1e-10)
