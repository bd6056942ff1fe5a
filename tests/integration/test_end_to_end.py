"""End-to-end integration: every kernel x every architecture, native and
emulated, cross-validated against numpy and against each other."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.backend.runner import load_kernel
from repro.core.asmgen import CodegenError
from repro.core.framework import Augem
from repro.core.vectorize import SHUF_LANES
from repro.emu.run import call_kernel
from repro.isa.arch import PILEDRIVER

from tests.conftest import ALL_ARCH_SPECS, needs_cc


def _check_gemm(run, rng, layout="dup", multiples=(1, 1, 1)):
    mu, nu, ku = multiples
    import math

    mc = 2 * math.lcm(mu, 4)
    nc = 2 * math.lcm(nu, 2)
    kc = 2 * math.lcm(ku, 8)
    ldc = mc + 8
    a = rng.standard_normal(kc * mc)
    b = rng.standard_normal(nc * kc)
    c = rng.standard_normal(ldc * nc)
    ref = c.copy()
    am = a.reshape(kc, mc)
    for j in range(nc):
        col = (b.reshape(nc, kc)[j, :] if layout == "dup"
               else b.reshape(kc, nc)[:, j])
        for i in range(mc):
            ref[j * ldc + i] += am[:, i] @ col
    run(mc, nc, kc, a, b, c, ldc)
    np.testing.assert_allclose(c, ref, rtol=1e-12, atol=1e-10)


# -- emulator path: every arch spec incl. Piledriver FMA4 and AVX-512 -------

def test_gemm_emulated(any_arch, rng):
    from repro.blas.gemm import kernel_multiples

    gk = Augem(arch=any_arch).generate_named("gemm")
    _check_gemm(lambda *args: call_kernel(gk, list(args)), rng,
                multiples=kernel_multiples(gk))


def test_gemm_shuf_emulated(any_arch, rng):
    from repro.blas.gemm import kernel_multiples

    if any_arch.doubles_per_vector not in SHUF_LANES:
        with pytest.raises(CodegenError, match="Shuf method"):
            Augem(arch=any_arch).generate_named("gemm_shuf", strategy="shuf")
        return
    gk = Augem(arch=any_arch).generate_named("gemm_shuf", strategy="shuf")
    _check_gemm(lambda *args: call_kernel(gk, list(args)), rng,
                layout="shuf", multiples=kernel_multiples(gk))


def test_gemv_emulated(any_arch, rng):
    gk = Augem(arch=any_arch).generate_named("gemv")
    m, n, lda = 16, 4, 20
    a = rng.standard_normal(n * lda)
    x = rng.standard_normal(n)
    y = rng.standard_normal(m)
    ref = y + a.reshape(n, lda)[:, :m].T @ x
    call_kernel(gk, [m, n, a, lda, x, y])
    np.testing.assert_allclose(y, ref, rtol=1e-12, atol=1e-10)


def test_axpy_emulated(any_arch, rng):
    gk = Augem(arch=any_arch).generate_named("axpy")
    n = 32
    x = rng.standard_normal(n)
    y = rng.standard_normal(n)
    ref = y + 3.5 * x
    call_kernel(gk, [n, 3.5, x, y])
    np.testing.assert_allclose(y, ref, rtol=1e-12, atol=1e-10)


def test_dot_emulated(any_arch, rng):
    gk = Augem(arch=any_arch).generate_named("dot")
    n = 64
    x = rng.standard_normal(n)
    y = rng.standard_normal(n)
    assert np.isclose(call_kernel(gk, [n, x, y]), x @ y)


# -- native path: every host-runnable arch -------------------------------------

@needs_cc
def test_gemm_native(native_arch, rng):
    from repro.blas.gemm import kernel_multiples

    gk = Augem(arch=native_arch).generate_named(
        "gemm", name=f"e2e_gemm_{native_arch.name}")
    kernel = load_kernel("gemm", gk)
    _check_gemm(kernel, rng, multiples=kernel_multiples(gk))


@needs_cc
def test_all_kernels_native(native_arch, rng):
    aug = Augem(arch=native_arch)
    n = 64
    x = rng.standard_normal(n)
    y = rng.standard_normal(n)

    axpy = load_kernel("axpy", aug.generate_named(
        "axpy", name=f"e2e_axpy_{native_arch.name}"))
    y1 = y.copy()
    axpy(n, 2.0, x, y1)
    assert np.allclose(y1, y + 2.0 * x)

    dot = load_kernel("dot", aug.generate_named(
        "dot", name=f"e2e_dot_{native_arch.name}"))
    assert np.isclose(dot(n, x, y), x @ y)

    gemv = load_kernel("gemv", aug.generate_named(
        "gemv", name=f"e2e_gemv_{native_arch.name}"))
    m, ncols, lda = 32, 8, 40
    a = rng.standard_normal(ncols * lda)
    yv = rng.standard_normal(m)
    xv = rng.standard_normal(ncols)
    ref = yv + a.reshape(ncols, lda)[:, :m].T @ xv
    gemv(m, ncols, a, lda, xv, yv)
    assert np.allclose(yv, ref)


# -- cross-validation: emulator and native agree bit-for-bit -------------------

@needs_cc
def test_emulator_matches_native_exactly(native_arch, rng):
    import math

    from repro.blas.gemm import kernel_multiples

    gk = Augem(arch=native_arch).generate_named(
        "gemm", name=f"xval_{native_arch.name}")
    kernel = load_kernel("gemm", gk)
    # the kernel has no remainder loops: a trip count short of its
    # multiple makes it write C (and read A and B) past the buffers
    mu, nu, ku = kernel_multiples(gk)
    mc, nc, kc = math.lcm(mu, 24), math.lcm(nu, 4), math.lcm(ku, 16)
    ldc = mc
    a = rng.standard_normal(kc * mc)
    b = rng.standard_normal(nc * kc)
    c_native = np.zeros(ldc * nc)
    c_emu = np.zeros(ldc * nc)
    kernel(mc, nc, kc, a, b, c_native, ldc)
    call_kernel(gk, [mc, nc, kc, a, b, c_emu, ldc])
    # identical instruction streams => identical IEEE results, no tolerance
    np.testing.assert_array_equal(c_native, c_emu)


# -- FMA4 vs FMA3: same kernel semantics across vendor ISAs --------------------

def test_piledriver_fma4_matches_reference(rng):
    from repro.blas.gemm import kernel_multiples

    gk = Augem(arch=PILEDRIVER).generate_named("gemm")
    assert "vfmaddpd" in gk.asm_text  # Table 1 line 4 actually used
    _check_gemm(lambda *args: call_kernel(gk, list(args)), rng,
                multiples=kernel_multiples(gk))


# -- property-based: random sizes through the emulator --------------------------

@given(mc=st.integers(1, 4), nc=st.integers(1, 3), kc=st.integers(1, 12),
       seed=st.integers(0, 10_000))
@settings(max_examples=15, deadline=None)
def test_gemm_emulated_random_sizes(mc, nc, kc, seed):
    """Unit blocks (no unrolling constraint) over arbitrary tiny shapes."""
    from repro.transforms.pipeline import OptimizationConfig

    aug = Augem(arch=ALL_ARCH_SPECS[0])  # generic SSE
    gk = aug.generate_named("gemm", config=OptimizationConfig())
    r = np.random.default_rng(seed)
    a = r.standard_normal(kc * mc)
    b = r.standard_normal(nc * kc)
    c = np.zeros(mc * nc)
    call_kernel(gk, [mc, nc, kc, a, b, c, mc])
    am = a.reshape(kc, mc)
    bm = b.reshape(nc, kc)
    for j in range(nc):
        for i in range(mc):
            assert np.isclose(c[j * mc + i], am[:, i] @ bm[j, :])
