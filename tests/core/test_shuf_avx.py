"""AVX 256-bit Shuf method tests (4-lane XOR-permutation structure)."""

import numpy as np
import pytest

from repro.backend.runner import load_kernel
from repro.core.framework import Augem
from repro.core.identifier import identify_templates
from repro.core.vectorize import plan_vectorization
from repro.emu.run import call_kernel
from repro.isa.arch import HASWELL, PILEDRIVER, SANDYBRIDGE
from repro.blas.kernels import GEMM_SHUF_SIMPLE_C
from repro.transforms.pipeline import OptimizationConfig, optimize_c_kernel

from tests.conftest import host_shuf_arch, needs_cc

CFG_4X4 = OptimizationConfig(unroll_jam=(("j", 4), ("i", 4)))


def _shuf_ref(rng, mc, nc, kc, ldc):
    a = rng.standard_normal(kc * mc)
    b = rng.standard_normal(kc * nc)  # shuf layout: B[l*Nc + j]
    c = rng.standard_normal(ldc * nc)
    ref = c.copy()
    am = a.reshape(kc, mc)
    bm = b.reshape(kc, nc)
    for j in range(nc):
        for i in range(mc):
            ref[j * ldc + i] += am[:, i] @ bm[:, j]
    return a, b, c, ref


def test_planner_builds_xor_packs():
    fn = optimize_c_kernel(GEMM_SHUF_SIMPLE_C, CFG_4X4)
    fn, regions = identify_templates(fn)
    plan = plan_vectorization(regions, HASWELL, strategy="shuf")
    comp = next(r for r in regions if r.template == "mmUnrolledCOMP")
    assert plan.plan_for(comp).strategy == "shuf"
    packs = list({id(p): p for p in plan.pack_of.values()}.values())
    assert len(packs) == 4
    assert all(p.layout == "shuf" and len(p.members) == 4 for p in packs)


def test_shuf_asm_uses_permutes_and_blends():
    gk = Augem(arch=HASWELL).generate_named("gemm_shuf", config=CFG_4X4,
                                            strategy="shuf")
    asm = gk.asm_text
    assert "vpermilpd" in asm  # in-pair swap (p=1, p=3)
    assert "vperm2f128" in asm  # half swap (p=2) + store reassembly
    assert "vblendpd" in asm  # store un-permutation
    assert "vbroadcastsd" not in asm  # no Vdup on this path


@pytest.mark.parametrize("arch", [HASWELL, SANDYBRIDGE, PILEDRIVER],
                         ids=lambda a: a.name)
def test_shuf4_emulated_correct(arch, rng):
    gk = Augem(arch=arch).generate_named("gemm_shuf", config=CFG_4X4,
                                         strategy="shuf",
                                         name=f"shuf4e_{arch.name}")
    a, b, c, ref = _shuf_ref(rng, 8, 8, 16, 12)
    call_kernel(gk, [8, 8, 16, a, b, c, 12])
    np.testing.assert_allclose(c, ref, rtol=1e-12, atol=1e-10)


@needs_cc
def test_shuf4_native_correct(rng):
    host = host_shuf_arch()
    if host.simd != "avx":
        pytest.skip("host lacks AVX")
    gk = Augem(arch=host).generate_named("gemm_shuf", config=CFG_4X4,
                                         strategy="shuf", name="shuf4_nat")
    kernel = load_kernel("gemm_shuf", gk)
    a, b, c, ref = _shuf_ref(rng, 16, 8, 32, 20)
    kernel(16, 8, 32, a, b, c, 20)
    np.testing.assert_allclose(c, ref, rtol=1e-12, atol=1e-10)


@needs_cc
def test_shuf4_with_l_unroll(rng):
    host = host_shuf_arch()
    if host.simd != "avx":
        pytest.skip("host lacks AVX")
    cfg = OptimizationConfig(unroll_jam=(("j", 4), ("i", 4)),
                             unroll=(("l", 2),))
    gk = Augem(arch=host).generate_named("gemm_shuf", config=cfg,
                                         strategy="shuf", name="shuf4_ku2")
    kernel = load_kernel("gemm_shuf", gk)
    a, b, c, ref = _shuf_ref(rng, 8, 8, 32, 8)
    kernel(8, 8, 32, a, b, c, 8)
    np.testing.assert_allclose(c, ref, rtol=1e-12, atol=1e-10)


def test_shuf_driver_end_to_end(rng):
    """Full blocked DGEMM through the 4-lane Shuf kernel."""
    from repro.blas.gemm import make_gemm

    gemm = make_gemm(arch=host_shuf_arch(), layout="shuf", config=CFG_4X4,
                     strategy="shuf")
    a = rng.standard_normal((52, 70))
    b = rng.standard_normal((70, 36))
    assert np.allclose(gemm(a, b), a @ b)
