"""Blocked GEMM driver tests (native execution)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.blas.gemm import BlockSizes, GemmDriver, kernel_multiples, make_gemm
from repro.core.asmgen import CodegenError
from repro.isa.arch import SKYLAKE_X
from repro.transforms.pipeline import OptimizationConfig

from tests.conftest import host_shuf_arch, needs_cc

pytestmark = needs_cc


@pytest.fixture(scope="module")
def gemm():
    return make_gemm()


def test_kernel_multiples_derived_from_config(gemm):
    mu, nu, ku = kernel_multiples(gemm.kernel.generated)
    assert mu >= 1 and nu >= 1 and ku >= 1
    cfg = gemm.kernel.generated.config
    assert ("i", mu) in cfg.unroll_jam


def test_square_matches_numpy(gemm, rng):
    a = rng.standard_normal((96, 96))
    b = rng.standard_normal((96, 96))
    assert np.allclose(gemm(a, b), a @ b)


@pytest.mark.parametrize("m,k,n", [
    (1, 1, 1), (2, 3, 4), (7, 11, 13), (64, 256, 64),
    (65, 257, 63), (100, 1, 100), (1, 100, 1), (33, 500, 29),
])
def test_arbitrary_shapes(gemm, rng, m, k, n):
    a = rng.standard_normal((m, k))
    b = rng.standard_normal((k, n))
    assert np.allclose(gemm(a, b), a @ b)


def test_alpha_beta(gemm, rng):
    a = rng.standard_normal((20, 30))
    b = rng.standard_normal((30, 10))
    c = rng.standard_normal((20, 10))
    got = gemm(a, b, c, alpha=2.5, beta=-0.5)
    assert np.allclose(got, 2.5 * (a @ b) - 0.5 * c)


def test_beta_one_accumulates(gemm, rng):
    a = rng.standard_normal((8, 8))
    b = rng.standard_normal((8, 8))
    c = rng.standard_normal((8, 8))
    got = gemm(a, b, c, beta=1.0)
    assert np.allclose(got, a @ b + c)


def test_alpha_zero_short_circuits(gemm, rng):
    a = rng.standard_normal((8, 8))
    b = rng.standard_normal((8, 8))
    c = rng.standard_normal((8, 8))
    assert np.allclose(gemm(a, b, c, alpha=0.0, beta=2.0), 2.0 * c)


def test_k_zero(gemm, rng):
    a = np.zeros((4, 0))
    b = np.zeros((0, 5))
    assert np.allclose(gemm(a, b), np.zeros((4, 5)))


def test_input_matrices_not_mutated(gemm, rng):
    a = rng.standard_normal((16, 16))
    b = rng.standard_normal((16, 16))
    a0, b0 = a.copy(), b.copy()
    gemm(a, b, alpha=3.0)
    assert np.array_equal(a, a0) and np.array_equal(b, b0)


def test_c_argument_not_mutated(gemm, rng):
    c = rng.standard_normal((8, 8))
    c0 = c.copy()
    gemm(rng.standard_normal((8, 8)), rng.standard_normal((8, 8)),
         c=c, beta=1.0)
    assert np.array_equal(c, c0)  # driver works on a copy


def test_shape_mismatch_raises(gemm, rng):
    with pytest.raises(ValueError):
        gemm(np.zeros((3, 4)), np.zeros((5, 6)))
    with pytest.raises(ValueError):
        gemm(np.zeros((3, 4)), np.zeros((4, 6)), c=np.zeros((2, 2)))


def test_custom_block_sizes(rng):
    gemm_small = make_gemm(blocks=BlockSizes(mc=16, kc=32, nc=32))
    a = rng.standard_normal((50, 70))
    b = rng.standard_normal((70, 40))
    assert np.allclose(gemm_small(a, b), a @ b)


def test_shuf_layout_driver(rng):
    gemm_shuf = make_gemm(arch=host_shuf_arch(), layout="shuf")
    a = rng.standard_normal((40, 60))
    b = rng.standard_normal((60, 30))
    assert np.allclose(gemm_shuf(a, b), a @ b)


def test_shuf_layout_at_512_bits_is_a_codegen_error():
    # the Shuf method stops at 4 lanes; dispatch demotes layout="shuf"
    with pytest.raises(CodegenError, match="Shuf method"):
        make_gemm(arch=SKYLAKE_X, layout="shuf")


def test_fortran_ordered_inputs(gemm, rng):
    a = np.asfortranarray(rng.standard_normal((24, 32)))
    b = np.asfortranarray(rng.standard_normal((32, 16)))
    assert np.allclose(gemm(a, b), a @ b)


@given(m=st.integers(1, 40), k=st.integers(1, 40), n=st.integers(1, 40),
       seed=st.integers(0, 2**31))
@settings(max_examples=25, deadline=None)
def test_property_random_shapes(m, k, n, seed):
    gemm = make_gemm()  # cached shared object: cheap after first call
    r = np.random.default_rng(seed)
    a = r.standard_normal((m, k))
    b = r.standard_normal((k, n))
    assert np.allclose(gemm(a, b), a @ b)
