"""GEMV / AXPY / DOT / GER driver tests."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.blas.gemv import make_gemv
from repro.blas.ger import make_ger
from repro.blas.level1 import make_axpy, make_dot
from repro.blas.reference import ref_ger

from tests.conftest import needs_cc

pytestmark = needs_cc


@pytest.fixture(scope="module")
def axpy():
    return make_axpy()


@pytest.fixture(scope="module")
def dot():
    return make_dot()


@pytest.fixture(scope="module")
def gemv():
    return make_gemv()


@pytest.fixture(scope="module")
def ger():
    return make_ger()


# -- AXPY ------------------------------------------------------------------

@pytest.mark.parametrize("n", [1, 3, 16, 17, 100, 1000])
def test_axpy_lengths(axpy, rng, n):
    x = rng.standard_normal(n)
    y = rng.standard_normal(n)
    ref = y + 2.5 * x
    axpy(2.5, x, y)
    assert np.allclose(y, ref)


def test_axpy_negative_alpha(axpy, rng):
    x = rng.standard_normal(33)
    y = rng.standard_normal(33)
    ref = y - 1.25 * x
    axpy(-1.25, x, y)
    assert np.allclose(y, ref)


def test_axpy_mismatched_lengths(axpy):
    with pytest.raises(ValueError):
        axpy(1.0, np.zeros(4), np.zeros(5))


def test_axpy_requires_contiguous_y(axpy):
    y = np.zeros((4, 4))[:, 0]
    with pytest.raises(ValueError):
        axpy(1.0, np.zeros(4), y)


# -- DOT -----------------------------------------------------------------------

@pytest.mark.parametrize("n", [1, 2, 15, 16, 64, 999])
def test_dot_lengths(dot, rng, n):
    x = rng.standard_normal(n)
    y = rng.standard_normal(n)
    assert np.isclose(dot(x, y), x @ y)


def test_dot_empty(dot):
    assert dot(np.zeros(0), np.zeros(0)) == 0.0


def test_dot_accepts_non_contiguous_via_copy(dot, rng):
    big = rng.standard_normal(64)
    x = big[::2]
    y = rng.standard_normal(32)
    assert np.isclose(dot(x, y), x @ y)


# -- GEMV ----------------------------------------------------------------------

@pytest.mark.parametrize("m,n", [(8, 8), (33, 17), (64, 128), (5, 1), (1, 5)])
def test_gemv_trans(gemv, rng, m, n):
    a = rng.standard_normal((m, n))
    x = rng.standard_normal(m)
    assert np.allclose(gemv(a, x, trans=True), a.T @ x)


def test_gemv_no_trans(gemv, rng):
    a = rng.standard_normal((20, 12))
    x = rng.standard_normal(12)
    assert np.allclose(gemv(a, x, trans=False), a @ x)


def test_gemv_alpha_beta(gemv, rng):
    a = rng.standard_normal((16, 16))
    x = rng.standard_normal(16)
    y = rng.standard_normal(16)
    got = gemv(a, x, y, alpha=2.0, beta=0.5, trans=True)
    assert np.allclose(got, 2.0 * a.T @ x + 0.5 * y)


def test_gemv_length_mismatch(gemv):
    with pytest.raises(ValueError):
        gemv(np.zeros((4, 5)), np.zeros(9), trans=True)


# -- GER ------------------------------------------------------------------------

def test_ger_matches_outer(ger, rng):
    a = np.ascontiguousarray(rng.standard_normal((13, 9)))
    a0 = a.copy()
    x = rng.standard_normal(13)
    y = rng.standard_normal(9)
    ger(1.75, x, y, a)
    assert np.allclose(a, a0 + 1.75 * np.outer(x, y))


@pytest.mark.parametrize("m", [1, 3, 64])
@pytest.mark.parametrize("n", [1, 7, 16, 37, 64])
@pytest.mark.parametrize("alpha", [1.0, -1.0, 0.5])
def test_ger_shapes_and_tails(ger, rng, m, n, alpha):
    a = rng.standard_normal((m, n))
    a0 = a.copy()
    x = rng.standard_normal(m)
    y = rng.standard_normal(n)
    assert ger(alpha, x, y, a) is a
    assert np.allclose(a, ref_ger(alpha, x, y, a0), rtol=1e-14, atol=1e-14)


def test_ger_is_one_kernel_call(ger, rng, monkeypatch):
    calls = []
    real = ger.kernel
    monkeypatch.setattr(ger, "kernel",
                        lambda *args: (calls.append(args[:2]), real(*args)))
    a = rng.standard_normal((40, 2 * ger.unroll + 3))
    ger(0.5, rng.standard_normal(40), rng.standard_normal(a.shape[1]), a)
    assert calls == [(40, 2 * ger.unroll)]
    assert ger.axpy is None  # the per-row AXPY path is gone


def test_ger_zero_x_against_inf_y_is_nan(ger):
    # the documented rule: only alpha == 0 short-circuits; a zero x[i]
    # still multiplies y, so 0 * inf is NaN exactly as in ref_ger
    a = np.zeros((3, 20))
    x = np.array([0.0, 1.0, 0.0])
    y = np.ones(20)
    y[5], y[18] = np.inf, -np.inf       # one in the kernel part, one in the tail
    with np.errstate(invalid="ignore"):
        expect = ref_ger(1.0, x, y, a)
        ger(1.0, x, y, a)
    assert np.isnan(a[0, 5]) and np.isnan(a[2, 18])
    assert np.array_equal(a, expect, equal_nan=True)


def test_ger_alpha_zero_is_quick_return(ger):
    a = np.arange(12.0).reshape(3, 4)
    a0 = a.copy()
    x = np.array([np.nan, 1.0, np.inf])
    y = np.array([1.0, np.inf, np.nan, 0.0])
    assert ger(0.0, x, y, a) is a
    assert np.array_equal(a, a0)
    assert np.array_equal(ref_ger(0.0, x, y, a0), a0)


def test_ger_shape_validation(ger):
    with pytest.raises(ValueError):
        ger(1.0, np.zeros(3), np.zeros(4), np.zeros((4, 4)))
    with pytest.raises(ValueError):
        ger(1.0, np.zeros(4), np.zeros(4), np.zeros((4, 8))[:, ::2])


# -- property: drivers agree with numpy on random input ----------------------------

@given(n=st.integers(1, 200), seed=st.integers(0, 2**31), alpha=st.floats(
    min_value=-10, max_value=10, allow_nan=False))
@settings(max_examples=25, deadline=None)
def test_axpy_property(n, seed, alpha):
    axpy = make_axpy()
    r = np.random.default_rng(seed)
    x = r.standard_normal(n)
    y = r.standard_normal(n)
    ref = y + alpha * x
    axpy(alpha, x, y)
    assert np.allclose(y, ref)


@given(m=st.integers(1, 24), n=st.integers(1, 80), seed=st.integers(0, 2**31),
       alpha=st.sampled_from([0.0, 1.0, -1.0, 0.5, -2.75]))
@settings(max_examples=40, deadline=None)
def test_ger_property(m, n, seed, alpha):
    ger = make_ger()
    r = np.random.default_rng(seed)
    a = r.standard_normal((m, n))
    a0 = a.copy()
    x = r.standard_normal(m)
    y = r.standard_normal(n)
    ger(alpha, x, y, a)
    # alpha*x[i] is rounded before the multiply-add: a few ULPs of |ref|
    assert np.allclose(a, ref_ger(alpha, x, y, a0), rtol=1e-14, atol=1e-14)
