"""Level-3 routine tests (SYMM/SYRK/SYR2K/TRMM/TRSM on GEMM), and the
TRSM diagonal leaves: the generated-``gemv`` one, the numpy one and the
naive C of the ATLAS proxy."""

from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from repro.backend.baselines import baseline_o2
from repro.backend.cache import get_cache, reset_cache
from repro.blas import dispatch
from repro.blas import reference as R
from repro.blas.api import AugemBLAS
from repro.blas.dispatch import quarantine_key
from repro.blas.integrity import IntegrityChecker
from repro.blas.level3 import GemvLeaf, NumpyLeaf

from tests.conftest import needs_cc

pytestmark = needs_cc


@pytest.fixture(scope="module")
def blas():
    return AugemBLAS()


@pytest.mark.parametrize("n,k", [(8, 4), (64, 64), (70, 40), (130, 33)])
def test_symm(blas, rng, n, k):
    a = rng.standard_normal((n, n))
    b = rng.standard_normal((n, k))
    assert np.allclose(blas.dsymm(a, b), R.ref_symm(a, b))


def test_symm_only_lower_triangle_read(blas, rng):
    n = 24
    a = rng.standard_normal((n, n))
    poisoned = a.copy()
    poisoned[np.triu_indices(n, 1)] = 1e300  # garbage above the diagonal
    b = rng.standard_normal((n, 8))
    assert np.allclose(blas.dsymm(poisoned, b), R.ref_symm(a, b))


def test_symm_alpha_beta(blas, rng):
    a = rng.standard_normal((16, 16))
    b = rng.standard_normal((16, 8))
    c = rng.standard_normal((16, 8))
    got = blas.dsymm(a, b, c, alpha=1.5, beta=2.0)
    assert np.allclose(got, R.ref_symm(a, b, c, 1.5, 2.0))


@pytest.mark.parametrize("n,k", [(16, 8), (64, 64), (65, 130), (100, 30)])
def test_syrk(blas, rng, n, k):
    a = rng.standard_normal((n, k))
    got = blas.dsyrk(a)
    ref = R.ref_syrk(a)
    assert np.allclose(np.tril(got), np.tril(ref))


def test_syrk_beta(blas, rng):
    a = rng.standard_normal((20, 10))
    c = rng.standard_normal((20, 20))
    got = blas.dsyrk(a, c, alpha=0.5, beta=2.0)
    ref = R.ref_syrk(a, c, 0.5, 2.0)
    assert np.allclose(np.tril(got), np.tril(ref))


@pytest.mark.parametrize("n,k", [(16, 8), (70, 40), (96, 96)])
def test_syr2k(blas, rng, n, k):
    a = rng.standard_normal((n, k))
    b = rng.standard_normal((n, k))
    got = blas.dsyr2k(a, b)
    ref = R.ref_syr2k(a, b)
    assert np.allclose(np.tril(got), np.tril(ref))


@pytest.mark.parametrize("n,k", [(8, 4), (64, 16), (70, 40), (129, 65)])
def test_trmm(blas, rng, n, k):
    l = np.tril(rng.standard_normal((n, n))) + 4 * np.eye(n)
    b = rng.standard_normal((n, k))
    assert np.allclose(blas.dtrmm(l, b), R.ref_trmm(l, b))


def test_trmm_does_not_mutate_input(blas, rng):
    l = np.tril(rng.standard_normal((8, 8))) + np.eye(8)
    b = rng.standard_normal((8, 4))
    b0 = b.copy()
    blas.dtrmm(l, b)
    assert np.array_equal(b, b0)


@pytest.mark.parametrize("n,k", [(8, 4), (64, 16), (70, 40), (129, 65)])
def test_trsm(blas, rng, n, k):
    l = np.tril(rng.standard_normal((n, n))) + 4 * np.eye(n)
    b = rng.standard_normal((n, k))
    got = blas.dtrsm(l, b)
    assert np.allclose(got, R.ref_trsm(l, b))


def test_trsm_trmm_inverse_relationship(blas, rng):
    n, k = 48, 12
    l = np.tril(rng.standard_normal((n, n))) + 5 * np.eye(n)
    b = rng.standard_normal((n, k))
    assert np.allclose(blas.dtrsm(l, blas.dtrmm(l, b)), b)


def test_trmm_alpha(blas, rng):
    l = np.tril(rng.standard_normal((10, 10))) + np.eye(10)
    b = rng.standard_normal((10, 3))
    assert np.allclose(blas.dtrmm(l, b, alpha=2.0), 2.0 * R.ref_trmm(l, b))


def test_trsm_alpha(blas, rng):
    l = np.tril(rng.standard_normal((10, 10))) + 5 * np.eye(10)
    b = rng.standard_normal((10, 3))
    assert np.allclose(blas.dtrsm(l, b, alpha=3.0), 3.0 * R.ref_trsm(l, b))


# -- the TRSM diagonal leaves ----------------------------------------------

EPS = float(np.finfo(np.float64).eps)


@pytest.fixture(scope="module")
def gemv_leaf(blas):
    leaf = blas.level3.leaf
    assert isinstance(leaf, GemvLeaf)
    return leaf


def _leaf(name, gemv_leaf):
    return gemv_leaf if name == "gemv" else NumpyLeaf()


def _lower(rng, nb):
    """A well-conditioned lower triangle (the ledger's), garbage above."""
    low = np.tril(rng.standard_normal((nb, nb)), -1) * (0.5 / nb ** 0.5)
    low[np.diag_indices(nb)] = 1.5 + rng.random(nb)
    return low + np.triu(rng.standard_normal((nb, nb)), 1)


def _laid_out(x, layout):
    """The same values C-ordered, F-ordered, or as a 2x3-strided view."""
    if layout == "F":
        return np.asfortranarray(x)
    if layout == "strided":
        buf = np.full((2 * x.shape[0], 3 * x.shape[1]), np.nan)
        buf[::2, ::3] = x
        return buf[::2, ::3]
    return x


@pytest.mark.parametrize("layout", ["C", "F", "strided"])
@pytest.mark.parametrize("nb", [1, 2, 63, 64, 65, 130])
@pytest.mark.parametrize("cols", ["1", "unroll-1", "unroll", "unroll+1",
                                  "prime"])
@pytest.mark.parametrize("name", ["gemv", "numpy"])
def test_leaf_edges_keep_canaries_and_the_trsm_bound(name, cols, nb, layout,
                                                     gemv_leaf, rng):
    # B rows sit in a canary-filled buffer with ldb > ncols and a row
    # after the last: the leaf must read and write exactly its nb x ncols
    # block.  A NaN canary shows a read (it would reach the result); a
    # finite one also shows a scaling write (NaN * d is still NaN)
    u = gemv_leaf.unroll
    ncols = {"1": 1, "unroll-1": u - 1, "unroll": u, "unroll+1": u + 1,
             "prime": 37}[cols]
    low = _lower(rng, nb)
    b0 = rng.standard_normal((nb, ncols))
    ref = R.ref_trsm(low, b0)
    tol = 64.0 * 8 * nb * EPS * max(1.0, float(np.max(np.abs(ref))))
    for canary in (np.nan, -7.25):
        buf = np.full((nb + 1, ncols + 5), canary)
        rows = buf[:nb, :ncols]
        rows[...] = b0
        _leaf(name, gemv_leaf).trsm_diag(_laid_out(low, layout), rows)
        rest = np.concatenate([buf[:nb, ncols:].ravel(), buf[nb:].ravel()])
        assert rest.tobytes() == np.full(rest.shape, canary).tobytes()
        assert float(np.max(np.abs(rows - ref))) <= tol


def test_every_leaf_gives_the_same_ieee_answer_on_a_singular_diagonal(
        gemv_leaf, rng):
    # BLAS semantics: no singularity check, 1/L[i,i] multiplied in, so
    # the Inf/NaN pattern is the same on every path
    nb, ncols = 5, gemv_leaf.unroll + 3  # kernel columns and a C tail
    low = np.tril(rng.standard_normal((nb, nb))) + 3.0 * np.eye(nb)
    low[2, 2] = 0.0
    b0 = rng.standard_normal((nb, ncols))
    got = []
    for leaf in (gemv_leaf, NumpyLeaf(), baseline_o2()):
        rows = b0.copy()
        leaf.trsm_diag(low, rows)
        got.append(rows)
    want = got[0]
    assert np.isfinite(want[:2]).all() and not np.isfinite(want[2:]).any()
    for rows in got[1:]:
        for kind in (np.isnan, np.isposinf, np.isneginf):
            assert np.array_equal(kind(rows), kind(want))
        assert np.allclose(rows[:2], want[:2])


def test_dtrsm_from_four_threads_gives_the_single_thread_bits(blas, rng):
    # the leaf keeps no shared scratch
    low, b = _lower(rng, 200), rng.standard_normal((200, 45))
    want = blas.dtrsm(low, b)
    with ThreadPoolExecutor(4) as pool:
        got = list(pool.map(lambda _: blas.dtrsm(low, b), range(16)))
    assert all(np.array_equal(x, want) for x in got)


def test_gemv_quarantine_drops_the_cached_level3(tmp_path, monkeypatch, rng):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "store"))
    reset_cache()
    dispatch.reset_dispatch_state()
    try:
        blas = AugemBLAS(integrity=IntegrityChecker(mode="full",
                                                    strike_limit=1))
        low, b = _lower(rng, 70), rng.standard_normal((70, 19))
        blas.dtrsm(low, b)
        struck = blas.level3.leaf.kernel
        gk = struck.generated
        verdict = blas.integrity_checker.record_corruption(
            "gemv", struck, "test strike")
        assert verdict["quarantined"]
        assert get_cache().load_quarantine(
            quarantine_key("gemv", gk.arch, gk)) is not None
        assert blas._level3 is None
        assert np.allclose(blas.dtrsm(low, b), R.ref_trsm(low, b))
        leaf = blas.level3.leaf
        assert getattr(leaf, "kernel", None) is not struck
        if isinstance(leaf, GemvLeaf):
            assert leaf.kernel.generated.body_hash != gk.body_hash
    finally:
        dispatch.reset_dispatch_state()
        reset_cache()
