"""Property tests for the Level-3 panel plans (SYMM/SYRK/SYR2K/TRMM/TRSM).

One suite, three ways to reach the GEMM underneath:

- ``native`` — ``AugemBLAS()`` on the host's generated kernel (needs a
  toolchain);
- ``reference`` — the same facade pinned to the numpy tier with
  ``REPRO_FORCE_ARCH=reference``;
- ``emulated`` — :class:`Level3` straight on
  :func:`~repro.blas.integrity.emulated_gemm_driver` with an 8-wide panel,
  so every panel edge is crossed at sizes the emulator can afford and
  strided views reach the plans without the facade's coercion.

Every result is held to the perf ledger's bound against
:mod:`repro.blas.reference` — ``8 * n_acc * eps * max(1, max|ref|)``,
64x for TRSM; SYRK/SYR2K must hand back the strict upper triangle of
``C`` bit for bit; no input is modified.  Derandomized with a fixed
example budget: tier-1 stays near 90 s.
"""

from __future__ import annotations

from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.blas import reference as R
from repro.blas.api import AugemBLAS
from repro.blas.integrity import emulated_gemm_driver
from repro.blas.level3 import Level3

from tests.conftest import HAVE_CC

EPS = float(np.finfo(np.float64).eps)
PANEL = Level3.panel
EMU_PANEL = 8

_BACKENDS = {}


def _backend(name):
    """The five routines of one backend, built once per session."""
    if name not in _BACKENDS:
        if name == "emulated":
            level3 = Level3(emulated_gemm_driver(integrity="off"))
            level3.panel = EMU_PANEL
            _BACKENDS[name] = SimpleNamespace(
                dsymm=level3.symm, dsyrk=level3.syrk, dsyr2k=level3.syr2k,
                dtrmm=level3.trmm, dtrsm=level3.trsm)
        else:
            with pytest.MonkeyPatch.context() as mp:
                if name == "reference":
                    mp.setenv("REPRO_FORCE_ARCH", "reference")
                blas = AugemBLAS()
                blas.level3  # the chain reads the environment when built
            _BACKENDS[name] = blas
    return _BACKENDS[name]


BACKENDS = [
    pytest.param("native", marks=pytest.mark.skipif(
        not HAVE_CC, reason="no C compiler available")),
    "reference",
    pytest.param("emulated", marks=pytest.mark.skipif(
        not HAVE_CC, reason="no C compiler available")),
]

SCALARS = st.sampled_from([0.0, 1.0, -1.0, 0.5])
LAYOUTS = st.sampled_from(["C", "F", "strided"])


def _sizes(backend):
    """(n, k) strategies: 1, primes and both sides of every panel edge."""
    if backend == "emulated":
        edges, top_n, top_k = [1, 3, 7, 8, 9, 13, 17], 20, 10
    else:
        edges = [1, 2, 61, PANEL // 2 + 1, PANEL - 1, PANEL, PANEL + 1,
                 131, 2 * PANEL + 1, 293]
        top_n = top_k = 300
    return (st.sampled_from(edges) | st.integers(1, top_n),
            st.sampled_from([1, 7, top_k]) | st.integers(1, top_k))


def _problem(backend):
    n, k = _sizes(backend)
    return st.fixed_dictionaries({
        "n": n, "k": k, "alpha": SCALARS, "beta": SCALARS,
        "with_c": st.booleans(), "seed": st.integers(0, 2 ** 16),
        "layouts": st.tuples(LAYOUTS, LAYOUTS, LAYOUTS)})


def _laid_out(x, layout):
    """The same values as a C-ordered array, an F-ordered one (a
    transposed view of C-ordered memory), or every other row of a buffer."""
    if layout == "F":
        return np.ascontiguousarray(x.T).T
    if layout == "strided":
        buf = np.zeros((2 * x.shape[0], x.shape[1]))
        buf[::2] = x
        return buf[::2]
    return x


def _within(got, ref, n_acc, factor=8.0):
    tol = factor * max(1, n_acc) * EPS * max(1.0, float(np.max(np.abs(ref))))
    return got.shape == ref.shape and float(np.max(np.abs(got - ref))) <= tol


def _operands(p, shapes):
    """Seeded operands in the drawn layouts, plus pristine copies."""
    rng = np.random.default_rng(p["seed"])
    arrays = [_laid_out(rng.standard_normal(shape), layout)
              for shape, layout in zip(shapes, p["layouts"])]
    return arrays, [np.array(x) for x in arrays]


def _triangle(rng, m):
    """A well-conditioned lower triangle (the ledger's), garbage above."""
    low = np.tril(rng.standard_normal((m, m)), -1) * (0.5 / m ** 0.5)
    low[np.diag_indices(m)] = 1.5 + rng.random(m)
    return low + np.triu(rng.standard_normal((m, m)), 1)


def _unchanged(arrays, copies):
    return all(np.array_equal(x, x0) for x, x0 in zip(arrays, copies))


def _run(backend, check):
    """Run ``check`` over the backend's derandomized example budget."""
    budget = 12 if backend == "emulated" else 25
    settings(max_examples=budget, deadline=None, derandomize=True,
             database=None)(given(p=_problem(backend))(check))()


@pytest.mark.parametrize("backend", BACKENDS)
def test_symm(backend):
    blas = _backend(backend)

    def check(p):
        n, k = p["n"], p["k"]
        arrays, copies = _operands(p, [(n, n), (n, k), (n, k)])
        a, b, c = arrays if p["with_c"] else (*arrays[:2], None)
        got = blas.dsymm(a, b, c, alpha=p["alpha"], beta=p["beta"])
        assert _within(got, R.ref_symm(a, b, c, p["alpha"], p["beta"]), n), p
        assert _unchanged(arrays, copies), p

    _run(backend, check)


@pytest.mark.parametrize("routine", ["dsyrk", "dsyr2k"])
@pytest.mark.parametrize("backend", BACKENDS)
def test_rank_k_updates(backend, routine):
    blas = _backend(backend)

    def check(p):
        n, k = p["n"], p["k"]
        arrays, copies = _operands(p, [(n, k), (n, k), (n, n)])
        a, b, c = arrays if p["with_c"] else (*arrays[:2], None)
        if routine == "dsyrk":
            got = blas.dsyrk(a, c, alpha=p["alpha"], beta=p["beta"])
            ref = R.ref_syrk(a, c, p["alpha"], p["beta"])
        else:
            got = blas.dsyr2k(a, b, c, alpha=p["alpha"], beta=p["beta"])
            ref = R.ref_syr2k(a, b, c, p["alpha"], p["beta"])
        assert _within(got, ref, 2 * k), p
        upper = np.triu_indices(n, 1)
        kept = np.zeros((n, n)) if c is None else copies[2]
        assert got[upper].tobytes() == kept[upper].tobytes(), p
        assert _unchanged(arrays, copies), p

    _run(backend, check)


@pytest.mark.parametrize("routine", ["dtrmm", "dtrsm"])
@pytest.mark.parametrize("backend", BACKENDS)
def test_triangular(backend, routine):
    blas = _backend(backend)

    def check(p):
        m, ncols = p["n"], p["k"]
        rng = np.random.default_rng(p["seed"])
        tri = _laid_out(_triangle(rng, m), p["layouts"][0])
        b = _laid_out(rng.standard_normal((m, ncols)), p["layouts"][1])
        copies = [np.array(tri), np.array(b)]
        if routine == "dtrmm":
            got = blas.dtrmm(tri, b, alpha=p["alpha"])
            ok = _within(got, R.ref_trmm(tri, b, p["alpha"]), m)
        else:
            got = blas.dtrsm(tri, b, alpha=p["alpha"])
            ok = _within(got, R.ref_trsm(tri, b, p["alpha"]), m, factor=64.0)
        assert ok, p
        assert _unchanged((tri, b), copies), p

    _run(backend, check)
