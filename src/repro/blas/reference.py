"""Pure-numpy reference semantics for every routine — the test oracle.

Besides the plain ``ref_*`` oracle functions, this module provides
**driver-shaped wrappers** (``Reference*Driver``) that mirror the calling
conventions and mutation semantics of the native drivers in
:mod:`repro.blas.gemm` / :mod:`repro.blas.gemv` /
:mod:`repro.blas.level1`, so the dispatch layer can install them as the
terminal tier of the fallback chain and :class:`~repro.blas.level3.Level3`
composes on top transparently.
"""

from __future__ import annotations

from typing import Optional

import numpy as np


def ref_gemm(a, b, c=None, alpha=1.0, beta=0.0):
    out = alpha * (np.asarray(a) @ np.asarray(b))
    if c is not None and beta != 0.0:
        out = out + beta * np.asarray(c)
    return out


def ref_gemv(a, x, y=None, alpha=1.0, beta=0.0, trans=False):
    a = np.asarray(a)
    op = a.T if trans else a
    out = alpha * (op @ np.asarray(x))
    if y is not None and beta != 0.0:
        out = out + beta * np.asarray(y)
    return out


def ref_axpy(alpha, x, y):
    return np.asarray(y) + alpha * np.asarray(x)


def ref_dot(x, y):
    return float(np.asarray(x) @ np.asarray(y))


def ref_symm(a, b, c=None, alpha=1.0, beta=0.0):
    a = np.asarray(a)
    full = np.tril(a) + np.tril(a, -1).T
    return ref_gemm(full, b, c, alpha, beta)


def ref_syrk(a, c=None, alpha=1.0, beta=0.0):
    a = np.asarray(a)
    full = alpha * (a @ a.T)
    n = a.shape[0]
    out = np.zeros((n, n)) if c is None else np.array(c, dtype=np.float64)
    mask = np.tril(np.ones((n, n), dtype=bool))
    base = out[mask] * beta if beta != 0.0 else 0.0
    out[mask] = base + full[mask]
    return out


def ref_syr2k(a, b, c=None, alpha=1.0, beta=0.0):
    a = np.asarray(a)
    b = np.asarray(b)
    full = alpha * (a @ b.T + b @ a.T)
    n = a.shape[0]
    out = np.zeros((n, n)) if c is None else np.array(c, dtype=np.float64)
    mask = np.tril(np.ones((n, n), dtype=bool))
    base = out[mask] * beta if beta != 0.0 else 0.0
    out[mask] = base + full[mask]
    return out


def ref_trmm(l, b, alpha=1.0):
    return alpha * (np.tril(np.asarray(l)) @ np.asarray(b))


def ref_trsm(l, b, alpha=1.0):
    import numpy.linalg as la

    lo = np.tril(np.asarray(l))
    return alpha * la.solve(lo, np.asarray(b))


def ref_ger(alpha, x, y, a):
    """``A + alpha * x yᵀ``.  ``alpha == 0`` is the BLAS quick return (A
    comes back untouched, even against NaN/Inf in x or y); any other
    alpha follows IEEE arithmetic, so ``0 * inf`` entries are NaN."""
    a = np.asarray(a)
    if alpha == 0.0:
        return a.copy()
    return a + alpha * np.outer(x, y)


# ---------------------------------------------------------------------------
# Driver-shaped wrappers (the dispatch chain's reference tier)
# ---------------------------------------------------------------------------

class ReferenceGemmDriver:
    """Drop-in for :class:`~repro.blas.gemm.GemmDriver` backed by numpy."""

    tier = "reference"

    def __call__(self, a, b, c=None, alpha: float = 1.0,
                 beta: float = 0.0) -> np.ndarray:
        a = np.asarray(a, dtype=np.float64)
        b = np.asarray(b, dtype=np.float64)
        if a.ndim != 2 or b.ndim != 2 or a.shape[1] != b.shape[0]:
            raise ValueError(f"shape mismatch: {a.shape} @ {b.shape}")
        out = alpha * (a @ b)
        if c is not None:
            c = np.asarray(c, dtype=np.float64)
            if c.shape != out.shape:
                raise ValueError(f"C has shape {c.shape}, "
                                 f"expected {out.shape}")
            if beta != 0.0:
                out = out + beta * c
        return out


class ReferenceGemvDriver:
    """Drop-in for :class:`~repro.blas.gemv.GemvDriver` backed by numpy."""

    tier = "reference"

    def __call__(self, a, x, y=None, alpha: float = 1.0, beta: float = 0.0,
                 trans: bool = False) -> np.ndarray:
        a = np.asarray(a, dtype=np.float64)
        x = np.asarray(x, dtype=np.float64)
        if a.ndim != 2 or x.ndim != 1:
            raise ValueError("A must be 2-D and x 1-D")
        op = a.T if trans else a
        if x.shape[0] != op.shape[1]:
            raise ValueError("x length does not match A")
        out = alpha * (op @ x)
        if y is not None and beta != 0.0:
            out = out + beta * np.asarray(y, dtype=np.float64)
        return out


class ReferenceAxpyDriver:
    """Drop-in for :class:`~repro.blas.level1.AxpyDriver` (mutates y)."""

    tier = "reference"

    def __call__(self, alpha: float, x: np.ndarray,
                 y: np.ndarray) -> np.ndarray:
        x = np.ascontiguousarray(x, dtype=np.float64)
        if y.dtype != np.float64 or not y.flags.c_contiguous:
            raise ValueError("y must be a contiguous float64 array")
        if x.shape != y.shape or x.ndim != 1:
            raise ValueError("x and y must be 1-D arrays of equal length")
        y += alpha * x
        return y


class ReferenceGerDriver:
    """Drop-in for :class:`~repro.blas.ger.GerDriver` (mutates A)."""

    tier = "reference"

    def __call__(self, alpha: float, x: np.ndarray, y: np.ndarray,
                 a: np.ndarray) -> np.ndarray:
        if a.dtype != np.float64 or a.ndim != 2 or not a.flags.c_contiguous:
            raise ValueError("A must be a contiguous float64 matrix")
        x = np.asarray(x, dtype=np.float64)
        y = np.asarray(y, dtype=np.float64)
        if x.shape != a.shape[:1] or y.shape != a.shape[1:]:
            raise ValueError("vector lengths do not match A")
        if alpha != 0.0:  # alpha == 0: BLAS quick return (see ref_ger)
            a += alpha * np.outer(x, y)
        return a


class ReferenceDotDriver:
    """Drop-in for :class:`~repro.blas.level1.DotDriver`."""

    tier = "reference"

    def __call__(self, x: np.ndarray, y: np.ndarray) -> float:
        x = np.ascontiguousarray(x, dtype=np.float64)
        y = np.ascontiguousarray(y, dtype=np.float64)
        if x.shape != y.shape or x.ndim != 1:
            raise ValueError("x and y must be 1-D arrays of equal length")
        return float(x @ y)


class ReferenceScalDriver:
    """Drop-in for :class:`~repro.blas.level1.ScalDriver` (mutates x)."""

    tier = "reference"

    def __call__(self, alpha: float, x: np.ndarray) -> np.ndarray:
        if x.dtype != np.float64 or not x.flags.c_contiguous:
            raise ValueError("x must be a contiguous float64 array")
        if x.ndim != 1:
            raise ValueError("x must be 1-D")
        x *= alpha
        return x
