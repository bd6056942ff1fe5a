"""Compiled C baseline kernels — the comparator libraries of §5.

The paper compares AUGEM against four BLAS libraries that are not
redistributable / not installable here; per DESIGN.md each is replaced by
a methodological stand-in:

- **"ATLAS" proxy** — the same blocked, packed GEMM algorithm written in
  plain C and handed to the general-purpose compiler at ``-O3
  -march=native -funroll-loops`` (generated C + vendor compiler is exactly
  the ATLAS methodology the paper contrasts against);
- **"GotoBLAS" proxy** — AUGEM's own SSE2-only generated kernel (GotoBLAS
  1.13's hand assembly predates AVX/FMA, the reason it trails in Fig. 18),
  plus a plain ``-O2`` naive C curve as a floor;
- **vendor proxy (MKL/ACML)** — numpy's OpenBLAS, hand-tuned assembly from
  the very lineage AUGEM's kernels were merged into.

This module also provides the small triangular diagonal-block solve
(naive C) used by the blocked TRSM driver, so no numpy/OpenBLAS cycles
leak into the Level-3 measurements.
"""

from __future__ import annotations

import ctypes
from typing import Callable, Optional

import numpy as np

from .compiler import build_shared

_DP = ctypes.POINTER(ctypes.c_double)


def _ptr(a: np.ndarray):
    return a.ctypes.data_as(_DP)


NAIVE_DGEMM_C = r"""
void naive_dgemm(long m, long n, long k,
                 const double* A, const double* B, double* C) {
    /* C (m x n, row-major) += A (m x k) @ B (k x n) */
    for (long i = 0; i < m; i++) {
        for (long l = 0; l < k; l++) {
            double a = A[i*k + l];
            for (long j = 0; j < n; j++) {
                C[i*n + j] += a * B[l*n + j];
            }
        }
    }
}
"""

BLOCKED_DGEMM_C = r"""
#define MC 64
#define KC 256
#define NC 512

static double Apack[MC*KC];
static double Bpack[KC*NC];

static void pack_a(long mc, long kc, const double* restrict A, long lda,
                   double* restrict out) {
    for (long l = 0; l < kc; l++)
        for (long i = 0; i < mc; i++)
            out[l*mc + i] = A[i*lda + l];
}

static void pack_b(long kc, long nc, const double* restrict B, long ldb,
                   double* restrict out) {
    for (long l = 0; l < kc; l++)
        for (long j = 0; j < nc; j++)
            out[l*nc + j] = B[l*ldb + j];
}

static void kernel(long mc, long nc, long kc,
                   const double* restrict A, const double* restrict B,
                   double* restrict C, long ldc) {
    /* C row-major tile (mc x nc): same packed operands the generated
       kernel uses, restructured so the compiler's auto-vectorizer gets a
       clean unit-stride inner loop (the ATLAS-methodology best case) */
    double acc[NC];
    for (long i = 0; i < mc; i++) {
        for (long j = 0; j < nc; j++) acc[j] = 0.0;
        for (long l = 0; l < kc; l++) {
            double a = A[l*mc + i];
            for (long j = 0; j < nc; j++)
                acc[j] += a * B[l*nc + j];
        }
        for (long j = 0; j < nc; j++) C[i*ldc + j] += acc[j];
    }
}

void blocked_dgemm(long m, long n, long k,
                   const double* A, const double* B, double* C) {
    for (long j0 = 0; j0 < n; j0 += NC) {
        long nc = n - j0 < NC ? n - j0 : NC;
        for (long l0 = 0; l0 < k; l0 += KC) {
            long kc = k - l0 < KC ? k - l0 : KC;
            pack_b(kc, nc, B + l0*n + j0, n, Bpack);
            for (long i0 = 0; i0 < m; i0 += MC) {
                long mc = m - i0 < MC ? m - i0 : MC;
                pack_a(mc, kc, A + i0*k + l0, k, Apack);
                kernel(mc, nc, kc, Apack, Bpack, C + i0*n + j0, n);
            }
        }
    }
}
"""

NAIVE_VECTOR_C = r"""
void naive_dgemv_t(long m, long n, const double* A, const double* x,
                   double* y) {
    /* y (n) += A^T (n x m) @ x: A row-major (m x n) */
    for (long i = 0; i < m; i++) {
        double s = x[i];
        for (long j = 0; j < n; j++)
            y[j] += A[i*n + j] * s;
    }
}

void naive_daxpy(long n, double alpha, const double* x, double* y) {
    for (long i = 0; i < n; i++)
        y[i] += alpha * x[i];
}

double naive_ddot(long n, const double* x, const double* y) {
    double s = 0.0;
    for (long i = 0; i < n; i++)
        s += x[i] * y[i];
    return s;
}
"""

TRIANGULAR_DIAG_C = r"""
void trsm_lower_diag(long nb, long ncols, const double* L, double* B,
                     long ldb) {
    /* B = L^{-1} B by forward substitution */
    for (long i = 0; i < nb; i++) {
        for (long l = 0; l < i; l++) {
            double c = L[i*nb + l];
            for (long j = 0; j < ncols; j++)
                B[i*ldb + j] -= c * B[l*ldb + j];
        }
        double d = 1.0 / L[i*nb + i];
        for (long j = 0; j < ncols; j++)
            B[i*ldb + j] *= d;
    }
}
"""

#: gcc flag sets for the two baseline tiers
FLAGS_O2 = ("-O2",)
FLAGS_NATIVE = ("-O3", "-march=native", "-funroll-loops", "-ffast-math")


class BaselineLibrary:
    """Lazy-compiled bundle of every baseline routine at one flag tier."""

    def __init__(self, flags=FLAGS_NATIVE, tag: str = "baseline") -> None:
        self.flags = tuple(flags)
        self.tag = tag
        self._so = None

    @property
    def so(self):
        if self._so is None:
            self._so = build_shared(
                {
                    "gemm_naive.c": NAIVE_DGEMM_C,
                    "gemm_blocked.c": BLOCKED_DGEMM_C,
                    "vector.c": NAIVE_VECTOR_C,
                    "triangular.c": TRIANGULAR_DIAG_C,
                },
                extra_flags=self.flags,
                tag=self.tag,
            )
        return self._so

    def _sig(self, name: str, restype, argtypes) -> Callable:
        fn = self.so.symbol(name)
        fn.restype = restype
        fn.argtypes = argtypes
        return fn

    # -- GEMM -------------------------------------------------------------
    def naive_dgemm(self, a: np.ndarray, b: np.ndarray,
                    c: np.ndarray) -> np.ndarray:
        m, k = a.shape
        _, n = b.shape
        fn = self._sig("naive_dgemm", None,
                       [ctypes.c_long] * 3 + [_DP] * 3)
        fn(m, n, k, _ptr(a), _ptr(b), _ptr(c))
        return c

    def blocked_dgemm(self, a: np.ndarray, b: np.ndarray,
                      c: np.ndarray) -> np.ndarray:
        m, k = a.shape
        _, n = b.shape
        fn = self._sig("blocked_dgemm", None,
                       [ctypes.c_long] * 3 + [_DP] * 3)
        fn(m, n, k, _ptr(a), _ptr(b), _ptr(c))
        return c

    # -- vector -----------------------------------------------------------
    def dgemv_t(self, a: np.ndarray, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        m, n = a.shape
        fn = self._sig("naive_dgemv_t", None,
                       [ctypes.c_long] * 2 + [_DP] * 3)
        fn(m, n, _ptr(a), _ptr(x), _ptr(y))
        return y

    def daxpy(self, alpha: float, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        fn = self._sig("naive_daxpy", None,
                       [ctypes.c_long, ctypes.c_double, _DP, _DP])
        fn(len(x), alpha, _ptr(x), _ptr(y))
        return y

    def ddot(self, x: np.ndarray, y: np.ndarray) -> float:
        fn = self._sig("naive_ddot", ctypes.c_double,
                       [ctypes.c_long, _DP, _DP])
        return fn(len(x), _ptr(x), _ptr(y))

    # -- triangular diagonal block ----------------------------------------
    def trsm_diag(self, l_block: np.ndarray, b_rows: np.ndarray,
                  ldb: Optional[int] = None) -> None:
        """``b_rows = L⁻¹ b_rows`` in place (rows ``ldb`` elements apart,
        by default ``b_rows``' own row stride)."""
        l_block = np.ascontiguousarray(l_block, dtype=np.float64)
        nb = l_block.shape[0]
        if ldb is None:
            ldb = b_rows.strides[0] // b_rows.itemsize
        ncols = b_rows.shape[1] if b_rows.ndim == 2 else ldb
        fn = self._sig("trsm_lower_diag", None,
                       [ctypes.c_long, ctypes.c_long, _DP, _DP, ctypes.c_long])
        fn(nb, ncols, _ptr(l_block), _ptr(b_rows), ldb)


_default_o2 = None
_default_native = None


def baseline_o2() -> BaselineLibrary:
    """Naive-compilation tier (``-O2``)."""
    global _default_o2
    if _default_o2 is None:
        _default_o2 = BaselineLibrary(FLAGS_O2, tag="base-o2")
    return _default_o2


def baseline_native() -> BaselineLibrary:
    """Auto-vectorized tier (``-O3 -march=native``) — the ATLAS proxy."""
    global _default_native
    if _default_native is None:
        _default_native = BaselineLibrary(FLAGS_NATIVE, tag="base-nat")
    return _default_native
