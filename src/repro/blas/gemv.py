"""DGEMV driver around the generated kernels.

Two generated kernels cover both orientations for row-major matrices:

- **column-sweep kernel** (paper Fig. 15): ``Y[j] += A[i*LDA+j] * X[i]``
  — on a row-major buffer this computes ``y += Aᵀ x`` (``trans=True``);
- **dot-form kernel** (``gemv_n``): ``Y[i] += row_i · X`` — rows are
  contiguous, so this is the native ``y += A x`` path (``trans=False``);
  each row reduction reuses the DOT machinery (paired mmUnrolledCOMP +
  sumREDUCE) and the update is an mmSTORE.

Edge handling: each kernel requires its *inner* trip count to be a
multiple of the unroll factor; the driver runs the aligned prefix through
the kernel and finishes the tail in numpy — the scalar cleanup loop of a
hand-written BLAS.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from ..backend.runner import NativeKernel
from .level1 import unroll_of


class GemvDriver:
    """``y = beta*y + alpha * op(A) @ x``."""

    def __init__(self, kernel_t: NativeKernel,
                 kernel_n: Optional[NativeKernel] = None) -> None:
        self.kernel_t = kernel_t
        self.kernel_n = kernel_n
        self.unroll_t = unroll_of(kernel_t.generated, "j")
        self.unroll_n = (unroll_of(kernel_n.generated, "j")
                         if kernel_n is not None else 1)

    def __call__(self, a: np.ndarray, x: np.ndarray,
                 y: Optional[np.ndarray] = None, alpha: float = 1.0,
                 beta: float = 0.0, trans: bool = False) -> np.ndarray:
        a = np.asarray(a, dtype=np.float64)
        x = np.ascontiguousarray(x, dtype=np.float64)
        if a.ndim != 2 or x.ndim != 1:
            raise ValueError("A must be 2-D and x 1-D")
        m, n = a.shape
        out_len = n if trans else m
        if len(x) != (m if trans else n):
            raise ValueError("x length does not match A")
        out = np.zeros(out_len) if y is None else np.array(y, dtype=np.float64)
        if beta == 0.0:
            out[:] = 0.0
        elif beta != 1.0:
            out *= beta

        if trans:
            self._gemv_t(a, x, out, alpha)
        elif self.kernel_n is not None and a.flags.c_contiguous:
            self._gemv_n(a, x, out, alpha)
        else:  # fall back through the transposed buffer
            self._gemv_t(np.ascontiguousarray(a.T), x, out, alpha)
        return out

    def _gemv_t(self, buf: np.ndarray, x: np.ndarray, out: np.ndarray,
                alpha: float) -> None:
        """column-sweep: out[j] += sum_i buf[i, j] * x[i]."""
        sweep, out_len = buf.shape
        lda = buf.shape[1]
        xs = x if alpha == 1.0 else alpha * x
        main = out_len - out_len % self.unroll_t
        if main:
            self.kernel_t(main, sweep, buf, lda, xs, out)
        if main < out_len:
            out[main:] += buf[:, main:].T @ xs

    def _gemv_n(self, a: np.ndarray, x: np.ndarray, out: np.ndarray,
                alpha: float) -> None:
        """dot-form: out[i] += row_i . x."""
        m, n = a.shape
        xs = x if alpha == 1.0 else alpha * x
        main = n - n % self.unroll_n
        if main:
            self.kernel_n(m, main, a, n, xs, out)
        if main < n:
            out += a[:, main:] @ xs[main:]


def make_gemv(arch=None, config=None, config_n=None,
              schedule: bool = True, loader=None) -> GemvDriver:
    from ..backend.runner import load_kernel
    from ..core.framework import Augem

    load = loader or load_kernel
    aug = Augem(arch=arch, schedule=schedule)
    gk_t = aug.generate_named("gemv", config=config)
    gk_n = aug.generate_named("gemv_n", config=config_n)
    return GemvDriver(load("gemv", gk_t), load("gemv_n", gk_n))
