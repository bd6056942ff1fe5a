"""DGER (rank-1 update) driver around the generated ``ger`` kernel.

``A += alpha * x yᵀ`` for a row-major A.  The whole update is one call
of a generated kernel (``A[i*LDA+j] += Y[j] * X[i]``, an mvUnrolledCOMP
region with one broadcast of ``X[i]`` per row) — the loop nest around
the inner AXPY is generated too, not driven from Python.

``alpha`` is folded into an m-length copy of ``x``, as
:class:`~repro.blas.gemv.GemvDriver` does.  Edge handling follows the
other Level-2 drivers: the kernel runs the column prefix that is a
multiple of the unroll factor and the ``n % unroll`` tail columns are
finished in one numpy expression.

NaN/Inf rule (shared with :class:`~repro.blas.reference.ReferenceGerDriver`
and the ``ref_ger`` oracle): ``alpha == 0`` is the BLAS quick return and
leaves A untouched; everything else goes through the kernel, so a zero
``x[i]`` against an infinite ``y[j]`` yields NaN like the reference.
"""

from __future__ import annotations

import numpy as np

from ..backend.runner import GerKernel
from ..obs import incr
from .level1 import unroll_of


class GerDriver:
    """``A = A + alpha * outer(x, y)`` (mutates A)."""

    def __init__(self, kernel: GerKernel) -> None:
        self.kernel = kernel
        self.unroll = unroll_of(kernel.generated, "j")
        # Never called: benchmarks/ledger/layers.py::probe_ger reads and
        # re-binds this attribute to count AXPY calls per DGER (0 since
        # the native kernel).  A later `benchmark` issue should count
        # kernel calls instead; delete the attribute then.
        self.axpy = None

    def __call__(self, alpha: float, x: np.ndarray, y: np.ndarray,
                 a: np.ndarray) -> np.ndarray:
        if a.dtype != np.float64 or a.ndim != 2 or not a.flags.c_contiguous:
            raise ValueError("A must be a contiguous float64 matrix")
        m, n = a.shape
        x = np.ascontiguousarray(x, dtype=np.float64)
        y = np.ascontiguousarray(y, dtype=np.float64)
        if x.shape != (m,) or y.shape != (n,):
            raise ValueError("vector lengths do not match A")
        if alpha == 0.0:
            return a
        xs = x if alpha == 1.0 else alpha * x
        main = n - n % self.unroll
        if main:
            self.kernel(m, main, xs, y, a, n)
            incr("ger.kernel_calls")
        if main < n:
            a[:, main:] += np.outer(xs, y[main:])
        return a


def make_ger(arch=None, config=None, schedule: bool = True,
             loader=None) -> GerDriver:
    from ..backend.runner import load_kernel
    from ..core.framework import Augem

    load = loader or load_kernel
    aug = Augem(arch=arch, schedule=schedule)
    gk = aug.generate_named("ger", config=config)
    return GerDriver(load("ger", gk))
