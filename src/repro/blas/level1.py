"""Level-1 drivers: DAXPY and DDOT around the generated kernels.

The generated kernels run remainder-free over the largest prefix whose
length is a multiple of the unroll factor; the short tail (< unroll
elements) is finished in numpy — the same split a hand-written BLAS does
with its scalar cleanup loop.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from ..backend.runner import NativeKernel
from ..core.framework import GeneratedKernel


def unroll_of(generated: GeneratedKernel, var: str = "i") -> int:
    for v, factor in generated.config.unroll:
        if v == var:
            return factor
    for v, factor in generated.config.unroll_jam:
        if v == var:
            return factor
    return 1


class AxpyDriver:
    """``y += alpha * x`` (unit stride, float64)."""

    def __init__(self, kernel: NativeKernel) -> None:
        self.kernel = kernel
        self.unroll = unroll_of(kernel.generated)

    def __call__(self, alpha: float, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        x = np.ascontiguousarray(x, dtype=np.float64)
        if y.dtype != np.float64 or not y.flags.c_contiguous:
            raise ValueError("y must be a contiguous float64 array")
        if x.shape != y.shape or x.ndim != 1:
            raise ValueError("x and y must be 1-D arrays of equal length")
        n = len(x)
        main = n - n % self.unroll
        if main:
            self.kernel(main, float(alpha), x, y)
        if main < n:
            y[main:] += alpha * x[main:]
        return y


class DotDriver:
    """``x . y`` (unit stride, float64)."""

    def __init__(self, kernel: NativeKernel) -> None:
        self.kernel = kernel
        self.unroll = unroll_of(kernel.generated)

    def __call__(self, x: np.ndarray, y: np.ndarray) -> float:
        x = np.ascontiguousarray(x, dtype=np.float64)
        y = np.ascontiguousarray(y, dtype=np.float64)
        if x.shape != y.shape or x.ndim != 1:
            raise ValueError("x and y must be 1-D arrays of equal length")
        n = len(x)
        main = n - n % self.unroll
        total = self.kernel(main, x, y) if main else 0.0
        if main < n:
            total += float(x[main:] @ y[main:])
        return total


class ScalDriver:
    """``x *= alpha`` (unit stride, float64) — extension routine built on
    the mvSCALE template (demonstrates the paper's §7 extensibility)."""

    def __init__(self, kernel) -> None:
        self.kernel = kernel
        self.unroll = unroll_of(kernel.generated)

    def __call__(self, alpha: float, x: np.ndarray) -> np.ndarray:
        if x.dtype != np.float64 or not x.flags.c_contiguous:
            raise ValueError("x must be a contiguous float64 array")
        if x.ndim != 1:
            raise ValueError("x must be 1-D")
        n = len(x)
        main = n - n % self.unroll
        if main:
            self.kernel(main, float(alpha), x)
        if main < n:
            x[main:] *= alpha
        return x


def make_scal(arch=None, config=None, schedule: bool = True,
              loader=None) -> ScalDriver:
    from ..backend.runner import load_kernel
    from ..core.framework import Augem

    load = loader or load_kernel
    aug = Augem(arch=arch, schedule=schedule)
    gk = aug.generate_named("scal", config=config)
    return ScalDriver(load("scal", gk))


def make_axpy(arch=None, config=None, schedule: bool = True,
              loader=None) -> AxpyDriver:
    from ..backend.runner import load_kernel
    from ..core.framework import Augem

    load = loader or load_kernel
    aug = Augem(arch=arch, schedule=schedule)
    gk = aug.generate_named("axpy", config=config)
    return AxpyDriver(load("axpy", gk))


def make_dot(arch=None, config=None, schedule: bool = True,
              loader=None) -> DotDriver:
    from ..backend.runner import load_kernel
    from ..core.framework import Augem

    load = loader or load_kernel
    aug = Augem(arch=arch, schedule=schedule)
    gk = aug.generate_named("dot", config=config)
    return DotDriver(load("dot", gk))
