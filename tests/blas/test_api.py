"""AugemBLAS facade tests."""

import numpy as np
import pytest

from repro.blas.api import AugemBLAS, default_blas
from repro.core.framework import default_config
from repro.isa.arch import GENERIC_SSE, detect_host
from repro.transforms.pipeline import OptimizationConfig

from tests.conftest import needs_cc

pytestmark = needs_cc


def test_default_blas_is_singleton():
    assert default_blas() is default_blas()


def test_lazy_kernel_construction():
    blas = AugemBLAS()
    assert "gemm" not in blas._drivers
    blas.dgemm(np.eye(4), np.eye(4))
    assert "gemm" in blas._drivers
    assert "gemv" not in blas._drivers  # untouched routines stay ungenerated


def test_custom_config_used(rng):
    cfg = OptimizationConfig(unroll_jam=(("j", 2), ("i", 4)), unroll=(("l", 2),))
    blas = AugemBLAS(configs={"gemm": cfg})
    a = rng.standard_normal((20, 20))
    b = rng.standard_normal((20, 20))
    assert np.allclose(blas.dgemm(a, b), a @ b)
    assert blas.gemm_driver.kernel.generated.config == cfg


def test_sse_arch_blas(rng):
    blas = AugemBLAS(arch=GENERIC_SSE)
    a = rng.standard_normal((24, 24))
    b = rng.standard_normal((24, 24))
    assert np.allclose(blas.dgemm(a, b), a @ b)
    x = rng.standard_normal(50)
    y = rng.standard_normal(50)
    assert np.isclose(blas.ddot(x, y), x @ y)


def test_all_routines_exposed(rng):
    blas = AugemBLAS()
    n, k = 20, 12
    a = rng.standard_normal((n, n))
    bk = rng.standard_normal((n, k))
    ak = rng.standard_normal((n, k))
    l = np.tril(rng.standard_normal((n, n))) + 3 * np.eye(n)
    x = rng.standard_normal(n)
    y = rng.standard_normal(n)
    assert blas.dgemm(a, a).shape == (n, n)
    assert blas.dgemv(a, x, trans=True).shape == (n,)
    assert isinstance(blas.ddot(x, y), float)
    blas.daxpy(1.0, x, y)
    assert blas.dsymm(a, bk).shape == (n, k)
    assert blas.dsyrk(ak).shape == (n, n)
    assert blas.dsyr2k(ak, ak).shape == (n, n)
    assert blas.dtrmm(l, bk).shape == (n, k)
    assert blas.dtrsm(l, bk).shape == (n, k)
    m = np.ascontiguousarray(rng.standard_normal((n, n)))
    blas.dger(1.0, x, y[:n], m)


def test_shuf_layout_blas(rng):
    blas = AugemBLAS(layout="shuf")
    a = rng.standard_normal((16, 16))
    b = rng.standard_normal((16, 16))
    assert np.allclose(blas.dgemm(a, b), a @ b)
