"""Edge-shape conformance against the reference oracle.

Two layers:

- **driver conformance across every ISA** — the generated kernels run in
  the x86-64 emulator (so FMA4/Piledriver code is covered on any host),
  wrapped by the real blocked drivers, on the shapes that exercise the
  padding/tail machinery: 1x1, zero-dim, and non-multiple-of-unroll;
- **facade conformance** — a hardened :class:`AugemBLAS` must match
  :mod:`repro.blas.reference` for aliased outputs, Fortran-ordered and
  strided inputs, and NaN/Inf propagation, *whatever tier ends up
  serving* (these tests also pass under ``REPRO_FAULT_INJECT`` — CI runs
  this file with ``segv@#0`` to prove graceful degradation).
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.blas import reference as ref
from repro.blas.api import AugemBLAS
from repro.blas.gemm import GemmDriver
from repro.blas.gemv import GemvDriver
from repro.blas.ger import GerDriver
from repro.blas.level1 import AxpyDriver, DotDriver, ScalDriver
from repro.core.framework import Augem
from repro.emu.run import call_items


class _EmuKernel:
    """Duck-types a loaded native kernel: executes the generated
    instruction stream in the emulator instead of through ctypes."""

    def __init__(self, gk):
        self.generated = gk

    def __call__(self, *args):
        return call_items(self.generated.items, list(args))


_GENERATED = {}  # (arch name, family) -> _EmuKernel, shared across tests


def _emu_kernel(arch, family):
    key = (arch.name, family)
    if key not in _GENERATED:
        _GENERATED[key] = _EmuKernel(Augem(arch=arch).generate_named(family))
    return _GENERATED[key]


# -- driver conformance on every ISA (emulated) -----------------------------

GEMM_SHAPES = [(1, 1, 1), (2, 3, 5), (5, 3, 2), (13, 7, 9)]


def test_gemm_driver_edge_shapes(any_arch, rng):
    driver = GemmDriver(_emu_kernel(any_arch, "gemm"))
    for m, n, k in GEMM_SHAPES:
        a = rng.standard_normal((m, k))
        b = rng.standard_normal((k, n))
        c = rng.standard_normal((m, n))
        got = driver(a, b, c, alpha=1.25, beta=-0.5)
        assert np.allclose(got, ref.ref_gemm(a, b, c, 1.25, -0.5)), (m, n, k)
        assert np.allclose(driver(a, b), a @ b), (m, n, k)


def test_gemm_driver_zero_k(any_arch, rng):
    driver = GemmDriver(_emu_kernel(any_arch, "gemm"))
    c = rng.standard_normal((3, 4))
    got = driver(np.zeros((3, 0)), np.zeros((0, 4)), c, beta=2.0)
    assert np.allclose(got, 2.0 * c)


def test_gemv_driver_edge_shapes(any_arch, rng):
    driver = GemvDriver(_emu_kernel(any_arch, "gemv"),
                        _emu_kernel(any_arch, "gemv_n"))
    for m, n in [(1, 1), (3, 5), (13, 7)]:
        a = rng.standard_normal((m, n))
        x, xt = rng.standard_normal(n), rng.standard_normal(m)
        y = rng.standard_normal(m)
        got = driver(a, x, y, alpha=1.5, beta=0.5)
        assert np.allclose(got, ref.ref_gemv(a, x, y, 1.5, 0.5)), (m, n)
        got_t = driver(a, xt, alpha=-2.0, trans=True)
        assert np.allclose(got_t, ref.ref_gemv(a, xt, alpha=-2.0,
                                               trans=True)), (m, n)


def test_level1_driver_tails(any_arch, rng):
    axpy = AxpyDriver(_emu_kernel(any_arch, "axpy"))
    dot = DotDriver(_emu_kernel(any_arch, "dot"))
    scal = ScalDriver(_emu_kernel(any_arch, "scal"))
    # below-unroll lengths run the pure-tail path; 17 exercises the split
    for n in sorted({1, 2, axpy.unroll + 1, 17}):
        x = rng.standard_normal(n)
        y = rng.standard_normal(n)
        y2 = y.copy()
        axpy(2.5, x, y2)
        assert np.allclose(y2, ref.ref_axpy(2.5, x, y)), n
        assert np.isclose(dot(x, y), ref.ref_dot(x, y)), n
        x2 = x.copy()
        scal(-0.75, x2)
        assert np.allclose(x2, -0.75 * x), n


def test_ger_driver_shapes_and_alphas(any_arch, rng):
    driver = GerDriver(_emu_kernel(any_arch, "ger"))
    u = driver.unroll
    # 1, below the unroll (pure numpy tail), primes (prefix + tail) and
    # exact multiples (no tail), on both dimensions
    for m in (1, 7, u):
        for n in sorted({1, u - 1, 13, 2 * u + 5, u, 2 * u}):
            for alpha in (1.0, -1.0, 0.5):
                a = rng.standard_normal((m, n))
                a0 = a.copy()
                x, y = rng.standard_normal(m), rng.standard_normal(n)
                assert driver(alpha, x, y, a) is a
                assert np.allclose(a, ref.ref_ger(alpha, x, y, a0),
                                   rtol=1e-14, atol=1e-14), (m, n, alpha)


def test_ger_kernel_respects_lda(any_arch, rng):
    """``lda > n``: the columns past N in every row are not touched."""
    kernel = _emu_kernel(any_arch, "ger")
    u = GerDriver(kernel).unroll
    for m, n, lda in [(1, u, u + 1), (5, 2 * u, 2 * u + 7)]:
        a = rng.standard_normal((m, lda))
        a0 = a.copy()
        x, y = rng.standard_normal(m), rng.standard_normal(n)
        kernel(m, n, x, y, a.reshape(-1), lda)
        assert np.array_equal(a[:, n:], a0[:, n:]), (m, n, lda)
        assert np.allclose(a[:, :n], ref.ref_ger(1.0, x, y, a0[:, :n]),
                           rtol=1e-14, atol=1e-14), (m, n, lda)


def test_ger_nan_rule_emulator_and_reference_tiers(any_arch):
    """One rule on every tier: ``alpha == 0`` returns A untouched,
    anything else follows IEEE (a zero x[i] against inf in y is NaN)."""
    for driver in (GerDriver(_emu_kernel(any_arch, "ger")),
                   ref.ReferenceGerDriver()):
        u = getattr(driver, "unroll", 8)
        n = u + 3
        x = np.array([0.0, 2.0, 0.0])
        y = np.ones(n)
        y[1], y[n - 1] = np.inf, -np.inf    # kernel prefix and numpy tail
        a0 = np.arange(3.0 * n).reshape(3, n)
        with np.errstate(invalid="ignore"):
            expect = ref.ref_ger(0.5, x, y, a0)
            got = driver(0.5, x, y, a0.copy())
        assert np.isnan(expect[0, 1]) and np.isnan(expect[2, n - 1])
        assert np.array_equal(got, expect, equal_nan=True)
        untouched = a0.copy()
        x[0], y[2] = np.nan, np.nan
        assert driver(0.0, x, y, untouched) is untouched
        assert np.array_equal(untouched, a0)
        assert np.array_equal(ref.ref_ger(0.0, x, y, a0), a0)


# -- facade conformance (any serving tier must match reference) -------------

@pytest.fixture(scope="module")
def blas():
    return AugemBLAS()


def test_facade_zero_dim_shapes(blas, rng):
    assert blas.dgemm(np.zeros((0, 4)), np.zeros((4, 3))).shape == (0, 3)
    c = rng.standard_normal((3, 4))
    assert np.allclose(
        blas.dgemm(np.zeros((3, 0)), np.zeros((0, 4)), c, beta=2.0), 2.0 * c)
    assert blas.dgemv(np.zeros((0, 5)), np.zeros(5)).shape == (0,)
    assert blas.ddot(np.zeros(0), np.zeros(0)) == 0.0
    y = np.zeros(0)
    assert blas.daxpy(3.0, np.zeros(0), y) is y
    assert blas.dsyrk(np.zeros((0, 0))).shape == (0, 0)


def test_facade_aliased_outputs(blas, rng):
    a = rng.standard_normal((9, 9))
    b = rng.standard_normal((9, 9))
    expected = ref.ref_gemm(a, b, a.copy(), 1.0, 0.5)
    assert np.allclose(blas.dgemm(a, b, c=a, beta=0.5), expected)
    x = rng.standard_normal(21)
    x0 = x.copy()
    assert np.allclose(blas.daxpy(2.0, x, x), 3.0 * x0)


def test_facade_fortran_and_strided_inputs(blas, rng):
    a = np.asfortranarray(rng.standard_normal((11, 6)))
    b = rng.standard_normal((12, 7))[::2]  # stride-2 row view
    assert np.allclose(blas.dgemm(a, b), ref.ref_gemm(a, b))
    x = rng.standard_normal(12)[::2]
    assert np.allclose(blas.dgemv(a, x), ref.ref_gemv(a, x))
    xt = rng.standard_normal(22)[::2]
    assert np.allclose(blas.dgemv(a, xt, trans=True),
                       ref.ref_gemv(a, xt, trans=True))


def test_facade_nan_propagation(blas, rng):
    a = np.abs(rng.standard_normal((12, 9))) + 0.5
    b = np.abs(rng.standard_normal((9, 7))) + 0.5
    a[3, 4] = np.nan
    with np.errstate(invalid="ignore"):
        got, expected = blas.dgemm(a, b), ref.ref_gemm(a, b)
    assert np.array_equal(np.isnan(got), np.isnan(expected))
    finite = ~np.isnan(expected)
    assert np.allclose(got[finite], expected[finite])


def test_facade_inf_propagation(blas, rng):
    a = np.abs(rng.standard_normal((8, 6))) + 0.5
    b = np.abs(rng.standard_normal((6, 5))) + 0.5
    a[2, 1] = np.inf
    with np.errstate(invalid="ignore"):
        got, expected = blas.dgemm(a, b), ref.ref_gemm(a, b)
    assert np.array_equal(np.isinf(got), np.isinf(expected))
    finite = np.isfinite(expected)
    assert np.allclose(got[finite], expected[finite])
    x = rng.standard_normal(19)
    x[5], x[7] = np.inf, np.nan
    y = rng.standard_normal(19)
    y2 = y.copy()
    blas.daxpy(1.5, x, y2)
    expected = ref.ref_axpy(1.5, x, y)
    assert np.array_equal(np.isnan(y2), np.isnan(expected))
    assert np.array_equal(np.isinf(y2), np.isinf(expected))
    mask = np.isfinite(expected)
    assert np.allclose(y2[mask], expected[mask])


def test_facade_dger_nan_rule(blas, rng):
    a0 = rng.standard_normal((6, 21))
    x = rng.standard_normal(6)
    y = rng.standard_normal(21)
    x[0], y[4], y[20] = 0.0, np.inf, np.nan
    with np.errstate(invalid="ignore"):
        expected = ref.ref_ger(-1.5, x, y, a0)
        got = blas.dger(-1.5, x, y, a0.copy())
    assert np.isnan(expected[0, 4])
    assert np.array_equal(np.isnan(got), np.isnan(expected))
    assert np.array_equal(np.isinf(got), np.isinf(expected))
    finite = np.isfinite(expected)
    assert np.allclose(got[finite], expected[finite])
    assert np.array_equal(blas.dger(0.0, x, y, a0.copy()), a0)


# -- the acceptance scenario: injected SIGSEGV, graceful degradation --------

_SEGV_SCRIPT = """
import numpy as np
from repro.blas.api import AugemBLAS

rng = np.random.default_rng(0)
blas = AugemBLAS()
a = rng.standard_normal((17, 13)); b = rng.standard_normal((13, 11))
assert np.allclose(blas.dgemm(a, b), a @ b)
x = rng.standard_normal(33); y = rng.standard_normal(33)
assert np.isclose(blas.ddot(x, y), float(x @ y))
y2 = y.copy(); blas.daxpy(2.0, x, y2)
assert np.allclose(y2, y + 2.0 * x)
demoted = [r for r, d in blas.dispatch_report().items() if d.demoted]
assert demoted, "injected fault must demote at least one routine"
print("DEGRADED-OK")
"""


def test_graceful_degradation_under_injected_segv(tmp_path):
    trace = tmp_path / "trace.jsonl"
    src = Path(__file__).resolve().parents[2] / "src"
    env = dict(os.environ)
    env.pop("REPRO_FORCE_ARCH", None)  # hermetic: probe the real chain
    env.update(
        PYTHONPATH=os.pathsep.join(
            [str(src)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH")
                          else [])),
        REPRO_CACHE_DIR="off",
        REPRO_FAULT_INJECT="segv@#0",
        REPRO_TRACE=str(trace),
    )
    proc = subprocess.run([sys.executable, "-c", _SEGV_SCRIPT], env=env,
                          capture_output=True, text=True, timeout=240)
    assert proc.returncode == 0, proc.stderr
    assert "DEGRADED-OK" in proc.stdout
    records = [json.loads(line)
               for line in trace.read_text().splitlines() if line.strip()]
    demotions = [r for r in records if r.get("name") == "dispatch.demotion"]
    assert demotions, "trace must record the demotion"
