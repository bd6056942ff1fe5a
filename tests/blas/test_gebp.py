"""The native GEMM loop: its packing and loop order against the numpy
layout spec, strided operands read in place, native kernels accumulating
whole micro-tiles straight into the result and only the ragged strips
through scratch, bit for bit as when ragged tiles ran whole, the
workspace bound, errors raised inside the kernel trampoline or the
verification after the call, and the one tiling rule: one
``augem_gemm`` call per thread range, with the single-threaded bits at
every thread count.

A recording kernel, reached through the driver's ctypes trampoline,
sees every packed A block and B panel the C loop hands the micro-kernel;
each must equal :mod:`repro.blas.packing`'s packer on the same block,
bit for bit.
"""

from __future__ import annotations

from types import SimpleNamespace

import numpy as np
import pytest

from repro.backend.compiler import ToolchainError, build_shared
from repro.backend.faults import (FaultPlan, InjectedWorkerFault,
                                  clear_fault_plan, install_fault_plan)
from repro.blas import dispatch, gebp
from repro.blas import gemm as gemm_module
from repro.blas.api import AugemBLAS
from repro.blas.gemm import BlockSizes, GemmDriver, split_for_threads
from repro.blas.guard import BlasArgumentError
from repro.blas.packing import (pack_a, pack_a_block, pack_b_dup,
                                pack_b_panel, pack_b_shuf)
from tests.conftest import needs_cc

pytestmark = needs_cc

BLOCKS = BlockSizes(mc=8, kc=8, nc=8)
MU, NU, KU = 4, 2, 2


class _RecordingKernel:
    """A numpy micro-kernel that keeps a copy of every panel it gets."""

    def __init__(self, layout: str, mults=(MU, NU, KU)) -> None:
        mu, nu, ku = mults
        self.generated = SimpleNamespace(config=SimpleNamespace(
            unroll_jam=(("i", mu), ("j", nu)), unroll=(("l", ku),)))
        self.layout = layout
        self.calls = []

    def __call__(self, mc, nc, kc, a, b, c, ldc):
        # a trampoline kernel always writes a scratch tile, never a view
        # into the result that spans other tiles' blocks
        assert ldc == mc, "non-native kernel handed the result"
        self.calls.append((mc, nc, kc, a.copy(), b.copy()))
        self.accumulate(mc, nc, kc, a, b, c, ldc)

    def accumulate(self, mc, nc, kc, a, b, c, ldc):
        am = a.reshape(kc, mc)
        bm = b.reshape(nc, kc) if self.layout == "dup" else \
            b.reshape(kc, nc).T
        c.reshape(nc, ldc)[:, :mc] += bm @ am


def _round_up(x, mult):
    return -(-x // mult) * mult


def _grid(m, n, k, blocks, mults):
    """(mc, nc, kc) as the driver rounds ``blocks`` for the swapped
    (m, n, k) and the kernel's multiples, on one thread."""
    mu, nu, ku = mults
    return (max(_round_up(min(blocks.mc, m), mu), mu),
            max(_round_up(min(blocks.nc, n), nu), nu),
            max(_round_up(min(blocks.kc, k), ku), ku))


def _expected_calls(a, b, alpha, layout):
    """The driver's kernel calls over its swapped operands, in the loop's
    one order: column -> Kc slice -> tile -> rectangle.

    Each tile's rows are cut at their last whole MU-group and its columns
    at their last whole NU-group: up to four rectangles, whole x whole,
    whole x edge, edge x whole and edge x edge, each a call on its part
    of :mod:`repro.blas.packing`'s split A block and B panel; an empty
    rectangle makes no call."""
    a, b = b.T, a.T
    (m, k), n = a.shape, b.shape[1]
    mc, nc, kc = _grid(m, n, k, BLOCKS, (MU, NU, KU))
    for j0 in range(0, n, nc):
        jn = min(nc, n - j0)
        jn_w = jn - jn % NU
        for l0 in range(0, k, kc):
            ln = min(kc, k - l0)
            ln_pad = _round_up(ln, KU)
            panel = pack_b_panel(b[l0:l0 + ln, j0:j0 + jn], ln_pad, NU,
                                 layout)
            b_parts = [(jn_w, jn_w, panel[:jn_w * ln_pad]),
                       (NU, jn - jn_w, panel[jn_w * ln_pad:])]
            for i0 in range(0, m, mc):
                im = min(mc, m - i0)
                im_w = im - im % MU
                block = pack_a_block(a[i0:i0 + im, l0:l0 + ln], ln_pad, MU,
                                     alpha=alpha)
                a_parts = [(im_w, im_w, block[:im_w * ln_pad]),
                           (MU, im - im_w, block[im_w * ln_pad:])]
                for rm, valid_m, a_part in a_parts:
                    for rn, valid_n, b_part in b_parts:
                        if valid_m and valid_n:
                            yield rm, rn, ln_pad, a_part, b_part


def _operands(kind, m, n, k, rng):
    """(a, b) of shapes (m, k) and (k, n) in one memory layout."""
    if kind == "C":
        return rng.standard_normal((m, k)), rng.standard_normal((k, n))
    if kind == "F":
        return (np.asfortranarray(rng.standard_normal((m, k))),
                np.asfortranarray(rng.standard_normal((k, n))))
    if kind == "transposed":
        return rng.standard_normal((k, m)).T, rng.standard_normal((n, k)).T
    if kind == "negative":
        return (rng.standard_normal((m, k))[::-1, ::-1],
                rng.standard_normal((k, n))[::-1])
    if kind == "zero_stride":
        return (np.broadcast_to(rng.standard_normal(k), (m, k)),
                np.broadcast_to(rng.standard_normal((k, 1)), (k, n)))
    assert kind == "sliced"
    return (rng.standard_normal((2 * m + 1, k + 3))[1::2, 3:],
            rng.standard_normal((k + 2, 3 * n))[2:, ::3])


def _check_packing(kind, alpha, layout, rng, integrity="off"):
    for m, n, k in [(13, 11, 21), (1, 1, 1), (8, 8, 8), (17, 3, 5)]:
        a, b = _operands(kind, m, n, k, rng)
        kernel = _RecordingKernel(layout)
        driver = GemmDriver(kernel, layout=layout, blocks=BLOCKS, threads=1,
                            integrity=integrity)
        got = driver(a, b, alpha=alpha)
        assert np.allclose(got, alpha * (a @ b)), (kind, m, n, k)
        expected = list(_expected_calls(a, b, alpha, layout))
        assert len(kernel.calls) == len(expected)
        for call, want in zip(kernel.calls, expected):
            assert call[:3] == want[:3]
            assert call[3].tobytes() == want[3].tobytes(), "A panel"
            assert call[4].tobytes() == want[4].tobytes(), "B panel"
        assert driver.pack_pool.outstanding == 0


@pytest.mark.parametrize("layout", ["dup", "shuf"])
@pytest.mark.parametrize("alpha", [1.0, -1.0, 0.5])
@pytest.mark.parametrize("kind", ["C", "F", "transposed", "negative",
                                  "zero_stride", "sliced"])
def test_native_packing_matches_the_numpy_packers(kind, alpha, layout, rng):
    _check_packing(kind, alpha, layout, rng)


@pytest.mark.parametrize("layout", ["dup", "shuf"])
@pytest.mark.parametrize("kind", ["C", "sliced"])
def test_checked_calls_hand_the_kernel_the_same_calls(kind, layout, rng):
    # verification runs after the native call, so a checked call packs
    # and calls the kernel exactly as an unchecked one does
    _check_packing(kind, -1.0, layout, rng, integrity="full")


def test_threaded_trampoline_kernel_never_writes_the_result(rng):
    # k > Kc, and whole (8-wide) tiles beside edge tiles: the unchecked
    # column-order loop still hands a non-native kernel only its scratch
    # tile (the kernel asserts ldc == mc on every call)
    a, b = rng.standard_normal((27, 21)), rng.standard_normal((21, 19))
    c = rng.standard_normal((27, 19))
    kernel = _RecordingKernel("dup")
    driver = GemmDriver(kernel, blocks=BLOCKS, threads=2)
    got = driver(a, b, c, alpha=0.5, beta=-1.0)
    assert np.allclose(got, 0.5 * (a @ b) - c)
    assert len(kernel.calls) == len(list(_expected_calls(a, b, 0.5, "dup")))
    assert driver.pack_pool.outstanding == 0


def test_worker_die_raises_before_the_native_call():
    kernel = _RecordingKernel("dup")
    driver = GemmDriver(kernel, blocks=BLOCKS, threads=1)
    install_fault_plan(FaultPlan.parse("worker_die@#2"))
    try:
        with pytest.raises(InjectedWorkerFault, match="#2"):
            driver(np.ones((24, 8)), np.ones((8, 24)))
    finally:
        clear_fault_plan()
    assert kernel.calls == []
    assert driver.pack_pool.outstanding == 0


# -- exceptions inside ctypes callbacks --------------------------------------


class _Boom(RuntimeError):
    pass


def test_kernel_exception_is_reraised_after_the_call(rng):
    class Failing(_RecordingKernel):
        def __call__(self, *args):
            super().__call__(*args)
            if len(self.calls) == 3:
                raise _Boom("third kernel call")

    kernel = Failing("dup")
    driver = GemmDriver(kernel, blocks=BLOCKS, threads=2)
    with pytest.raises(_Boom, match="third"):
        driver(rng.standard_normal((20, 20)), rng.standard_normal((20, 20)))
    assert driver.pack_pool.outstanding == 0


def test_hook_exception_is_reraised_after_the_call(rng, monkeypatch):
    # the checks run after the native call; an exception raised there
    # reaches the caller with no workspace left lent
    def broken(*args, **kwargs):
        raise _Boom("checksum failed to run")

    monkeypatch.setattr(gemm_module, "verify_gemm_tile", broken)
    kernel = _RecordingKernel("dup")
    driver = GemmDriver(kernel, blocks=BLOCKS, threads=1, integrity="full")
    with pytest.raises(_Boom, match="checksum"):
        driver(rng.standard_normal((20, 20)), rng.standard_normal((20, 20)))
    assert driver.pack_pool.outstanding == 0


# -- the build ----------------------------------------------------------------


def test_gebp_source_compiles_without_warnings():
    build_shared({"gebp.c": gebp.GEBP_C}, tag="gebp_warnings",
                 extra_flags=["-Wall", "-Wextra", "-Werror"])


def test_failed_build_raises_and_is_retried(monkeypatch):
    def no_compiler(*args, **kwargs):
        raise ToolchainError("injected: no compiler")

    monkeypatch.setattr(gebp, "_BUILD", None)
    monkeypatch.setattr(gebp, "build_shared", no_compiler)
    with pytest.raises(ToolchainError, match="injected"):
        gebp.gebp_function()
    assert gebp._BUILD is None  # the next driver build tries again


def test_build_failure_demotes_gemm_down_the_chain(monkeypatch, rng):
    def no_compiler():
        raise ToolchainError("injected: no compiler")

    monkeypatch.setattr(gemm_module, "gebp_function", no_compiler)
    dispatch.reset_dispatch_state()
    try:
        blas = AugemBLAS()
        a, b = rng.standard_normal((9, 7)), rng.standard_normal((7, 5))
        assert np.allclose(blas.dgemm(a, b), a @ b)
        assert blas.dispatch_report()["gemm"].tier == "reference"
    finally:
        dispatch.reset_dispatch_state()


# -- dgemm reads strided operands in place ------------------------------------


STRIDED = {
    "F": np.asfortranarray,
    "transposed": lambda x: np.ascontiguousarray(x.T).T,
    "negative": lambda x: np.ascontiguousarray(x[::-1, ::-1])[::-1, ::-1],
}


@pytest.fixture(scope="module")
def blas():
    return AugemBLAS()


@pytest.mark.parametrize("kind", sorted(STRIDED))
def test_strided_dgemm_is_bit_equal_to_contiguous(blas, kind, rng):
    layout = STRIDED[kind]
    for m, n, k in [(37, 29, 41), (130, 70, 300), (1, 5, 3)]:
        a = rng.standard_normal((m, k))
        b = rng.standard_normal((k, n))
        c = rng.standard_normal((m, n))
        want = blas.dgemm(a, b, c, alpha=-0.5, beta=1.5)
        before = blas.guard.stats.coercions
        got = blas.dgemm(layout(a), layout(b), layout(c), alpha=-0.5,
                         beta=1.5)
        assert blas.guard.stats.coercions == before, "strided copy made"
        assert got.tobytes() == want.tobytes(), (kind, m, n, k)


def test_int_operands_are_still_cast_and_counted(blas):
    a = np.arange(12, dtype=np.int64).reshape(3, 4)
    b = np.arange(8, dtype=np.int64).reshape(4, 2)
    before = blas.guard.stats.coercions
    got = blas.dgemm(a, np.asfortranarray(b))
    assert blas.guard.stats.coercions == before + 2
    assert np.array_equal(got, (a @ b).astype(np.float64))


def test_nan_in_a_strided_operand_is_rejected(rng):
    strict = AugemBLAS(nan_policy="raise")
    a = np.asfortranarray(rng.standard_normal((6, 5)))
    b = rng.standard_normal((4, 5)).T
    a[3, 2] = np.nan
    with pytest.raises(BlasArgumentError, match="'a'"):
        strict.dgemm(a, b)
    a[3, 2] = 0.0
    b[1, 3] = np.inf
    with pytest.raises(BlasArgumentError, match="'b'"):
        strict.dgemm(a, b)


# -- native kernels accumulate whole tiles straight into the result ----------

EPS = float(np.finfo(np.float64).eps)


def _within_bound(got, want, k):
    """The conformance bound against ``reference.ref_gemm``:
    ``8 * k * eps * max(1, max|ref|)``."""
    tol = 8.0 * max(1, k) * EPS * max(1.0, float(np.max(np.abs(want))))
    return float(np.max(np.abs(got - want))) <= tol


def _signed_zero_problem(m, n, k, rng):
    """(a, b, c) where a zero row of ``a`` and a zero column of ``b``
    meet entries of ``c`` that are -0.0 and +0.0."""
    a, b = rng.standard_normal((m, k)), rng.standard_normal((k, n))
    c = rng.standard_normal((m, n))
    a[m // 2] = 0.0
    b[:, n // 2] = 0.0
    c[m // 2, ::2] = -0.0
    c[::2, n // 2] = -0.0
    c[m // 2, 1::2] = 0.0
    return a, b, c


def test_native_direct_path_is_bit_identical_across_threads(blas, rng):
    driver = blas.gemm_driver
    assert isinstance(driver, GemmDriver) and driver._kernel_address
    kc = driver.blocks.kc
    mu, nu = driver.mu, driver.nu
    # (m, n) of the result is (j, i) of the kernel's tiles: edge tiles
    # beside whole ones, only edge tiles, and only whole ones; k > Kc
    shapes = [(1000, 517, 600), (145, 9, 513), (nu * 40, mu * 12, 700),
              (nu * 40, mu * 12, kc), (203, 150, kc - 56)]
    for m, n, k in shapes:
        a, b, c = _signed_zero_problem(m, n, k, rng)
        for beta in (0.0, 1.0, -0.5):
            want = beta * c + a @ b
            got = [driver(a, b, c, beta=beta, threads=t) for t in (1, 2, 3, 4)]
            for other in got[1:]:
                assert other.tobytes() == got[0].tobytes(), (m, n, k, beta)
            assert _within_bound(got[0], want, k), (m, n, k, beta)
            checked = driver(a, b, c, beta=beta, integrity="full")
            if k <= kc:
                # one slice: both paths add one kernel result to beta*C
                assert checked.tobytes() == got[0].tobytes(), (m, n, k, beta)
            else:
                assert _within_bound(checked, got[0], k), (m, n, k, beta)
        if k > kc:
            # a checked call verifies the bare product, then adds beta*C
            for threads in (1, 3):
                product = driver(a, b, threads=threads)
                for beta in (1.0, -0.5):
                    checked = driver(a, b, c, beta=beta, threads=threads,
                                     integrity="full")
                    want = product + beta * c
                    assert checked.tobytes() == want.tobytes(), \
                        (m, n, k, beta, threads)


# -- one tiling rule: every range of the grid is one augem_gemm call ---------


def _ragged_design():
    """The ``gemm_ragged`` design: 64 (m, n, k) in 8..199, each dimension
    drawn once per 1/64th of the range and paired at random."""
    calls, lo, hi = 64, 8, 200
    design = np.random.default_rng(2013)
    strata = np.stack([design.permutation(calls) for _ in range(3)], axis=1)
    dims = (lo + (strata + 0.5) * (hi - lo) / calls).astype(int)
    return [tuple(int(d) for d in row) for row in dims]


@pytest.fixture(scope="module")
def shuf_blas():
    return AugemBLAS(layout="shuf")


@pytest.mark.parametrize("layout", ["dup", "shuf"])
def test_ragged_design_is_bit_identical_across_threads(layout, blas,
                                                       shuf_blas, rng):
    # F-ordered A, a transposed view for B, and the three alpha/beta
    # mixes: at 2-4 threads split_for_threads shrinks the tiles, and the
    # ranges of the one grid rule must still give the 1-thread bits,
    # checked or not (k < Kc: a checked call adds the same one slice)
    driver = (blas if layout == "dup" else shuf_blas).gemm_driver
    assert isinstance(driver, GemmDriver) and driver._kernel_address
    mixes = ((1.0, 0.0), (-1.0, 1.0), (0.5, 0.5))
    for index, (m, n, k) in enumerate(_ragged_design()):
        a = np.asfortranarray(rng.standard_normal((m, k)))
        b = rng.standard_normal((n, k)).T
        c = rng.standard_normal((m, n))
        alpha, beta = mixes[index % 3]
        base = driver(a, b, c, alpha=alpha, beta=beta, threads=1)
        assert _within_bound(base, alpha * (a @ b) + beta * c, k)
        for threads in (1, 2, 3, 4):
            for integrity in ("off", "full"):
                got = driver(a, b, c, alpha=alpha, beta=beta,
                             threads=threads, integrity=integrity)
                assert got.tobytes() == base.tobytes(), \
                    (layout, m, n, k, threads, integrity)
    assert driver.pack_pool.outstanding == 0


def _counting(driver):
    """Count the driver's ``augem_gemm`` calls."""
    real, calls = driver._gemm, []

    def counting(*args):
        calls.append(args)
        return real(*args)

    driver._gemm = counting
    return calls


@pytest.mark.parametrize("m,n,k", [(1, 1, 1), (5, 3, 7), (37, 300, 64),
                                   (700, 300, 40), (9, 1000, 5)])
def test_unchecked_call_is_one_native_call_per_range(blas, m, n, k, rng):
    native = blas.gemm_driver
    driver = GemmDriver(native.kernel)
    calls = _counting(driver)
    a, b = rng.standard_normal((m, k)), rng.standard_normal((k, n))
    want = a @ b
    for threads in (1, 2, 3, 4):
        # the grid after the operand swap: C^T is n x m
        mc = max(gebp.round_up(min(driver.blocks.mc, n), driver.mu),
                 driver.mu)
        nc = max(gebp.round_up(min(driver.blocks.nc, m), driver.nu),
                 driver.nu)
        if threads > 1:
            mc, nc = split_for_threads(n, m, mc, nc, driver.mu, driver.nu,
                                       threads)
        ntiles = gebp.tile_count(n, m, mc, nc)
        del calls[:]
        got = driver(a, b, threads=threads)
        assert len(calls) == min(threads, ntiles), (m, n, k, threads)
        assert _within_bound(got, want, k)
    assert driver.pack_pool.outstanding == 0


class _TallyKernel(_RecordingKernel):
    """The recording kernel's arithmetic, counting calls instead of
    keeping panels."""

    tally = 0

    def __call__(self, mc, nc, kc, a, b, c, ldc):
        self.tally += 1
        self.accumulate(mc, nc, kc, a, b, c, ldc)


def test_tiny_blocks_run_fifteen_thousand_tiles(rng):
    # 8 x 8 tiles over a 1000 x 1000 result: 125 * 125 tiles, one Kc
    # slice each, in one native call per range and no tile table
    m = n = 1000
    a, b = rng.standard_normal((m, 8)), rng.standard_normal((8, n))
    want = a @ b
    base = None
    for threads in (1, 3):
        kernel = _TallyKernel("dup")
        driver = GemmDriver(kernel, blocks=BLOCKS, threads=threads)
        calls = _counting(driver)
        got = driver(a, b)
        assert kernel.tally == 125 * 125 > 15_000
        assert len(calls) == threads
        assert _within_bound(got, want, 8)
        if base is None:
            base = got
        assert got.tobytes() == base.tobytes()
        assert driver.pack_pool.outstanding == 0


# -- edge tiles: whole micro-tiles in place, only the ragged strips padded ---


def _whole_tile_rule(kernel, layout, mults, blocks, a, b, c, alpha, beta):
    """``alpha * a @ b + beta * c`` by the rule that ran every ragged tile
    whole: the raw kernel once per tile and Kc slice, on
    :mod:`repro.blas.packing`'s panels padded to (mu, nu), into a zeroed
    scratch tile whose valid corner is added into the result."""
    pack_b = pack_b_dup if layout == "dup" else pack_b_shuf
    out = np.zeros(c.shape) if beta == 0.0 else \
        np.multiply(c, beta, order="C")
    a, b = b.T, a.T  # the driver's swap: out[j, i] is the kernel's C
    (m, k), n = a.shape, b.shape[1]
    mu, nu, ku = mults
    mc, nc, kc = _grid(m, n, k, blocks, mults)
    for j0 in range(0, n, nc):
        jn = min(nc, n - j0)
        for l0 in range(0, k, kc):
            ln = min(kc, k - l0)
            for i0 in range(0, m, mc):
                im = min(mc, m - i0)
                im_pad, jn_pad, ln_pad = (_round_up(im, mu),
                                          _round_up(jn, nu),
                                          _round_up(ln, ku))
                scratch = np.zeros(im_pad * jn_pad)
                kernel(im_pad, jn_pad, ln_pad,
                       pack_a(a[i0:i0 + im, l0:l0 + ln], im_pad, ln_pad,
                              alpha=alpha),
                       pack_b(b[l0:l0 + ln, j0:j0 + jn], ln_pad, jn_pad),
                       scratch, im_pad)
                out[j0:j0 + jn, i0:i0 + im] += \
                    scratch.reshape(jn_pad, im_pad)[:jn, :im]
    return out


def _residue_extents(mult):
    """Extents whose remainder mod ``mult`` is 0, 1 and mult - 1: three
    whole groups plus the remainder, and the remainder alone (no whole
    group at all)."""
    return sorted({3 * mult, 3 * mult + 1, 4 * mult - 1, 1, mult - 1} - {0})


@pytest.mark.parametrize("layout", ["dup", "shuf"])
def test_edge_rectangles_are_bit_equal_to_the_whole_tile_rule(
        layout, blas, shuf_blas, rng):
    # 2mu x 2nu tiles, so a result three groups wide has a whole tile
    # beside a ragged one; k at and beyond Kc
    native = (blas if layout == "dup" else shuf_blas).gemm_driver
    assert native._kernel_address
    mults = native.mu, native.nu, native.ku
    mu, nu, ku = mults
    blocks = BlockSizes(mc=2 * mu, kc=16, nc=2 * nu)
    driver = GemmDriver(native.kernel, layout=layout, blocks=blocks)
    kc = _round_up(16, ku)
    # the kernel's rows are the result's columns, and its columns the
    # result's rows
    for m in _residue_extents(nu):
        for n in _residue_extents(mu):
            for k in (kc - 1, kc, 2 * kc + 3):
                a, b, c = _signed_zero_problem(m, n, k, rng) \
                    if min(m, n) > 1 else (rng.standard_normal((m, k)),
                                           rng.standard_normal((k, n)),
                                           rng.standard_normal((m, n)))
                for alpha, beta in ((1.0, 0.0), (-0.5, 1.5)):
                    want = _whole_tile_rule(native.kernel, layout, mults,
                                            blocks, a, b, c, alpha, beta)
                    for threads in (1, 2):
                        got = driver(a, b, c, alpha=alpha, beta=beta,
                                     threads=threads)
                        assert got.tobytes() == want.tobytes(), \
                            (layout, m, n, k, alpha, beta, threads)
    assert driver.pack_pool.outstanding == 0


CANARY = -1.25e300


def _canaried(driver):
    """Run each ``augem_gemm`` call of ``driver`` on a NaN-filled
    workspace of exactly ``workspace_size`` elements followed by a
    canary, and check the canary after the call; returns the sizes."""
    real, sizes = driver._gemm, []

    def guarded(kernel, a, b, out, ws, params, alpha):
        m, n, k, mc, nc, kc, mu, nu, ku = gebp.PARAMS.unpack(params)[:9]
        size = gebp.workspace_size(k, mc, nc, kc, ku)
        buf = np.full(size + 64, np.nan)
        buf[size:] = CANARY
        real(kernel, a, b, out, buf.ctypes.data, params, alpha)
        assert (buf[size:] == CANARY).all(), \
            ("workspace overrun", m, n, k, mc, nc, kc, mu, nu, ku)
        sizes.append(size)

    driver._gemm = guarded
    return sizes


@pytest.mark.parametrize("layout", ["dup", "shuf"])
@pytest.mark.parametrize("mults", [(6, 6, 2), (12, 4, 2), (4, 2, 1),
                                   (24, 8, 2)])
def test_ragged_calls_stay_inside_the_workspace(mults, layout, rng):
    # trampoline kernels with odd multiples, small and default blocks,
    # ragged in every dimension, k below and beyond Kc; the NaN fill also
    # shows any padding the packers failed to zero
    mu, nu, ku = mults
    shapes = [(13, 11, 21), (1, 1, 1), (37, 29, 41), (5, 50, 19)]
    for blocks in (BlockSizes(mc=2 * mu, kc=8, nc=2 * nu), BlockSizes()):
        for threads in (1, 2):
            kernel = _TallyKernel(layout, mults)
            driver = GemmDriver(kernel, layout=layout, blocks=blocks,
                                threads=threads)
            sizes = _canaried(driver)
            for m, n, k in shapes:
                a, b = rng.standard_normal((m, k)), rng.standard_normal((k, n))
                got = driver(a, b, alpha=0.5)
                assert _within_bound(got, 0.5 * (a @ b), k), (m, n, k)
            assert len(sizes) >= len(shapes) and kernel.tally
            assert driver.pack_pool.outstanding == 0
