"""Blocked DGEMM driver — Goto's GEBP algorithm around the generated
micro-kernel (paper §4.1: "Our GEMM kernel is based on a general
block-partitioned algorithm originally developed by Goto").

Python plans nothing per call: it guards, picks sizes, and calls C.
The driver:

1. owns one full-size array per call — the C-contiguous result,
   ``beta * C`` or zeros (zeros for a checked call, which adds
   ``beta * C`` last) — and swaps the operand roles at entry: a
   row-major ``C`` is the column-major ``Cᵀ = Bᵀ Aᵀ``, so the kernel's
   column-major tile of ``Bᵀ Aᵀ`` has the layout of the block of the
   result it belongs to;
2. rounds the block sizes Mc x Nc x Kc (Kc = 256 in the paper's
   evaluation) to the kernel's multiples, shrinking Mc/Nc when needed
   so there are at least as many macro-tiles as compute threads;
3. makes one ``augem_gemm`` call (:mod:`repro.blas.gebp`) per thread,
   each on one workspace lent by a
   :class:`~repro.blas.threading.PackBufferPool`.  C owns the tiling
   and the range split: call ``t`` of ``nthreads`` enumerates the
   column-major tile grid, takes its contiguous share of it and runs
   that share in Goto's order — it packs the B panels of each column it
   covers once, and for each Kc slice packs every tile's A block with
   alpha folded in and calls the micro-kernel, which accumulates the
   tile's whole ``mu x nu`` micro-tiles straight into the result; only a
   ragged tile's edge strips run padded into a scratch tile whose valid
   corner is added.  It reads the operands through their strides, so
   F-ordered, transposed and sliced inputs are never copied.  With more
   than one thread the calls run on the persistent
   :class:`~repro.blas.threading.WorkerPool`; the native call releases
   the GIL.

Parallel execution is **bit-identical** to single-threaded execution at
any thread count: each (jc, ic) macro-tile is computed by exactly one
native call, every element is ``((beta*C + r1) + r2) + ...`` over its
Kc slices in ascending order whether it lies in a whole micro-tile or an
edge strip (see :mod:`repro.blas.gebp`), and tiles land in disjoint
blocks of the result — so no floating-point operation ever reorders,
whatever the scheduling.  A column split across two ranges has its B panels packed
by both.

A checked or fault-planned call keeps the decisions around the loop,
as plain steps before and after each range's native call on the thread
that made it, on the range's tiles as :func:`repro.blas.gebp.tiles`
derives them from the C loop's grid rule: the fault plan
(``worker_die`` raises before the call covering the tile; ``corrupt``
flips bits of the finished tile after it) and the ABFT ladder of
:mod:`repro.blas.integrity`, run on each finished tile's block of the
result.  A checked call accumulates the bare product into zeros,
verifies its tiles, and only then adds ``beta*C`` in one numpy add, so
each checked element is ``beta*C + ((0 + r1) + r2 ...)``: the
checksums see the product alone, and with ``beta*C`` absent or at
k <= Kc that is the unchecked call's bits.

``alpha`` scales the packed A block; ``beta`` pre-scales C — the kernel
itself computes pure ``C += A*B`` exactly as in paper Fig. 12.  The
thread count comes from the constructor, a per-call override, or
``$REPRO_THREADS`` (see :func:`~repro.blas.threading.resolve_threads`).
"""

from __future__ import annotations

import ctypes
import threading as _threading
from dataclasses import dataclass
from functools import partial
from typing import List, Optional, Tuple

import numpy as np

from ..backend.faults import (InjectedWorkerFault, corrupt_tile,
                              get_fault_plan)
from ..backend.runner import NativeKernel
from ..core.framework import GeneratedKernel
from ..obs import event, incr, span
from ..obs import trace as _trace
from .gebp import (KERNEL_FN, PARAMS, gebp_function, round_up, start_build,
                   tile_count, tiles, workspace_size)
from .integrity import (IntegrityChecker, IntegrityReport, contain,
                        resolve_integrity, verify_gemm_tile)
from .threading import PackBufferPool, get_pool, resolve_threads


def kernel_multiples(generated: GeneratedKernel) -> tuple:
    """(mu, nu, ku): trip-count multiples the generated kernel requires."""
    mu = nu = ku = 1
    for var, factor in generated.config.unroll_jam:
        if var == "i":
            mu = factor
        elif var == "j":
            nu = factor
    for var, factor in generated.config.unroll:
        if var == "l":
            ku = factor
        elif var == "i":
            mu = max(mu, factor)
        elif var == "j":
            nu = max(nu, factor)
    return mu, nu, ku


@dataclass
class BlockSizes:
    """Cache-blocking parameters (paper Table 5 guides the defaults).

    ``kc`` x ``nc`` is the B panel one column's tiles share in L2; the
    driver rounds ``mc`` up to a multiple of the kernel's ``mu`` and
    ``nc`` to one of ``nu`` (144 x 512 at the zmm 24 x 8 tile)."""

    mc: int = 128
    kc: int = 256
    nc: int = 512


def split_for_threads(m: int, n: int, mc: int, nc: int, mu: int, nu: int,
                      threads: int) -> Tuple[int, int]:
    """Shrink (mc, nc) until the (jc, ic) grid has >= ``threads`` tiles.

    Halves the larger blocking dimension first (keeping every size a
    multiple of the kernel's mu/nu), and stops at (mu, nu) — a problem
    smaller than the thread count simply runs on fewer tiles.
    """
    while tile_count(m, n, mc, nc) < threads:
        if nc > nu and (nc >= mc or mc <= mu):
            nc = max(nu, round_up(nc // 2, nu))
        elif mc > mu:
            mc = max(mu, round_up(mc // 2, mu))
        else:
            break
    return mc, nc


def _strided(x: np.ndarray) -> np.ndarray:
    """``x`` itself when C can read it through whole-element strides."""
    s0, s1 = x.strides
    if x.flags.aligned and not (s0 | s1) % 8:
        return x
    return np.ascontiguousarray(x)


def _scaled(c: Optional[np.ndarray], beta: float, m: int,
            n: int) -> np.ndarray:
    """A fresh C-contiguous ``beta * C`` (zeros without C or at beta 0)."""
    if c is None or beta == 0.0:
        return np.zeros((m, n))
    if beta == 1.0:
        return np.array(c, order="C")
    return np.multiply(c, beta, order="C")


def _view(address: int, size: int) -> np.ndarray:
    return np.ctypeslib.as_array((ctypes.c_double * size).from_address(
        address))


class GemmDriver:
    """Reusable DGEMM entry point around one loaded micro-kernel.

    One driver instance is safe to call from many threads concurrently:
    the packing-buffer pool is lock-protected, worker pools are shared
    process-wide, and every native call works on its own buffers.

    A :class:`~repro.backend.runner.NativeKernel` is handed to the C loop
    by address.  Any other kernel callable with the same signature (the
    emulator, the tests' numpy stand-ins) is reached through a ctypes
    trampoline into the same loop.
    """

    #: the serve worker keys per-request ABFT on this marker
    supports_integrity = True

    def __init__(self, kernel, layout: str = "dup",
                 blocks: Optional[BlockSizes] = None,
                 threads: Optional[int] = None,
                 pack_pool: Optional[PackBufferPool] = None,
                 integrity=None) -> None:
        if layout not in ("dup", "shuf"):
            raise ValueError("layout must be 'dup' or 'shuf'")
        self.kernel = kernel
        self.layout = layout
        self.family = "gemm" if layout == "dup" else "gemm_shuf"
        self.blocks = blocks or BlockSizes()
        self.threads = resolve_threads(threads)
        self.pack_pool = pack_pool or PackBufferPool()
        self.mu, self.nu, self.ku = kernel_multiples(kernel.generated)
        if isinstance(integrity, IntegrityChecker):
            self.integrity = integrity
        else:
            self.integrity = IntegrityChecker(mode=integrity)
        self._gemm = gebp_function()
        self._kernel_address = (
            ctypes.cast(kernel.fn, ctypes.c_void_p).value
            if isinstance(kernel, NativeKernel) else None)

    def __call__(self, a: np.ndarray, b: np.ndarray,
                 c: Optional[np.ndarray] = None,
                 alpha: float = 1.0, beta: float = 0.0,
                 threads: Optional[int] = None,
                 integrity: Optional[str] = None,
                 integrity_report: Optional[IntegrityReport] = None
                 ) -> np.ndarray:
        """``C = alpha * A @ B + beta * C`` for 2-D float64 arrays of any
        strides.

        ``integrity`` overrides the driver's ABFT mode for this call
        (the serve per-request flag); ``integrity_report`` collects the
        per-call verification record.
        """
        a = np.asarray(a, dtype=np.float64)
        b = np.asarray(b, dtype=np.float64)
        if a.ndim != 2 or b.ndim != 2 or a.shape[1] != b.shape[0]:
            raise ValueError(f"shape mismatch: {a.shape} @ {b.shape}")
        m, k = a.shape
        _, n = b.shape
        if c is not None:
            c = np.asarray(c, dtype=np.float64)
            if c.shape != (m, n):
                raise ValueError(f"C has shape {c.shape}, expected {(m, n)}")
        report = integrity_report
        if report is not None:
            report.mode = self.integrity.mode if integrity is None \
                else resolve_integrity(integrity)[0]
        if alpha == 0.0 or m == 0 or n == 0 or k == 0:
            return _scaled(c, beta, m, n)  # no tile runs: no sampling slot
        check = self.integrity.decide(integrity)
        if report is not None:
            report.checked = report.checked or check
        # the one full-size array of the call, row-major: beta*C, or, for
        # a checked call, the bare product until its tiles are verified
        deferred = check and c is not None and beta != 0.0
        out = np.zeros((m, n)) if deferred else _scaled(c, beta, m, n)

        # row-major C is column-major Cᵀ = Bᵀ Aᵀ: after the swap a kernel
        # tile has the layout of the block of ``out`` it is added into
        a, b, m, n = _strided(b.T), _strided(a.T), n, m

        nthreads = self.threads if threads is None \
            else resolve_threads(threads)
        bs, mu, nu, ku = self.blocks, self.mu, self.nu, self.ku
        mc = max(round_up(min(bs.mc, m), mu), mu)
        nc = max(round_up(min(bs.nc, n), nu), nu)
        kc = max(round_up(min(bs.kc, k), ku), ku)
        if nthreads > 1:
            mc, nc = split_for_threads(m, n, mc, nc, mu, nu, nthreads)
        # one pooled workspace per native call, its size rounded up to a
        # power of two so that calls of different shapes reuse one
        # cache-hot buffer: on a stream of ragged shapes, a buffer per
        # exact size is cold at every call and the packing runs at
        # memory latency (measured: a quarter of the ragged pass)
        size = 1 << (workspace_size(k, mc, nc, kc, ku) - 1).bit_length()
        job = (a, b, out, alpha, mc, nc, kc, size)
        plan = get_fault_plan()  # one env lookup per call, not per tile
        if check or plan is not None:
            ranged = _Guarded(self, job, plan, check, report).run_range
        else:
            ranged = partial(self._native, *job)
        if nthreads == 1:
            ranged(0, 1)
        else:
            ntiles = tile_count(m, n, mc, nc)
            self._parallel(ranged, min(nthreads, ntiles), ntiles, k)
        if deferred:
            np.add(c if beta == 1.0 else np.multiply(c, beta), out, out=out)
        return out

    def _native(self, a: np.ndarray, b: np.ndarray, out: np.ndarray,
                alpha: float, mc: int, nc: int, kc: int, size: int,
                thread: int, nthreads: int) -> None:
        """``out += alpha * a @ b`` over range ``thread`` of ``nthreads``
        of the tile grid, in one ``augem_gemm`` call on a pooled
        workspace of ``size`` elements.  An exception raised in the
        kernel trampoline is re-raised here."""
        pool = self.pack_pool
        errors: List[BaseException] = []
        kernel = self._kernel_address
        # only a native kernel may write into ``out`` directly: the
        # trampoline would hand Python a view spanning other tiles
        direct = kernel is not None
        (m, k), n = a.shape, b.shape[1]
        params = PARAMS.pack(
            m, n, k, mc, nc, kc, self.mu, self.nu, self.ku,
            a.strides[0] // 8, a.strides[1] // 8,
            b.strides[0] // 8, b.strides[1] // 8,
            out.strides[0] // 8, out.strides[1] // 8,
            self.layout == "shuf", direct, thread, nthreads)
        ws, ws_address = pool.lend(size)
        try:
            if not direct:
                kernel = _trampoline(self.kernel, errors)
            self._gemm(kernel, a.ctypes.data, b.ctypes.data, out.ctypes.data,
                       ws_address, params, alpha)
        finally:
            pool.release(ws)
        if errors:
            raise errors[0]

    def _parallel(self, ranged, nthreads: int, ntiles: int, k: int) -> None:
        """``ranged(t, nthreads)`` for every range ``t`` on the worker
        pool."""
        tasks = [partial(ranged, t, nthreads) for t in range(nthreads)]
        with span("gemm.parallel", layout=self.layout, threads=nthreads,
                  tiles=ntiles, k=k) as sp:
            busy = get_pool(nthreads).run(tasks)
            if _trace.enabled():
                sp.set(busy_s=round(sum(busy.values()), 6))
                incr("gemm.parallel.calls")
                incr("gemm.parallel.tasks", len(tasks))
                incr("gemm.parallel.worker_busy", sum(busy.values()))
                for worker, seconds in sorted(busy.items()):
                    event("gemm.parallel.worker", worker=worker,
                          busy_s=round(seconds, 6))


class _Guarded:
    """A checked or fault-planned GEMM call, one range at a time.

    ``job`` is the arguments of :meth:`GemmDriver._native` ahead of the
    range.  Each range's tile indices and coordinates come from
    ``augem_gemm``'s grid rule (:mod:`repro.blas.gebp`): before the
    range's native call a planned ``worker_die`` raises; after it, on
    the same thread, planned ``corrupt`` faults flip bits of finished
    tiles and, when the call is checked, the ABFT ladder runs on each
    tile's block of ``out``.
    """

    def __init__(self, driver: GemmDriver, job: tuple, plan, check: bool,
                 report: Optional[IntegrityReport]) -> None:
        self.driver, self.job = driver, job
        self.a, self.b, self.out, self.alpha, self.mc, self.nc = job[:6]
        self.plan, self.check, self.report = plan, check, report

    def fault_at(self, index: int) -> Optional[str]:
        """The planned thread-stage fault for this tile, if armed."""
        return self.plan.take("thread", tag=self.driver.family,
                              index=index) if self.plan is not None else None

    def run_range(self, thread: int, nthreads: int) -> None:
        """Range ``thread`` of ``nthreads`` in one native call, then its
        planned ``corrupt`` faults and, for a checked call, the ladder."""
        mine = list(tiles(self.a.shape[0], self.b.shape[1], self.mc, self.nc,
                          thread, nthreads))
        corrupt = set()
        for index, *_ in mine:
            fault = self.fault_at(index)
            if fault == "worker_die":
                raise InjectedWorkerFault(
                    f"injected worker_die at {self.driver.family} tile "
                    f"#{index}")
            if fault == "corrupt":
                corrupt.add(index)
        self.driver._native(*self.job, thread, nthreads)
        if not (self.check or corrupt):
            return
        for index, j0, jn, i0, im in mine:
            tile = self.out[j0:j0 + jn, i0:i0 + im]
            if index in corrupt:
                corrupt_tile(tile)
            if self.check:
                verified = self.verified(tile, index, j0, jn, i0, im)
                if verified is not tile:
                    tile[...] = verified

    def verified(self, tile: np.ndarray, index: int, j0: int, jn: int,
                 i0: int, im: int) -> np.ndarray:
        """The verified ``(jn, im)`` tile: ``tile`` itself when its
        checksums hold, else the retry's or the reference's bits."""
        driver = self.driver
        a_sub = self.a[i0:i0 + im, :]
        b_sub = self.b[:, j0:j0 + jn]
        worker = _threading.current_thread().name
        if self.report is not None:
            self.report.note("tiles_checked")

        def retry() -> np.ndarray:
            # a fresh one-tile native call on the tile's sub-operands
            # (heals transient bit-flips and dirty-scratch races; the
            # fault plan is consulted again, so a persistent `corrupt`
            # spec corrupts the retry too).  It adds into -0.0, the
            # identity of IEEE addition, so it holds the tile's exact
            # bits, sign of zero included
            again = np.full((jn, im), -0.0)
            driver._native(a_sub, b_sub, again, *self.job[3:], 0, 1)
            if self.fault_at(index) == "corrupt":
                corrupt_tile(again)
            return again

        return contain(
            tile, lambda got: verify_gemm_tile(got, a_sub, b_sub, self.alpha),
            retry, lambda: (self.alpha * (a_sub @ b_sub)).T,
            lambda: (driver.family, driver.kernel), driver.integrity,
            self.report, family=driver.family,
            detail=f"tile ({j0},{i0}) mismatched twice on {worker}",
            tile=index, j0=j0, i0=i0, worker=worker)


def _trampoline(kernel, errors: List[BaseException]):
    """``kernel`` as a C function pointer over numpy views of its panels."""
    def call(m, n, k, a, b, c, ldc):
        if errors:
            return
        try:
            kernel(m, n, k, _view(a, k * m), _view(b, k * n),
                   _view(c, ldc * n), ldc)
        except BaseException as exc:  # noqa: BLE001 - ctypes would swallow it
            errors.append(exc)
    return KERNEL_FN(call)


def make_gemm(arch=None, config=None, strategy: str = "auto",
              layout: str = "dup", blocks: Optional[BlockSizes] = None,
              schedule: bool = True, loader=None,
              threads: Optional[int] = None,
              integrity=None) -> GemmDriver:
    """Generate, assemble and wrap a DGEMM for the given (or host) arch.

    ``loader`` replaces :func:`~repro.backend.runner.load_kernel` — the
    dispatch layer passes a quarantine-aware, fault-instrumented loader.
    ``threads`` pins the driver's thread count (default:
    ``$REPRO_THREADS``, else 1); ``integrity`` the ABFT mode or a shared
    :class:`~repro.blas.integrity.IntegrityChecker` (default:
    ``$REPRO_INTEGRITY``, else off).
    """
    from ..backend.runner import load_kernel
    from ..core.framework import Augem

    load = loader or load_kernel
    start_build()  # the compiler runs while the kernel is generated
    aug = Augem(arch=arch, schedule=schedule)
    kernel_name = "gemm" if layout == "dup" else "gemm_shuf"
    gk = aug.generate_named(kernel_name, config=config, strategy=strategy)
    native = load(kernel_name, gk)
    return GemmDriver(native, layout=layout, blocks=blocks, threads=threads,
                      integrity=integrity)
