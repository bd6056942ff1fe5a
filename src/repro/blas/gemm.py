"""Blocked DGEMM driver — Goto's GEBP algorithm around the generated
micro-kernel (paper §4.1: "Our GEMM kernel is based on a general
block-partitioned algorithm originally developed by Goto").

Python plans the call; C runs it.  The driver:

1. owns exactly one full-size array per call — the C-contiguous result,
   ``beta * C`` or zeros — and swaps the operand roles at entry: a
   row-major ``C`` is the column-major ``Cᵀ = Bᵀ Aᵀ``, so the kernel's
   column-major tile of ``Bᵀ Aᵀ`` has the layout of the block of the
   result it belongs to;
2. partitions (the swapped) C into Mc x Nc macro-tiles and K into Kc
   slices (Kc = 256 in the paper's evaluation), shrinking Mc/Nc when
   needed so there are at least as many tiles as compute threads, and
   lists the tiles column by column;
3. splits that list into one contiguous range per thread and runs each
   range in one call of the native GEBP loop (:mod:`repro.blas.gebp`) on
   buffers lent by a :class:`~repro.blas.threading.PackBufferPool`.  The
   loop runs in Goto's order: it packs the B panels of each column it
   covers once, and for each Kc slice packs every tile's A block with
   alpha folded in and calls the micro-kernel, which accumulates a whole
   tile straight into the result (edge tiles go through a scratch tile
   and are added).  It reads the operands through their strides, so
   F-ordered, transposed and sliced inputs are never copied.  With more
   than one thread the ranges run on the persistent
   :class:`~repro.blas.threading.WorkerPool`; the native call releases
   the GIL.

Parallel execution is **bit-identical** to single-threaded execution at
any thread count: each (jc, ic) macro-tile is computed by exactly one
native call, every element of an unchecked call is
``((beta*C + r1) + r2) + ...`` over its Kc slices in ascending order
whether its tile is whole or an edge (see :mod:`repro.blas.gebp`), and
tiles land in disjoint blocks of the result — so no floating-point
operation ever reorders, whatever the scheduling.  A column split across
two ranges has its B panels packed by both.

Python keeps the decisions around the loop: the fault plan
(``worker_die`` raises before the native call covering the tile;
``corrupt`` flips the tile's bits through a per-tile hook) and the ABFT
ladder of :mod:`repro.blas.integrity`, which the same hook runs on the
finished tile before the loop adds it.  A hooked range builds each
tile's whole product before adding it once, so at k > Kc a checked
call can differ from an unchecked one in the last place.

``alpha`` scales the packed A block; ``beta`` pre-scales C — the kernel
itself computes pure ``C += A*B`` exactly as in paper Fig. 12.  The
thread count comes from the constructor, a per-call override, or
``$REPRO_THREADS`` (see :func:`~repro.blas.threading.resolve_threads`).
"""

from __future__ import annotations

import ctypes
import threading as _threading
import time as _time
from dataclasses import dataclass
from functools import partial
from typing import Callable, List, Optional, Tuple

import numpy as np

from ..backend.faults import (InjectedWorkerFault, corrupt_tile,
                              get_fault_plan)
from ..backend.runner import NativeKernel
from ..core.framework import GeneratedKernel
from ..obs import event, incr, span
from ..obs import trace as _trace
from .gebp import HOOK_FN, KERNEL_FN, gebp_function, start_build
from .integrity import STATS as _ISTATS
from .integrity import (IntegrityChecker, IntegrityReport,
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


def _round_up(x: int, mult: int) -> int:
    return ((x + mult - 1) // mult) * mult


@dataclass
class BlockSizes:
    """Cache-blocking parameters (paper Table 5 guides the defaults).

    ``kc`` x ``nc`` is the B panel one column's tiles share in L2; the
    driver rounds ``mc`` up to a multiple of the kernel's ``mu`` and
    ``nc`` to one of ``nu`` (144 x 512 at the zmm 24 x 4 tile)."""

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

    def ntiles(mc_: int, nc_: int) -> int:
        return -(-m // mc_) * -(-n // nc_)

    while ntiles(mc, nc) < threads:
        if nc > nu and (nc >= mc or mc <= mu):
            nc = max(nu, _round_up(nc // 2, nu))
        elif mc > mu:
            mc = max(mu, _round_up(mc // 2, mu))
        else:
            break
    return mc, nc


def _strided(x: np.ndarray) -> np.ndarray:
    """``x`` itself when C can read it through whole-element strides."""
    s0, s1 = x.strides
    if x.flags.aligned and not (s0 | s1) % 8:
        return x
    return np.ascontiguousarray(x)


def _operand(x: np.ndarray) -> tuple:
    """(address, row stride, column stride) of a 2-D float64 array, in
    elements; the address is that of ``x[0, 0]`` whatever the signs."""
    return x.ctypes.data, x.strides[0] // 8, x.strides[1] // 8


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
        self._gebp = gebp_function()
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
        # the one full-size array of the call: beta*C (or zeros), row-major
        if c is None or beta == 0.0:
            out = np.zeros((m, n))
        elif beta == 1.0:
            out = np.array(c, order="C")
        else:
            out = np.multiply(c, beta, order="C")
        report = integrity_report
        if report is not None:
            report.mode = self.integrity.mode if integrity is None \
                else resolve_integrity(integrity)[0]
        if alpha == 0.0 or m == 0 or n == 0 or k == 0:
            return out  # no tile runs, so no sampling slot is spent
        check = self.integrity.decide(integrity)
        if report is not None:
            report.checked = report.checked or check

        # row-major C is column-major Cᵀ = Bᵀ Aᵀ: after the swap a kernel
        # tile has the layout of the block of ``out`` it is added into
        a, b, m, n = _strided(b.T), _strided(a.T), n, m

        nthreads = self.threads if threads is None \
            else resolve_threads(threads)
        bs = self.blocks
        mc = max(_round_up(min(bs.mc, m), self.mu), self.mu)
        nc = max(_round_up(min(bs.nc, n), self.nu), self.nu)
        kc = max(_round_up(min(bs.kc, k), self.ku), self.ku)
        if nthreads > 1:
            mc, nc = split_for_threads(m, n, mc, nc, self.mu, self.nu,
                                       nthreads)

        tiles = []
        for j0 in range(0, n, nc):
            jn = min(nc, n - j0)
            for i0 in range(0, m, mc):
                im = min(mc, m - i0)
                tiles.append((j0, jn, _round_up(jn, self.nu),
                              i0, im, _round_up(im, self.mu)))
        _GebpCall(self, tiles, a, b, out, alpha, k, mc, nc, kc, check,
                  report).run(min(nthreads, len(tiles)))
        return out


class _GebpCall:
    """One GEMM call's tile plan, run as native GEBP calls.

    ``a @ b`` are the swapped operands of :meth:`GemmDriver.__call__`
    and ``out`` is indexed ``[j, i]``.  Each worker runs one contiguous
    range of the tile list in one native call.  The per-tile hook — the
    ``corrupt`` fault and the ABFT ladder — is passed only when a check
    is due or a fault is planned for a tile of the range.
    """

    def __init__(self, driver: GemmDriver, tiles, a, b, out, alpha: float,
                 k: int, mc: int, nc: int, kc: int, check: bool,
                 report: Optional[IntegrityReport]) -> None:
        self.driver = driver
        self.tiles = tiles
        self.table = np.array(tiles, dtype=np.int64)
        self.a, self.b, self.out = a, b, out
        self.alpha, self.k, self.kc = alpha, k, kc
        self.check, self.report = check, report
        # one pooled workspace per native call: the A block, every Kc
        # panel of one B column, and the tile the kernel accumulates
        # into, each starting on a 64-byte boundary.  Its size is rounded
        # up to a power of two so that calls of different shapes reuse
        # one cache-hot buffer: on a stream of ragged shapes, a buffer
        # per exact size is cold at every call and the packing runs at
        # memory latency (measured: a quarter of the ragged pass)
        self.b_at = _round_up(mc * kc, 8)
        self.c_at = self.b_at + sum(
            _round_up(_round_up(min(kc, k - l0), driver.ku) * nc, 8)
            for l0 in range(0, k, kc))
        self.workspace = 1 << (self.c_at + mc * nc - 1).bit_length()
        self.plan = get_fault_plan()  # one env lookup per call, not per tile

    # -- scheduling ----------------------------------------------------------

    def run(self, nthreads: int) -> None:
        ntiles = len(self.tiles)
        bounds = [ntiles * t // nthreads for t in range(nthreads + 1)]
        tasks = [partial(self.run_range, lo, hi)
                 for lo, hi in zip(bounds, bounds[1:])]
        if nthreads == 1:
            tasks[0]()
            return
        with span("gemm.parallel", layout=self.driver.layout,
                  threads=nthreads, tiles=ntiles, k=self.k) as sp:
            busy = get_pool(nthreads).run(tasks)
            if _trace.enabled():
                sp.set(busy_s=round(sum(busy.values()), 6))
                incr("gemm.parallel.calls")
                incr("gemm.parallel.tasks", len(tasks))
                incr("gemm.parallel.worker_busy", sum(busy.values()))
                for worker, seconds in sorted(busy.items()):
                    event("gemm.parallel.worker", worker=worker,
                          busy_s=round(seconds, 6))

    def fault_at(self, index: int) -> Optional[str]:
        """The planned thread-stage fault for this tile, if armed."""
        return self.plan.take("thread", tag=self.driver.family,
                              index=index) if self.plan is not None else None

    def run_range(self, first: int, stop: int) -> None:
        """Tiles ``first .. stop-1`` in one native call."""
        corrupt = set()
        for index in range(first, stop):
            fault = self.fault_at(index)
            if fault == "worker_die":
                raise InjectedWorkerFault(
                    f"injected worker_die at {self.driver.family} tile "
                    f"#{index}")
            if fault == "corrupt":
                corrupt.add(index)
        hook = None
        if self.check or corrupt:
            def hook(index: int, c_buf: np.ndarray) -> None:
                j0, jn, jn_pad, i0, im, im_pad = self.tiles[index]
                tile = c_buf[:jn_pad * im_pad].reshape(jn_pad, im_pad)
                if index in corrupt:
                    corrupt_tile(tile)
                if self.check:
                    tile = tile[:jn, :im]
                    resolved = self.resolve(tile, index)
                    if resolved is not tile:
                        tile[...] = resolved
        self.native(self.table, first, stop - first, self.a, self.b,
                    self.out, hook)

    # -- the native call -----------------------------------------------------

    def native(self, table: np.ndarray, first: int, count: int,
               a: np.ndarray, b: np.ndarray, out: np.ndarray,
               hook: Optional[Callable]) -> None:
        """``augem_gebp`` over ``count`` tiles of ``table`` in a pooled
        workspace.  An exception raised in the kernel trampoline or in
        ``hook(index, c_buf)`` stops the loop and is re-raised here."""
        driver, pool = self.driver, self.driver.pack_pool
        errors: List[BaseException] = []
        ws = pool.acquire(self.workspace)
        try:
            kernel = driver._kernel_address
            if kernel is None:
                kernel = _trampoline(driver.kernel, errors)
            c_hook = None if hook is None else \
                _hook(hook, ws[self.c_at:], errors)
            base = ws.ctypes.data
            # only a native kernel may write into ``out`` directly: the
            # trampoline would hand Python a view spanning other tiles
            driver._gebp(kernel, driver.layout == "shuf",
                         driver._kernel_address is not None,
                         table.ctypes.data, first, count, *_operand(a),
                         *_operand(b), *_operand(out), self.k, self.kc,
                         driver.ku, self.alpha, base, base + 8 * self.b_at,
                         base + 8 * self.c_at, c_hook)
        finally:
            pool.release(ws)
        if errors:
            raise errors[0]

    # -- ABFT ----------------------------------------------------------------

    def note(self, field: str, n: int = 1) -> None:
        _ISTATS.add(field, n)
        incr(f"integrity.{field}", n)
        # the per-call report counts tiles_checked, not raw checks
        if self.report is not None and field != "checks":
            self.report.note(field, n)

    def note_overhead(self, t0: int) -> None:
        dt = _time.perf_counter_ns() - t0
        _ISTATS.add("overhead_ns", dt)
        if self.report is not None:
            self.report.note("overhead_ns", dt)

    def resolve(self, tile: np.ndarray, index: int) -> np.ndarray:
        """The verified ``(jn, im)`` tile: ``tile`` itself when its
        checksums hold, else the retry's or the reference's bits."""
        driver, report = self.driver, self.report
        family = driver.family
        j0, jn, jn_pad, i0, im, im_pad = self.tiles[index]
        t0 = _time.perf_counter_ns()
        a_sub = self.a[i0:i0 + im, :]
        b_sub = self.b[:, j0:j0 + jn]
        self.note("checks")
        if report is not None:
            report.note("tiles_checked")
        if verify_gemm_tile(tile, a_sub, b_sub, self.alpha):
            self.note_overhead(t0)
            return tile
        worker = _threading.current_thread().name
        self.note("mismatches")
        event("integrity.mismatch", family=family, tile=index,
              j0=j0, i0=i0, worker=worker)
        # rung 1: retry once as a fresh one-tile native call that packs
        # its own B panel (heals transient bit-flips and dirty-scratch
        # races; the fault plan is re-consulted so a persistent
        # `corrupt` spec corrupts the retry too).  The retry adds into
        # -0.0, the identity of IEEE addition, so it holds the tile's
        # exact bits, sign of zero included.
        self.note("retries")
        retry = np.full((jn, im), -0.0)
        self.native(np.array([(0, jn, jn_pad, 0, im, im_pad)],
                             dtype=np.int64), 0, 1, a_sub, b_sub, retry,
                    None)
        if self.fault_at(index) == "corrupt":
            corrupt_tile(retry)
        if verify_gemm_tile(retry, a_sub, b_sub, self.alpha):
            event("integrity.retry_ok", family=family, tile=index,
                  j0=j0, i0=i0)
            self.note_overhead(t0)
            return retry
        # rung 2: reference recompute — the caller always receives
        # correct bits, whatever the kernel did
        self.note("reference_recomputes")
        ref_tile = (self.alpha * (a_sub @ b_sub)).T
        # rung 3: strike the kernel; quarantine + demote at the limit
        verdict = driver.integrity.record_corruption(
            family, driver.kernel,
            detail=f"tile ({j0},{i0}) mismatched twice on {worker}")
        if report is not None and verdict.get("quarantined"):
            report.quarantine(str(verdict.get("body_hash")))
        self.note_overhead(t0)
        return ref_tile


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


def _hook(hook: Callable, c_buf: np.ndarray, errors: List[BaseException]):
    """``hook(index, c_buf)`` as a C callback; nonzero stops the loop."""
    def call(index):
        if errors:
            return 1
        try:
            hook(index, c_buf)
            return 0
        except BaseException as exc:  # noqa: BLE001 - ctypes would swallow it
            errors.append(exc)
            return 1
    return HOOK_FN(call)


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
