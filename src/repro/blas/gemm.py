"""Blocked DGEMM driver — Goto's GEBP algorithm around the generated
micro-kernel (paper §4.1: "Our GEMM kernel is based on a general
block-partitioned algorithm originally developed by Goto").

The driver:

1. owns exactly one full-size array per call — the C-contiguous result,
   ``beta * C`` or zeros — and swaps the operand roles at entry: a
   row-major ``C`` is the column-major ``Cᵀ = Bᵀ Aᵀ``, so the kernel's
   column-major tile of ``Bᵀ Aᵀ`` has the layout of the block of the
   result it belongs to;
2. partitions (the swapped) C into Mc x Nc macro-tiles and K into Kc
   slices (Kc = 256 in the paper's evaluation), shrinking Mc/Nc when
   needed so there are at least as many tiles as compute threads;
3. packs the A block (alpha folded in during the pack — no scaled copy
   is ever materialized) and the B panel into the layouts the generated
   kernel expects, all through a reusable
   :class:`~repro.blas.threading.PackBufferPool`;
4. runs the remainder-free micro-kernel over every macro-tile — on one
   thread, or partitioned across the persistent
   :class:`~repro.blas.threading.WorkerPool` (BLIS-style jc/ic loop
   parallelism; the ctypes kernel call releases the GIL) — into a pooled
   scratch tile that is verified and then added straight into its block
   of the result.

Parallel execution is **bit-identical** to single-threaded execution at
any thread count: each (jc, ic) macro-tile is owned by exactly one task,
its kc-slices run sequentially inside that task, every C element is
accumulated in strictly ascending k order by the kernel, and tiles land
in disjoint blocks of the result — so no floating-point operation ever
reorders, whatever the scheduling.  B panels are packed once per
(jc, kc) slice by the first task to need them and shared read-only;
A-block packing is per-task into pooled buffers.

``alpha`` scales the packed A block; ``beta`` pre-scales C — the kernel
itself computes pure ``C += A*B`` exactly as in paper Fig. 12.  The
thread count comes from the constructor, a per-call override, or
``$REPRO_THREADS`` (see :func:`~repro.blas.threading.resolve_threads`).
"""

from __future__ import annotations

import threading as _threading
import time as _time
from dataclasses import dataclass
from functools import partial
from typing import Dict, Optional, Tuple

import numpy as np

from ..backend.faults import (InjectedWorkerFault, corrupt_tile,
                              get_fault_plan)
from ..backend.runner import NativeKernel
from ..core.framework import GeneratedKernel
from ..obs import event, incr, span
from ..obs import trace as _trace
from .integrity import STATS as _ISTATS
from .integrity import (IntegrityChecker, IntegrityReport,
                        resolve_integrity, verify_gemm_tile)
from .packing import pack_a, pack_b_dup, pack_b_shuf
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
    """Cache-blocking parameters (paper Table 5 guides the defaults;
    empirically re-tuned for the Python-driver overhead profile)."""

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


class _PanelSlot:
    """Once-per-(jc, kc) B panel: first claimant packs, the rest wait."""

    __slots__ = ("event", "buf", "error")

    def __init__(self) -> None:
        self.event = _threading.Event()
        self.buf: Optional[np.ndarray] = None
        self.error: Optional[BaseException] = None


class GemmDriver:
    """Reusable DGEMM entry point around one loaded micro-kernel.

    One driver instance is safe to call from many threads concurrently:
    the packing-buffer pool is lock-protected, worker pools are shared
    process-wide, and every call works on private tile buffers.
    """

    #: the serve worker keys per-request ABFT on this marker
    supports_integrity = True

    def __init__(self, kernel: NativeKernel, layout: str = "dup",
                 blocks: Optional[BlockSizes] = None,
                 threads: Optional[int] = None,
                 pack_pool: Optional[PackBufferPool] = None,
                 integrity=None) -> None:
        if layout not in ("dup", "shuf"):
            raise ValueError("layout must be 'dup' or 'shuf'")
        self.kernel = kernel
        self.layout = layout
        self.blocks = blocks or BlockSizes()
        self.threads = resolve_threads(threads)
        self.pack_pool = pack_pool or PackBufferPool()
        self.mu, self.nu, self.ku = kernel_multiples(kernel.generated)
        if isinstance(integrity, IntegrityChecker):
            self.integrity = integrity
        else:
            self.integrity = IntegrityChecker(mode=integrity)

    def __call__(self, a: np.ndarray, b: np.ndarray,
                 c: Optional[np.ndarray] = None,
                 alpha: float = 1.0, beta: float = 0.0,
                 threads: Optional[int] = None,
                 integrity: Optional[str] = None,
                 integrity_report: Optional[IntegrityReport] = None
                 ) -> np.ndarray:
        """``C = alpha * A @ B + beta * C`` for row-major 2-D float64 arrays.

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
        check = self.integrity.decide(integrity)
        if report is not None:
            report.mode = self.integrity.mode if integrity is None \
                else resolve_integrity(integrity)[0]
            report.checked = report.checked or check
        if alpha == 0.0 or k == 0:
            return out

        # row-major C is column-major Cᵀ = Bᵀ Aᵀ: after the swap a kernel
        # tile has the layout of the block of ``out`` it is added into
        a, b, m, n = b.T, a.T, n, m

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
        if tiles:
            self._run_tiles(tiles, a, b, out, alpha, k, kc,
                            min(nthreads, len(tiles)), check=check,
                            report=report)
        return out

    # -- tile execution ----------------------------------------------------

    def _run_tiles(self, tiles, a, b, out, alpha, k, kc,
                   nthreads, check: bool = False,
                   report: Optional[IntegrityReport] = None) -> None:
        """Run every macro-tile of ``out.T = a @ b`` (the swapped
        operands of :meth:`__call__`): ``out`` is indexed ``[j, i]``."""
        pool = self.pack_pool
        plan = get_fault_plan()  # one env lookup per call, not per tile
        pack_b = pack_b_dup if self.layout == "dup" else pack_b_shuf
        family = "gemm" if self.layout == "dup" else "gemm_shuf"
        panels: Dict[Tuple[int, int], _PanelSlot] = {}
        panel_lock = _threading.Lock()
        # tiles remaining per j-column: when a column drains, its B
        # panels go back to the pool instead of living to call end
        j_remaining: Dict[int, int] = {}
        for tile in tiles:
            j_remaining[tile[0]] = j_remaining.get(tile[0], 0) + 1

        def retire_column(j0: int) -> None:
            to_release = []
            with panel_lock:
                j_remaining[j0] -= 1
                if j_remaining[j0] == 0:
                    for (pj, _pl), slot in panels.items():
                        if pj == j0 and slot.buf is not None:
                            to_release.append(slot.buf)
                            slot.buf = None
            for buf in to_release:
                pool.release(buf)

        def ensure_panel(j0: int, jn: int, jn_pad: int, l0: int, ln: int,
                         ln_pad: int) -> np.ndarray:
            """The shared read-only B panel for (j0, l0); packed once."""
            key = (j0, l0)
            with panel_lock:
                slot = panels.get(key)
                owner = slot is None
                if owner:
                    slot = panels[key] = _PanelSlot()
            if owner:
                try:
                    buf = pool.acquire(ln_pad * jn_pad)
                    try:
                        pack_b(b[l0:l0 + ln, j0:j0 + jn], ln_pad, jn_pad,
                               out=buf)
                    except BaseException:
                        pool.release(buf)
                        raise
                    slot.buf = buf
                except BaseException as exc:  # noqa: BLE001 - rethrown
                    slot.error = exc
                    raise
                finally:
                    slot.event.set()
            else:
                slot.event.wait()
                if slot.error is not None:
                    raise RuntimeError(
                        f"B panel ({j0}, {l0}) packing failed: "
                        f"{slot.error}") from slot.error
            return slot.buf

        checker = self.integrity

        def fault_at(index: int) -> Optional[str]:
            """The planned thread-stage fault for this tile, if armed."""
            return plan.take("thread", tag=family, index=index) \
                if plan is not None else None

        def note(field: str, n: int = 1) -> None:
            _ISTATS.add(field, n)
            incr(f"integrity.{field}", n)
            # the per-call report counts tiles_checked, not raw checks
            if report is not None and field != "checks":
                report.note(field, n)

        def note_overhead(t0: int) -> None:
            dt = _time.perf_counter_ns() - t0
            _ISTATS.add("overhead_ns", dt)
            if report is not None:
                report.note("overhead_ns", dt)

        def compute_tile(j0: int, jn: int, jn_pad: int, i0: int, im: int,
                         im_pad: int, corrupt: bool,
                         shared_panels: bool) -> np.ndarray:
            """Pack and multiply one macro-tile into a pooled buffer.

            The caller owns (and must release) the returned buffer.
            ``shared_panels=False`` repacks B privately — the ABFT
            retry must not reuse a possibly-corrupt shared panel.
            """
            c_buf = pool.acquire(im_pad * jn_pad)
            try:
                c_buf[:] = 0.0
                for l0 in range(0, k, kc):
                    ln = min(kc, k - l0)
                    ln_pad = _round_up(ln, self.ku)
                    b_private: Optional[np.ndarray] = None
                    if shared_panels:
                        b_panel = ensure_panel(j0, jn, jn_pad, l0, ln,
                                               ln_pad)
                    else:
                        b_panel = b_private = pool.acquire(ln_pad * jn_pad)
                    a_buf = pool.acquire(im_pad * ln_pad)
                    try:
                        if b_private is not None:
                            pack_b(b[l0:l0 + ln, j0:j0 + jn], ln_pad,
                                   jn_pad, out=b_private)
                        pack_a(a[i0:i0 + im, l0:l0 + ln], im_pad, ln_pad,
                               out=a_buf, alpha=alpha)
                        self.kernel(im_pad, jn_pad, ln_pad,
                                    a_buf, b_panel, c_buf, im_pad)
                    finally:
                        pool.release(a_buf)
                        if b_private is not None:
                            pool.release(b_private)
                if corrupt:
                    corrupt_tile(c_buf)
                return c_buf
            except BaseException:
                pool.release(c_buf)
                raise

        def resolve_tile(c_buf: np.ndarray, index: int, j0: int, jn: int,
                         jn_pad: int, i0: int, im: int,
                         im_pad: int) -> np.ndarray:
            """The verified (jn, im) tile to add into ``out``.

            Clean tiles return the view into ``c_buf`` (added before
            the caller releases it); the mismatch ladder returns a
            private copy safe to read after any pooled buffer goes
            back.
            """
            t0 = _time.perf_counter_ns()
            a_sub = a[i0:i0 + im, :]
            b_sub = b[:, j0:j0 + jn]
            tile = c_buf.reshape(jn_pad, im_pad)[:jn, :im]
            note("checks")
            if report is not None:
                report.note("tiles_checked")
            if verify_gemm_tile(tile, a_sub, b_sub, alpha):
                note_overhead(t0)
                return tile
            worker = _threading.current_thread().name
            note("mismatches")
            event("integrity.mismatch", family=family, tile=index,
                  j0=j0, i0=i0, worker=worker)
            # rung 1: retry once on freshly zeroed pooled buffers with
            # privately packed panels (heals transient bit-flips and
            # dirty-scratch races; the fault plan is re-consulted so a
            # persistent `corrupt` spec corrupts the retry too)
            note("retries")
            buf2 = compute_tile(j0, jn, jn_pad, i0, im, im_pad,
                                fault_at(index) == "corrupt",
                                shared_panels=False)
            try:
                tile2 = buf2.reshape(jn_pad, im_pad)[:jn, :im]
                if verify_gemm_tile(tile2, a_sub, b_sub, alpha):
                    event("integrity.retry_ok", family=family, tile=index,
                          j0=j0, i0=i0)
                    tile2 = np.array(tile2)
                    note_overhead(t0)
                    return tile2
                tile2 = None
            finally:
                pool.release(buf2)
            # rung 2: reference recompute — the caller always receives
            # correct bits, whatever the kernel did
            note("reference_recomputes")
            ref_tile = np.ascontiguousarray((alpha * (a_sub @ b_sub)).T)
            # rung 3: strike the kernel; quarantine + demote at the limit
            verdict = checker.record_corruption(
                family, self.kernel,
                detail=f"tile ({j0},{i0}) mismatched twice on {worker}")
            if report is not None and verdict.get("quarantined"):
                report.quarantine(str(verdict.get("body_hash")))
            note_overhead(t0)
            return ref_tile

        def run_tile(index: int, j0: int, jn: int, jn_pad: int, i0: int,
                     im: int, im_pad: int) -> None:
            fault = fault_at(index)
            if fault == "worker_die":
                raise InjectedWorkerFault(
                    f"injected worker_die at {family} tile #{index}")
            c_buf = compute_tile(j0, jn, jn_pad, i0, im, im_pad,
                                 fault == "corrupt", shared_panels=True)
            try:
                if check:
                    tile = resolve_tile(c_buf, index, j0, jn, jn_pad,
                                        i0, im, im_pad)
                else:
                    tile = c_buf.reshape(jn_pad, im_pad)[:jn, :im]
                # disjoint block per tile: concurrent adds never overlap
                out[j0:j0 + jn, i0:i0 + im] += tile
            finally:
                pool.release(c_buf)
            retire_column(j0)

        tasks = [partial(run_tile, idx, *tile)
                 for idx, tile in enumerate(tiles)]
        try:
            if nthreads > 1:
                with span("gemm.parallel", layout=self.layout,
                          threads=nthreads, tiles=len(tiles), k=k) as sp:
                    busy = get_pool(nthreads).run(tasks)
                    if _trace.enabled():
                        sp.set(busy_s=round(sum(busy.values()), 6))
                        incr("gemm.parallel.calls")
                        incr("gemm.parallel.tasks", len(tiles))
                        incr("gemm.parallel.worker_busy",
                             sum(busy.values()))
                        for worker, seconds in sorted(busy.items()):
                            event("gemm.parallel.worker", worker=worker,
                                  busy_s=round(seconds, 6))
            else:
                for task in tasks:
                    task()
        finally:
            # failure path: columns that never drained still hold panels
            with panel_lock:
                leftover = [slot for slot in panels.values()
                            if slot.buf is not None]
                for slot in leftover:
                    buf, slot.buf = slot.buf, None
                    pool.release(buf)


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
    aug = Augem(arch=arch, schedule=schedule)
    kernel_name = "gemm" if layout == "dup" else "gemm_shuf"
    gk = aug.generate_named(kernel_name, config=config, strategy=strategy)
    native = load(kernel_name, gk)
    return GemmDriver(native, layout=layout, blocks=blocks, threads=threads,
                      integrity=integrity)
