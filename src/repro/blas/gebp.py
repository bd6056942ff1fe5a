"""Native GEMM: the tile plan and the C macro loop around the generated
micro-kernel.

Goto's GEBP (paper §4.1) as one C entry point, ``augem_gemm``.  Python
plans nothing per call: it passes the (swapped) shape, the operands'
addresses, the rounded block sizes, ``alpha``, a ``(thread, nthreads)``
pair and one pooled workspace, and C owns the rest.

**The tiling rule.**  The ``m x n`` result is cut into ``mc x nc``
macro-tiles, numbered column by column: tile ``t`` is column
``t / mtiles`` and row ``t % mtiles`` of the grid, where ``mtiles =
ceil(m / mc)``.  Call ``thread`` of ``nthreads`` runs tiles
``[ntiles*thread/nthreads, ntiles*(thread+1)/nthreads)``, so the calls
of one GEMM cover each tile exactly once.  :func:`tiles` states the
same rule in Python, for the fault plan and the ABFT ladder of
:mod:`repro.blas.gemm`.

**The loop** runs a range in Goto's order, column -> Kc slice -> A
block: for every column of the range it

1. packs the column's B panels once (``dup``: ``B[j*Kc + l]``,
   ``shuf``: ``B[l*Nc + j]``), then, for each Kc slice in ascending
   order, so that one slice of B serves every tile of the column,
2. packs each tile's A block with ``alpha`` folded in
   (``A[l*Mc + i]``), and
3. calls the micro-kernel through a function pointer on at most four
   rectangles of the tile.

**Edge tiles.**  An ``im x jn`` tile is cut after its last whole
micro-tile, at ``im_w = im - im % mu`` rows and ``jn_w = jn - jn % nu``
columns.  The whole x whole rectangle of a native kernel accumulates
straight into its block of the destination (``ldc`` is the
destination's row stride).  The whole x edge, edge x whole and edge x
edge rectangles run the same kernel on strips padded to ``mu`` rows or
``nu`` columns, into a zeroed scratch tile whose valid corner is added
into the destination; a kernel reached through the driver's Python
trampoline runs its whole x whole rectangle that way too.  The panels
follow one rule for A and both B layouts: the ragged part is a panel of
its own, padded to one step, right after the whole part (at
``im_w*Kc`` in the A block, ``jn_w*Kc`` in a B panel, ``Kc`` standing
for the slice's depth rounded to ``ku``).  The dup layout has that
shape already; A and shuf B are packed with the whole part's own width
as their leading dimension (:func:`repro.blas.packing.pack_a_block`,
:func:`repro.blas.packing.pack_b_panel`).

Every element is ``((beta*C + r1) + r2) + ...`` over its Kc slices in
ascending order, whichever rectangle holds it: the kernel's
accumulators start at ``+0.0`` and never hold ``-0.0``, so adding a
slice's result to a zeroed scratch tile changes no bit of it, and each
result element is one multiply-add chain over ``l`` on the same packed
row of A and column of B.  Results therefore depend neither on which tiles are
ragged nor on the thread count.

Operands are read and the destination written through their (row,
column) element strides, so F-ordered, transposed, negative-stride and
broadcast operands need no copy.  The layouts and the zero padding are
exactly those of :mod:`repro.blas.packing`, which stays the layout
specification and the test oracle.

The loop calls back into nothing but the kernel: fault injection and
ABFT verification run in Python on the finished tiles after the call
returns (:mod:`repro.blas.gemm`).

The source is built once per process with plain ``-O2`` — no
``-march``, no fast-math, so every multiply and add is the same IEEE
operation the numpy packers perform.  :func:`start_build` begins the
build on a background thread, so the compiler runs while the caller
generates its kernel; :func:`gebp_function` waits for it.
"""

from __future__ import annotations

import ctypes
import struct
import threading
from typing import Optional

from ..backend.compiler import build_shared

GEBP_C = r"""
#include <stdlib.h>
#include <string.h>

typedef void (*gebp_kernel)(long, long, long, double *, double *, double *,
                            long);

/* augem_gemm's parameter block: int64 values in this order */
enum { P_M, P_N, P_K, P_MC, P_NC, P_KC, P_MU, P_NU, P_KU,
       P_AS0, P_AS1, P_BS0, P_BS1, P_OS0, P_OS1,
       P_SHUF, P_DIRECT, P_THREAD, P_NTHREADS };

static long round_up(long x, long mult)
{
    return (x + mult - 1) / mult * mult;
}

static long min_long(long x, long y)
{
    return x < y ? x : y;
}

/* dst[r*ld + c] = scale * src[r*rs + c*cs] for r < rows, c < cols; zero
   for the padding up to (rows_pad, cols_pad).  The loop order follows
   the smaller source stride; the values written do not depend on it. */
static void pack(double *dst, long ld, const double *src, long rs, long cs,
                 long rows, long cols, long rows_pad, long cols_pad,
                 double scale)
{
    long r, c;
    if (labs(cs) <= labs(rs)) {
        for (r = 0; r < rows; r++) {
            const double *s = src + r * rs;
            double *d = dst + r * ld;
            if (scale == 1.0)
                for (c = 0; c < cols; c++) d[c] = s[c * cs];
            else
                for (c = 0; c < cols; c++) d[c] = s[c * cs] * scale;
        }
    } else {
        for (c = 0; c < cols; c++) {
            const double *s = src + c * cs;
            double *d = dst + c;
            if (scale == 1.0)
                for (r = 0; r < rows; r++) d[r * ld] = s[r * rs];
            else
                for (r = 0; r < rows; r++) d[r * ld] = s[r * rs] * scale;
        }
    }
    for (r = 0; r < rows; r++)
        for (c = cols; c < cols_pad; c++) dst[r * ld + c] = 0.0;
    for (r = rows; r < rows_pad; r++)
        memset(dst + r * ld, 0, (size_t)cols_pad * sizeof(double));
}

/* out[j*os0 + i*os1] += c[j*ldc + i] for i < im, j < jn */
static void add_tile(double *out, long os0, long os1, const double *c,
                     long ldc, long im, long jn)
{
    for (long j = 0; j < jn; j++) {
        double *dst = out + j * os0;
        const double *src = c + j * ldc;
        for (long i = 0; i < im; i++) dst[i * os1] += src[i];
    }
}

/* A Kc slice whose x extent the kernel steps by mult, packed as two
   panels: the whole mult-groups as dst[l*xw + x] (x < xw), then the
   ragged rest, zero-padded to mult, as dst[xw*ln_pad + l*mult + x].
   src[l*ls + x*xs] is the slice's element (l, x). */
static void pack_split(double *dst, const double *src, long ls, long xs,
                       long ln, long ln_pad, long x, long mult, double scale)
{
    long xw = x - x % mult;
    pack(dst, xw, src, ls, xs, ln, xw, ln_pad, xw, scale);
    if (xw < x)
        pack(dst + xw * ln_pad, mult, src + xw * xs, ls, xs, ln, x - xw,
             ln_pad, mult, scale);
}

/* The kernel on one rm x rn rectangle of a tile, whose valid corner is
   im x jn: straight into out when direct, else into the zeroed scratch
   tile c, whose corner is then added into out.  Nothing runs on an
   empty rectangle.  Kept out of line: four inlined copies of its loops
   lengthen the build, which sits on a cold start's path. */
static __attribute__((noinline)) void rect(gebp_kernel kernel, long rm, long rn, long ln_pad,
                 double *a, double *b, double *out, long os0, long os1,
                 double *c, long im, long jn, int direct)
{
    if (im == 0 || jn == 0)
        return;
    if (direct) {
        kernel(rm, rn, ln_pad, a, b, out, os0);
        return;
    }
    memset(c, 0, (size_t)(rm * rn) * sizeof(double));
    kernel(rm, rn, ln_pad, a, b, c, rm);
    add_tile(out, os0, os1, c, rm, im, jn);
}

/* out += a @ b over range p[P_THREAD] of p[P_NTHREADS] of the
   column-major mc x nc tile grid, where a is m x k and b is k x n; out
   is indexed [j, i].

   ws holds the A block, then every Kc panel of one column of B, then
   the scratch tile, each starting on a 64-byte boundary.  The range
   runs in groups: the run of its tiles that share a column.  A group's
   column is packed once, then each Kc slice in ascending order serves
   every tile of the group.

   A tile is cut at im_w = im - im % mu rows and jn_w = jn - jn % nu
   columns.  The ragged part of the A block and of a B panel is its own
   mu- or nu-padded panel at im_w*ln_pad and jn_w*ln_pad (pack_split; a
   dup panel has that shape already).  The whole x whole rectangle of a
   native kernel (direct) accumulates each slice straight into out; the
   three edge rectangles, and every rectangle of any other kernel, go
   through the scratch tile. */
void augem_gemm(gebp_kernel kernel, const double *a, const double *b,
                double *out, double *ws, const long *p, double alpha)
{
    long m = p[P_M], n = p[P_N], k = p[P_K];
    long mc = p[P_MC], nc = p[P_NC], kc = p[P_KC];
    long mu = p[P_MU], nu = p[P_NU], ku = p[P_KU];
    long as0 = p[P_AS0], as1 = p[P_AS1], bs0 = p[P_BS0], bs1 = p[P_BS1];
    long os0 = p[P_OS0], os1 = p[P_OS1];
    long mtiles = (m + mc - 1) / mc, ntiles = mtiles * ((n + nc - 1) / nc);
    long t = ntiles * p[P_THREAD] / p[P_NTHREADS];
    long stop = ntiles * (p[P_THREAD] + 1) / p[P_NTHREADS];
    int direct = p[P_DIRECT] && os1 == 1;
    double *a_buf = ws, *b_buf = ws + round_up(mc * kc, 8), *c_buf = b_buf;
    long l0;

    for (l0 = 0; l0 < k; l0 += kc)
        c_buf += round_up(round_up(min_long(kc, k - l0), ku) * nc, 8);

    while (t < stop) {
        long col = t / mtiles, j0 = col * nc;
        long jn = min_long(nc, n - j0), jn_w = jn - jn % nu;
        long jn_pad = round_up(jn, nu);
        long end = min_long(stop, (col + 1) * mtiles);
        double *panel = b_buf;

        for (l0 = 0; l0 < k; l0 += kc) {
            long ln = min_long(kc, k - l0), ln_pad = round_up(ln, ku);
            const double *src = b + l0 * bs0 + j0 * bs1;
            if (p[P_SHUF])
                pack_split(panel, src, bs0, bs1, ln, ln_pad, jn, nu, 1.0);
            else
                pack(panel, ln_pad, src, bs1, bs0, jn, ln, jn_pad, ln_pad,
                     1.0);
            panel += round_up(ln_pad * jn_pad, 8);
        }

        panel = b_buf;
        for (l0 = 0; l0 < k; l0 += kc) {
            long ln = min_long(kc, k - l0), ln_pad = round_up(ln, ku);
            double *b_edge = panel + jn_w * ln_pad;
            for (long u = t; u < end; u++) {
                long i0 = (u - col * mtiles) * mc;
                long im = min_long(mc, m - i0), im_w = im - im % mu;
                double *a_edge = a_buf + im_w * ln_pad;
                double *dst = out + j0 * os0 + i0 * os1;
                double *dst_i = dst + im_w * os1, *dst_j = dst + jn_w * os0;
                pack_split(a_buf, a + i0 * as0 + l0 * as1, as1, as0, ln,
                           ln_pad, im, mu, alpha);
                rect(kernel, im_w, jn_w, ln_pad, a_buf, panel, dst, os0, os1,
                     c_buf, im_w, jn_w, direct);
                rect(kernel, im_w, nu, ln_pad, a_buf, b_edge, dst_j, os0, os1,
                     c_buf, im_w, jn - jn_w, 0);
                rect(kernel, mu, jn_w, ln_pad, a_edge, panel, dst_i, os0, os1,
                     c_buf, im - im_w, jn_w, 0);
                rect(kernel, mu, nu, ln_pad, a_edge, b_edge,
                     dst_i + jn_w * os0, os0, os1, c_buf, im - im_w,
                     jn - jn_w, 0);
            }
            panel += round_up(ln_pad * jn_pad, 8);
        }
        t = end;
    }
}
"""

#: ``void kernel(long, long, long, double*, double*, double*, long)``
KERNEL_FN = ctypes.CFUNCTYPE(None, ctypes.c_long, ctypes.c_long,
                             ctypes.c_long, ctypes.c_void_p, ctypes.c_void_p,
                             ctypes.c_void_p, ctypes.c_long)

#: ``augem_gemm``'s parameter block, in the order of the C enum:
#: (m, n, k, mc, nc, kc, mu, nu, ku, a strides, b strides, out strides,
#: shuf, direct, thread, nthreads)
PARAMS = struct.Struct("19q")


def round_up(x: int, mult: int) -> int:
    return -(-x // mult) * mult


def tile_count(m: int, n: int, mc: int, nc: int) -> int:
    """Tiles of the ``mc x nc`` grid over an ``m x n`` result."""
    return -(-m // mc) * -(-n // nc)


def tiles(m: int, n: int, mc: int, nc: int, thread: int, nthreads: int):
    """``(index, j0, jn, i0, im)`` of every tile that ``augem_gemm`` call
    ``thread`` of ``nthreads`` runs: the C loop's grid rule, for the
    Python steps around the call."""
    mtiles = -(-m // mc)
    ntiles = tile_count(m, n, mc, nc)
    for index in range(ntiles * thread // nthreads,
                       ntiles * (thread + 1) // nthreads):
        col, row = divmod(index, mtiles)
        j0, i0 = col * nc, row * mc
        yield index, j0, min(nc, n - j0), i0, min(mc, m - i0)


def workspace_size(k: int, mc: int, nc: int, kc: int, ku: int) -> int:
    """Elements of ``augem_gemm``'s workspace as the C loop lays it out:
    the A block, every Kc panel of one B column and the scratch tile,
    each but the last rounded up to 8 elements.

    A ragged A block is its ``im_w`` whole rows then a ``mu``-row strip,
    ``im_w + mu <= mc`` rows in all, so it fits ``mc * kc``; the scratch
    tile holds any one rectangle of a tile, at most ``mc * nc``."""
    full, rest = divmod(k, kc)
    panels = full * round_up(round_up(kc, ku) * nc, 8)
    if rest:
        panels += round_up(round_up(rest, ku) * nc, 8)
    return round_up(mc * kc, 8) + panels + mc * nc


class _Build(threading.Thread):
    """The one background build of ``augem_gemm``."""

    def __init__(self) -> None:
        super().__init__(name="gebp-build", daemon=True)
        self.fn = None
        self.error: Optional[BaseException] = None

    def run(self) -> None:
        try:
            fn = build_shared({"gebp.c": GEBP_C},
                              tag="gebp").symbol("augem_gemm")
            p = ctypes.c_void_p
            fn.restype = None
            fn.argtypes = [p, p, p, p, p, ctypes.c_char_p, ctypes.c_double]
            self.fn = fn
        except BaseException as exc:  # noqa: BLE001 - raised by gebp_function
            self.error = exc


_LOCK = threading.Lock()
_BUILD: Optional[_Build] = None


def start_build() -> _Build:
    """Begin (once per process) building ``augem_gemm`` in the background."""
    global _BUILD
    with _LOCK:
        if _BUILD is None:
            _BUILD = _Build()
            _BUILD.start()
        return _BUILD


def gebp_function():
    """The loaded ``augem_gemm`` (waits for the build).

    A failed build raises its :class:`~repro.backend.compiler.ToolchainError`
    here and is forgotten, so the next driver build tries again.
    """
    global _BUILD
    build = start_build()
    build.join()
    if build.error is None:
        return build.fn
    with _LOCK:
        if _BUILD is build:
            _BUILD = None
    raise build.error
