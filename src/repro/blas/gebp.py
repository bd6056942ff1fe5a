"""Native GEBP: the C macro loop around the generated micro-kernel.

Goto's GEBP (paper §4.1) as one C entry point, ``augem_gebp``.  It runs
a contiguous range of the driver's macro-tile list in Goto's loop order,
column -> Kc slice -> A block: for every column of the range it

1. packs the column's B panels once (``dup``: ``B[j*Kc + l]``,
   ``shuf``: ``B[l*Nc + j]``), then, for each Kc slice in ascending
   order, so that one slice of B serves every tile of the column,
2. packs each tile's A block with ``alpha`` folded in
   (``A[l*Mc + i]``), and
3. calls the micro-kernel through a function pointer.  A whole tile of
   a native kernel accumulates straight into its block of the
   destination (``ldc`` is the destination's row stride); an edge tile,
   or any tile of a kernel reached through the driver's Python
   trampoline, goes through a zeroed scratch tile whose ``im x jn``
   corner is added into the destination.

Either way every element is ``((beta*C + r1) + r2) + ...`` over its Kc
slices in ascending order: the kernel's accumulators start at ``+0.0``,
so adding a slice's result to a zeroed scratch tile changes no bit of
it, and results do not depend on which tiles are whole, hence not on
the thread count.

Operands are read and the destination written through their (row,
column) element strides, so F-ordered, transposed, negative-stride and
broadcast operands need no copy.  The layouts and the zero padding are
exactly those of :mod:`repro.blas.packing`, which stays the layout
specification and the test oracle.

The loop has no other order and calls back into nothing but the
kernel: fault injection and ABFT verification run in Python on the
finished tiles after the call returns (:mod:`repro.blas.gemm`).

The source is built once per process with plain ``-O2`` — no
``-march``, no fast-math, so every multiply and add is the same IEEE
operation the numpy packers perform.  :func:`start_build` begins the
build on a background thread, so the compiler runs while the caller
generates its kernel; :func:`gebp_function` waits for it.
"""

from __future__ import annotations

import ctypes
import threading
from typing import Optional

from ..backend.compiler import build_shared

GEBP_C = r"""
#include <stdlib.h>
#include <string.h>

typedef void (*gebp_kernel)(long, long, long, double *, double *, double *,
                            long);

static long round_up(long x, long mult)
{
    return (x + mult - 1) / mult * mult;
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

/* tiles[6*t ...] = (j0, jn, jn_pad, i0, im, im_pad) of C^T = a @ b, where
   a is m x k and b is k x n; out is indexed [j, i].  b_buf holds every
   Kc panel of one column, each starting on a 64-byte boundary.

   The range runs in groups: the run of tiles that share a column.  A
   group's column is packed once, then each Kc slice in ascending order
   serves every tile of the group.  A whole tile of a native kernel
   (direct) accumulates each slice straight into out; any other tile
   goes through c_buf once per slice. */
void augem_gebp(gebp_kernel kernel, int shuf, int direct, const long *tiles,
                long first, long count,
                const double *a, long as0, long as1,
                const double *b, long bs0, long bs1,
                double *out, long os0, long os1,
                long k, long kc, long ku, double alpha,
                double *a_buf, double *b_buf, double *c_buf)
{
    long packed_j0 = -1, t = first, stop = first + count;
    while (t < stop) {
        const long *tile = tiles + 6 * t;
        long j0 = tile[0], jn = tile[1], jn_pad = tile[2];
        long end = t + 1, l0;
        double *panel;

        while (end < stop && tiles[6 * end] == j0) end++;
        if (j0 != packed_j0) {
            panel = b_buf;
            for (l0 = 0; l0 < k; l0 += kc) {
                long ln = k - l0 < kc ? k - l0 : kc, ln_pad = round_up(ln, ku);
                const double *src = b + l0 * bs0 + j0 * bs1;
                if (shuf)
                    pack(panel, jn_pad, src, bs0, bs1, ln, jn, ln_pad, jn_pad,
                         1.0);
                else
                    pack(panel, ln_pad, src, bs1, bs0, jn, ln, jn_pad, ln_pad,
                         1.0);
                panel += round_up(ln_pad * jn_pad, 8);
            }
            packed_j0 = j0;
        }

        panel = b_buf;
        for (l0 = 0; l0 < k; l0 += kc) {
            long ln = k - l0 < kc ? k - l0 : kc, ln_pad = round_up(ln, ku);
            for (long u = t; u < end; u++) {
                long i0 = tiles[6 * u + 3], im = tiles[6 * u + 4],
                     im_pad = tiles[6 * u + 5];
                double *dst = out + j0 * os0 + i0 * os1;
                pack(a_buf, im_pad, a + i0 * as0 + l0 * as1, as1, as0, ln, im,
                     ln_pad, im_pad, alpha);
                if (direct && os1 == 1 && im == im_pad && jn == jn_pad) {
                    kernel(im_pad, jn_pad, ln_pad, a_buf, panel, dst, os0);
                } else {
                    memset(c_buf, 0,
                           (size_t)(im_pad * jn_pad) * sizeof(double));
                    kernel(im_pad, jn_pad, ln_pad, a_buf, panel, c_buf,
                           im_pad);
                    add_tile(dst, os0, os1, c_buf, im_pad, im, jn);
                }
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

_L, _P, _D = ctypes.c_long, ctypes.c_void_p, ctypes.c_double
_ARGTYPES = [_P, ctypes.c_int, ctypes.c_int,  # kernel, shuf, direct
             _P, _L, _L,                      # tiles, range
             _P, _L, _L, _P, _L, _L,          # a, b with strides
             _P, _L, _L,                      # out with strides
             _L, _L, _L, _D,                  # k, kc, ku, alpha
             _P, _P, _P]                      # buffers


class _Build(threading.Thread):
    """The one background build of ``augem_gebp``."""

    def __init__(self) -> None:
        super().__init__(name="gebp-build", daemon=True)
        self.fn = None
        self.error: Optional[BaseException] = None

    def run(self) -> None:
        try:
            fn = build_shared({"gebp.c": GEBP_C},
                              tag="gebp").symbol("augem_gebp")
            fn.restype, fn.argtypes = None, _ARGTYPES
            self.fn = fn
        except BaseException as exc:  # noqa: BLE001 - raised by gebp_function
            self.error = exc


_LOCK = threading.Lock()
_BUILD: Optional[_Build] = None


def start_build() -> _Build:
    """Begin (once per process) building ``augem_gebp`` in the background."""
    global _BUILD
    with _LOCK:
        if _BUILD is None:
            _BUILD = _Build()
            _BUILD.start()
        return _BUILD


def gebp_function():
    """The loaded ``augem_gebp`` (waits for the build).

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
