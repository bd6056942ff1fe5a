"""Level-3 routines cast on the generated GEMM kernel (paper §4, Table 6).

"Most BLAS Level-3 routines, such as SYMM, SYRK, SYR2K, TRMM, and TRSM,
can be implemented by casting the bulk of computation in terms of the GEMM
kernel" — exactly what these drivers do, as **panel plans**: the matrix
structure decides which panels exist and what each one multiplies, and
every product is one ``self.gemm(a, b, c, alpha=..., beta=...)`` call on
strided views of the operands (the packers take them as they are).

- SYRK / SYR2K walk column panels of the stored triangle: panel ``j`` is
  the trapezoid ``A[j0:] @ X[j0:j0+w]ᵀ`` — one GEMM per product, and
  only the ``w x w`` diagonal block is masked.
- SYMM walks row panels of ``sym(A)``, each mirrored from the stored
  triangle into one panel-sized buffer.
- TRMM multiplies each row panel's trapezoid of L through GEMM, the
  diagonal block as a zero-filled copy.
- TRSM accumulates ``B_i -= L[i, :i] @ X[:i]`` through GEMM; the
  diagonal solve is naive compiled C
  (:mod:`repro.backend.baselines`), which reproduces the paper's finding
  that the substitution step "is translated into low-level C code in a
  straightforward fashion (without special optimizations)" and therefore
  trails the vendor library.

Conventions: all matrices are row-major float64; SY* routines use the
lower triangle ('L'), TR* routines take a lower-triangular, non-unit L on
the left (``side='L'``) — the variants the paper's Table 6 exercises.
"""

from __future__ import annotations

from typing import Iterator, Optional, Tuple

import numpy as np

from ..backend.baselines import baseline_o2
from ..backend.compiler import ToolchainError
from .gemm import BlockSizes, GemmDriver


class _NumpyTri:
    """Pure-numpy triangular solve of a diagonal block — used when the
    compiled-C baseline is unavailable (no toolchain, or the dispatch
    chain is serving from the reference tier)."""

    def trsm_diag(self, l_block: np.ndarray, b_rows: np.ndarray,
                  ldb: int) -> None:
        b_rows[:] = np.linalg.solve(np.tril(l_block), b_rows)


class Level3:
    """SYMM / SYRK / SYR2K / TRMM / TRSM on top of one GEMM driver."""

    #: panel width: the driver's unrounded Mc, so that after its operand
    #: swap a column panel of the triangle is one macro-tile per Kc
    #: slice.  The driver rounds Mc up to a multiple of its kernel's mu
    #: (144 at the zmm tile, mu = 24), so there each 128-wide panel is one
    #: tile padded by 16 zero rows: the kernel issues 12.5% more flops
    #: than the panel needs (ROADMAP items 2 and 7).  A 144-wide panel
    #: measured mixed (SYRK/SYR2K faster, TRMM/TRSM slower), so the
    #: width stays
    panel = BlockSizes().mc

    def __init__(self, gemm: GemmDriver) -> None:
        self.gemm = gemm
        try:
            self._tri = baseline_o2()
        except ToolchainError:
            self._tri = _NumpyTri()

    def _panels(self, n: int, width: Optional[int] = None
                ) -> Iterator[Tuple[int, int]]:
        """(start, stop) of every panel of an n-long dimension."""
        width = width or self.panel
        for p0 in range(0, n, width):
            yield p0, min(p0 + width, n)

    # -- SYMM ----------------------------------------------------------------
    def symm(self, a: np.ndarray, b: np.ndarray,
             c: Optional[np.ndarray] = None, alpha: float = 1.0,
             beta: float = 0.0) -> np.ndarray:
        """``C = alpha * sym(A) @ B + beta * C`` (A's lower triangle)."""
        a = np.asarray(a, dtype=np.float64)
        b = np.asarray(b, dtype=np.float64)
        n = a.shape[0]
        out = np.empty((n, b.shape[1]))
        rows = np.empty((min(self.panel, n), n))
        for i0, i1 in self._panels(n):
            # row panel of sym(A): stored rows left of the diagonal block,
            # the mirrored column panel right of it
            sym = rows[:i1 - i0]
            sym[:, :i1] = a[i0:i1, :i1]
            sym[:, i1:] = a[i1:, i0:i1].T
            diag = sym[:, i0:i1]
            upper = np.tri(i1 - i0, k=-1, dtype=bool).T
            diag[upper] = diag.T[upper]
            out[i0:i1] = self.gemm(sym, b, None if c is None else c[i0:i1],
                                   alpha=alpha, beta=beta)
        return out

    # -- SYRK / SYR2K --------------------------------------------------------
    def _lower_update(self, products, c: Optional[np.ndarray], alpha: float,
                      beta: float) -> np.ndarray:
        """``beta * C + alpha * sum(X @ Yᵀ for X, Y in products)`` on the
        stored (lower) triangle; the strict upper triangle of ``C`` comes
        back untouched.

        One GEMM per product per column panel, on the trapezoid at and
        below the diagonal — about 5/8 of a full GEMM's flops at four
        panels; later products accumulate through ``c=blk, beta=1.0``.
        """
        n = products[0][0].shape[0]
        out = np.zeros((n, n)) if c is None \
            else np.array(c, dtype=np.float64, order="C")
        for j0, j1 in self._panels(n):
            blk = None
            for x, y in products:
                blk = self.gemm(x[j0:], y[j0:j1].T, blk, alpha=alpha,
                                beta=1.0)
            dst = out[j0:, j0:j1]
            if c is not None and beta != 0.0:
                blk += beta * dst
            w = j1 - j0
            np.copyto(dst[:w], blk[:w], where=np.tri(w, dtype=bool))
            dst[w:] = blk[w:]
        return out

    def syrk(self, a: np.ndarray, c: Optional[np.ndarray] = None,
             alpha: float = 1.0, beta: float = 0.0) -> np.ndarray:
        """``C = alpha * A @ Aᵀ + beta * C``, lower triangle updated."""
        a = np.asarray(a, dtype=np.float64)
        return self._lower_update([(a, a)], c, alpha, beta)

    def syr2k(self, a: np.ndarray, b: np.ndarray,
              c: Optional[np.ndarray] = None, alpha: float = 1.0,
              beta: float = 0.0) -> np.ndarray:
        """``C = alpha*(A Bᵀ + B Aᵀ) + beta*C``, lower triangle updated."""
        a = np.asarray(a, dtype=np.float64)
        b = np.asarray(b, dtype=np.float64)
        return self._lower_update([(a, b), (b, a)], c, alpha, beta)

    # -- TRMM -----------------------------------------------------------------
    def trmm(self, l: np.ndarray, b: np.ndarray,
             alpha: float = 1.0) -> np.ndarray:
        """``B = alpha * L @ B`` (L lower triangular, left side).

        Row panel i of the result is ``tril(L_ii) @ B_i + L[i, :i] @ B[:i]``:
        both products are GEMM, the diagonal block a zero-filled copy.
        """
        l = np.asarray(l, dtype=np.float64)
        b = np.asarray(b, dtype=np.float64)
        out = np.empty(b.shape)
        for i0, i1 in self._panels(b.shape[0]):
            rows = self.gemm(np.tril(l[i0:i1, i0:i1]), b[i0:i1], alpha=alpha)
            if i0 > 0:
                rows = self.gemm(l[i0:i1, :i0], b[:i0], rows,
                                 alpha=alpha, beta=1.0)
            out[i0:i1] = rows
        return out

    # -- TRSM ---------------------------------------------------------------
    def trsm(self, l: np.ndarray, b: np.ndarray,
             alpha: float = 1.0) -> np.ndarray:
        """``B = alpha * L⁻¹ @ B`` — the paper's two-step decomposition:
        1) ``B_1 = L11⁻¹ B_1`` (straightforward substitution, not
        template-optimized — hence TRSM's deficit in Table 6);
        2) ``B_2 = B_2 - L21 @ B_1`` (GEMM).
        """
        l = np.asarray(l, dtype=np.float64)
        x = np.array(b, dtype=np.float64, order="C")
        if alpha != 1.0:
            x *= alpha
        # half panels: the naive-C solve costs O(m * width * ncols) at a
        # fraction of GEMM's rate
        for i0, i1 in self._panels(x.shape[0], max(1, self.panel // 2)):
            rows = x[i0:i1]  # contiguous: the C solve works in place
            if i0 > 0:
                # B_i -= L[i, :i] @ X[:i]
                rows[:] = self.gemm(l[i0:i1, :i0], x[:i0], rows,
                                    alpha=-1.0, beta=1.0)
            self._tri.trsm_diag(np.ascontiguousarray(l[i0:i1, i0:i1]), rows,
                                x.shape[1])
        return x
