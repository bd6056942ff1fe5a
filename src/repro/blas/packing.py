"""Panel layouts of the blocked GEMM driver (Goto's GEBP decomposition).

These numpy packers are the layout specification.  The driver itself
packs natively, inside the C loop of :mod:`repro.blas.gebp`; the tests
check every panel that loop builds against these functions, bit for bit.

The generated micro-kernel (paper Fig. 12) indexes *packed* panels:

- ``A[l*Mc + i]`` — the A block transposed so each l-slice holds Mc
  contiguous elements (i fastest);
- ``B[j*Kc + l]`` — the "dup" layout: one contiguous Kc column per j;
- ``B[l*Nc + j]`` — the "shuf" layout: one contiguous Nc row per l.

All packers accept arbitrary (even non-contiguous) float64 2-D inputs and
zero-pad to the requested panel dimensions, so the remainder-free
micro-kernel can run over every edge block.

The native loop splits every edge block at its last whole kernel step
(``mu`` rows of A, ``nu`` columns of B): :func:`pack_a_block` and
:func:`pack_b_panel` give the whole part as one panel whose leading
dimension is its own extent, followed by the ragged rest zero-padded to
one step as a panel of its own.  Each part is what one kernel call
reads.  For the dup layout that is :func:`pack_b_dup` at the padded
width; for A and the shuf layout the rest moves out of the whole part's
rows.

Every packer takes an optional ``out`` — a flat float64 buffer of exactly
the panel's element count (typically lent by
:class:`~repro.blas.threading.PackBufferPool`) — and writes in place
without allocating; padding regions are re-zeroed explicitly, so a dirty
reused buffer is safe.  ``pack_a`` additionally folds ``alpha`` into the
panel (``np.multiply`` straight into the destination view), which is how
``alpha * A @ B`` is applied without a scaled copy of the A block.
"""

from __future__ import annotations

from typing import Optional

import numpy as np


def _panel(out: Optional[np.ndarray], rows: int, cols: int) -> np.ndarray:
    """A (rows, cols) float64 view over ``out`` (or a fresh zero panel)."""
    if out is None:
        return np.zeros((rows, cols))
    if out.dtype != np.float64 or out.size != rows * cols:
        raise ValueError(
            f"out buffer has {out.size} x {out.dtype} elements; panel "
            f"needs {rows * cols} x float64")
    return out.reshape(rows, cols)


def pack_a(block: np.ndarray, mc: int, kc: int,
           out: Optional[np.ndarray] = None,
           alpha: float = 1.0) -> np.ndarray:
    """Pack an A block (rows x k) into ``A[l*mc + i]``, zero-padded,
    with ``alpha`` folded in."""
    rows, k = block.shape
    if rows > mc or k > kc:
        raise ValueError(f"block {block.shape} exceeds panel ({mc}, {kc})")
    panel = _panel(out, kc, mc)
    if out is not None:
        panel[k:, :] = 0.0
        panel[:k, rows:] = 0.0
    if alpha == 1.0:
        panel[:k, :rows] = block.T
    else:
        np.multiply(block.T, alpha, out=panel[:k, :rows])
    return panel.ravel() if out is None else out


def pack_b_dup(block: np.ndarray, kc: int, nc: int,
               out: Optional[np.ndarray] = None) -> np.ndarray:
    """Pack a B block (k x cols) into ``B[j*kc + l]`` (column-per-j)."""
    k, cols = block.shape
    if k > kc or cols > nc:
        raise ValueError(f"block {block.shape} exceeds panel ({kc}, {nc})")
    panel = _panel(out, nc, kc)
    if out is not None:
        panel[cols:, :] = 0.0
        panel[:cols, k:] = 0.0
    panel[:cols, :k] = block.T
    return panel.ravel() if out is None else out


def pack_b_shuf(block: np.ndarray, kc: int, nc: int,
                out: Optional[np.ndarray] = None) -> np.ndarray:
    """Pack a B block (k x cols) into ``B[l*nc + j]`` (row-per-l)."""
    k, cols = block.shape
    if k > kc or cols > nc:
        raise ValueError(f"block {block.shape} exceeds panel ({kc}, {nc})")
    panel = _panel(out, kc, nc)
    if out is not None:
        panel[k:, :] = 0.0
        panel[:k, cols:] = 0.0
    panel[:k, :cols] = block
    return panel.ravel() if out is None else out


def _whole_then_rest(pack, block: np.ndarray, axis: int,
                     mult: int) -> np.ndarray:
    """``pack(part, width)`` of the whole ``mult``-groups of ``block``
    along ``axis``, then of the ragged rest padded to ``mult``, end to
    end."""
    extent = block.shape[axis]
    whole = extent - extent % mult
    head, rest = np.split(block, [whole], axis=axis)
    parts = [pack(head, whole)]
    if whole < extent:
        parts.append(pack(rest, mult))
    return np.concatenate(parts)


def pack_a_block(block: np.ndarray, kc: int, mu: int,
                 alpha: float = 1.0) -> np.ndarray:
    """An A block (rows x k) as the native loop packs it: the rows of
    whole ``mu``-groups as ``pack_a`` of their count, then the ragged rows
    as ``pack_a`` padded to ``mu``, starting at ``whole * kc``."""
    return _whole_then_rest(
        lambda part, width: pack_a(part, width, kc, alpha=alpha),
        block, 0, mu)


def pack_b_panel(block: np.ndarray, kc: int, nu: int,
                 layout: str = "dup") -> np.ndarray:
    """A B block (k x cols) as the native loop packs it for ``layout``:
    the columns of whole ``nu``-groups as one panel of their width, then
    the ragged columns padded to ``nu``, starting at ``whole * kc``."""
    pack = pack_b_dup if layout == "dup" else pack_b_shuf
    return _whole_then_rest(lambda part, width: pack(part, kc, width),
                            block, 1, nu)


def unpack_a(packed: np.ndarray, mc: int, kc: int) -> np.ndarray:
    """Inverse of :func:`pack_a` (testing helper): returns (mc, kc)."""
    return packed.reshape(kc, mc).T.copy()


def unpack_b_dup(packed: np.ndarray, kc: int, nc: int) -> np.ndarray:
    """Inverse of :func:`pack_b_dup`: returns (kc, nc)."""
    return packed.reshape(nc, kc).T.copy()


def unpack_b_shuf(packed: np.ndarray, kc: int, nc: int) -> np.ndarray:
    """Inverse of :func:`pack_b_shuf`: returns (kc, nc)."""
    return packed.reshape(kc, nc).copy()
