"""Library adapters for the §5 evaluation.

Five "libraries" are compared, mirroring the paper's lineup under the
substitutions documented in DESIGN.md §3:

==============  =====================================================
paper           this reproduction
==============  =====================================================
AUGEM           AUGEM-generated kernels for the host arch (this repo)
Intel MKL /     numpy + scipy BLAS (OpenBLAS Haswell hand-tuned
AMD ACML        assembly — the vendor-quality comparator)
ATLAS 3.11.8    the same blocked algorithm in C, gcc -O3 -march=native
GotoBLAS 1.13   AUGEM kernels restricted to SSE2 (no AVX/FMA), which
                is precisely why GotoBLAS trails in Figs. 18-21
naive C -O2     an extra floor curve (not in the paper)
==============  =====================================================

Each adapter exposes the same routine surface; the figure/table drivers in
:mod:`repro.bench.figures` / :mod:`repro.bench.tables` sweep them.
"""

from __future__ import annotations

import os
import sys
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional

import numpy as np

# keep the vendor proxy single-threaded (the paper's per-core comparison;
# this container has one core anyway)
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
os.environ.setdefault("OMP_NUM_THREADS", "1")

from ..backend.baselines import BaselineLibrary, baseline_native, baseline_o2
from ..blas.api import AugemBLAS
from ..blas.level3 import Level3
from ..isa.arch import GENERIC_SSE, detect_host
from ..obs import event, span


class _CGemmAdapter:
    """Duck-typed GemmDriver built on a compiled-C baseline dgemm."""

    def __init__(self, lib: BaselineLibrary) -> None:
        self.lib = lib

    def __call__(self, a, b, c=None, alpha=1.0, beta=0.0):
        a = np.ascontiguousarray(a, dtype=np.float64)
        b = np.ascontiguousarray(b, dtype=np.float64)
        m, k = a.shape
        _, n = b.shape
        out = np.zeros((m, n)) if c is None else np.array(c, dtype=np.float64)
        if beta == 0.0:
            out[:] = 0.0
        elif beta != 1.0:
            out *= beta
        if alpha != 1.0:
            a = alpha * a
        self.lib.blocked_dgemm(a, b, out)
        return out


@dataclass
class Library:
    """One comparison library: a name plus routine callables."""

    name: str
    dgemm: Callable  # (a, b) -> c
    dgemv_t: Callable  # (a, x) -> y = A^T x
    daxpy: Callable  # (alpha, x, y) -> mutates y
    ddot: Callable  # (x, y) -> float
    dsymm: Optional[Callable] = None  # (a, b) -> c
    dsyrk: Optional[Callable] = None  # (a,) -> c
    dsyr2k: Optional[Callable] = None  # (a, b) -> c
    dtrmm: Optional[Callable] = None  # (l, b) -> b'
    dtrsm: Optional[Callable] = None  # (l, b) -> b'
    dger: Optional[Callable] = None  # (alpha, x, y, a) -> mutates a


def make_augem_library(arch=None, configs=None, name="AUGEM") -> Library:
    blas = AugemBLAS(arch=arch, configs=configs)
    return Library(
        name=name,
        dgemm=lambda a, b: blas.dgemm(a, b),
        dgemv_t=lambda a, x: blas.dgemv(a, x, trans=True),
        daxpy=lambda alpha, x, y: blas.daxpy(alpha, x, y),
        ddot=lambda x, y: blas.ddot(x, y),
        dsymm=lambda a, b: blas.dsymm(a, b),
        dsyrk=lambda a: blas.dsyrk(a),
        dsyr2k=lambda a, b: blas.dsyr2k(a, b),
        dtrmm=lambda l, b: blas.dtrmm(l, b),
        dtrsm=lambda l, b: blas.dtrsm(l, b),
        dger=lambda alpha, x, y, a: blas.dger(alpha, x, y, a),
    )


def make_goto_proxy_library() -> Library:
    """AUGEM restricted to SSE2 — the GotoBLAS (pre-AVX) stand-in."""
    return make_augem_library(arch=GENERIC_SSE, name="GotoBLAS-proxy(SSE2)")


def make_vendor_library() -> Library:
    """numpy + scipy BLAS — the MKL/ACML stand-in (OpenBLAS assembly)."""
    from scipy.linalg import blas as sblas

    def dger(alpha, x, y, a):
        a += alpha * np.outer(x, y)
        return a

    return Library(
        name="OpenBLAS(vendor-proxy)",
        dgemm=lambda a, b: a @ b,
        dgemv_t=lambda a, x: a.T @ x,
        daxpy=lambda alpha, x, y: sblas.daxpy(x, y, a=alpha),
        ddot=lambda x, y: sblas.ddot(x, y),
        dsymm=lambda a, b: sblas.dsymm(1.0, a, b, lower=1),
        dsyrk=lambda a: sblas.dsyrk(1.0, a, lower=1),
        dsyr2k=lambda a, b: sblas.dsyr2k(1.0, a, b, lower=1),
        dtrmm=lambda l, b: sblas.dtrmm(1.0, l, b, lower=1),
        dtrsm=lambda l, b: sblas.dtrsm(1.0, l, b, lower=1),
        dger=dger,
    )


def make_atlas_proxy_library() -> Library:
    """Blocked C + gcc -O3 -march=native — the ATLAS-methodology proxy."""
    lib = baseline_native()
    gemm = _CGemmAdapter(lib)
    # the paper's straightforward C substitution, compiled -O2
    level3 = Level3(gemm, baseline_o2())

    def daxpy(alpha, x, y):
        lib.daxpy(alpha, x, y)
        return y

    def dger(alpha, x, y, a):
        for i in range(a.shape[0]):
            lib.daxpy(alpha * float(x[i]), y, a[i])
        return a

    def dgemv_t(a, x):
        y = np.zeros(a.shape[1])
        lib.dgemv_t(a, x, y)
        return y

    return Library(
        name="ATLAS-proxy(C -O3)",
        dgemm=lambda a, b: gemm(a, b),
        dgemv_t=dgemv_t,
        daxpy=daxpy,
        ddot=lambda x, y: lib.ddot(x, y),
        dsymm=lambda a, b: level3.symm(a, b),
        dsyrk=lambda a: level3.syrk(a),
        dsyr2k=lambda a, b: level3.syr2k(a, b),
        dtrmm=lambda l, b: level3.trmm(l, b),
        dtrsm=lambda l, b: level3.trsm(l, b),
        dger=dger,
    )


def make_naive_library() -> Library:
    """Plain 3-loop C at -O2 — a floor curve (not in the paper)."""
    lib = baseline_o2()

    def dgemm(a, b):
        c = np.zeros((a.shape[0], b.shape[1]))
        lib.naive_dgemm(np.ascontiguousarray(a), np.ascontiguousarray(b), c)
        return c

    def dgemv_t(a, x):
        y = np.zeros(a.shape[1])
        lib.dgemv_t(a, x, y)
        return y

    def daxpy(alpha, x, y):
        lib.daxpy(alpha, x, y)
        return y

    return Library(
        name="naive C -O2",
        dgemm=dgemm,
        dgemv_t=dgemv_t,
        daxpy=daxpy,
        ddot=lambda x, y: lib.ddot(x, y),
    )


def standard_lineup(include_naive: bool = False,
                    configs: Optional[Dict] = None,
                    strict: bool = False) -> List[Library]:
    """The Fig. 18-21 / Table 6 library lineup.

    A library whose construction fails — no assembler on the host
    (:class:`~repro.backend.compiler.ToolchainUnavailable`), scipy absent
    for the vendor proxy, an injected toolchain fault — is *skipped with
    a warning* rather than aborting the whole evaluation, so one broken
    adapter costs one curve, not the run.  ``strict=True`` restores the
    fail-fast behavior for CI environments that require every curve.
    """
    from ..backend.compiler import ToolchainError

    makers = [
        ("AUGEM", lambda: make_augem_library(configs=configs)),
        ("OpenBLAS(vendor-proxy)", make_vendor_library),
        ("ATLAS-proxy(C -O3)", make_atlas_proxy_library),
        ("GotoBLAS-proxy(SSE2)", make_goto_proxy_library),
    ]
    if include_naive:
        makers.append(("naive C -O2", make_naive_library))
    libs: List[Library] = []
    for name, make in makers:
        try:
            with span("bench.build_library", library=name):
                libs.append(make())
        except (ToolchainError, ImportError, OSError) as exc:
            if strict:
                raise
            event("bench.library_skipped", library=name,
                  reason=f"{type(exc).__name__}: {exc}"[:200])
            print(f"[bench] skipping {name}: {type(exc).__name__}: {exc}",
                  file=sys.stderr)
    return libs
