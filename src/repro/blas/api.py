"""AugemBLAS — the user-facing library facade.

Generates, assembles and caches every kernel for one architecture, then
exposes the BLAS routines of the paper's evaluation:

>>> from repro import AugemBLAS
>>> blas = AugemBLAS()                 # host-detected arch
>>> c = blas.dgemm(a, b)               # alpha*A@B + beta*C
>>> y = blas.dgemv(a, x, trans=True)
>>> blas.daxpy(2.0, x, y); s = blas.ddot(x, y)
>>> c = blas.dsymm(a, b); c = blas.dsyrk(a); c = blas.dsyr2k(a, b)
>>> b2 = blas.dtrmm(l, b); b3 = blas.dtrsm(l, b); blas.dger(1.0, x, y, a)

Kernel generation happens lazily on first use of each routine; pass
``configs`` to override the default/tuned optimization configurations.

By default the facade is **hardened** (see :mod:`repro.blas.dispatch` and
docs/robustness.md): every routine is built down a verified capability
chain — the target ISA is confirmed by executing a probe kernel in the
fork-isolated sandbox, each built kernel passes a differential admission
check against :mod:`repro.blas.reference`, quarantined kernels are never
loaded, and a routine that cannot be served natively demotes tier by tier
until the pure-numpy reference serves it.  Arguments pass through a
BLAS-style validation layer (:mod:`repro.blas.guard`) that coerces
dtype/contiguity, short-circuits zero-dimension calls, copies aliased
in-place operands, and raises :class:`~repro.blas.guard.BlasArgumentError`
for input that must never reach assembly.  ``hardened=False`` restores
the direct trust-everything construction path.
"""

from __future__ import annotations

from typing import Dict, Optional

import numpy as np

from ..isa.arch import ArchSpec, detect_host
from ..obs import incr
from ..transforms.pipeline import OptimizationConfig
from .dispatch import DispatchChain, RoutineDispatch
from .gemm import BlockSizes, GemmDriver, make_gemm
from .gemv import GemvDriver, make_gemv
from .ger import GerDriver, make_ger
from .guard import ArgGuard, BlasArgumentError
from .integrity import IntegrityChecker, wrap_driver
from .level1 import AxpyDriver, DotDriver, ScalDriver, make_axpy, make_dot, make_scal
from .level3 import Level3
from .reference import ref_gemm, ref_gemv, ref_syr2k, ref_syrk


class AugemBLAS:
    """A BLAS built entirely from AUGEM-generated assembly kernels."""

    def __init__(self, arch: Optional[ArchSpec] = None,
                 configs: Optional[Dict[str, OptimizationConfig]] = None,
                 layout: str = "dup",
                 blocks: Optional[BlockSizes] = None,
                 schedule: bool = True,
                 hardened: bool = True,
                 nan_policy: str = "propagate",
                 isolation: Optional[str] = None,
                 threads: Optional[int] = None,
                 integrity=None) -> None:
        self.arch = arch or detect_host()
        self.configs = configs or {}
        self.layout = layout
        self.blocks = blocks
        self.schedule = schedule
        self.threads = threads
        self.guard = ArgGuard(nan_policy=nan_policy)
        # one checker for the whole facade: the sampling counter covers
        # the full call stream, and a quarantine rebuilds the affected
        # routine down the (now demoted) chain
        if isinstance(integrity, IntegrityChecker):
            self.integrity_checker = integrity
        else:
            self.integrity_checker = IntegrityChecker(mode=integrity)
        if self.integrity_checker.on_quarantine is None:
            self.integrity_checker.on_quarantine = self._on_quarantine
        self.chain: Optional[DispatchChain] = (
            DispatchChain(top=arch, isolation=isolation) if hardened
            else None)
        self._gemm: Optional[GemmDriver] = None
        self._gemv: Optional[GemvDriver] = None
        self._axpy: Optional[AxpyDriver] = None
        self._dot: Optional[DotDriver] = None
        self._scal: Optional[ScalDriver] = None
        self._level3: Optional[Level3] = None
        self._ger: Optional[GerDriver] = None
        self._dispatch: Dict[str, RoutineDispatch] = {}

    # -- dispatch plumbing -------------------------------------------------
    def _build(self, routine: str, family: str, builder, direct):
        """Build one routine's driver — down the chain when hardened."""
        if self.chain is None:
            driver = direct()
            self._dispatch[routine] = RoutineDispatch(family, self.arch.name)
            return driver
        driver, info = self.chain.build_routine(family, builder)
        self._dispatch[routine] = info
        return driver

    def _on_quarantine(self, family: str, verdict) -> None:
        """Drop cached drivers after an integrity quarantine.

        The tier is already demoted in the dispatch layer, so the next
        use of the routine rebuilds down the chain — self-healing
        without crashing the in-flight call (which already returned
        reference-recomputed bits).
        """
        incr("integrity.facade_rebuild")
        if family in ("gemm", "gemm_shuf"):
            self._gemm = None
            self._level3 = None
            self._dispatch.pop("gemm", None)
        elif family in ("gemv", "ger", "axpy", "dot", "scal"):
            setattr(self, f"_{family}", None)
            self._dispatch.pop(family, None)

    def _note_serve(self, routine: str) -> None:
        info = self._dispatch.get(routine)
        if info is not None and info.demoted:
            incr("dispatch.fallback_serve")

    def dispatch_report(self) -> Dict[str, RoutineDispatch]:
        """How each routine built so far is being served."""
        return dict(self._dispatch)

    # -- lazy kernel construction ------------------------------------------
    @property
    def gemm_driver(self) -> GemmDriver:
        if self._gemm is None:
            family = "gemm" if self.layout == "dup" else "gemm_shuf"
            self._gemm = self._build(
                "gemm", family,
                builder=lambda tier, loader: make_gemm(
                    arch=tier.arch, config=self.configs.get("gemm"),
                    layout=self.layout, blocks=self.blocks,
                    schedule=self.schedule, loader=loader,
                    threads=self.threads,
                    integrity=self.integrity_checker),
                direct=lambda: make_gemm(
                    arch=self.arch, config=self.configs.get("gemm"),
                    layout=self.layout, blocks=self.blocks,
                    schedule=self.schedule, threads=self.threads,
                    integrity=self.integrity_checker))
        return self._gemm

    @property
    def gemv_driver(self) -> GemvDriver:
        if self._gemv is None:
            self._gemv = self._build(
                "gemv", "gemv",
                builder=lambda tier, loader: make_gemv(
                    arch=tier.arch, config=self.configs.get("gemv"),
                    config_n=self.configs.get("gemv_n"),
                    schedule=self.schedule, loader=loader),
                direct=lambda: make_gemv(
                    arch=self.arch, config=self.configs.get("gemv"),
                    config_n=self.configs.get("gemv_n"),
                    schedule=self.schedule))
            self._gemv = wrap_driver("gemv", self._gemv,
                                     self.integrity_checker)
        return self._gemv

    @property
    def axpy_driver(self) -> AxpyDriver:
        if self._axpy is None:
            self._axpy = self._build(
                "axpy", "axpy",
                builder=lambda tier, loader: make_axpy(
                    arch=tier.arch, config=self.configs.get("axpy"),
                    schedule=self.schedule, loader=loader),
                direct=lambda: make_axpy(
                    arch=self.arch, config=self.configs.get("axpy"),
                    schedule=self.schedule))
            self._axpy = wrap_driver("axpy", self._axpy,
                                     self.integrity_checker)
        return self._axpy

    @property
    def dot_driver(self) -> DotDriver:
        if self._dot is None:
            self._dot = self._build(
                "dot", "dot",
                builder=lambda tier, loader: make_dot(
                    arch=tier.arch, config=self.configs.get("dot"),
                    schedule=self.schedule, loader=loader),
                direct=lambda: make_dot(
                    arch=self.arch, config=self.configs.get("dot"),
                    schedule=self.schedule))
            self._dot = wrap_driver("dot", self._dot,
                                    self.integrity_checker)
        return self._dot

    @property
    def scal_driver(self) -> ScalDriver:
        if self._scal is None:
            self._scal = self._build(
                "scal", "scal",
                builder=lambda tier, loader: make_scal(
                    arch=tier.arch, config=self.configs.get("scal"),
                    schedule=self.schedule, loader=loader),
                direct=lambda: make_scal(
                    arch=self.arch, config=self.configs.get("scal"),
                    schedule=self.schedule))
            self._scal = wrap_driver("scal", self._scal,
                                     self.integrity_checker)
        return self._scal

    @property
    def level3(self) -> Level3:
        if self._level3 is None:
            self._level3 = Level3(self.gemm_driver)
        return self._level3

    @property
    def ger_driver(self) -> GerDriver:
        if self._ger is None:
            self._ger = self._build(
                "ger", "ger",
                builder=lambda tier, loader: make_ger(
                    arch=tier.arch, config=self.configs.get("ger"),
                    schedule=self.schedule, loader=loader),
                direct=lambda: make_ger(
                    arch=self.arch, config=self.configs.get("ger"),
                    schedule=self.schedule))
            self._ger = wrap_driver("ger", self._ger,
                                    self.integrity_checker)
        return self._ger

    # -- BLAS entry points -----------------------------------------------
    def dgemm(self, a, b, c=None, alpha: float = 1.0,
              beta: float = 0.0) -> np.ndarray:
        g = self.guard
        alpha = g.scalar("dgemm", "alpha", alpha)
        beta = g.scalar("dgemm", "beta", beta)
        a = g.matrix("dgemm", "a", a)
        b = g.matrix("dgemm", "b", b)
        if a.shape[1] != b.shape[0]:
            g.reject("dgemm", "b", f"inner dimensions differ: "
                                   f"A is {a.shape}, B is {b.shape}",
                     value=b)
        m, n = a.shape[0], b.shape[1]
        if c is not None:
            c = g.matrix("dgemm", "c", c, shape=(m, n))
        if m == 0 or n == 0 or a.shape[1] == 0:
            g.note_zero_dim()
            return np.zeros((m, n)) + ref_gemm(a, b, c, alpha, beta)
        driver = self.gemm_driver
        self._note_serve("gemm")
        return driver(a, b, c, alpha=alpha, beta=beta)

    def dgemv(self, a, x, y=None, alpha: float = 1.0, beta: float = 0.0,
              trans: bool = False) -> np.ndarray:
        g = self.guard
        alpha = g.scalar("dgemv", "alpha", alpha)
        beta = g.scalar("dgemv", "beta", beta)
        a = g.matrix("dgemv", "a", a)
        m, n = a.shape
        in_len, out_len = (m, n) if trans else (n, m)
        x = g.vector("dgemv", "x", x, length=in_len)
        if y is not None:
            y = g.vector("dgemv", "y", y, length=out_len)
        if in_len == 0 or out_len == 0:
            g.note_zero_dim()
            return np.zeros(out_len) + ref_gemv(a, x, y, alpha, beta, trans)
        driver = self.gemv_driver
        self._note_serve("gemv")
        return driver(a, x, y, alpha=alpha, beta=beta, trans=trans)

    def daxpy(self, alpha: float, x, y) -> np.ndarray:
        g = self.guard
        alpha = g.scalar("daxpy", "alpha", alpha)
        y = g.inplace_vector("daxpy", "y", y)
        x = g.vector("daxpy", "x", x, length=y.shape[0])
        x = g.unalias("daxpy", out=y, read=x)
        if y.shape[0] == 0:
            g.note_zero_dim()
            return y
        driver = self.axpy_driver
        self._note_serve("axpy")
        return driver(alpha, x, y)

    def ddot(self, x, y) -> float:
        g = self.guard
        x = g.vector("ddot", "x", x)
        y = g.vector("ddot", "y", y, length=x.shape[0])
        if x.shape[0] == 0:
            g.note_zero_dim()
            return 0.0
        driver = self.dot_driver
        self._note_serve("dot")
        return driver(x, y)

    def dscal(self, alpha: float, x) -> np.ndarray:
        g = self.guard
        alpha = g.scalar("dscal", "alpha", alpha)
        x = g.inplace_vector("dscal", "x", x)
        if x.shape[0] == 0:
            g.note_zero_dim()
            return x
        driver = self.scal_driver
        self._note_serve("scal")
        return driver(alpha, x)

    def dsymm(self, a, b, c=None, alpha: float = 1.0,
              beta: float = 0.0) -> np.ndarray:
        g = self.guard
        alpha = g.scalar("dsymm", "alpha", alpha)
        beta = g.scalar("dsymm", "beta", beta)
        a = g.matrix("dsymm", "a", a)
        if a.shape[0] != a.shape[1]:
            g.reject("dsymm", "a", f"must be square, got {a.shape}", value=a)
        b = g.matrix("dsymm", "b", b)
        if b.shape[0] != a.shape[0]:
            g.reject("dsymm", "b", f"row count {b.shape[0]} does not "
                                   f"match A ({a.shape[0]})", value=b)
        n, k = b.shape
        if c is not None:
            c = g.matrix("dsymm", "c", c, shape=(n, k))
        if n == 0 or k == 0:
            g.note_zero_dim()
            return np.zeros((n, k))
        level3 = self.level3
        self._note_serve("gemm")
        return level3.symm(a, b, c, alpha=alpha, beta=beta)

    def dsyrk(self, a, c=None, alpha: float = 1.0,
              beta: float = 0.0) -> np.ndarray:
        g = self.guard
        alpha = g.scalar("dsyrk", "alpha", alpha)
        beta = g.scalar("dsyrk", "beta", beta)
        a = g.matrix("dsyrk", "a", a)
        n, k = a.shape
        if c is not None:
            c = g.matrix("dsyrk", "c", c, shape=(n, n))
        if n == 0 or k == 0:
            g.note_zero_dim()
            return np.zeros((n, n)) + ref_syrk(a, c, alpha, beta)
        level3 = self.level3
        self._note_serve("gemm")
        return level3.syrk(a, c, alpha=alpha, beta=beta)

    def dsyr2k(self, a, b, c=None, alpha: float = 1.0,
               beta: float = 0.0) -> np.ndarray:
        g = self.guard
        alpha = g.scalar("dsyr2k", "alpha", alpha)
        beta = g.scalar("dsyr2k", "beta", beta)
        a = g.matrix("dsyr2k", "a", a)
        b = g.matrix("dsyr2k", "b", b, shape=a.shape)
        n, k = a.shape
        if c is not None:
            c = g.matrix("dsyr2k", "c", c, shape=(n, n))
        if n == 0 or k == 0:
            g.note_zero_dim()
            return np.zeros((n, n)) + ref_syr2k(a, b, c, alpha, beta)
        level3 = self.level3
        self._note_serve("gemm")
        return level3.syr2k(a, b, c, alpha=alpha, beta=beta)

    def dtrmm(self, l, b, alpha: float = 1.0) -> np.ndarray:
        g = self.guard
        alpha = g.scalar("dtrmm", "alpha", alpha)
        l = g.matrix("dtrmm", "l", l)
        if l.shape[0] != l.shape[1]:
            g.reject("dtrmm", "l", f"must be square, got {l.shape}", value=l)
        b = g.matrix("dtrmm", "b", b)
        if b.shape[0] != l.shape[0]:
            g.reject("dtrmm", "b", f"row count {b.shape[0]} does not "
                                   f"match L ({l.shape[0]})", value=b)
        if b.shape[0] == 0 or b.shape[1] == 0:
            g.note_zero_dim()
            return np.zeros(b.shape)
        level3 = self.level3
        self._note_serve("gemm")
        return level3.trmm(l, b, alpha=alpha)

    def dtrsm(self, l, b, alpha: float = 1.0) -> np.ndarray:
        g = self.guard
        alpha = g.scalar("dtrsm", "alpha", alpha)
        l = g.matrix("dtrsm", "l", l)
        if l.shape[0] != l.shape[1]:
            g.reject("dtrsm", "l", f"must be square, got {l.shape}", value=l)
        b = g.matrix("dtrsm", "b", b)
        if b.shape[0] != l.shape[0]:
            g.reject("dtrsm", "b", f"row count {b.shape[0]} does not "
                                   f"match L ({l.shape[0]})", value=b)
        if b.shape[0] == 0 or b.shape[1] == 0:
            g.note_zero_dim()
            return np.zeros(b.shape)
        level3 = self.level3
        self._note_serve("gemm")
        return level3.trsm(l, b, alpha=alpha)

    def dger(self, alpha: float, x, y, a) -> np.ndarray:
        g = self.guard
        alpha = g.scalar("dger", "alpha", alpha)
        a = g.inplace_matrix("dger", "a", a)
        m, n = a.shape
        x = g.vector("dger", "x", x, length=m)
        y = g.vector("dger", "y", y, length=n)
        x = g.unalias("dger", out=a, read=x)
        y = g.unalias("dger", out=a, read=y)
        if m == 0 or n == 0:
            g.note_zero_dim()
            return a
        driver = self.ger_driver
        self._note_serve("ger")
        return driver(alpha, x, y, a)


_default: Optional[AugemBLAS] = None


def default_blas() -> AugemBLAS:
    """Process-wide AugemBLAS for the host architecture."""
    global _default
    if _default is None:
        _default = AugemBLAS()
    return _default
