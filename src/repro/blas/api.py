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
from .gemm import BlockSizes
from .guard import ArgGuard
from .integrity import IntegrityChecker, wrap_driver
from .level3 import Level3
from .reference import ref_gemm, ref_gemv, ref_syr2k, ref_syrk
from .routines import FAMILIES, ROUTINES, Routine


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
        self._drivers: Dict[str, object] = {}
        self._level3: Optional[Level3] = None
        self._dispatch: Dict[str, RoutineDispatch] = {}

    # -- dispatch plumbing -------------------------------------------------
    def driver(self, name: str):
        """The driver for routine ``name`` (a row of
        :data:`~repro.blas.routines.ROUTINES`), built on first use."""
        driver = self._drivers.get(name)
        if driver is None:
            driver = self._drivers[name] = self._build(ROUTINES[name])
        return driver

    def _build(self, row: Routine):
        """Build one routine's driver — down the chain when hardened."""
        family = row.build_family(self.layout)
        settings = {"layout": self.layout, "blocks": self.blocks,
                    "threads": self.threads,
                    "integrity": self.integrity_checker,
                    "config_n": self.configs.get("gemv_n")}
        kwargs = {name: settings[name] for name in row.options}

        def build(arch, loader=None):
            return row.make(arch=arch, config=self.configs.get(row.name),
                            schedule=self.schedule, loader=loader, **kwargs)

        if self.chain is None:
            driver = build(self.arch)
            self._dispatch[row.name] = RoutineDispatch(family,
                                                       self.arch.name)
        else:
            driver, self._dispatch[row.name] = self.chain.build_routine(
                family, lambda tier, loader: build(tier.arch, loader))
        return wrap_driver(family, driver, self.integrity_checker)

    def _on_quarantine(self, family: str, verdict) -> None:
        """Drop cached drivers after an integrity quarantine.

        The tier is already demoted in the dispatch layer, so the next
        use of the routine rebuilds down the chain — self-healing
        without crashing the in-flight call (which already returned
        reference-recomputed bits).
        """
        incr("integrity.facade_rebuild")
        row = FAMILIES.get(family)
        if row is None:
            return
        self._drivers.pop(row.name, None)
        self._dispatch.pop(row.name, None)
        if row.name == "gemm":
            self._level3 = None

    def _note_serve(self, routine: str) -> None:
        info = self._dispatch.get(routine)
        if info is not None and info.demoted:
            incr("dispatch.fallback_serve")

    def dispatch_report(self) -> Dict[str, RoutineDispatch]:
        """How each routine built so far is being served."""
        return dict(self._dispatch)

    @property
    def level3(self) -> Level3:
        if self._level3 is None:
            self._level3 = Level3(self.driver("gemm"))
        return self._level3

    # -- BLAS entry points -----------------------------------------------
    def dgemm(self, a, b, c=None, alpha: float = 1.0,
              beta: float = 0.0) -> np.ndarray:
        g = self.guard
        alpha = g.scalar("dgemm", "alpha", alpha)
        beta = g.scalar("dgemm", "beta", beta)
        # the GEMM driver reads operands through their strides
        a = g.matrix("dgemm", "a", a, contiguous=False)
        b = g.matrix("dgemm", "b", b, contiguous=False)
        if a.shape[1] != b.shape[0]:
            g.reject("dgemm", "b", f"inner dimensions differ: "
                                   f"A is {a.shape}, B is {b.shape}",
                     value=b)
        m, n = a.shape[0], b.shape[1]
        if c is not None:
            c = g.matrix("dgemm", "c", c, shape=(m, n), contiguous=False)
        if m == 0 or n == 0 or a.shape[1] == 0:
            g.note_zero_dim()
            return np.zeros((m, n)) + ref_gemm(a, b, c, alpha, beta)
        driver = self.driver("gemm")
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
        driver = self.driver("gemv")
        self._note_serve("gemv")
        return driver(a, x, y, alpha, beta, trans)

    def daxpy(self, alpha: float, x, y) -> np.ndarray:
        g = self.guard
        alpha = g.scalar("daxpy", "alpha", alpha)
        y = g.inplace_vector("daxpy", "y", y)
        x = g.vector("daxpy", "x", x, length=y.shape[0])
        x = g.unalias("daxpy", out=y, read=x)
        if y.shape[0] == 0:
            g.note_zero_dim()
            return y
        driver = self.driver("axpy")
        self._note_serve("axpy")
        return driver(alpha, x, y)

    def ddot(self, x, y) -> float:
        g = self.guard
        x = g.vector("ddot", "x", x)
        y = g.vector("ddot", "y", y, length=x.shape[0])
        if x.shape[0] == 0:
            g.note_zero_dim()
            return 0.0
        driver = self.driver("dot")
        self._note_serve("dot")
        return driver(x, y)

    def dscal(self, alpha: float, x) -> np.ndarray:
        g = self.guard
        alpha = g.scalar("dscal", "alpha", alpha)
        x = g.inplace_vector("dscal", "x", x)
        if x.shape[0] == 0:
            g.note_zero_dim()
            return x
        driver = self.driver("scal")
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
        driver = self.driver("ger")
        self._note_serve("ger")
        return driver(alpha, x, y, a)


# ``blas.gemm_driver`` ... ``blas.scal_driver``: one property per row
for _name in ROUTINES:
    setattr(AugemBLAS, f"{_name}_driver",
            property(lambda self, _name=_name: self.driver(_name)))
del _name

_default: Optional[AugemBLAS] = None


def default_blas() -> AugemBLAS:
    """Process-wide AugemBLAS for the host architecture."""
    global _default
    if _default is None:
        _default = AugemBLAS()
    return _default
