"""The routine table: one row per servable BLAS routine.

Every per-routine fact the runtime needs is declared here once, and the
per-routine plumbing is derived from the row:

- the facade (:class:`~repro.blas.api.AugemBLAS`) builds a routine's
  driver with the row's ``make`` builder, down the dispatch chain under
  the row's kernel ``families``;
- the dispatch chain installs the row's ``reference`` driver as the
  terminal tier (:mod:`repro.blas.dispatch`);
- Level-1/2 integrity (:class:`~repro.blas.integrity.IntegrityDriver`)
  checks the row's sum ``identity``, restores its in-place operand before
  a retry, and strikes the kernel the call ran (:meth:`Routine.kernel_ran`);
- the serve contract (:mod:`repro.serve.protocol`): the client proxy and
  the worker bind a driver call by ``params`` and return ``output``.

Adding a routine is one simple-C source in :mod:`repro.blas.kernels`, its
driver, and one row here (plus its argument-checked ``AugemBLAS`` entry
point).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, Optional, Tuple

import numpy as np

from . import reference as ref
from .gemm import make_gemm
from .gemv import make_gemv
from .ger import make_ger
from .level1 import make_axpy, make_dot, make_scal

Shape = Tuple[int, ...]

#: values of the non-operand parameters a driver call may omit
DEFAULTS = {"alpha": 1.0, "beta": 0.0, "trans": False}


@dataclass(frozen=True)
class Routine:
    """One servable routine.

    ``params`` is the driver's positional call order.  A parameter is an
    operand array unless it is listed in ``optional`` (an operand that
    may be ``None``), ``scalars`` (a float) or ``flags`` (a bool).
    ``output`` is ``"new"`` (a fresh array of ``shape(shapes, flags)``),
    ``"scalar"``, or the name of the operand mutated in place.
    """

    name: str
    #: kernel families a build admits and reports (one per packed-B
    #: layout: GEMM's ``shuf`` layout builds under its second)
    families: Tuple[str, ...]
    #: ``make_*(arch=, config=, schedule=, loader=, **options)``
    make: Callable
    reference: Callable
    params: Tuple[str, ...]
    optional: Tuple[str, ...] = ()
    scalars: Tuple[str, ...] = ()
    flags: Tuple[str, ...] = ()
    output: str = "new"
    shape: Optional[Callable[[Dict[str, Shape], Dict[str, bool]],
                             Shape]] = None
    #: facade settings the builder takes besides config/schedule/loader
    options: Tuple[str, ...] = ()
    #: kernel families the driver loads besides its build family
    loads: Tuple[str, ...] = ()
    #: ``identity(**call) -> (expected, magnitude, n_terms)`` for the
    #: element sum of the result; None: the driver verifies itself
    identity: Optional[Callable[..., Tuple[float, float, int]]] = None
    #: ``ran(driver, call) -> (family, kernel)`` for a driver that loads
    #: more than one kernel; None: the driver's one ``kernel``
    ran: Optional[Callable[..., Tuple[str, Any]]] = None
    #: whether ``python -m repro tune`` searches this routine's kernel
    tuned: bool = True

    @property
    def arrays(self) -> Tuple[str, ...]:
        """Required operand names, in call order."""
        other = self.optional + self.scalars + self.flags
        return tuple(p for p in self.params if p not in other)

    @property
    def inplace(self) -> Optional[str]:
        """The operand the routine mutates (None for new/scalar output)."""
        return self.output if self.output in self.params else None

    def kernel_ran(self, driver, call: Dict[str, Any]) -> Tuple[str, Any]:
        """The family and kernel one driver call ran (the one to strike)."""
        if self.ran is not None:
            return self.ran(driver, call)
        return self.families[0], getattr(driver, "kernel", None)

    def build_family(self, layout: str = "dup") -> str:
        return self.families[0 if layout == "dup" else -1]

    def result_shape(self, shapes: Dict[str, Shape],
                     flags: Dict[str, bool]) -> Shape:
        if self.shape is None:
            raise ValueError(f"{self.name} returns no new array")
        return self.shape(shapes, flags)

    def bind(self, args: tuple, kwargs: Dict[str, Any]) -> Dict[str, Any]:
        """Every parameter of one driver call, by name."""
        if len(args) > len(self.params):
            raise TypeError(f"{self.name} takes {len(self.params)} "
                            f"arguments, got {len(args)}")
        call = dict(zip(self.params, args))
        for name, value in kwargs.items():
            if name not in self.params or name in call:
                raise TypeError(f"{self.name}: bad argument {name!r}")
            call[name] = value
        for name in self.params:
            if name not in call:
                if name not in self.optional and name not in DEFAULTS:
                    raise TypeError(f"{self.name}: missing {name!r}")
                call[name] = DEFAULTS.get(name)
        return call


# -- Level-1/2 sum identities ---------------------------------------------

def _f64(*arrays):
    return [np.asarray(v, dtype=np.float64) for v in arrays]


def _gemv_identity(a, x, y=None, alpha=1.0, beta=0.0, trans=False):
    a, x = _f64(a, x)
    op = a.T if trans else a
    expected = alpha * float(op.sum(axis=0) @ x)
    magnitude = abs(alpha) * float(np.abs(op).sum(axis=0) @ np.abs(x))
    if y is not None and beta != 0.0:
        (y,) = _f64(y)
        expected += beta * float(y.sum())
        magnitude += abs(beta) * float(np.abs(y).sum())
    return expected, magnitude, op.shape[0] + op.shape[1]


def _gemv_ran(driver, call):
    """GemvDriver's branch: the dot-form ``gemv_n`` for a non-transposed
    C-contiguous A, else the ``gemv`` column sweep."""
    kernel_n = getattr(driver, "kernel_n", None)
    if (not call["trans"] and kernel_n is not None
            and np.asarray(call["a"], dtype=np.float64).flags.c_contiguous):
        return "gemv_n", kernel_n
    return "gemv", getattr(driver, "kernel_t", None)


def _ger_identity(alpha, x, y, a):
    """``sum(A') = sum(A) + alpha * sum(x) * sum(y)``."""
    x, y, a = _f64(x, y, a)
    expected = float(a.sum()) + alpha * float(x.sum()) * float(y.sum())
    magnitude = float(np.abs(a).sum()) \
        + abs(alpha) * float(np.abs(x).sum()) * float(np.abs(y).sum())
    return expected, magnitude, a.size + x.size + y.size


def _axpy_identity(alpha, x, y):
    x, y = _f64(x, y)
    expected = float(y.sum()) + alpha * float(x.sum())
    magnitude = float(np.abs(y).sum()) + abs(alpha) * float(np.abs(x).sum())
    return expected, magnitude, 2 * x.size


def _dot_identity(x, y):
    """The result is its own sum: compare against the reference."""
    x, y = _f64(x, y)
    return float(x @ y), float(np.abs(x) @ np.abs(y)), x.size


def _scal_identity(alpha, x):
    (x,) = _f64(x)
    return alpha * float(x.sum()), abs(alpha) * float(np.abs(x).sum()), \
        x.size


ROUTINES: Dict[str, Routine] = {row.name: row for row in (
    Routine("gemm", ("gemm", "gemm_shuf"), make_gemm,
            ref.ReferenceGemmDriver,
            params=("a", "b", "c", "alpha", "beta"), optional=("c",),
            scalars=("alpha", "beta"),
            shape=lambda s, f: (s["a"][0], s["b"][1]),
            options=("layout", "blocks", "threads", "integrity")),
    Routine("gemv", ("gemv",), make_gemv, ref.ReferenceGemvDriver,
            params=("a", "x", "y", "alpha", "beta", "trans"),
            optional=("y",), scalars=("alpha", "beta"), flags=("trans",),
            shape=lambda s, f: ((s["a"][1],) if f.get("trans")
                                else (s["a"][0],)),
            options=("config_n",), loads=("gemv_n",),
            identity=_gemv_identity, ran=_gemv_ran),
    Routine("ger", ("ger",), make_ger, ref.ReferenceGerDriver,
            params=("alpha", "x", "y", "a"), scalars=("alpha",),
            output="a", identity=_ger_identity),
    Routine("axpy", ("axpy",), make_axpy, ref.ReferenceAxpyDriver,
            params=("alpha", "x", "y"), scalars=("alpha",), output="y",
            identity=_axpy_identity),
    Routine("dot", ("dot",), make_dot, ref.ReferenceDotDriver,
            params=("x", "y"), output="scalar", identity=_dot_identity),
    Routine("scal", ("scal",), make_scal, ref.ReferenceScalDriver,
            params=("alpha", "x"), scalars=("alpha",), output="x",
            identity=_scal_identity, tuned=False),
)}

#: every kernel family -> the row whose driver loads it
FAMILIES: Dict[str, Routine] = {
    family: row for row in ROUTINES.values()
    for family in row.families + row.loads}
