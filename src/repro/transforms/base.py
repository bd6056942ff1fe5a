"""Shared infrastructure for the source-to-source transformations.

The five transformations of the paper's *Optimized C Kernel Generator*
(§2.1) all operate on canonical counted loops.  This module provides loop
normalization/introspection helpers and the :class:`Transform` base class.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from ..poet import cast as C
from ..poet.errors import TransformError
from ..poet.traversal import declarations


@dataclass
class LoopInfo:
    """A canonical counted loop ``for (v = L; v < U; v += S)``."""

    loop: C.For
    var: str
    lower: C.Node  # expression L
    upper: C.Node  # expression U
    step: int  # constant S > 0

    @property
    def body(self) -> C.Block:
        return self.loop.body


def loop_info(loop: C.For) -> LoopInfo:
    """Extract canonical-form info or raise :class:`TransformError`.

    Accepted shapes: init ``v = L`` (assignment) or ``long v = L`` (decl) or
    absent (``v`` initialized before the loop is *not* canonical; the
    transforms require an explicit lower bound); cond ``v < U`` or
    ``v <= U-1``; step ``v += S`` with integer-literal S.
    """
    init = loop.init
    if isinstance(init, C.Assign) and init.op == "=" and isinstance(init.lhs, C.Id):
        var = init.lhs.name
        lower = init.rhs
    elif isinstance(init, C.Decl) and init.init is not None:
        var = init.name
        lower = init.init
    else:
        raise TransformError("loop init is not canonical (need v = L)")

    cond = loop.cond
    if (
        isinstance(cond, C.BinOp)
        and cond.op in ("<", "<=")
        and isinstance(cond.left, C.Id)
        and cond.left.name == var
    ):
        upper = cond.right if cond.op == "<" else C.add(cond.right, C.IntLit(1))
    else:
        raise TransformError(f"loop condition is not canonical (need {var} < U)")

    step_stmt = loop.step
    if (
        isinstance(step_stmt, C.Assign)
        and step_stmt.op == "+="
        and isinstance(step_stmt.lhs, C.Id)
        and step_stmt.lhs.name == var
        and isinstance(step_stmt.rhs, C.IntLit)
        and step_stmt.rhs.value > 0
    ):
        step = step_stmt.rhs.value
    else:
        raise TransformError(f"loop step is not canonical (need {var} += S)")

    return LoopInfo(loop, var, lower, upper, step)


def find_loop(root: C.Node, var: str) -> Optional[C.For]:
    """Find the (first, outermost) for-loop whose induction variable is ``var``."""
    for n in root.walk():
        if isinstance(n, C.For):
            try:
                info = loop_info(n)
            except TransformError:
                continue
            if info.var == var:
                return n
    return None


def require_loop(root: C.Node, var: str) -> LoopInfo:
    loop = find_loop(root, var)
    if loop is None:
        raise TransformError(f"no canonical loop over {var!r} found")
    return loop_info(loop)


def declared_names(stmts) -> list:
    """Names declared by top-level or nested Decl statements in ``stmts``."""
    return [d.name for s in stmts for d in declarations(s)]


class Transform:
    """Base class: a named, parameterized source-to-source transformation."""

    name = "transform"
    #: ``apply`` takes the function's symbol table as a second argument
    #: (built from ``fn`` when omitted) and declares what it adds in it
    reads_symtab = False

    def apply(self, fn: C.FuncDef) -> C.FuncDef:  # pragma: no cover - interface
        raise NotImplementedError

    def __call__(self, fn: C.FuncDef) -> C.FuncDef:
        return self.apply(fn)

    def __repr__(self) -> str:
        args = ", ".join(
            f"{k}={v!r}" for k, v in vars(self).items() if not k.startswith("_")
        )
        return f"{type(self).__name__}({args})"


class FreshNames:
    """Generator of unique variable names with a shared counter per prefix."""

    def __init__(self) -> None:
        self._counters: dict = {}

    def fresh(self, prefix: str) -> str:
        i = self._counters.get(prefix, 0)
        self._counters[prefix] = i + 1
        return f"{prefix}{i}"
