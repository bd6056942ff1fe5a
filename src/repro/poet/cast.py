"""Typed AST for the C subset handled by the mini-POET engine.

The AUGEM pipeline operates on *simple C* kernels (paper Figs. 12, 15, 16,
17) and on the *low-level C* produced by the source-to-source transforms.
This module defines the node types shared by the lexer/parser, the
pretty-printer, the pattern matcher, and every transformation.

Nodes are small frozen-ish dataclasses (mutable on purpose: rewriters build
new trees, but a few passes annotate nodes in place).  Every node supports
``children()``, structural equality, and ``clone()`` (deep copy).
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, field, fields
from typing import Dict, Iterator, List, Optional, Sequence, Tuple, Union


# ---------------------------------------------------------------------------
# Types
# ---------------------------------------------------------------------------

_BASE_TYPES = ("void", "char", "int", "long", "float", "double")


@dataclass(eq=True)
class CType:
    """A C type: a base type plus a pointer depth (``double*`` etc.)."""

    base: str
    ptr: int = 0

    def __post_init__(self) -> None:
        if self.base not in _BASE_TYPES:
            raise ValueError(f"unsupported base type: {self.base!r}")
        if self.ptr < 0:
            raise ValueError("pointer depth must be >= 0")

    # -- convenience ---------------------------------------------------
    @property
    def is_pointer(self) -> bool:
        return self.ptr > 0

    @property
    def is_float(self) -> bool:
        return self.ptr == 0 and self.base in ("float", "double")

    @property
    def is_integer(self) -> bool:
        return self.ptr == 0 and self.base in ("char", "int", "long")

    def pointee(self) -> "CType":
        if not self.is_pointer:
            raise ValueError(f"{self} is not a pointer type")
        return CType(self.base, self.ptr - 1)

    def pointer_to(self) -> "CType":
        return CType(self.base, self.ptr + 1)

    @property
    def sizeof(self) -> int:
        """Size in bytes (LP64 model)."""
        if self.ptr:
            return 8
        return {"void": 1, "char": 1, "int": 4, "long": 8,
                "float": 4, "double": 8}[self.base]

    def __str__(self) -> str:  # C syntax
        return self.base + "*" * self.ptr

    def __hash__(self) -> int:
        return hash((self.base, self.ptr))


DOUBLE = CType("double")
FLOAT = CType("float")
INT = CType("int")
LONG = CType("long")
VOID = CType("void")
DOUBLE_P = CType("double", 1)
FLOAT_P = CType("float", 1)


# ---------------------------------------------------------------------------
# Base node
# ---------------------------------------------------------------------------


#: node class -> its dataclass field names (``fields()`` is slow, and the
#: transforms walk and clone hundreds of thousands of nodes per kernel)
_FIELD_NAMES: Dict[type, Tuple[str, ...]] = {}


def field_names(cls: type) -> Tuple[str, ...]:
    names = _FIELD_NAMES.get(cls)
    if names is None:
        names = _FIELD_NAMES[cls] = tuple(f.name for f in fields(cls))
    return names


def _clone_value(v):
    """Deep copy of one attribute value of a node."""
    if isinstance(v, Node):
        return v.clone()
    if isinstance(v, list):
        return [_clone_value(item) for item in v]
    if v is None or isinstance(v, (str, int, float)):
        return v
    if isinstance(v, CType):
        return CType(v.base, v.ptr)
    return copy.deepcopy(v)


@dataclass
class Node:
    """Base class of every AST node."""

    def children(self) -> List["Node"]:
        """Direct child nodes, in field order (skips None / non-node fields)."""
        out = []
        for name in field_names(type(self)):
            v = getattr(self, name)
            if isinstance(v, Node):
                out.append(v)
            elif isinstance(v, (list, tuple)):
                out.extend(item for item in v if isinstance(item, Node))
        return out

    def walk(self) -> Iterator["Node"]:
        """Yield this node and all descendants, pre-order."""
        stack = [self]
        while stack:
            node = stack.pop()
            yield node
            stack.extend(reversed(node.children()))

    def clone(self) -> "Node":
        """Deep copy of the subtree, in-place annotations included."""
        cls = type(self)
        new = cls.__new__(cls)
        new.__dict__.update((k, _clone_value(v))
                            for k, v in self.__dict__.items())
        return new

    # Printed form doubles as a readable repr for debugging/tests.
    def __str__(self) -> str:
        from .printer import to_c

        return to_c(self)


Expr = Node  # semantic aliases used in annotations below
Stmt = Node


# ---------------------------------------------------------------------------
# Expressions
# ---------------------------------------------------------------------------


@dataclass
class Id(Node):
    """A variable reference."""

    name: str


@dataclass
class IntLit(Node):
    """Integer literal."""

    value: int


@dataclass
class FloatLit(Node):
    """Floating-point literal."""

    value: float


@dataclass
class BinOp(Node):
    """Binary expression ``left op right``; op in + - * / % << >> < <= > >= == !=."""

    op: str
    left: Expr
    right: Expr


@dataclass
class UnaryOp(Node):
    """Unary expression; op in ``- ! * &``."""

    op: str
    operand: Expr


@dataclass
class Index(Node):
    """Array subscript ``base[index]``."""

    base: Expr
    index: Expr


@dataclass
class Call(Node):
    """Function (or intrinsic) call.  AUGEM uses ``prefetch*(addr)``."""

    func: str
    args: list = field(default_factory=list)


@dataclass
class Cast(Node):
    """C cast ``(type) expr``."""

    ctype: CType
    operand: Expr


# ---------------------------------------------------------------------------
# Statements
# ---------------------------------------------------------------------------


@dataclass
class Assign(Node):
    """Assignment statement ``lhs op rhs``; op in = += -= *=."""

    lhs: Expr
    op: str
    rhs: Expr


@dataclass
class Decl(Node):
    """Declaration ``type name [= init];``."""

    name: str
    ctype: CType
    init: Optional[Expr] = None


@dataclass
class ExprStmt(Node):
    """Expression used as a statement (e.g. a call, ``ptr++``)."""

    expr: Expr


@dataclass
class Block(Node):
    """A ``{ ... }`` statement list."""

    stmts: list = field(default_factory=list)


@dataclass
class For(Node):
    """A C for-loop.  ``init``/``step`` are statements (or None); ``cond`` an expr."""

    init: Optional[Stmt]
    cond: Optional[Expr]
    step: Optional[Stmt]
    body: Block


@dataclass
class If(Node):
    cond: Expr
    then: Block
    els: Optional[Block] = None


@dataclass
class Return(Node):
    value: Optional[Expr] = None


@dataclass
class Param(Node):
    name: str
    ctype: CType


@dataclass
class FuncDef(Node):
    """A function definition."""

    name: str
    ret_type: CType
    params: list
    body: Block


@dataclass
class Program(Node):
    """A translation unit: a list of function definitions."""

    funcs: list = field(default_factory=list)

    def func(self, name: str) -> FuncDef:
        for f in self.funcs:
            if f.name == name:
                return f
        raise KeyError(f"no function named {name!r}")


# ---------------------------------------------------------------------------
# Region annotation (attached by the Template Identifier)
# ---------------------------------------------------------------------------


@dataclass
class TaggedRegion(Node):
    """A statement region tagged with a matching template annotation.

    The Template Identifier replaces the matched statement run with one of
    these; the Template Optimizer dispatches on ``template`` (paper Fig. 2:
    ``r_annot = template_annotation(r)``).
    """

    template: str  # template name, e.g. "mmUnrolledCOMP"
    stmts: list  # the original low-level C statements
    binding: dict = field(default_factory=dict)  # template parameters
    live_out: frozenset = frozenset()  # scalars live after the region


# ---------------------------------------------------------------------------
# Helpers used throughout the code base
# ---------------------------------------------------------------------------


def const_fold(e: Expr) -> Expr:
    """Fold integer-constant arithmetic; returns a new (or the same) expr."""
    if isinstance(e, BinOp):
        left = const_fold(e.left)
        right = const_fold(e.right)
        if isinstance(left, IntLit) and isinstance(right, IntLit):
            a, b = left.value, right.value
            table = {
                "+": lambda: a + b,
                "-": lambda: a - b,
                "*": lambda: a * b,
                "/": lambda: a // b if b else None,
                "%": lambda: a % b if b else None,
                "<<": lambda: a << b,
                ">>": lambda: a >> b,
            }
            if e.op in table:
                v = table[e.op]()
                if v is not None:
                    return IntLit(v)
        # identity simplifications
        if e.op == "+" and isinstance(right, IntLit) and right.value == 0:
            return left
        if e.op == "+" and isinstance(left, IntLit) and left.value == 0:
            return right
        if e.op == "-" and isinstance(right, IntLit) and right.value == 0:
            return left
        if e.op == "*" and isinstance(right, IntLit) and right.value == 1:
            return left
        if e.op == "*" and isinstance(left, IntLit) and left.value == 1:
            return right
        if e.op == "*" and (
            (isinstance(right, IntLit) and right.value == 0)
            or (isinstance(left, IntLit) and left.value == 0)
        ):
            return IntLit(0)
        return BinOp(e.op, left, right)
    if isinstance(e, UnaryOp):
        operand = const_fold(e.operand)
        if e.op == "-" and isinstance(operand, IntLit):
            return IntLit(-operand.value)
        return UnaryOp(e.op, operand)
    if isinstance(e, Index):
        return Index(const_fold(e.base), const_fold(e.index))
    return e


def add(a: Expr, b: Expr) -> Expr:
    return const_fold(BinOp("+", a, b))


def mul(a: Expr, b: Expr) -> Expr:
    return const_fold(BinOp("*", a, b))


def ident_names(e: Node) -> set:
    """Set of identifier names referenced anywhere under ``e``."""
    return {n.name for n in e.walk() if isinstance(n, Id)}
