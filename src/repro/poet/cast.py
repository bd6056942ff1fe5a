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
import typing
from dataclasses import dataclass, field, fields
from typing import Dict, Iterator, List, NamedTuple, Optional, Tuple


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


class Layout(NamedTuple):
    """How the AST core visits one node class, derived once from its
    dataclass annotations (the transforms visit ~10^5 nodes per kernel)."""

    fields: Tuple[str, ...]  # every dataclass field, in declaration order
    #: child fields in declaration order, each with True when it holds a
    #: list of nodes and False when it holds one node (or None)
    kids: Tuple[Tuple[str, bool], ...]
    #: the other fields whose values ``clone`` must copy (not str/int/float)
    data: Tuple[str, ...]


def _derive_layout(cls: type) -> Layout:
    hints = typing.get_type_hints(cls)
    names, kids, data = [], [], []
    for f in fields(cls):
        t = hints[f.name]
        names.append(f.name)
        if t is list or typing.get_origin(t) is list:
            kids.append((f.name, True))
        elif any(isinstance(a, type) and issubclass(a, Node)
                 for a in typing.get_args(t) or (t,)):  # X or Optional[X]
            kids.append((f.name, False))
        elif t not in (str, int, float):
            data.append(f.name)
    return Layout(tuple(names), tuple(kids), tuple(data))


class _Layouts(dict):
    def __missing__(self, cls: type) -> Layout:
        lay = self[cls] = _derive_layout(cls)
        return lay


#: node class -> its :class:`Layout`
LAYOUT: Dict[type, Layout] = _Layouts()


def _clone_value(v):
    """Deep copy of a non-child attribute value of a node."""
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
    """Base class of every AST node.

    A field annotated as a node type (``Expr``, ``Block``,
    ``Optional[Stmt]``...) holds one child or None; a field annotated
    ``list`` holds a list of child nodes; every other field is data.
    """

    def children(self) -> List["Node"]:
        """Direct child nodes, in field order (None children skipped)."""
        out = []
        d = self.__dict__
        for name, is_list in LAYOUT[type(self)].kids:
            v = d[name]
            if is_list:
                out.extend(v)
            elif v is not None:
                out.append(v)
        return out

    def walk(self) -> Iterator["Node"]:
        """Yield this node and all descendants, pre-order."""
        stack = [self]
        while stack:
            node = stack.pop()
            yield node
            kids = node.children()
            kids.reverse()
            stack.extend(kids)

    def clone(self) -> "Node":
        """Deep copy of the subtree (see :func:`copy_tree`)."""
        return copy_tree(self)

    # Printed form doubles as a readable repr for debugging/tests.
    def __str__(self) -> str:
        from .printer import to_c

        return to_c(self)


def copy_tree(node: "Node", ids: Optional[dict] = None) -> "Node":
    """Deep copy of ``node``'s subtree, substituting identifiers on the way.

    Children are copied, data fields copied, and any attribute a pass set
    on a node in place (outside the dataclass fields) is deep copied too;
    the copy shares no node or list with the original.

    ``ids`` maps names to substitutes.  A string renames: every ``Id`` of
    that name and every ``Decl`` declaring it.  A node replaces each ``Id``
    of that name with a fresh copy of itself.
    """
    cls = type(node)
    if ids is not None and cls is Id and node.name in ids:
        v = ids[node.name]
        return Id(v) if isinstance(v, str) else copy_tree(v)
    lay = LAYOUT[cls]
    d = node.__dict__.copy()
    for name, is_list in lay.kids:
        v = d[name]
        if is_list:
            d[name] = [copy_tree(item, ids) for item in v]
        elif v is not None:
            d[name] = copy_tree(v, ids)
    for name in lay.data:
        d[name] = _clone_value(d[name])
    if len(d) != len(lay.fields):
        for name in d.keys() - set(lay.fields):
            d[name] = _clone_value(d[name])
    if ids is not None and cls is Decl and isinstance(ids.get(d["name"]), str):
        d["name"] = ids[d["name"]]
    new = cls.__new__(cls)
    new.__dict__ = d
    return new


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


# ---------------------------------------------------------------------------
# Helpers used throughout the code base
# ---------------------------------------------------------------------------


#: integer folds; a None result (division by zero) leaves the op unfolded
_FOLD = {
    "+": lambda a, b: a + b,
    "-": lambda a, b: a - b,
    "*": lambda a, b: a * b,
    "/": lambda a, b: a // b if b else None,
    "%": lambda a, b: a % b if b else None,
    "<<": lambda a, b: a << b,
    ">>": lambda a, b: a >> b,
}


def const_fold(e: Expr) -> Expr:
    """Fold integer-constant arithmetic; returns a new (or the same) expr."""
    cls = type(e)
    if cls is BinOp:
        left = const_fold(e.left)
        right = const_fold(e.right)
        op = e.op
        left_lit = type(left) is IntLit
        right_lit = type(right) is IntLit
        if left_lit and right_lit and op in _FOLD:
            v = _FOLD[op](left.value, right.value)
            if v is not None:
                return IntLit(v)
        # identity simplifications
        if right_lit:
            if right.value == 0 and op in ("+", "-"):
                return left
            if right.value == 1 and op == "*":
                return left
        if left_lit:
            if left.value == 0 and op == "+":
                return right
            if left.value == 1 and op == "*":
                return right
        if op == "*" and ((right_lit and right.value == 0)
                          or (left_lit and left.value == 0)):
            return IntLit(0)
        return BinOp(op, left, right)
    if cls is UnaryOp:
        operand = const_fold(e.operand)
        if e.op == "-" and type(operand) is IntLit:
            return IntLit(-operand.value)
        return UnaryOp(e.op, operand)
    if cls is Index:
        return Index(const_fold(e.base), const_fold(e.index))
    return e


def add(a: Expr, b: Expr) -> Expr:
    return const_fold(BinOp("+", a, b))


def mul(a: Expr, b: Expr) -> Expr:
    return const_fold(BinOp("*", a, b))


def ident_names(e: Node) -> set:
    """Set of identifier names referenced anywhere under ``e``."""
    return {n.name for n in e.walk() if isinstance(n, Id)}
