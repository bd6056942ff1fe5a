"""Structural pattern matching over the C AST.

This is the mini-POET feature the Template Identifier is built on (the paper
notes POET "offers built-in pattern matching support for the different types
of AST nodes").

A *pattern* is an ordinary AST fragment in which some positions are
:class:`Bind` placeholders.  ``match(pattern, node)`` returns a binding dict
(pattern-variable name -> matched subtree) or ``None``.  Repeated uses of the
same Bind name must match structurally-equal subtrees.

Example::

    pat = C.Assign(Bind("dst", C.Id), "=", C.Index(Bind("arr", C.Id), Bind("idx")))
    b = match(pat, parse_stmt("tmp0 = ptr_A[4];"))
    # b == {"dst": Id("tmp0"), "arr": Id("ptr_A"), "idx": IntLit(4)}
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

from . import cast as C
from .errors import PatternError


@dataclass
class Bind(C.Node):
    """Pattern placeholder capturing the subtree it matches.

    :param name:  binding name; ``_`` is a non-capturing wildcard.
    :param cls:   if given, the matched node must be an instance of it.
    :param where: optional predicate the matched node must satisfy.
    """

    name: str
    cls: Optional[type] = None
    where: Optional[Callable[[C.Node], bool]] = None


def ast_equal(a, b) -> bool:
    """Structural equality of AST subtrees (or plain field values)."""
    cls = type(a)
    if cls is not type(b):
        return False
    if isinstance(a, C.Node):
        ad, bd = a.__dict__, b.__dict__
        return all(ast_equal(ad[name], bd[name])
                   for name in C.LAYOUT[cls].fields)
    if cls is list or cls is tuple:
        return len(a) == len(b) and all(ast_equal(x, y) for x, y in zip(a, b))
    return a == b


def _match_value(pat, node, binding: dict) -> bool:
    cls = type(pat)
    if cls is str:  # operators and names: the common leaf
        return pat == node
    if cls is Bind:
        if pat.cls is not None and not isinstance(node, pat.cls):
            return False
        if pat.where is not None and not pat.where(node):
            return False
        if pat.name == "_":
            return True
        if pat.name in binding:
            return ast_equal(binding[pat.name], node)
        binding[pat.name] = node
        return True
    if isinstance(pat, C.Node):
        if cls is not type(node):
            return False
        pd, nd = pat.__dict__, node.__dict__
        for name in C.LAYOUT[cls].fields:
            if not _match_value(pd[name], nd[name], binding):
                return False
        return True
    if cls is list or cls is tuple:
        if not isinstance(node, (list, tuple)) or len(pat) != len(node):
            return False
        return all(_match_value(p, x, binding) for p, x in zip(pat, node))
    return pat == node


def match(pattern, node) -> Optional[dict]:
    """Match ``node`` against ``pattern``; return binding dict or None."""
    binding: dict = {}
    return binding if _match_value(pattern, node, binding) else None


def matches(pattern, node) -> bool:
    """True when ``node`` matches ``pattern``."""
    return match(pattern, node) is not None


def find_all(pattern, root: C.Node):
    """Yield ``(node, binding)`` for every descendant matching ``pattern``."""
    for n in root.walk():
        b = match(pattern, n)
        if b is not None:
            yield n, b


def subst(template: C.Node, binding: dict) -> C.Node:
    """Instantiate a pattern/template: replace each Bind (and each ``Id``
    whose name is a binding key) with a clone of its bound subtree."""

    def rep(n):
        if isinstance(n, Bind):
            if n.name not in binding:
                raise PatternError(f"unbound pattern variable {n.name!r}")
            v = binding[n.name]
            return v.clone() if isinstance(v, C.Node) else v
        if isinstance(n, C.Id) and n.name in binding:
            v = binding[n.name]
            if isinstance(v, C.Node):
                return v.clone()
            if isinstance(v, str):
                return C.Id(v)
            if isinstance(v, int):
                return C.IntLit(v)
            if isinstance(v, float):
                return C.FloatLit(v)
            raise PatternError(f"cannot substitute {v!r} for {n.name!r}")
        if isinstance(n, C.Node):
            kwargs = {}
            for name in C.LAYOUT[type(n)].fields:
                v = getattr(n, name)
                if isinstance(v, (C.Node, list, tuple)):
                    kwargs[name] = _subst_value(v, binding, rep)
                else:
                    kwargs[name] = v
            return type(n)(**kwargs)
        return n

    return rep(template)


def _subst_value(v, binding, rep):
    if isinstance(v, C.Node):
        return rep(v)
    if isinstance(v, list):
        return [_subst_value(x, binding, rep) for x in v]
    if isinstance(v, tuple):
        return tuple(_subst_value(x, binding, rep) for x in v)
    return v
