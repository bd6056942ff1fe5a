"""Generic AST visitors and rewriters."""

from __future__ import annotations

from typing import Callable

from . import cast as C


class NodeVisitor:
    """Pre-order visitor dispatching on ``visit_<ClassName>`` methods."""

    def visit(self, node: C.Node):
        method = getattr(self, f"visit_{type(node).__name__}", None)
        if method is not None:
            result = method(node)
            if result is not None:
                return result
        return self.generic_visit(node)

    def generic_visit(self, node: C.Node):
        for child in node.children():
            self.visit(child)
        return None


#: returned by a rewrite function in a list context: drop the statement
DELETE = object()


def rewrite(node: C.Node, fn: Callable[[C.Node], object]) -> C.Node:
    """Bottom-up rewrite, in place: children first, then ``fn(node)``.

    ``fn`` returns a replacement node, or None to keep the (child-rewritten)
    node.  For an item of a list field it may also return a list to splice
    in its place, or :data:`DELETE` to remove it.
    """
    d = node.__dict__
    for name, is_list in C.LAYOUT[type(node)].kids:
        v = d[name]
        if not is_list:
            if v is not None:
                d[name] = rewrite(v, fn)
            continue
        items = []
        for item in v:
            r = rewrite(item, fn)
            if r is DELETE:
                continue
            if isinstance(r, list):
                items.extend(r)
            else:
                items.append(r)
        d[name] = items
    r = fn(node)
    return node if r is None else r


class NodeTransformer:
    """Bottom-up rewriter dispatching on ``visit_<ClassName>`` methods.

    Each returns what a :func:`rewrite` function returns: a replacement
    node, None to keep the node, or (in a list context) a list to splice
    or :data:`DELETE`.
    """

    DELETE = DELETE

    def transform(self, node: C.Node) -> C.Node:
        return rewrite(node, self._dispatch)

    def _dispatch(self, node: C.Node):
        method = getattr(self, f"visit_{type(node).__name__}", None)
        return None if method is None else method(node)


def replace_ids(node: C.Node, mapping: dict) -> C.Node:
    """Clone ``node`` substituting identifiers by name, in one pass.

    String values rename (declarations included); node values replace
    each matching ``Id`` with a fresh clone (see :func:`cast.copy_tree`).
    """
    return C.copy_tree(node, mapping)


#: the node classes a declaration can sit under (expressions hold none)
_HOLDS_STMTS = (C.Block, C.For, C.If, C.TaggedRegion, C.FuncDef, C.Program)


def declarations(root: C.Node):
    """Yield every ``Decl`` under ``root`` (inclusive), pre-order, without
    descending into expressions."""
    stack = [root]
    while stack:
        node = stack.pop()
        if isinstance(node, C.Decl):
            yield node
        elif isinstance(node, _HOLDS_STMTS):
            kids = node.children()
            kids.reverse()
            stack.extend(kids)


def stmt_lists(root: C.Node):
    """Yield every statement list (``Block.stmts``) under ``root``,
    innermost first — the order template identification scans them."""
    collected = []

    def walk(n: C.Node):
        for c in n.children():
            walk(c)
        if isinstance(n, C.Block):
            collected.append(n.stmts)

    walk(root)
    yield from collected


def count_nodes(root: C.Node, cls: type = C.Node) -> int:
    """Number of descendants (inclusive) that are instances of ``cls``."""
    return sum(1 for n in root.walk() if isinstance(n, cls))
