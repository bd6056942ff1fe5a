"""Generic AST visitors and rewriters."""

from __future__ import annotations

from typing import Callable, Optional

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


class NodeTransformer:
    """Bottom-up rewriter.

    Subclasses define ``visit_<ClassName>(node) -> node | list | None``:

    - return a node to replace the original,
    - return ``None`` to keep the (child-rewritten) node,
    - for statements inside a list context, return a list to splice, or
      the sentinel :data:`DELETE` to remove the statement.
    """

    DELETE = object()

    def transform(self, node: C.Node) -> C.Node:
        node = self._rewrite_children(node)
        method = getattr(self, f"visit_{type(node).__name__}", None)
        if method is not None:
            result = method(node)
            if result is not None:
                return result
        return node

    def _rewrite_children(self, node: C.Node) -> C.Node:
        for name in C.field_names(type(node)):
            v = getattr(node, name)
            if isinstance(v, C.Node):
                setattr(node, name, self.transform(v))
            elif isinstance(v, list):
                new_list = []
                for item in v:
                    if isinstance(item, C.Node):
                        r = self.transform(item)
                        if r is NodeTransformer.DELETE:
                            continue
                        if isinstance(r, list):
                            new_list.extend(r)
                        else:
                            new_list.append(r)
                    else:
                        new_list.append(item)
                setattr(node, name, new_list)
        return node


def rewrite(node: C.Node, fn: Callable[[C.Node], Optional[C.Node]]) -> C.Node:
    """Functional bottom-up rewrite: ``fn`` returns a replacement or None."""

    class _F(NodeTransformer):
        def transform(self, n: C.Node) -> C.Node:
            n = self._rewrite_children(n)
            r = fn(n)
            return n if r is None else r

    return _F().transform(node)


def replace_ids(node: C.Node, mapping: dict) -> C.Node:
    """Clone ``node`` substituting identifiers by name.

    Values may be strings (renames) or expression nodes.
    """
    cloned = node.clone()

    def fn(n: C.Node):
        if isinstance(n, C.Id) and n.name in mapping:
            v = mapping[n.name]
            return C.Id(v) if isinstance(v, str) else v.clone()
        return None

    return rewrite(cloned, fn)


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
