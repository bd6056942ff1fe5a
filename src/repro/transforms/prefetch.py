"""Data prefetching (paper §2.1).

Inserts software prefetch intrinsics (``prefetch_t0`` / ``prefetch_t1`` /
``prefetch_nta`` calls, mapped by the Assembly Kernel Generator to the x86
``prefetcht0``/``prefetcht1``/``prefetchnta`` instructions) at the top of a
loop body, one per derived pointer that the loop advances — mirroring the
prefetch statements of paper Fig. 13 (lines 7-8, 12).

The prefetch *distance* is in elements ahead of the current pointer and is a
tuning parameter (paper §2.1: configurations are selected empirically).
"""

from __future__ import annotations

from typing import Dict, Iterable, Optional

from ..poet import cast as C
from ..poet.symtab import SymbolTable
from .base import Transform, loop_info
from ..poet.errors import TransformError

PREFETCH_FUNCS = ("prefetch_t0", "prefetch_t1", "prefetch_t2", "prefetch_nta")

_LEVEL_TO_FUNC = {0: "prefetch_t0", 1: "prefetch_t1", 2: "prefetch_t2",
                  "nta": "prefetch_nta"}


def _advanced_pointers(loop: C.For, symtab: SymbolTable) -> list:
    """Pointer names incremented directly in this loop body."""
    names = []
    for s in loop.body.stmts:
        if (
            isinstance(s, C.Assign)
            and s.op == "+="
            and isinstance(s.lhs, C.Id)
            and symtab.is_pointer(s.lhs.name)
        ):
            names.append(s.lhs.name)
    return names


class InsertPrefetch(Transform):
    """Insert prefetch calls for advanced pointers in the selected loops.

    :param loops: loop variables to instrument (None = every canonical loop
        that advances at least one pointer).
    :param distance: elements ahead; may be a single int or a dict keyed by
        original array prefix (``"A"`` matches pointer ``ptr_A0``) or exact
        pointer name.
    :param level: cache level: 0, 1, 2 or "nta".
    """

    name = "prefetch"
    reads_symtab = True

    def __init__(self, loops: Optional[Iterable[str]] = None,
                 distance=64, level=0) -> None:
        if level not in _LEVEL_TO_FUNC:
            raise TransformError(f"bad prefetch level {level!r}")
        self.loops = None if loops is None else set(loops)
        self.distance = distance
        self.func = _LEVEL_TO_FUNC[level]

    def _distance_for(self, ptr: str) -> Optional[int]:
        if isinstance(self.distance, int):
            return self.distance
        assert isinstance(self.distance, dict)
        if ptr in self.distance:
            return self.distance[ptr]
        # ptr names look like ptr_<array><n>
        for key, d in self.distance.items():
            if ptr.startswith(f"ptr_{key}"):
                return d
        return None

    def apply(self, fn: C.FuncDef,
              symtab: Optional[SymbolTable] = None) -> C.FuncDef:
        if symtab is None:
            symtab = SymbolTable.of_function(fn)
        for node in fn.body.walk():
            if not isinstance(node, C.For):
                continue
            try:
                info = loop_info(node)
            except TransformError:
                continue
            if self.loops is not None and info.var not in self.loops:
                continue
            calls = []
            for ptr in _advanced_pointers(node, symtab):
                dist = self._distance_for(ptr)
                if dist is None:
                    continue
                addr = C.BinOp("+", C.Id(ptr), C.IntLit(dist))
                calls.append(C.ExprStmt(C.Call(self.func, [addr])))
            node.body.stmts[0:0] = calls
        return fn
