"""Live-range computation for low-level C variables.

The paper computes live ranges "globally during the template identification
process" (§3.1) and uses them to decide when a register can be released and
removed from the global ``reg_table``.

We assign every statement (including :class:`TaggedRegion` nodes) a position
in a flattened pre-order walk and record, per variable, the first and last
positions mentioning it.  A mention inside a loop extends the range to the
loop's end marker, making ranges conservative for loop-carried values.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Set

from ..poet import cast as C


@dataclass
class LiveRange:
    start: int
    end: int


def _collect_names(node: C.Node, out: List[str]) -> None:
    """Append every ``Id`` and ``Decl`` name under ``node`` to ``out``."""
    cls = type(node)
    if cls is C.Id:
        out.append(node.name)
        return
    if cls is C.Decl:
        out.append(node.name)
    for child in node.children():
        _collect_names(child, out)


class Liveness:
    """Flattened-position live ranges over a function body."""

    def __init__(self, fn: C.FuncDef) -> None:
        self._pos: Dict[int, int] = {}  # id(stmt) -> position
        self._range: Dict[str, LiveRange] = {}
        self._counter = 0
        #: names mentioned so far inside each open loop, innermost last
        self._loops: List[Set[str]] = []
        for p in fn.params:
            self._mention(p.name, 0)
        self._walk_block(fn.body)

    # -- construction ----------------------------------------------------
    def _next(self) -> int:
        self._counter += 1
        return self._counter

    def _mention(self, var: str, pos: int) -> None:
        r = self._range.get(var)
        if r is None:
            self._range[var] = LiveRange(pos, pos)
        else:
            r.start = min(r.start, pos)
            r.end = max(r.end, pos)
        if self._loops:
            self._loops[-1].add(var)

    def _mention_all(self, node: C.Node, pos: int) -> None:
        names: List[str] = []
        _collect_names(node, names)
        for name in names:
            self._mention(name, pos)

    def _walk_block(self, block: C.Block) -> None:
        for s in block.stmts:
            pos = self._next()
            self._pos[id(s)] = pos
            if isinstance(s, C.For):
                self._loops.append(set())
                for part in (s.init, s.cond, s.step):
                    if part is not None:
                        self._mention_all(part, pos)
                self._walk_block(s.body)
                end_pos = self._next()
                # everything mentioned inside the loop lives to its end
                names = self._loops.pop()
                for name in names:
                    r = self._range[name]
                    r.end = max(r.end, end_pos)
                if self._loops:
                    self._loops[-1] |= names
            elif isinstance(s, C.If):
                self._mention_all(s.cond, pos)
                self._walk_block(s.then)
                if s.els is not None:
                    self._walk_block(s.els)
            elif isinstance(s, C.Block):
                self._walk_block(s)
            else:  # a TaggedRegion is one position for all its statements
                self._mention_all(s, pos)

    # -- queries -----------------------------------------------------------
    def position_of(self, stmt: C.Node) -> int:
        """Flattened position of a top-level statement (or region)."""
        return self._pos.get(id(stmt), 0)

    def last_use(self, var: str) -> int:
        r = self._range.get(var)
        return r.end if r is not None else -1

    def first_use(self, var: str) -> int:
        r = self._range.get(var)
        return r.start if r is not None else -1

    def dead_after(self, var: str, pos: int) -> bool:
        """True when ``var`` has no mention after position ``pos``."""
        return self.last_use(var) <= pos

    def live_out(self, stmt: C.Node) -> Set[str]:
        """Variables whose range extends beyond ``stmt``'s position."""
        pos = self.position_of(stmt)
        return {v for v, r in self._range.items() if r.start <= pos < r.end}
