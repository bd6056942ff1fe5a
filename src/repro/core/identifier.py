"""The Template Identifier (paper §2.2).

Examines the optimized low-level C and tags every code fragment matching a
pre-defined template.  Uses the recursive statement-list traversal plus the
mini-POET pattern matcher, exactly as the paper implements it on top of
POET's built-in AST pattern matching.

Consecutive base-template matches are merged into the unrolled templates:

- a run of mmCOMPs whose (A-lane, B-lane) pairs form a complete n1 x n2
  cross product with distinct accumulators -> ``mmUnrolledCOMP`` (grid);
- a run of mmCOMPs advancing both arrays together with distinct
  accumulators -> ``mmUnrolledCOMP`` (paired; the DOT shape);
- consecutive mmSTOREs grouped per array pointer -> ``mmUnrolledSTORE``
  (paper §4.1.2: "these templates are divided into two mmUnrolledSTORE
  templates");
- consecutive mvCOMPs advancing both arrays -> ``mvUnrolledCOMP``.

Matched fragments are replaced in the AST by :class:`~repro.poet.cast.
TaggedRegion` nodes whose ``binding["payload"]`` holds the structured
instance description consumed by the Template Optimizer.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from ..poet import cast as C
from .templates import (
    MMComp,
    MMStore,
    MVComp,
    MVScale,
    UnrolledComp,
    UnrolledMVComp,
    UnrolledMVScale,
    UnrolledStore,
    match_mm_comp,
    match_mm_store,
    match_mv_comp,
    match_mv_scale,
)


@dataclass
class SumReduce:
    """Payload of a sumREDUCE region: ``dst += part0 + part1 + ...``."""

    dst: str
    parts: List[str]


def _flatten_float_sum(e: C.Node) -> Optional[List[str]]:
    """Flatten a tree of ``+`` over identifiers into a name list."""
    if isinstance(e, C.Id):
        return [e.name]
    if isinstance(e, C.BinOp) and e.op == "+":
        left = _flatten_float_sum(e.left)
        right = _flatten_float_sum(e.right)
        if left is None or right is None:
            return None
        return left + right
    return None


def match_sum_reduce(stmt: C.Node) -> Optional[SumReduce]:
    """Match ``dst += p0 + p1 + ...`` (at least two parts)."""
    if not (
        isinstance(stmt, C.Assign)
        and stmt.op == "+="
        and isinstance(stmt.lhs, C.Id)
        and isinstance(stmt.rhs, C.BinOp)
        and stmt.rhs.op == "+"
    ):
        return None
    parts = _flatten_float_sum(stmt.rhs)
    if parts is None or len(parts) < 2:
        return None
    return SumReduce(dst=stmt.lhs.name, parts=parts)


# ---------------------------------------------------------------------------
# run grouping
# ---------------------------------------------------------------------------

Lane = Tuple[str, Optional[int]]  # (pointer name, literal offset)


def _grid_prefix(comps: List[MMComp]) -> Optional[UnrolledComp]:
    """Longest prefix of ``comps`` forming a complete grid with unique res.

    Returns the UnrolledComp (B-major comp order) or None when even a
    trivial structure is absent.
    """
    # take comps until an accumulator repeats
    seen_res = set()
    chunk: List[MMComp] = []
    for comp in comps:
        if comp.res in seen_res:
            break
        seen_res.add(comp.res)
        chunk.append(comp)
    if not chunk:
        return None

    a_lanes = sorted({(c.a_ptr, c.a_off) for c in chunk},
                     key=lambda lane: (lane[0], lane[1] if lane[1] is not None else 0))
    b_lanes = sorted({(c.b_ptr, c.b_off) for c in chunk},
                     key=lambda lane: (lane[0], lane[1] if lane[1] is not None else 0))
    pairs = {((c.a_ptr, c.a_off), (c.b_ptr, c.b_off)) for c in chunk}

    # full cross product?
    if len(chunk) == len(a_lanes) * len(b_lanes) and len(pairs) == len(chunk):
        if all(
            ((a, b) in pairs) for a in a_lanes for b in b_lanes
        ):
            ordered = []
            by_pair = {((c.a_ptr, c.a_off), (c.b_ptr, c.b_off)): c for c in chunk}
            for b in b_lanes:  # B-major: all A offsets per B lane
                for a in a_lanes:
                    ordered.append(by_pair[(a, b)])
            return UnrolledComp(
                comps=ordered,
                kind="grid",
                n1=len(a_lanes),
                n2=len(b_lanes),
                a_ptr=a_lanes[0][0],
                a_contiguous=_contiguous(a_lanes),
                b_contiguous=_contiguous(b_lanes),
            )

    # paired structure (DOT): lanes advance together, all distinct
    if (
        len({(c.a_ptr, c.a_off) for c in chunk}) == len(chunk)
        and len({(c.b_ptr, c.b_off) for c in chunk}) == len(chunk)
    ):
        a_sorted = sorted(chunk, key=lambda c: (c.a_ptr, c.a_off or 0))
        return UnrolledComp(
            comps=a_sorted,
            kind="paired",
            n1=len(chunk),
            n2=1,
            a_ptr=chunk[0].a_ptr,
            a_contiguous=_contiguous([(c.a_ptr, c.a_off) for c in a_sorted]),
            b_contiguous=_contiguous([(c.b_ptr, c.b_off) for c in a_sorted]),
        )
    return None


def _contiguous(lanes: List[Lane]) -> bool:
    """True when all lanes are literal consecutive offsets of one pointer."""
    if any(off is None for _, off in lanes):
        return False
    ptrs = {p for p, _ in lanes}
    if len(ptrs) != 1:
        return False
    offs = sorted(off for _, off in lanes)
    return offs == list(range(offs[0], offs[0] + len(offs)))


def _group_stores(stores: List[MMStore]) -> List[UnrolledStore]:
    """Group a run of mmSTOREs by array pointer, offsets sorted."""
    by_ptr: dict = {}
    order: List[str] = []
    for s in stores:
        if s.c_ptr not in by_ptr:
            by_ptr[s.c_ptr] = []
            order.append(s.c_ptr)
        by_ptr[s.c_ptr].append(s)
    groups = []
    for ptr in order:
        grp = sorted(by_ptr[ptr], key=lambda s: s.c_off if s.c_off is not None else 0)
        groups.append(UnrolledStore(stores=grp, c_ptr=ptr))
    return groups


# ---------------------------------------------------------------------------
# the identifier pass
# ---------------------------------------------------------------------------


class TemplateIdentifier:
    """Tag template-matching fragments across a whole function."""

    def __init__(self) -> None:
        self.regions: List[C.TaggedRegion] = []

    def identify(self, fn: C.FuncDef) -> C.FuncDef:
        """Mutate ``fn`` in place, replacing matches with TaggedRegions."""
        self._scan_block(fn.body)
        return fn

    # recursive-descent traversal (paper §2.2)
    def _scan_block(self, block: C.Block) -> None:
        for s in block.stmts:
            if isinstance(s, C.For):
                self._scan_block(s.body)
            elif isinstance(s, C.If):
                self._scan_block(s.then)
                if s.els is not None:
                    self._scan_block(s.els)
            elif isinstance(s, C.Block):
                self._scan_block(s)
        block.stmts = self._scan_stmts(block.stmts)

    def _tag(self, name: str, stmts: List[C.Node], payload) -> C.TaggedRegion:
        region = C.TaggedRegion(
            template=name, stmts=stmts, binding={"payload": payload}
        )
        self.regions.append(region)
        return region

    def _scan_stmts(self, stmts: List[C.Node]) -> List[C.Node]:
        out: List[C.Node] = []
        i = 0
        n = len(stmts)
        while i < n:
            if type(stmts[i]) is not C.Assign:  # every template opens with one
                out.append(stmts[i])
                i += 1
                continue
            # mvCOMP runs (checked first: its prefix looks like mmCOMP's)
            mv = match_mv_comp(stmts, i)
            if mv is not None:
                run = [mv]
                j = i + 5
                while True:
                    nxt = match_mv_comp(stmts, j)
                    if nxt is None or nxt.scal != mv.scal:
                        break
                    run.append(nxt)
                    j += 5
                out.append(self._tag_mv_run(run, stmts[i:j]))
                i = j
                continue

            mm = match_mm_comp(stmts, i)
            if mm is not None:
                run = [mm]
                j = i + 4
                while True:
                    nxt = match_mm_comp(stmts, j)
                    if nxt is None:
                        break
                    run.append(nxt)
                    j += 4
                consumed = self._tag_mm_run(run, stmts, i)
                out.extend(consumed)
                i = j
                continue

            sc = match_mv_scale(stmts, i)
            if sc is not None:
                run = [sc]
                j = i + 3
                while True:
                    nxt = match_mv_scale(stmts, j)
                    if (nxt is None or nxt.scal != sc.scal
                            or nxt.x_ptr != sc.x_ptr):
                        break
                    run.append(nxt)
                    j += 3
                raw = stmts[i:j]
                ordered = sorted(run, key=lambda s: s.x_off or 0)
                name = "mvUnrolledSCALE" if len(run) > 1 else "mvSCALE"
                out.append(self._tag(name, raw, UnrolledMVScale(scales=ordered)))
                i = j
                continue

            st = match_mm_store(stmts, i)
            if st is not None:
                run = [st]
                j = i + 3
                while True:
                    nxt = match_mm_store(stmts, j)
                    if nxt is None:
                        break
                    run.append(nxt)
                    j += 3
                # each store's original 3 statements, by store identity
                windows: Dict[tuple, List[C.Node]] = {}
                for k, store in enumerate(run):
                    windows.setdefault((store.c_ptr, store.c_off, store.res),
                                       stmts[i + 3 * k:i + 3 * k + 3])
                for group in _group_stores(run):
                    name = "mmUnrolledSTORE" if len(group.stores) > 1 else "mmSTORE"
                    grp_stmts = [s for store in group.stores for s in windows.get(
                        (store.c_ptr, store.c_off, store.res), ())]
                    out.append(self._tag(name, grp_stmts, group))
                i = j
                continue

            red = match_sum_reduce(stmts[i])
            if red is not None:
                out.append(self._tag("sumREDUCE", [stmts[i]], red))
                i += 1
                continue

            out.append(stmts[i])
            i += 1
        return out

    def _tag_mv_run(self, run: List[MVComp], raw: List[C.Node]) -> C.TaggedRegion:
        if len(run) == 1:
            return self._tag("mvCOMP", raw, UnrolledMVComp(comps=run))
        ordered = sorted(run, key=lambda c: (c.a_ptr, c.a_off or 0))
        return self._tag("mvUnrolledCOMP", raw, UnrolledMVComp(comps=ordered))

    def _tag_mm_run(self, run: List[MMComp], stmts: List[C.Node],
                    start: int) -> List[C.Node]:
        """Split an mmCOMP run into maximal grid/paired regions."""
        out: List[C.Node] = []
        pos = start
        remaining = run
        while remaining:
            grid = _grid_prefix(remaining)
            if grid is not None and len(grid.comps) > 1:
                count = len(grid.comps)
                raw = stmts[pos:pos + 4 * count]
                out.append(self._tag("mmUnrolledCOMP", raw, grid))
            else:
                count = 1
                raw = stmts[pos:pos + 4]
                single = UnrolledComp(
                    comps=[remaining[0]], kind="grid", n1=1, n2=1,
                    a_ptr=remaining[0].a_ptr,
                )
                out.append(self._tag("mmCOMP", raw, single))
            remaining = remaining[count:]
            pos += 4 * count
        return out


def identify_templates(fn: C.FuncDef) -> Tuple[C.FuncDef, List[C.TaggedRegion]]:
    """Run the Template Identifier; returns the tagged function and regions."""
    ident = TemplateIdentifier()
    ident.identify(fn)
    return fn, ident.regions
