"""Loop unrolling (paper §2.1, one of the five source-to-source transforms).

Unrolling a canonical loop ``for (v = L; v < U; v += S)`` by factor ``u``
replicates the body ``u`` times, substituting ``v -> v + k*S`` in copy ``k``
and renaming every variable the body declares (so copies do not clash).
The step becomes ``v += u*S``.

When the trip count is not provably divisible by ``u`` a scalar remainder
loop is emitted after the main loop (``assume_divisible=False``); kernel
generation normally guarantees divisibility through the blocking driver and
skips the remainder.
"""

from __future__ import annotations

from typing import List, Optional

from ..poet import cast as C
from ..poet.errors import TransformError
from ..poet.traversal import declarations, replace_ids
from .base import FreshNames, LoopInfo, Transform, declared_names, require_loop


def unrolled_copies(info: LoopInfo, factor: int, names: Optional[FreshNames] = None):
    """Produce ``factor`` renamed, index-shifted copies of the loop body.

    Returns a list of statement lists.  Copy ``k`` has the induction variable
    replaced by ``v + k*S`` and its declared variables renamed ``name_u<k>``
    (globally unique via ``names``); each copy is one substituting clone.
    """
    names = names or FreshNames()
    declared = declared_names(info.body.stmts)
    if info.var in declared:
        raise TransformError(
            f"loop body redeclares its induction variable {info.var!r}")
    copies = []
    for k in range(factor):
        uid = names.fresh("_u")
        ids = {name: f"{name}{uid}" for name in declared}
        if k:
            ids[info.var] = C.add(C.Id(info.var), C.IntLit(k * info.step))
        copies.append([replace_ids(s, ids) for s in info.body.stmts])
    return copies


def _remainder_loop(info: LoopInfo, original_body: List[C.Node]) -> C.For:
    """Scalar loop finishing iterations the unrolled main loop skipped."""
    return C.For(
        None,
        C.BinOp("<", C.Id(info.var), info.upper.clone()),
        C.Assign(C.Id(info.var), "+=", C.IntLit(info.step)),
        C.Block([s.clone() for s in original_body]),
    )


class Unroll(Transform):
    """Unroll the loop over ``var`` by ``factor``."""

    name = "unroll"

    def __init__(self, var: str, factor: int, assume_divisible: bool = True) -> None:
        if factor < 1:
            raise TransformError("unroll factor must be >= 1")
        self.var = var
        self.factor = factor
        self.assume_divisible = assume_divisible

    def apply(self, fn: C.FuncDef) -> C.FuncDef:
        if self.factor == 1:
            return fn
        info = require_loop(fn.body, self.var)
        loop = info.loop
        original_body = info.body.stmts
        copies = unrolled_copies(info, self.factor)
        new_body = [s for copy in copies for s in copy]
        loop.body = C.Block(new_body)
        loop.step = C.Assign(
            C.Id(info.var), "+=", C.IntLit(self.factor * info.step)
        )
        if not self.assume_divisible:
            # main loop must not overrun: v < U - (u-1)*S
            margin = C.IntLit((self.factor - 1) * info.step)
            loop.cond = C.BinOp(
                "<", C.Id(info.var), C.const_fold(C.BinOp("-", info.upper.clone(), margin))
            )
            block, idx = _find_stmt(fn.body, loop)
            block.stmts.insert(idx + 1, _remainder_loop(info, original_body))
        return fn


def _find_stmt(root: C.Node, stmt: C.Node):
    """The Block holding ``stmt`` under ``root``, and its index there."""
    for n in root.walk():
        if isinstance(n, C.Block):
            for i, s in enumerate(n.stmts):
                if s is stmt:
                    return n, i
    raise TransformError("statement not found")


class SplitAccumulator(Transform):
    """Accumulator splitting: break the serial dependence of a reduction.

    After unrolling a reduction loop (e.g. DOT's ``res += X[i]*Y[i]``) the
    body contains ``factor`` updates of the *same* scalar, a serial chain.
    This transform renames the accumulator cyclically across ``ways`` partial
    sums (declared and zero-initialized before the loop) and emits the final
    tree reduction after the loop.  The partial sums then look like the
    distinct ``res_k`` variables of the mmUnrolledCOMP template and vectorize.
    """

    name = "split_accumulator"

    def __init__(self, var: str, acc: str, ways: int) -> None:
        if ways < 1:
            raise TransformError("ways must be >= 1")
        self.var = var
        self.acc = acc
        self.ways = ways

    def apply(self, fn: C.FuncDef) -> C.FuncDef:
        if self.ways == 1:
            return fn
        info = require_loop(fn.body, self.var)
        loop = info.loop
        acc = self.acc
        parts = [f"{acc}_s{k}" for k in range(self.ways)]

        # rename successive updates of acc cyclically
        counter = 0
        for s in loop.body.stmts:
            uses = [n for n in s.walk() if isinstance(n, C.Id) and n.name == acc]
            if not uses:
                continue
            is_update = (
                isinstance(s, C.Assign)
                and isinstance(s.lhs, C.Id)
                and s.lhs.name == acc
            )
            if not is_update:
                raise TransformError(
                    f"accumulator {acc!r} used outside a simple update"
                )
            part = parts[counter % self.ways]
            for n in uses:
                n.name = part
            counter += 1
        if counter == 0:
            raise TransformError(f"no updates of {acc!r} inside loop {self.var!r}")

        # declare partial sums before the loop (after acc's own declaration)
        decl_type = self._acc_type(fn, acc)
        decls = [C.Decl(p, decl_type, C.FloatLit(0.0)) for p in parts]
        block, idx = _find_stmt(fn.body, loop)
        for d in reversed(decls):
            block.stmts.insert(idx, d)

        # final reduction: acc = acc + p0 + p1 + ...  (tree-shaped pairs)
        red: C.Node = C.Id(parts[0])
        for p in parts[1:]:
            red = C.BinOp("+", red, C.Id(p))
        reduction = C.Assign(C.Id(acc), "+=", red)
        block2, idx2 = _find_stmt(fn.body, loop)
        block2.stmts.insert(idx2 + 1, reduction)
        return fn

    @staticmethod
    def _acc_type(fn: C.FuncDef, acc: str) -> C.CType:
        for d in declarations(fn.body):
            if d.name == acc:
                return d.ctype
        for p in fn.params:
            if p.name == acc:
                return p.ctype
        raise TransformError(f"accumulator {acc!r} not declared")
