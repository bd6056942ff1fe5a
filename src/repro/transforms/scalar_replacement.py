"""Scalar replacement (paper §2.1, §4.1.1).

Replaces array references with scalar temporaries and lowers compound
assignments into the single-operation statement sequences the optimization
templates are written against (paper Fig. 3):

``res += A[i]*B[j]``   ->  ``tmp0 = A[i]; tmp1 = B[j]; tmp2 = tmp0*tmp1;
res = res + tmp2;``                                   (mmCOMP shape)

``B[j] += A[i]*scal``  ->  ``tmp0 = A[i]; tmp1 = B[j]; tmp0 = tmp0*scal;
tmp1 = tmp1 + tmp0; B[j] = tmp1;``                    (mvCOMP shape)

``C[i] += res``        ->  ``tmp0 = C[i]; res = res + tmp0; C[i] = res;``
                                                      (mmSTORE shape)

Also provides :class:`HoistDecls`, which moves every declaration to the top
of the function (leaving an assignment at the original site) so the
low-level C consists of a flat symbol set plus uniform statements — the
form the Template Identifier and the Assembly Kernel Generator consume.
"""

from __future__ import annotations

from typing import List, Optional

from ..poet import cast as C
from ..poet.errors import TransformError
from ..poet.symtab import SymbolTable
from .base import FreshNames, Transform


def _is_float_scalar(e: C.Node, symtab: SymbolTable) -> bool:
    return isinstance(e, C.Id) and symtab.is_float_scalar(e.name)


class ScalarReplace(Transform):
    """Lower compound float assignments to template-shaped 3-address code."""

    name = "scalar_replacement"
    reads_symtab = True

    def __init__(self) -> None:
        self._names = FreshNames()

    def apply(self, fn: C.FuncDef,
              symtab: Optional[SymbolTable] = None) -> C.FuncDef:
        if symtab is None:
            symtab = SymbolTable.of_function(fn)
        self._new_decls: List[C.Decl] = []
        self._lower_block(fn.body, symtab)
        fn.body.stmts[0:0] = self._new_decls
        return fn

    # -- helpers ---------------------------------------------------------
    def _tmp(self, symtab: SymbolTable, ctype: C.CType) -> str:
        name = self._names.fresh("tmp")
        while name in symtab:
            name = self._names.fresh("tmp")
        symtab.declare(name, ctype)
        self._new_decls.append(C.Decl(name, ctype))
        return name

    def _lower_block(self, block: C.Block, symtab: SymbolTable) -> None:
        out: List[C.Node] = []
        for s in block.stmts:
            if isinstance(s, C.For):
                self._lower_block(s.body, symtab)
                out.append(s)
            elif isinstance(s, C.If):
                self._lower_block(s.then, symtab)
                if s.els is not None:
                    self._lower_block(s.els, symtab)
                out.append(s)
            elif isinstance(s, C.Block):
                self._lower_block(s, symtab)
                out.append(s)
            elif isinstance(s, C.Assign):
                out.extend(self._lower_assign(s, symtab))
            else:
                out.append(s)
        block.stmts = out

    def _elem_type(self, ref: C.Index, symtab: SymbolTable) -> C.CType:
        return symtab.expr_type(ref)

    def _lower_assign(self, s: C.Assign, symtab: SymbolTable) -> List[C.Node]:
        # Only float-typed compound updates are lowered; integer/pointer
        # arithmetic stays for the Assembly Kernel Generator.
        try:
            lhs_type = symtab.expr_type(s.lhs)
        except Exception:
            return [s]
        if not lhs_type.is_float:
            return [s]

        # Shape 0 (mvSCALE, extension template): arr[idx] = arr[idx] * scal
        if (
            s.op in ("=", "*=")
            and isinstance(s.lhs, C.Index)
        ):
            if s.op == "*=":
                mul = C.BinOp("*", s.lhs.clone(), s.rhs)
            else:
                mul = s.rhs
            if isinstance(mul, C.BinOp) and mul.op == "*":
                from ..poet.pattern import ast_equal

                a, b = mul.left, mul.right
                if ast_equal(b, s.lhs) and not ast_equal(a, s.lhs):
                    a, b = b, a  # canonical: arr[idx] * scal
                if ast_equal(a, s.lhs) and _is_float_scalar(b, symtab):
                    t = self._tmp(symtab, self._elem_type(s.lhs, symtab))
                    return [
                        C.Assign(C.Id(t), "=", s.lhs.clone()),
                        C.Assign(C.Id(t), "=",
                                 C.BinOp("*", C.Id(t), b.clone())),
                        C.Assign(s.lhs.clone(), "=", C.Id(t)),
                    ]

        if s.op not in ("+=", "-="):
            return [s]
        rhs = s.rhs

        # Shape 1: X += a * b
        if isinstance(rhs, C.BinOp) and rhs.op == "*" and s.op == "+=":
            a, b = rhs.left, rhs.right
            if isinstance(s.lhs, C.Id):
                return self._lower_mm_comp(s.lhs, a, b, symtab)
            if isinstance(s.lhs, C.Index):
                return self._lower_mv_comp(s.lhs, a, b, symtab)

        # Shape 2: arr[idx] += scalar  (mmSTORE)
        if isinstance(s.lhs, C.Index) and _is_float_scalar(rhs, symtab) and s.op == "+=":
            t = self._elem_type(s.lhs, symtab)
            tmp = self._tmp(symtab, t)
            return [
                C.Assign(C.Id(tmp), "=", s.lhs.clone()),
                C.Assign(rhs.clone(), "=", C.BinOp("+", rhs.clone(), C.Id(tmp))),
                C.Assign(s.lhs.clone(), "=", rhs.clone()),
            ]

        # Shape 3: scalar += arr[idx] (plain accumulate)
        if isinstance(s.lhs, C.Id) and isinstance(rhs, C.Index):
            t = self._elem_type(rhs, symtab)
            tmp = self._tmp(symtab, t)
            return [
                C.Assign(C.Id(tmp), "=", rhs.clone()),
                C.Assign(
                    s.lhs.clone(),
                    "=",
                    C.BinOp("+" if s.op == "+=" else "-", s.lhs.clone(), C.Id(tmp)),
                ),
            ]
        return [s]

    def _lower_mm_comp(self, dst: C.Id, a: C.Node, b: C.Node,
                       symtab: SymbolTable) -> List[C.Node]:
        """res += a*b with scalar res -> mmCOMP instruction sequence."""
        stmts: List[C.Node] = []
        ta = self._load_operand(a, stmts, symtab)
        tb = self._load_operand(b, stmts, symtab)
        tprod = self._tmp(symtab, symtab.expr_type(dst))
        stmts.append(C.Assign(C.Id(tprod), "=", C.BinOp("*", ta, tb)))
        stmts.append(C.Assign(dst.clone(), "=", C.BinOp("+", dst.clone(), C.Id(tprod))))
        return stmts

    def _lower_mv_comp(self, dst: C.Index, a: C.Node, b: C.Node,
                       symtab: SymbolTable) -> List[C.Node]:
        """B[idx] += a*b (one operand a memory ref, the other a scalar)."""
        # put the memory operand first, the scalar second (mvCOMP's `scal`)
        if isinstance(a, C.Index):
            mem, scal = a, b
        elif isinstance(b, C.Index):
            mem, scal = b, a
        else:
            # both scalars: still lower via mv shape with a preliminary mul
            mem, scal = a, b
        stmts: List[C.Node] = []
        t_mem = self._load_operand(mem, stmts, symtab)  # tmp0 = A[idx1]
        elem_t = symtab.expr_type(dst)
        t_dst = self._tmp(symtab, elem_t)  # tmp1 = B[idx2]
        stmts.append(C.Assign(C.Id(t_dst), "=", dst.clone()))
        scal_e = scal.clone() if isinstance(scal, C.Id) else self._load_operand(scal, stmts, symtab)
        # tmp0 = tmp0 * scal
        stmts.append(C.Assign(t_mem.clone(), "=", C.BinOp("*", t_mem.clone(), scal_e)))
        # tmp1 = tmp1 + tmp0
        stmts.append(C.Assign(C.Id(t_dst), "=", C.BinOp("+", C.Id(t_dst), t_mem.clone())))
        # B[idx2] = tmp1
        stmts.append(C.Assign(dst.clone(), "=", C.Id(t_dst)))
        return stmts

    def _load_operand(self, e: C.Node, stmts: List[C.Node],
                      symtab: SymbolTable) -> C.Node:
        """Materialize a load for memory operands; pass scalars through."""
        if isinstance(e, C.Index):
            t = self._tmp(symtab, self._elem_type(e, symtab))
            stmts.append(C.Assign(C.Id(t), "=", e.clone()))
            return C.Id(t)
        if isinstance(e, (C.Id, C.FloatLit, C.IntLit)):
            return e.clone()
        raise TransformError(
            f"operand too complex for scalar replacement: {e}"
        )


class HoistDecls(Transform):
    """Move all declarations to the top of the function body.

    Initializers stay behind as plain assignments at the original position,
    preserving semantics (names are unique after the unroll renames).
    """

    name = "hoist_decls"

    def apply(self, fn: C.FuncDef) -> C.FuncDef:
        hoisted: List[C.Decl] = []

        def process(block: C.Block, top: bool) -> None:
            out: List[C.Node] = []
            for s in block.stmts:
                if isinstance(s, C.For):
                    if isinstance(s.init, C.Decl):
                        d = s.init
                        hoisted.append(C.Decl(d.name, d.ctype))
                        s.init = (
                            C.Assign(C.Id(d.name), "=", d.init)
                            if d.init is not None
                            else None
                        )
                    process(s.body, False)
                    out.append(s)
                elif isinstance(s, C.If):
                    process(s.then, False)
                    if s.els is not None:
                        process(s.els, False)
                    out.append(s)
                elif isinstance(s, C.Block):
                    process(s, False)
                    out.append(s)
                elif isinstance(s, C.Decl):
                    hoisted.append(C.Decl(s.name, s.ctype))
                    if s.init is not None:
                        out.append(C.Assign(C.Id(s.name), "=", s.init))
                else:
                    out.append(s)
            block.stmts = out

        process(fn.body, True)
        fn.body.stmts[0:0] = hoisted
        return fn
