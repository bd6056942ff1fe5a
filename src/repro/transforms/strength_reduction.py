"""Strength reduction (paper §2.1, §4.1.1).

Array subscripts of the form ``A[c*v + base + k]`` (``v`` the loop variable,
``c``/``base`` loop-invariant, ``k`` a literal) are replaced by references
off a derived pointer that is advanced incrementally:

    double* ptr_A;
    ptr_A = A + base + c*L;          // before the loop (L = lower bound)
    ...   ptr_A[k] ...               // inside the loop
    ptr_A += c*S;                    // at the end of the body

This reproduces the ``ptr_A``/``ptr_B``/``ptr_C0``/``ptr_C1`` pointers of
paper Fig. 13 and removes the per-iteration multiply from the subscript.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from ..poet import cast as C
from ..poet import to_c
from ..poet.errors import TransformError
from ..poet.symtab import SymbolTable
from .base import FreshNames, Transform, loop_info


@dataclass
class AffineForm:
    """``coeff * var + base + const`` decomposition of an index expression."""

    coeff: Optional[C.Node]  # None when the expression is var-free
    base: Optional[C.Node]  # var-free symbolic part (None if absent)
    const: int


def _expand(e: C.Node) -> C.Node:
    """Distribute multiplication over addition: (l+1)*Mc -> l*Mc + Mc."""
    if isinstance(e, C.BinOp):
        left = _expand(e.left)
        right = _expand(e.right)
        if e.op == "*":
            if isinstance(left, C.BinOp) and left.op in ("+", "-"):
                return _expand(
                    C.BinOp(left.op,
                            C.BinOp("*", left.left, right.clone()),
                            C.BinOp("*", left.right, right.clone()))
                )
            if isinstance(right, C.BinOp) and right.op in ("+", "-"):
                return _expand(
                    C.BinOp(right.op,
                            C.BinOp("*", left.clone(), right.left),
                            C.BinOp("*", left.clone(), right.right))
                )
        return C.BinOp(e.op, left, right)
    return e


def _flatten_sum(e: C.Node, sign: int, terms: List[Tuple[int, C.Node]]) -> None:
    if isinstance(e, C.BinOp) and e.op == "+":
        _flatten_sum(e.left, sign, terms)
        _flatten_sum(e.right, sign, terms)
    elif isinstance(e, C.BinOp) and e.op == "-":
        _flatten_sum(e.left, sign, terms)
        _flatten_sum(e.right, -sign, terms)
    elif isinstance(e, C.UnaryOp) and e.op == "-":
        _flatten_sum(e.operand, -sign, terms)
    else:
        terms.append((sign, e))


def _uses_var(e: C.Node, var: str) -> bool:
    if type(e) is C.Id:
        return e.name == var
    return any(_uses_var(c, var) for c in e.children())


def _term_coeff(term: C.Node, var: str) -> Optional[C.Node]:
    """If ``term`` == c * var (any association), return c; var alone -> 1."""
    if isinstance(term, C.Id) and term.name == var:
        return C.IntLit(1)
    if isinstance(term, C.BinOp) and term.op == "*":
        left_has = _uses_var(term.left, var)
        right_has = _uses_var(term.right, var)
        if left_has and right_has:
            return None
        if left_has:
            inner = _term_coeff(term.left, var)
            return None if inner is None else C.mul(inner, term.right.clone())
        if right_has:
            inner = _term_coeff(term.right, var)
            return None if inner is None else C.mul(term.left.clone(), inner)
    return None


def decompose_affine(idx: C.Node, var: str) -> Optional[AffineForm]:
    """Decompose ``idx`` as ``coeff*var + base + const`` or return None."""
    terms: List[Tuple[int, C.Node]] = []
    _flatten_sum(C.const_fold(_expand(C.const_fold(idx))), 1, terms)
    coeff: Optional[C.Node] = None
    base: Optional[C.Node] = None
    const = 0
    for sign, t in terms:
        if isinstance(t, C.IntLit):
            const += sign * t.value
            continue
        if _uses_var(t, var):
            c = _term_coeff(t, var)
            if c is None:
                return None  # non-linear in var
            if sign < 0:
                c = C.const_fold(C.UnaryOp("-", c))
            coeff = c if coeff is None else C.add(coeff, c)
            continue
        piece = t.clone() if sign > 0 else C.UnaryOp("-", t.clone())
        base = piece if base is None else C.BinOp("+", base, piece)
    if coeff is not None:
        coeff = C.const_fold(coeff)
    if base is not None:
        base = C.const_fold(base)
    return AffineForm(coeff, base, const)


def _canon(e: Optional[C.Node]) -> str:
    return "" if e is None else to_c(C.const_fold(e))


@dataclass
class _PtrGroup:
    array: str
    coeff: C.Node
    base: Optional[C.Node]
    refs: List[Tuple[C.Index, int]] = field(default_factory=list)  # (node, const)


class StrengthReduce(Transform):
    """Apply strength reduction to every canonical loop, innermost first.

    :param loops: restrict to these loop variables (None = all canonical loops).
    """

    name = "strength_reduction"
    reads_symtab = True

    def __init__(self, loops: Optional[List[str]] = None) -> None:
        self.loops = loops

    def apply(self, fn: C.FuncDef,
              symtab: Optional[SymbolTable] = None) -> C.FuncDef:
        if symtab is None:
            symtab = SymbolTable.of_function(fn)
        names = FreshNames()
        self._process_block(fn.body, fn, symtab, names)
        return fn

    # innermost-first: recurse before handling each loop
    def _process_block(self, block: C.Block, fn: C.FuncDef,
                       symtab: SymbolTable, names: FreshNames) -> None:
        for i, s in enumerate(list(block.stmts)):
            if isinstance(s, C.For):
                self._process_block(s.body, fn, symtab, names)
                self._reduce_loop(block, s, fn, symtab, names)
            elif isinstance(s, C.If):
                self._process_block(s.then, fn, symtab, names)
                if s.els is not None:
                    self._process_block(s.els, fn, symtab, names)
            elif isinstance(s, C.Block):
                self._process_block(s, fn, symtab, names)

    def _reduce_loop(self, parent: C.Block, loop: C.For, fn: C.FuncDef,
                     symtab: SymbolTable, names: FreshNames) -> None:
        try:
            info = loop_info(loop)
        except TransformError:
            return
        if self.loops is not None and info.var not in self.loops:
            return

        # collect candidate refs directly in this loop body (not nested loops:
        # their refs were handled when the inner loop was processed)
        groups: Dict[Tuple[str, str, str], _PtrGroup] = {}
        # an unrolled body repeats each subscript across the copies that
        # do not vary it (A's for every j, B's for every i): decompose
        # each distinct printed subscript once
        forms: Dict[str, Optional[Tuple[AffineForm, str, str]]] = {}

        def scan(node: C.Node, in_nested_loop: bool) -> None:
            if isinstance(node, C.For) and node is not loop:
                return  # refs inside nested loops use their own pointers
            for child in node.children():
                scan(child, in_nested_loop)
            if isinstance(node, C.Index) and isinstance(node.base, C.Id):
                arr = node.base.name
                if not symtab.is_pointer(arr):
                    return
                text = to_c(node.index)
                if text not in forms:
                    form = decompose_affine(node.index, info.var)
                    forms[text] = (
                        None if form is None or form.coeff is None
                        else (form, _canon(form.coeff), _canon(form.base)))
                hit = forms[text]
                if hit is None:
                    return  # invariant or non-affine: leave alone
                form = hit[0]
                key = (arr, hit[1], hit[2])
                grp = groups.get(key)
                if grp is None:
                    grp = _PtrGroup(arr, form.coeff, form.base)
                    groups[key] = grp
                grp.refs.append((node, form.const))

        for s in loop.body.stmts:
            scan(s, False)

        if not groups:
            return

        idx_in_parent = next(
            i for i, s in enumerate(parent.stmts) if s is loop
        )
        for grp in groups.values():
            ptr_name = names.fresh(f"ptr_{grp.array}")
            while ptr_name in symtab:
                ptr_name = names.fresh(f"ptr_{grp.array}")
            ptr_type = symtab.type_of(grp.array)
            symtab.declare(ptr_name, ptr_type)

            # init: ptr = arr + base + coeff*lower
            init_expr: C.Node = C.Id(grp.array)
            if grp.base is not None:
                init_expr = C.BinOp("+", init_expr, grp.base.clone())
            start = C.mul(grp.coeff.clone(), info.lower.clone())
            if not (isinstance(start, C.IntLit) and start.value == 0):
                init_expr = C.BinOp("+", init_expr, start)
            decl = C.Decl(ptr_name, ptr_type, C.const_fold(init_expr))
            parent.stmts.insert(idx_in_parent, decl)
            idx_in_parent += 1

            # rewrite refs
            for node, const in grp.refs:
                node.base = C.Id(ptr_name)
                node.index = C.IntLit(const)

            # increment at end of body: ptr += coeff*step
            bump = C.const_fold(C.mul(grp.coeff.clone(), C.IntLit(info.step)))
            loop.body.stmts.append(C.Assign(C.Id(ptr_name), "+=", bump))
