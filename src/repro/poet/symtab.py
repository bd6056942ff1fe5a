"""Symbol table: name -> CType, built from a FuncDef.

Used by the transforms (to know which identifiers are pointers/floats),
by the Template Identifier (template parameters are classified as array
vs. integer vs. float variables), and by the Assembly Kernel Generator.
"""

from __future__ import annotations

from typing import Dict, Iterator, Optional

from . import cast as C
from .errors import PoetError
from .traversal import declarations


class SymbolTable:
    """Flat symbol table for a single function.

    The C subset AUGEM operates on declares every variable at function or
    loop scope with unique names (the transforms generate fresh names), so a
    flat map is sufficient; redeclaration with a *different* type is an
    error, while an identical redeclaration is tolerated.
    """

    def __init__(self) -> None:
        self._types: Dict[str, C.CType] = {}
        self.params: list = []

    # -- construction ----------------------------------------------------
    @classmethod
    def of_function(cls, fn: C.FuncDef) -> "SymbolTable":
        st = cls()
        for p in fn.params:
            st.declare(p.name, p.ctype)
            st.params.append(p.name)
        for decl in declarations(fn.body):  # TaggedRegion.stmts included
            st.declare(decl.name, decl.ctype)
        return st

    def declare(self, name: str, ctype: C.CType) -> None:
        old = self._types.get(name)
        if old is not None and old != ctype:
            raise PoetError(f"conflicting declaration of {name!r}: {old} vs {ctype}")
        self._types[name] = ctype

    # -- queries -----------------------------------------------------------
    def __contains__(self, name: str) -> bool:
        return name in self._types

    def __iter__(self) -> Iterator[str]:
        return iter(self._types)

    def type_of(self, name: str) -> C.CType:
        try:
            return self._types[name]
        except KeyError:
            raise PoetError(f"undeclared identifier {name!r}") from None

    def get(self, name: str) -> Optional[C.CType]:
        return self._types.get(name)

    def is_pointer(self, name: str) -> bool:
        t = self.get(name)
        return t is not None and t.is_pointer

    def is_float_scalar(self, name: str) -> bool:
        t = self.get(name)
        return t is not None and t.is_float

    def is_integer(self, name: str) -> bool:
        t = self.get(name)
        return t is not None and t.is_integer

    def pointers(self) -> list:
        return [n for n, t in self._types.items() if t.is_pointer]

    def fresh(self, prefix: str) -> str:
        """Return an undeclared name with the given prefix."""
        if prefix not in self._types:
            return prefix
        i = 0
        while f"{prefix}_{i}" in self._types:
            i += 1
        return f"{prefix}_{i}"

    def expr_type(self, e: C.Node) -> C.CType:
        """Infer the type of an expression (LP64 usual-arithmetic rules,
        simplified to the subset we generate)."""
        if isinstance(e, C.Id):
            return self.type_of(e.name)
        if isinstance(e, C.IntLit):
            return C.LONG
        if isinstance(e, C.FloatLit):
            return C.DOUBLE
        if isinstance(e, C.Cast):
            return e.ctype
        if isinstance(e, C.Index):
            return self.expr_type(e.base).pointee()
        if isinstance(e, C.UnaryOp):
            if e.op == "*":
                return self.expr_type(e.operand).pointee()
            if e.op == "&":
                return self.expr_type(e.operand).pointer_to()
            return self.expr_type(e.operand)
        if isinstance(e, C.BinOp):
            lt = self.expr_type(e.left)
            rt = self.expr_type(e.right)
            if e.op in ("<", "<=", ">", ">=", "==", "!=", "&&", "||"):
                return C.INT
            # pointer arithmetic keeps the pointer type
            if lt.is_pointer:
                return lt
            if rt.is_pointer:
                return rt
            if lt.base == "double" or rt.base == "double":
                return C.DOUBLE
            if lt.base == "float" or rt.base == "float":
                return C.FLOAT
            return C.LONG
        if isinstance(e, C.Call):
            return C.VOID
        raise PoetError(f"cannot type expression {type(e).__name__}")
