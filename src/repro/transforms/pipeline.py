"""The Optimized C Kernel Generator (paper §2.1).

Composes the five source-to-source transformations in the order used by the
paper — unroll&jam, unrolling, (accumulator splitting,) strength reduction,
scalar replacement, prefetching — under a single parameterized
configuration.  The configuration is the empirical-tuning search space
(:mod:`repro.tuning` sweeps it).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Tuple, Union

from ..obs import span
from ..poet import cast as C
from ..poet.parser import parse_function
from ..poet.symtab import SymbolTable
from .base import Transform
from .prefetch import InsertPrefetch
from .scalar_replacement import HoistDecls, ScalarReplace
from .strength_reduction import StrengthReduce
from .unroll import SplitAccumulator, Unroll
from .unroll_jam import UnrollJam


@dataclass(frozen=True)
class OptimizationConfig:
    """Parameters of the Optimized C Kernel Generator.

    :param unroll_jam: ordered ``(loop_var, factor)`` pairs — each outer loop
        is unrolled by its factor and jammed (applied outermost first).
    :param unroll: ordered ``(loop_var, factor)`` pairs of plain unrolling.
    :param split: ``(loop_var, accumulator, ways)`` accumulator splits,
        applied after unrolling.
    :param prefetch_distance: elements ahead (int, or dict per array/pointer,
        or None to disable prefetching).
    :param prefetch_level: 0 / 1 / 2 / "nta".
    :param assume_divisible: skip remainder loops (the blocking drivers
        guarantee divisibility of the trip counts they pass in).
    """

    unroll_jam: Tuple[Tuple[str, int], ...] = ()
    unroll: Tuple[Tuple[str, int], ...] = ()
    split: Tuple[Tuple[str, str, int], ...] = ()
    prefetch_distance: Optional[Union[int, Dict[str, int]]] = None
    prefetch_level: Union[int, str] = 0
    assume_divisible: bool = True

    def with_(self, **kw) -> "OptimizationConfig":
        """Return a copy with the given fields replaced."""
        return replace(self, **kw)

    def describe(self) -> str:
        parts = []
        for v, f in self.unroll_jam:
            parts.append(f"uj({v})={f}")
        for v, f in self.unroll:
            parts.append(f"u({v})={f}")
        for v, a, w in self.split:
            parts.append(f"split({a})={w}")
        if self.prefetch_distance is not None:
            parts.append(f"pf={self.prefetch_distance}")
        return ", ".join(parts) if parts else "baseline"


def build_pipeline(config: OptimizationConfig) -> List[Transform]:
    """Transforms in application order for ``config``."""
    pipeline: List[Transform] = []
    for var, factor in config.unroll_jam:
        pipeline.append(UnrollJam(var, factor))
    for var, factor in config.unroll:
        pipeline.append(
            Unroll(var, factor, assume_divisible=config.assume_divisible)
        )
    for var, acc, ways in config.split:
        pipeline.append(SplitAccumulator(var, acc, ways))
    pipeline.append(StrengthReduce())
    pipeline.append(ScalarReplace())
    pipeline.append(HoistDecls())
    if config.prefetch_distance is not None:
        pipeline.append(
            InsertPrefetch(distance=config.prefetch_distance,
                           level=config.prefetch_level)
        )
    return pipeline


def optimize_c_kernel(kernel: Union[str, C.FuncDef],
                      config: OptimizationConfig) -> C.FuncDef:
    """Run the Optimized C Kernel Generator on a simple-C kernel.

    ``kernel`` may be C source text or an already-parsed function.  A fresh
    tree is produced; the input is never mutated.
    """
    return optimize_with_symtab(kernel, config)[0]


def optimize_with_symtab(kernel: Union[str, C.FuncDef],
                         config: OptimizationConfig
                         ) -> Tuple[C.FuncDef, SymbolTable]:
    """:func:`optimize_c_kernel`, plus the result's symbol table.

    The table is built once, by the first transform that reads it (after
    the unrolling stages, which rename declarations), and the transforms
    that declare names keep it current, so nothing rebuilds it.
    """
    symtab: Optional[SymbolTable] = None
    with span("transforms.optimize_c", config=config.describe()):
        fn = (parse_function(kernel) if isinstance(kernel, str)
              else kernel.clone())
        for transform in build_pipeline(config):
            with span(f"transform.{type(transform).__name__}"):
                if not transform.reads_symtab:
                    fn = transform.apply(fn)
                    continue
                if symtab is None:
                    symtab = SymbolTable.of_function(fn)
                fn = transform.apply(fn, symtab)
    return fn, symtab
