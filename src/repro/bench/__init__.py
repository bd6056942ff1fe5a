"""Benchmark harness: regenerates every figure and table of paper §5."""

from .figures import (
    ALL_FIGURES,
    fig18_dgemm,
    fig19_dgemv,
    fig20_daxpy,
    fig21_ddot,
)
from .harness import (
    Library,
    make_atlas_proxy_library,
    make_augem_library,
    make_goto_proxy_library,
    make_naive_library,
    make_vendor_library,
    standard_lineup,
)
from .report import FigureResult, Series, TableResult
from .tables import ROUTINES, table5_platform, table6_level3

__all__ = [
    "Library",
    "standard_lineup",
    "make_augem_library",
    "make_vendor_library",
    "make_atlas_proxy_library",
    "make_goto_proxy_library",
    "make_naive_library",
    "fig18_dgemm",
    "fig19_dgemv",
    "fig20_daxpy",
    "fig21_ddot",
    "ALL_FIGURES",
    "table5_platform",
    "table6_level3",
    "ROUTINES",
    "FigureResult",
    "Series",
    "TableResult",
]
