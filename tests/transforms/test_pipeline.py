"""Optimized C Kernel Generator pipeline tests."""

import numpy as np
import pytest

from repro.blas.kernels import DOT_SIMPLE_C, GEMM_SIMPLE_C
from repro.poet import cast as C
from repro.poet.parser import parse_function
from repro.poet.printer import to_c
from repro.blas.kernels import KERNEL_SOURCES
from repro.core.framework import Augem, default_config
from repro.isa.arch import SKYLAKE_X
from repro.poet.symtab import SymbolTable
from repro.transforms.pipeline import (
    OptimizationConfig,
    build_pipeline,
    optimize_c_kernel,
    optimize_with_symtab,
)

from tests.conftest import needs_cc
from tests.transforms.helpers import run_c_function


def test_build_pipeline_order():
    cfg = OptimizationConfig(
        unroll_jam=(("j", 2),),
        unroll=(("l", 2),),
        split=(("i", "res", 4),),
        prefetch_distance=64,
    )
    names = [t.name for t in build_pipeline(cfg)]
    assert names == [
        "unroll_jam", "unroll", "split_accumulator",
        "strength_reduction", "scalar_replacement", "hoist_decls",
        "prefetch",
    ]


def test_no_prefetch_when_distance_none():
    names = [t.name for t in build_pipeline(OptimizationConfig())]
    assert "prefetch" not in names


def test_optimize_does_not_mutate_input_function():
    fn = parse_function(GEMM_SIMPLE_C)
    before = to_c(fn)
    optimize_c_kernel(fn, OptimizationConfig(unroll_jam=(("j", 2),)))
    assert to_c(fn) == before


def test_optimize_accepts_source_text():
    out = optimize_c_kernel(GEMM_SIMPLE_C, OptimizationConfig())
    assert out.name == "dgemm_kernel"


@pytest.mark.parametrize("family", sorted(KERNEL_SOURCES))
def test_kept_symbol_table_matches_a_rebuilt_one(family):
    # the transforms declare what they add, so the one table built after
    # unrolling describes the final function exactly (in its own order)
    source, _ = KERNEL_SOURCES[family]
    cfg = default_config(family, SKYLAKE_X).with_(prefetch_distance=64)
    fn, symtab = optimize_with_symtab(source, cfg)
    rebuilt = SymbolTable.of_function(fn)
    assert {n: symtab.type_of(n) for n in symtab} == \
        {n: rebuilt.type_of(n) for n in rebuilt}
    assert symtab.params == rebuilt.params


def test_one_generation_builds_one_symbol_table(monkeypatch):
    builds = []
    real = SymbolTable.of_function.__func__

    def counting(cls, fn):
        builds.append(fn.name)
        return real(cls, fn)

    monkeypatch.setattr(SymbolTable, "of_function", classmethod(counting))
    cfg = default_config("gemm", SKYLAKE_X).with_(prefetch_distance=64)
    Augem(arch=SKYLAKE_X).generate_named("gemm", config=cfg)
    assert builds == ["dgemm_kernel"]


def test_config_describe_and_with():
    cfg = OptimizationConfig(unroll_jam=(("j", 4),))
    assert "uj(j)=4" in cfg.describe()
    cfg2 = cfg.with_(prefetch_distance=32)
    assert cfg2.prefetch_distance == 32 and cfg.prefetch_distance is None
    assert OptimizationConfig().describe() == "baseline"


def test_full_gemm_pipeline_matches_paper_fig13_shape():
    cfg = OptimizationConfig(unroll_jam=(("j", 2), ("i", 2)),
                             prefetch_distance={"A": 64, "B": 64})
    fn = optimize_c_kernel(GEMM_SIMPLE_C, cfg)
    text = to_c(fn)
    # the landmark artifacts of paper Fig. 13:
    assert "ptr_A" in text and "ptr_B" in text and "ptr_C" in text
    assert "prefetch_t0" in text
    assert text.count("tmp") > 10  # scalar replacement temps
    loops = [n for n in fn.body.walk() if isinstance(n, C.For)]
    assert len(loops) == 3


@needs_cc
def test_full_pipeline_preserves_gemm_semantics():
    rng = np.random.default_rng(8)
    mc, nc, kc, ldc = 8, 4, 16, 8
    a = rng.standard_normal(kc * mc)
    b = rng.standard_normal(nc * kc)
    c = np.zeros(ldc * nc)
    cfg = OptimizationConfig(unroll_jam=(("j", 2), ("i", 4)),
                             unroll=(("l", 2),),
                             prefetch_distance=16)
    fn = optimize_c_kernel(GEMM_SIMPLE_C, cfg)
    run_c_function(fn, [mc, nc, kc, a, b, c, ldc])
    am = a.reshape(kc, mc)
    bm = b.reshape(nc, kc)
    for j in range(nc):
        for i in range(mc):
            assert np.isclose(c[j * ldc + i], am[:, i] @ bm[j, :])


@needs_cc
def test_full_pipeline_preserves_dot_semantics():
    rng = np.random.default_rng(9)
    n = 32
    x = rng.standard_normal(n)
    y = rng.standard_normal(n)
    cfg = OptimizationConfig(unroll=(("i", 8),), split=(("i", "res", 8),))
    fn = optimize_c_kernel(DOT_SIMPLE_C, cfg)
    assert np.isclose(run_c_function(fn, [n, x, y]), x @ y)
