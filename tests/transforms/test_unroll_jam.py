"""Unroll&jam tests."""

import numpy as np
import pytest

from repro.blas.kernels import GEMM_SIMPLE_C
from repro.poet import cast as C
from repro.poet.errors import TransformError
from repro.poet.parser import parse_function
from repro.poet.printer import to_c
from repro.transforms.base import find_loop, loop_info
from repro.transforms.unroll_jam import UnrollJam, jam

from tests.conftest import needs_cc
from tests.transforms.helpers import run_c_function


def _loops(fn):
    return [n for n in fn.body.walk() if isinstance(n, C.For)]


def test_jam_fuses_identical_loops():
    fn = UnrollJam("j", 2).apply(parse_function(GEMM_SIMPLE_C))
    # still exactly three loops: j, i, l — the two i copies were fused
    assert len(_loops(fn)) == 3


def test_jam_outer_step_updated():
    fn = UnrollJam("j", 2).apply(parse_function(GEMM_SIMPLE_C))
    info = loop_info(find_loop(fn.body, "j"))
    assert info.step == 2


def test_double_unroll_jam_gemm_shape():
    fn = parse_function(GEMM_SIMPLE_C)
    fn = UnrollJam("j", 2).apply(fn)
    fn = UnrollJam("i", 2).apply(fn)
    inner = find_loop(fn.body, "l")
    # 4 accumulator updates jammed into the innermost loop
    updates = [s for s in inner.body.stmts if isinstance(s, C.Assign)]
    assert len(updates) == 4


def test_jam_renames_accumulators_distinctly():
    fn = parse_function(GEMM_SIMPLE_C)
    fn = UnrollJam("j", 2).apply(fn)
    fn = UnrollJam("i", 2).apply(fn)
    decls = {n.name for n in fn.body.walk()
             if isinstance(n, C.Decl) and n.ctype == C.DOUBLE}
    assert len(decls) == 4


def test_jam_function_merges_loop_slots():
    loop_a = parse_function(
        "void f() { for (l = 0; l < 8; l += 1) { x += 1; } }"
    ).body.stmts[0]
    loop_b = loop_a.clone()
    merged = jam([[loop_a], [loop_b]])
    assert len(merged) == 1
    assert len(merged[0].body.stmts) == 2


def test_jam_rejects_different_headers():
    loop_a = parse_function(
        "void f() { for (l = 0; l < 8; l += 1) { x += 1; } }"
    ).body.stmts[0]
    loop_b = parse_function(
        "void f() { for (l = 0; l < 9; l += 1) { x += 1; } }"
    ).body.stmts[0]
    with pytest.raises(TransformError):
        jam([[loop_a], [loop_b]])


def test_jam_shape_mismatch_raises():
    with pytest.raises(TransformError):
        jam([[C.Return()], []])


@needs_cc
@pytest.mark.parametrize("nu,mu", [(2, 2), (2, 4), (4, 2)])
def test_unroll_jam_preserves_gemm_semantics(nu, mu):
    rng = np.random.default_rng(nu * 10 + mu)
    mc, nc, kc, ldc = 8, 8, 16, 8
    a = rng.standard_normal(kc * mc)
    b = rng.standard_normal(nc * kc)
    c = np.zeros(ldc * nc)
    fn = parse_function(GEMM_SIMPLE_C)
    fn = UnrollJam("j", nu).apply(fn)
    fn = UnrollJam("i", mu).apply(fn)
    run_c_function(fn, [mc, nc, kc, a, b, c, ldc])
    am = a.reshape(kc, mc)
    bm = b.reshape(nc, kc)
    ref = np.zeros(ldc * nc)
    for j in range(nc):
        for i in range(mc):
            ref[j * ldc + i] = am[:, i] @ bm[j, :]
    assert np.allclose(c, ref)


def test_unroll_jam_renames_a_declaration_nested_in_the_inner_loop():
    src = """
    void g(long m, long n, double* A, double* C) {
        long i;
        long j;
        for (j = 0; j < n; j += 1) {
            for (i = 0; i < m; i += 1) {
                double t = A[i + j * m];
                C[i + j * m] = t + 1.0;
            }
        }
    }
    """
    assert to_c(UnrollJam("j", 2).apply(parse_function(src))) == """\
void g(long m, long n, double* A, double* C) {
    long i;
    long j;
    for (j = 0; j < n; j += 2) {
        for (i = 0; i < m; i += 1) {
            double t_u0 = A[i + j * m];
            double t_u1 = A[i + (j + 1) * m];
            C[i + j * m] = t_u0 + 1.0;
            C[i + (j + 1) * m] = t_u1 + 1.0;
        }
    }
}"""
