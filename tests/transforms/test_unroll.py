"""Loop unrolling and accumulator splitting tests."""

import numpy as np
import pytest

from repro.poet import cast as C
from repro.poet.errors import TransformError
from repro.poet.parser import parse_function
from repro.poet.printer import to_c
from repro.transforms.base import find_loop, loop_info
from repro.transforms.unroll import SplitAccumulator, Unroll

from tests.conftest import needs_cc
from tests.transforms.helpers import run_c_function

AXPY = """
void axpy(long n, double alpha, double* x, double* y) {
    long i;
    for (i = 0; i < n; i += 1) {
        y[i] += x[i] * alpha;
    }
}
"""

DOT = """
double dot(long n, double* x, double* y) {
    long i;
    double res = 0.0;
    for (i = 0; i < n; i += 1) {
        res += x[i] * y[i];
    }
    return res;
}
"""


def test_unroll_replicates_body():
    fn = Unroll("i", 4).apply(parse_function(AXPY))
    loop = find_loop(fn.body, "i")
    assert len(loop.body.stmts) == 4


def test_unroll_adjusts_step():
    fn = Unroll("i", 4).apply(parse_function(AXPY))
    info = loop_info(find_loop(fn.body, "i"))
    assert info.step == 4


def test_unroll_shifts_indices():
    fn = Unroll("i", 2).apply(parse_function(AXPY))
    text = to_c(fn)
    assert "x[i + 1]" in text and "y[i + 1]" in text


def test_unroll_factor_one_is_identity():
    fn = parse_function(AXPY)
    before = to_c(fn)
    assert to_c(Unroll("i", 1).apply(fn)) == before


def test_unroll_renames_declared_locals():
    src = """
    void f(long n, double* x) {
        long i;
        for (i = 0; i < n; i += 1) {
            double t = x[i];
            x[i] = t * t;
        }
    }
    """
    fn = Unroll("i", 2).apply(parse_function(src))
    names = {n.name for n in fn.body.walk() if isinstance(n, C.Decl)}
    locals_ = names - {"i"}
    assert len(locals_) == 2  # two distinct renamed copies of t


def test_unroll_missing_loop_raises():
    with pytest.raises(TransformError):
        Unroll("z", 2).apply(parse_function(AXPY))


def test_unroll_invalid_factor_raises():
    with pytest.raises(TransformError):
        Unroll("i", 0)


def test_unroll_with_remainder_emits_cleanup_loop():
    fn = Unroll("i", 4, assume_divisible=False).apply(parse_function(AXPY))
    loops = [n for n in fn.body.walk() if isinstance(n, C.For)]
    assert len(loops) == 2
    assert loops[1].init is None  # remainder continues from current i


@needs_cc
def test_unroll_preserves_semantics_divisible():
    rng = np.random.default_rng(0)
    n = 32
    x = rng.standard_normal(n)
    y0 = rng.standard_normal(n)
    y_ref = y0 + 2.5 * x
    fn = Unroll("i", 4).apply(parse_function(AXPY))
    y = y0.copy()
    run_c_function(fn, [n, 2.5, x, y])
    assert np.allclose(y, y_ref)


@needs_cc
@pytest.mark.parametrize("n", [1, 5, 31, 32, 33])
def test_unroll_remainder_preserves_semantics(n):
    rng = np.random.default_rng(n)
    x = rng.standard_normal(n)
    y0 = rng.standard_normal(n)
    fn = Unroll("i", 4, assume_divisible=False).apply(parse_function(AXPY))
    y = y0.copy()
    run_c_function(fn, [n, -1.5, x, y])
    assert np.allclose(y, y0 - 1.5 * x)


# -- accumulator splitting ----------------------------------------------------

def test_split_accumulator_renames_updates():
    fn = Unroll("i", 4).apply(parse_function(DOT))
    fn = SplitAccumulator("i", "res", 4).apply(fn)
    text = to_c(fn)
    assert "res_s0" in text and "res_s3" in text
    assert "res += res_s0 + res_s1 + res_s2 + res_s3;" in text


def test_split_accumulator_declares_parts_zeroed():
    fn = Unroll("i", 2).apply(parse_function(DOT))
    fn = SplitAccumulator("i", "res", 2).apply(fn)
    decls = [s for s in fn.body.walk()
             if isinstance(s, C.Decl) and s.name.startswith("res_s")]
    assert len(decls) == 2
    assert all(d.init == C.FloatLit(0.0) for d in decls)


def test_split_requires_updates_in_loop():
    with pytest.raises(TransformError):
        SplitAccumulator("i", "nosuch", 2).apply(parse_function(DOT))


def test_split_ways_one_is_identity():
    fn = parse_function(DOT)
    before = to_c(fn)
    assert to_c(SplitAccumulator("i", "res", 1).apply(fn)) == before


@needs_cc
def test_split_preserves_semantics():
    rng = np.random.default_rng(1)
    n = 64
    x = rng.standard_normal(n)
    y = rng.standard_normal(n)
    fn = Unroll("i", 8).apply(parse_function(DOT))
    fn = SplitAccumulator("i", "res", 8).apply(fn)
    got = run_c_function(fn, [n, x, y])
    assert np.isclose(got, x @ y)


# -- printed-C pins: the exact text of an unrolled body ---------------------

def test_unroll_shifts_index_inside_a_renamed_temp_initializer():
    src = """
    void f(long n, double* x, double* y) {
        long i;
        for (i = 0; i < n; i += 1) {
            double t = x[2 * i + 1];
            long k = i + n;
            y[k] = t * t;
        }
    }
    """
    assert to_c(Unroll("i", 3).apply(parse_function(src))) == """\
void f(long n, double* x, double* y) {
    long i;
    for (i = 0; i < n; i += 3) {
        double t_u0 = x[2 * i + 1];
        long k_u0 = i + n;
        y[k_u0] = t_u0 * t_u0;
        double t_u1 = x[2 * (i + 1) + 1];
        long k_u1 = i + 1 + n;
        y[k_u1] = t_u1 * t_u1;
        double t_u2 = x[2 * (i + 2) + 1];
        long k_u2 = i + 2 + n;
        y[k_u2] = t_u2 * t_u2;
    }
}"""


def test_unroll_remainder_loop_keeps_the_original_body():
    src = """
    void axpy(long n, double alpha, double* x, double* y) {
        long i;
        for (i = 0; i < n; i += 1) {
            double t = x[i] * alpha;
            y[i] += t;
        }
    }
    """
    fn = Unroll("i", 4, assume_divisible=False).apply(parse_function(src))
    assert to_c(fn) == """\
void axpy(long n, double alpha, double* x, double* y) {
    long i;
    for (i = 0; i < n - 3; i += 4) {
        double t_u0 = x[i] * alpha;
        y[i] += t_u0;
        double t_u1 = x[i + 1] * alpha;
        y[i + 1] += t_u1;
        double t_u2 = x[i + 2] * alpha;
        y[i + 2] += t_u2;
        double t_u3 = x[i + 3] * alpha;
        y[i + 3] += t_u3;
    }
    for (; i < n; i += 1) {
        double t = x[i] * alpha;
        y[i] += t;
    }
}"""


def test_unrolled_copies_share_no_node_with_the_loop_body():
    fn = parse_function(AXPY)
    body = find_loop(fn.body, "i").body
    before = {id(n) for s in body.stmts for n in s.walk()}
    fn = Unroll("i", 3).apply(fn)
    after = {id(n) for s in find_loop(fn.body, "i").body.stmts
             for n in s.walk()}
    assert not before & after


def test_unroll_rejects_a_body_that_redeclares_the_induction_variable():
    src = """
    void f(long n, double* x) {
        long i;
        for (i = 0; i < n; i += 1) {
            long i = 2;
            x[i] = 1.0;
        }
    }
    """
    with pytest.raises(TransformError, match="induction variable"):
        Unroll("i", 2).apply(parse_function(src))
