"""Live-range analysis tests."""

from repro.core.liveness import Liveness
from repro.poet import cast as C
from repro.poet.parser import parse_function


def test_straight_line_ranges():
    fn = parse_function("""
    void f(double* x) {
        double a;
        double b;
        a = x[0];
        b = a * a;
        x[1] = b;
    }
    """)
    lv = Liveness(fn)
    assert lv.first_use("a") < lv.last_use("a")
    assert lv.last_use("a") < lv.last_use("b")


def test_dead_after_last_use():
    fn = parse_function("""
    void f(double* x) {
        double a;
        a = x[0];
        x[1] = a;
        x[2] = 0.0;
    }
    """)
    lv = Liveness(fn)
    last_stmt = fn.body.stmts[-1]
    assert lv.dead_after("a", lv.position_of(last_stmt))


def test_loop_extends_ranges_to_loop_end():
    fn = parse_function("""
    void f(long n, double* x) {
        long i;
        double acc;
        acc = 0.0;
        for (i = 0; i < n; i += 1) {
            acc = acc + x[i];
        }
        x[0] = acc;
    }
    """)
    lv = Liveness(fn)
    loop = fn.body.stmts[3]
    inner = loop.body.stmts[0]
    # acc used inside the loop: not dead at the inner statement
    assert not lv.dead_after("acc", lv.position_of(inner))
    # but dead after the final store
    assert lv.dead_after("acc", lv.position_of(fn.body.stmts[-1]))


def test_inner_loop_names_live_to_the_outer_loop_end():
    fn = parse_function("""
    void f(long n, double* x) {
        long i;
        long j;
        double t;
        for (i = 0; i < n; i += 1) {
            for (j = 0; j < n; j += 1) {
                t = x[j];
            }
            x[i] = 0.0;
        }
        x[0] = 1.0;
    }
    """)
    lv = Liveness(fn)
    outer = fn.body.stmts[3]
    after_inner = outer.body.stmts[1]
    # t is only mentioned in the inner loop, but the outer loop runs it
    # again, so it lives past every statement of the outer body
    assert not lv.dead_after("t", lv.position_of(after_inner))
    assert lv.dead_after("t", lv.position_of(fn.body.stmts[-1]))


def test_params_live_from_entry():
    fn = parse_function("void f(long n) { n = n + 1; }")
    lv = Liveness(fn)
    assert lv.first_use("n") == 0


def test_live_out_of_statement():
    fn = parse_function("""
    void f(double* x) {
        double a;
        a = x[0];
        x[1] = a;
    }
    """)
    lv = Liveness(fn)
    first = fn.body.stmts[1]  # a = x[0]
    assert "a" in lv.live_out(first)
    assert "a" not in lv.live_out(fn.body.stmts[-1])


def test_tagged_region_mentions_counted():
    fn = parse_function("""
    void f(double* x) {
        double t;
        t = x[0];
        x[1] = t;
    }
    """)
    region = C.TaggedRegion(template="mmSTORE", stmts=fn.body.stmts[1:])
    fn.body.stmts = [fn.body.stmts[0], region]
    lv = Liveness(fn)
    assert lv.last_use("t") == lv.position_of(region)


def test_unknown_var_defaults():
    fn = parse_function("void f() { }")
    lv = Liveness(fn)
    assert lv.last_use("ghost") == -1
    assert lv.dead_after("ghost", 100)
