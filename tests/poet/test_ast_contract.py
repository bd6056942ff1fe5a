"""The AST core's contract: what ``children``/``walk``/``clone``/``rewrite``
and ``replace_ids`` promise every transform, checked against a generic
field scan so a faster implementation cannot drift from it."""

from __future__ import annotations

from dataclasses import fields

import pytest

from repro.poet import cast as C
from repro.poet.parser import parse_program, parse_stmt
from repro.poet.pattern import Bind, ast_equal
from repro.poet.printer import to_c
from repro.poet.traversal import NodeTransformer, replace_ids, rewrite

SOURCE = """
void f(long n, double alpha, double* x, double* y) {
    long i;
    double s = 0.0;
    for (i = 0; i < n; i += 1) {
        double t = (double) x[i] * -alpha;
        if (i < 2) {
            prefetch_t0(&y[i + 8]);
        } else {
            y[i] += t;
        }
        s += *x;
    }
    for (; i < n; i += 1) {
        y[i] = 1;
    }
    return;
}

double g(double* x) {
    return x[0];
}
"""


def _generic_children(node):
    """The field scan every node class must agree with: nodes held in a
    field, or in a list/tuple field, in field order."""
    out = []
    for f in fields(node):
        v = getattr(node, f.name)
        if isinstance(v, C.Node):
            out.append(v)
        elif isinstance(v, (list, tuple)):
            out.extend(item for item in v if isinstance(item, C.Node))
    return out


def _samples():
    prog = parse_program(SOURCE)
    nodes = list(prog.walk())
    region = C.TaggedRegion(
        "mvUnrolledCOMP", [parse_stmt("y[0] += x[0] * a;")],
        {"alpha": C.Id("a"), "n": 2})
    nodes += list(region.walk())
    nodes += [C.Call("prefetch_t0", []), C.Return(),
              C.If(C.Id("c"), C.Block([])), C.Decl("d", C.DOUBLE),
              C.For(None, None, None, C.Block([])),
              Bind("x", C.Id, lambda n: True)]
    return nodes


def _node_classes():
    return {cls for cls in vars(C).values()
            if isinstance(cls, type) and issubclass(cls, C.Node)
            and cls is not C.Node} | {Bind}


def test_samples_cover_every_node_class():
    assert _node_classes() <= {type(n) for n in _samples()}


@pytest.mark.parametrize("cls", sorted(_node_classes(), key=lambda c: c.__name__),
                         ids=lambda c: c.__name__)
def test_children_equal_the_generic_field_scan(cls):
    for node in (n for n in _samples() if type(n) is cls):
        got = node.children()
        want = _generic_children(node)
        assert len(got) == len(want)
        assert all(a is b for a, b in zip(got, want))


def test_walk_is_preorder_over_children():
    prog = parse_program(SOURCE)

    def preorder(n):
        yield n
        for c in _generic_children(n):
            yield from preorder(c)

    assert [id(n) for n in prog.walk()] == [id(n) for n in preorder(prog)]


def _lists(node):
    return [getattr(node, f.name) for f in fields(node)
            if isinstance(getattr(node, f.name), list)]


def test_clone_keeps_annotations_and_shares_no_node_or_list():
    prog = parse_program(SOURCE)
    prog.funcs[0].body.stmts[2].note = {"depth": [1]}  # in-place annotation
    prog.funcs[0].params[1].tag = "scalar"
    copy = prog.clone()
    assert ast_equal(copy, prog) and to_c(copy) == to_c(prog)
    assert copy.funcs[0].body.stmts[2].note == {"depth": [1]}
    assert copy.funcs[0].body.stmts[2].note is not prog.funcs[0].body.stmts[2].note
    assert copy.funcs[0].params[1].tag == "scalar"
    src_nodes = list(prog.walk())
    new_nodes = list(copy.walk())
    assert len(src_nodes) == len(new_nodes)
    assert not {id(n) for n in src_nodes} & {id(n) for n in new_nodes}
    src_lists = {id(v) for n in src_nodes for v in _lists(n)}
    assert not src_lists & {id(v) for n in new_nodes for v in _lists(n)}


def test_clone_copies_region_payload():
    region = C.TaggedRegion("mvCOMP", [parse_stmt("y[0] = x[0];")],
                            {"arr": C.Id("x"), "lanes": [1, 2]})
    copy = region.clone()
    assert copy.binding == region.binding
    assert copy.binding is not region.binding
    assert copy.binding["arr"] is not region.binding["arr"]
    assert copy.binding["lanes"] is not region.binding["lanes"]


def test_rewrite_is_bottom_up():
    seen = []

    def fn(n):
        seen.append(type(n).__name__)
        return None

    rewrite(parse_stmt("x = a + 1;"), fn)
    assert seen == ["Id", "Id", "IntLit", "BinOp", "Assign"]


def test_rewrite_deletes_and_splices_in_list_fields():
    prog = parse_program("void f() { kill = 1; dup = 2; keep = 3; }")

    def fn(n):
        if isinstance(n, C.Assign) and n.lhs.name == "kill":
            return NodeTransformer.DELETE
        if isinstance(n, C.Assign) and n.lhs.name == "dup":
            return [n, C.Assign(C.Id("dup2"), "=", C.IntLit(2))]
        return None

    out = rewrite(prog, fn)
    assert out is prog
    assert to_c(prog.funcs[0].body) == "{\n    dup = 2;\n    dup2 = 2;\n    keep = 3;\n}"


def test_rewrite_replaces_a_single_child_field():
    out = rewrite(parse_stmt("x = a;"),
                  lambda n: C.IntLit(7) if isinstance(n, C.Id) and n.name == "a" else None)
    assert to_c(out) == "x = 7;"


def test_replace_ids_substitutes_fresh_clones_of_expression_values():
    value = C.BinOp("+", C.Id("i"), C.IntLit(1))
    src = parse_stmt("y[i] = x[i] * i;")
    out = replace_ids(src, {"i": value})
    assert to_c(out) == "y[i + 1] = x[i + 1] * (i + 1);"
    subs = [n for n in out.walk() if isinstance(n, C.BinOp) and n.op == "+"]
    assert len(subs) == 3
    assert len({id(s) for s in subs}) == 3
    assert all(s is not value for s in subs)
    subs[0].right.value = 5  # editing the result leaves the value alone
    assert value.right.value == 1
    assert to_c(src) == "y[i] = x[i] * i;"
