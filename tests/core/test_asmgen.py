"""Assembly Kernel Generator tests — small C-subset functions are generated
and executed under the emulator, comparing against Python-evaluated
references.  This exercises loop translation, GP allocation + spilling,
pointer arithmetic, prologue/epilogue, and float glue code."""

import numpy as np
import pytest

from repro.core.asmgen import CodegenError, KernelCodeGen, generate_assembly_items
from repro.core.identifier import identify_templates
from repro.core.vectorize import plan_vectorization
from repro.emu.run import call_items
from repro.isa.arch import GENERIC_SSE, HASWELL
from repro.isa.instructions import Instr
from repro.poet.parser import parse_function
from repro.transforms.pipeline import OptimizationConfig, optimize_c_kernel


def gen(src, arch=HASWELL, cfg=None, strategy="auto"):
    fn = optimize_c_kernel(src, cfg or OptimizationConfig())
    fn, regions = identify_templates(fn)
    plan = plan_vectorization(regions, arch, strategy)
    return generate_assembly_items(fn, arch, plan)


def test_counted_loop_executes_correct_trip_count():
    items = gen("""
    void f(long n, double* out) {
        long i;
        for (i = 0; i < n; i += 1) {
            out[0] += 1.0;
        }
    }
    """)
    out = np.zeros(1)
    call_items(items, [17, out])
    assert out[0] == 17.0


def test_zero_trip_loop_skipped():
    items = gen("""
    void f(long n, double* out) {
        long i;
        for (i = 0; i < n; i += 1) {
            out[0] += 1.0;
        }
    }
    """)
    out = np.zeros(1)
    call_items(items, [0, out])
    assert out[0] == 0.0


def test_nested_loops_and_pointer_arithmetic():
    items = gen("""
    void f(long m, long n, double* a) {
        long i;
        long j;
        double* p;
        for (i = 0; i < m; i += 1) {
            p = a + i * n;
            for (j = 0; j < n; j += 1) {
                p[j] = p[j] + 1.0;
            }
        }
    }
    """)
    a = np.zeros(12)
    call_items(items, [3, 4, a])
    assert np.all(a == 1.0)


def test_seventh_argument_from_stack():
    items = gen("""
    void f(long a, long b, long c, long d, long e, long g, long h, double* out) {
        out[0] = 0.0;
        long s;
        s = a + b + c + d + e + g + h;
        for (a = 0; a < s; a += 1) {
            out[0] += 1.0;
        }
    }
    """)
    out = np.zeros(1)
    call_items(items, [1, 2, 3, 4, 5, 6, 7, out])
    assert out[0] == 28.0


def test_float_param_passed_in_xmm():
    items = gen("""
    void f(double alpha, double* out) {
        out[0] = alpha;
    }
    """)
    out = np.zeros(1)
    call_items(items, [2.5, out])
    assert out[0] == 2.5


def test_double_return_value():
    items = gen("""
    double f(double* x) {
        double a;
        a = x[0];
        return a;
    }
    """)
    assert call_items(items, [np.array([3.25])]) == 3.25


def test_if_branch_taken_and_not():
    src = """
    void f(long n, double* out) {
        if (n < 10) {
            out[0] = 1.0;
        } else {
            out[0] = out[1];
        }
    }
    """
    items = gen(src)
    out = np.array([0.0, 7.0])
    call_items(items, [5, out])
    assert out[0] == 1.0
    out = np.array([0.0, 7.0])
    call_items(items, [50, out])
    assert out[0] == 7.0


def test_spilled_variables_roundtrip():
    # 20 integer locals force spilling beyond the 13 allocatable registers
    decls = "".join(f"long v{k};" for k in range(20))
    inits = "".join(f"v{k} = {k};" for k in range(20))
    total = " + ".join(f"v{k}" for k in range(20))
    items = gen(f"""
    void f(double* out) {{
        {decls}
        {inits}
        long s;
        s = {total};
        out[0] = 0.0;
        for (v0 = 0; v0 < s; v0 += 1) {{
            out[0] += 1.0;
        }}
    }}
    """)
    out = np.zeros(1)
    call_items(items, [out])
    assert out[0] == sum(range(20))


def test_callee_saved_registers_restored():
    items = gen("void f(double* x) { x[0] = 1.0; }")
    pushes = [i for i in items if isinstance(i, Instr) and i.mnemonic == "push"]
    pops = [i for i in items if isinstance(i, Instr) and i.mnemonic == "pop"]
    assert len(pushes) == len(pops)
    assert [p.operands[0] for p in pushes] == [
        p.operands[0] for p in reversed(pops)]


def test_avx_epilogue_has_vzeroupper():
    items = gen("void f(double* x) { x[0] = 0.0; }", arch=HASWELL)
    mnems = [i.mnemonic for i in items if isinstance(i, Instr)]
    assert "vzeroupper" in mnems
    items_sse = gen("void f(double* x) { x[0] = 0.0; }", arch=GENERIC_SSE)
    mnems_sse = [i.mnemonic for i in items_sse if isinstance(i, Instr)]
    assert "vzeroupper" not in mnems_sse


def test_prefetch_translated():
    cfg = OptimizationConfig(prefetch_distance=16)
    items = gen("""
    void f(long n, double* x, double* y) {
        long i;
        for (i = 0; i < n; i += 1) {
            y[i] += x[i] * 2.0;
        }
    }
    """, cfg=cfg)
    mnems = [i.mnemonic for i in items if isinstance(i, Instr)]
    assert "prefetcht0" in mnems


def test_nonzero_float_literal_materialized():
    items = gen("void f(double* x) { x[0] = 3.5; }")
    out = np.zeros(1)
    call_items(items, [out])
    assert out[0] == 3.5


def test_float_literal_in_expression():
    items = gen("double f(double* x) { double a; a = x[0]; return a * 2.0 + 0.25; }")
    assert call_items(items, [np.array([3.0])]) == 6.25


def test_general_float_expression_glue():
    items = gen("""
    double f(double* x) {
        double a;
        double b;
        a = x[0];
        b = x[1];
        return a * b + a;
    }
    """)
    got = call_items(items, [np.array([2.0, 3.0])])
    assert got == 2.0 * 3.0 + 2.0


def test_non_canonical_downward_loop_still_translates():
    # the transforms skip non-canonical loops, but the Assembly Kernel
    # Generator must still translate them faithfully
    items = gen("""
    void f(long n, double* out) {
        long i;
        out[0] = 0.0;
        for (i = n; i != 0; i -= 1) {
            out[0] += 1.0;
        }
    }
    """)
    out = np.zeros(1)
    call_items(items, [9, out])
    assert out[0] == 9.0


def test_gp_assignment_does_not_depend_on_symbol_table_order():
    # the table the transforms keep current lists names in the order they
    # were declared, not the function's: the GP homes must not care
    from repro.blas.kernels import GEMM_SIMPLE_C
    from repro.poet.symtab import SymbolTable

    cfg = OptimizationConfig(unroll_jam=(("j", 4), ("i", 8)),
                             unroll=(("l", 2),))
    fn = optimize_c_kernel(GEMM_SIMPLE_C, cfg)
    fn, regions = identify_templates(fn)
    plan = plan_vectorization(regions, HASWELL, "auto")
    table = SymbolTable.of_function(fn)
    shuffled = SymbolTable()
    shuffled.params = list(table.params)
    for name in reversed(list(table)):
        shuffled.declare(name, table.type_of(name))
    homes = [KernelCodeGen(fn, HASWELL, plan, symtab=t).gp_home
             for t in (None, table, shuffled)]
    assert homes[0] == homes[1] == homes[2]
    assert list(homes[0].items()) == list(homes[2].items())
