"""Thread-safety proof for the parallel GEBP driver.

Covers the multithreading contract end to end:

- **determinism** — the threaded result is *bit-identical* to the
  single-threaded result at every thread count, for edge shapes and both
  packed-B layouts, through the emulator (no specific hardware needed);
- **race stress** — one shared :class:`GemmDriver` hammered from 8
  caller threads returns uncorrupted results and never aliases pooled
  packing buffers between workers;
- **pool reuse** — steady-state calls are served from the buffer pool
  (hit counter grows, allocation counter plateaus);
- **fault injection** — a ``worker_die`` fault mid-tile fails the whole
  call cleanly: the caller's C is untouched, every pooled buffer is
  returned, and the next call succeeds;
- **alpha folding** — no ``a_block * alpha`` temporary is materialized
  per tile (allocation tracing);
- **C in place** — the result is the call's one full-size array:
  C-contiguous, owning its memory, never the caller's ``c``.
"""

from __future__ import annotations

import threading
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.backend.faults import (FaultPlan, InjectedWorkerFault,
                                  clear_fault_plan, install_fault_plan)
from repro.blas.gemm import BlockSizes, GemmDriver, split_for_threads
from repro.blas.threading import (PackBufferPool, PoolAliasError, WorkerPool,
                                  resolve_threads)
from repro.core.framework import Augem
from repro.emu.run import call_items
from repro.isa.arch import GENERIC_SSE

TINY_BLOCKS = BlockSizes(mc=8, kc=8, nc=8)

#: M, N, K: non-multiples of mu/nu/ku, tall-skinny, wide, 1x1, zero-dim
EDGE_SHAPES = [(1, 1, 1), (13, 7, 9), (33, 5, 17), (5, 33, 4),
               (16, 16, 16), (0, 5, 3), (5, 0, 3), (5, 3, 0)]

THREAD_COUNTS = [1, 2, 4, 8]


class _EmuKernel:
    """Duck-types a loaded native kernel via the bundled emulator."""

    def __init__(self, gk):
        self.generated = gk

    def __call__(self, *args):
        return call_items(self.generated.items, list(args))


_GENERATED = {}


def _emu_kernel(family):
    if family not in _GENERATED:
        _GENERATED[family] = _EmuKernel(
            Augem(arch=GENERIC_SSE).generate_named(family))
    return _GENERATED[family]


class _PyKernel:
    """Pure-numpy packed micro-kernel stand-in (dup layout) — fast enough
    for stress loops, same call signature and packed-panel semantics."""

    generated = SimpleNamespace(
        config=SimpleNamespace(unroll_jam=(), unroll=()))

    def __call__(self, mc, nc, kc, a, b, c, ldc):
        am = a.reshape(kc, mc)
        bm = b.reshape(nc, kc)
        c.reshape(nc, ldc)[:, :mc] += bm @ am


@pytest.fixture(autouse=True)
def _no_leftover_fault_plan():
    yield
    clear_fault_plan()


# -- determinism across thread counts (emulated; both layouts) --------------


@pytest.mark.parametrize("layout,family",
                         [("dup", "gemm"), ("shuf", "gemm_shuf")])
def test_threaded_result_bit_identical(layout, family, rng):
    kernel = _emu_kernel(family)
    base_driver = GemmDriver(kernel, layout=layout, blocks=TINY_BLOCKS,
                             threads=1)
    for m, n, k in EDGE_SHAPES:
        a = rng.standard_normal((m, k))
        b = rng.standard_normal((k, n))
        c = rng.standard_normal((m, n))
        base = np.asarray(base_driver(a, b, c, alpha=1.25, beta=-0.5))
        assert np.allclose(base, 1.25 * (a @ b) - 0.5 * c), (m, n, k)
        for threads in THREAD_COUNTS[1:]:
            driver = GemmDriver(kernel, layout=layout, blocks=TINY_BLOCKS,
                                threads=threads)
            got = np.asarray(driver(a, b, c, alpha=1.25, beta=-0.5))
            assert got.tobytes() == base.tobytes(), (m, n, k, threads)
            assert driver.pack_pool.outstanding == 0


def test_per_call_thread_override_stays_bit_identical(rng):
    driver = GemmDriver(_emu_kernel("gemm"), blocks=TINY_BLOCKS, threads=1)
    a = rng.standard_normal((19, 11))
    b = rng.standard_normal((11, 14))
    base = np.asarray(driver(a, b)).tobytes()
    for threads in THREAD_COUNTS:
        assert np.asarray(driver(a, b, threads=threads)).tobytes() == base


def test_env_threads_do_not_change_results(rng, monkeypatch):
    a = rng.standard_normal((17, 13))
    b = rng.standard_normal((13, 9))
    monkeypatch.delenv("REPRO_THREADS", raising=False)
    base = np.asarray(GemmDriver(_emu_kernel("gemm"),
                                 blocks=TINY_BLOCKS)(a, b))
    monkeypatch.setenv("REPRO_THREADS", "4")
    driver = GemmDriver(_emu_kernel("gemm"), blocks=TINY_BLOCKS)
    assert driver.threads == 4
    assert np.asarray(driver(a, b)).tobytes() == base.tobytes()


# -- race stress: one shared driver, many caller threads --------------------


@given(shapes=st.lists(
    st.tuples(st.integers(1, 40), st.integers(1, 40), st.integers(1, 24)),
    min_size=1, max_size=3))
@settings(max_examples=10, deadline=None)
def test_race_stress_shared_driver(shapes):
    driver = GemmDriver(_PyKernel(), blocks=TINY_BLOCKS, threads=2)
    rng = np.random.default_rng(99)
    problems = []
    for m, n, k in shapes:
        a = rng.standard_normal((m, k))
        b = rng.standard_normal((k, n))
        expect = np.asarray(driver(a, b)).tobytes()
        problems.append((a, b, expect))
    errors = []

    def hammer():
        try:
            for _ in range(3):
                for a, b, expect in problems:
                    got = np.asarray(driver(a, b))
                    if got.tobytes() != expect:
                        raise AssertionError("corrupted threaded result")
        except BaseException as exc:  # noqa: BLE001 - reported below
            errors.append(exc)

    callers = [threading.Thread(target=hammer) for _ in range(8)]
    for t in callers:
        t.start()
    for t in callers:
        t.join(timeout=120)
    assert not errors, errors
    assert driver.pack_pool.outstanding == 0


# -- pool reuse: hits grow, allocations plateau -----------------------------


def test_pack_pool_buffers_reused_across_calls(rng):
    driver = GemmDriver(_PyKernel(), blocks=TINY_BLOCKS, threads=1)
    a = rng.standard_normal((32, 32))
    b = rng.standard_normal((32, 32))
    driver(a, b)
    pool = driver.pack_pool
    allocations_after_warmup = pool.allocations
    hits_after_warmup = pool.hits
    for _ in range(5):
        driver(a, b)
    assert pool.allocations == allocations_after_warmup, \
        "steady-state calls must not allocate fresh panels"
    assert pool.hits > hits_after_warmup
    assert pool.outstanding == 0


def test_pack_pool_alias_guards():
    pool = PackBufferPool()
    buf = pool.acquire(16)
    pool.release(buf)
    with pytest.raises(PoolAliasError):
        pool.release(buf)  # double release
    with pytest.raises(PoolAliasError):
        pool.release(np.zeros(16))  # never lent
    stats = pool.stats()
    assert stats["outstanding"] == 0
    assert stats["allocations"] == 1


def test_pack_pool_bounds_free_list():
    pool = PackBufferPool(max_free_per_size=2)
    bufs = [pool.acquire(8) for _ in range(5)]
    for b in bufs:
        pool.release(b)
    assert len(pool._free[8]) == 2  # spares beyond the cap are dropped
    assert pool.allocations == 5


# -- worker_die fault injection ---------------------------------------------


@pytest.mark.parametrize("threads", [1, 2, 4])
def test_worker_die_fails_whole_call_cleanly(threads, rng):
    driver = GemmDriver(_PyKernel(), blocks=TINY_BLOCKS, threads=threads)
    a = rng.standard_normal((24, 16))
    b = rng.standard_normal((16, 24))
    c = rng.standard_normal((24, 24))
    c_before = c.copy()
    expect = np.asarray(driver(a, b, c, alpha=2.0, beta=0.5)).tobytes()

    install_fault_plan(FaultPlan.parse("worker_die@#2"))
    with pytest.raises(InjectedWorkerFault):
        driver(a, b, c, alpha=2.0, beta=0.5)
    # no partial writes reached the caller, and the pool is consistent
    assert np.array_equal(c, c_before)
    assert driver.pack_pool.outstanding == 0

    install_fault_plan(None)
    got = np.asarray(driver(a, b, c, alpha=2.0, beta=0.5))
    assert got.tobytes() == expect


def test_worker_die_matches_by_family_tag(rng):
    driver = GemmDriver(_PyKernel(), blocks=TINY_BLOCKS, threads=2)
    a = rng.standard_normal((9, 9))
    b = rng.standard_normal((9, 9))
    install_fault_plan(FaultPlan.parse("worker_die@gemm:1"))
    with pytest.raises(InjectedWorkerFault):
        driver(a, b)
    # count=1: the plan disarms after one shot, the next call runs
    assert np.allclose(driver(a, b), a @ b)
    assert driver.pack_pool.outstanding == 0


def test_worker_die_deterministic_lowest_index_wins(rng):
    # two tiles fault concurrently; the raised error must be the
    # lowest-indexed one regardless of scheduling
    driver = GemmDriver(_PyKernel(), blocks=TINY_BLOCKS, threads=4)
    a = np.ones((32, 8))
    b = np.ones((8, 32))
    for _ in range(3):
        install_fault_plan(FaultPlan.parse("worker_die@#1,worker_die@#3"))
        with pytest.raises(InjectedWorkerFault, match="#1"):
            driver(a, b)
        assert driver.pack_pool.outstanding == 0


def test_fault_plan_is_resolved_once_per_call(rng, monkeypatch):
    # $REPRO_FAULT_INJECT is read when the call starts, not per macro-tile
    from repro.blas import gemm as gemm_module

    lookups = []
    real = gemm_module.get_fault_plan
    monkeypatch.setattr(gemm_module, "get_fault_plan",
                        lambda: lookups.append(1) or real())
    monkeypatch.setenv("REPRO_FAULT_INJECT", "worker_die@#5")
    driver = GemmDriver(_PyKernel(), blocks=TINY_BLOCKS, threads=1)
    a = rng.standard_normal((24, 8))
    with pytest.raises(InjectedWorkerFault, match="#5"):
        driver(a, a.T)                       # 9 macro-tiles
    assert len(lookups) == 1
    monkeypatch.delenv("REPRO_FAULT_INJECT")
    assert np.allclose(driver(a, a.T), a @ a.T)
    assert len(lookups) == 2
    assert driver.pack_pool.outstanding == 0


# -- alpha folding: no scaled A copy per tile -------------------------------


def test_alpha_fold_allocates_no_extra_temporaries(rng):
    driver = GemmDriver(_PyKernel(),
                        blocks=BlockSizes(mc=48, kc=48, nc=48), threads=1)
    a = rng.standard_normal((48, 48))
    b = rng.standard_normal((48, 48))
    driver(a, b, alpha=1.0)   # warm pool + numpy internals
    driver(a, b, alpha=2.5)

    tracemalloc.start()
    driver(a, b, alpha=1.0)
    _, peak_unit = tracemalloc.get_traced_memory()
    tracemalloc.stop()

    tracemalloc.start()
    driver(a, b, alpha=2.5)
    _, peak_scaled = tracemalloc.get_traced_memory()
    tracemalloc.stop()

    # a per-tile `a_block * alpha` copy would add mc*kc*8 = 18432 bytes
    # to the alpha != 1 path; folding into pack_a keeps the peaks equal
    assert peak_scaled < peak_unit + 9000, (peak_unit, peak_scaled)
    got = driver(a, b, alpha=2.5)
    assert np.allclose(got, 2.5 * (a @ b))


# -- C written in place: one full-size array per call ------------------------


@pytest.mark.parametrize("order", ["C", "F"])
@pytest.mark.parametrize("with_c", [False, True])
def test_result_is_c_contiguous_owned_and_never_aliases_c(with_c, order, rng):
    a = rng.standard_normal((37, 11))
    b = rng.standard_normal((11, 29))
    c = np.asarray(rng.standard_normal((37, 29)), order=order) \
        if with_c else None
    c_before = None if c is None else c.copy()
    base = None
    for threads in [1, 2, 4]:
        driver = GemmDriver(_PyKernel(), blocks=TINY_BLOCKS, threads=threads)
        for beta in [0.0, 1.0, -0.5]:
            got = driver(a, b, c, alpha=1.5, beta=beta)
            assert isinstance(got, np.ndarray) and got.shape == (37, 29)
            assert got.flags.c_contiguous and got.flags.owndata
            if c is not None:
                assert not np.shares_memory(got, c)
                assert np.array_equal(c, c_before)
                assert np.allclose(got, 1.5 * (a @ b) + beta * c)
        if base is None:
            base = got.tobytes()
        assert got.tobytes() == base, threads


def test_accumulate_allocates_one_result_array(rng):
    m, n, k = 512, 512, 256
    driver = GemmDriver(_PyKernel(), threads=1)
    a = rng.standard_normal((m, k))
    b = rng.standard_normal((k, n))
    c = rng.standard_normal((m, n))
    driver(a, b, c, alpha=1.0, beta=0.5)   # warm pool + numpy internals

    tracemalloc.start()
    got = driver(a, b, c, alpha=1.0, beta=0.5)
    _, peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()

    # beta*C is the result the tiles add into: a copy of C plus a
    # workspace plus a second-pass temporary would be three m x n arrays
    assert peak < 1.5 * m * n * 8, peak
    assert np.allclose(got, a @ b + 0.5 * c)


# -- threading plumbing units ----------------------------------------------


def test_resolve_threads_precedence(monkeypatch):
    monkeypatch.delenv("REPRO_THREADS", raising=False)
    assert resolve_threads() == 1
    assert resolve_threads(3) == 3
    monkeypatch.setenv("REPRO_THREADS", "6")
    assert resolve_threads() == 6
    assert resolve_threads(2) == 2  # explicit beats env
    monkeypatch.setenv("REPRO_THREADS", "bogus")
    assert resolve_threads() == 1   # malformed env degrades, never crashes
    monkeypatch.setenv("REPRO_THREADS", "-4")
    assert resolve_threads() == 1
    monkeypatch.setenv("REPRO_THREADS", "auto")
    assert resolve_threads() >= 1
    with pytest.raises(ValueError):
        resolve_threads(0)


def test_worker_pool_runs_all_tasks_and_reports_busy():
    pool = WorkerPool(3)
    done = []
    lock = threading.Lock()

    def task(i):
        with lock:
            done.append(i)

    busy = pool.run([lambda i=i: task(i) for i in range(20)])
    assert sorted(done) == list(range(20))
    assert busy and all(v >= 0.0 for v in busy.values())


def test_worker_pool_raises_lowest_index_error():
    pool = WorkerPool(2)

    def boom(i):
        raise RuntimeError(f"task-{i}")

    tasks = [lambda: None, lambda: boom(1), lambda: boom(2), lambda: None]
    for _ in range(3):
        with pytest.raises(RuntimeError, match="task-1"):
            pool.run(tasks)


def test_worker_pool_reusable_after_failure():
    pool = WorkerPool(2)
    with pytest.raises(ValueError):
        pool.run([lambda: (_ for _ in ()).throw(ValueError("x"))])
    out = []
    pool.run([lambda: out.append(1), lambda: out.append(2)])
    assert sorted(out) == [1, 2]


def test_split_for_threads_properties():
    # enough tiles for the thread count, multiples preserved
    mc, nc = split_for_threads(m=128, n=512, mc=128, nc=512,
                               mu=4, nu=4, threads=8)
    assert mc % 4 == 0 and nc % 4 == 0
    assert (-(-128 // mc)) * (-(-512 // nc)) >= 8
    # a tiny problem cannot split below (mu, nu): it just stops
    mc, nc = split_for_threads(m=4, n=4, mc=4, nc=4, mu=4, nu=4, threads=16)
    assert (mc, nc) == (4, 4)
