"""Counters: one write per event, shared by a component's tally and its
trace counter."""

from __future__ import annotations

import json
import sys
import threading

import pytest

from repro.obs import Counters, trace


class _Demo(Counters):
    TRACE = {"hits": "demo.hit", "seconds": "demo.seconds", "quiet": None}


@pytest.fixture(autouse=True)
def no_leaked_tracer():
    trace.stop_trace()
    yield
    trace.stop_trace()


def trace_counters(path):
    return {r["name"]: r["value"] for r in map(json.loads, open(path))
            if r["ev"] == "counter"}


def test_fields_start_at_zero_in_declared_order():
    counts = _Demo()
    assert counts.hits == 0 and counts.quiet == 0
    assert list(counts.snapshot()) == ["hits", "seconds", "quiet"]
    counts.incr("hits", 3)
    counts.incr("seconds", 0.25)
    assert counts.snapshot() == {"hits": 3, "seconds": 0.25, "quiet": 0}
    counts.reset()
    assert counts.snapshot() == {"hits": 0, "seconds": 0, "quiet": 0}


def test_undeclared_field_is_an_error():
    counts = _Demo()
    with pytest.raises(AttributeError, match="no counter 'misses'"):
        counts.misses
    with pytest.raises(KeyError):
        counts.incr("misses")
    assert counts.snapshot() == {"hits": 0, "seconds": 0, "quiet": 0}


def test_merge_adds_declared_numbers_and_ignores_the_rest():
    counts = _Demo()
    counts.incr("hits")
    counts.merge({"hits": 2, "seconds": 1.5, "quiet": "7", "root": "/x",
                  "no_such_counter": 9})
    assert counts.snapshot() == {"hits": 3, "seconds": 1.5, "quiet": 0}
    other = _Demo()
    other.merge(counts.snapshot())
    assert other.snapshot() == counts.snapshot()


def test_incr_is_one_write_for_tally_and_trace(tmp_path):
    path = tmp_path / "t.jsonl"
    counts = _Demo()
    counts.incr("hits")                     # before the trace: tally only
    trace.start_trace(str(path))
    counts.incr("hits", 2)
    counts.incr("seconds", 0.5)
    counts.incr("quiet", 4)                 # untraced field
    counts.incr("seconds", 0)               # nothing happened
    merged = _Demo()
    merged.merge({"hits": 5})               # merges are not events
    trace.stop_trace()
    assert counts.hits == 3 and counts.quiet == 4
    assert trace_counters(path) == {"demo.hit": 2, "demo.seconds": 0.5}


def test_no_lost_updates_under_threads():
    counts = _Demo()
    threads, per_thread = 8, 20_000
    barrier = threading.Barrier(threads)

    def bump():
        barrier.wait()
        for _ in range(per_thread):
            counts.incr("hits")

    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        workers = [threading.Thread(target=bump) for _ in range(threads)]
        for t in workers:
            t.start()
        for t in workers:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(old)
    assert not any(t.is_alive() for t in workers)
    assert counts.hits == threads * per_thread


def _assert_trace_matches(tally: Counters, counters) -> None:
    """Every traced field of ``tally`` reads the same in the trace."""
    for field, name in tally.TRACE.items():
        if name is not None:
            assert counters.get(name, 0) == getattr(tally, field), name


def test_cache_stats_and_trace_agree(tmp_path, monkeypatch):
    from repro.backend.cache import get_cache, reset_cache

    path = tmp_path / "t.jsonl"
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "store"))
    reset_cache()
    trace.start_trace(str(path))
    try:
        cache = get_cache()
        cache.store_tuning("a" * 24, {"gflops": 1.0})
        cache._record_path("tuning", "a" * 24).write_text("{rotted")
        assert cache.load_tuning("a" * 24) is None   # evicts the record
        cache.store_tuning("b" * 24, {"gflops": 2.0})
        assert cache.clear() == 1                     # bulk eviction
        stats = cache.stats
        trace.stop_trace()
    finally:
        reset_cache()
    assert (stats.evictions, stats.errors, stats.tuning_puts) == (2, 1, 2)
    counters = trace_counters(path)
    assert counters["cache.eviction"] == 2
    _assert_trace_matches(stats, counters)


def test_guard_stats_and_trace_agree(tmp_path):
    from repro.blas.guard import ArgGuard

    path = tmp_path / "t.jsonl"
    trace.start_trace(str(path))
    guard = ArgGuard()
    guard.vector("daxpy", "x", [1, 2, 3])            # list -> float64 copy
    trace.stop_trace()
    assert guard.stats.coercions == 1
    _assert_trace_matches(guard.stats, trace_counters(path))


def test_pack_pool_counts_and_trace_agree(tmp_path):
    from repro.blas.threading import PackBufferPool

    path = tmp_path / "t.jsonl"
    trace.start_trace(str(path))
    pool = PackBufferPool()
    pool.release(pool.acquire(16))                   # miss
    pool.release(pool.acquire(16))                   # hit
    trace.stop_trace()
    stats = pool.stats()
    assert (stats["hits"], stats["misses"], stats["allocations"]) == (1, 1, 1)
    assert stats["allocated_bytes"] == 16 * 8
    _assert_trace_matches(pool.counts, trace_counters(path))
