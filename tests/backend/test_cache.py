"""Persistent kernel-cache tests: two-level lookup, atomicity, recovery,
stats accounting, and cross-process reuse."""

import ctypes
import json
import subprocess
import sys
from pathlib import Path

import pytest

from repro.backend import compiler
from repro.backend.cache import CacheStats, cache_root, get_cache, reset_cache
from repro.backend.compiler import build_shared, reset_so_cache

from tests.conftest import needs_cc

pytestmark = needs_cc

SRC = {"f.c": "long forty_one(void) { return 41; }"}


@pytest.fixture
def store(tmp_path, monkeypatch):
    """A fresh persistent store in tmp_path, torn down to hermetic mode."""
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "store"))
    reset_cache()
    reset_so_cache()
    yield tmp_path / "store"
    reset_cache()
    reset_so_cache()


def _call41(so) -> int:
    fn = so.symbol("forty_one")
    fn.restype = ctypes.c_long
    return fn()


def test_cache_root_disabled_values(monkeypatch):
    for value in ("off", "OFF", "none", "0", "disabled"):
        monkeypatch.setenv("REPRO_CACHE_DIR", value)
        assert cache_root() is None
    monkeypatch.setenv("REPRO_CACHE_DIR", "/some/where")
    assert cache_root() == Path("/some/where")


def test_disabled_store_builds_in_scratch(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_CACHE_DIR", "off")
    reset_cache()
    reset_so_cache()
    try:
        so = build_shared(SRC, tag="nocache")
        assert _call41(so) == 41
        cache = get_cache()
        assert not cache.enabled
        assert cache.lookup_so("deadbeef") is None
        assert cache.stats.misses == 1 and cache.stats.puts == 0
    finally:
        reset_cache()
        reset_so_cache()


def test_unusable_store_degrades_to_scratch_build(tmp_path, monkeypatch):
    # $REPRO_CACHE_DIR nested under a regular file: every store operation
    # raises NotADirectoryError. Builds must still succeed, unpublished.
    blocker = tmp_path / "blocker"
    blocker.write_text("not a directory")
    monkeypatch.setenv("REPRO_CACHE_DIR", str(blocker / "store"))
    reset_cache()
    reset_so_cache()
    try:
        so = build_shared(SRC, tag="degrade")
        assert _call41(so) == 41
        cache = get_cache()
        assert cache.enabled  # configured on, just broken
        assert cache.stats.puts == 0 and cache.stats.errors >= 1
        # tuning persistence degrades the same way instead of raising
        cache.store_tuning("ab" * 12, {"gflops": 1.0})
        assert cache.load_tuning("ab" * 12) is None
    finally:
        reset_cache()
        reset_so_cache()


def test_cold_miss_then_disk_and_mem_hits(store):
    so1 = build_shared(SRC, tag="roundtrip")
    assert _call41(so1) == 41
    stats = get_cache().stats
    assert (stats.misses, stats.puts, stats.hits) == (1, 1, 0)
    # the entry landed in the content-addressed layout, fully published
    metas = list(store.glob("objects/*/*/meta.json"))
    assert len(metas) == 1
    meta = json.loads(metas[0].read_text())
    assert meta["tag"] == "roundtrip" and (metas[0].parent / meta["so"]).exists()

    # same process, same content: in-memory hit, same handle
    so2 = build_shared(SRC, tag="roundtrip")
    assert so2 is so1
    assert get_cache().stats.mem_hits == 1

    # simulated fresh process: disk hit, no toolchain
    reset_so_cache()
    before = get_cache().stats.toolchain_invocations
    so3 = build_shared(SRC, tag="roundtrip")
    assert _call41(so3) == 41
    assert get_cache().stats.disk_hits == 1
    assert get_cache().stats.toolchain_invocations == before


def test_corrupted_entry_triggers_rebuild_not_crash(store):
    build_shared(SRC, tag="corrupt")
    so_path = next(store.glob("objects/*/*/libcorrupt.so"))
    # unlink before writing: the live CDLL mapping is backed by this very
    # inode, and truncating a mapped file SIGBUSes the process at _dl_fini
    so_path.unlink()
    so_path.write_bytes(b"\x7fELFgarbage")  # wrong size AND not loadable
    reset_so_cache()
    so = build_shared(SRC, tag="corrupt")
    assert _call41(so) == 41
    stats = get_cache().stats
    assert stats.errors >= 1 and stats.evictions >= 1
    assert stats.misses == 2  # cold build + rebuild after eviction


def test_truncated_meta_triggers_rebuild(store):
    build_shared(SRC, tag="badmeta")
    meta = next(store.glob("objects/*/*/meta.json"))
    meta.write_text('{"version": 1, "so":')  # truncated JSON
    reset_so_cache()
    assert _call41(build_shared(SRC, tag="badmeta")) == 41
    assert get_cache().stats.errors >= 1


def test_key_covers_flags_and_sources(store):
    build_shared(SRC, tag="a")
    build_shared(SRC, extra_flags=("-DX=1",), tag="a")
    build_shared({"f.c": "long forty_one(void) { return 40+1; }"}, tag="a")
    assert get_cache().stats.misses == 3
    assert len(list(store.glob("objects/*/*/meta.json"))) == 3


def test_force_rebuild_evicts(store):
    build_shared(SRC, tag="forced")
    so = build_shared(SRC, tag="forced", force=True)
    assert _call41(so) == 41
    stats = get_cache().stats
    assert stats.misses == 2 and stats.evictions == 1


def test_stats_counters_match_observed_traffic(store):
    # 2 distinct cold builds, 1 mem hit, 1 disk hit
    build_shared(SRC, tag="s1")
    build_shared({"g.c": "int g(void){return 0;}"}, tag="s2")
    build_shared(SRC, tag="s1")
    reset_so_cache()
    build_shared(SRC, tag="s1")
    stats = get_cache().stats
    assert stats.misses == 2
    assert stats.mem_hits == 1 and stats.disk_hits == 1
    assert stats.hits == 2
    assert stats.puts == 2
    assert stats.toolchain_invocations == 4  # 2 builds x (compile + link)
    assert stats.build_seconds > 0


def test_cumulative_stats_persist_across_resets(store):
    build_shared(SRC, tag="cum")
    reset_cache()  # flushes this process's counters to stats.json
    totals = get_cache().cumulative_stats()
    assert totals.misses >= 1 and totals.puts >= 1


def test_tuning_record_roundtrip_and_corruption(store):
    cache = get_cache()
    cache.store_tuning("k" * 24, {"gflops": 3.5})
    assert cache.load_tuning("k" * 24)["gflops"] == 3.5
    assert cache.stats.tuning_puts == 1 and cache.stats.tuning_hits == 1
    assert cache.load_tuning("m" * 24) is None
    # corrupted record is evicted, not fatal
    path = next(store.glob("tuning/*/*.json"))
    path.write_text("{not json")
    assert cache.load_tuning("k" * 24) is None
    assert cache.stats.errors == 1
    assert not path.exists()


def test_quarantine_roundtrip_and_clear(store):
    cache = get_cache()
    key = "q" * 24
    assert cache.load_quarantine(key) is None
    cache.store_quarantine(key, {"candidate": "u(i)=4", "error": "SIGSEGV",
                                 "category": "crashed"})
    assert cache.stats.quarantine_puts == 1
    rec = cache.load_quarantine(key)
    assert rec["error"] == "SIGSEGV"
    assert cache.stats.quarantine_hits == 1
    assert cache.inventory()["quarantined"] == 1
    # corrupt record fails closed: evicted, not served
    cache._record_path("quarantine", key).write_text("{nope")
    assert cache.load_quarantine(key) is None
    assert cache.load_quarantine(key) is None  # really gone
    cache.store_quarantine(key, {"error": "SIGILL"})
    assert cache.clear() >= 1
    assert cache.load_quarantine(key) is None
    assert cache.inventory()["quarantined"] == 0


def test_quarantine_noop_when_disabled(monkeypatch):
    monkeypatch.setenv("REPRO_CACHE_DIR", "off")
    reset_cache()
    try:
        cache = get_cache()
        cache.store_quarantine("k" * 24, {"error": "x"})
        assert cache.load_quarantine("k" * 24) is None
        assert cache.stats.quarantine_puts == 0
    finally:
        reset_cache()


def test_clear_empties_store(store):
    build_shared(SRC, tag="clr")
    cache = get_cache()
    cache.store_tuning("c" * 24, {"gflops": 1.0})
    removed = cache.clear()
    assert removed == 2
    assert cache.inventory()["entries"] == 0
    assert cache.inventory()["tuning_records"] == 0


def test_merge_ignores_unknown_keys():
    stats = CacheStats()
    stats.merge({"misses": 2, "no_such_counter": 9, "root": "/x"})
    assert stats.misses == 2


_CHILD = r"""
import sys
from repro.backend.compiler import build_shared
from repro.backend.cache import get_cache
build_shared({"f.c": "long forty_one(void) { return 41; }"}, tag="xproc")
print("TOOLCHAIN", get_cache().stats.toolchain_invocations)
"""


def test_warm_hit_across_processes(store, tmp_path):
    """Cold miss in process 1; process 2 must invoke no toolchain at all."""
    env = {"REPRO_CACHE_DIR": str(store), "PYTHONPATH": str(
        Path(__file__).resolve().parents[2] / "src"), "PATH": "/usr/bin:/bin",
        "HOME": str(tmp_path)}
    counts = []
    for _ in range(2):
        proc = subprocess.run([sys.executable, "-c", _CHILD],
                              capture_output=True, text=True, env=env)
        assert proc.returncode == 0, proc.stderr
        counts.append(int(proc.stdout.split()[-1]))
    assert counts[0] > 0   # cold: compile + link
    assert counts[1] == 0  # warm: served entirely from the store
