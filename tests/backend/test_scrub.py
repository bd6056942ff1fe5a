"""Store-wide scrub tests: clean stores verify with zero false positives,
every corruption class is found, repair evicts deterministically."""

import copy
import json
import os
import time
from pathlib import Path

import pytest

from repro.backend import fsio
from repro.backend.cache import check_entry, get_cache, reset_cache
from repro.backend.faults import clear_fault_plan
from repro.backend.scrub import EXIT_CORRUPT, render_verdict, scrub_store
from repro.blas.dispatch import (VERDICT_STORE_VERSION, load_tier_verdicts,
                                 read_verdict_store)
from repro.tuning.session import TrialRecord, TuningSession

KEYS = ["aa" * 12, "bb" * 12, "cc" * 12]


@pytest.fixture
def store(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "store"))
    reset_cache()
    fsio.reset_disk_health()
    clear_fault_plan()
    yield tmp_path / "store"
    reset_cache()
    fsio.reset_disk_health()
    clear_fault_plan()


def publish_fake(cache, key, payload=b"\x7fELF not a real object"):
    """Publish a fake entry; scrub/lookup never dlopen, so any bytes do."""
    work = cache._scratch()
    (work / "k.so").write_bytes(payload)
    path = cache.publish_so(key, work, "k.so", meta={"tag": "fake"})
    assert path is not None
    return path


def seed_store(root):
    """A store exercising every artifact class the scrub walks."""
    cache = get_cache()
    for key in KEYS:
        publish_fake(cache, key, payload=bytes.fromhex(key) * 40)
    cache.store_tuning("dd" * 12, {"gflops": 2.5})
    cache.store_quarantine("ee" * 12, {"category": "segv"})
    session = TuningSession.create(
        root / "sessions", "axpy", "ff" * 12, "c", "generic_sse", 3,
        ["cand0", "cand1"], "k" * 24)
    session.record_trial(TrialRecord(index=0, candidate="cand0", gflops=1.0))
    session.finish("complete", winner="cand0")
    (root / "serve_verdicts.json").write_text(json.dumps(
        {"version": VERDICT_STORE_VERSION, "toolchain": "none",
         "verdicts": {}}))
    (root / "stats.json").write_text(json.dumps({"puts": len(KEYS)}))
    return cache


def test_clean_store_scrubs_clean(store):
    cache = seed_store(store)
    verdict = scrub_store(cache)
    assert verdict["ok"]
    assert verdict["corrupt"] == 0 and verdict["problems"] == []
    assert verdict["checked"] == {"objects": 3, "tuning": 1,
                                  "quarantine": 1, "sessions": 1,
                                  "verdicts": 1, "stats": 1}
    assert "store is clean" in render_verdict(verdict)


def test_torn_final_journal_line_is_not_flagged(store):
    """Replay tolerates a torn last journal line by design — flagging it
    would be a false positive on a store that is operationally clean."""
    cache = seed_store(store)
    sdir = next(p for p in (store / "sessions").iterdir() if p.is_dir())
    with open(sdir / "journal.jsonl", "a", encoding="utf-8") as fh:
        fh.write('{"i":1,"candidate":"cand1","gfl')  # no newline
    verdict = scrub_store(cache)
    assert verdict["ok"] and verdict["corrupt"] == 0


def _corrupt_everything(store):
    """One instance of every corruption class the scrub must catch."""
    # entry 0: unparseable meta
    (store / "objects" / KEYS[0][:2] / KEYS[0] / "meta.json").write_text(
        "{torn")
    # entry 1: truncated shared object
    so1 = store / "objects" / KEYS[1][:2] / KEYS[1] / "k.so"
    so1.write_bytes(so1.read_bytes()[:-5])
    # entry 2: silent bit-rot (same size, digest mismatch)
    so2 = store / "objects" / KEYS[2][:2] / KEYS[2] / "k.so"
    rotten = bytearray(so2.read_bytes())
    rotten[len(rotten) // 2] ^= 0x01
    so2.write_bytes(bytes(rotten))
    # tuning / quarantine records that no longer parse
    (store / "tuning" / "dd" / (("dd" * 12) + ".json")).write_text("[1,")
    (store / "quarantine" / "ee" / (("ee" * 12) + ".json")).write_text("x")
    # session with an unreadable manifest
    sdir = next(p for p in (store / "sessions").iterdir() if p.is_dir())
    (sdir / "manifest.json").write_text("not json")
    # torn verdict store and stats ledger
    (store / "serve_verdicts.json").write_text('{"version":')
    (store / "stats.json").write_text("")
    # abandoned publish scratch
    leftover = store / "tmp" / "publish-killed"
    leftover.mkdir(parents=True)
    (leftover / "partial.so").write_bytes(b"\x00" * 64)
    past = time.time() - 10.0
    os.utime(leftover, (past, past))


def _corrupt_types(store):
    """Artifacts that parse but break their store's rule: ill-typed
    records, a stale verdict-store revision, an entry without its meta.
    ``objects`` KEYS[1] and KEYS[2] stay healthy."""
    (store / "objects" / KEYS[0][:2] / KEYS[0] / "meta.json").unlink()
    (store / "tuning" / "dd" / (("dd" * 12) + ".json")).write_text(
        '{"gflops": "fast"}')
    (store / "quarantine" / "ee" / (("ee" * 12) + ".json")).write_text("[1]")
    sdir = next(p for p in (store / "sessions").iterdir() if p.is_dir())
    (sdir / "manifest.json").write_text("[1]")
    (store / "serve_verdicts.json").write_text(json.dumps(
        {"version": VERDICT_STORE_VERSION - 1, "toolchain": "none",
         "verdicts": {}}))
    (store / "stats.json").write_text("[1]")


def _served(cache, store, problem) -> bool:
    """Does the flagged artifact's owning loader hand it to a caller?"""
    kind, key, path = problem["kind"], problem["key"], store / problem["path"]
    if kind == "object" and "digest" in problem["error"]:
        # same-size bit-rot: only the scrub's digest check can see it;
        # the warm lookup_so checks the size and never hashes the .so
        try:
            check_entry(path, digest=True)
        except fsio.RecordError:
            return False
        return True
    if kind == "object":
        return cache.lookup_so(key) is not None
    if kind in ("tuning", "quarantine"):
        return getattr(cache, f"load_{kind}")(key) is not None
    if kind == "session":
        return TuningSession.open(path) is not None
    if kind == "verdicts":
        assert load_tier_verdicts(path) == 0
        try:
            read_verdict_store(path)
        except fsio.RecordError:
            return False
        return True
    assert kind == "stats", kind
    # the seeded ledger holds puts=3 on top of this process's counters
    return cache.cumulative_stats().puts > cache.stats.puts


def _assert_loaders_accept_the_store(cache, store):
    errors = cache.stats.errors
    for entry in store.glob("objects/*/*"):
        assert cache.lookup_so(entry.name) is not None, entry
    for kind in ("tuning", "quarantine"):
        for record in store.glob(f"{kind}/*/*.json"):
            assert getattr(cache, f"load_{kind}")(record.stem) is not None
    for sdir in store.glob("sessions/*"):
        assert TuningSession.open(sdir) is not None, sdir
    if (store / "serve_verdicts.json").exists():
        read_verdict_store(store / "serve_verdicts.json")
    if (store / "stats.json").exists():
        fsio.read_record(store / "stats.json")
    assert cache.stats.errors == errors  # nothing was evicted on the way


@pytest.mark.parametrize("corrupt", [_corrupt_everything, _corrupt_types])
def test_loaders_agree_with_the_scrub(store, corrupt):
    """What the scrub flags, the owning loader reads as absent; after
    ``--repair`` every loader accepts what remains."""
    cache = seed_store(store)
    _assert_loaders_accept_the_store(cache, store)
    corrupt(store)
    problems = scrub_store(cache, tmp_age=0.0)["problems"]
    assert {p["kind"] for p in problems} >= {
        "object", "tuning", "quarantine", "session", "verdicts", "stats"}
    for problem in problems:
        if problem["kind"] != "stray":
            assert not _served(cache, store, problem), problem
    scrub_store(cache, repair=True, tmp_age=0.0)
    _assert_loaders_accept_the_store(cache, store)
    assert scrub_store(cache, tmp_age=0.0)["ok"]


def test_scrub_finds_every_corruption_class(store):
    cache = seed_store(store)
    _corrupt_everything(store)
    verdict = scrub_store(cache, tmp_age=0.0)
    assert not verdict["ok"]
    kinds = sorted(p["kind"] for p in verdict["problems"])
    assert kinds == sorted(["object", "object", "object", "tuning",
                            "quarantine", "session", "verdicts", "stats",
                            "stray"])
    assert all(p["action"] == "kept" for p in verdict["problems"])
    errors = [p["error"] for p in verdict["problems"]]
    assert any("digest mismatch" in e for e in errors)  # silent bit-rot
    assert any("truncated" in e for e in errors)
    # report-only mode touched nothing
    assert (store / "tmp" / "publish-killed").exists()
    assert (store / "serve_verdicts.json").exists()


def test_scrub_is_deterministic(store):
    cache = seed_store(store)
    _corrupt_everything(store)
    first = scrub_store(cache, tmp_age=0.0)
    second = scrub_store(cache, tmp_age=0.0)
    assert first == second


def test_repair_evicts_and_second_scrub_is_clean(store):
    cache = seed_store(store)
    _corrupt_everything(store)
    verdict = scrub_store(cache, repair=True, tmp_age=0.0)
    assert verdict["corrupt"] == 9
    assert verdict["repaired"] == 9
    assert verdict["ok"]  # nothing *unrepaired* remains
    # every corrupt artifact is gone; the store reads as never-published
    for key in KEYS:
        assert cache.lookup_so(key) is None
    assert cache.load_tuning("dd" * 12) is None
    assert not (store / "serve_verdicts.json").exists()
    assert not (store / "tmp" / "publish-killed").exists()
    again = scrub_store(cache, tmp_age=0.0)
    assert again["ok"] and again["corrupt"] == 0


def test_repair_keeps_healthy_entries(store):
    cache = seed_store(store)
    # corrupt only one of the three entries
    (store / "objects" / KEYS[0][:2] / KEYS[0] / "meta.json").write_text("x")
    verdict = scrub_store(cache, repair=True)
    assert verdict["corrupt"] == 1 and verdict["repaired"] == 1
    assert cache.lookup_so(KEYS[0]) is None
    assert cache.lookup_so(KEYS[1]) is not None
    assert cache.lookup_so(KEYS[2]) is not None


def test_meta_missing_digest_is_flagged(store):
    """A current-version entry without a well-formed digest is rot: the
    publish path always records one, so its absence means the meta itself
    was corrupted (e.g. a bit flip landing in the key name)."""
    cache = seed_store(store)
    meta_path = store / "objects" / KEYS[0][:2] / KEYS[0] / "meta.json"
    meta = json.loads(meta_path.read_text())
    meta["so_shq256"] = meta.pop("so_sha256")  # one-bit flip: a -> q
    meta_path.write_text(json.dumps(meta))
    verdict = scrub_store(cache)
    assert verdict["corrupt"] == 1
    assert "digest field invalid" in verdict["problems"][0]["error"]


def test_injected_bitrot_is_caught_by_scrub(store):
    """End to end: a bitrot fault during publish lands in the durable
    meta payload, and the next scrub flags the entry."""
    from repro.backend.faults import FaultPlan, install_fault_plan

    cache = get_cache()
    install_fault_plan(FaultPlan.parse("bitrot@cache.meta:1"))
    publish_fake(cache, KEYS[0])
    clear_fault_plan()
    verdict = scrub_store(cache)
    assert not verdict["ok"]
    assert verdict["problems"][0]["kind"] == "object"
    # and repairing restores a store that verifies clean
    scrub_store(cache, repair=True)
    assert scrub_store(cache)["ok"]


def test_fresh_scratch_is_not_flagged(store):
    """A live publisher's scratch dir (younger than tmp_age) is not rot."""
    cache = seed_store(store)
    live = store / "tmp" / "in-flight"
    live.mkdir(parents=True)
    verdict = scrub_store(cache, tmp_age=3600.0)
    assert verdict["ok"] and verdict["corrupt"] == 0


def test_disabled_store_scrubs_trivially(monkeypatch):
    monkeypatch.setenv("REPRO_CACHE_DIR", "off")
    reset_cache()
    try:
        verdict = scrub_store(get_cache())
        assert verdict["ok"] and verdict["root"] == "(disabled)"
    finally:
        reset_cache()


def test_scrub_cli_exit_codes(store, capsys):
    from repro.__main__ import main

    cache = seed_store(store)
    assert main(["cache", "scrub"]) == 0
    assert "store is clean" in capsys.readouterr().out
    _corrupt_everything(store)
    assert main(["cache", "scrub", "--tmp-age", "0"]) == EXIT_CORRUPT
    capsys.readouterr()
    assert main(["cache", "scrub", "--repair", "--tmp-age", "0",
                 "--json"]) == 0
    verdict = json.loads(capsys.readouterr().out)
    assert verdict["ok"] and verdict["repaired"] == verdict["corrupt"]
    assert main(["cache", "scrub", "--tmp-age", "0"]) == 0
