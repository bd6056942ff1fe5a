"""Durable tuning sessions: journal, interrupt, resume, concurrency, gc."""

import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro.transforms.pipeline import OptimizationConfig
from repro.tuning import session as sessions
from repro.tuning.search import (
    EXIT_INTERRUPTED,
    TuningInterrupted,
    tune_kernel,
)
from repro.tuning.space import Candidate

from tests.conftest import needs_cc

SRC = str(Path(__file__).resolve().parents[2] / "src")

_CANDS = [Candidate(OptimizationConfig(unroll=(("i", n),)))
          for n in (2, 4, 8)]


@pytest.fixture
def session_store(tmp_path, monkeypatch):
    """A fresh persistent store (sessions need the cache enabled)."""
    from repro.backend.cache import reset_cache
    from repro.backend.compiler import reset_so_cache

    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "store"))
    reset_cache()
    reset_so_cache()
    yield tmp_path / "store"
    reset_cache()
    reset_so_cache()


@pytest.fixture
def fault_env(monkeypatch):
    from repro.backend import faults

    faults.clear_fault_plan()

    def arm(spec):
        monkeypatch.setenv("REPRO_FAULT_INJECT", spec)

    yield arm
    faults.clear_fault_plan()


# -- session primitives -------------------------------------------------------


def test_session_roundtrip_and_journal(tmp_path):
    sess = sessions.TuningSession.create(
        tmp_path, "axpy", "axpy", "dup", "haswell", 2,
        ["c0", "c1"], "feedface")
    assert sess.status == sessions.RUNNING
    assert sess.is_live()
    sess.record_trial(sessions.TrialRecord(0, "c0", 2.5))
    sess.record_trial(sessions.TrialRecord(1, "c1", -1.0,
                                           category="failed",
                                           error="RuntimeError: boom"))
    reopened = sessions.TuningSession.open(sess.path)
    assert reopened is not None
    assert reopened.manifest["trials_done"] == 2
    entries = reopened.journal_entries()
    assert [e.index for e in entries] == [0, 1]
    assert entries[0].gflops == 2.5 and entries[0].category == "ok"
    assert entries[1].error == "RuntimeError: boom"
    sess.finish(sessions.COMPLETE, best="c0")
    assert sessions.TuningSession.open(sess.path).status == sessions.COMPLETE


def test_torn_final_journal_line_is_dropped(tmp_path):
    sess = sessions.TuningSession.create(
        tmp_path, "axpy", "axpy", "dup", "haswell", 2, ["c0"], "cafe")
    sess.record_trial(sessions.TrialRecord(0, "c0", 1.0))
    sess.finish(sessions.INTERRUPTED)
    # simulate a SIGKILL mid-append: a torn, unparseable trailing line
    with open(sess.journal_path, "a") as fh:
        fh.write('{"i": 1, "candidate": "c1", "gfl')
    entries = sessions.TuningSession.open(sess.path).journal_entries()
    assert [e.index for e in entries] == [0]


def test_search_key_sensitivity():
    base = sessions.search_key("axpy", "haswell", 2, ["a", "b"], 1)
    assert base == sessions.search_key("axpy", "haswell", 2, ["a", "b"], 1)
    assert base != sessions.search_key("axpy", "haswell", 3, ["a", "b"], 1)
    assert base != sessions.search_key("axpy", "haswell", 2, ["a"], 1)
    assert base != sessions.search_key("axpy", "generic_sse", 2,
                                       ["a", "b"], 1)
    assert base != sessions.search_key("axpy", "haswell", 2, ["a", "b"], 2)


def test_running_session_with_dead_pid_is_resumable(tmp_path):
    sess = sessions.TuningSession.create(
        tmp_path, "axpy", "axpy", "dup", "haswell", 2, ["c0"], "dead")
    assert not sess.is_resumable()  # our own live pid
    proc = subprocess.run(
        [sys.executable, "-c", "import os;print(os.getpid())"],
        capture_output=True, text=True)
    sess.manifest["pid"] = int(proc.stdout)  # a pid that no longer exists
    sess._write_manifest()
    reopened = sessions.TuningSession.open(sess.path)
    assert not reopened.is_live()
    assert reopened.is_resumable()


# -- interrupt + resume -------------------------------------------------------


@needs_cc
def test_injected_interrupt_seals_session_with_journal(session_store,
                                                       fault_env):
    fault_env("interrupt@#2")
    with pytest.raises(TuningInterrupted) as err:
        tune_kernel("axpy", candidates=_CANDS, batches=1, reuse=False)
    assert err.value.done == 2 and err.value.total == 3
    assert "--resume" in str(err.value)
    found = sessions.list_sessions()
    assert len(found) == 1
    sess = found[0]
    assert sess.status == sessions.INTERRUPTED
    assert sess.id == err.value.session_id
    entries = sess.journal_entries()
    assert [e.index for e in entries] == [0, 1]
    assert all(e.gflops > 0 for e in entries)


@needs_cc
def test_resume_replays_journal_without_retiming(session_store, fault_env,
                                                monkeypatch):
    """Acceptance: --resume skips journaled trials, re-times nothing
    already measured, and converges to the uninterrupted winner."""
    # candidate order is deterministic, so scripting one measurement per
    # timing call makes the winner exact instead of wall-clock-noisy
    script = []
    timed = []

    class _Scripted:
        def __init__(self, gf):
            self._gf = gf

        def gflops(self, flops):
            return self._gf

    def fake_measure(fn, batches=5, **kw):
        timed.append(1)
        return _Scripted(script.pop(0))

    monkeypatch.setattr("repro.tuning.search.measure", fake_measure)

    # the ground truth: an uninterrupted search over the same candidates
    script[:] = [1.0, 3.0, 2.0]
    reference = tune_kernel("axpy", candidates=_CANDS, batches=1,
                            reuse=False)
    assert reference.best is _CANDS[1]
    from repro.backend.cache import get_cache

    get_cache().clear()

    fault_env("interrupt@#2")
    script[:] = [1.0, 3.0]
    with pytest.raises(TuningInterrupted):
        tune_kernel("axpy", candidates=_CANDS, batches=1, reuse=False)
    monkeypatch.delenv("REPRO_FAULT_INJECT")
    from repro.backend import faults

    faults.clear_fault_plan()

    timed.clear()
    script[:] = [2.0]
    result = tune_kernel("axpy", candidates=_CANDS, batches=1,
                         reuse=False, resume=True)
    # only the one unjournaled candidate was ever timed
    assert len(timed) == 1
    assert [t.resumed for t in result.trials] == [True, True, False]
    assert result.best is reference.best
    # the journal replay carried the recorded numbers through verbatim
    assert result.trials[1].gflops == 3.0
    assert result.best_gflops == 3.0
    # and the session sealed complete with the full journal
    sess = sessions.list_sessions()[0]
    assert sess.status == sessions.COMPLETE
    assert len(sess.journal_entries()) == 3


@needs_cc
def test_resume_without_prior_session_starts_fresh(session_store):
    result = tune_kernel("axpy", candidates=_CANDS[:2], batches=1,
                         reuse=False, resume=True)
    assert not any(t.resumed for t in result.trials)
    assert result.best_gflops > 0


@needs_cc
def test_sigint_finishes_inflight_trial_then_stops(session_store,
                                                   monkeypatch):
    """A real SIGINT mid-measurement finishes that trial, journals it,
    and stops before the next candidate."""
    from repro.backend.timer import measure as real_measure

    fired = []

    def interrupting_measure(fn, batches=5, **kw):
        if not fired:
            fired.append(1)
            os.kill(os.getpid(), signal.SIGINT)  # handler just sets a flag
        return real_measure(fn, batches=batches, **kw)

    monkeypatch.setattr("repro.tuning.search.measure",
                        interrupting_measure)
    with pytest.raises(TuningInterrupted) as err:
        tune_kernel("axpy", candidates=_CANDS, batches=1, reuse=False)
    assert err.value.reason == "SIGINT"
    assert err.value.done == 1  # the in-flight trial completed + journaled
    sess = sessions.list_sessions()[0]
    assert sess.status == sessions.INTERRUPTED
    entries = sess.journal_entries()
    assert len(entries) == 1 and entries[0].gflops > 0
    # the search restored the previous SIGINT disposition on the way out
    assert signal.getsignal(signal.SIGINT) is not None


@needs_cc
def test_cache_disabled_interrupt_has_no_session(fault_env, monkeypatch):
    monkeypatch.setenv("REPRO_CACHE_DIR", "off")
    from repro.backend.cache import reset_cache

    reset_cache()
    fault_env("interrupt@#1")
    with pytest.raises(TuningInterrupted) as err:
        tune_kernel("axpy", candidates=_CANDS[:2], batches=1, reuse=False)
    assert err.value.session_id is None
    assert "cache disabled" in str(err.value)
    reset_cache()


# -- CLI ---------------------------------------------------------------------


@needs_cc
def test_cli_interrupt_exit_code_and_resume(session_store, fault_env,
                                            capsys):
    from repro.__main__ import main

    fault_env("interrupt@#1")
    assert main(["tune", "axpy"]) == EXIT_INTERRUPTED
    err = capsys.readouterr().err
    assert "interrupted:" in err and "--resume" in err

    from repro.backend import faults

    faults.clear_fault_plan()
    os.environ.pop("REPRO_FAULT_INJECT", None)

    assert main(["tune", "sessions", "list"]) == 0
    out = capsys.readouterr().out
    assert "interrupted" in out
    sid = out.split()[0]

    assert main(["tune", "sessions", "show", sid]) == 0
    out = capsys.readouterr().out
    assert '"status": "interrupted"' in out and "journal:" in out

    assert main(["tune", "sessions", "resume", sid]) == 0
    out = capsys.readouterr().out
    assert "(resumed)" in out and "<== best" in out

    # a completed session is not resumable a second time
    assert main(["tune", "sessions", "resume", sid]) == 2


def test_cli_sessions_unavailable_when_cache_off(capsys, monkeypatch):
    from repro.__main__ import main

    monkeypatch.setenv("REPRO_CACHE_DIR", "off")
    assert main(["tune", "sessions", "list"]) == 2
    assert "sessions unavailable" in capsys.readouterr().err


def test_cli_sessions_gc_and_unknown_id(session_store, capsys):
    from repro.__main__ import main

    assert main(["tune", "sessions", "gc"]) == 0
    assert "removed 0 sessions" in capsys.readouterr().out
    assert main(["tune", "sessions", "show", "nope"]) == 2
    assert "no session" in capsys.readouterr().err


# -- concurrency --------------------------------------------------------------


_CONCURRENT_CHILD = r"""
import sys
sys.path.insert(0, {src!r})
import repro.tuning.search as search
from repro.tuning.search import tune_kernel
from repro.tuning.space import Candidate
from repro.transforms.pipeline import OptimizationConfig

# scripted timings (candidate order, reuse=False forces both to be
# timed): the race under test is over the shared store, not the clock
script = [1.0, 2.0]


class _M:
    def __init__(self, gf):
        self.gf = gf

    def gflops(self, flops):
        return self.gf


search.measure = lambda fn, batches=5, **kw: _M(script.pop(0))
cands = [Candidate(OptimizationConfig(unroll=(("i", n),))) for n in (2, 4)]
r = tune_kernel("axpy", candidates=cands, batches=1, reuse=False)
print("WINNER", r.best.describe())
"""


@needs_cc
def test_two_concurrent_tuners_one_store_no_corruption(tmp_path):
    """Acceptance: two processes tuning the same kernel against one
    REPRO_CACHE_DIR finish cleanly with valid JSON and no leaked locks."""
    store = tmp_path / "store"
    env = {"REPRO_CACHE_DIR": str(store),
           "PATH": os.environ.get("PATH", "/usr/bin:/bin"),
           "HOME": str(tmp_path)}
    child = _CONCURRENT_CHILD.format(src=SRC)
    procs = [subprocess.Popen([sys.executable, "-c", child],
                              stdout=subprocess.PIPE,
                              stderr=subprocess.PIPE, text=True, env=env)
             for _ in range(2)]
    winners = []
    for proc in procs:
        out, err = proc.communicate(timeout=300)
        assert proc.returncode == 0, err
        winners.append(out.strip().splitlines()[-1])
    assert winners[0] == winners[1]
    # every JSON record in the store parses (nothing half-written)
    checked = 0
    for path in store.rglob("*.json"):
        json.loads(path.read_text())
        checked += 1
    assert checked > 0
    # both sessions sealed complete; no lock files left behind
    listed = sessions.list_sessions(store)
    assert len(listed) == 2
    assert all(s.status == sessions.COMPLETE for s in listed)
    if (store / "locks").exists():
        assert list((store / "locks").glob("*.lock")) == []


# -- gc ----------------------------------------------------------------------


def test_gc_prunes_finished_and_abandoned_keeps_live_and_resumable(
        tmp_path):
    cache_root = tmp_path / "cacheroot"
    sroot = cache_root / "sessions"
    sroot.mkdir(parents=True)

    def make(status, sid, age=0.0):
        sess = sessions.TuningSession.create(
            sroot, "axpy", "axpy", "dup", "haswell", 1, ["c"], sid)
        sess.manifest["status"] = status
        if age:
            sess.manifest["updated"] = time.time() - age
        sess._write_manifest()
        return sess

    done = make(sessions.COMPLETE, "d1d1d1d1")
    failed = make(sessions.FAILED, "f1f1f1f1")
    interrupted = make(sessions.INTERRUPTED, "i1i1i1i1")
    live = make(sessions.RUNNING, "l1l1l1l1")  # our pid: live
    ancient = make(sessions.INTERRUPTED, "a1a1a1a1",
                   age=2 * sessions.DEFAULT_GC_AGE)

    result = sessions.gc_sessions(root=cache_root)
    assert sorted(result.removed) == sorted(
        [done.id, failed.id, ancient.id])
    assert sorted(result.kept) == sorted([interrupted.id, live.id])

    # --all prunes the resumable one too, never the live one
    result = sessions.gc_sessions(root=cache_root,
                                  include_resumable=True)
    assert result.removed == [interrupted.id]
    assert result.kept == [live.id]

    # gc over a missing root is a harmless no-op
    empty = sessions.gc_sessions(root=tmp_path / "nothing")
    assert empty.removed == [] and empty.kept == []


def test_gc_removes_an_old_unreadable_session_and_keeps_a_young_one(
        tmp_path):
    # a torn manifest makes TuningSession.open refuse the directory; once
    # nothing in it has changed for max_age its writer is gone
    cache_root = tmp_path / "cacheroot"
    sroot = cache_root / "sessions"
    old, young = sroot / "torn-old", sroot / "torn-young"
    for path in (old, young):
        path.mkdir(parents=True)
        (path / "manifest.json").write_text('{"version": ')
        assert sessions.TuningSession.open(path) is None
    month_ago = time.time() - 30 * 24 * 3600.0
    for path in (old / "manifest.json", old):
        os.utime(path, (month_ago, month_ago))

    result = sessions.gc_sessions(root=cache_root)
    assert result.removed == ["torn-old"]
    assert result.kept == ["torn-young"]
    assert not old.exists() and young.exists()
