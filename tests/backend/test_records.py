"""The one JSON-record reader/writer (``fsio.read_record`` /
``fsio.write_record``) and the stores built on it: a record that parses
but breaks its store's rule is corrupt to every loader, never handed to
a caller that then crashes on it."""

import errno
import json
import re

import pytest

from repro.backend import fsio
from repro.backend.cache import get_cache, reset_cache
from repro.backend.faults import (FaultPlan, clear_fault_plan,
                                  install_fault_plan)
from repro.backend.locks import FileLock
from repro.blas import dispatch
from repro.serve import supervisor
from repro.serve.server import ServeConfig
from repro.tuning.session import TuningSession

KEY = "ab" * 12


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
    dispatch.reset_dispatch_state()


# ---------------------------------------------------------------------------
# read_record / write_record
# ---------------------------------------------------------------------------


def test_record_roundtrip_creates_parent(store):
    path = store / "a" / "b" / "rec.json"
    assert fsio.write_record(path, {"version": 3, "x": [1, 2]}, tag="t")
    assert fsio.read_record(path, version=3) == {"version": 3, "x": [1, 2]}
    assert fsio.read_record(path) == {"version": 3, "x": [1, 2]}


def test_absent_record_raises_file_not_found(store):
    with pytest.raises(FileNotFoundError):
        fsio.read_record(store / "nope.json")
    store.mkdir(parents=True)
    (store / "file").write_text("{}")
    with pytest.raises(FileNotFoundError):  # a file where a dir should be
        fsio.read_record(store / "file" / "rec.json")


@pytest.mark.parametrize("text, version, defect", [
    ("{torn", None, "unreadable"),
    ("", None, "unreadable"),
    (b"\xff\xfe", None, "unreadable"),
    ("[1]", None, "not a JSON object"),
    ("3", None, "not a JSON object"),
    ('{"version": 1}', 2, "version 1 (current 2)"),
    ("{}", 2, "version None (current 2)"),
])
def test_defective_record_raises_record_error(store, text, version, defect):
    store.mkdir(parents=True)
    path = store / "rec.json"
    if isinstance(text, bytes):
        path.write_bytes(text)
    else:
        path.write_text(text)
    with pytest.raises(fsio.RecordError, match=re.escape(defect)):
        fsio.read_record(path, version=version)


def test_write_record_skips_a_degraded_disk(store):
    fsio.note_disk_error(OSError(errno.ENOSPC, "full"), "test")
    assert not fsio.write_record(store / "rec.json", {"a": 1}, tag="t")
    assert not (store / "rec.json").exists()


def test_write_record_absorbs_os_errors(store):
    store.mkdir(parents=True)
    (store / "file").write_text("x")
    assert not fsio.write_record(store / "file" / "rec.json", {}, tag="t")
    assert fsio.disk_degraded() is None  # a layout error is not a sick disk
    install_fault_plan(FaultPlan.parse("diskfull@t"))
    assert not fsio.write_record(store / "rec.json", {}, tag="t")
    assert fsio.disk_degraded() is not None


def test_write_record_passes_its_tag_to_the_checkpoints(store):
    install_fault_plan(FaultPlan.parse("torn@cache.stats"))
    assert fsio.write_record(store / "other.json", {"a": 1}, tag="other")
    assert fsio.write_record(store / "stats.json", {"a": 1},
                             tag="cache.stats")
    assert fsio.read_record(store / "other.json") == {"a": 1}
    with pytest.raises(fsio.RecordError):
        fsio.read_record(store / "stats.json")


# ---------------------------------------------------------------------------
# every store treats an ill-typed record as corrupt
# ---------------------------------------------------------------------------


def _cache_stats(store):
    from repro.__main__ import main
    return main(["cache", "stats"])


def _serve_status(store):
    return supervisor.status(ServeConfig(runtime_dir=store / "run"))


def _session(store):
    return TuningSession.open(store / "sessions" / "s1")


def _verdicts(store):
    return dispatch.load_tier_verdicts(store / "serve_verdicts.json")


def _lock_holder(store):
    return FileLock(store / "locks" / "x.lock")._read_holder()


# (artifact, payload, loader, what the loader must return, evicted?)
ILL_TYPED = [
    pytest.param(f"tuning/ab/{KEY}.json", [1],
                 lambda store: get_cache().load_tuning(KEY), None, True,
                 id="tuning-not-object"),
    pytest.param(f"tuning/ab/{KEY}.json", {"gflops": "fast"},
                 lambda store: get_cache().load_tuning(KEY), None, True,
                 id="tuning-gflops-not-numeric"),
    pytest.param(f"tuning/ab/{KEY}.json", {"best_seconds": 1.0},
                 lambda store: get_cache().load_tuning(KEY), None, True,
                 id="tuning-gflops-missing"),
    pytest.param(f"quarantine/ab/{KEY}.json", [1],
                 lambda store: get_cache().load_quarantine(KEY), None, True,
                 id="quarantine"),
    pytest.param("stats.json", [1], _cache_stats, 0, False, id="stats"),
    pytest.param("run/state.json", [1], _serve_status, 2, False,
                 id="serve-state"),
    pytest.param("run/state.json", {"supervisor_pid": -1, "phase": "x"},
                 lambda store: supervisor.read_state(store / "run"), None,
                 False, id="serve-state-bad-pid"),
    pytest.param("sessions/s1/manifest.json", [1], _session, None, False,
                 id="session-manifest"),
    pytest.param("sessions/s1/manifest.json", {"version": 1}, _session,
                 None, False, id="session-manifest-no-id"),
    pytest.param("serve_verdicts.json", [1], _verdicts, 0, False,
                 id="verdicts"),
    pytest.param("locks/x.lock", [1], _lock_holder, None, False,
                 id="lock-holder"),
    pytest.param("locks/x.lock", {"pid": "x", "time": 0.0}, _lock_holder,
                 None, False, id="lock-holder-pid-not-int"),
]


@pytest.mark.parametrize("artifact, payload, loader, absent, evicted",
                         ILL_TYPED)
def test_ill_typed_record_is_corrupt_to_its_loader(store, capsys, artifact,
                                                   payload, loader, absent,
                                                   evicted):
    path = store / artifact
    path.parent.mkdir(parents=True)
    path.write_text(json.dumps(payload))
    assert loader(store) == absent
    assert path.exists() is not evicted
