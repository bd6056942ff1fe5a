"""End-to-end ABFT containment through the serve daemon.

The acceptance demo for the integrity layer: a ``corrupt@#0`` fault in a
*threaded* serve worker must never reach a client — every flagged
request returns bit-correct results plus a verdict recording the
detection; repeated corruption quarantines the kernel by body hash and
demotes its tier; and a drain persists the demotion so a restarted
worker starts on the safe tier.

The worker runs in-thread (like ``test_server.py``) with the gemm route
pinned to the emulator-backed driver, so no kernel is assembled (the
GEBP loop around it is compiled C) and the corrupt fault fires inside
real pool worker threads.
"""

from __future__ import annotations

import shutil
import tempfile
import threading
import time
from pathlib import Path

import numpy as np
import pytest

from repro.backend.cache import get_cache, reset_cache
from repro.backend.faults import FaultPlan, clear_fault_plan, install_fault_plan
from repro.blas import dispatch
from repro.blas.integrity import (emulated_gemm_driver,
                                  reset_integrity_state)
from repro.core.framework import quarantine_key
from repro.serve.protocol import (ERR_BAD_REQUEST, PROTOCOL_VERSION,
                                  call_header, charged_bytes)
from repro.serve.server import ServeConfig, ServeWorker
from repro.serve.shm import SegmentSet
from repro.serve.supervisor import rpc
from tests.conftest import needs_cc


@pytest.fixture
def serve_env(tmp_path, monkeypatch):
    """An in-thread worker whose gemm route is the emulated ABFT driver."""
    monkeypatch.setenv("REPRO_FORCE_ARCH", "reference")
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "store"))
    reset_cache()
    dispatch.reset_dispatch_state()
    reset_integrity_state()
    clear_fault_plan()
    runtime = Path(tempfile.mkdtemp(prefix="rsi", dir="/tmp"))
    config = ServeConfig(runtime_dir=runtime, warmup=(),
                         compute_threads=1, queue_capacity=4,
                         max_inflight_per_client=4, retry_after_ms=10,
                         drain_grace=10.0)
    worker = ServeWorker(config)
    # gemm runs through the emulator at 2 threads: the corrupt fault and
    # its verification both happen on real pool worker threads
    gemm = emulated_gemm_driver(threads=2, integrity="off")
    original = worker._driver_for
    worker._driver_for = (lambda routine: gemm if routine == "gemm"
                          else original(routine))
    thread = threading.Thread(target=worker.run, daemon=True)
    thread.start()
    deadline = time.monotonic() + 10
    while not config.socket_path.exists() and time.monotonic() < deadline:
        time.sleep(0.01)
    assert config.socket_path.exists(), "worker never bound its socket"
    yield worker, config, gemm
    clear_fault_plan()
    worker.drain(timeout=5)
    thread.join(timeout=10)
    shutil.rmtree(runtime, ignore_errors=True)
    dispatch.reset_dispatch_state()
    reset_integrity_state()
    reset_cache()


def _gemm_call(config, a, b, integrity=None, client="ti"):
    """One gemm round trip; returns (reply, result array)."""
    with SegmentSet(prefix="rit") as segments:
        _va, ra = segments.add(a.shape, fill=a)
        _vb, rb = segments.add(b.shape, fill=b)
        out_view, out_ref = segments.add((a.shape[0], b.shape[1]))
        header = call_header("gemm", client, 15000,
                             {"a": ra, "b": rb},
                             {"alpha": 1.0, "beta": 0.0}, {}, out_ref,
                             integrity=integrity)
        reply = rpc(config.socket_path, header, timeout=20.0)
        assert reply is not None, "worker dropped the connection"
        result = np.array(out_view, copy=True)
    return reply, result


def test_charged_bytes_surcharge():
    assert charged_bytes(800, None) == 800
    assert charged_bytes(800, "off") == 800
    assert charged_bytes(800, "full") == 900
    assert charged_bytes(800, "sample") == 900


@needs_cc
def test_bad_integrity_mode_is_rejected(serve_env, rng):
    _worker, config, _gemm = serve_env
    a = rng.standard_normal((4, 4))
    reply, _ = _gemm_call(config, a, a, integrity="bogus")
    assert reply["error"]["code"] == ERR_BAD_REQUEST


@needs_cc
def test_clean_full_verification_reports_zero_mismatches(serve_env, rng):
    _worker, config, _gemm = serve_env
    a = rng.standard_normal((12, 8))
    b = rng.standard_normal((8, 12))
    reply, result = _gemm_call(config, a, b, integrity="full")
    assert reply["ok"], reply
    assert np.allclose(result, a @ b, rtol=1e-12, atol=1e-12)
    verdict = reply["integrity"]
    assert verdict["checked"] is True
    assert verdict["tiles_checked"] > 0
    assert verdict["mismatches"] == 0


@needs_cc
def test_unflagged_request_carries_no_verdict(serve_env, rng):
    _worker, config, _gemm = serve_env
    a = rng.standard_normal((8, 8))
    reply, result = _gemm_call(config, a, a)
    assert reply["ok"]
    assert "integrity" not in reply
    assert np.allclose(result, a @ a)


@needs_cc
def test_corrupt_worker_contained_quarantined_and_persisted(serve_env, rng):
    worker, config, gemm = serve_env
    install_fault_plan(FaultPlan.parse("corrupt@#0"))
    a = rng.standard_normal((12, 8))
    b = rng.standard_normal((8, 12))
    gk = gemm.kernel.generated

    strikes_needed = gemm.integrity.strike_limit
    for call in range(strikes_needed):
        reply, result = _gemm_call(config, a, b, integrity="full")
        assert reply["ok"], reply
        # bit-correct results despite the injected bit flip, every call
        assert np.allclose(result, a @ b, rtol=1e-12, atol=1e-12), call
        verdict = reply["integrity"]
        assert verdict["mismatches"] >= 1
        assert verdict["reference_recomputes"] >= 1

    # the final strike quarantined the kernel by body hash...
    assert verdict["quarantined"] == [gk.body_hash]
    record = get_cache().load_quarantine(
        quarantine_key("gemm", gk.arch, gk))
    assert record is not None and record["category"] == "integrity"

    # ...demoted its tier, and the worker persisted the verdict store
    assert dispatch._TIER_VERDICTS[gk.arch.name][0] is False
    status = rpc(config.socket_path,
                 {"op": "status", "v": PROTOCOL_VERSION})
    counters = status["status"]["integrity"]
    assert counters["mismatches"] >= strikes_needed
    assert counters["quarantines"] == 1

    clear_fault_plan()
    worker.drain(timeout=5)
    # a restarted worker (fresh dispatch state) inherits the demotion
    dispatch.reset_dispatch_state()
    assert dispatch.load_tier_verdicts(config.verdict_path) >= 1
    tier_ok, reason = dispatch._TIER_VERDICTS[gk.arch.name]
    assert tier_ok is False
    assert "integrity" in reason


@needs_cc
def test_status_reports_integrity_mode(serve_env):
    _worker, config, _gemm = serve_env
    status = rpc(config.socket_path,
                 {"op": "status", "v": PROTOCOL_VERSION})
    integrity = status["status"]["integrity"]
    assert integrity["mode"] == "off"       # config default
    assert "checks" in integrity
