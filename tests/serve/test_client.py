"""ServedBLAS degradation-chain tests: remote, retry, breaker, fallback.

Runs the worker in-thread on the reference tier; the client facade is
exercised both against a live daemon and against nothing at all.
"""

from __future__ import annotations

import shutil
import tempfile
import threading
import time
from pathlib import Path

import numpy as np
import pytest

from repro.backend.faults import FaultPlan, clear_fault_plan, install_fault_plan
from repro.blas.client import CircuitBreaker, ServedBLAS
from repro.blas.reference import (ref_gemm, ref_gemv, ref_syr2k, ref_syrk)
from repro.serve.server import ServeConfig, ServeWorker


@pytest.fixture
def live_service(monkeypatch):
    monkeypatch.setenv("REPRO_FORCE_ARCH", "reference")
    clear_fault_plan()
    runtime = Path(tempfile.mkdtemp(prefix="rsv", dir="/tmp"))
    config = ServeConfig(runtime_dir=runtime, warmup=(),
                         compute_threads=2, queue_capacity=8,
                         retry_after_ms=5)
    worker = ServeWorker(config)
    thread = threading.Thread(target=worker.run, daemon=True)
    thread.start()
    deadline = time.monotonic() + 10
    while not config.socket_path.exists() and time.monotonic() < deadline:
        time.sleep(0.01)
    yield worker, config
    clear_fault_plan()
    worker.drain(timeout=5)
    thread.join(timeout=10)
    shutil.rmtree(runtime, ignore_errors=True)


def _client(config_or_dir, **kwargs) -> ServedBLAS:
    runtime = (config_or_dir.runtime_dir
               if hasattr(config_or_dir, "runtime_dir") else config_or_dir)
    kwargs.setdefault("hardened", False)
    return ServedBLAS(runtime_dir=runtime, **kwargs)


class TestRemoteServing:
    def test_all_families_match_reference(self, live_service):
        worker, config = live_service
        blas = _client(config)
        rng = np.random.default_rng(7)
        a = rng.standard_normal((13, 6))
        b = rng.standard_normal((6, 9))
        c = rng.standard_normal((13, 9))
        assert np.allclose(blas.dgemm(a, b, c, alpha=1.5, beta=0.5),
                           ref_gemm(a, b, c, 1.5, 0.5))
        x6 = rng.standard_normal(6)
        x13 = rng.standard_normal(13)
        assert np.allclose(blas.dgemv(a, x6), ref_gemv(a, x6))
        assert np.allclose(blas.dgemv(a, x13, trans=True),
                           ref_gemv(a, x13, trans=True))
        x = rng.standard_normal(17)
        y = rng.standard_normal(17)
        expect = y + 2.5 * x
        got = blas.daxpy(2.5, x, y.copy())
        assert np.allclose(got, expect)
        assert np.isclose(blas.ddot(x, y), float(x @ y))
        scaled = blas.dscal(3.0, x.copy())
        assert np.allclose(scaled, 3.0 * x)
        assert blas.stats.remote_ok >= 6
        assert blas.stats.fallbacks == 0
        assert worker.quotas.totals()["completed"] >= 6

    def test_composed_level3_rides_the_service(self, live_service):
        _worker, config = live_service
        blas = _client(config)
        rng = np.random.default_rng(8)
        sym = rng.standard_normal((5, 5))
        sym = sym + sym.T
        a = rng.standard_normal((5, 4))
        assert np.allclose(blas.dsyrk(a), ref_syrk(a))
        assert np.allclose(blas.dsyr2k(a, a + 1.0), ref_syr2k(a, a + 1.0))
        assert np.allclose(blas.dsymm(sym, a), ref_gemm(sym, a))
        lower = np.tril(rng.standard_normal((4, 4))) + 4.0 * np.eye(4)
        rhs = rng.standard_normal((4, 3))
        assert np.allclose(blas.dtrmm(lower, rhs), lower @ rhs)
        assert np.allclose(lower @ blas.dtrsm(lower, rhs), rhs)
        # every one of those was served remotely, not locally
        assert blas.stats.fallbacks == 0
        assert blas.stats.remote_ok > 0

    def test_rank_k_updates_cost_a_handful_of_requests(self, live_service):
        from repro.blas.api import AugemBLAS
        from repro.blas.level3 import Level3

        _worker, config = live_service
        blas, local = _client(config), AugemBLAS()
        rng = np.random.default_rng(10)
        n = 512
        a = rng.standard_normal((n, 24))
        b = rng.standard_normal((n, 24))
        panels = -(-n // Level3.panel)
        before = blas.stats.requests
        got = blas.dsyrk(a)
        assert blas.stats.requests - before <= 2 * panels
        assert np.array_equal(got, local.dsyrk(a))  # bit-equal to in-process
        before = blas.stats.requests
        got = blas.dsyr2k(a, b)
        assert blas.stats.requests - before <= 4 * panels
        assert np.array_equal(got, local.dsyr2k(a, b))
        assert blas.stats.fallbacks == 0

    def test_dger_is_one_remote_request(self, live_service):
        from repro.blas.api import AugemBLAS

        _worker, config = live_service
        blas = _client(config)
        rng = np.random.default_rng(9)
        a = rng.standard_normal((6, 5))
        x = rng.standard_normal(6)
        y = rng.standard_normal(5)
        local = AugemBLAS().dger(0.5, x, y, a.copy())
        before = blas.stats.requests
        target = a.copy()
        got = blas.dger(0.5, x, y, target)
        assert got is target
        assert blas.stats.requests - before == 1   # not one per row
        assert blas.stats.fallbacks == 0
        assert np.array_equal(got, local)           # bit-equal to in-process
        assert np.allclose(got, a + 0.5 * np.outer(x, y))

    def test_dger_falls_back_when_daemon_rejects_ger(self, live_service,
                                                     monkeypatch):
        """A daemon that predates the ``ger`` routine answers
        bad_request; the client falls back in-process from an A the
        failed remote attempt never touched."""
        from repro.serve import server as server_mod

        _worker, config = live_service
        monkeypatch.setattr(
            server_mod, "ROUTINES",
            {k: v for k, v in server_mod.ROUTINES.items() if k != "ger"})
        blas = _client(config)
        rng = np.random.default_rng(16)
        a0 = rng.standard_normal((7, 4))
        x = rng.standard_normal(7)
        y = rng.standard_normal(4)
        seen = []
        real = blas.local_driver

        def recording_local(routine):
            driver = real(routine)
            return lambda alpha, x, y, a: (seen.append(a.copy()),
                                           driver(alpha, x, y, a))[1]

        monkeypatch.setattr(blas, "local_driver", recording_local)
        a = a0.copy()
        got = blas.dger(2.0, x, y, a)
        assert blas.stats.requests == 1 and blas.stats.fallbacks == 1
        assert blas.stats.remote_ok == 0
        assert len(seen) == 1 and np.array_equal(seen[0], a0)
        assert got is a
        assert np.allclose(a, a0 + 2.0 * np.outer(x, y))

    def test_retry_after_injected_reject(self, live_service):
        _worker, config = live_service
        install_fault_plan(FaultPlan.parse("serve_reject@#0"))
        blas = _client(config, retries=2)
        rng = np.random.default_rng(10)
        a = rng.standard_normal((4, 3))
        b = rng.standard_normal((3, 2))
        assert np.allclose(blas.dgemm(a, b), ref_gemm(a, b))
        assert blas.stats.rejected == 1
        assert blas.stats.retries == 1
        assert blas.stats.remote_ok == 1
        assert blas.stats.fallbacks == 0

    def test_stall_degrades_to_fallback(self, live_service):
        _worker, config = live_service
        install_fault_plan(FaultPlan.parse("serve_stall@gemm"))
        blas = _client(config, deadline_ms=150, retries=0)
        rng = np.random.default_rng(11)
        a = rng.standard_normal((4, 3))
        b = rng.standard_normal((3, 2))
        assert np.allclose(blas.dgemm(a, b), ref_gemm(a, b))
        assert blas.stats.deadline_hits == 1
        assert blas.stats.fallbacks == 1

    def test_draining_service_degrades_to_fallback(self, live_service):
        worker, config = live_service
        worker._draining.set()
        blas = _client(config)
        rng = np.random.default_rng(12)
        a = rng.standard_normal((4, 3))
        b = rng.standard_normal((3, 2))
        assert np.allclose(blas.dgemm(a, b), ref_gemm(a, b))
        assert blas.stats.draining_hits == 1
        assert blas.stats.fallbacks == 1
        worker._draining.clear()


class TestNoService:
    def test_fallback_without_daemon(self, monkeypatch):
        monkeypatch.setenv("REPRO_FORCE_ARCH", "reference")
        runtime = Path(tempfile.mkdtemp(prefix="rsx", dir="/tmp"))
        try:
            blas = _client(runtime, retries=0)
            assert not blas.service_alive()
            rng = np.random.default_rng(13)
            a = rng.standard_normal((5, 4))
            b = rng.standard_normal((4, 6))
            assert np.allclose(blas.dgemm(a, b), ref_gemm(a, b))
            assert blas.stats.fallbacks == 1
            assert blas.stats.remote_ok == 0
        finally:
            shutil.rmtree(runtime, ignore_errors=True)

    def test_inplace_operand_untouched_before_fallback(self, monkeypatch):
        monkeypatch.setenv("REPRO_FORCE_ARCH", "reference")
        runtime = Path(tempfile.mkdtemp(prefix="rsx", dir="/tmp"))
        try:
            blas = _client(runtime, retries=0)
            rng = np.random.default_rng(14)
            x = rng.standard_normal(9)
            y = rng.standard_normal(9)
            expect = y + 2.0 * x
            got = blas.daxpy(2.0, x, y)
            # exactly one application of the update — the failed remote
            # attempt must not have partially mutated y first
            assert np.allclose(got, expect)
        finally:
            shutil.rmtree(runtime, ignore_errors=True)

    def test_breaker_opens_and_short_circuits(self, monkeypatch):
        monkeypatch.setenv("REPRO_FORCE_ARCH", "reference")
        runtime = Path(tempfile.mkdtemp(prefix="rsx", dir="/tmp"))
        try:
            blas = _client(runtime, retries=0, breaker_threshold=2,
                           breaker_cooldown=30.0)
            rng = np.random.default_rng(15)
            x = rng.standard_normal(5)
            for _ in range(4):
                blas.ddot(x, x)
            assert blas.stats.breaker_opens == 1
            assert blas.breaker.state == "open"
            # later calls skipped the socket entirely
            assert blas.stats.breaker_short_circuits >= 1
            assert blas.stats.fallbacks == 4
        finally:
            shutil.rmtree(runtime, ignore_errors=True)


class TestCircuitBreaker:
    def test_threshold_and_recovery(self):
        breaker = CircuitBreaker(failure_threshold=2, cooldown=0.05)
        assert breaker.state == "closed"
        assert not breaker.record_failure()
        assert breaker.record_failure()   # opens now
        assert breaker.state == "open"
        assert not breaker.allow()
        time.sleep(0.08)
        assert breaker.state == "half-open"
        assert breaker.allow()            # the probe slot
        assert not breaker.allow()        # only one probe at a time
        breaker.record_success()
        assert breaker.state == "closed"
        assert breaker.allow()

    def test_failed_probe_reopens(self):
        breaker = CircuitBreaker(failure_threshold=1, cooldown=0.05)
        breaker.record_failure()
        time.sleep(0.08)
        assert breaker.allow()
        breaker.record_failure()
        assert breaker.state == "open"
        assert not breaker.allow()
