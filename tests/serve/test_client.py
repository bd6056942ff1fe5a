"""ServedBLAS degradation-chain tests: remote, retry, breaker, fallback.

Runs the worker in-thread on the reference tier; the client facade is
exercised both against a live daemon and against nothing at all.
"""

from __future__ import annotations

import os
import shutil
import signal
import tempfile
import threading
import time
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from repro.backend.faults import FaultPlan, clear_fault_plan, install_fault_plan
from repro.blas.api import AugemBLAS
from repro.blas.client import CircuitBreaker, ServedBLAS
from repro.blas.level3 import GemvLeaf
from repro.blas.reference import (ref_gemm, ref_gemv, ref_syr2k, ref_syrk)
from repro.serve.server import ServeConfig, ServeWorker

from tests.conftest import needs_cc


def _start_worker(config):
    worker = ServeWorker(config)
    thread = threading.Thread(target=worker.run, daemon=True)
    thread.start()
    deadline = time.monotonic() + 10
    while not config.socket_path.exists() and time.monotonic() < deadline:
        time.sleep(0.01)
    return worker, thread


def _service(monkeypatch, force_arch):
    """An in-thread worker on the ``force_arch`` tier (None: the host's)."""
    if force_arch is None:
        monkeypatch.delenv("REPRO_FORCE_ARCH", raising=False)
    else:
        monkeypatch.setenv("REPRO_FORCE_ARCH", force_arch)
    clear_fault_plan()
    runtime = Path(tempfile.mkdtemp(prefix="rsv", dir="/tmp"))
    config = ServeConfig(runtime_dir=runtime, warmup=(),
                         compute_threads=2, queue_capacity=8,
                         retry_after_ms=5)
    worker, thread = _start_worker(config)
    yield worker, config
    clear_fault_plan()
    worker.drain(timeout=5)
    thread.join(timeout=10)
    shutil.rmtree(runtime, ignore_errors=True)


@pytest.fixture
def live_service(monkeypatch):
    yield from _service(monkeypatch, "reference")


@pytest.fixture
def host_service(monkeypatch):
    yield from _service(monkeypatch, None)


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

    @needs_cc
    def test_served_dtrsm_is_bit_equal_to_in_process(self, host_service):
        # remote GEMM updates, the local generated-gemv leaf
        _worker, config = host_service
        blas, local = _client(config, hardened=True), AugemBLAS()
        rng = np.random.default_rng(11)
        n = 130
        low = np.tril(rng.standard_normal((n, n)), -1) * 0.05
        low[np.diag_indices(n)] = 1.5 + rng.random(n)
        b = rng.standard_normal((n, 37))
        got = blas.dtrsm(low, b)
        assert np.array_equal(got, local.dtrsm(low, b))
        assert isinstance(blas.level3.leaf, GemvLeaf)
        assert blas.stats.fallbacks == 0 and blas.stats.remote_ok >= 2

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


class TestRetryRestaging:
    def test_retry_after_a_mid_update_hangup_starts_from_caller_arrays(
            self, live_service, monkeypatch):
        """The worker applies daxpy's in-place update to the staged y and
        then hangs up without replying: the retry must compute from the
        caller's y, not from the updated copy the failed attempt left."""
        worker, config = live_service
        real = worker._dispatch_op
        hung_up = []

        def update_then_hang_up(conn, header, *rest):
            if header.get("op") == "call" and not hung_up:
                hung_up.append(header["routine"])
                sink = SimpleNamespace(sendall=lambda data: None)
                real(sink, header, *rest)   # the update lands; no reply
                return False                # close the connection
            return real(conn, header, *rest)

        monkeypatch.setattr(worker, "_dispatch_op", update_then_hang_up)
        blas = _client(config, retries=1)
        rng = np.random.default_rng(30)
        x, y0 = rng.standard_normal(33), rng.standard_normal(33)
        expect = AugemBLAS().daxpy(2.5, x, y0.copy())
        got = blas.daxpy(2.5, x, y0.copy())
        assert hung_up == ["axpy"]
        assert blas.stats.retries == 1 and blas.stats.remote_ok == 1
        assert blas.stats.fallbacks == 0
        assert np.array_equal(got, expect)


def _client_arena_names(blas) -> set:
    """The shared-memory names of this thread's arena still in /dev/shm."""
    channel = blas._local.channel
    return {channel.arena.name} & set(os.listdir("/dev/shm"))


class TestConnectionAndArena:
    def test_arena_name_is_gone_after_each_first_ok_reply(self,
                                                          live_service):
        _worker, config = live_service
        blas = _client(config)
        local = AugemBLAS()
        rng = np.random.default_rng(31)
        names = []
        for n in (6, 40, 12):   # 40 outgrows the first arena
            a, b = rng.standard_normal((n, n)), rng.standard_normal((n, n))
            assert np.array_equal(blas.dgemm(a, b), local.dgemm(a, b))
            assert _client_arena_names(blas) == set()
            names.append(blas._local.channel.arena.name)
        assert names[0] != names[1] == names[2]
        assert blas.stats.remote_ok == 3 and blas.stats.fallbacks == 0

    @pytest.mark.parametrize("routine", ["daxpy", "dgemm"])
    def test_abandoned_compute_cannot_reach_the_next_request(
            self, live_service, monkeypatch, routine):
        """A compute answered ``deadline`` keeps running and then writes
        NaN into every operand, output and in-place array it was given,
        while the client's next request is computing."""
        worker, config = live_service
        real_driver_for = worker._driver_for
        second_running, scribbled = threading.Event(), threading.Event()
        drivers = []

        def driver_for(name):
            real = real_driver_for(name)
            drivers.append(name)
            if len(drivers) == 1:
                def late(*args, **kwargs):
                    result = real(*args, **kwargs)
                    second_running.wait(10)
                    for arg in args:
                        if isinstance(arg, np.ndarray):
                            arg[...] = np.nan
                    scribbled.set()
                    return np.full_like(result, np.nan)
                return late

            def after_the_scribble(*args, **kwargs):
                second_running.set()
                scribbled.wait(10)
                return real(*args, **kwargs)
            return after_the_scribble

        monkeypatch.setattr(worker, "_driver_for", driver_for)
        blas = _client(config, deadline_ms=300, retries=0)
        local = AugemBLAS()
        rng = np.random.default_rng(32)
        a, b = rng.standard_normal((9, 7)), rng.standard_normal((7, 5))
        x, y = rng.standard_normal(21), rng.standard_normal(21)

        def both(facade):
            if routine == "daxpy":
                return facade.daxpy(0.75, x, y.copy())
            return facade.dgemm(a, b)

        expect = both(local)
        assert np.allclose(both(blas), expect)      # the fallback's answer
        assert blas.stats.deadline_hits == 1 and blas.stats.fallbacks == 1
        assert np.array_equal(both(blas), expect)   # served remotely
        assert scribbled.is_set()
        assert blas.stats.remote_ok == 1 and blas.stats.fallbacks == 1

    def test_drain_and_restart_between_requests_is_absorbed(
            self, monkeypatch):
        monkeypatch.setenv("REPRO_FORCE_ARCH", "reference")
        clear_fault_plan()
        runtime = Path(tempfile.mkdtemp(prefix="rsv", dir="/tmp"))
        config = ServeConfig(runtime_dir=runtime, warmup=(),
                             compute_threads=1)
        try:
            worker, thread = _start_worker(config)
            blas = _client(config, retries=0)
            rng = np.random.default_rng(33)
            x, y = rng.standard_normal(50), rng.standard_normal(50)
            expect = AugemBLAS().ddot(x, y)
            assert blas.ddot(x, y) == expect
            worker.drain(timeout=5)
            thread.join(timeout=10)
            assert not thread.is_alive()
            worker, thread = _start_worker(config)
            assert blas.ddot(x, y) == expect
            assert blas.stats.remote_ok == 2
            assert blas.stats.retries == 0 and blas.stats.fallbacks == 0
            worker.drain(timeout=5)
            thread.join(timeout=10)
            assert not thread.is_alive()
        finally:
            shutil.rmtree(runtime, ignore_errors=True)

    def test_two_threads_use_two_connections(self, live_service):
        worker, config = live_service
        blas = _client(config)
        local = AugemBLAS()
        rng = np.random.default_rng(34)
        operands = [(rng.standard_normal((n, 8)), rng.standard_normal((8, n)))
                    for n in (11, 17)]
        results = {}
        barrier = threading.Barrier(3, timeout=20)

        def call(i):
            results[i] = blas.dgemm(*operands[i])
            barrier.wait()   # hold this thread's connection open
            barrier.wait()   # until the main thread has counted

        threads = [threading.Thread(target=call, args=(i,)) for i in (0, 1)]
        for t in threads:
            t.start()
        barrier.wait()
        connections = worker.status()["connections"]
        barrier.wait()
        for t in threads:
            t.join(timeout=10)
            assert not t.is_alive()
        assert connections == 2
        for i, (a, b) in enumerate(operands):
            assert np.array_equal(results[i], local.dgemm(a, b))
        assert blas.stats.remote_ok == 2 and blas.stats.fallbacks == 0

    def test_forked_child_never_uses_the_parents_channel(self,
                                                         live_service):
        _worker, config = live_service
        blas = _client(config)
        rng = np.random.default_rng(35)
        x = rng.standard_normal(64)
        expect = AugemBLAS().ddot(x, x)
        assert blas.ddot(x, x) == expect
        channel = blas._local.channel
        arena = channel.arena.name
        read_end, write_end = os.pipe()
        pid = os.fork()
        if pid == 0:   # the child: report, then leave without cleanup
            verdict = b"0"
            try:
                got = blas.ddot(x, x)
                child = blas._local.channel
                if (got == expect and blas.stats.fallbacks == 0
                        and child is not channel
                        and child.arena.name != arena):
                    verdict = b"1"
            finally:
                os.write(write_end, verdict)
                os._exit(0)
        os.close(write_end)
        deadline = time.monotonic() + 60
        while os.waitpid(pid, os.WNOHANG) == (0, 0):
            if time.monotonic() > deadline:
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)
                pytest.fail("forked child hung")
            time.sleep(0.01)
        with os.fdopen(read_end, "rb") as pipe:
            assert pipe.read() == b"1"
        # the parent's connection and arena were neither reused nor
        # closed: its next call goes out on both, unchanged
        assert blas.ddot(x, x) == expect
        assert blas._local.channel is channel
        assert channel.arena.name == arena
        assert blas.stats.remote_ok == 2 and blas.stats.fallbacks == 0


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
