"""In-thread worker tests: admission, backpressure, deadlines, drain.

The worker runs as a daemon thread inside the test process (reference
tier, no toolchain needed), talking over a real unix socket in a short
``/tmp`` path (socket paths are limited to ~107 bytes, so pytest's deep
``tmp_path`` cannot host them).
"""

from __future__ import annotations

import json
import shutil
import socket
import tempfile
import threading
import time
from pathlib import Path

import numpy as np
import pytest

from repro.backend.faults import FaultPlan, clear_fault_plan, install_fault_plan
from repro.serve.protocol import (ERR_BAD_REQUEST, ERR_BUSY, ERR_DEADLINE,
                                  ERR_DRAINING, ERR_QUOTA, PROTOCOL_VERSION,
                                  ArrayRef, call_header, ok_response,
                                  recv_frame, send_frame)
from repro.serve.server import ServeConfig, ServeWorker
from repro.serve.shm import SegmentSet
from repro.serve.supervisor import rpc


@pytest.fixture
def serve_env(monkeypatch):
    """A running in-thread worker on the reference tier."""
    monkeypatch.setenv("REPRO_FORCE_ARCH", "reference")
    clear_fault_plan()
    runtime = Path(tempfile.mkdtemp(prefix="rsv", dir="/tmp"))
    config = ServeConfig(runtime_dir=runtime, warmup=(),
                         compute_threads=1, queue_capacity=1,
                         max_inflight_per_client=4, retry_after_ms=10,
                         drain_grace=10.0)
    worker = ServeWorker(config)
    thread = threading.Thread(target=worker.run, daemon=True)
    thread.start()
    deadline = time.monotonic() + 10
    while not config.socket_path.exists() and time.monotonic() < deadline:
        time.sleep(0.01)
    assert config.socket_path.exists(), "worker never bound its socket"
    yield worker, config
    clear_fault_plan()
    worker.drain(timeout=5)
    thread.join(timeout=10)
    shutil.rmtree(runtime, ignore_errors=True)


def _open_call(config, header):
    """Send one call frame and return the socket (reply read later)."""
    sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
    sock.settimeout(15)
    sock.connect(str(config.socket_path))
    send_frame(sock, header)
    return sock


def _scal_header(ref, client="t", deadline_ms=5000):
    return call_header("scal", client, deadline_ms, {"x": ref},
                       {"alpha": 1.0}, {}, None)


class TestAdmission:
    def test_ping_and_status(self, serve_env):
        _worker, config = serve_env
        reply = rpc(config.socket_path, {"op": "ping",
                                         "v": PROTOCOL_VERSION})
        assert reply and reply["ok"]
        status = rpc(config.socket_path, {"op": "status",
                                          "v": PROTOCOL_VERSION})
        assert status["ok"]
        assert status["status"]["queue"]["capacity"] == 1
        assert status["status"]["draining"] is False

    def test_unknown_op(self, serve_env):
        _worker, config = serve_env
        reply = rpc(config.socket_path, {"op": "mystery",
                                         "v": PROTOCOL_VERSION})
        assert reply["error"]["code"] == ERR_BAD_REQUEST

    def test_version_mismatch(self, serve_env):
        _worker, config = serve_env
        reply = rpc(config.socket_path,
                    {"op": "call", "v": 999, "routine": "dot"})
        assert reply["error"]["code"] == ERR_BAD_REQUEST
        assert "version" in reply["error"]["message"]

    def test_unknown_routine(self, serve_env):
        _worker, config = serve_env
        reply = rpc(config.socket_path,
                    {"op": "call", "v": PROTOCOL_VERSION,
                     "routine": "trsv"})
        assert reply["error"]["code"] == ERR_BAD_REQUEST

    def test_missing_operand(self, serve_env):
        _worker, config = serve_env
        reply = rpc(config.socket_path,
                    {"op": "call", "v": PROTOCOL_VERSION, "routine": "dot",
                     "client": "t", "deadline_ms": 2000, "arrays": {}})
        assert reply["error"]["code"] == ERR_BAD_REQUEST

    def test_queue_full_answers_busy_with_retry_after(self, serve_env):
        worker, config = serve_env
        # pin the single compute thread so the 1-slot queue backs up
        worker._execute = lambda request: (time.sleep(0.6),
                                           ok_response(result="x"))[1]
        with SegmentSet() as segments:
            _view, ref = segments.add((4,), fill=np.ones(4))
            first = _open_call(config, _scal_header(ref, client="c1"))
            time.sleep(0.15)   # compute thread picks it up
            second = _open_call(config, _scal_header(ref, client="c2"))
            time.sleep(0.15)   # parks in the only queue slot
            third = _open_call(config, _scal_header(ref, client="c3"))
            rejected = recv_frame(third)
            assert rejected["error"]["code"] == ERR_BUSY
            assert rejected["error"]["retry_after_ms"] == 10
            assert recv_frame(first)["ok"]
            assert recv_frame(second)["ok"]
            for sock in (first, second, third):
                sock.close()
        totals = worker.quotas.totals()
        assert totals["rejected_busy"] == 1
        assert totals["completed"] == 2

    def test_per_client_quota(self, serve_env):
        worker, config = serve_env
        worker.quotas.max_inflight_per_client = 1
        worker._execute = lambda request: (time.sleep(0.5),
                                           ok_response(result="x"))[1]
        with SegmentSet() as segments:
            _view, ref = segments.add((4,), fill=np.ones(4))
            first = _open_call(config, _scal_header(ref, client="greedy"))
            time.sleep(0.15)
            second = _open_call(config, _scal_header(ref, client="greedy"))
            rejected = recv_frame(second)
            assert rejected["error"]["code"] == ERR_QUOTA
            assert rejected["error"]["retry_after_ms"] == 10
            assert recv_frame(first)["ok"]
            first.close()
            second.close()
        assert worker.quotas.snapshot()["greedy"]["rejected_quota"] == 1

    def test_malformed_deadline_is_bad_request_and_frees_no_slot(
            self, serve_env):
        worker, config = serve_env
        worker.quotas.max_inflight_per_client = 2
        with SegmentSet() as segments:
            _view, ref = segments.add((4,), fill=np.ones(4))
            bad = _scal_header(ref, client="c")
            bad["deadline_ms"] = "soon"
            for _ in range(2):   # two of these once locked "c" out
                reply = rpc(config.socket_path, bad)
                assert reply["error"]["code"] == ERR_BAD_REQUEST
            assert worker.quotas.totals()["inflight"] == 0
            assert rpc(config.socket_path,
                       _scal_header(ref, client="c"))["ok"]

    @pytest.mark.parametrize("dtype", ["nope", "float32"])
    def test_non_float64_operand_is_bad_request(self, serve_env, dtype):
        worker, config = serve_env
        with SegmentSet() as segments:
            _view, ref = segments.add((4,), fill=np.ones(4))
            header = _scal_header(ref, client="d")
            header["arrays"]["x"]["dtype"] = dtype
            reply = rpc(config.socket_path, header)
        assert reply["error"]["code"] == ERR_BAD_REQUEST
        assert worker.quotas.snapshot().get("d", {}).get("admitted", 0) == 0

    def test_oversized_request_bytes(self, serve_env):
        worker, config = serve_env
        worker.quotas.max_request_bytes = 64
        with SegmentSet() as segments:
            _view, ref = segments.add((64,), fill=np.zeros(64))  # 512 B
            reply = rpc(config.socket_path, _scal_header(ref))
            assert reply["error"]["code"] == ERR_QUOTA


class TestOperandPlacement:
    @pytest.mark.parametrize("offset, shape", [
        (-8, (4,)),      # negative offset
        (4, (4,)),       # offset not a multiple of 8
        (8, (4,)),       # the operand runs past the segment end
        (64, (1,)),      # the offset itself is past the end
        (0, (1000,)),    # a shape larger than the segment
    ])
    def test_bad_placement_is_bad_request_and_the_worker_goes_on(
            self, serve_env, offset, shape):
        worker, config = serve_env
        with SegmentSet() as segments:
            view, ref = segments.add((4,), fill=np.arange(4.0))  # 32 B
            bad = ArrayRef(shm=ref.shm, shape=shape, offset=offset)
            good = call_header("scal", "t", 5000, {"x": ref},
                               {"alpha": 2.0}, {}, None)
            sock = _open_call(config, _scal_header(bad))
            try:
                reply = recv_frame(sock)
                assert reply["error"]["code"] == ERR_BAD_REQUEST
                send_frame(sock, good)   # same connection, still served
                assert recv_frame(sock)["ok"]
            finally:
                sock.close()
            assert np.array_equal(view, 2.0 * np.arange(4.0))
        assert worker.quotas.totals()["inflight"] == 0

    def test_one_segment_per_operand_is_served_bit_equal(self, serve_env):
        from repro.blas.api import AugemBLAS

        _worker, config = serve_env
        local = AugemBLAS()
        rng = np.random.default_rng(40)
        sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        sock.settimeout(15)
        sock.connect(str(config.socket_path))
        try:
            for m, k, n in ((5, 7, 3), (12, 4, 9)):   # one connection
                a = rng.standard_normal((m, k))
                b = rng.standard_normal((k, n))
                with SegmentSet() as segments:
                    _, ra = segments.add(a.shape, fill=a)
                    _, rb = segments.add(b.shape, fill=b)
                    out, ro = segments.add((m, n))
                    send_frame(sock, call_header(
                        "gemm", "t", 5000, {"a": ra, "b": rb},
                        {"alpha": 1.5, "beta": 0.0}, {}, ro))
                    assert recv_frame(sock)["ok"]
                    assert np.array_equal(out, local.dgemm(a, b, alpha=1.5))
        finally:
            sock.close()


class TestDeadlines:
    def test_slow_compute_answers_deadline(self, serve_env):
        worker, config = serve_env
        worker._execute = lambda request: (time.sleep(0.8),
                                           ok_response(result="x"))[1]
        with SegmentSet() as segments:
            _view, ref = segments.add((4,), fill=np.ones(4))
            t0 = time.monotonic()
            reply = rpc(config.socket_path,
                        _scal_header(ref, deadline_ms=100), timeout=15)
            elapsed = time.monotonic() - t0
        assert reply["error"]["code"] == ERR_DEADLINE
        assert elapsed < 0.7  # answered at deadline+grace, not compute end
        assert worker.quotas.totals()["deadline_expired"] == 1

    def test_expired_while_queued_is_cancelled(self, serve_env):
        worker, config = serve_env
        executed = []
        real_execute = worker._execute

        def tracking_execute(request):
            executed.append(request.header.get("client"))
            time.sleep(0.5)
            return ok_response(result="x")

        worker._execute = tracking_execute
        with SegmentSet() as segments:
            _view, ref = segments.add((4,), fill=np.ones(4))
            first = _open_call(config, _scal_header(ref, client="slowpoke"))
            time.sleep(0.15)
            # parks in the queue with a deadline it cannot make
            second = _open_call(
                config, _scal_header(ref, client="victim", deadline_ms=100))
            rejected = recv_frame(second)
            assert rejected["error"]["code"] == ERR_DEADLINE
            assert recv_frame(first)["ok"]
            first.close()
            second.close()
        time.sleep(0.2)  # let the compute loop drain the abandoned entry
        assert executed == ["slowpoke"]  # the victim never ran
        worker._execute = real_execute


class TestInjectedFaults:
    def test_serve_reject_fires_by_index(self, serve_env):
        _worker, config = serve_env
        install_fault_plan(FaultPlan.parse("serve_reject@#0"))
        with SegmentSet() as segments:
            _view, ref = segments.add((4,), fill=np.ones(4))
            first = rpc(config.socket_path, _scal_header(ref))
            second = rpc(config.socket_path, _scal_header(ref))
        assert first["error"]["code"] == ERR_BUSY
        assert "injected" in first["error"]["message"]
        assert second["ok"]

    def test_serve_stall_outlives_deadline(self, serve_env):
        _worker, config = serve_env
        install_fault_plan(FaultPlan.parse("serve_stall@scal"))
        with SegmentSet() as segments:
            _view, ref = segments.add((4,), fill=np.ones(4))
            reply = rpc(config.socket_path,
                        _scal_header(ref, deadline_ms=100), timeout=15)
        assert reply["error"]["code"] == ERR_DEADLINE


class TestDrain:
    def test_drain_op_seals_accounting_and_exits_zero(self, monkeypatch):
        monkeypatch.setenv("REPRO_FORCE_ARCH", "reference")
        clear_fault_plan()
        runtime = Path(tempfile.mkdtemp(prefix="rsv", dir="/tmp"))
        config = ServeConfig(runtime_dir=runtime, warmup=(),
                             compute_threads=1, drain_grace=10.0)
        worker = ServeWorker(config)
        thread = threading.Thread(target=worker.run, daemon=True)
        thread.start()
        deadline = time.monotonic() + 10
        while not config.socket_path.exists() \
                and time.monotonic() < deadline:
            time.sleep(0.01)
        try:
            with SegmentSet() as segments:
                _view, ref = segments.add((4,), fill=np.ones(4))
                assert rpc(config.socket_path, _scal_header(ref))["ok"]
            reply = rpc(config.socket_path,
                        {"op": "drain", "v": PROTOCOL_VERSION}, timeout=15)
            assert reply["ok"] and reply["drained"]
            thread.join(timeout=10)
            assert not thread.is_alive()
            assert worker.exit_code == 0
            ledger = json.loads(config.accounting_path.read_text())
            assert ledger["totals"]["completed"] == 1
            # the socket file is gone — nothing half-alive left behind
            assert not config.socket_path.exists()
        finally:
            shutil.rmtree(runtime, ignore_errors=True)

    def test_draining_worker_rejects_new_work(self, serve_env):
        worker, config = serve_env
        worker._draining.set()
        with SegmentSet() as segments:
            _view, ref = segments.add((4,), fill=np.ones(4))
            reply = rpc(config.socket_path, _scal_header(ref))
        assert reply["error"]["code"] == ERR_DRAINING
        worker._draining.clear()
