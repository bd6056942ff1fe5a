"""The BLAS service worker: a failure-first request engine.

One worker process owns a hardened :class:`~repro.blas.api.AugemBLAS`
(verified dispatch chain, hot kernel cache) and serves routine calls over
a unix-domain socket using the header-only protocol of
:mod:`repro.serve.protocol`.  It is engineered for the ways a shared
service dies, in order of likelihood:

- **overload** — admission runs through a *bounded* queue; when it is
  full the worker answers ``busy`` with a ``retry_after_ms`` hint instead
  of buffering without bound (explicit backpressure);
- **monopolization** — per-client in-flight and per-request byte quotas
  (:mod:`repro.serve.quotas`) keep one greedy client from starving the
  rest, with full accounting;
- **slow requests** — every request carries a deadline; a request that
  expires while queued is cancelled without running, and one that
  expires mid-compute is answered ``deadline`` (the client has already
  fallen back — the result is discarded);
- **worker death** — the supervisor (:mod:`repro.serve.supervisor`)
  restarts a crashed worker, which warms up from the on-disk kernel
  cache *and* the persisted ISA-probe verdicts
  (:func:`repro.blas.dispatch.load_tier_verdicts`), so a restart never
  re-runs sandboxed probes;
- **shutdown** — SIGTERM (or the ``drain`` op) triggers graceful drain:
  stop admitting, finish everything in flight, seal the accounting
  ledger to ``accounting.json``, exit 0.

Deterministic chaos: ``REPRO_FAULT_INJECT=serve_crash@#N`` /
``serve_stall@#N`` / ``serve_reject@#N`` fire at the worker's N-th call,
so every one of those edges is testable on demand.
"""

from __future__ import annotations

import os
import queue
import select
import signal
import socket
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, Optional, Set, Tuple

import numpy as np

from ..backend import fsio
from ..backend.cache import cache_root
from ..backend.faults import take_fault
from ..blas import dispatch
from ..blas.api import AugemBLAS
from ..blas.integrity import STATS as integrity_stats
from ..blas.integrity import IntegrityReport, resolve_integrity
from ..blas.threading import reset_pools
from ..obs import event, incr, span
from . import protocol
from .protocol import (ERR_BAD_REQUEST, ERR_BUSY, ERR_DEADLINE, ERR_DRAINING,
                       ERR_INTERNAL, ArrayRef, PeerGone, ProtocolError,
                       ROUTINES, error_response, ok_response, recv_frame,
                       send_frame)
from .quotas import (DEFAULT_MAX_INFLIGHT_PER_CLIENT,
                     DEFAULT_MAX_REQUEST_BYTES, QuotaBook, QuotaRejected)
from .shm import AttachedSet, RequestMappings

#: worker exit codes (the supervisor keys restart decisions off these)
EXIT_DRAINED = 0          # graceful drain completed; do not restart
EXIT_FAULT_CRASH = 86     # injected serve_crash (looks like any crash)

#: cap on an injected stall, so a faulted worker always recovers
STALL_CAP = 10.0

#: the longest deadline a request may carry (one day); beyond it a
#: deadline is malformed input, not a longer wait
MAX_DEADLINE_MS = 24 * 3600 * 1000


def default_runtime_dir() -> Path:
    """``$REPRO_SERVE_DIR`` > ``<cache root>/serve`` > per-uid tmp dir."""
    raw = os.environ.get("REPRO_SERVE_DIR")
    if raw:
        return Path(raw).expanduser()
    croot = cache_root()
    if croot is not None:
        return Path(croot) / "serve"
    return Path(f"/tmp/repro-serve-{os.getuid()}")


@dataclass
class ServeConfig:
    """Everything a worker (and its supervisor) needs to run."""

    runtime_dir: Path = field(default_factory=default_runtime_dir)
    socket_path: Optional[Path] = None
    compute_threads: int = 2
    gemm_threads: Optional[int] = None  # per-call GEMM parallelism
    integrity: Optional[str] = None     # worker ABFT mode (off/sample/full)
    queue_capacity: int = 32
    max_inflight_per_client: int = DEFAULT_MAX_INFLIGHT_PER_CLIENT
    max_request_bytes: int = DEFAULT_MAX_REQUEST_BYTES
    retry_after_ms: int = 50
    drain_grace: float = 30.0
    warmup: Tuple[str, ...] = ("gemm",)

    def __post_init__(self) -> None:
        self.runtime_dir = Path(self.runtime_dir)
        if self.socket_path is None:
            self.socket_path = self.runtime_dir / "serve.sock"
        self.socket_path = Path(self.socket_path)

    @property
    def accounting_path(self) -> Path:
        return self.runtime_dir / "accounting.json"

    @property
    def verdict_path(self) -> Path:
        """Where ISA-probe verdicts persist across worker restarts."""
        croot = cache_root()
        if croot is not None:
            return Path(croot) / "serve_verdicts.json"
        return self.runtime_dir / "verdicts.json"


class _Request:
    """One admitted call moving from a connection thread to compute."""

    __slots__ = ("header", "client", "routine", "deadline", "done",
                 "response", "abandoned", "index", "nbytes", "attached")

    def __init__(self, header: Dict[str, Any], client: str, routine: str,
                 deadline: float, index: int, nbytes: int,
                 attached: AttachedSet) -> None:
        self.header = header
        self.attached = attached   # the connection's segment mappings
        self.client = client
        self.routine = routine
        self.deadline = deadline
        self.index = index
        self.nbytes = nbytes
        self.done = threading.Event()
        self.response: Optional[Dict[str, Any]] = None
        self.abandoned = False


_SENTINEL = object()


class ServeWorker:
    """The long-lived request engine behind one unix socket."""

    def __init__(self, config: ServeConfig,
                 install_signal_handlers: bool = False) -> None:
        self.config = config
        self.quotas = QuotaBook(
            max_inflight_per_client=config.max_inflight_per_client,
            max_request_bytes=config.max_request_bytes)
        self.queue: "queue.Queue" = queue.Queue(
            maxsize=max(1, config.queue_capacity))
        self._install_signals = install_signal_handlers
        self._listener: Optional[socket.socket] = None
        self._stop = threading.Event()
        self._draining = threading.Event()
        self._drain_started = threading.Lock()
        self._state_lock = threading.Lock()
        self._blas: Optional[AugemBLAS] = None
        self._call_index = 0          # per-worker; drives serve faults
        self._queue_peak = 0
        self._started_at = time.time()
        self.verdicts_preloaded = 0
        self._persisted_state = (-1, -1)
        self._conns: Set[socket.socket] = set()
        self.exit_code = EXIT_DRAINED

    # -- lazy BLAS (the expensive startup work the daemon amortizes) -------

    @property
    def blas(self) -> AugemBLAS:
        if self._blas is None:
            with self._state_lock:
                if self._blas is None:
                    self._blas = AugemBLAS(
                        threads=self.config.gemm_threads,
                        integrity=self.config.integrity)
        return self._blas

    def _driver_for(self, routine: str):
        return self.blas.driver(routine)

    def _warmup(self) -> None:
        """Build the configured routine families before accepting work."""
        for routine in self.config.warmup:
            if routine in ROUTINES:
                try:
                    with span("serve.warmup", routine=routine):
                        self._driver_for(routine)
                except Exception:  # noqa: BLE001 - served lazily later
                    pass
        self._persist_verdicts()

    def _persist_verdicts(self) -> None:
        """Save fresh tier verdicts so a restart starts warm.

        Keyed on the verdict *revision*, not just the probe count — an
        integrity demotion (no new probe) must survive a supervisor
        restart exactly like a probe failure does.
        """
        with self._state_lock:
            state = (dispatch.probes_executed(),
                     dispatch.verdicts_revision())
            if state == self._persisted_state:
                return
            dispatch.save_tier_verdicts(self.config.verdict_path)
            self._persisted_state = state

    # -- lifecycle ---------------------------------------------------------

    def run(self) -> int:
        """Serve until drained; returns the worker exit code."""
        cfg = self.config
        cfg.runtime_dir.mkdir(parents=True, exist_ok=True)
        self.verdicts_preloaded = dispatch.load_tier_verdicts(
            cfg.verdict_path)
        if self._install_signals:
            signal.signal(signal.SIGTERM, self._on_signal)
            signal.signal(signal.SIGINT, self._on_signal)

        listener = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        try:
            cfg.socket_path.unlink()
        except OSError:
            pass
        listener.bind(str(cfg.socket_path))
        listener.listen(64)
        listener.setblocking(False)
        self._listener = listener

        workers = [threading.Thread(target=self._compute_loop, daemon=True,
                                    name=f"serve-compute-{i}")
                   for i in range(max(1, cfg.compute_threads))]
        for t in workers:
            t.start()
        self._warmup()
        event("serve.ready", socket=str(cfg.socket_path), pid=os.getpid())

        try:
            while not self._stop.is_set():
                try:
                    ready, _, _ = select.select([listener], [], [], 0.2)
                except OSError:
                    break
                if not ready:
                    continue
                try:
                    conn, _ = listener.accept()
                except OSError:
                    continue
                threading.Thread(target=self._serve_conn, args=(conn,),
                                 daemon=True).start()
        finally:
            try:
                listener.close()
            except OSError:
                pass
            for _ in workers:
                self.queue.put(_SENTINEL)
            for t in workers:
                t.join(timeout=2.0)
            # idle persistent connections see EOF now, so their clients
            # reconnect (to a restarted worker) before their next send
            with self._state_lock:
                conns = list(self._conns)
            for conn in conns:
                try:
                    conn.shutdown(socket.SHUT_RDWR)
                except OSError:
                    pass
            reset_pools()
            try:
                cfg.socket_path.unlink()
            except OSError:
                pass
        return self.exit_code

    def _on_signal(self, signum, _frame) -> None:
        threading.Thread(target=self.drain, daemon=True,
                         name="serve-drain").start()

    def drain(self, timeout: Optional[float] = None) -> None:
        """Graceful shutdown: admit nothing, finish in-flight, seal, stop."""
        if not self._drain_started.acquire(blocking=False):
            return  # a drain is already running
        timeout = self.config.drain_grace if timeout is None else timeout
        with span("serve.drain"):
            self._draining.set()
            incr("serve.drain")
            event("serve.drain", phase="begin",
                  inflight=self.quotas.totals()["inflight"],
                  queued=self.queue.qsize())
            deadline = time.monotonic() + max(0.0, timeout)
            while time.monotonic() < deadline:
                if self.queue.qsize() == 0 \
                        and self.quotas.totals()["inflight"] == 0:
                    break
                time.sleep(0.02)
            self.quotas.seal(self.config.accounting_path)
            self._persist_verdicts()
            # release pooled packing/integrity scratch: a drained worker
            # must not hold buffer memory across supervisor restarts
            released = reset_pools()
            event("serve.drain", phase="sealed",
                  pool_bytes_released=released)
        self._stop.set()

    # -- connection handling -----------------------------------------------

    def _serve_conn(self, conn: socket.socket) -> None:
        """Serve one connection's requests, one at a time; its segment
        mappings live as long as it does."""
        conn.settimeout(0.5)
        attached = AttachedSet()
        with self._state_lock:
            self._conns.add(conn)
        try:
            while not self._stop.is_set():
                try:
                    header = recv_frame(conn)
                except (TimeoutError, socket.timeout):
                    continue
                except (PeerGone, ProtocolError, OSError):
                    break
                if header is None:
                    break
                try:
                    if not self._dispatch_op(conn, header, attached):
                        break
                except (BrokenPipeError, ConnectionError, OSError):
                    break
        finally:
            with self._state_lock:
                self._conns.discard(conn)
            attached.close()
            try:
                conn.close()
            except OSError:
                pass

    def _dispatch_op(self, conn: socket.socket, header: Dict[str, Any],
                     attached: AttachedSet) -> bool:
        """Handle one frame; returns False to close the connection."""
        op = header.get("op")
        if op == "ping":
            send_frame(conn, ok_response(pid=os.getpid()))
            return True
        if op == "status":
            send_frame(conn, ok_response(status=self.status()))
            return True
        if op == "drain":
            # drain synchronously so the requester learns completion;
            # the accept loop exits right after we reply (and hangs up
            # on every other connection, not on this one)
            with self._state_lock:
                self._conns.discard(conn)
            self.drain(timeout=float(header.get("timeout",
                                                self.config.drain_grace)))
            send_frame(conn, ok_response(drained=True,
                                         accounting=str(
                                             self.config.accounting_path)))
            return False
        if op == "call":
            self._handle_call(conn, header, attached)
            return True
        send_frame(conn, error_response(ERR_BAD_REQUEST,
                                        f"unknown op {op!r}"))
        return True

    # -- admission ---------------------------------------------------------

    def _handle_call(self, conn: socket.socket, header: Dict[str, Any],
                     attached: AttachedSet) -> None:
        cfg = self.config
        routine = str(header.get("routine", ""))
        client = str(header.get("client", "anonymous"))[:120]
        if header.get("v") != protocol.PROTOCOL_VERSION:
            send_frame(conn, error_response(
                ERR_BAD_REQUEST,
                f"protocol version {header.get('v')!r}, "
                f"want {protocol.PROTOCOL_VERSION}"))
            return
        if routine not in ROUTINES:
            send_frame(conn, error_response(ERR_BAD_REQUEST,
                                            f"unknown routine {routine!r}"))
            return
        try:
            deadline_ms = int(header.get("deadline_ms", 1000))
            if not 0 <= deadline_ms <= MAX_DEADLINE_MS:
                raise ValueError(deadline_ms)
        except (TypeError, ValueError, OverflowError):
            send_frame(conn, error_response(
                ERR_BAD_REQUEST,
                f"bad deadline_ms {header.get('deadline_ms')!r}"))
            return
        with self._state_lock:
            index = self._call_index
            self._call_index += 1

        fault = take_fault("serve", tag=routine, index=index)
        if fault == "serve_crash":
            # die exactly like a rogue kernel would: no goodbye frame,
            # no atexit, mid-request from the client's point of view
            os._exit(EXIT_FAULT_CRASH)
        if fault == "serve_reject":
            incr("serve.rejected_busy")
            self.quotas.note_busy(client)
            send_frame(conn, error_response(
                ERR_BUSY, "injected backpressure (serve_reject)",
                retry_after_ms=cfg.retry_after_ms))
            return
        if fault == "serve_stall":
            # outlive the deadline but stay inside the client's socket
            # timeout (deadline + 1s) so the deadline answer is seen
            time.sleep(min(deadline_ms / 1000.0 + 0.4, STALL_CAP))
            incr("serve.deadline_expired")
            send_frame(conn, error_response(
                ERR_DEADLINE, "injected stall outlived the deadline"))
            return

        if self._draining.is_set():
            incr("serve.rejected_draining")
            send_frame(conn, error_response(
                ERR_DRAINING, "worker is draining; no new work admitted"))
            return

        req_integrity = header.get("integrity")
        if req_integrity is not None:
            try:
                req_integrity = str(req_integrity)
                resolve_integrity(req_integrity)
            except ValueError as exc:
                send_frame(conn, error_response(ERR_BAD_REQUEST, str(exc)))
                return
            incr("serve.integrity_requests")

        try:
            nbytes = sum(
                ArrayRef.from_json(rec).nbytes
                for rec in (header.get("arrays") or {}).values())
            if header.get("out"):
                nbytes += ArrayRef.from_json(header["out"]).nbytes
        except ProtocolError as exc:
            send_frame(conn, error_response(ERR_BAD_REQUEST, str(exc)))
            return
        # verified requests pay for their O(n²) checksum work
        nbytes = protocol.charged_bytes(nbytes, req_integrity)

        try:
            self.quotas.admit(client, nbytes)
        except QuotaRejected as exc:
            incr("serve.rejected_quota")
            send_frame(conn, error_response(
                exc.code, str(exc), retry_after_ms=cfg.retry_after_ms))
            return

        request = _Request(header, client, routine,
                           deadline=time.monotonic() + deadline_ms / 1000.0,
                           index=index, nbytes=nbytes, attached=attached)
        try:
            self.queue.put_nowait(request)
        except queue.Full:
            self.quotas.unadmit(client, nbytes)
            self.quotas.note_busy(client)
            incr("serve.rejected_busy")
            send_frame(conn, error_response(
                ERR_BUSY,
                f"admission queue full ({self.queue.maxsize})",
                retry_after_ms=cfg.retry_after_ms))
            return
        incr("serve.request")
        with self._state_lock:
            depth = self.queue.qsize()
            if depth > self._queue_peak:
                # additive counters flush once at trace close, so keep
                # the running total equal to the high-water mark
                incr("serve.queue_depth", depth - self._queue_peak)
                self._queue_peak = depth

        grace = 0.25
        finished = request.done.wait(
            max(0.0, request.deadline - time.monotonic()) + grace)
        if not finished or request.response is None:
            request.abandoned = True
            incr("serve.deadline_expired")
            self.quotas.release(client, "deadline")
            send_frame(conn, error_response(
                ERR_DEADLINE, f"deadline of {deadline_ms}ms expired"))
            return
        response = request.response
        if response.get("ok"):
            self.quotas.release(client, "ok")
        elif response.get("error", {}).get("code") == ERR_DEADLINE:
            self.quotas.release(client, "deadline")
        else:
            self.quotas.release(client, "failed")
        send_frame(conn, response)

    # -- compute -----------------------------------------------------------

    def _compute_loop(self) -> None:
        while True:
            request = self.queue.get()
            if request is _SENTINEL:
                return
            if request.abandoned:
                continue
            with span("serve.request", routine=request.routine,
                      client=request.client, index=request.index,
                      queue_depth=self.queue.qsize()) as sp:
                if time.monotonic() > request.deadline:
                    # cancelled while queued: never runs
                    request.response = error_response(
                        ERR_DEADLINE, "deadline expired while queued")
                    sp.set(status="cancelled")
                else:
                    request.response = self._execute(request)
                    sp.set(status="ok" if request.response.get("ok")
                           else request.response["error"]["code"])
            # persist before acknowledging: a demotion this request
            # triggered must be durable by the time its reply (which
            # reports the quarantine) reaches the client
            self._persist_verdicts()
            request.done.set()

    def _execute(self, request: _Request) -> Dict[str, Any]:
        header = request.header
        row = ROUTINES[request.routine]
        try:
            driver = self._driver_for(request.routine)
        except Exception as exc:  # noqa: BLE001 - construction failure
            return error_response(ERR_INTERNAL,
                                  f"driver unavailable: {exc}")
        try:
            with request.attached.for_request() as attached:
                return self._run_routine(row, driver, header, attached)
        except ProtocolError as exc:
            return error_response(ERR_BAD_REQUEST, str(exc))
        except FileNotFoundError as exc:
            return error_response(ERR_BAD_REQUEST,
                                  f"operand segment vanished: {exc}")
        except Exception as exc:  # noqa: BLE001 - routine blew up
            incr("serve.internal_error")
            return error_response(ERR_INTERNAL,
                                  f"{type(exc).__name__}: {exc}")

    def _run_routine(self, row, driver, header,
                     attached: RequestMappings) -> Dict[str, Any]:
        """Bind the request to the row's driver call and run it."""
        raw = header.get("arrays") or {}
        call: Dict[str, Any] = {}
        for name in row.arrays:
            if name not in raw:
                return error_response(ERR_BAD_REQUEST,
                                      f"missing operand {name!r}")
            call[name] = attached.attach(ArrayRef.from_json(raw[name]))
        for name in row.optional:
            call[name] = attached.attach(ArrayRef.from_json(raw[name])) \
                if raw.get(name) else None
        scalars = header.get("scalars") or {}
        flags = header.get("flags") or {}
        for name in row.scalars:
            call[name] = float(scalars.get(name, 0.0))
        for name in row.flags:
            call[name] = bool(flags.get(name, False))

        # Per-request ABFT: a flagged request runs the driver in the
        # requested mode and gets the verdict back in the response, so
        # clients can audit correction/quarantine activity per call.
        req_integrity = header.get("integrity")
        report: Optional[IntegrityReport] = None
        kwargs: Dict[str, Any] = {}
        if (req_integrity is not None
                and getattr(driver, "supports_integrity", False)):
            report = IntegrityReport()
            kwargs = {"integrity": str(req_integrity),
                      "integrity_report": report}

        result = driver(*(call[name] for name in row.params), **kwargs)
        if row.output == "scalar":
            response = ok_response(value=float(result))
        elif row.output != "new":
            response = ok_response(result=row.output)
        else:
            out_rec = header.get("out")
            if not out_rec:
                return error_response(ERR_BAD_REQUEST,
                                      f"{row.name} needs an 'out' segment")
            out_view = attached.attach(ArrayRef.from_json(out_rec))
            result = np.asarray(result, dtype=np.float64)
            if result.shape != out_view.shape:
                return error_response(
                    ERR_BAD_REQUEST,
                    f"result shape {result.shape} does not fit out "
                    f"segment {out_view.shape}")
            out_view[...] = result
            response = ok_response(result="out")
        if report is not None:
            response["integrity"] = report.to_json()
        return response

    # -- introspection -----------------------------------------------------

    def status(self) -> Dict[str, Any]:
        routines: Dict[str, str] = {}
        if self._blas is not None:
            routines = {name: info.tier for name, info
                        in self._blas.dispatch_report().items()}
        return {
            "pid": os.getpid(),
            "uptime_s": round(time.time() - self._started_at, 3),
            "draining": self._draining.is_set(),
            "connections": len(self._conns),
            "queue": {"depth": self.queue.qsize(),
                      "capacity": self.queue.maxsize,
                      "peak": self._queue_peak},
            "requests": self.quotas.totals(),
            "clients": self.quotas.snapshot(),
            "probes_run": dispatch.probes_executed(),
            "verdicts_preloaded": self.verdicts_preloaded,
            "disk_degraded": fsio.disk_degraded(),
            "routines": routines,
            "calls": self._call_index,
            "gemm_threads": self.config.gemm_threads,
            "integrity": {
                "mode": resolve_integrity(self.config.integrity)[0],
                **integrity_stats.snapshot(),
            },
        }


def run_worker(config: ServeConfig) -> int:
    """CLI entry: run one worker in the foreground with signal handling."""
    worker = ServeWorker(config, install_signal_handlers=True)
    return worker.run()
