"""ServedBLAS — a drop-in BLAS facade backed by the serve daemon.

``ServedBLAS`` subclasses :class:`~repro.blas.api.AugemBLAS` and swaps
only its ``driver(name)`` for one remote proxy per routine row, so every
entry point — including the composed Level-3 routines (``dsymm``/
``dsyrk``/... ride on the gemm driver) — transparently runs on the
daemon while keeping the full in-process argument-guard layer.

Every remote call walks a degradation chain; the caller never sees a
service failure, only (at worst) in-process latency:

1. **deadline-bounded call** — each client thread keeps one connection
   to the daemon and one client-owned shared-memory *arena* that both
   sides keep mapped; a request copies its operands into the arena
   (each at a 64-byte-aligned offset, the output after them), one
   header frame crosses the socket, and the daemon answers within the
   request deadline or not at all.  The arena is sized to the request
   that needs it (replaced by a larger one under a new name when too
   small) and its name is unlinked as soon as the first reply that
   used it arrives.  A connection the daemon closed while idle (a
   restart or drain) is replaced before sending, which is neither a
   retry nor a breaker failure;
2. **retry with jittered backoff** — explicit backpressure (``busy``,
   ``quota``) and transport drops are retried a bounded number of
   times, honoring the server's ``retry_after_ms`` hint plus jitter.
   Any failure retires the connection together with its arena — an
   abandoned compute, or a worker that died midway through an
   in-place update, may still write into that memory — so every
   attempt is staged afresh from the caller's arrays;
3. **circuit breaker** — consecutive transport failures open the
   breaker; while open, calls skip the socket entirely (no connect
   latency on a dead daemon) until a cooldown lets one probe through;
4. **in-process fallback** — anything still unserved is computed by the
   locally-built hardened driver (lazily constructed on first need).
   In-place operands are only written after a remote success, so the
   fallback always starts from unmodified inputs.

The chain is observable: ``client.request`` / ``client.remote_ok`` /
``client.retry`` / ``client.fallback`` / ``client.breaker_open`` /
``client.rejected`` / ``client.deadline`` counters (``trace report``
renders them) and a :class:`ClientStats` mirror for trace-off tests.

When the facade is built with ``integrity="sample"`` (or ``"full"``),
the client samples requests with the shared
:class:`~repro.blas.integrity.IntegrityChecker` counter, flags them for
server-side ABFT verification, and folds the returned verdict into
``client.integrity_checked`` / ``client.integrity_corrected``.
"""

from __future__ import annotations

import mmap
import os
import random
import select
import socket
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, Optional, Tuple

import numpy as np

from ..obs import event, incr
from ..serve.protocol import (ERR_DEADLINE, ERR_DRAINING, PROTOCOL_VERSION,
                              RETRYABLE_CODES, ArrayRef, PeerGone,
                              ProtocolError, call_header, recv_frame,
                              send_frame)
from ..serve.shm import close_segment, create_segment, unlink_segment
from .api import AugemBLAS
from .routines import ROUTINES, Routine


class ServiceUnavailable(RuntimeError):
    """Internal signal: this request will not be served remotely."""


#: what a failed exchange with the daemon can raise (a missing socket,
#: a refused connect, timeouts and PeerGone are all OSErrors)
_TRANSPORT_ERRORS = (OSError, ProtocolError)

#: operands start on cache-line boundaries in the arena
_ALIGN = 64


class _Channel:
    """One client thread's connection to the daemon and the arena its
    requests stage into; used only by the thread (and process) that
    opened it."""

    def __init__(self, socket_path: Path, timeout: float) -> None:
        self.pid = os.getpid()
        self.arena = None
        self.linked = False   # the arena's name is still in /dev/shm
        sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        try:
            sock.settimeout(timeout)
            sock.connect(str(socket_path))
        except OSError:
            sock.close()
            raise
        self.sock = sock

    def hung_up(self) -> bool:
        """Without blocking: has the idle connection become readable?
        Between requests that means EOF (the daemon restarted or
        drained) or bytes nobody asked for — either way, replace it."""
        poller = select.poll()
        poller.register(self.sock, select.POLLIN)
        return bool(poller.poll(0))

    def stage(self, arrays: Dict[str, np.ndarray],
              out_shape: Optional[Tuple[int, ...]]
              ) -> Tuple[Dict[str, ArrayRef], Dict[str, np.ndarray]]:
        """Copy ``arrays`` into the arena and leave room after them for
        an output of ``out_shape``; returns descriptors and views by
        name, the output's under ``"out"``."""
        shapes = {name: arr.shape for name, arr in arrays.items()}
        if out_shape is not None:
            shapes["out"] = out_shape
        offsets, end = {}, 0
        for name, shape in shapes.items():
            offsets[name] = end
            nbytes = 8 * int(np.prod(shape, dtype=np.int64))
            end += -(-nbytes // _ALIGN) * _ALIGN
        if self.arena is None or self.arena.size < end:
            self.drop_arena()
            self.arena = create_segment(-(-end // mmap.PAGESIZE)
                                        * mmap.PAGESIZE, prefix="rblc")
            self.linked = True
        refs, views = {}, {}
        for name, shape in shapes.items():
            refs[name] = ArrayRef(shm=self.arena.name, shape=tuple(shape),
                                  offset=offsets[name])
            views[name] = np.ndarray(shape, dtype=np.float64,
                                     buffer=self.arena.buf,
                                     offset=offsets[name])
            if name in arrays:
                views[name][...] = arrays[name]
        return refs, views

    def roundtrip(self, header: Dict[str, Any],
                  timeout: float) -> Dict[str, Any]:
        self.sock.settimeout(timeout)
        send_frame(self.sock, header)
        reply = recv_frame(self.sock)
        if reply is None:
            raise PeerGone("worker closed the connection mid-request")
        return reply

    def settle(self) -> None:
        """An ok reply came back: the worker has the arena mapped, so
        its name can go (no name outlives one request)."""
        if self.linked:
            unlink_segment(self.arena)
            self.linked = False

    def drop_arena(self) -> None:
        if self.arena is not None:
            close_segment(self.arena)
            if self.linked:
                unlink_segment(self.arena)
            self.arena, self.linked = None, False

    def close(self) -> None:
        self.sock.close()
        self.drop_arena()

    def __del__(self) -> None:
        # a thread's channel goes with the thread; a forked child's copy
        # of its parent's closes the child's descriptor and nothing else
        sock = getattr(self, "sock", None)   # None when connect failed
        if sock is not None:
            sock.close()


@dataclass
class ClientStats:
    """Mirror of the client.* counters (usable with tracing off)."""

    requests: int = 0
    remote_ok: int = 0
    retries: int = 0
    fallbacks: int = 0
    rejected: int = 0
    deadline_hits: int = 0
    draining_hits: int = 0
    breaker_opens: int = 0
    breaker_short_circuits: int = 0
    integrity_checked: int = 0
    integrity_corrected: int = 0


class CircuitBreaker:
    """Classic three-state breaker over the daemon transport.

    ``failure_threshold`` consecutive transport failures open it; while
    open every call short-circuits straight to fallback (no connect
    timeout paid on a dead daemon).  After ``cooldown`` seconds one
    half-open probe is let through — success closes the breaker, failure
    re-opens it for another cooldown.
    """

    def __init__(self, failure_threshold: int = 3,
                 cooldown: float = 2.0) -> None:
        self.failure_threshold = max(1, failure_threshold)
        self.cooldown = cooldown
        self._lock = threading.Lock()
        self._failures = 0
        self._opened_at: Optional[float] = None
        self._probing = False

    @property
    def state(self) -> str:
        with self._lock:
            if self._opened_at is None:
                return "closed"
            if time.monotonic() - self._opened_at >= self.cooldown:
                return "half-open"
            return "open"

    def allow(self) -> bool:
        """May this call try the socket?  (claims the half-open probe)"""
        with self._lock:
            if self._opened_at is None:
                return True
            if time.monotonic() - self._opened_at < self.cooldown:
                return False
            if self._probing:
                return False  # someone else holds the half-open slot
            self._probing = True
            return True

    def record_success(self) -> None:
        with self._lock:
            self._failures = 0
            self._opened_at = None
            self._probing = False

    def record_failure(self) -> bool:
        """Count one transport failure; True when this opens the breaker."""
        with self._lock:
            self._failures += 1
            self._probing = False
            newly_open = (self._opened_at is None
                          and self._failures >= self.failure_threshold)
            if self._failures >= self.failure_threshold:
                self._opened_at = time.monotonic()
            return newly_open


class _RemoteDriver:
    """Proxy with the call signature of one routine's local driver: the
    routine row binds the call, so any row is served the same way."""

    def __init__(self, owner: "ServedBLAS", row: Routine) -> None:
        self._owner = owner
        self._row = row

    def __call__(self, *args: Any, **kwargs: Any):
        owner, row = self._owner, self._row
        try:
            return owner._remote_call(row, row.bind(args, kwargs))
        except ServiceUnavailable as exc:
            return owner._fallback(row.name, exc)(*args, **kwargs)


class ServedBLAS(AugemBLAS):
    """AugemBLAS whose kernels run on the serve daemon when it is up.

    A drop-in replacement: same constructor keywords as
    :class:`AugemBLAS` plus service tuning, same entry points, same
    results — verified by falling back to the identical in-process
    drivers whenever the daemon cannot serve.
    """

    def __init__(self,
                 socket_path: Optional[Path] = None,
                 runtime_dir: Optional[Path] = None,
                 deadline_ms: int = 2000,
                 retries: int = 2,
                 retry_base: float = 0.025,
                 breaker_threshold: int = 3,
                 breaker_cooldown: float = 2.0,
                 client_id: Optional[str] = None,
                 **blas_kwargs: Any) -> None:
        super().__init__(**blas_kwargs)
        if socket_path is None:
            # deferred import: repro.serve.server imports repro.blas.api,
            # so a top-level import here would be circular
            from ..serve.server import default_runtime_dir

            base = Path(runtime_dir) if runtime_dir is not None \
                else default_runtime_dir()
            socket_path = base / "serve.sock"
        self.socket_path = Path(socket_path)
        self.deadline_ms = int(deadline_ms)
        self.retries = max(0, int(retries))
        self.retry_base = retry_base
        self.breaker = CircuitBreaker(failure_threshold=breaker_threshold,
                                      cooldown=breaker_cooldown)
        self.client_id = client_id or f"{socket.gethostname()}:{os.getpid()}"
        self.stats = ClientStats()
        self._remote: Dict[str, _RemoteDriver] = {}
        self._local = threading.local()   # this thread's _Channel

    # -- every routine's driver becomes a remote proxy ---------------------

    def driver(self, name: str) -> _RemoteDriver:
        proxy = self._remote.get(name)
        if proxy is None:
            proxy = self._remote[name] = _RemoteDriver(self, ROUTINES[name])
        return proxy

    def local_driver(self, routine: str):
        """The in-process hardened driver (lazily built on first need)."""
        return AugemBLAS.driver(self, routine)

    # -- degradation chain --------------------------------------------------

    def _fallback(self, routine: str, reason: ServiceUnavailable):
        self.stats.fallbacks += 1
        incr("client.fallback")
        event("client.fallback", routine=routine, reason=str(reason)[:200])
        return self.local_driver(routine)

    def _remote_call(self, row: Routine, call: Dict[str, Any]):
        """One full remote attempt: shm staging + retry/breaker loop.

        ``call`` holds every parameter of the driver call, by name.
        Returns the routine result; raises :class:`ServiceUnavailable`
        when the service chain is exhausted and the caller must fall
        back.  In-place targets are written only after a remote success.
        """
        self.stats.requests += 1
        incr("client.request")
        if not self.breaker.allow():
            self.stats.breaker_short_circuits += 1
            incr("client.breaker_short_circuit")
            raise ServiceUnavailable("circuit breaker open")

        arrays = {name: np.asarray(call[name], dtype=np.float64)
                  for name in row.arrays + row.optional
                  if call[name] is not None}
        scalars = {name: call[name] for name in row.scalars}
        flags = {name: bool(call[name]) for name in row.flags}
        out_shape = None
        if row.output == "new":
            out_shape = row.result_shape(
                {name: arr.shape for name, arr in arrays.items()}, flags)
        # client-side sampling: the checker's deterministic 1-in-K
        # counter decides which requests ride with ABFT verification;
        # sampled requests ask the server for a *full* check so the
        # verdict covers every tile of that call
        verify = self.integrity_checker.decide()
        reply, views = self._exchange(row.name, arrays, out_shape, scalars,
                                      flags, "full" if verify else None)
        self._note_verdict(row.name, reply.get("integrity"))
        if row.output == "scalar":
            return float(reply.get("value", 0.0))
        if row.output == "new":
            return np.array(views["out"], copy=True)
        target = call[row.output]
        target[...] = views[row.output]
        return target

    def _note_verdict(self, routine: str,
                      verdict: Optional[Dict[str, Any]]) -> None:
        """Fold a response's ABFT verdict into the client stats."""
        if not isinstance(verdict, dict) or not verdict.get("checked"):
            return
        self.stats.integrity_checked += 1
        incr("client.integrity_checked")
        corrections = (int(verdict.get("mismatches", 0))
                       + int(verdict.get("reference_recomputes", 0)))
        if corrections or verdict.get("quarantined"):
            self.stats.integrity_corrected += 1
            incr("client.integrity_corrected")
            event("client.integrity_corrected", routine=routine,
                  mismatches=int(verdict.get("mismatches", 0)),
                  reference_recomputes=int(
                      verdict.get("reference_recomputes", 0)),
                  quarantined=",".join(
                      str(q) for q in verdict.get("quarantined") or ()))

    def _exchange(self, routine: str, arrays: Dict[str, np.ndarray],
                  out_shape: Optional[Tuple[int, ...]],
                  scalars: Dict[str, Any], flags: Dict[str, bool],
                  integrity: Optional[str]
                  ) -> Tuple[Dict[str, Any], Dict[str, np.ndarray]]:
        """Retry/breaker loop around one request; returns the ok reply
        and the arena views it answered in.  Every attempt stages
        ``arrays`` afresh; every failure retires the channel."""
        last = "unknown"
        for attempt in range(self.retries + 1):
            try:
                channel = self._channel()
                refs, views = channel.stage(arrays, out_shape)
                out_ref = refs.pop("out", None)
                header = call_header(routine, self.client_id,
                                     self.deadline_ms, refs, scalars, flags,
                                     out_ref, integrity=integrity)
                reply = channel.roundtrip(header, self._timeout())
            except _TRANSPORT_ERRORS as exc:
                self._retire()
                last = f"{type(exc).__name__}: {exc}"
                if self.breaker.record_failure():
                    self.stats.breaker_opens += 1
                    incr("client.breaker_open")
                    event("client.breaker_open", reason=last[:200])
                if attempt < self.retries:
                    self._nap(attempt, None)
                    continue
                raise ServiceUnavailable(f"transport: {last}") from None
            except BaseException:
                # e.g. KeyboardInterrupt between send and reply: a late
                # reply must never answer this thread's next request
                self._retire()
                raise
            if reply.get("ok"):
                channel.settle()
                self.breaker.record_success()
                self.stats.remote_ok += 1
                incr("client.remote_ok")
                return reply, views
            self._retire()
            error = reply.get("error", {})
            code = error.get("code", "unknown")
            last = f"{code}: {error.get('message', '')}"
            # the daemon answered — transport is healthy, so the breaker
            # stays closed; only the retry/fallback tiers apply
            self.breaker.record_success()
            if code in RETRYABLE_CODES:
                self.stats.rejected += 1
                incr("client.rejected")
                if attempt < self.retries:
                    self._nap(attempt, error.get("retry_after_ms"))
                    continue
            elif code == ERR_DEADLINE:
                self.stats.deadline_hits += 1
                incr("client.deadline")
            elif code == ERR_DRAINING:
                self.stats.draining_hits += 1
                incr("client.draining")
            raise ServiceUnavailable(last)
        raise ServiceUnavailable(last)

    def _nap(self, attempt: int, retry_after_ms: Optional[Any]) -> None:
        self.stats.retries += 1
        incr("client.retry")
        base = (float(retry_after_ms) / 1000.0
                if retry_after_ms else self.retry_base)
        delay = base * (2 ** attempt)
        time.sleep(min(delay * (1.0 + random.random() * 0.5), 1.0))

    # -- this thread's connection and arena ---------------------------------

    def _timeout(self) -> float:
        return self.deadline_ms / 1000.0 + 1.0

    def _channel(self) -> _Channel:
        """This thread's channel, opened on first use and replaced when
        the daemon hung up on it while idle.  A forked child leaves its
        parent's channel alone (closing the copy it inherited never
        touches the parent's socket or arena name) and opens its own."""
        channel = getattr(self._local, "channel", None)
        if channel is not None and channel.pid != os.getpid():
            channel = self._local.channel = None
        if channel is not None and channel.hung_up():
            self._retire()
            channel = None
        if channel is None:
            channel = self._local.channel = _Channel(self.socket_path,
                                                     self._timeout())
        return channel

    def _retire(self) -> None:
        """Close this thread's connection and arena (after any failure)."""
        channel = getattr(self._local, "channel", None)
        self._local.channel = None
        if channel is not None and channel.pid == os.getpid():
            channel.close()

    # -- service health -----------------------------------------------------

    def service_alive(self) -> bool:
        """Cheap ping over this thread's connection; True when a worker
        answers."""
        try:
            reply = self._channel().roundtrip(
                {"op": "ping", "v": PROTOCOL_VERSION}, self._timeout())
        except _TRANSPORT_ERRORS:
            self._retire()
            return False
        if not reply.get("ok"):
            self._retire()
        return bool(reply.get("ok"))
