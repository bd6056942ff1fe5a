"""Supervision for the BLAS service worker.

The daemon is two processes.  The **supervisor** owns the lifecycle:
it spawns the worker (``python -m repro serve worker``), watches it, and
applies one rule relentlessly —

- worker exits **0**: that was a graceful drain; the service is done,
  the supervisor exits 0 too;
- worker exits any other way (crash, SIGKILL, injected ``serve_crash``):
  restart it, up to a budget of restarts per window, with a short
  backoff.  The restarted worker binds the same socket and warms up from
  the on-disk kernel cache and the persisted ISA-probe verdicts, so a
  restart costs milliseconds, not a re-tune.

SIGTERM to the supervisor is forwarded to the worker, which drains
(finishes in-flight work, seals accounting) and exits 0; the supervisor
then exits 0.  If the worker ignores the drain past its grace period it
is SIGKILLed — shutdown always terminates.

``state.json`` in the runtime directory records supervisor/worker pids,
phase, and restart count; ``serve status`` and the test suite read it.
"""

from __future__ import annotations

import os
import signal
import socket
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Dict, List, Optional

from ..backend import fsio
from ..backend.locks import pid_alive
from ..obs import event, incr
from .protocol import PROTOCOL_VERSION, recv_frame, send_frame
from .server import ServeConfig

#: restart budget: more than MAX_RESTARTS crashes inside RESTART_WINDOW
#: seconds means the worker is hopeless — give up with exit 1
MAX_RESTARTS = 5
RESTART_WINDOW = 60.0


# ---------------------------------------------------------------------------
# runtime-dir state
# ---------------------------------------------------------------------------

def state_path(runtime_dir: Path) -> Path:
    return Path(runtime_dir) / "state.json"


def read_state(runtime_dir: Path) -> Optional[Dict[str, Any]]:
    """The supervisor's ``state.json``; ``None`` when absent or corrupt.

    A ``supervisor_pid`` that is not a positive integer is corrupt too:
    ``stop`` signals that pid, and ``kill(-1, …)`` reaches every process
    the user owns.
    """
    try:
        state = fsio.read_record(state_path(runtime_dir))
    except (FileNotFoundError, fsio.RecordError):
        return None
    pid = state.get("supervisor_pid")
    if pid is not None and (type(pid) is not int or pid <= 0):
        return None
    return state


def _write_state(runtime_dir: Path, **fields: Any) -> None:
    fsio.write_record(state_path(runtime_dir), fields, tag="serve.state")


# ---------------------------------------------------------------------------
# socket RPC helper (CLI + tests)
# ---------------------------------------------------------------------------

def rpc(socket_path: Path, header: Dict[str, Any],
        timeout: float = 5.0) -> Optional[Dict[str, Any]]:
    """One request/response round-trip; None when the worker is gone."""
    try:
        with socket.socket(socket.AF_UNIX, socket.SOCK_STREAM) as sock:
            sock.settimeout(timeout)
            sock.connect(str(socket_path))
            send_frame(sock, header)
            return recv_frame(sock)
    except (OSError, ValueError):
        return None


def ping(socket_path: Path, timeout: float = 2.0) -> bool:
    reply = rpc(socket_path, {"op": "ping", "v": PROTOCOL_VERSION},
                timeout=timeout)
    return bool(reply and reply.get("ok"))


def wait_ready(socket_path: Path, timeout: float = 20.0) -> bool:
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if ping(socket_path, timeout=1.0):
            return True
        time.sleep(0.05)
    return False


# ---------------------------------------------------------------------------
# the supervisor loop
# ---------------------------------------------------------------------------

def _child_env(role: str) -> Dict[str, str]:
    """The environment for a spawned serve process, with ``REPRO_TRACE``
    re-pointed to a per-role file.

    Every process truncates its trace path on init, so the CLI, the
    supervisor, and each worker sharing one ``REPRO_TRACE`` would write
    three interleaved truncations — a corrupt trace.  Each spawn derives
    a role-suffixed path from its parent's (``serve start`` with
    ``REPRO_TRACE=run.jsonl`` yields ``run.supervisor.jsonl`` and
    ``run.supervisor.worker0.jsonl``), keeping every file a valid JSONL
    stream — and a restarted worker gets a fresh suffix instead of
    clobbering the crashed one's evidence.
    """
    env = dict(os.environ)
    raw = (env.get("REPRO_TRACE") or "").strip()
    if not raw or raw == "-" or raw.lower() in _TRACE_OFF_VALUES:
        return env
    path = Path(raw)
    suffix = path.suffix or ".jsonl"
    env["REPRO_TRACE"] = str(path.with_name(f"{path.stem}.{role}{suffix}"))
    return env


#: mirrors obs.trace._OFF_VALUES (private there; the set is stable)
_TRACE_OFF_VALUES = {"", "0", "off", "none", "false", "disabled"}


def _worker_argv(config: ServeConfig) -> List[str]:
    argv = [
        sys.executable, "-m", "repro", "serve", "worker",
        "--runtime-dir", str(config.runtime_dir),
        "--socket", str(config.socket_path),
        "--threads", str(config.compute_threads),
        "--queue-capacity", str(config.queue_capacity),
        "--max-inflight", str(config.max_inflight_per_client),
        "--drain-grace", str(config.drain_grace),
        "--warmup", ",".join(config.warmup) or "none",
    ]
    if config.gemm_threads is not None:
        argv += ["--gemm-threads", str(config.gemm_threads)]
    if config.integrity is not None:
        argv += ["--integrity", str(config.integrity)]
    return argv


def supervise(config: ServeConfig) -> int:
    """Run the supervisor loop in the foreground; returns its exit code."""
    runtime_dir = config.runtime_dir
    runtime_dir.mkdir(parents=True, exist_ok=True)
    stopping = {"flag": False}
    worker: Dict[str, Optional[subprocess.Popen]] = {"proc": None}
    restart_times: List[float] = []
    restarts = 0

    def on_sigterm(signum, _frame) -> None:
        stopping["flag"] = True
        proc = worker["proc"]
        if proc is not None and proc.poll() is None:
            try:
                proc.send_signal(signal.SIGTERM)
            except OSError:
                pass

    signal.signal(signal.SIGTERM, on_sigterm)
    signal.signal(signal.SIGINT, on_sigterm)

    def spawn() -> subprocess.Popen:
        proc = subprocess.Popen(_worker_argv(config),
                                env=_child_env(f"worker{restarts}"))
        worker["proc"] = proc
        _write_state(runtime_dir, supervisor_pid=os.getpid(),
                     worker_pid=proc.pid, restarts=restarts,
                     phase="running", started=time.time(),
                     socket=str(config.socket_path))
        return proc

    proc = spawn()
    exit_code = 0
    try:
        while True:
            if stopping["flag"]:
                _write_state(runtime_dir, supervisor_pid=os.getpid(),
                             worker_pid=proc.pid, restarts=restarts,
                             phase="stopping", socket=str(config.socket_path))
                try:
                    proc.wait(timeout=config.drain_grace + 5.0)
                except subprocess.TimeoutExpired:
                    proc.kill()
                    proc.wait()
                exit_code = 0
                break
            try:
                status = proc.wait(timeout=0.2)
            except subprocess.TimeoutExpired:
                continue
            if stopping["flag"] or status == 0:
                # graceful drain (signal raced the wait, or drain op)
                exit_code = 0
                break
            # crash path: prune the restart window, check the budget
            now = time.monotonic()
            restart_times.append(now)
            while restart_times and now - restart_times[0] > RESTART_WINDOW:
                restart_times.pop(0)
            incr("serve.worker_restart")
            event("serve.worker_restart", exit_status=status,
                  restarts=restarts + 1)
            if len(restart_times) > MAX_RESTARTS:
                _write_state(runtime_dir, supervisor_pid=os.getpid(),
                             worker_pid=None, restarts=restarts,
                             phase="gave_up", socket=str(config.socket_path))
                return 1
            restarts += 1
            time.sleep(min(0.1 * (2 ** min(len(restart_times), 5)), 2.0))
            proc = spawn()
    finally:
        _write_state(runtime_dir, supervisor_pid=os.getpid(),
                     worker_pid=None, restarts=restarts, phase="exited",
                     socket=str(config.socket_path))
    return exit_code


# ---------------------------------------------------------------------------
# CLI verbs
# ---------------------------------------------------------------------------

def start(config: ServeConfig, foreground: bool = False) -> int:
    """Start the supervised daemon; background by default."""
    state = read_state(config.runtime_dir)
    if state and state.get("phase") in ("running", "stopping"):
        pid = state.get("supervisor_pid")
        if pid and pid_alive(pid) is not False and ping(config.socket_path):
            print(f"already serving on {config.socket_path} "
                  f"(supervisor pid {pid})")
            return 0
    if foreground:
        return supervise(config)
    config.runtime_dir.mkdir(parents=True, exist_ok=True)
    log_path = config.runtime_dir / "serve.log"
    argv = [sys.executable, "-m", "repro", "serve", "supervise",
            "--runtime-dir", str(config.runtime_dir),
            "--socket", str(config.socket_path),
            "--threads", str(config.compute_threads),
            "--queue-capacity", str(config.queue_capacity),
            "--max-inflight", str(config.max_inflight_per_client),
            "--drain-grace", str(config.drain_grace),
            "--warmup", ",".join(config.warmup) or "none"]
    if config.gemm_threads is not None:
        argv += ["--gemm-threads", str(config.gemm_threads)]
    if config.integrity is not None:
        argv += ["--integrity", str(config.integrity)]
    with open(log_path, "ab") as log:
        proc = subprocess.Popen(argv, stdout=log, stderr=log,
                                start_new_session=True,
                                env=_child_env("supervisor"))
    if not wait_ready(config.socket_path, timeout=30.0):
        print(f"worker did not come up; see {log_path}", file=sys.stderr)
        try:
            proc.send_signal(signal.SIGTERM)
        except OSError:
            pass
        return 1
    print(f"serving on {config.socket_path} (supervisor pid {proc.pid})")
    return 0


def stop(runtime_dir: Path, timeout: float = 35.0) -> int:
    """SIGTERM the supervisor (graceful drain) and wait for it to exit."""
    state = read_state(runtime_dir)
    pid = state.get("supervisor_pid") if state else None
    if not pid or pid_alive(pid) is False:
        print("not running")
        return 2
    try:
        os.kill(pid, signal.SIGTERM)
    except OSError as exc:
        print(f"signal failed: {exc}", file=sys.stderr)
        return 1
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if pid_alive(pid) is False:
            print("stopped (drained)")
            return 0
        time.sleep(0.05)
    print(f"supervisor {pid} did not exit within {timeout}s",
          file=sys.stderr)
    return 1


def drain(config: ServeConfig, timeout: float = 35.0) -> int:
    """Ask the worker to drain over the socket; fall back to SIGTERM."""
    reply = rpc(config.socket_path,
                {"op": "drain", "v": PROTOCOL_VERSION,
                 "timeout": config.drain_grace},
                timeout=timeout)
    if reply and reply.get("ok"):
        print(f"drained; accounting sealed to "
              f"{reply.get('accounting', '?')}")
        state = read_state(config.runtime_dir)
        pid = state.get("supervisor_pid") if state else None
        if pid:
            deadline = time.monotonic() + 10.0
            while (time.monotonic() < deadline
                   and pid_alive(pid) is not False):
                time.sleep(0.05)
        return 0
    return stop(config.runtime_dir, timeout=timeout)


def status(config: ServeConfig) -> int:
    """Print supervisor + worker health; exit 0 healthy, 2 down."""
    state = read_state(config.runtime_dir) or {}
    sup_pid = state.get("supervisor_pid")
    sup_alive = bool(sup_pid) and pid_alive(sup_pid) is not False
    reply = rpc(config.socket_path,
                {"op": "status", "v": PROTOCOL_VERSION}, timeout=3.0)
    print(f"runtime dir : {config.runtime_dir}")
    print(f"socket      : {config.socket_path}")
    print(f"supervisor  : pid {sup_pid or '-'} "
          f"({'alive' if sup_alive else 'dead'}), "
          f"phase {state.get('phase', '?')}, "
          f"restarts {state.get('restarts', 0)}")
    if not (reply and reply.get("ok")):
        print("worker      : unreachable")
        return 2
    ws = reply.get("status", {})
    queue_info = ws.get("queue", {})
    totals = ws.get("requests", {})
    print(f"worker      : pid {ws.get('pid')}, "
          f"up {ws.get('uptime_s', 0):.1f}s, "
          f"{'draining' if ws.get('draining') else 'accepting'}")
    print(f"queue       : {queue_info.get('depth', 0)}/"
          f"{queue_info.get('capacity', 0)} "
          f"(peak {queue_info.get('peak', 0)})")
    print(f"requests    : admitted {totals.get('admitted', 0)}, "
          f"completed {totals.get('completed', 0)}, "
          f"failed {totals.get('failed', 0)}, "
          f"deadline {totals.get('deadline_expired', 0)}, "
          f"rejected busy/quota {totals.get('rejected_busy', 0)}/"
          f"{totals.get('rejected_quota', 0)}")
    print(f"dispatch    : probes_run {ws.get('probes_run', 0)}, "
          f"verdicts_preloaded {ws.get('verdicts_preloaded', 0)}")
    if ws.get("disk_degraded"):
        print(f"disk        : DEGRADED ({ws['disk_degraded']}) — "
              f"serving with in-memory caching only")
    integ = ws.get("integrity")
    if integ:
        print(f"integrity   : mode {integ.get('mode', 'off')}, "
              f"checks {integ.get('checks', 0)}, "
              f"mismatches {integ.get('mismatches', 0)}, "
              f"quarantines {integ.get('quarantines', 0)}")
    for routine, tier in sorted(ws.get("routines", {}).items()):
        print(f"  {routine:<10} -> {tier}")
    return 0
