"""Lifecycle of the serve daemon a ledger run measures against.

The daemon is started and stopped through the CLI in a subprocess, the
way an operator does it.  (Calling ``supervisor.start()`` in-process
leaves the supervisor an unreaped child of the harness, and
``supervisor.stop()`` then waits out its whole 35 s timeout.)
"""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path
from typing import List, Optional

from . import hostenv


class DaemonError(RuntimeError):
    """The daemon did not start, did not stop, or left something behind."""


class Daemon:
    """``python -m repro serve start`` ... ``serve stop``; ``stop`` and
    ``abort`` between them never leave a process behind."""

    def __init__(self, runtime_dir: Path) -> None:
        self.runtime_dir = Path(runtime_dir)
        self.socket = hostenv.socket_path(self.runtime_dir)
        self.peak_rss_mb = 0.0
        self._started = False

    def _cli(self, *args: str, timeout: float) -> subprocess.CompletedProcess:
        return subprocess.run(
            [sys.executable, "-m", "repro", "serve", *args,
             "--runtime-dir", str(self.runtime_dir),
             "--socket", self.socket],
            capture_output=True, text=True, timeout=timeout)

    def _state_pids(self) -> List[int]:
        try:
            state = json.loads(
                (self.runtime_dir / "state.json").read_text())
        except (OSError, ValueError):
            return []
        return [int(state[k]) for k in ("supervisor_pid", "worker_pid")
                if state.get(k)]

    def start(self) -> None:
        self._started = True
        done = self._cli("start", "--threads", "1", "--gemm-threads", "1",
                         timeout=120.0)
        if done.returncode != 0:
            raise DaemonError(f"serve start exited {done.returncode}: "
                              f"{done.stdout}{done.stderr}".strip())

    def sample_rss(self) -> float:
        """Supervisor + worker peak resident set so far, MiB."""
        now = sum(hostenv.peak_rss_mb(pid) for pid in self._state_pids())
        self.peak_rss_mb = max(self.peak_rss_mb, now)
        return self.peak_rss_mb

    def _leftover(self) -> List[int]:
        return hostenv.processes_mentioning(str(self.runtime_dir))

    def _kill_group(self) -> None:
        # `serve start` gives the supervisor its own session, so its pid
        # names the process group holding the worker as well
        for pid in self._state_pids() + self._leftover():
            for kill in (os.killpg, os.kill):
                try:
                    kill(pid, signal.SIGKILL)
                except (ProcessLookupError, PermissionError):
                    pass

    def stop(self) -> None:
        """Graceful stop; raises :class:`DaemonError` if the daemon had
        to be killed or outlived the stop."""
        if not self._started:
            return
        self._started = False
        self.sample_rss()
        problem: Optional[str] = None
        try:
            done = self._cli("stop", timeout=60.0)
            if done.returncode != 0:
                problem = (f"serve stop exited {done.returncode}: "
                           f"{done.stdout}{done.stderr}".strip())
        except subprocess.TimeoutExpired:
            problem = "serve stop timed out"
        deadline = time.monotonic() + 5.0
        while self._leftover() and time.monotonic() < deadline:
            time.sleep(0.05)
        left = self._leftover()
        if left:
            problem = problem or f"serve processes outlived stop: {left}"
            self._kill_group()
        if problem:
            raise DaemonError(problem)

    def abort(self) -> None:
        """Error path: kill the daemon's process group outright."""
        if self._started:
            self._started = False
            self._kill_group()

