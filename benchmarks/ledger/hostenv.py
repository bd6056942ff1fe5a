"""Pinning and recording the environment a ledger run measures in.

``pin_environment`` must run before numpy is imported: OpenBLAS reads its
thread count once, at load.  Nothing here imports numpy or ``repro`` at
module level.
"""

from __future__ import annotations

import os
import resource
import shutil
import subprocess
import sys
from pathlib import Path
from typing import Dict, List, Set

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SRC = ROOT / "src"

#: one caller thread, one compute thread, on both sides of every ratio
PINNED = {
    "REPRO_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
}
#: a caller who set one of these is not measuring the shipped defaults
REFUSED = ("REPRO_FAULT_INJECT", "REPRO_TRACE", "REPRO_INTEGRITY")

#: longest unix socket path the kernel accepts (sun_path minus the NUL)
_SUN_PATH_MAX = 107


class EnvironmentRefused(RuntimeError):
    """The caller's environment would change what the ledger measures."""


def pin_environment(work: Path) -> None:
    """Pin threads, point every store at fresh directories under
    ``work`` (cold start, real store), and make ``repro`` importable
    here and in every subprocess."""
    if "numpy" in sys.modules:
        raise EnvironmentRefused(
            "numpy was imported before the environment was pinned")
    set_by_caller = [v for v in REFUSED if os.environ.get(v)]
    if set_by_caller:
        raise EnvironmentRefused(
            "refusing to run with " + ", ".join(set_by_caller) + " set: "
            "the ledger measures the default, fault-free, untraced path")
    if not (SRC / "repro" / "__init__.py").is_file():
        raise EnvironmentRefused(f"no program to measure: {SRC}/repro "
                                 "is missing")
    os.environ.update(PINNED)
    for sub, var in (("cache", "REPRO_CACHE_DIR"),
                     ("serve", "REPRO_SERVE_DIR"), ("tmp", "TMPDIR")):
        (work / sub).mkdir(parents=True, exist_ok=True)
        os.environ[var] = str(work / sub)
    paths = [str(SRC)] + [p for p in
                          os.environ.get("PYTHONPATH", "").split(os.pathsep)
                          if p and p != str(SRC)]
    os.environ["PYTHONPATH"] = os.pathsep.join(paths)
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def socket_path(runtime_dir: Path) -> str:
    """The daemon's socket, spelled relative to the working directory
    when that is shorter: a checkout may sit deeper than ``sun_path``
    allows, and daemon and client inherit one working directory."""
    absolute = str(runtime_dir / "serve.sock")
    relative = os.path.relpath(absolute)
    best = min(absolute, relative, key=len)
    if len(best) > _SUN_PATH_MAX:
        raise EnvironmentRefused(
            f"socket path too long for a unix socket ({len(best)} > "
            f"{_SUN_PATH_MAX}): {best}")
    return best


def peak_rss_mb(pid: int = 0) -> float:
    """Peak resident set of this process (``pid=0``) or of ``pid``, MiB."""
    if pid == 0:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    try:
        for line in Path(f"/proc/{pid}/status").read_text().splitlines():
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return 0.0


def shm_segments(prefix: str = "rblc") -> Set[str]:
    """Names of the client-owned shared-memory segments now in /dev/shm."""
    try:
        return {n for n in os.listdir("/dev/shm") if n.startswith(prefix)}
    except OSError:
        return set()


def processes_mentioning(marker: str) -> List[int]:
    """Pids (other than ours) whose command line contains ``marker``."""
    found = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit() or int(entry) == os.getpid():
            continue
        try:
            cmdline = Path(f"/proc/{entry}/cmdline").read_bytes()
        except OSError:
            continue
        if marker.encode() in cmdline:
            found.append(int(entry))
    return found


def reap_resource_tracker() -> None:
    """Stop and reap multiprocessing's resource tracker, a child process
    the first shared-memory segment starts and nothing else ever waits
    for: no process of ours may be running once the result is printed."""
    tracker = sys.modules.get("multiprocessing.resource_tracker")
    stop = getattr(getattr(tracker, "_resource_tracker", None), "_stop", None)
    if stop is not None:
        stop()


def _first_line(argv: List[str]) -> str:
    try:
        out = subprocess.run(argv, capture_output=True, text=True,
                             timeout=10, cwd=str(ROOT))
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    lines = out.stdout.strip().splitlines()
    return lines[0].strip() if out.returncode == 0 and lines else "unknown"


def fingerprint() -> Dict[str, object]:
    """What this host and checkout are, for every result file."""
    import numpy as np
    import scipy

    from repro.backend.compiler import ToolchainError, find_cc
    from repro.isa.arch import detect_host

    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    blas = np.show_config(mode="dicts").get(
        "Build Dependencies", {}).get("blas", {})
    try:
        gcc = _first_line([find_cc(), "--version"])
    except ToolchainError:
        gcc = "none"
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "host_arch": detect_host().name,
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name', 'unknown')} "
                f"{blas.get('version', '')}".strip(),
        "gcc": gcc,
        "git_commit": _first_line(["git", "rev-parse", "HEAD"])
        if shutil.which("git") and (ROOT / ".git").exists() else "unknown",
        "environment": {k: v for k, v in sorted(os.environ.items())
                        if k in PINNED or k.startswith("REPRO_")},
    }
