"""Native toolchain driver: assemble/compile sources into shared objects.

Used for the generated GAS kernels (assembled with ``gcc -c``) and the C
baseline kernels (the "ATLAS-proxy" path: C + general-purpose compiler).

Artifacts go through a two-level, content-addressed cache: an in-process
dict over the persistent on-disk store of :mod:`repro.backend.cache`
(``$REPRO_CACHE_DIR``, default ``~/.cache/repro-augem``). The key covers
the sources, the flags, and the compiler identity/version, so a cached
``.so`` is reused across processes but never across toolchains. When the
store is disabled (``REPRO_CACHE_DIR=off``) builds land in a process
scratch directory that is removed at interpreter exit.
"""

from __future__ import annotations

import atexit
import ctypes
import hashlib
import os
import random
import shutil
import subprocess
import tempfile
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Sequence

from ..obs import span
from .cache import get_cache
from .faults import take_fault


class ToolchainError(RuntimeError):
    """Compilation or assembly failed; message carries the tool output."""


class ToolchainUnavailable(ToolchainError):
    """No usable compiler/assembler on this host.

    A distinct subclass so callers (the tuner, test skip markers, the
    bench harness) can degrade gracefully — skip the native path with a
    clear message — instead of treating it like a broken build.
    """


def find_cc() -> str:
    """Locate a C compiler (honors $CC)."""
    cc = os.environ.get("CC")
    if cc and shutil.which(cc):
        return cc
    for cand in ("gcc", "cc", "clang"):
        if shutil.which(cand):
            return cand
    raise ToolchainUnavailable(
        "no C compiler/assembler found on PATH (set $CC); native kernel "
        "execution is unavailable on this host")


def have_native_toolchain() -> bool:
    try:
        find_cc()
        return True
    except ToolchainError:
        return False


_CC_FINGERPRINTS: Dict[str, str] = {}


def cc_fingerprint(cc: str) -> str:
    """Compiler identity for the cache key: resolved path + version line.

    Artifacts built by one toolchain must never be served to another, so
    this participates in every content hash.
    """
    cached = _CC_FINGERPRINTS.get(cc)
    if cached is not None:
        return cached
    path = shutil.which(cc) or cc
    try:
        proc = subprocess.run([cc, "--version"], capture_output=True,
                              text=True, timeout=10)
        version = (proc.stdout or proc.stderr).splitlines()[0].strip()
    except (OSError, subprocess.TimeoutExpired, IndexError):
        version = "unknown"
    fp = f"{path}\x1f{version}"
    _CC_FINGERPRINTS[cc] = fp
    return fp


_SCRATCH_DIR: Optional[Path] = None


def _scratch_dir() -> Path:
    """Process-local build scratch, removed at interpreter exit.

    (The pre-cache implementation leaked one ``repro-augem-*`` temp
    directory per process; cleanup is now registered the moment the
    directory is created.)
    """
    global _SCRATCH_DIR
    if _SCRATCH_DIR is None:
        _SCRATCH_DIR = Path(tempfile.mkdtemp(prefix="repro-augem-"))
        atexit.register(shutil.rmtree, str(_SCRATCH_DIR),
                        ignore_errors=True)
    return _SCRATCH_DIR


#: per-invocation wall-clock ceiling (seconds); $REPRO_TOOLCHAIN_TIMEOUT
_DEFAULT_TOOL_TIMEOUT = 120.0
#: total attempts per invocation for transient failures; $REPRO_TOOLCHAIN_RETRIES
_DEFAULT_TOOL_ATTEMPTS = 3
_RETRY_BACKOFF = 0.05  # seconds; doubles per retry, capped at 1s


def _tool_limits() -> tuple:
    try:
        timeout = float(os.environ.get("REPRO_TOOLCHAIN_TIMEOUT",
                                       _DEFAULT_TOOL_TIMEOUT))
    except ValueError:
        timeout = _DEFAULT_TOOL_TIMEOUT
    try:
        attempts = int(os.environ.get("REPRO_TOOLCHAIN_RETRIES",
                                      _DEFAULT_TOOL_ATTEMPTS))
    except ValueError:
        attempts = _DEFAULT_TOOL_ATTEMPTS
    return max(timeout, 1.0), max(attempts, 1)


def _run(cmd: Sequence[str], tag: str = "") -> None:
    """Run one toolchain command with timeout and bounded retry.

    Transient failures (a hung or OOM-killed tool, exec errors, injected
    faults) are retried with exponential backoff; a *diagnostic* failure
    (nonzero exit with compiler output — a genuinely bad source) is
    raised immediately, since retrying a deterministic error only wastes
    the attempt budget.
    """
    stats = get_cache().stats
    timeout, attempts = _tool_limits()
    last = "unknown transient failure"
    for attempt in range(attempts):
        if attempt:
            stats.incr("toolchain_retries")
            # jitter the exponential backoff so N tuners that hit the same
            # transient failure (an OOM-killed assembler, a busy NFS
            # server) do not retry in lockstep and re-collide
            delay = min(_RETRY_BACKOFF * (2 ** (attempt - 1)), 1.0)
            time.sleep(delay * (0.5 + random.random()))
        if take_fault("toolchain", tag=tag):
            last = f"injected toolchain fault (tag {tag!r})"
            continue
        stats.incr("toolchain_invocations")
        t0 = time.perf_counter()
        try:
            proc = subprocess.run(cmd, capture_output=True, text=True,
                                  timeout=timeout)
        except subprocess.TimeoutExpired:
            last = f"timed out after {timeout:g}s"
            continue
        except OSError as exc:
            last = f"{type(exc).__name__}: {exc}"
            continue
        finally:
            stats.incr("build_seconds", time.perf_counter() - t0)
        if proc.returncode == 0:
            return
        raise ToolchainError(
            f"command failed: {' '.join(cmd)}\n{proc.stdout}\n{proc.stderr}"
        )
    raise ToolchainError(
        f"command failed after {attempts} attempts: {' '.join(cmd)} "
        f"(last error: {last})")


@dataclass
class SharedObject:
    """A compiled shared object plus its ctypes handle."""

    path: Path
    lib: ctypes.CDLL

    def symbol(self, name: str):
        return getattr(self.lib, name)


_SO_CACHE: Dict[str, SharedObject] = {}
_SO_LOCK = threading.Lock()  # parallel tuning builds from worker threads


def _content_key(cc: str, sources: Dict[str, str],
                 extra_flags: Sequence[str]) -> str:
    key_src = "\x00".join(f"{n}\x01{s}" for n, s in sorted(sources.items()))
    return hashlib.sha256(
        (key_src + "\x02" + " ".join(extra_flags)
         + "\x03" + cc_fingerprint(cc)).encode()
    ).hexdigest()[:24]


def _compile_into(cc: str, workdir: Path, sources: Dict[str, str],
                  extra_flags: Sequence[str], tag: str) -> str:
    """Run the toolchain in ``workdir``; returns the ``.so`` file name."""
    objects: List[str] = []
    for fname, content in sources.items():
        src_path = workdir / fname
        src_path.write_text(content)
        obj_path = workdir / (src_path.stem + ".o")
        flags = ["-O2", "-fPIC"]
        if fname.endswith(".c"):
            flags += list(extra_flags)
        _run([cc, "-c", str(src_path), "-o", str(obj_path)] + flags,
             tag=tag)
        objects.append(str(obj_path))
    so_name = f"lib{tag}.so"
    _run([cc, "-shared", "-o", str(workdir / so_name)] + objects, tag=tag)
    return so_name


def build_shared(sources: Dict[str, str], extra_flags: Sequence[str] = (),
                 tag: str = "kernel", force: bool = False) -> SharedObject:
    """Compile ``sources`` (filename -> content) into one shared object.

    ``.S`` files are assembled, ``.c`` files compiled; everything is linked
    with ``-shared``. Lookup order: in-process dict, persistent store,
    toolchain. ``force=True`` evicts any cached entry first (recovery path
    for a cached object that loads but is otherwise unusable).
    """
    cc = find_cc()
    cache = get_cache()
    key = _content_key(cc, sources, extra_flags)

    with _SO_LOCK:
        if force:
            _SO_CACHE.pop(key, None)
            cache.evict(key)
        elif key in _SO_CACHE:
            cache.stats.incr("mem_hits")
            return _SO_CACHE[key]

    so = None if force else _load_from_store(cache, key)
    if so is None:
        cache.stats.incr("misses")
        with span("toolchain.build", tag=tag, key=key):
            so = _build_and_publish(cc, cache, key, sources, extra_flags,
                                    tag)
    with _SO_LOCK:
        # a concurrent thread may have raced us; first one in wins so every
        # caller shares one CDLL handle per key
        existing = _SO_CACHE.setdefault(key, so)
    return existing


def _load_from_store(cache, key: str) -> Optional[SharedObject]:
    so_path = cache.lookup_so(key)
    if so_path is None:
        return None
    try:
        lib = ctypes.CDLL(str(so_path))
    except OSError:
        # corrupt enough to pass the size check but not dlopen
        cache.stats.incr("errors")
        cache.evict(key)
        return None
    cache.stats.incr("disk_hits")
    return SharedObject(path=so_path, lib=lib)


def _build_and_publish(cc: str, cache, key: str, sources: Dict[str, str],
                       extra_flags: Sequence[str],
                       tag: str) -> SharedObject:
    store_workdir: Optional[Path] = None
    if cache.enabled:
        try:
            # build inside the store so the publish rename below stays on
            # one filesystem (a /tmp scratch could sit on another device)
            store_workdir = cache._scratch()
        except OSError:
            # store root unusable (bad $REPRO_CACHE_DIR, permissions):
            # fall back to an unpublished process-scratch build
            cache.stats.incr("errors")
    workdir = store_workdir
    if workdir is None:
        workdir = _scratch_dir() / f"{tag}-{key}"
        workdir.mkdir(parents=True, exist_ok=True)
    so_name = _compile_into(cc, workdir, sources, extra_flags, tag)
    so_path = workdir / so_name
    # dlopen from the (unique) scratch path *before* publishing: glibc
    # caches handles by pathname, so loading the store path here would
    # alias a stale mapping if this key was ever evicted and rebuilt
    # within one process. The mapping survives the rename below.
    lib = ctypes.CDLL(str(so_path))
    if store_workdir is not None:
        published = cache.publish_so(
            key, workdir, so_name,
            meta={"tag": tag, "flags": list(extra_flags),
                  "sources": sorted(sources)})
        if published is not None:
            so_path = published
    return SharedObject(path=so_path, lib=lib)


def assemble_kernel(asm_text: str, tag: str = "kernel",
                    force: bool = False) -> SharedObject:
    """Assemble one GAS kernel into a loadable shared object."""
    return build_shared({f"{tag}.S": asm_text}, tag=tag, force=force)


def reset_so_cache() -> None:
    """Test hook: drop every in-process handle (disk store untouched)."""
    with _SO_LOCK:
        _SO_CACHE.clear()
