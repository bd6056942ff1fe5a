"""Persistent, content-addressed kernel cache.

Compiled shared objects (and tuning measurements) are stored on disk under
``$REPRO_CACHE_DIR`` (default ``~/.cache/repro-augem``), keyed by a content
hash that covers the sources, the compile flags, and the compiler
identity/version, so entries survive process restarts and are shared by
every benchmark/test/tuning run on the machine.

Design points:

- **two-level**: callers keep their own in-process dict (the hot layer);
  this module is the cross-process disk layer.
- **atomic publish**: entries are built in a scratch directory and moved
  into place with a single ``rename``, so a crashed or concurrent writer
  can never leave a half-written entry visible.
- **self-healing**: a corrupted or truncated entry fails closed — it is
  evicted and the caller rebuilds from source.
- **instrumented**: a :class:`CacheStats` tally records hits, misses,
  evictions, and toolchain time, each bump also feeding its trace
  counter; cumulative totals are merged into ``stats.json`` at
  interpreter exit and surfaced through ``python -m repro cache stats``.

Setting ``REPRO_CACHE_DIR`` to ``off`` / ``none`` / ``0`` / ``disabled``
turns the disk layer off entirely (hermetic test mode): all lookups miss,
all publishes are no-ops, and nothing outside the process temp dir is
touched.
"""

from __future__ import annotations

import atexit
import hashlib
import os
import shutil
import tempfile
from contextlib import contextmanager
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

from ..obs import Counters, event
from . import fsio
from .locks import NULL_LOCK, LockTimeout, cache_lock

_DISABLED_VALUES = {"off", "none", "0", "disabled", "false"}

#: meta.json schema version; bump to invalidate every existing entry.
#: v2 added the mandatory ``so_size``/``so_sha256`` integrity fields.
ENTRY_VERSION = 2

_SIZE_SUFFIXES = {"k": 1 << 10, "m": 1 << 20, "g": 1 << 30, "t": 1 << 40}

#: the store's artifact trees: directory, the glob matching one artifact,
#: and the ``inventory()`` field that counts them
_KINDS = (("objects", "*/*/meta.json", "entries"),
          ("tuning", "**/*.json", "tuning_records"),
          ("quarantine", "**/*.json", "quarantined"),
          ("sessions", "*/manifest.json", "sessions"))


def parse_bytes(text: str) -> Optional[int]:
    """``"512m"``/``"2g"``/``"1048576"`` -> bytes; ``None`` if malformed.

    Malformed values degrade (no budget) rather than fail a build —
    matching how ``REPRO_THREADS`` handles garbage.
    """
    text = (text or "").strip().lower()
    if not text:
        return None
    scale = 1
    if text[-1] in _SIZE_SUFFIXES:
        scale = _SIZE_SUFFIXES[text[-1]]
        text = text[:-1]
    try:
        value = int(float(text) * scale)
    except ValueError:
        return None
    return value if value >= 0 else None


def cache_max_bytes() -> Optional[int]:
    """The configured size budget (``REPRO_CACHE_MAX_BYTES``), if any."""
    return parse_bytes(os.environ.get("REPRO_CACHE_MAX_BYTES", ""))


class CacheStats(Counters):
    """Hit/miss/evict counters plus toolchain-time accounting (seconds).

    The fields are the keys of ``stats.json``.
    """

    TRACE = {
        "mem_hits": "cache.mem_hit",    # served from the in-process dict
        "disk_hits": "cache.disk_hit",  # served from the persistent store
        "misses": "cache.miss",         # nothing cached; toolchain invoked
        "evictions": "cache.eviction",  # corrupt/cleared entries removed
        "errors": None,                 # load failures (each also evicts)
        "puts": "cache.put",            # entries published to disk
        "tuning_hits": "cache.tuning_hit",  # tuning measurements reused
        "tuning_puts": "cache.tuning_put",  # tuning measurements persisted
        "quarantine_hits": "cache.quarantine_hit",  # crashers skipped
        "quarantine_puts": "cache.quarantine_put",  # newly quarantined
        "io_errors": "cache.io_error",  # OSErrors absorbed by maintenance
        "gc_evictions": "cache.gc_eviction",  # evicted by the quota GC
        "lock_timeouts": "cache.lock_timeout",  # gave up, wrote unlocked
        "toolchain_invocations": "toolchain.invocations",
        "toolchain_retries": "toolchain.retries",  # transient failures
        "build_seconds": "toolchain.build_seconds",  # toolchain wall time
    }

    @property
    def hits(self) -> int:
        return self.mem_hits + self.disk_hits

    def describe(self) -> str:
        return (
            f"hits={self.hits} (mem={self.mem_hits} disk={self.disk_hits}) "
            f"misses={self.misses} evictions={self.evictions} "
            f"errors={self.errors} puts={self.puts} "
            f"tuning hits={self.tuning_hits} puts={self.tuning_puts} "
            f"quarantine hits={self.quarantine_hits} "
            f"puts={self.quarantine_puts} "
            f"io errors={self.io_errors} gc evictions={self.gc_evictions} "
            f"lock timeouts={self.lock_timeouts} "
            f"toolchain calls={self.toolchain_invocations} "
            f"retries={self.toolchain_retries} "
            f"build time={self.build_seconds:.2f}s"
        )


def check_entry(entry: Path, digest: bool = False) -> Path:
    """Verify one compiled-object entry; returns its shared object.

    The one validity rule for ``objects/``: :meth:`KernelCache.lookup_so`
    checks the recorded size on every disk hit, and ``cache scrub`` adds
    the SHA-256 recorded at publish (``digest=True``).  Raises
    ``FileNotFoundError`` when there is no entry and
    :class:`~repro.backend.fsio.RecordError` naming the defect of one
    that cannot be served.
    """
    try:
        meta = fsio.read_record(entry / "meta.json", ENTRY_VERSION)
    except FileNotFoundError:
        # publish renames a directory that already holds its meta, so an
        # entry without one is damage — and would block every re-publish
        if entry.is_dir():
            raise fsio.RecordError("meta.json missing") from None
        raise
    except fsio.RecordError as exc:
        raise fsio.RecordError(f"meta.json {exc}") from None
    so_name = meta.get("so")
    if not isinstance(so_name, str) or not so_name:
        raise fsio.RecordError("meta.json names no shared object")
    so_path = entry / so_name
    try:
        size = so_path.stat().st_size
    except OSError as exc:
        raise fsio.RecordError(f"shared object unreadable: {exc}") from None
    if size != meta.get("so_size") or size == 0:
        raise fsio.RecordError(f"shared object truncated "
                               f"({size} != {meta.get('so_size')} bytes)")
    if digest:
        recorded = meta.get("so_sha256")
        if not isinstance(recorded, str) or len(recorded) != 64:
            # every current-version entry records a digest at publish: an
            # absent or malformed one means the *meta* itself rotted
            raise fsio.RecordError(
                f"meta.json digest field invalid: {recorded!r}")
        try:
            found = hashlib.sha256(so_path.read_bytes()).hexdigest()
        except OSError as exc:
            raise fsio.RecordError(
                f"shared object unreadable: {exc}") from None
        if found != recorded:
            raise fsio.RecordError(
                f"shared object digest mismatch ({found[:12]}…)")
    return so_path


def read_cache_record(path: Path, kind: str) -> Dict[str, Any]:
    """Load one ``tuning``/``quarantine`` record, or raise as
    :func:`~repro.backend.fsio.read_record` does.  A tuning record also
    needs a numeric ``gflops``: the tuner reuses it as a measurement."""
    record = fsio.read_record(path)
    gflops = record.get("gflops")
    if kind == "tuning" and (isinstance(gflops, bool)
                             or not isinstance(gflops, (int, float))):
        raise fsio.RecordError(f"gflops {gflops!r} is not a number")
    return record


def cache_root() -> Optional[Path]:
    """Resolve the store root from the environment; ``None`` = disabled."""
    raw = os.environ.get("REPRO_CACHE_DIR")
    if raw is not None and raw.strip().lower() in _DISABLED_VALUES:
        return None
    if raw:
        return Path(raw).expanduser()
    return Path.home() / ".cache" / "repro-augem"


class KernelCache:
    """The on-disk half of the two-level cache.

    Layout under the root::

        objects/<k0:2>/<key>/   one compiled entry: meta.json + *.so
        tuning/<k0:2>/<key>.json   one persisted tuning measurement
        quarantine/<k0:2>/<key>.json   one known-crashing candidate
        sessions/<id>/          durable tuning sessions (manifest + journal)
        locks/                  advisory lock files (see backend.locks)
        tmp/                    scratch for atomic publishes
        stats.json              cumulative counters across processes

    Mutations of shared JSON records run under an advisory file lock
    (:mod:`repro.backend.locks`) so concurrent tuners on one store never
    interleave read-modify-write sequences.  A lock that cannot be
    acquired within its budget degrades to an unlocked (still
    individually atomic) write — the cache never deadlocks a build.
    """

    def __init__(self, root: Optional[Path]) -> None:
        self.root = root
        self.stats = CacheStats()
        self._flushed = False

    @property
    def enabled(self) -> bool:
        # a sick disk (ENOSPC/EIO on any durable write, anywhere in the
        # process) demotes the whole store to in-memory-only operation
        return self.root is not None and fsio.disk_degraded() is None

    # -- error accounting --------------------------------------------------

    def _io_error(self, exc: OSError, where: str) -> None:
        """Count an absorbed maintenance OSError instead of hiding it."""
        self.stats.incr("io_errors")
        fsio.note_disk_error(exc, where)

    def _rmtree(self, path: Path, where: str) -> None:
        """``shutil.rmtree`` that counts failures rather than lying."""
        try:
            shutil.rmtree(path)
        except FileNotFoundError:
            pass
        except OSError as exc:
            self._io_error(exc, where)
            shutil.rmtree(path, ignore_errors=True)  # salvage what we can

    # -- paths ------------------------------------------------------------

    def _entry_dir(self, key: str) -> Path:
        return self.root / "objects" / key[:2] / key

    def _record_path(self, kind: str, key: str) -> Path:
        """One JSON record of ``kind`` ("tuning" or "quarantine")."""
        return self.root / kind / key[:2] / f"{key}.json"

    def _scratch(self) -> Path:
        tmp = self.root / "tmp"
        tmp.mkdir(parents=True, exist_ok=True)
        return Path(tempfile.mkdtemp(dir=tmp))

    # -- inter-process locking --------------------------------------------

    @contextmanager
    def _locked(self, name: str = "cache"):
        """Best-effort advisory lock around one store mutation.

        A timed-out wait is counted and the mutation proceeds unlocked:
        every write below is individually atomic, so the worst case of
        losing the lock race is a lost *merge* (stats), never a corrupt
        record.
        """
        lock = cache_lock(self.root if self.enabled else None, name=name)
        try:
            lock.acquire()
        except LockTimeout:
            self.stats.incr("lock_timeouts")
            lock = NULL_LOCK
        except OSError as exc:
            # the lock *file* could not be created (disk full, store
            # yanked): degrade to an unlocked write, never crash the
            # mutation — and let a sick disk flip the health flag
            self._io_error(exc, f"cache.lock.{name}")
            lock = NULL_LOCK
        try:
            yield
        finally:
            lock.release()

    # -- compiled-object entries ------------------------------------------

    def lookup_so(self, key: str) -> Optional[Path]:
        """Return the cached ``.so`` path for ``key``, or ``None``.

        Any entry :func:`check_entry` rejects (torn meta, wrong version,
        missing or truncated object) is evicted so the caller rebuilds
        cleanly.
        """
        if not self.enabled:
            return None
        entry = self._entry_dir(key)
        try:
            so_path = check_entry(entry)
        except FileNotFoundError:
            return None
        except fsio.RecordError:
            self.stats.incr("errors")
            self.evict(key)
            return None
        try:
            # LRU stamp for the quota GC: a disk hit refreshes the
            # entry's meta mtime, so eviction order tracks last use
            os.utime(entry / "meta.json")
        except OSError:
            pass
        return so_path

    def publish_so(self, key: str, workdir: Path, so_name: str,
                   meta: Optional[Dict[str, Any]] = None) -> Optional[Path]:
        """Atomically move a finished build directory into the store.

        ``workdir`` must contain ``so_name``; sources/objects alongside it
        are kept for debuggability. Returns the published ``.so`` path (or
        ``None`` when the store is disabled / publish raced and lost).
        """
        if not self.enabled:
            return None
        entry = self._entry_dir(key)
        try:
            so_src = workdir / so_name
            so_bytes = so_src.read_bytes()
            record = dict(meta or {})
            record.update(version=ENTRY_VERSION, so=so_name,
                          so_size=len(so_bytes),
                          so_sha256=hashlib.sha256(so_bytes).hexdigest())
            # make the object itself durable, then write meta last inside
            # the scratch dir (fsynced), then one atomic rename below
            fd = os.open(so_src, os.O_RDONLY)
            try:
                os.fsync(fd)
            finally:
                os.close(fd)
            fsio.atomic_write_json(workdir / "meta.json", record,
                                   tag="cache.meta")
            entry.parent.mkdir(parents=True, exist_ok=True)
        except OSError as exc:
            # store unusable (permissions, bad $REPRO_CACHE_DIR, disk
            # full): the build in ``workdir`` is still valid, just never
            # becomes shared — degrade instead of failing the build
            self.stats.incr("errors")
            fsio.note_disk_error(exc, "cache.publish")
            return None
        try:
            with self._locked("publish"):
                fsio.disk_checkpoint("cache.publish.rename")
                workdir.rename(entry)
                fsio.fsync_dir(entry.parent)
                fsio.disk_checkpoint("cache.publish.done")
        except OSError as exc:
            # a concurrent builder published first (or the disk died
            # mid-rename); use theirs if there is one
            fsio.note_disk_error(exc, "cache.publish")
            shutil.rmtree(workdir, ignore_errors=True)
            return self.lookup_so(key)
        self.stats.incr("puts")
        self.maybe_gc()
        return entry / so_name

    def evict(self, key: str) -> None:
        if not self.enabled:
            return
        entry = self._entry_dir(key)
        if entry.exists():
            self._rmtree(entry, "cache.evict")
            self.stats.incr("evictions")

    # -- JSON records: tuning measurements and candidate quarantine --------
    #
    # A tuning record is one persisted measurement.  A candidate that
    # crashed or hung in the isolated worker is quarantined (keyed like
    # the tuning measurements, by the generated kernel's content hash) so
    # a re-tuning run skips it without re-executing the crash.  Both are
    # best-effort; ``clear()`` resets them along with everything else.

    def load_tuning(self, key: str) -> Optional[Dict[str, Any]]:
        return self._load_record("tuning", key)

    def store_tuning(self, key: str, record: Dict[str, Any]) -> None:
        self._store_record("tuning", key, record)

    def load_quarantine(self, key: str) -> Optional[Dict[str, Any]]:
        return self._load_record("quarantine", key)

    def store_quarantine(self, key: str, record: Dict[str, Any]) -> None:
        self._store_record("quarantine", key, record)

    def _load_record(self, kind: str, key: str) -> Optional[Dict[str, Any]]:
        if not self.enabled:
            return None
        path = self._record_path(kind, key)
        try:
            record = read_cache_record(path, kind)
        except FileNotFoundError:
            return None
        except fsio.RecordError:
            self.stats.incr("errors")
            try:
                path.unlink()
                self.stats.incr("evictions")
            except OSError as exc:
                self._io_error(exc, f"cache.{kind}.evict")
            return None
        self.stats.incr(f"{kind}_hits")
        return record

    def _store_record(self, kind: str, key: str,
                      record: Dict[str, Any]) -> None:
        if not self.enabled:
            return
        with self._locked(kind):
            written = fsio.write_record(self._record_path(kind, key),
                                        record, tag=f"cache.{kind}")
        if not written:
            self.stats.incr("errors")
            return
        self.stats.incr(f"{kind}_puts")

    # -- maintenance -------------------------------------------------------

    def clear(self) -> int:
        """Remove every entry; returns how many were evicted."""
        if not self.enabled or not self.root.exists():
            return 0
        removed = 0
        for kind, pattern, _ in _KINDS:
            removed += sum(1 for _ in (self.root / kind).glob(pattern))
            self._rmtree(self.root / kind, "cache.clear")
        self._rmtree(self.root / "tmp", "cache.clear")
        self._rmtree(self.root / "locks", "cache.clear")
        stats_path = self.root / "stats.json"
        try:
            stats_path.unlink()
        except FileNotFoundError:
            pass
        except OSError as exc:
            self._io_error(exc, "cache.clear")
        self.stats.incr("evictions", removed)
        return removed

    def gc(self, max_bytes: Optional[int] = None) -> Dict[str, Any]:
        """Evict least-recently-used compiled entries down to a budget.

        LRU order comes from each entry's ``meta.json`` mtime, refreshed
        on every disk hit by :meth:`lookup_so`.  Only ``objects/``
        entries are eligible: quarantine records are *never* evicted (a
        known-crashing candidate must stay known), and tuning records /
        sessions have their own lifecycles.  Returns a report dict.
        """
        budget = cache_max_bytes() if max_bytes is None else max_bytes
        report: Dict[str, Any] = {
            "budget_bytes": budget, "before_bytes": 0, "after_bytes": 0,
            "evicted": 0, "kept": 0,
        }
        if not self.enabled or budget is None or not self.root.exists():
            return report
        entries: List[Tuple[float, int, str]] = []  # (atime, bytes, key)
        for meta in (self.root / "objects").glob("*/*/meta.json"):
            entry = meta.parent
            try:
                stamp = meta.stat().st_mtime
                size = sum(f.stat().st_size for f in entry.iterdir()
                           if f.is_file())
            except OSError:
                stamp, size = 0.0, 0
            entries.append((stamp, size, entry.name))
        total = sum(size for _, size, _ in entries)
        report["before_bytes"] = total
        with self._locked("gc"):
            for stamp, size, key in sorted(entries):
                if total <= budget:
                    break
                self.evict(key)
                self.stats.incr("gc_evictions")
                total -= size
                report["evicted"] += 1
        report["after_bytes"] = total
        report["kept"] = len(entries) - report["evicted"]
        if report["evicted"]:
            event("cache.gc", evicted=report["evicted"],
                  before=report["before_bytes"], after=total, budget=budget)
        return report

    def maybe_gc(self) -> None:
        """Opportunistic quota enforcement after a publish (env budget)."""
        if cache_max_bytes() is not None:
            try:
                self.gc()
            except OSError as exc:
                self._io_error(exc, "cache.gc")

    def inventory(self) -> Dict[str, Any]:
        """Store-wide entry counts and byte totals (for ``cache stats``)."""
        budget = cache_max_bytes()
        info: Dict[str, Any] = {
            "root": str(self.root) if self.enabled else "(disabled)",
            "entries": 0, "bytes": 0, "tuning_records": 0, "quarantined": 0,
            "sessions": 0, "max_bytes": budget, "headroom_bytes": None,
        }
        if budget is not None:
            info["headroom_bytes"] = budget
        if not self.enabled or not self.root.exists():
            return info
        for kind, pattern, field_name in _KINDS:
            info[field_name] = sum(1 for _ in
                                   (self.root / kind).glob(pattern))
        info["bytes"] = sum(
            f.stat().st_size
            for meta in self.root.glob("objects/*/*/meta.json")
            for f in meta.parent.iterdir() if f.is_file())
        if budget is not None:
            info["headroom_bytes"] = budget - info["bytes"]
        return info

    # -- cumulative stats --------------------------------------------------

    def cumulative_stats(self) -> CacheStats:
        """Persisted totals across all processes, plus this process."""
        total = CacheStats()
        if self.enabled:
            total.merge(self._read_stats())
        total.merge(self.stats.snapshot())
        return total

    def _read_stats(self) -> Dict[str, Any]:
        """``stats.json``, or ``{}`` when absent or corrupt (the next
        flush rewrites it)."""
        try:
            return fsio.read_record(self.root / "stats.json")
        except (FileNotFoundError, fsio.RecordError):
            return {}

    def flush_stats(self) -> None:
        """Merge this process's counters into ``stats.json`` (idempotent)."""
        if not self.enabled or self._flushed:
            return
        if not any(self.stats.snapshot().values()):
            return
        self._flushed = True
        # read-merge-write must be serialized across processes, or a
        # concurrent tuner's counters are silently dropped
        with self._locked("stats"):
            written = fsio.write_record(self.root / "stats.json",
                                        self.cumulative_stats().snapshot(),
                                        tag="cache.stats")
        if not written:
            # stats are best-effort; never fail the build over them —
            # but a failed flush is still counted and surfaced
            self.stats.incr("io_errors")


_CACHE: Optional[KernelCache] = None


def get_cache() -> KernelCache:
    """The process-wide cache, bound to the current ``$REPRO_CACHE_DIR``."""
    global _CACHE
    if _CACHE is None:
        _CACHE = KernelCache(cache_root())
        atexit.register(_CACHE.flush_stats)
    return _CACHE


def reset_cache() -> None:
    """Drop the singleton so the next ``get_cache`` re-reads the env.

    Test hook: lets a test repoint ``REPRO_CACHE_DIR`` at a tmp dir.
    (The in-process ``.so`` dict in :mod:`repro.backend.compiler` is
    reset separately by its own test hook.)
    """
    global _CACHE
    if _CACHE is not None:
        _CACHE.flush_stats()
    _CACHE = None
