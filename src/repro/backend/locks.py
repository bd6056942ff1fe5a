"""Advisory inter-process file locks for the shared kernel cache.

Two tuners (or a tuner and a bench run) pointed at one
``$REPRO_CACHE_DIR`` used to mutate the store's JSON records with no
coordination at all: every individual write is atomic
(tempfile + ``os.replace``), but read-modify-write sequences — the
``stats.json`` merge, publish-vs-lookup races — could silently lose
updates.  This module provides the missing coordination primitive.

Design: a *lock file* created with ``O_CREAT | O_EXCL`` (atomic on every
POSIX filesystem, including NFS since v3) whose content identifies the
holder — PID, hostname, acquisition time — as one JSON object.  Waiters
poll with capped exponential backoff plus jitter.

Crashed holders must never wedge the store, so waiters apply two
**stale-lock heuristics** before giving up:

- **dead PID** — the holder recorded a PID on *this* host and that
  process no longer exists (``os.kill(pid, 0)`` raises
  ``ProcessLookupError``);
- **age** — the lock is older than ``stale_after`` seconds (covers
  holders on other hosts, unreadable lock files, and PID reuse).

Breaking is race-safe: the breaker atomically *renames* the lock file to
a unique tombstone and unlinks that.  If two waiters race to break the
same stale lock, exactly one rename succeeds; the loser simply retries
acquisition.  A fresh lock created between the staleness check and the
rename is re-validated by inode, so a live holder is never evicted.

Locks degrade like the rest of the cache: acquisition failure raises
:class:`LockTimeout` and callers that treat their writes as best-effort
proceed unlocked (each file write stays individually atomic).
"""

from __future__ import annotations

import errno
import json
import os
import random
import socket
import time
from pathlib import Path
from typing import Any, Dict, Optional

from ..obs import incr
from .fsio import RecordError, read_record

#: default seconds a waiter polls before raising :class:`LockTimeout`
DEFAULT_TIMEOUT = 10.0

#: default lock age (seconds) after which it is presumed abandoned
DEFAULT_STALE_AFTER = 300.0

_POLL_INITIAL = 0.005  # seconds; doubles per poll, capped below
_POLL_MAX = 0.25


class LockTimeout(OSError):
    """The lock stayed held (by a live process) past the waiter's budget."""


def pid_alive(pid: int) -> Optional[bool]:
    """Liveness of ``pid`` on this host; ``None`` when undeterminable."""
    if pid <= 0:
        return None
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    except PermissionError:
        return True  # exists, owned by someone else
    except OSError:
        return None
    return True


class FileLock:
    """One advisory lock file; usable as a context manager.

    Not reentrant and not thread-safe per instance — create one instance
    per acquisition site (they are cheap).
    """

    def __init__(self, path: Path, timeout: float = DEFAULT_TIMEOUT,
                 stale_after: float = DEFAULT_STALE_AFTER) -> None:
        self.path = Path(path)
        self.timeout = timeout
        self.stale_after = stale_after
        self._held = False

    # -- holder metadata ---------------------------------------------------

    def _payload(self) -> str:
        return json.dumps({"pid": os.getpid(),
                           "host": socket.gethostname(),
                           "time": time.time()})

    def _read_holder(self) -> Optional[Dict[str, Any]]:
        """The holder payload; ``None`` when unreadable or its ``pid`` is
        not an integer (then only the lock's age can mark it stale)."""
        try:
            holder = read_record(self.path)
        except (OSError, RecordError):
            return None
        return holder if type(holder.get("pid", 0)) is int else None

    def _lock_age(self, holder: Optional[Dict[str, Any]]) -> float:
        """Age in seconds, preferring the recorded time over mtime."""
        if holder is not None and isinstance(holder.get("time"), (int, float)):
            return time.time() - holder["time"]
        try:
            return time.time() - self.path.stat().st_mtime
        except OSError:
            return 0.0

    def _is_stale(self) -> bool:
        holder = self._read_holder()
        age = self._lock_age(holder)
        if holder is not None and holder.get("host") == socket.gethostname():
            alive = pid_alive(holder.get("pid", 0))
            if alive is False:
                return True
            if alive is True:
                return age > self.stale_after
        # unreadable payload or foreign host: only age can decide, with a
        # short grace period so a lock mid-write is not broken instantly
        return age > (self.stale_after if holder is not None
                      else max(1.0, min(self.stale_after, 5.0)))

    def _break_lock(self) -> bool:
        """Atomically remove a stale lock; ``True`` if *we* removed it."""
        tombstone = self.path.with_name(
            f"{self.path.name}.broken.{os.getpid()}.{random.randrange(1 << 30):08x}")
        try:
            os.rename(self.path, tombstone)
        except OSError:
            return False  # another breaker (or the holder's release) won
        try:
            os.unlink(tombstone)
        except OSError:
            pass
        incr("lock.broken")
        return True

    # -- acquire / release -------------------------------------------------

    def acquire(self) -> "FileLock":
        deadline = time.monotonic() + max(self.timeout, 0.0)
        delay = _POLL_INITIAL
        contended = False
        while True:
            try:
                fd = os.open(self.path, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
            except FileExistsError:
                pass
            except OSError as exc:
                if exc.errno in (errno.ENOENT, errno.ENOTDIR):
                    # parent vanished (concurrent cache clear): recreate
                    try:
                        self.path.parent.mkdir(parents=True, exist_ok=True)
                        continue
                    except OSError:
                        pass
                raise
            else:
                try:
                    os.write(fd, self._payload().encode())
                finally:
                    os.close(fd)
                self._held = True
                incr("lock.acquired")
                if contended:
                    incr("lock.contended")
                return self
            if self._is_stale():
                self._break_lock()
                continue  # retry immediately — the holder is gone
            contended = True
            if time.monotonic() >= deadline:
                incr("lock.timeout")
                holder = self._read_holder() or {}
                raise LockTimeout(
                    f"lock {self.path} held past {self.timeout:g}s by "
                    f"pid={holder.get('pid')} host={holder.get('host')}")
            # capped exponential backoff with jitter so two waiters do not
            # poll in lockstep
            time.sleep(delay * (0.5 + random.random()))
            delay = min(delay * 2, _POLL_MAX)

    def release(self) -> None:
        if not self._held:
            return
        self._held = False
        try:
            os.unlink(self.path)
        except OSError:
            pass  # broken by a (mistaken) waiter; nothing left to release

    def __enter__(self) -> "FileLock":
        return self.acquire()

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.release()
        return False


class _NullLock:
    """Disabled-store stand-in: every operation is a no-op."""

    __slots__ = ()

    def acquire(self) -> "_NullLock":
        return self

    def release(self) -> None:
        pass

    def __enter__(self) -> "_NullLock":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        return False


NULL_LOCK = _NullLock()


def cache_lock(root: Optional[Path], name: str = "cache",
               timeout: float = DEFAULT_TIMEOUT,
               stale_after: float = DEFAULT_STALE_AFTER):
    """A lock under ``<root>/locks/``; the null lock when ``root is None``.

    Returns an *unacquired* lock — use it as a context manager.  When the
    locks directory cannot be created (read-only store) the null lock is
    returned: the caller's writes will degrade on their own.
    """
    if root is None:
        return NULL_LOCK
    lock_dir = Path(root) / "locks"
    try:
        lock_dir.mkdir(parents=True, exist_ok=True)
    except OSError:
        return NULL_LOCK
    return FileLock(lock_dir / f"{name}.lock", timeout=timeout,
                    stale_after=stale_after)
