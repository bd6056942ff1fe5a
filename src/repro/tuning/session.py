"""Durable, resumable tuning sessions (write-ahead trial journal).

The empirical search (paper §2.1) runs hundreds of generate → assemble →
validate → time trials per kernel.  On real machines long searches die
mid-flight — SIGINT, OOM kills, CI timeouts — and before this module a
killed search forfeited every measurement the process had not yet pushed
into the measurement cache's content-addressed records.  A session turns
the search itself into a durable artifact:

- a **manifest** (``manifest.json``) identifying the search — kernel,
  arch, batches, the full candidate list, and a ``search_key`` content
  hash over all of it — plus liveness metadata (status, pid, host,
  timestamps);
- a **write-ahead trial journal** (``journal.jsonl``): one JSON line per
  *completed* trial, appended and fsynced before the search moves to the
  next candidate, so the instant of death loses at most the in-flight
  trial.

Both live under ``<cache root>/sessions/<session id>/``.  Resuming
(``python -m repro tune <kernel> --resume`` or ``repro tune sessions
resume <id>``) matches the manifest's ``search_key`` against the
requested search, replays every journaled trial verbatim — no
generation, no assembly, no re-timing — and continues exactly where the
dead process stopped, appending to the same journal.

Sessions end in one of three states: ``complete`` (the search returned a
winner), ``interrupted`` (graceful SIGINT/SIGTERM shutdown or an
injected ``interrupt`` fault), or ``failed`` (the search raised).  A
session whose manifest still says ``running`` but whose recorded PID is
dead was killed uncleanly (SIGKILL, OOM) — it is equally resumable,
because the journal was flushed per trial.  ``repro tune sessions gc``
prunes completed and abandoned sessions.

With the cache disabled (``REPRO_CACHE_DIR=off``) sessions are inert:
:func:`open_session` returns ``None`` and the search runs exactly as
before, in-process only.
"""

from __future__ import annotations

import hashlib
import json
import os
import socket
import time
import uuid
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence

from ..backend import fsio
from ..backend.cache import cache_root
from ..backend.locks import FileLock, LockTimeout, pid_alive
from ..obs import event, incr

#: manifest schema version; bump to orphan every existing session
SESSION_VERSION = 1

#: default age (seconds) past which a non-live session is garbage
DEFAULT_GC_AGE = 7 * 24 * 3600.0

#: manifest states
RUNNING, INTERRUPTED, COMPLETE, FAILED = (
    "running", "interrupted", "complete", "failed")


def sessions_root(root: Optional[Path] = None) -> Optional[Path]:
    """``<cache root>/sessions``; ``None`` when the cache is disabled."""
    root = root if root is not None else cache_root()
    return None if root is None else Path(root) / "sessions"


def search_key(kernel_key: str, arch_name: str, batches: int,
               candidate_descs: Sequence[str],
               workload_version: int) -> str:
    """Content address of one search: a session may only resume a search
    over the *identical* candidate list, workload, and batch count."""
    payload = "\x1f".join([
        "session", kernel_key, arch_name, f"batches={batches}",
        f"wl={workload_version}", *candidate_descs])
    return hashlib.sha256(payload.encode()).hexdigest()[:24]


@dataclass
class TrialRecord:
    """One journaled trial, exactly as the search recorded it."""

    index: int
    candidate: str
    gflops: float
    category: str = "ok"
    error: Optional[str] = None
    cached: bool = False

    def to_json(self) -> Dict[str, Any]:
        rec: Dict[str, Any] = {"i": self.index, "candidate": self.candidate,
                               "gflops": self.gflops,
                               "category": self.category}
        if self.error is not None:
            rec["error"] = self.error
        if self.cached:
            rec["cached"] = True
        return rec

    @classmethod
    def from_json(cls, rec: Dict[str, Any]) -> "TrialRecord":
        return cls(index=int(rec["i"]), candidate=str(rec["candidate"]),
                   gflops=float(rec["gflops"]),
                   category=str(rec.get("category", "ok")),
                   error=rec.get("error"),
                   cached=bool(rec.get("cached", False)))


class TuningSession:
    """One durable search: manifest + append-only trial journal.

    The journal file handle stays open (append mode) for the session's
    lifetime; :meth:`record_trial` writes one line, flushes, and fsyncs,
    so a SIGKILL after the call loses nothing.
    """

    def __init__(self, path: Path, manifest: Dict[str, Any]) -> None:
        self.path = Path(path)
        self.manifest = manifest
        self._journal_fh = None

    # -- identity ----------------------------------------------------------

    @property
    def id(self) -> str:
        return self.manifest["id"]

    @property
    def status(self) -> str:
        return self.manifest.get("status", FAILED)

    @property
    def manifest_path(self) -> Path:
        return self.path / "manifest.json"

    @property
    def journal_path(self) -> Path:
        return self.path / "journal.jsonl"

    # -- lifecycle ---------------------------------------------------------

    @classmethod
    def create(cls, root: Path, kernel: str, kernel_key: str, layout: str,
               arch_name: str, batches: int,
               candidate_descs: Sequence[str],
               key: str) -> "TuningSession":
        """Start a fresh session directory under ``root``."""
        # pid + uuid suffix: same-process, same-second sessions for one
        # search key must still land in distinct directories
        sid = (f"{kernel_key}-{arch_name}-{key[:8]}-"
               f"{os.getpid()}-{uuid.uuid4().hex[:8]}")
        path = Path(root) / sid
        path.mkdir(parents=True, exist_ok=True)
        manifest = {
            "version": SESSION_VERSION,
            "id": sid,
            "kernel": kernel,
            "kernel_key": kernel_key,
            "layout": layout,
            "arch": arch_name,
            "batches": batches,
            "search_key": key,
            "candidates": list(candidate_descs),
            "status": RUNNING,
            "pid": os.getpid(),
            "host": socket.gethostname(),
            "created": time.time(),
            "updated": time.time(),
            "trials_done": 0,
        }
        session = cls(path, manifest)
        session._write_manifest()
        incr("session.created")
        event("tune.session", action="create", id=sid, kernel=kernel_key)
        return session

    @classmethod
    def open(cls, path: Path) -> Optional["TuningSession"]:
        """Load a session from disk; ``None`` when absent, unreadable,
        foreign or without an ``id`` — the one manifest rule ``cache
        scrub`` applies too."""
        path = Path(path)
        try:
            manifest = fsio.read_record(path / "manifest.json",
                                        SESSION_VERSION)
        except (FileNotFoundError, fsio.RecordError):
            return None
        if not isinstance(manifest.get("id"), str):
            return None
        return cls(path, manifest)

    def adopt(self) -> None:
        """Take ownership for a resume: this process is now the runner."""
        self.manifest.update(status=RUNNING, pid=os.getpid(),
                             host=socket.gethostname(),
                             updated=time.time())
        self._write_manifest()
        incr("session.resumed")
        event("tune.session", action="resume", id=self.id,
              trials_done=self.manifest.get("trials_done", 0))

    def finish(self, status: str, **extra: Any) -> None:
        """Seal the session: close the journal, stamp the final status."""
        if self._journal_fh is not None:
            try:
                self._journal_fh.close()
            except OSError:
                pass
            self._journal_fh = None
        self.manifest.update(status=status, updated=time.time(), **extra)
        self._write_manifest()
        event("tune.session", action="finish", id=self.id, status=status,
              trials_done=self.manifest.get("trials_done", 0))

    def _write_manifest(self) -> None:
        # sessions are best-effort; never fail the search (a degraded
        # disk skips the write: in-memory-only mode)
        if fsio.disk_degraded() is None and not fsio.write_record(
                self.manifest_path, self.manifest, tag="session.manifest"):
            incr("session.io_error")

    # -- the write-ahead journal -------------------------------------------

    def record_trial(self, record: TrialRecord) -> None:
        """Append one completed trial; durable before this returns."""
        if fsio.disk_degraded() is not None:
            return  # in-memory-only mode: the search continues unjournaled
        try:
            kind = fsio.disk_checkpoint("journal.append")
            if self._journal_fh is None:
                self._journal_fh = open(self.journal_path, "a",
                                        encoding="utf-8")
            line = json.dumps(record.to_json(), separators=(",", ":"))
            if kind == "torn":
                # injected torn append: half the line lands, no newline —
                # exactly what a crash mid-write leaves behind
                self._journal_fh.write(line[:max(1, len(line) // 2)])
                self._journal_fh.flush()
                os.fsync(self._journal_fh.fileno())
                return
            self._journal_fh.write(line + "\n")
            self._journal_fh.flush()
            os.fsync(self._journal_fh.fileno())
        except OSError as exc:
            fsio.note_disk_error(exc, "journal.append")
            incr("session.io_error")
            return  # degrade: the search continues, just less durable
        self.manifest["trials_done"] = \
            int(self.manifest.get("trials_done", 0)) + 1
        self.manifest["updated"] = time.time()
        self._write_manifest()
        incr("session.trials_journaled")

    def journal_entries(self) -> List[TrialRecord]:
        """Every parseable journaled trial, in write order.

        A torn final line (the process died mid-``write``) is dropped
        silently — by construction it is the only line that can be torn.
        """
        entries: List[TrialRecord] = []
        try:
            text = self.journal_path.read_text(encoding="utf-8")
        except OSError:
            return entries
        for line in text.splitlines():
            line = line.strip()
            if not line:
                continue
            try:
                entries.append(TrialRecord.from_json(json.loads(line)))
            except (ValueError, KeyError, TypeError):
                continue
        return entries

    # -- liveness ----------------------------------------------------------

    def is_live(self) -> bool:
        """Does the recorded runner process still exist (best effort)?"""
        if self.status != RUNNING:
            return False
        if self.manifest.get("host") != socket.gethostname():
            # foreign host: assume live unless very old
            return self.age() < DEFAULT_GC_AGE
        return pid_alive(int(self.manifest.get("pid", 0) or 0)) is not False

    def is_resumable(self) -> bool:
        """Interrupted, or uncleanly killed (``running`` + dead PID)."""
        if self.status == INTERRUPTED:
            return True
        return self.status == RUNNING and not self.is_live()

    def age(self) -> float:
        updated = self.manifest.get("updated") or \
            self.manifest.get("created") or 0
        try:
            return max(0.0, time.time() - float(updated))
        except (TypeError, ValueError):
            return 0.0

    def describe(self) -> str:
        m = self.manifest
        state = self.status
        if state == RUNNING and not self.is_live():
            state = "abandoned"
        return (f"{self.id:<52} {m.get('kernel_key', '?'):<10} "
                f"{state:<12} {m.get('trials_done', 0):>3}"
                f"/{len(m.get('candidates', [])):<3} trials")


# ---------------------------------------------------------------------------
# Store-level operations (list / find / gc)
# ---------------------------------------------------------------------------


def list_sessions(root: Optional[Path] = None) -> List[TuningSession]:
    """Every readable session under the store, oldest first."""
    sroot = sessions_root(root)
    if sroot is None or not sroot.exists():
        return []
    sessions = []
    for path in sorted(sroot.iterdir()):
        if not path.is_dir():
            continue
        session = TuningSession.open(path)
        if session is not None:
            sessions.append(session)
    sessions.sort(key=lambda s: s.manifest.get("created", 0))
    return sessions


def sessions_inventory(root: Optional[Path] = None) -> dict:
    """Summary for ``cache stats``: how many sessions exist, how many
    could be resumed, and how much journal data they hold on disk."""
    inventory = {"count": 0, "resumable": 0, "journal_bytes": 0}
    for session in list_sessions(root):
        inventory["count"] += 1
        if session.is_resumable():
            inventory["resumable"] += 1
        try:
            inventory["journal_bytes"] += session.journal_path.stat().st_size
        except OSError:
            pass
    return inventory


def get_session(session_id: str,
                root: Optional[Path] = None) -> Optional[TuningSession]:
    sroot = sessions_root(root)
    if sroot is None:
        return None
    return TuningSession.open(sroot / session_id)


def find_resumable(key: str,
                   root: Optional[Path] = None) -> Optional[TuningSession]:
    """The most recently updated resumable session for ``key``."""
    matches = [s for s in list_sessions(root)
               if s.manifest.get("search_key") == key and s.is_resumable()]
    if not matches:
        return None
    return max(matches, key=lambda s: s.manifest.get("updated", 0))


@dataclass
class GCResult:
    removed: List[str] = field(default_factory=list)
    kept: List[str] = field(default_factory=list)


def gc_sessions(root: Optional[Path] = None,
                max_age: float = DEFAULT_GC_AGE,
                include_resumable: bool = False) -> GCResult:
    """Prune sessions nobody will come back for.

    Removed: ``complete``/``failed`` sessions, anything older than
    ``max_age`` regardless of state, and (with ``include_resumable``)
    interrupted/abandoned sessions too.  A live ``running`` session is
    always kept.  A directory whose manifest :meth:`TuningSession.open`
    rejects is removed once nothing in it has changed for ``max_age``
    (reported by directory name); a younger one is kept, since its
    writer may still be publishing it.  Concurrent gc runs are
    serialized by a lock so two never race over the same directory.
    """
    import shutil

    sroot = sessions_root(root)
    result = GCResult()
    if sroot is None or not sroot.exists():
        return result
    lock = FileLock(sroot.parent / "locks" / "sessions-gc.lock")
    try:
        lock.path.parent.mkdir(parents=True, exist_ok=True)
        lock.acquire()
    except (OSError, LockTimeout):
        return result  # another gc is running; let it finish
    try:
        readable = list_sessions(root)
        for session in readable:
            expired = session.age() > max_age
            dead_end = session.status in (COMPLETE, FAILED)
            resumable = session.is_resumable()
            if session.status == RUNNING and session.is_live() \
                    and not expired:
                result.kept.append(session.id)
                continue
            if dead_end or expired or (resumable and include_resumable):
                shutil.rmtree(session.path, ignore_errors=True)
                result.removed.append(session.id)
                incr("session.gc_removed")
            else:
                result.kept.append(session.id)
        opened = {session.path for session in readable}
        for path in sorted(sroot.iterdir()):
            if not path.is_dir() or path in opened:
                continue
            try:
                stale = _last_change(path) < time.time() - max_age
            except OSError:
                continue  # vanished or unreadable: nothing to prune
            if stale:
                shutil.rmtree(path, ignore_errors=True)
                result.removed.append(path.name)
                incr("session.gc_removed")
            else:
                result.kept.append(path.name)
    finally:
        lock.release()
    return result


def _last_change(path: Path) -> float:
    """The newest mtime of a directory and the entries directly in it."""
    return max([path.stat().st_mtime]
               + [entry.stat().st_mtime for entry in path.iterdir()])
