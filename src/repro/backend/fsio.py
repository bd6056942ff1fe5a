"""Durable disk writes, versioned JSON records, and disk-health degradation.

Every persistent JSON store this runtime leans on — cache ``meta.json``
entries, tuning/quarantine records, ``stats.json``, session manifests,
the dispatch verdict store, the serve ``state.json``/``accounting.json``
pair — goes through this module:

- :func:`read_record` / :func:`write_record` — the one reader and the
  one writer of every JSON-object store.  What else makes a record of a
  store valid lives next to the store's writer (``cache.check_entry``,
  ``cache.read_cache_record``, ``dispatch.read_verdict_store``,
  ``TuningSession.open``), and its loader and ``cache scrub`` share it;

- :func:`atomic_write_bytes` / :func:`atomic_write_text` /
  :func:`atomic_write_json` — pid+uuid-suffixed temp file in the target
  directory, flush + ``fsync`` of the file, one ``os.replace``, then
  ``fsync`` of the parent directory, so the record is durable (not just
  atomic) when the call returns, and a crash at any instant leaves
  either the old file or the new one — never a partial;

- **disk-health degradation** — an ENOSPC/EDQUOT/EIO failure on any
  durable write flips a process-wide flag (:func:`disk_degraded`).  The
  kernel cache reads the flag in its ``enabled`` property, so the whole
  process demotes to in-memory-only operation: builds, tuning, serving,
  and dispatch keep working, nothing durable is attempted again, and
  no user call ever fails because the disk is full.  The demotion is
  counted (``disk.degraded``), traced, and logged to stderr exactly
  once.  Permission and layout errors (EACCES, ENOTDIR, …) do *not*
  degrade — those are per-path problems the per-site handlers already
  absorb.

Every durable write passes **checkpoints** that consult the fault plan
(:mod:`repro.backend.faults`, stage ``disk``): ``diskfull`` raises
ENOSPC, ``torn``/``bitrot`` mangle the payload before it lands, and
``kill`` SIGKILLs the process mid-publish — the torture harness in
``tests/backend/test_torture.py`` drives all four.  Checkpoints are
numbered per process in execution order, so ``kill@#7`` deterministically
dies at the 7th durable-write step no matter which subsystem issues it.
"""

from __future__ import annotations

import errno
import itertools
import json
import os
import signal
import sys
import threading
import uuid
from pathlib import Path
from typing import Any, Optional, Union

from ..obs import event, incr
from .faults import take_fault

#: errno values that mean "the disk itself is sick" — these degrade the
#: process to in-memory-only operation; anything else is a per-path
#: problem left to the caller
DEGRADING_ERRNOS = frozenset({errno.ENOSPC, errno.EDQUOT, errno.EIO})

_LOCK = threading.Lock()
_DEGRADED: Optional[str] = None
_WARNED = False
_CHECKPOINTS = itertools.count()


class InjectedDiskFull(OSError):
    """The planned ``diskfull`` fault, indistinguishable from real ENOSPC
    to every handler (``.errno`` is ``ENOSPC``)."""

    def __init__(self, tag: str) -> None:
        super().__init__(errno.ENOSPC,
                         f"injected diskfull at durable write {tag!r}")


def disk_degraded() -> Optional[str]:
    """The degradation reason, or ``None`` while the disk looks healthy."""
    return _DEGRADED


def reset_disk_health() -> None:
    """Test hook: forget degradation and restart checkpoint numbering."""
    global _DEGRADED, _WARNED, _CHECKPOINTS
    with _LOCK:
        _DEGRADED = None
        _WARNED = False
        _CHECKPOINTS = itertools.count()


def note_disk_error(exc: BaseException, where: str) -> bool:
    """Record a durable-write failure; returns True if it degraded us.

    ENOSPC/EDQUOT/EIO demote the process to in-memory-only operation
    (see module docstring); the first demotion is counted, traced, and
    logged.  Other errors are the caller's to absorb.
    """
    global _DEGRADED, _WARNED
    if not isinstance(exc, OSError) or exc.errno not in DEGRADING_ERRNOS:
        return False
    with _LOCK:
        first = _DEGRADED is None
        if first:
            _DEGRADED = (f"{errno.errorcode.get(exc.errno, exc.errno)} "
                         f"at {where}")
        warn = not _WARNED
        _WARNED = True
    if first:
        incr("disk.degraded")
        event("disk.degraded", where=where, error=str(exc)[:200])
    if warn:
        print(f"repro: disk degraded ({_DEGRADED}); continuing with "
              f"in-memory caching only", file=sys.stderr)
    return True


def disk_checkpoint(tag: str) -> Optional[str]:
    """One numbered durable-write step; realizes planned disk faults.

    ``kill`` and ``diskfull`` are realized here (SIGKILL / raise);
    ``torn``/``bitrot`` are returned to the caller, which owns the
    payload bytes.  Returns ``None`` when no fault is armed.
    """
    with _LOCK:
        index = next(_CHECKPOINTS)
    kind = take_fault("disk", tag, index)
    if kind == "kill":
        os.kill(os.getpid(), signal.SIGKILL)
    if kind == "diskfull":
        exc = InjectedDiskFull(tag)
        note_disk_error(exc, tag)
        raise exc
    return kind


def _mangle(data: bytes, kind: Optional[str]) -> bytes:
    """Realize a payload-corrupting fault on the bytes about to land."""
    if kind == "torn":
        return data[:max(1, len(data) // 2)]
    if kind == "bitrot" and data:
        mid = len(data) // 2
        return data[:mid] + bytes([data[mid] ^ 0x10]) + data[mid + 1:]
    return data


def fsync_dir(path: Union[str, Path]) -> None:
    """Flush a directory's entry table (rename durability); best effort."""
    try:
        fd = os.open(path, os.O_RDONLY | getattr(os, "O_DIRECTORY", 0))
    except OSError:
        return
    try:
        os.fsync(fd)
    except OSError:
        pass
    finally:
        os.close(fd)


def atomic_write_bytes(path: Union[str, Path], data: bytes,
                       tag: str = "write") -> None:
    """Durably publish ``data`` at ``path``; raises OSError on failure.

    A failure never leaves a partial file at ``path`` (the temp file is
    unlinked best-effort), and a degrading failure (ENOSPC/EDQUOT/EIO)
    flips the process-wide disk-health flag before the raise.
    """
    path = Path(path)
    data = _mangle(data, disk_checkpoint(tag))
    tmp = path.with_name(f".{path.name}.{os.getpid()}.{uuid.uuid4().hex}"
                         f".tmp")
    try:
        fd = os.open(tmp, os.O_CREAT | os.O_EXCL | os.O_WRONLY, 0o644)
        try:
            os.write(fd, data)
            os.fsync(fd)
        finally:
            os.close(fd)
        disk_checkpoint(f"{tag}.replace")
        os.replace(tmp, path)
        fsync_dir(path.parent)
        disk_checkpoint(f"{tag}.done")
    except OSError as exc:
        note_disk_error(exc, tag)
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def atomic_write_text(path: Union[str, Path], text: str,
                      tag: str = "write") -> None:
    atomic_write_bytes(path, text.encode("utf-8"), tag=tag)


def atomic_write_json(path: Union[str, Path], record: Any,
                      tag: str = "write", indent: int = 2) -> None:
    atomic_write_bytes(path, json.dumps(record, indent=indent).encode(),
                       tag=tag)


class RecordError(ValueError):
    """A JSON record that exists but cannot be trusted; the message names
    the defect."""


def read_record(path: Union[str, Path],
                version: Optional[int] = None) -> dict:
    """Load one JSON-object record.

    Raises ``FileNotFoundError`` when the record is absent (a missing
    parent directory counts as absent) and :class:`RecordError` when it
    cannot be read, is not a JSON object, or — with ``version`` given —
    carries another ``version`` field.
    """
    try:
        record = json.loads(Path(path).read_text())
    except NotADirectoryError as exc:
        raise FileNotFoundError(str(exc)) from exc
    except FileNotFoundError:
        raise
    except (OSError, ValueError) as exc:
        raise RecordError(f"unreadable: {exc}") from exc
    if not isinstance(record, dict):
        raise RecordError("not a JSON object")
    if version is not None and record.get("version") != version:
        raise RecordError(f"version {record.get('version')!r} "
                          f"(current {version})")
    return record


def write_record(path: Union[str, Path], record: Any, tag: str) -> bool:
    """Durably publish one JSON record, best effort.

    Skipped while the disk is degraded; creates the parent directory;
    ``tag`` names the durable-write checkpoints.  Returns ``False`` when
    nothing was written — every ``OSError`` is absorbed (and noted, so a
    sick disk still degrades the process).
    """
    if disk_degraded() is not None:
        return False
    path = Path(path)
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        atomic_write_json(path, record, tag=tag)
    except OSError as exc:
        note_disk_error(exc, tag)
        return False
    return True
