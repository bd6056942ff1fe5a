"""Store-wide integrity scrub: verify every persisted artifact, evict rot.

The persistent store accumulates artifacts that the rest of the runtime
trusts for months: compiled ``.so`` entries, tuning measurements,
quarantine records, durable tuning sessions, the serve worker's
ISA-verdict store, and the cumulative stats ledger.  Bit-rot, torn
writes, and kill-during-publish leftovers are only caught lazily today —
``lookup_so`` self-heals the entry it happens to touch.  The scrub walks
the *whole* store eagerly:

- **objects** — ``meta.json`` must parse, carry the current schema
  version, and name a shared object whose size *and* SHA-256 digest
  (recorded at publish) match the bytes on disk;
- **tuning / quarantine** — every record must parse as JSON;
- **sessions** — every manifest must load (a torn *final* journal line
  is tolerated by design — replay drops it — and is not flagged);
- **verdict store** — ``serve_verdicts.json`` must parse and carry the
  current schema revision;
- **stats** — ``stats.json`` must parse;
- **strays** — orphaned ``*.tmp`` files and scratch directories under
  ``tmp/`` older than ``tmp_age`` (a killed publisher's leftovers).

``repair=True`` evicts what cannot be verified (under the store's
publish lock, so a concurrent builder never races the eviction) — a
corrupt compiled entry just rebuilds from source on next use, which is
the cache's normal self-healing contract applied eagerly.  Quarantine
records are the one artifact the quota GC must never touch; the scrub
*does* remove one that no longer parses, because an unreadable record
protects nothing.

Everything is reported in a machine-readable verdict (see
:func:`scrub_store`) surfaced by ``python -m repro cache scrub
[--repair] [--json]``.
"""

from __future__ import annotations

import hashlib
import json
import time
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

from ..obs import incr, span
from .cache import ENTRY_VERSION, KernelCache

#: seconds after which a scratch dir / stray tmp file counts as abandoned
DEFAULT_TMP_AGE = 3600.0

#: ``cache scrub`` exit status when unrepaired corruption remains
EXIT_CORRUPT = 5


@dataclass
class Problem:
    """One artifact the scrub could not verify."""

    kind: str            # object|tuning|quarantine|session|verdicts|stats|stray
    path: str            # store-relative path
    error: str           # what failed to verify
    key: Optional[str] = None   # content key, when the artifact has one
    action: str = "kept"        # kept|repaired

    def describe(self) -> str:
        return f"{self.kind:<10} {self.path}  [{self.action}]  {self.error}"


def _age(path: Path) -> float:
    try:
        return time.time() - path.stat().st_mtime
    except OSError:
        return 0.0


def _unlink(path: Path, cache: KernelCache) -> bool:
    try:
        path.unlink()
        return True
    except OSError as exc:
        cache._io_error(exc, "cache.scrub")
        return False


def _rmtree(path: Path, cache: KernelCache) -> bool:
    import shutil
    try:
        shutil.rmtree(path)
        return True
    except OSError as exc:
        cache._io_error(exc, "cache.scrub")
        return False


def _check_entry(entry: Path) -> Optional[str]:
    """Verify one compiled-object entry; returns the defect, or None."""
    meta_path = entry / "meta.json"
    try:
        meta = json.loads(meta_path.read_text())
    except FileNotFoundError:
        return "meta.json missing"
    except (OSError, ValueError) as exc:
        return f"meta.json unreadable: {exc}"
    if not isinstance(meta, dict):
        return "meta.json is not an object"
    if meta.get("version") != ENTRY_VERSION:
        return f"entry version {meta.get('version')!r}"
    so_name = meta.get("so")
    if not isinstance(so_name, str) or not so_name:
        return "meta.json names no shared object"
    so_path = entry / so_name
    try:
        so_bytes = so_path.read_bytes()
    except OSError as exc:
        return f"shared object unreadable: {exc}"
    if len(so_bytes) != meta.get("so_size") or not so_bytes:
        return (f"shared object truncated "
                f"({len(so_bytes)} != {meta.get('so_size')} bytes)")
    digest = meta.get("so_sha256")
    if not isinstance(digest, str) or len(digest) != 64:
        # every current-version entry records a digest at publish: an
        # absent or malformed one means the *meta* itself rotted
        return f"meta.json digest field invalid: {digest!r}"
    found = hashlib.sha256(so_bytes).hexdigest()
    if found != digest:
        return f"shared object digest mismatch ({found[:12]}…)"
    return None


def _read_json_object(path: Path) -> Tuple[Optional[dict], Optional[str]]:
    """``(record, None)`` for a readable JSON object, else ``(None,
    defect)``."""
    try:
        record = json.loads(path.read_text())
    except (OSError, ValueError) as exc:
        return None, f"unreadable: {exc}"
    if not isinstance(record, dict):
        return None, "not a JSON object"
    return record, None


def _check_json_file(path: Path) -> Optional[str]:
    return _read_json_object(path)[1]


def _check_verdict_store(path: Path) -> Optional[str]:
    record, defect = _read_json_object(path)
    if defect is not None:
        return defect
    try:
        from ..blas.dispatch import VERDICT_STORE_VERSION
    except ImportError:  # scrub must not depend on the BLAS stack loading
        return None
    if record.get("version") != VERDICT_STORE_VERSION:
        return (f"stale store revision {record.get('version')!r} "
                f"(current {VERDICT_STORE_VERSION})")
    if not isinstance(record.get("verdicts"), dict):
        return "no verdicts object"
    return None


def scrub_store(cache: KernelCache, repair: bool = False,
                tmp_age: float = DEFAULT_TMP_AGE) -> Dict[str, Any]:
    """Verify every artifact in the store; optionally evict what fails.

    Returns a machine-readable verdict::

        {"root": ..., "repair": bool, "ok": bool,
         "checked": {"objects": N, "tuning": N, ...},
         "problems": [{"kind", "path", "key", "error", "action"}, ...],
         "corrupt": M, "repaired": K}

    ``ok`` means no *unrepaired* problem remains.  Deterministic: two
    scrubs of the same store report the identical verdict.
    """
    root = cache.root
    checked = {"objects": 0, "tuning": 0, "quarantine": 0, "sessions": 0,
               "verdicts": 0, "stats": 0}
    problems: List[Problem] = []
    verdict: Dict[str, Any] = {
        "root": str(root) if root is not None else "(disabled)",
        "repair": repair, "checked": checked, "problems": [],
        "corrupt": 0, "repaired": 0, "ok": True,
    }
    if not cache.enabled or not root.exists():
        return verdict

    def flag(kind: str, path: Path, error: str,
             key: Optional[str] = None) -> Problem:
        problem = Problem(kind=kind, key=key, error=error,
                          path=str(path.relative_to(root)))
        problems.append(problem)
        incr("cache.scrub.corrupt")
        return problem

    with span("cache.scrub", repair=repair) as sp:
        # the publish lock serializes the scrub against concurrent
        # builders: an entry is never evicted mid-rename under us
        with cache._locked("publish"):
            objects = root / "objects"
            for shard in sorted(objects.iterdir()) \
                    if objects.exists() else ():
                if not shard.is_dir():
                    continue
                for entry in sorted(shard.iterdir()):
                    if not entry.is_dir():
                        if _age(entry) > tmp_age:
                            problem = flag("stray", entry, "orphaned file")
                            if repair and _unlink(entry, cache):
                                problem.action = "repaired"
                        continue
                    checked["objects"] += 1
                    defect = _check_entry(entry)
                    if defect is None:
                        continue
                    problem = flag("object", entry, defect, key=entry.name)
                    if repair:
                        cache.evict(entry.name)
                        if not entry.exists():
                            problem.action = "repaired"

            for kind in ("tuning", "quarantine"):
                tree = root / kind
                for record in sorted(tree.rglob("*")) \
                        if tree.exists() else ():
                    if not record.is_file():
                        continue
                    if record.suffix != ".json":
                        if _age(record) > tmp_age:
                            problem = flag("stray", record, "orphaned file")
                            if repair and _unlink(record, cache):
                                problem.action = "repaired"
                        continue
                    checked[kind] += 1
                    defect = _check_json_file(record)
                    if defect is not None:
                        problem = flag(kind, record, defect,
                                       key=record.stem)
                        if repair and _unlink(record, cache):
                            problem.action = "repaired"

            sessions = root / "sessions"
            for sdir in sorted(sessions.iterdir()) \
                    if sessions.exists() else ():
                if not sdir.is_dir():
                    continue
                checked["sessions"] += 1
                from ..tuning.session import TuningSession
                if TuningSession.open(sdir) is None:
                    problem = flag("session", sdir,
                                   "manifest unreadable or foreign version")
                    if repair and _rmtree(sdir, cache):
                        problem.action = "repaired"

            verdicts_path = root / "serve_verdicts.json"
            if verdicts_path.exists():
                checked["verdicts"] += 1
                defect = _check_verdict_store(verdicts_path)
                if defect is not None:
                    problem = flag("verdicts", verdicts_path, defect)
                    if repair and _unlink(verdicts_path, cache):
                        problem.action = "repaired"

            stats_path = root / "stats.json"
            if stats_path.exists():
                checked["stats"] += 1
                defect = _check_json_file(stats_path)
                if defect is not None:
                    problem = flag("stats", stats_path, defect)
                    if repair and _unlink(stats_path, cache):
                        problem.action = "repaired"

            tmp = root / "tmp"
            for scratch in sorted(tmp.iterdir()) if tmp.exists() else ():
                if _age(scratch) <= tmp_age:
                    continue
                problem = flag("stray", scratch,
                               "abandoned publish scratch")
                if repair:
                    removed = (_rmtree(scratch, cache) if scratch.is_dir()
                               else _unlink(scratch, cache))
                    if removed:
                        problem.action = "repaired"

        total_checked = sum(checked.values())
        incr("cache.scrub.checked", total_checked)
        repaired = sum(1 for p in problems if p.action == "repaired")
        incr("cache.scrub.repaired", repaired)
        problems.sort(key=lambda p: (p.kind, p.path))
        verdict["problems"] = [asdict(p) for p in problems]
        verdict["corrupt"] = len(problems)
        verdict["repaired"] = repaired
        verdict["ok"] = all(p.action == "repaired" for p in problems)
        sp.set(checked=total_checked, corrupt=len(problems),
               repaired=repaired)
    return verdict


def render_verdict(verdict: Dict[str, Any]) -> str:
    """Human-readable rendering of a scrub verdict for the CLI."""
    checked = verdict["checked"]
    lines = [f"scrubbed {verdict['root']}",
             f"checked:  " + "  ".join(f"{k}={v}"
                                       for k, v in checked.items())]
    for problem in verdict["problems"]:
        lines.append(f"  {problem['kind']:<10} {problem['path']}  "
                     f"[{problem['action']}]  {problem['error']}")
    if verdict["corrupt"]:
        lines.append(f"{verdict['corrupt']} corrupt artifact"
                     f"{'' if verdict['corrupt'] == 1 else 's'}, "
                     f"{verdict['repaired']} repaired")
    else:
        lines.append("store is clean")
    return "\n".join(lines)
