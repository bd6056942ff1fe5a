"""Store-wide integrity scrub: verify every persisted artifact, evict rot.

The persistent store accumulates artifacts that the rest of the runtime
trusts for months: compiled ``.so`` entries, tuning measurements,
quarantine records, durable tuning sessions, the serve worker's
ISA-verdict store, and the cumulative stats ledger.  Each loader checks
(and self-heals) only the artifact it happens to touch; the scrub walks
the *whole* store eagerly.  It judges every artifact by the validity
rule its owning loader applies — never by a second copy of that rule:

- **objects** — :func:`~repro.backend.cache.check_entry`, the check
  ``lookup_so`` runs, with ``digest=True``: besides the meta record
  (a JSON object of the current ``ENTRY_VERSION``) and the size of the
  shared object it names, the SHA-256 recorded at publish must match;
- **tuning / quarantine** — :func:`~repro.backend.cache.read_cache_record`
  (a JSON object; a tuning record also needs a numeric ``gflops``);
- **sessions** — ``TuningSession.open`` (a torn *final* journal line
  is tolerated by design — replay drops it — and is not flagged);
- **verdict store** — :func:`~repro.blas.dispatch.read_verdict_store`
  (current ``VERDICT_STORE_VERSION`` and a ``verdicts`` object);
- **stats** — :func:`~repro.backend.fsio.read_record` (a JSON object);
- **strays** — orphaned ``*.tmp`` files and scratch directories under
  ``tmp/`` older than ``tmp_age`` (a killed publisher's leftovers).

``repair=True`` evicts what cannot be verified (under the store's
publish lock, so a concurrent builder never races the eviction) — a
corrupt compiled entry just rebuilds from source on next use, which is
the cache's normal self-healing contract applied eagerly.  Quarantine
records are the one artifact the quota GC must never touch; the scrub
*does* remove one its loader rejects, because an unreadable record
protects nothing.

Everything is reported in a machine-readable verdict (see
:func:`scrub_store`) surfaced by ``python -m repro cache scrub
[--repair] [--json]``.
"""

from __future__ import annotations

import shutil
import time
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional

from ..obs import incr, span
from . import fsio
from .cache import KernelCache, check_entry, read_cache_record

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


def _age(path: Path) -> float:
    try:
        return time.time() - path.stat().st_mtime
    except OSError:
        return 0.0


def _remove(path: Path, cache: KernelCache) -> None:
    """Delete one file or tree; a failure is counted, not raised."""
    try:
        if path.is_dir():
            shutil.rmtree(path)
        else:
            path.unlink()
    except OSError as exc:
        cache._io_error(exc, "cache.scrub")


def _defect(check: Callable[..., Any], *args: Any) -> Optional[str]:
    """The defect a store's own validity check raises, or ``None`` —
    also when the artifact vanished under a concurrent writer."""
    try:
        check(*args)
    except FileNotFoundError:
        return None
    except fsio.RecordError as exc:
        return str(exc)
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
             key: Optional[str] = None) -> None:
        problem = Problem(kind=kind, key=key, error=error,
                          path=str(path.relative_to(root)))
        problems.append(problem)
        incr("cache.scrub.corrupt")
        if repair:
            if kind == "object":
                cache.evict(key)  # counted like a lazy eviction
            else:
                _remove(path, cache)
            if not path.exists():
                problem.action = "repaired"

    from ..blas.dispatch import read_verdict_store
    from ..tuning.session import TuningSession

    with span("cache.scrub", repair=repair) as sp:
        # the publish lock serializes the scrub against concurrent
        # builders: an entry is never evicted mid-rename under us
        with cache._locked("publish"):
            for entry in sorted(root.glob("objects/*/*")):
                if not entry.is_dir():
                    if _age(entry) > tmp_age:
                        flag("stray", entry, "orphaned file")
                    continue
                checked["objects"] += 1
                defect = _defect(check_entry, entry, True)
                if defect is not None:
                    flag("object", entry, defect, key=entry.name)

            for kind in ("tuning", "quarantine"):
                for record in sorted((root / kind).rglob("*")):
                    if not record.is_file():
                        continue
                    if record.suffix != ".json":
                        if _age(record) > tmp_age:
                            flag("stray", record, "orphaned file")
                        continue
                    checked[kind] += 1
                    defect = _defect(read_cache_record, record, kind)
                    if defect is not None:
                        flag(kind, record, defect, key=record.stem)

            for sdir in sorted(root.glob("sessions/*")):
                if not sdir.is_dir():
                    continue
                checked["sessions"] += 1
                if TuningSession.open(sdir) is None:
                    flag("session", sdir,
                         "manifest unreadable or foreign version")

            for kind, path, check in (
                    ("verdicts", root / "serve_verdicts.json",
                     read_verdict_store),
                    ("stats", root / "stats.json", fsio.read_record)):
                if path.exists():
                    checked[kind] += 1
                    defect = _defect(check, path)
                    if defect is not None:
                        flag(kind, path, defect)

            for scratch in sorted(root.glob("tmp/*")):
                if _age(scratch) > tmp_age:
                    flag("stray", scratch, "abandoned publish scratch")

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
