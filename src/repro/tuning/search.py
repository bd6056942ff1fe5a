"""Empirical tuning driver (paper §2.1).

Generates each candidate configuration, assembles it natively, validates
it against the numpy reference on a small problem (a wrong kernel must
never win the search), measures it with min-of-batches timing, and keeps
the fastest.  Candidates that fail generation (e.g. register-file
overflow at extreme unroll factors) are skipped and recorded.

Three layers make repeated searches cheap *and* crash-proof:

- **parallel preparation** — with ``jobs > 1`` the generate+assemble work
  fans out across a thread pool (assembly shells out to the toolchain, so
  workers overlap cleanly); *timing stays serialized on the main thread*
  so measurements are never co-scheduled with builds or each other.
- **persistent measurements** — each successful trial is filed in the
  kernel cache keyed by the generated kernel's content hash, so
  re-tuning in a fresh process replays prior measurements instead of
  rebuilding and re-timing candidates that have not changed.
- **fault isolation** — validation and first-touch execution of every
  candidate run in a forked worker with a wall-clock timeout
  (:mod:`repro.backend.sandbox`), so a candidate that SIGSEGVs, executes
  an illegal instruction, or spins forever becomes a categorized failed
  trial instead of killing the search.  Candidates that crash or hang
  are **quarantined** in the persistent cache and skipped on re-tuning
  without being re-executed (``repro cache clear`` resets this).

A fourth layer makes the search itself *durable*: every completed trial
is appended to a per-session write-ahead journal
(:mod:`repro.tuning.session`), SIGINT/SIGTERM finish the in-flight trial
and seal the session instead of discarding it, and ``resume=True``
replays the journal and continues where a killed process stopped.
"""

from __future__ import annotations

import hashlib
import signal
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, replace
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from ..backend.cache import get_cache
from ..backend.faults import inject_asm_fault, take_fault
from ..backend.runner import NativeKernel, load_kernel
from ..backend.sandbox import resolve_isolation, run_trial
from ..backend.timer import measure
from ..core.framework import (Augem, GeneratedKernel, quarantine_key,
                              stable_kernel_name)
from ..isa.arch import ArchSpec, detect_host
from ..obs import event, incr, progress, span
from . import session as sessions
from .space import Candidate, candidates_for

#: bump when any benchmark workload below changes shape/size, so stale
#: persisted measurements are not replayed against a different problem
_WORKLOAD_VERSION = 1

#: trial outcome categories surfaced in reports (beyond "ok")
FAILURE_CATEGORIES = ("failed", "crashed", "timeout", "quarantined")

#: ``python -m repro tune`` exit status for a graceful interruption
EXIT_INTERRUPTED = 4


class TuningInterrupted(RuntimeError):
    """The search stopped early (SIGINT/SIGTERM or an injected
    ``interrupt`` fault) after sealing its session.

    Carries everything a caller needs to print a resume hint and exit
    with :data:`EXIT_INTERRUPTED`.
    """

    def __init__(self, kernel: str, reason: str,
                 session_id: Optional[str], done: int, total: int) -> None:
        self.kernel = kernel
        self.reason = reason
        self.session_id = session_id
        self.done = done
        self.total = total
        hint = (f"; resume with: python -m repro tune {kernel} --resume"
                if session_id else
                "; no session journal (cache disabled), progress lost")
        super().__init__(
            f"tuning {kernel} interrupted by {reason} after {done}/{total} "
            f"trials{hint}")


def _fmt_exc(exc: BaseException, limit: int = 200) -> str:
    """``"RuntimeError: validation failed"`` — keep the class for triage."""
    return f"{type(exc).__name__}: {exc}"[:limit]


@dataclass
class TrialResult:
    candidate: Candidate
    gflops: float  # -1.0 when the candidate failed
    error: Optional[str] = None
    cached: bool = False  # replayed from a persisted measurement
    #: "ok" | "failed" (generation/toolchain/validation) | "crashed"
    #: (signal death in the worker) | "timeout" | "quarantined"
    category: str = "ok"
    resumed: bool = False  # replayed from a session journal, not re-run


@dataclass
class TuningResult:
    kernel: str
    arch: ArchSpec
    best: Candidate
    best_gflops: float
    trials: List[TrialResult] = field(default_factory=list)

    def failure_counts(self) -> dict:
        counts = {c: 0 for c in FAILURE_CATEGORIES}
        for t in self.trials:
            if t.category in counts:
                counts[t.category] += 1
        return counts

    def report(self) -> str:
        lines = [f"tuning {self.kernel} on {self.arch}:"]
        for t in sorted(self.trials, key=lambda t: -t.gflops):
            status = (f"{t.gflops:7.2f} GF" if t.gflops >= 0
                      else f"{t.category}: {t.error}")
            marker = " <== best" if t.candidate is self.best else ""
            cached = (" (resumed)" if t.resumed
                      else " (cached)" if t.cached else "")
            lines.append(
                f"  {t.candidate.describe():55s} {status}{cached}{marker}")
        counts = self.failure_counts()
        ok = sum(1 for t in self.trials if t.category == "ok")
        lines.append(
            f"  {len(self.trials)} trials: ok={ok} "
            + " ".join(f"{c}={counts[c]}" for c in FAILURE_CATEGORIES))
        return "\n".join(lines)


def _gemm_workload(rng):
    mc, nc, kc = 64, 64, 256
    a = rng.standard_normal(kc * mc)
    b = rng.standard_normal(nc * kc)
    # C += A@B accumulates in place across timed calls by design (that is
    # the kernel's contract). The tile is allocated fresh per candidate and
    # grows only linearly in the call count, so it can neither overflow nor
    # leak into another candidate's validation buffers (unlike the shared
    # vector-workload buffers, which timing must never mutate).
    c = np.zeros(mc * nc)
    flops = 2.0 * mc * nc * kc

    def run(k):
        k(mc, nc, kc, a, b, c, mc)

    return run, flops


def _validate_gemm(kernel, layout: str, rng) -> bool:
    import math

    from ..blas.gemm import kernel_multiples

    mu, nu, ku = kernel_multiples(kernel.generated)
    mc = 2 * math.lcm(mu, 4)
    nc = 2 * math.lcm(nu, 2)
    kc = 2 * math.lcm(ku, 8)
    ldc = mc
    a = rng.standard_normal(kc * mc)
    b = rng.standard_normal(nc * kc)
    c = np.zeros(ldc * nc)
    ref = c.copy()
    kernel(mc, nc, kc, a, b, c, ldc)
    am = a.reshape(kc, mc)
    for j in range(nc):
        col = (b.reshape(nc, kc)[j, :] if layout == "dup"
               else b.reshape(kc, nc)[:, j])
        for i in range(mc):
            ref[j * ldc + i] += am[:, i] @ col
    return np.allclose(c, ref)


@dataclass
class _Prepared:
    """One candidate after the (possibly parallel) generate+assemble phase."""

    candidate: Candidate
    generated: Optional[GeneratedKernel] = None
    native: Optional[NativeKernel] = None
    cached_gflops: Optional[float] = None
    error: Optional[str] = None
    category: str = "failed"  # classification when ``error`` is set
    quarantined: bool = False
    qkey: Optional[str] = None  # quarantine address of this candidate


def _measurement_key(kernel_key: str, arch: ArchSpec,
                     gk: GeneratedKernel, batches: int) -> str:
    """Content address of one (kernel, arch, candidate, workload) trial."""
    return hashlib.sha256(
        f"tune\x1f{kernel_key}\x1f{arch.name}\x1f{gk.content_hash}"
        f"\x1fbatches={batches}\x1fwl={_WORKLOAD_VERSION}".encode()
    ).hexdigest()[:24]


def _prepare(aug: Augem, kernel: str, kernel_key: str, arch: ArchSpec,
             cand: Candidate, batches: int, reuse: bool,
             index: Optional[int] = None) -> _Prepared:
    """Generate and assemble one candidate (thread-pool friendly).

    Generation is pure Python; assembly shells out to the toolchain (and
    through the persistent compile cache). Quarantined candidates stop
    here — no assembly, no execution. If a persisted measurement for
    this exact generated kernel exists, assembly is skipped entirely —
    the warm path touches no toolchain at all.
    """
    cache = get_cache()
    try:
        name = stable_kernel_name(kernel_key, arch, cand.config,
                                  cand.strategy)
        gk = aug.generate_named(kernel_key, config=cand.config,
                                strategy=cand.strategy, name=name)
        fault = take_fault("asm", tag=gk.name, index=index)
        if fault is not None:
            gk = replace(gk, asm_text=inject_asm_fault(fault, gk.asm_text,
                                                       gk.name))
        qkey = quarantine_key(kernel_key, arch, gk)
        qrec = cache.load_quarantine(qkey)
        if qrec is not None:
            why = qrec.get("error") or "known-crashing candidate"
            return _Prepared(cand, generated=gk, qkey=qkey, quarantined=True,
                             error=f"quarantined: {why}"[:200])
        if reuse:
            record = cache.load_tuning(_measurement_key(kernel_key, arch,
                                                        gk, batches))
            if record is not None:
                return _Prepared(cand, generated=gk, qkey=qkey,
                                 cached_gflops=float(record["gflops"]))
        native = load_kernel(kernel_key, gk)
        return _Prepared(cand, generated=gk, native=native, qkey=qkey)
    except Exception as exc:  # noqa: BLE001 - record class + message, move on
        return _Prepared(cand, error=_fmt_exc(exc))


def _trial_closures(kernel: str, native: NativeKernel, layout: str, rng,
                    n_vec: int, x: np.ndarray, y: np.ndarray
                    ) -> Tuple[Callable[[], bool],
                               Callable[[], Tuple[Callable[[], None], float]]]:
    """Build the two halves of one trial.

    ``validate`` is self-contained (runs the kernel and checks the
    result, raising on mismatch) so it can execute in the forked worker;
    every buffer it mutates is allocated inside the closure or in the
    child's copy-on-write address space, never shared state the parent
    reads later.  ``make_timed`` is called in the parent only after the
    sandbox proves the candidate safe, and allocates fresh scratch for
    the accumulating timing target.
    """
    if kernel == "gemm":
        def validate() -> bool:
            if not _validate_gemm(native, layout, rng):
                raise RuntimeError("validation failed")
            return True

        def make_timed():
            run, flops = _gemm_workload(rng)
            return (lambda: run(native)), flops

    elif kernel == "gemv":
        mdim, ncols = 1 << 10, 64
        a = rng.standard_normal(ncols * mdim)
        xv = rng.standard_normal(ncols)

        def validate() -> bool:
            yv = np.zeros(mdim)
            ref = a.reshape(ncols, mdim).T @ xv
            native(mdim, ncols, a, mdim, xv, yv)
            if not np.allclose(yv, ref):
                raise RuntimeError("validation failed")
            return True

        def make_timed():
            # time against a per-candidate accumulator, not a buffer any
            # later validation compares against
            yt = np.zeros(mdim)
            return (lambda: native(mdim, ncols, a, mdim, xv, yt)), \
                2.0 * mdim * ncols

    elif kernel == "ger":
        mdim, ncols = 64, 1 << 10  # 64 rows of 1024: L2 resident like gemv
        xv = rng.standard_normal(mdim)
        yv = rng.standard_normal(ncols)
        a0 = rng.standard_normal(mdim * ncols)

        def validate() -> bool:
            a = a0.copy()
            ref = a0 + np.outer(xv, yv).ravel()
            native(mdim, ncols, xv, yv, a, ncols)
            if not np.allclose(a, ref):
                raise RuntimeError("validation failed")
            return True

        def make_timed():
            # A accumulates in place across timed calls, linearly in the
            # call count: a per-candidate scratch, like the gemm tile
            at = np.zeros(mdim * ncols)
            return (lambda: native(mdim, ncols, xv, yv, at, ncols)), \
                2.0 * mdim * ncols

    elif kernel == "axpy":
        def validate() -> bool:
            yv = y.copy()
            native(n_vec, 1.5, x, yv)
            if not np.allclose(yv, y + 1.5 * x):
                raise RuntimeError("validation failed")
            return True

        def make_timed():
            # y += alpha*x mutates in place: timing thousands of calls
            # against the shared ``y`` used to blow up the very vector
            # later candidates validate against — time against a scratch
            # copy instead
            yt = y.copy()
            return (lambda: native(n_vec, 1.5, x, yt)), 2.0 * n_vec

    elif kernel == "dot":
        def validate() -> bool:
            r = native(n_vec, x, y)
            if not np.isclose(r, x @ y):
                raise RuntimeError("validation failed")
            return True

        def make_timed():
            return (lambda: native(n_vec, x, y)), 2.0 * n_vec

    else:
        raise KeyError(f"unknown kernel {kernel!r}")

    return validate, make_timed


def tune_kernel(kernel: str, arch: Optional[ArchSpec] = None,
                layout: str = "dup",
                candidates: Optional[List[Candidate]] = None,
                batches: int = 5,
                jobs: int = 1,
                reuse: bool = True,
                isolation: Optional[str] = None,
                trial_timeout: Optional[float] = 30.0,
                resume: bool = False,
                verbose: bool = False) -> TuningResult:
    """Exhaustively evaluate the candidate space; return the winner.

    :param jobs: worker threads for the generate+assemble phase. Timing is
        always serialized on the calling thread regardless of ``jobs``, so
        parallelism never perturbs the measurements.
    :param reuse: replay persisted measurements for unchanged candidates
        (set ``False`` to force fresh timing of every candidate).
    :param isolation: ``"fork"`` runs validation/first-touch of each
        candidate in a sandboxed subprocess (crash/hang-proof),
        ``"none"`` runs in-process, ``None``/``"auto"`` picks ``"fork"``
        when the platform supports it.
    :param trial_timeout: wall-clock seconds one isolated trial may run
        before being killed and quarantined (``None`` or <= 0 disables).
    :param resume: continue the most recent interrupted/abandoned session
        for this exact search (kernel, arch, candidate list, batches):
        journaled trials are replayed verbatim — no generation, assembly,
        or re-timing — and the search picks up at the first unjournaled
        candidate.  No matching session simply starts fresh.

    When the persistent cache is enabled, every search records a durable
    session (:mod:`repro.tuning.session`); a search stopped by SIGINT /
    SIGTERM / an injected ``interrupt`` fault finishes its in-flight
    trial, seals the journal, and raises :class:`TuningInterrupted`.
    """
    arch = arch or detect_host()
    aug = Augem(arch=arch)
    kernel_key = "gemm_shuf" if (kernel == "gemm" and layout == "shuf") else kernel
    if candidates is None:
        candidates = candidates_for(kernel, arch,
                                    **({"layout": layout} if kernel == "gemm" else {}))
    iso = resolve_isolation(isolation)
    if trial_timeout is not None and trial_timeout <= 0:
        trial_timeout = None

    key = sessions.search_key(kernel_key, arch.name, batches,
                              [c.describe() for c in candidates],
                              _WORKLOAD_VERSION)
    sess, replay = _open_session(kernel, kernel_key, layout, arch,
                                 candidates, batches, key, resume)

    with span("tune.kernel", kernel=kernel_key, arch=arch.name,
              candidates=len(candidates), jobs=jobs, isolation=iso,
              session=(sess.id if sess is not None else None),
              replayed=len(replay)) as tune_span:
        try:
            result = _search(aug, kernel, kernel_key, layout, arch,
                             candidates, batches, jobs, reuse, iso,
                             trial_timeout, verbose, tune_span, sess,
                             replay)
        except TuningInterrupted:
            raise  # the search already sealed the session
        except BaseException:
            if sess is not None:
                sess.finish(sessions.FAILED)
            raise
        if sess is not None:
            sess.finish(sessions.COMPLETE,
                        best=result.best.describe(),
                        best_gflops=round(result.best_gflops, 4))
        return result


def _open_session(kernel: str, kernel_key: str, layout: str,
                  arch: ArchSpec, candidates: List[Candidate],
                  batches: int, key: str, resume: bool
                  ) -> Tuple[Optional[sessions.TuningSession],
                             Dict[int, sessions.TrialRecord]]:
    """Create (or, for ``resume``, re-open) the durable session.

    Returns the session plus the replay map: candidate index -> journaled
    trial.  Journal entries whose candidate description no longer matches
    the index (a changed space) are discarded rather than replayed.
    """
    sroot = sessions.sessions_root()
    if sroot is None:
        return None, {}
    replay: Dict[int, sessions.TrialRecord] = {}
    if resume:
        prior = sessions.find_resumable(key)
        if prior is not None:
            for rec in prior.journal_entries():
                if (0 <= rec.index < len(candidates)
                        and candidates[rec.index].describe()
                        == rec.candidate):
                    replay[rec.index] = rec
            prior.adopt()
            incr("session.trials_replayed", len(replay))
            progress(f"resuming session {prior.id}: replaying "
                     f"{len(replay)}/{len(candidates)} journaled trials")
            return prior, replay
        progress(f"no resumable session for this {kernel_key} search; "
                 f"starting fresh")
    try:
        sess = sessions.TuningSession.create(
            sroot, kernel, kernel_key, layout, arch.name, batches,
            [c.describe() for c in candidates], key)
    except OSError:
        return None, {}  # store unusable: search still runs, un-journaled
    return sess, replay


class _StopRequest:
    """SIGINT/SIGTERM latch: first signal asks for a graceful stop, a
    second one force-raises ``KeyboardInterrupt`` in the main thread."""

    def __init__(self) -> None:
        self.reason: Optional[str] = None
        self._previous: List[Tuple[int, object]] = []

    def _handler(self, signum, frame) -> None:
        name = signal.Signals(signum).name
        if self.reason is not None:
            raise KeyboardInterrupt(f"second {name}; stopping now")
        self.reason = name
        progress(f"{name} received: finishing the in-flight trial, then "
                 f"sealing the session (signal again to stop immediately)")

    def install(self) -> None:
        # signal handlers are a main-thread privilege; a tuner driven from
        # a worker thread simply keeps the process's existing handlers
        if threading.current_thread() is not threading.main_thread():
            return
        for signum in (signal.SIGINT, signal.SIGTERM):
            try:
                self._previous.append(
                    (signum, signal.signal(signum, self._handler)))
            except (ValueError, OSError):
                pass

    def restore(self) -> None:
        for signum, previous in self._previous:
            try:
                signal.signal(signum, previous)
            except (ValueError, OSError, TypeError):
                pass
        self._previous.clear()


def _search(aug: Augem, kernel: str, kernel_key: str, layout: str,
            arch: ArchSpec, candidates: List[Candidate], batches: int,
            jobs: int, reuse: bool, iso: str,
            trial_timeout: Optional[float], verbose: bool,
            tune_span, sess: Optional[sessions.TuningSession],
            replay: Dict[int, sessions.TrialRecord]) -> TuningResult:
    """The body of :func:`tune_kernel` (runs inside its ``tune.kernel``
    span, so a search that dies mid-flight still closes the span)."""
    rng = np.random.default_rng(42)
    n_vec = 1 << 16  # vector-kernel benchmark length (L2 resident)
    x = rng.standard_normal(n_vec)
    y = rng.standard_normal(n_vec)

    stop = _StopRequest()
    stop.install()
    try:
        try:
            prepared = _prepare_all(aug, kernel, kernel_key, arch,
                                    candidates, batches, jobs, reuse,
                                    replay)
            interrupted = None
        except KeyboardInterrupt as exc:
            prepared, interrupted = [], (stop.reason or _fmt_exc(exc))

        # phase 2: validate (isolated) + time (in-process), serial here
        cache = get_cache()
        trials: List[TrialResult] = []
        best: Optional[Candidate] = None
        best_gf = -1.0

        def record(index: int, trial: TrialResult) -> None:
            nonlocal best, best_gf
            trials.append(trial)
            if trial.gflops > best_gf:
                best, best_gf = trial.candidate, trial.gflops
            event("tune.trial", kernel=kernel_key, arch=arch.name,
                  candidate=trial.candidate.describe(),
                  category=trial.category, cached=trial.cached,
                  resumed=trial.resumed,
                  gflops=(round(trial.gflops, 4) if trial.gflops >= 0
                          else None),
                  error=trial.error)
            if sess is not None and not trial.resumed:
                sess.record_trial(sessions.TrialRecord(
                    index=index, candidate=trial.candidate.describe(),
                    gflops=trial.gflops, category=trial.category,
                    error=trial.error, cached=trial.cached))
            if verbose:
                status = (f"{trial.gflops:.2f}" if trial.gflops >= 0
                          else f"{trial.category}: {trial.error}")
                progress(f"{trial.candidate.describe()} -> {status}")

        try:
            if interrupted is None:
                for i, prep in enumerate(prepared):
                    if stop.reason is not None:
                        interrupted = stop.reason
                        break
                    _run_one_trial(i, prep, candidates, replay, record,
                                   kernel, kernel_key, layout, arch,
                                   batches, reuse, iso, trial_timeout,
                                   cache, rng, n_vec, x, y)
        except KeyboardInterrupt as exc:
            interrupted = stop.reason or _fmt_exc(exc)
    finally:
        stop.restore()

    done = len(trials)
    tune_span.set(
        trials=done,
        cached=sum(1 for t in trials if t.cached),
        resumed=sum(1 for t in trials if t.resumed),
        failed=sum(1 for t in trials if t.gflops < 0),
        interrupted=interrupted,
        best=(best.describe() if best is not None else None),
        best_gflops=(round(best_gf, 4) if best is not None else None))
    if interrupted is not None:
        if sess is not None:
            sess.finish(sessions.INTERRUPTED, interrupted_by=interrupted)
        incr("session.interrupted")
        err = TuningInterrupted(kernel, interrupted,
                                sess.id if sess is not None else None,
                                done, len(candidates))
        progress(str(err))
        raise err
    if best is None:
        raise RuntimeError(f"every candidate failed for kernel {kernel!r}")
    return TuningResult(kernel=kernel, arch=arch, best=best,
                        best_gflops=best_gf, trials=trials)


def _prepare_all(aug: Augem, kernel: str, kernel_key: str, arch: ArchSpec,
                 candidates: List[Candidate], batches: int, jobs: int,
                 reuse: bool,
                 replay: Dict[int, sessions.TrialRecord]
                 ) -> List[Optional[_Prepared]]:
    """Phase 1: generate + assemble every *unjournaled* candidate.

    Journal-replayed indices get ``None`` placeholders — resumed trials
    touch neither the generator nor the toolchain.
    """
    def prep_one(i: int, cand: Candidate) -> Optional[_Prepared]:
        if i in replay:
            return None
        return _prepare(aug, kernel, kernel_key, arch, cand, batches,
                        reuse, index=i)

    with span("tune.prepare", jobs=jobs, skipped=len(replay)):
        if jobs > 1 and len(candidates) - len(replay) > 1:
            with ThreadPoolExecutor(max_workers=jobs) as pool:
                return list(pool.map(lambda ic: prep_one(*ic),
                                     enumerate(candidates)))
        return [prep_one(i, c) for i, c in enumerate(candidates)]


def _run_one_trial(i: int, prep: Optional[_Prepared],
                   candidates: List[Candidate],
                   replay: Dict[int, sessions.TrialRecord],
                   record, kernel: str, kernel_key: str, layout: str,
                   arch: ArchSpec, batches: int, reuse: bool, iso: str,
                   trial_timeout: Optional[float], cache, rng,
                   n_vec: int, x, y) -> None:
    """Evaluate (or replay) candidate ``i`` and record its trial."""
    cand = candidates[i]
    if i in replay:
        rec = replay[i]
        record(i, TrialResult(cand, rec.gflops, error=rec.error,
                              cached=rec.cached, category=rec.category,
                              resumed=True))
        return
    if take_fault("interrupt",
                  tag=(prep.generated.name
                       if prep is not None and prep.generated is not None
                       else cand.describe()),
                  index=i):
        raise KeyboardInterrupt(f"injected interrupt at candidate #{i}")
    if prep.quarantined:
        record(i, TrialResult(cand, -1.0, error=prep.error,
                              category="quarantined"))
        return
    if prep.error is not None:
        record(i, TrialResult(cand, -1.0, error=prep.error,
                              category=prep.category))
        return
    if prep.cached_gflops is not None:
        record(i, TrialResult(cand, prep.cached_gflops, cached=True))
        return

    tag = prep.generated.name if prep.generated is not None \
        else cand.describe()
    try:
        validate, make_timed = _trial_closures(kernel, prep.native,
                                               layout, rng, n_vec, x, y)
    except Exception as exc:  # noqa: BLE001 - e.g. unknown kernel family
        record(i, TrialResult(cand, -1.0, error=_fmt_exc(exc),
                              category="failed"))
        return

    sres = run_trial(validate, isolation=iso, timeout=trial_timeout,
                     tag=tag)
    if not sres.ok:
        record(i, TrialResult(cand, -1.0, error=sres.error,
                              category=sres.category))
        if sres.category in ("crashed", "timeout") and prep.qkey:
            cache.store_quarantine(
                prep.qkey,
                {"kernel": kernel_key, "arch": arch.name,
                 "candidate": cand.describe(),
                 "category": sres.category, "error": sres.error})
        return

    try:
        timed, flops = make_timed()
        m = measure(timed, batches=batches)
        gf = m.gflops(flops)
        record(i, TrialResult(cand, gf))
        if reuse and prep.generated is not None:
            cache.store_tuning(
                _measurement_key(kernel_key, arch, prep.generated,
                                 batches),
                {"kernel": kernel_key, "arch": arch.name,
                 "candidate": cand.describe(), "gflops": gf,
                 "best_seconds": m.best, "batches": batches})
    except Exception as exc:  # noqa: BLE001 - record and move on
        record(i, TrialResult(cand, -1.0, error=_fmt_exc(exc),
                              category="failed"))
