"""Algorithm-based fault tolerance (ABFT) for the BLAS facade.

Huang–Abraham checksums give O(n²) verification of O(n³) GEMM: if
``C = alpha * A @ B`` then ``C @ e == alpha * A @ (B @ e)`` and
``eᵀ @ C == alpha * (eᵀ @ A) @ B`` for the all-ones vector ``e``.  The
driver (:mod:`repro.blas.gemm`) applies both duals **per macro-tile**,
so a mismatch localizes to the (j0, i0) tile — and the worker thread —
that produced it, at the same blocked granularity the last-mile
literature uses for per-region correctness contracts.

On a detected mismatch the containment ladder is:

1. **retry** the tile once on freshly zeroed pooled buffers with
   privately packed panels (a bit-flip in a pooled buffer or a race on
   a dirty scratch slice does not repeat);
2. **recompute** the tile via numpy reference semantics if the retry
   still mismatches, so the caller always receives correct bits;
3. **record** a corruption verdict against the kernel's
   :attr:`~repro.core.framework.GeneratedKernel.body_hash` — after
   :data:`STRIKE_LIMIT` strikes the kernel is quarantined in the
   persistent store (the same record the tuner and dispatch chain
   consult) and its tier is demoted for the remainder of the process.

The verification *mode* is ``off`` (default), ``sample`` (deterministic
1-in-K call sampling, K from ``sample:K``), or ``full``; resolved from
an explicit argument or ``$REPRO_INTEGRITY`` (see
:func:`resolve_integrity`).  Level-2/1 routines get cheaper sum-identity
checks through the ``Integrity*Driver`` wrappers installed by
:class:`~repro.blas.api.AugemBLAS`.

Everything observable lands in ``integrity.*`` counters/events (checks,
mismatches, retries, reference_recomputes, quarantines, overhead_ns)
plus the process-wide :data:`STATS` snapshot that the
``python -m repro integrity show`` CLI renders.
"""

from __future__ import annotations

import os
import threading
import time
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from ..backend.cache import get_cache
from ..core.framework import quarantine_key
from ..obs import event, incr
from . import reference as ref

#: environment variable naming the default integrity mode
INTEGRITY_ENV = "REPRO_INTEGRITY"

#: recognized integrity modes
MODES = ("off", "sample", "full")

#: default 1-in-K sampling period for ``sample`` mode
DEFAULT_SAMPLE_PERIOD = 16

#: corruption strikes before a kernel is quarantined and its tier demoted
STRIKE_LIMIT = 3

#: tolerance growth factor on top of the dtype/shape-derived error bound
#: (generous: blocked summation reorders freely, and a checksum must
#: never flag a healthy kernel)
TOL_GROWTH = 64.0


def resolve_integrity(mode: Optional[str] = None,
                      environ=os.environ) -> Tuple[str, int]:
    """The effective ``(mode, sample_period)``: explicit > env > off.

    An explicit malformed mode raises; a malformed environment value
    degrades to ``off`` (an env typo must never crash a library call).
    ``sample`` accepts an optional period suffix: ``sample:8`` checks
    one call in eight (deterministically, by call counter).
    """
    explicit = mode is not None
    raw = mode if explicit else environ.get(INTEGRITY_ENV, "")
    raw = str(raw).strip().lower()
    if not raw:
        return "off", DEFAULT_SAMPLE_PERIOD
    name, _, suffix = raw.partition(":")
    period = DEFAULT_SAMPLE_PERIOD
    ok = name in MODES
    if ok and suffix:
        if name == "sample" and suffix.isdigit() and int(suffix) >= 1:
            period = int(suffix)
        else:
            ok = False
    if not ok:
        if explicit:
            raise ValueError(
                f"integrity mode must be one of {MODES} (optionally "
                f"'sample:K'), got {mode!r}")
        return "off", DEFAULT_SAMPLE_PERIOD
    return name, period


# ---------------------------------------------------------------------------
# process-wide stats + strike/quarantine state
# ---------------------------------------------------------------------------

class IntegrityStats:
    """Thread-safe process-wide ABFT counters (``integrity show``)."""

    FIELDS = ("checks", "mismatches", "retries", "reference_recomputes",
              "quarantines", "overhead_ns")

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._values: Dict[str, int] = {f: 0 for f in self.FIELDS}

    def add(self, field: str, n: int = 1) -> None:
        with self._lock:
            self._values[field] += int(n)

    def snapshot(self) -> Dict[str, int]:
        with self._lock:
            return dict(self._values)

    def reset(self) -> None:
        with self._lock:
            for f in self.FIELDS:
                self._values[f] = 0


#: the process-wide stats singleton
STATS = IntegrityStats()

_STATE_LOCK = threading.Lock()
_STRIKES: Dict[str, int] = {}       # body_hash -> corruption strikes
_QUARANTINED: set = set()           # body_hashes quarantined this process


def reset_integrity_state() -> None:
    """Forget strikes, quarantines, and stats (tests)."""
    with _STATE_LOCK:
        _STRIKES.clear()
        _QUARANTINED.clear()
    STATS.reset()


def strike_counts() -> Dict[str, int]:
    """A snapshot of per-kernel corruption strikes, by body hash."""
    with _STATE_LOCK:
        return dict(_STRIKES)


# ---------------------------------------------------------------------------
# checksum math
# ---------------------------------------------------------------------------

def _tol(eps: float, n_terms: int, magnitude: np.ndarray) -> np.ndarray:
    """Elementwise tolerance for a checksum over ``n_terms`` additions."""
    return TOL_GROWTH * eps * max(int(n_terms), 1) * magnitude \
        + TOL_GROWTH * np.finfo(np.float64).tiny


def verify_gemm_tile(tile: np.ndarray, a_sub: np.ndarray,
                     b_sub: np.ndarray, alpha: float = 1.0) -> bool:
    """Both checksum duals for one macro-tile; True = consistent.

    ``tile`` is the computed ``(jn, im)`` slice in ``[j, i]`` layout
    (the transpose of ``alpha * a_sub @ b_sub``), ``a_sub`` the
    ``(im, k)`` A rows and ``b_sub`` the ``(k, jn)`` B columns that
    produced it.  Both checks cost O(k·(im+jn)) against the tile's
    O(k·im·jn) compute.  Non-finite expected checksums (NaN/Inf inputs
    propagate legitimately) make the tile unverifiable and count as
    consistent — ABFT must never flag healthy IEEE semantics.
    """
    tile = np.asarray(tile)
    a_sub = np.asarray(a_sub, dtype=tile.dtype)
    b_sub = np.asarray(b_sub, dtype=tile.dtype)
    im, k = a_sub.shape
    jn = b_sub.shape[1]
    eps = float(np.finfo(tile.dtype).eps) if tile.dtype.kind == "f" \
        else float(np.finfo(np.float64).eps)
    n_terms = k + im + jn

    # column dual: sum over i of tile[j, i] vs alpha * (1ᵀA) @ B
    got_col = tile.sum(axis=1)
    exp_col = alpha * (a_sub.sum(axis=0) @ b_sub)
    mag_col = abs(alpha) * (np.abs(a_sub).sum(axis=0) @ np.abs(b_sub))
    # row dual: sum over j of tile[j, i] vs alpha * A @ (B·1)
    got_row = tile.sum(axis=0)
    exp_row = alpha * (a_sub @ b_sub.sum(axis=1))
    mag_row = abs(alpha) * (np.abs(a_sub) @ np.abs(b_sub).sum(axis=1))

    if not (np.isfinite(exp_col).all() and np.isfinite(exp_row).all()
            and np.isfinite(mag_col).all() and np.isfinite(mag_row).all()):
        return True  # unverifiable, not corrupt
    return bool(
        np.all(np.abs(got_col - exp_col) <= _tol(eps, n_terms, mag_col))
        and np.all(np.abs(got_row - exp_row) <= _tol(eps, n_terms, mag_row)))


def _sum_close(got: float, expected: float, magnitude: float,
               n_terms: int) -> bool:
    """Scalar sum-identity check used by the level-2/1 wrappers."""
    if not (np.isfinite(expected) and np.isfinite(magnitude)):
        return True
    eps = float(np.finfo(np.float64).eps)
    tol = float(_tol(eps, n_terms, np.float64(abs(magnitude))))
    return abs(got - expected) <= tol


# ---------------------------------------------------------------------------
# per-call report + the checker
# ---------------------------------------------------------------------------

class IntegrityReport:
    """Mutable per-call verification record (serialized by serve)."""

    def __init__(self) -> None:
        self.mode = "off"
        self.checked = False
        self.tiles_checked = 0
        self.mismatches = 0
        self.retries = 0
        self.reference_recomputes = 0
        self.quarantined: List[str] = []
        self.overhead_ns = 0
        self._lock = threading.Lock()

    def note(self, field: str, n: int = 1) -> None:
        with self._lock:
            setattr(self, field, getattr(self, field) + int(n))

    def quarantine(self, body_hash: str) -> None:
        with self._lock:
            if body_hash not in self.quarantined:
                self.quarantined.append(body_hash)

    @property
    def clean(self) -> bool:
        return self.mismatches == 0

    def to_json(self) -> Dict[str, object]:
        with self._lock:
            return {
                "mode": self.mode,
                "checked": self.checked,
                "tiles_checked": self.tiles_checked,
                "mismatches": self.mismatches,
                "retries": self.retries,
                "reference_recomputes": self.reference_recomputes,
                "quarantined": list(self.quarantined),
                "overhead_ns": self.overhead_ns,
            }


class IntegrityChecker:
    """Mode resolution, deterministic sampling, and strike accounting.

    One checker is shared by every driver a facade builds, so the
    sampling counter covers the facade's whole call stream and strike
    state aggregates across routines (module-global, by body hash).
    """

    def __init__(self, mode: Optional[str] = None,
                 sample_period: Optional[int] = None,
                 strike_limit: int = STRIKE_LIMIT,
                 on_quarantine: Optional[Callable] = None) -> None:
        self.mode, self.sample_period = resolve_integrity(mode)
        if sample_period is not None:
            if int(sample_period) < 1:
                raise ValueError("sample_period must be >= 1")
            self.sample_period = int(sample_period)
        self.strike_limit = max(1, int(strike_limit))
        self.on_quarantine = on_quarantine
        self._lock = threading.Lock()
        self._calls = 0

    @property
    def enabled(self) -> bool:
        return self.mode != "off"

    def decide(self, override: Optional[str] = None) -> bool:
        """Whether *this* call gets verified (deterministic sampling).

        ``override`` is a per-call mode string (the serve per-request
        flag); ``None`` uses the checker's configured mode.
        """
        if override is None:
            mode, period = self.mode, self.sample_period
        else:
            mode, period = resolve_integrity(override)
        if mode == "off":
            return False
        if mode == "full":
            return True
        with self._lock:
            n = self._calls
            self._calls += 1
        return n % period == 0

    def describe(self) -> Dict[str, object]:
        return {
            "mode": self.mode,
            "sample_period": self.sample_period,
            "strike_limit": self.strike_limit,
        }

    def record_corruption(self, family: str, kernel,
                          detail: str = "") -> Dict[str, object]:
        """One confirmed corruption strike against ``kernel``.

        ``kernel`` is a loaded native/emulated kernel carrying a
        ``generated`` :class:`~repro.core.framework.GeneratedKernel`.
        At :attr:`strike_limit` strikes the kernel is quarantined by
        body hash in the persistent store and its arch tier is demoted
        for the remainder of the process.  Returns the verdict dict.
        """
        gk = getattr(kernel, "generated", None)
        body_hash = getattr(gk, "body_hash", None) if gk is not None \
            else None
        if body_hash is None:
            return {"family": family, "strikes": 0, "quarantined": False,
                    "demoted": False}
        with _STATE_LOCK:
            strikes = _STRIKES.get(body_hash, 0) + 1
            _STRIKES[body_hash] = strikes
            already = body_hash in _QUARANTINED
            quarantine_now = strikes >= self.strike_limit and not already
            if quarantine_now:
                _QUARANTINED.add(body_hash)
        incr("integrity.strikes")
        event("integrity.corruption", family=family, kernel=gk.name,
              body_hash=body_hash, strikes=strikes, detail=detail[:200])
        verdict: Dict[str, object] = {
            "family": family,
            "kernel": gk.name,
            "body_hash": body_hash,
            "strikes": strikes,
            "quarantined": quarantine_now or already,
            "demoted": False,
        }
        if not quarantine_now:
            return verdict
        reason = (f"integrity: {family} kernel produced corrupt results "
                  f"({strikes} strikes; {detail})")[:300]
        arch = getattr(gk, "arch", None)
        if arch is not None:
            qkey = quarantine_key(family, arch, gk)
            get_cache().store_quarantine(qkey, {
                "kernel": family,
                "arch": arch.name,
                "candidate": gk.name,
                "category": "integrity",
                "error": reason,
            })
            # demote the whole tier: a kernel that corrupts data after
            # passing admission means the tier cannot be trusted
            from . import dispatch
            dispatch.demote_tier(arch.name, reason)
            verdict["demoted"] = True
        STATS.add("quarantines")
        incr("integrity.quarantines")
        event("integrity.quarantine", family=family, kernel=gk.name,
              body_hash=body_hash, strikes=strikes)
        if self.on_quarantine is not None:
            try:
                self.on_quarantine(family, verdict)
            except Exception:  # noqa: BLE001 - callback must not break calls
                pass
        return verdict


# ---------------------------------------------------------------------------
# level-2/1 wrappers (sum-identity checks around the native drivers)
# ---------------------------------------------------------------------------

class _IntegrityWrapper:
    """Shared plumbing: delegate everything to the wrapped driver."""

    supports_integrity = True
    family = ""

    def __init__(self, inner, checker: IntegrityChecker) -> None:
        self._inner = inner
        self.integrity = checker

    def __getattr__(self, name):
        return getattr(self._inner, name)

    def _kernel(self):
        inner = self._inner
        return getattr(inner, "kernel", None) \
            or getattr(inner, "kernel_t", None)

    def _verified(self, report: Optional[IntegrityReport], t0: int,
                  mismatched: bool, corrected: bool) -> None:
        overhead = time.perf_counter_ns() - t0
        STATS.add("checks")
        STATS.add("overhead_ns", overhead)
        incr("integrity.checks")
        if report is not None:
            report.checked = True
            report.note("overhead_ns", overhead)
        if mismatched:
            STATS.add("mismatches")
            STATS.add("retries")
            incr("integrity.mismatches")
            incr("integrity.retries")
            if report is not None:
                report.note("mismatches")
                report.note("retries")
        if corrected:
            STATS.add("reference_recomputes")
            incr("integrity.reference_recomputes")
            if report is not None:
                report.note("reference_recomputes")

    def _corrupt(self, detail: str,
                 report: Optional[IntegrityReport]) -> None:
        event("integrity.mismatch", family=self.family, detail=detail[:200])
        kernel = self._kernel()
        if kernel is None:
            return
        verdict = self.integrity.record_corruption(self.family, kernel,
                                                   detail=detail)
        if report is not None and verdict.get("quarantined"):
            report.quarantine(str(verdict.get("body_hash")))


class IntegrityGemvDriver(_IntegrityWrapper):
    """Sum-identity ABFT around :class:`~repro.blas.gemv.GemvDriver`."""

    family = "gemv"

    def __call__(self, a, x, y=None, alpha: float = 1.0, beta: float = 0.0,
                 trans: bool = False, integrity: Optional[str] = None,
                 integrity_report: Optional[IntegrityReport] = None):
        check = self.integrity.decide(integrity)
        if not check:
            return self._inner(a, x, y, alpha=alpha, beta=beta, trans=trans)
        t0 = time.perf_counter_ns()
        a64 = np.asarray(a, dtype=np.float64)
        x64 = np.asarray(x, dtype=np.float64)
        op = a64.T if trans else a64
        expected = alpha * float(op.sum(axis=0) @ x64)
        magnitude = abs(alpha) * float(np.abs(op).sum(axis=0) @ np.abs(x64))
        if y is not None and beta != 0.0:
            y64 = np.asarray(y, dtype=np.float64)
            expected += beta * float(y64.sum())
            magnitude += abs(beta) * float(np.abs(y64).sum())
        n_terms = op.shape[0] + op.shape[1]

        out = self._inner(a, x, y, alpha=alpha, beta=beta, trans=trans)
        if _sum_close(float(np.asarray(out).sum()), expected, magnitude,
                      n_terms):
            self._verified(integrity_report, t0, False, False)
            return out
        out = self._inner(a, x, y, alpha=alpha, beta=beta, trans=trans)
        if _sum_close(float(np.asarray(out).sum()), expected, magnitude,
                      n_terms):
            self._verified(integrity_report, t0, True, False)
            return out
        self._corrupt("gemv sum identity violated twice", integrity_report)
        out = ref.ref_gemv(a, x, y, alpha, beta, trans)
        self._verified(integrity_report, t0, True, True)
        return out


class IntegrityGerDriver(_IntegrityWrapper):
    """Sum-identity ABFT around :class:`~repro.blas.ger.GerDriver`: one
    sampling decision and one identity per call,
    ``sum(A') = sum(A) + alpha * sum(x) * sum(y)``."""

    family = "ger"

    def __call__(self, alpha: float, x, y, a,
                 integrity: Optional[str] = None,
                 integrity_report: Optional[IntegrityReport] = None):
        check = self.integrity.decide(integrity)
        if not check:
            return self._inner(alpha, x, y, a)
        t0 = time.perf_counter_ns()
        a0 = np.array(a, dtype=np.float64)
        x64 = np.asarray(x, dtype=np.float64)
        y64 = np.asarray(y, dtype=np.float64)
        expected = float(a0.sum()) \
            + alpha * float(x64.sum()) * float(y64.sum())
        magnitude = float(np.abs(a0).sum()) \
            + abs(alpha) * float(np.abs(x64).sum()) \
            * float(np.abs(y64).sum())
        n_terms = a0.size + x64.size + y64.size

        out = self._inner(alpha, x, y, a)
        if _sum_close(float(out.sum()), expected, magnitude, n_terms):
            self._verified(integrity_report, t0, False, False)
            return out
        a[...] = a0
        out = self._inner(alpha, x, y, a)
        if _sum_close(float(out.sum()), expected, magnitude, n_terms):
            self._verified(integrity_report, t0, True, False)
            return out
        self._corrupt("ger sum identity violated twice", integrity_report)
        a[...] = ref.ref_ger(alpha, x64, y64, a0)
        self._verified(integrity_report, t0, True, True)
        return a


class IntegrityAxpyDriver(_IntegrityWrapper):
    """Sum-identity ABFT around :class:`~repro.blas.level1.AxpyDriver`."""

    family = "axpy"

    def __call__(self, alpha: float, x, y,
                 integrity: Optional[str] = None,
                 integrity_report: Optional[IntegrityReport] = None):
        check = self.integrity.decide(integrity)
        if not check:
            return self._inner(alpha, x, y)
        t0 = time.perf_counter_ns()
        y0 = np.array(y, dtype=np.float64)
        x64 = np.asarray(x, dtype=np.float64)
        expected = float(y0.sum()) + alpha * float(x64.sum())
        magnitude = float(np.abs(y0).sum()) \
            + abs(alpha) * float(np.abs(x64).sum())

        out = self._inner(alpha, x, y)
        if _sum_close(float(np.asarray(out).sum()), expected, magnitude,
                      2 * x64.size):
            self._verified(integrity_report, t0, False, False)
            return out
        y[:] = y0
        out = self._inner(alpha, x, y)
        if _sum_close(float(np.asarray(out).sum()), expected, magnitude,
                      2 * x64.size):
            self._verified(integrity_report, t0, True, False)
            return out
        self._corrupt("axpy sum identity violated twice", integrity_report)
        y[:] = ref.ref_axpy(alpha, x64, y0)
        self._verified(integrity_report, t0, True, True)
        return y


class IntegrityDotDriver(_IntegrityWrapper):
    """Reference-compare ABFT around :class:`~repro.blas.level1.DotDriver`."""

    family = "dot"

    def __call__(self, x, y, integrity: Optional[str] = None,
                 integrity_report: Optional[IntegrityReport] = None):
        check = self.integrity.decide(integrity)
        if not check:
            return self._inner(x, y)
        t0 = time.perf_counter_ns()
        x64 = np.asarray(x, dtype=np.float64)
        y64 = np.asarray(y, dtype=np.float64)
        expected = float(x64 @ y64)
        magnitude = float(np.abs(x64) @ np.abs(y64))

        got = self._inner(x, y)
        if _sum_close(float(got), expected, magnitude, x64.size):
            self._verified(integrity_report, t0, False, False)
            return got
        got = self._inner(x, y)
        if _sum_close(float(got), expected, magnitude, x64.size):
            self._verified(integrity_report, t0, True, False)
            return got
        self._corrupt("dot product disagrees with reference twice",
                      integrity_report)
        self._verified(integrity_report, t0, True, True)
        return expected


class IntegrityScalDriver(_IntegrityWrapper):
    """Sum-identity ABFT around :class:`~repro.blas.level1.ScalDriver`."""

    family = "scal"

    def __call__(self, alpha: float, x,
                 integrity: Optional[str] = None,
                 integrity_report: Optional[IntegrityReport] = None):
        check = self.integrity.decide(integrity)
        if not check:
            return self._inner(alpha, x)
        t0 = time.perf_counter_ns()
        x0 = np.array(x, dtype=np.float64)
        expected = alpha * float(x0.sum())
        magnitude = abs(alpha) * float(np.abs(x0).sum())

        out = self._inner(alpha, x)
        if _sum_close(float(np.asarray(out).sum()), expected, magnitude,
                      x0.size):
            self._verified(integrity_report, t0, False, False)
            return out
        x[:] = x0
        out = self._inner(alpha, x)
        if _sum_close(float(np.asarray(out).sum()), expected, magnitude,
                      x0.size):
            self._verified(integrity_report, t0, True, False)
            return out
        self._corrupt("scal sum identity violated twice", integrity_report)
        x[:] = alpha * x0
        self._verified(integrity_report, t0, True, True)
        return x


_WRAPPERS = {
    "gemv": IntegrityGemvDriver,
    "ger": IntegrityGerDriver,
    "axpy": IntegrityAxpyDriver,
    "dot": IntegrityDotDriver,
    "scal": IntegrityScalDriver,
}


def wrap_driver(family: str, driver, checker: IntegrityChecker):
    """Wrap a built driver with its ABFT check, where one exists.

    Reference-tier drivers are the oracle itself — wrapping them would
    only double the work — and drivers that verify internally
    (``supports_integrity``, i.e. the GEMM driver) pass through.
    """
    if getattr(driver, "tier", "") == "reference":
        return driver
    if getattr(driver, "supports_integrity", False):
        return driver
    cls = _WRAPPERS.get(family)
    return cls(driver, checker) if cls is not None else driver


# ---------------------------------------------------------------------------
# toolchain-free self-test plumbing (CLI + tests)
# ---------------------------------------------------------------------------

def emulated_gemm_driver(threads: int = 1, integrity: str = "full",
                         blocks=None):
    """An emulator-backed :class:`~repro.blas.gemm.GemmDriver`.

    Runs the generated SSE kernel through the bundled emulator — no
    toolchain required — with per-tile ABFT in the requested mode.
    Used by ``python -m repro integrity check`` and the test suite.
    """
    from ..core.framework import Augem
    from ..emu.run import call_items
    from ..isa.arch import GENERIC_SSE
    from .gemm import BlockSizes, GemmDriver

    gk = Augem(arch=GENERIC_SSE).generate_named("gemm")

    class _EmuKernel:
        generated = gk

        def __call__(self, *args):
            return call_items(gk.items, list(args))

    return GemmDriver(_EmuKernel(), blocks=blocks or BlockSizes(mc=8, kc=8,
                                                                nc=8),
                      threads=threads, integrity=integrity)
