"""Verified ISA dispatch and kernel admission — the hardened runtime.

The paper's end product is a *library*; serving one safely requires the
last-mile guarantees BLIS-style stacks give their users.  This module
implements them as an ordered **capability chain**

    FMA3 (haswell) → AVX (sandybridge) → SSE (generic_sse) → reference

with two verification gates in front of every installed routine:

1. **ISA probe** — before a native tier may serve anything, a tiny
   generated AXPY kernel for that arch is assembled and *executed* in the
   fork-isolated sandbox (:mod:`repro.backend.sandbox`).  A cpuinfo lie
   (SIGILL), a broken toolchain (:class:`ToolchainError`), or a garbage
   result demotes the whole tier instead of crashing the caller.  Probe
   verdicts are memoized per process.

2. **Admission check** — every routine built for a verified tier runs a
   small differential conformance probe against
   :mod:`repro.blas.reference` (sandboxed, ULP-bounded, traced as
   ``dispatch.admit`` spans) before the driver is installed.  Failures
   demote the routine to the next tier and record the kernel in the
   persistent quarantine store under the same content-addressed key the
   tuner uses (:func:`repro.core.framework.quarantine_key`), so a
   crasher is never re-executed on a later run — and a candidate
   quarantined during *tuning* is never silently loaded by the facade.

The terminal reference tier is pure numpy and always admissible, so a
hardened :class:`~repro.blas.api.AugemBLAS` can always serve a
numerically correct answer — degraded, never wrong.

``$REPRO_FORCE_ARCH`` pins the top of the chain; the special value
``reference`` collapses the chain to the numpy tier alone.
"""

from __future__ import annotations

import json
import os
import threading
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple, Union

import numpy as np

from ..backend import fsio
from ..backend.cache import get_cache
from ..backend.compiler import ToolchainError
from ..backend.faults import inject_asm_fault, take_fault
from ..backend.runner import NativeKernel, load_kernel
from ..backend.sandbox import resolve_isolation, run_trial
from ..core.framework import Augem, quarantine_key
from ..isa.arch import (ALL_ARCHS, GENERIC_SSE, SANDYBRIDGE, ArchSpec,
                        detect_host, forced_arch_name)
from ..obs import event, incr, span
from . import reference as ref
from .level1 import unroll_of

#: max acceptable elementwise error, in units of the reference result's
#: ULP, for an admission probe (generous: blocked summation reorders)
ADMIT_ULP_BOUND = 512.0

#: wall-clock budget for one sandboxed probe/admission run
PROBE_TIMEOUT = 30.0

REFERENCE_TIER_NAME = "reference"


@dataclass(frozen=True)
class Tier:
    """One rung of the capability ladder (``arch=None`` ⇒ pure numpy)."""

    name: str
    arch: Optional[ArchSpec]

    @property
    def is_reference(self) -> bool:
        return self.arch is None

    def describe(self) -> str:
        if self.is_reference:
            return "pure-numpy reference semantics (always available)"
        return self.arch.description or str(self.arch)


REFERENCE_TIER = Tier(REFERENCE_TIER_NAME, None)


def _rank(arch: ArchSpec) -> int:
    """Capability rank: FMA > AVX > SSE."""
    if arch.has_fma:
        return 3
    if arch.simd == "avx":
        return 2
    return 1


def capability_chain(top: Optional[ArchSpec] = None) -> List[Tier]:
    """The ordered fallback chain starting at (and including) ``top``.

    Standard lower tiers (sandybridge, generic_sse) with strictly lower
    capability rank follow the top spec; the chain always terminates in
    the reference tier.
    """
    top = top or detect_host()
    specs = [top] + [a for a in (SANDYBRIDGE, GENERIC_SSE)
                     if _rank(a) < _rank(top)]
    return [Tier(a.name, a) for a in specs] + [REFERENCE_TIER]


def default_chain() -> List[Tier]:
    """Chain for the detected host, honoring ``$REPRO_FORCE_ARCH``."""
    if forced_arch_name() == REFERENCE_TIER_NAME:
        return [REFERENCE_TIER]
    return capability_chain(detect_host())


class KernelRejected(RuntimeError):
    """A kernel failed its admission check or is quarantined."""


@dataclass
class RoutineDispatch:
    """How one routine ended up being served."""

    family: str
    tier: str
    demoted: bool = False
    attempts: List[str] = field(default_factory=list)

    def describe(self) -> str:
        trail = f" (after: {'; '.join(self.attempts)})" if self.attempts \
            else ""
        return f"{self.family}: served by {self.tier}{trail}"


# Process-wide memos.  ISA probe verdicts hold for the machine, not one
# chain instance; admission verdicts are keyed by kernel content so a
# second AugemBLAS does not re-fork for identical code.  Both dicts are
# guarded by one lock: two threads racing the first probe must not fork
# the sandbox twice (and the winner's verdict must be visible to the
# loser), so the probe itself executes under the lock.
_TIER_VERDICTS: Dict[str, Tuple[bool, str]] = {}
_ADMITTED: Dict[str, float] = {}
_VERDICT_LOCK = threading.RLock()
_PROBES_RUN = 0
_VERDICTS_REVISION = 0

#: on-disk verdict store schema version (see save/load_tier_verdicts);
#: v2 added the toolchain fingerprint key
VERDICT_STORE_VERSION = 2


def reset_dispatch_state() -> None:
    """Forget memoized probe/admission verdicts (tests)."""
    global _PROBES_RUN, _VERDICTS_REVISION
    with _VERDICT_LOCK:
        _TIER_VERDICTS.clear()
        _ADMITTED.clear()
        _PROBES_RUN = 0
        _VERDICTS_REVISION = 0


def probes_executed() -> int:
    """How many sandboxed ISA probes this process has actually run."""
    return _PROBES_RUN


def verdicts_revision() -> int:
    """Bumped on every tier-verdict write (probe or runtime demotion).

    The serve worker persists the store whenever this moves, so an
    integrity demotion survives a supervisor restart just like a probe
    verdict does.
    """
    return _VERDICTS_REVISION


def _bump_revision() -> None:
    global _VERDICTS_REVISION
    _VERDICTS_REVISION += 1


def demote_tier(arch_name: str, reason: str) -> bool:
    """Force-fail a tier's verdict for the remainder of the process.

    The integrity layer (:mod:`repro.blas.integrity`) calls this when a
    kernel on the tier keeps producing corrupt results after passing
    admission: trust in the whole tier is gone, so every *future*
    routine build walks past it.  Returns True if the verdict changed.
    """
    if arch_name not in ALL_ARCHS:
        return False
    with _VERDICT_LOCK:
        current = _TIER_VERDICTS.get(arch_name)
        if current is not None and not current[0]:
            return False  # already demoted
        _TIER_VERDICTS[arch_name] = (False, str(reason)[:300])
        _bump_revision()
    incr("dispatch.demotion")
    event("dispatch.demotion", tier=arch_name, stage="integrity",
          error=str(reason)[:200])
    return True


def _toolchain_fingerprint() -> str:
    """The verdict store's toolchain key (``none`` without a compiler).

    Probe and admission verdicts embed toolchain behavior — a compiler
    upgrade must invalidate them rather than silently reuse them.
    """
    from ..backend.compiler import ToolchainError, cc_fingerprint, find_cc
    try:
        return cc_fingerprint(find_cc())
    except ToolchainError:
        return "none"


def save_tier_verdicts(path: Union[str, Path]) -> int:
    """Persist this process's probe verdicts for warm restarts.

    The serve worker (:mod:`repro.serve.server`) calls this so a
    supervisor-restarted worker inherits the machine's probe outcomes
    from disk instead of re-forking sandboxed probes.  Returns how many
    verdicts were written; failures degrade silently (the store is an
    optimization, never a correctness dependency).
    """
    with _VERDICT_LOCK:
        verdicts = {name: list(v) for name, v in _TIER_VERDICTS.items()}
    if not verdicts:
        return 0
    path = Path(path)
    if fsio.disk_degraded() is not None:
        return 0  # in-memory-only mode: verdicts stay memoized in-process
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        fsio.atomic_write_json(path, {"version": VERDICT_STORE_VERSION,
                                      "toolchain": _toolchain_fingerprint(),
                                      "verdicts": verdicts},
                               tag="dispatch.verdicts")
    except OSError:
        return 0
    return len(verdicts)


def load_tier_verdicts(path: Union[str, Path]) -> int:
    """Preload persisted probe verdicts (absent entries only).

    Returns how many verdicts were adopted.  A live probe this process
    already ran always wins over the disk record, and a store written
    under a different toolchain (or schema version) is ignored
    wholesale — stale verdicts must be re-proved, not trusted.
    """
    try:
        record = json.loads(Path(path).read_text())
        if record.get("version") != VERDICT_STORE_VERSION:
            return 0
        if record.get("toolchain") != _toolchain_fingerprint():
            return 0
        verdicts = record["verdicts"]
    except (OSError, ValueError, KeyError, TypeError):
        return 0
    adopted = 0
    with _VERDICT_LOCK:
        for name, verdict in verdicts.items():
            try:
                ok, detail = bool(verdict[0]), str(verdict[1])
            except (TypeError, IndexError):
                continue
            if name in ALL_ARCHS and name not in _TIER_VERDICTS:
                _TIER_VERDICTS[name] = (ok, detail)
                adopted += 1
        if adopted:
            _bump_revision()
    return adopted


def tier_verdict(tier: Tier) -> Optional[Tuple[bool, str]]:
    """The memoized probe verdict for ``tier``, if one exists."""
    if tier.is_reference:
        return (True, "always available")
    return _TIER_VERDICTS.get(tier.arch.name)


# ---------------------------------------------------------------------------
# deterministic probe data (no RNG: probes must be reproducible)
# ---------------------------------------------------------------------------

def _probe_matrix(m: int, n: int) -> np.ndarray:
    return np.sin(0.7 * np.arange(m * n, dtype=np.float64) + 1.0) \
        .reshape(m, n)


def _probe_vector(n: int) -> np.ndarray:
    return np.cos(0.3 * np.arange(n, dtype=np.float64) - 0.5)


def ulp_error(got: np.ndarray, expected: np.ndarray) -> float:
    """Max elementwise error in units of the expected value's ULP."""
    got = np.asarray(got, dtype=np.float64).ravel()
    expected = np.asarray(expected, dtype=np.float64).ravel()
    if got.shape != expected.shape:
        return float("inf")
    if got.size == 0:
        return 0.0
    scale = np.spacing(np.maximum(np.abs(expected), 1.0))
    return float(np.max(np.abs(got - expected) / scale))


def _routine_probe(family: str, driver) -> Callable[[], float]:
    """A closure exercising ``driver`` end-to-end on awkward shapes and
    returning its ULP error against the reference oracle."""
    if family in ("gemm", "gemm_shuf"):
        a, b, c = _probe_matrix(17, 23), _probe_matrix(23, 13), \
            _probe_matrix(17, 13)

        def probe() -> float:
            got = driver(a, b, c, alpha=1.25, beta=0.5)
            return ulp_error(got, ref.ref_gemm(a, b, c, 1.25, 0.5))
    elif family == "gemv":
        a, x_n, x_t, y = _probe_matrix(13, 9), _probe_vector(9), \
            _probe_vector(13), _probe_vector(13)

        def probe() -> float:
            got_n = driver(a, x_n, y, alpha=1.25, beta=0.5, trans=False)
            got_t = driver(a, x_t, alpha=-0.75, trans=True)
            return max(
                ulp_error(got_n, ref.ref_gemv(a, x_n, y, 1.25, 0.5)),
                ulp_error(got_t, ref.ref_gemv(a, x_t, alpha=-0.75,
                                              trans=True)))
    elif family == "ger":
        # 37 columns: an aligned prefix plus a tail for every unroll factor
        x, y, a0 = _probe_vector(11), _probe_vector(37) + 1.0, \
            _probe_matrix(11, 37)

        def probe() -> float:
            a = a0.copy()
            driver(-0.75, x, y, a)
            return ulp_error(a, ref.ref_ger(-0.75, x, y, a0))
    elif family == "axpy":
        x, y0 = _probe_vector(131), _probe_vector(131) + 2.0

        def probe() -> float:
            y = y0.copy()
            driver(1.5, x, y)
            return ulp_error(y, ref.ref_axpy(1.5, x, y0))
    elif family == "dot":
        x, y = _probe_vector(131), _probe_vector(131) + 1.0

        def probe() -> float:
            return ulp_error(np.array([driver(x, y)]),
                             np.array([ref.ref_dot(x, y)]))
    elif family == "scal":
        x0 = _probe_vector(131)

        def probe() -> float:
            x = x0.copy()
            driver(-2.25, x)
            return ulp_error(x, -2.25 * x0)
    else:
        raise KeyError(f"no admission probe for kernel family {family!r}")
    return probe


#: reference drivers installed for the terminal tier, per family
_REFERENCE_FACTORIES = {
    "gemm": ref.ReferenceGemmDriver,
    "gemm_shuf": ref.ReferenceGemmDriver,
    "gemv": ref.ReferenceGemvDriver,
    "ger": ref.ReferenceGerDriver,
    "axpy": ref.ReferenceAxpyDriver,
    "dot": ref.ReferenceDotDriver,
    "scal": ref.ReferenceScalDriver,
}

#: every kernel family the chain can build, admit and demote
ROUTINE_FAMILIES = tuple(_REFERENCE_FACTORIES)


class DispatchChain:
    """Builds verified, admitted drivers down a capability chain."""

    def __init__(self, top: Optional[ArchSpec] = None,
                 isolation: Optional[str] = None,
                 probe_timeout: float = PROBE_TIMEOUT,
                 ulp_bound: float = ADMIT_ULP_BOUND) -> None:
        if top is None:
            self.tiers = default_chain()
        else:
            self.tiers = capability_chain(top)
        self.isolation = resolve_isolation(isolation)
        self.probe_timeout = probe_timeout
        self.ulp_bound = ulp_bound
        # monotonically increasing index for take_fault("asm", index=...):
        # the n-th kernel this chain builds, mirroring the tuner's
        # candidate-index semantics so REPRO_FAULT_INJECT='segv@#0'
        # faults exactly the first build (the ISA probe)
        self._build_index = 0

    @property
    def top(self) -> Tier:
        return self.tiers[0]

    # -- kernel loading (fault hook + quarantine consult) -----------------
    def _instrument(self, gk):
        index = self._build_index
        self._build_index += 1
        fault = take_fault("asm", tag=gk.name, index=index)
        if fault is not None:
            gk = replace(gk, asm_text=inject_asm_fault(fault, gk.asm_text,
                                                       gk.name))
        return gk

    def _loader_for(self, tier: Tier):
        """A ``load_kernel`` replacement that consults the quarantine
        store before dlopen and collects what it loads for admission."""
        built: List[NativeKernel] = []

        def loader(family: str, gk) -> NativeKernel:
            gk = self._instrument(gk)
            qkey = quarantine_key(family, tier.arch, gk)
            qrec = get_cache().load_quarantine(qkey)
            if qrec is not None:
                why = qrec.get("error") or "known-crashing kernel"
                incr("dispatch.quarantine_hit")
                raise KernelRejected(
                    f"kernel {gk.name} ({family}, {tier.name}) is "
                    f"quarantined: {why}"[:300])
            native = load_kernel(family, gk)
            native.dispatch_qkey = qkey
            built.append(native)
            return native

        return loader, built

    # -- gate 1: ISA probe -------------------------------------------------
    def verify_tier(self, tier: Tier) -> bool:
        """Whether ``tier`` may serve (memoized probe execution).

        Thread-safe: concurrent first callers serialize on the verdict
        lock, exactly one executes the sandboxed probe, and the rest
        observe its memoized verdict.
        """
        if tier.is_reference:
            return True
        cached = _TIER_VERDICTS.get(tier.arch.name)
        if cached is not None:
            return cached[0]
        with _VERDICT_LOCK:
            cached = _TIER_VERDICTS.get(tier.arch.name)
            if cached is not None:
                return cached[0]
            ok, detail = self._probe_tier(tier)
            _TIER_VERDICTS[tier.arch.name] = (ok, detail)
            _bump_revision()
        if not ok:
            incr("dispatch.demotion")
            event("dispatch.demotion", tier=tier.name, stage="probe",
                  error=detail[:200])
        return ok

    def _probe_tier(self, tier: Tier) -> Tuple[bool, str]:
        """Generate, assemble, and *execute* a tiny AXPY for the tier."""
        global _PROBES_RUN
        _PROBES_RUN += 1
        with span("dispatch.probe", tier=tier.name) as sp:
            try:
                aug = Augem(arch=tier.arch)
                gk = aug.generate_named(
                    "axpy", name=f"isa_probe_{tier.arch.name}")
                gk = self._instrument(gk)
                native = load_kernel("axpy", gk)
            except ToolchainError as exc:
                detail = f"toolchain: {exc}"[:300]
                sp.set(verdict="toolchain", error=detail)
                return False, detail
            except Exception as exc:  # noqa: BLE001 - any failure demotes
                detail = f"{type(exc).__name__}: {exc}"[:300]
                sp.set(verdict="failed", error=detail)
                return False, detail

            n = 8 * unroll_of(gk)
            x = np.arange(1.0, n + 1.0)
            y0 = np.full(n, 2.0)

            def run_probe() -> bool:
                y = y0.copy()
                native(n, 1.5, x, y)
                err = ulp_error(y, y0 + 1.5 * x)
                if err > 4.0:
                    raise RuntimeError(
                        f"probe result wrong ({err:.1f} ULPs)")
                return True

            res = run_trial(run_probe, isolation=self.isolation,
                            timeout=self.probe_timeout,
                            tag=f"isa-probe-{tier.name}")
            if res.ok:
                sp.set(verdict="ok")
                incr("dispatch.probe_ok")
                return True, "ok"
            detail = f"{res.category}: {res.error}"[:300]
            sp.set(verdict=res.category, error=res.error)
            return False, detail

    # -- gate 2: admission -------------------------------------------------
    def admit(self, family: str, tier: Tier, driver,
              kernels: List[NativeKernel]) -> None:
        """Differential conformance of the built routine vs reference.

        Raises :class:`KernelRejected` (after quarantining the offending
        kernels) when the sandboxed probe crashes, hangs, or exceeds the
        ULP bound.
        """
        hashes = sorted(k.generated.content_hash for k in kernels)
        memo_key = "\x1f".join([family, tier.name] + hashes)
        with _VERDICT_LOCK:
            if memo_key in _ADMITTED:
                return
        probe = _routine_probe(family, driver)
        with span("dispatch.admit", family=family, tier=tier.name) as sp:
            res = run_trial(probe, isolation=self.isolation,
                            timeout=self.probe_timeout,
                            tag=f"admit-{family}-{tier.name}")
            if res.ok:
                ulp = float(res.value)
                if ulp <= self.ulp_bound:
                    sp.set(verdict="ok", ulp=round(ulp, 2))
                    with _VERDICT_LOCK:
                        _ADMITTED[memo_key] = ulp
                    incr("dispatch.admission")
                    return
                verdict = "rejected"
                error = (f"ULP error {ulp:.1f} exceeds admission bound "
                         f"{self.ulp_bound:g}")
            else:
                verdict, error = res.category, res.error or res.category
            sp.set(verdict=verdict, error=error)
        cache = get_cache()
        for kernel in kernels:
            qkey = getattr(kernel, "dispatch_qkey", None)
            if qkey:
                cache.store_quarantine(qkey, {
                    "kernel": family,
                    "arch": tier.name,
                    "candidate": kernel.generated.name,
                    "category": verdict,
                    "error": str(error)[:300],
                })
        raise KernelRejected(
            f"{family} failed admission on tier {tier.name}: {error}")

    # -- routine construction ---------------------------------------------
    def build_routine(self, family: str,
                      builder: Callable[[Tier, Callable], object],
                      reference_factory: Optional[Callable] = None):
        """Walk the chain top-down until a tier serves ``family``.

        ``builder(tier, loader)`` must construct the driver using
        ``loader`` for every kernel it loads.  Returns
        ``(driver, RoutineDispatch)``; the terminal reference tier cannot
        fail, so this always returns.
        """
        if reference_factory is None:
            reference_factory = _REFERENCE_FACTORIES[family]
        attempts: List[str] = []
        for i, tier in enumerate(self.tiers):
            if tier.is_reference:
                driver = reference_factory()
                if i > 0:
                    incr("dispatch.reference_install")
                return driver, RoutineDispatch(family, tier.name,
                                               demoted=i > 0,
                                               attempts=attempts)
            if not self.verify_tier(tier):
                _, detail = _TIER_VERDICTS[tier.arch.name]
                attempts.append(f"{tier.name}: ISA probe failed ({detail})")
                continue
            loader, built = self._loader_for(tier)
            try:
                with span("dispatch.build", family=family, tier=tier.name):
                    driver = builder(tier, loader)
                self.admit(family, tier, driver, built)
            except (KernelRejected, ToolchainError) as exc:
                attempts.append(f"{tier.name}: {exc}"[:300])
                incr("dispatch.demotion")
                event("dispatch.demotion", family=family, tier=tier.name,
                      stage="admit", error=str(exc)[:200])
                continue
            except Exception as exc:  # noqa: BLE001 - generation failure
                attempts.append(
                    f"{tier.name}: {type(exc).__name__}: {exc}"[:300])
                incr("dispatch.demotion")
                event("dispatch.demotion", family=family, tier=tier.name,
                      stage="build", error=str(exc)[:200])
                continue
            return driver, RoutineDispatch(family, tier.name,
                                           demoted=i > 0,
                                           attempts=attempts)
        raise RuntimeError(  # unreachable: chain ends in reference
            f"no tier could serve {family!r}: {'; '.join(attempts)}")
