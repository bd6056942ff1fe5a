"""ABFT integrity layer: checksum math, containment ladder, quarantine.

Four layers of proof:

- **checksum math** (hypothesis) — :func:`verify_gemm_tile` never flags
  an exactly-consistent tile (no false positives, any dtype/layout) and
  always flags a perturbation comfortably above its tolerance;
- **clean-path conformance** — the emulated GEMM driver under
  ``integrity="full"`` returns bit-correct results with zero mismatches
  at every thread count (verification must be invisible when nothing is
  wrong);
- **containment ladder** — an injected ``corrupt`` fault is detected,
  retried (transient faults heal), reference-recomputed (persistent
  faults are contained), and the caller always receives correct bits;
- **strike accounting** — repeated corruption verdicts quarantine the
  kernel by body hash in the persistent store, demote its tier for the
  process, and fire the facade's rebuild callback.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.backend.cache import get_cache, reset_cache
from repro.backend.faults import (FaultPlan, clear_fault_plan, corrupt_tile,
                                  install_fault_plan)
from repro.blas import dispatch
from repro.blas.api import AugemBLAS
from repro.blas.integrity import (DEFAULT_SAMPLE_PERIOD, IntegrityChecker,
                                  IntegrityReport, STATS,
                                  emulated_gemm_driver, resolve_integrity,
                                  reset_integrity_state, strike_counts,
                                  verify_gemm_tile, wrap_driver)
from repro.blas.reference import ref_syrk
from repro.core.framework import quarantine_key

from tests.conftest import needs_cc


@pytest.fixture(autouse=True)
def _clean_integrity_state():
    reset_integrity_state()
    clear_fault_plan()
    yield
    reset_integrity_state()
    clear_fault_plan()


# -- mode resolution ---------------------------------------------------------


def test_resolve_defaults_off():
    assert resolve_integrity(environ={}) == ("off", DEFAULT_SAMPLE_PERIOD)


def test_resolve_env_and_explicit():
    env = {"REPRO_INTEGRITY": "sample:8"}
    assert resolve_integrity(environ=env) == ("sample", 8)
    # explicit beats env
    assert resolve_integrity("full", environ=env)[0] == "full"
    assert resolve_integrity("off", environ=env)[0] == "off"


def test_resolve_malformed_env_degrades_silently():
    for raw in ("bogus", "sample:0", "sample:x", "full:2"):
        assert resolve_integrity(
            environ={"REPRO_INTEGRITY": raw})[0] == "off"


def test_resolve_malformed_explicit_raises():
    for raw in ("bogus", "sample:0", "full:2"):
        with pytest.raises(ValueError):
            resolve_integrity(raw)


def test_sampling_is_deterministic():
    checker = IntegrityChecker(mode="sample", sample_period=4)
    pattern = [checker.decide() for _ in range(8)]
    assert pattern == [True, False, False, False, True, False, False, False]
    # per-request override ignores the configured mode
    assert checker.decide("full") is True
    assert checker.decide("off") is False


# -- checksum math (property-based) ------------------------------------------

_DIMS = st.integers(min_value=1, max_value=7)


def _tile_problem(rng, im, jn, k, dtype, order):
    a_sub = rng.standard_normal((im, k)).astype(dtype)
    b_sub = rng.standard_normal((k, jn)).astype(dtype)
    alpha = float(rng.uniform(-2.0, 2.0)) or 1.0
    tile = np.asarray((alpha * (a_sub.astype(np.float64)
                                @ b_sub.astype(np.float64))).T,
                      dtype=dtype, order=order)
    return tile, a_sub, b_sub, alpha


@settings(max_examples=60, deadline=None)
@given(im=_DIMS, jn=_DIMS, k=_DIMS,
       dtype=st.sampled_from([np.float64, np.float32]),
       order=st.sampled_from(["C", "F"]),
       seed=st.integers(min_value=0, max_value=2**31 - 1))
def test_no_false_positive_on_exact_tile(im, jn, k, dtype, order, seed):
    rng = np.random.default_rng(seed)
    tile, a_sub, b_sub, alpha = _tile_problem(rng, im, jn, k, dtype, order)
    assert verify_gemm_tile(tile, a_sub, b_sub, alpha=alpha)


@settings(max_examples=60, deadline=None)
@given(im=_DIMS, jn=_DIMS, k=_DIMS,
       dtype=st.sampled_from([np.float64, np.float32]),
       order=st.sampled_from(["C", "F"]),
       seed=st.integers(min_value=0, max_value=2**31 - 1))
def test_detects_injected_perturbation(im, jn, k, dtype, order, seed):
    rng = np.random.default_rng(seed)
    tile, a_sub, b_sub, alpha = _tile_problem(rng, im, jn, k, dtype, order)
    # a perturbation far above any float32/float64 checksum tolerance
    j = int(rng.integers(jn))
    i = int(rng.integers(im))
    tile[j, i] += dtype(1.0 + float(np.abs(tile).max()))
    assert not verify_gemm_tile(tile, a_sub, b_sub, alpha=alpha)


def test_nonfinite_inputs_are_unverifiable_not_corrupt():
    a_sub = np.array([[np.nan, 1.0]])
    b_sub = np.ones((2, 3))
    tile = (a_sub @ b_sub).T
    assert verify_gemm_tile(tile, a_sub, b_sub)


def test_corrupt_tile_flip_is_silent_and_finite():
    for value in (0.0, 0.5, 1.0, 1.5, 1.999, 2.0, -3.7, 1e300, 1e-300):
        buf = np.full(4, value)
        corrupt_tile(buf)
        assert np.isfinite(buf[0])          # silent corruption, never NaN
        assert buf[0] != value or value == 0.0


# -- clean driver: verification is invisible --------------------------------


@pytest.mark.parametrize("threads", [1, 2, 4])
def test_clean_emulated_gemm_no_false_positives(threads, rng):
    driver = emulated_gemm_driver(threads=threads)
    for m, n, k in [(1, 1, 1), (13, 7, 9), (16, 16, 16), (5, 17, 4)]:
        a = rng.standard_normal((m, k))
        b = rng.standard_normal((k, n))
        report = IntegrityReport()
        got = driver(a, b, integrity_report=report)
        assert np.allclose(got, a @ b, rtol=1e-12, atol=1e-12), (m, n, k)
        assert report.checked
        assert report.tiles_checked > 0
        assert report.mismatches == 0, (m, n, k, threads)
    assert STATS.snapshot()["mismatches"] == 0
    assert not strike_counts()


def test_integrity_off_skips_checks(rng):
    driver = emulated_gemm_driver(threads=1, integrity="off")
    report = IntegrityReport()
    got = driver(rng.standard_normal((8, 8)), rng.standard_normal((8, 8)),
                 integrity_report=report)
    assert got.shape == (8, 8)
    assert not report.checked
    assert report.tiles_checked == 0


# -- containment ladder under injected corruption ----------------------------


@pytest.mark.parametrize("threads", [1, 2])
def test_transient_corruption_heals_on_retry(threads, rng):
    install_fault_plan(FaultPlan.parse("corrupt@#0:1"))
    driver = emulated_gemm_driver(threads=threads)
    a = rng.standard_normal((12, 8))
    b = rng.standard_normal((8, 12))
    report = IntegrityReport()
    got = driver(a, b, integrity_report=report)
    assert np.allclose(got, a @ b, rtol=1e-12, atol=1e-12)
    assert report.mismatches == 1
    assert report.retries == 1
    assert report.reference_recomputes == 0   # the retry healed it
    assert not strike_counts()                # no corruption verdict


@pytest.mark.parametrize("threads", [1, 2])
def test_persistent_corruption_contained_by_reference(threads, rng):
    install_fault_plan(FaultPlan.parse("corrupt@#0"))
    driver = emulated_gemm_driver(threads=threads)
    a = rng.standard_normal((12, 8))
    b = rng.standard_normal((8, 12))
    report = IntegrityReport()
    got = driver(a, b, integrity_report=report)
    # the caller still gets correct bits
    assert np.allclose(got, a @ b, rtol=1e-12, atol=1e-12)
    assert report.mismatches == 1
    assert report.retries == 1
    assert report.reference_recomputes == 1
    assert list(strike_counts().values()) == [1]


def test_corruption_without_integrity_goes_unnoticed(rng):
    # negative control: the fault model corrupts silently, so with
    # verification off the wrong bits reach the caller
    install_fault_plan(FaultPlan.parse("corrupt@#0"))
    driver = emulated_gemm_driver(threads=1, integrity="off")
    a = rng.standard_normal((12, 8))
    b = rng.standard_normal((8, 12))
    got = driver(a, b)
    assert not np.allclose(got, a @ b, rtol=1e-12, atol=1e-12)


@needs_cc
def test_corruption_contained_through_dsyrk(monkeypatch, rng):
    # the Level-3 casts reach the ladder through the one GEMM path: an
    # env-armed persistent fault on the panel's first tile is detected,
    # recomputed and struck, and dsyrk still returns correct bits
    monkeypatch.setenv("REPRO_INTEGRITY", "full")
    monkeypatch.setenv("REPRO_FAULT_INJECT", "corrupt@#0")
    a = rng.standard_normal((40, 24))
    c = rng.standard_normal((40, 40))
    got = AugemBLAS().dsyrk(a, c, alpha=0.5, beta=-1.0)
    assert np.allclose(got, ref_syrk(a, c, 0.5, -1.0), rtol=1e-12, atol=1e-12)
    stats = STATS.snapshot()
    assert stats["mismatches"] == stats["retries"] == 1
    assert stats["reference_recomputes"] == 1
    assert list(strike_counts().values()) == [1]


# -- strikes -> quarantine -> demotion ---------------------------------------


def test_strikes_quarantine_and_demote(tmp_path, monkeypatch, rng):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "store"))
    reset_cache()
    dispatch.reset_dispatch_state()
    rebuilt = []
    try:
        checker = IntegrityChecker(
            mode="full", strike_limit=2,
            on_quarantine=lambda family, verdict: rebuilt.append(
                (family, verdict)))
        driver = emulated_gemm_driver(threads=1, integrity=checker)
        install_fault_plan(FaultPlan.parse("corrupt@#0"))
        a = rng.standard_normal((12, 8))
        b = rng.standard_normal((8, 12))

        revision_before = dispatch.verdicts_revision()
        report = IntegrityReport()
        assert np.allclose(driver(a, b, integrity_report=report), a @ b)
        assert not report.quarantined          # strike 1 of 2

        report = IntegrityReport()
        assert np.allclose(driver(a, b, integrity_report=report), a @ b)
        gk = driver.kernel.generated
        assert report.quarantined == [gk.body_hash]

        # persistent quarantine record, keyed like the tuner's
        qkey = quarantine_key("gemm", gk.arch, gk)
        record = get_cache().load_quarantine(qkey)
        assert record is not None
        assert record["category"] == "integrity"

        # the tier is demoted and the verdict revision moved (so a serve
        # worker persists it for warm restarts)
        assert dispatch._TIER_VERDICTS[gk.arch.name][0] is False
        assert dispatch.verdicts_revision() > revision_before
        assert rebuilt and rebuilt[0][0] == "gemm"
        assert STATS.snapshot()["quarantines"] == 1

        # demotion survives a save/load round trip on the same toolchain
        store = tmp_path / "verdicts.json"
        assert dispatch.save_tier_verdicts(store) >= 1
        dispatch.reset_dispatch_state()
        assert dispatch.load_tier_verdicts(store) >= 1
        assert dispatch._TIER_VERDICTS[gk.arch.name][0] is False
    finally:
        dispatch.reset_dispatch_state()
        reset_cache()


def test_verdict_store_rejects_other_toolchain(tmp_path):
    dispatch.reset_dispatch_state()
    try:
        assert dispatch.demote_tier("generic_sse", "integrity: test")
        store = tmp_path / "verdicts.json"
        assert dispatch.save_tier_verdicts(store) == 1
        # tamper the toolchain fingerprint: the store must be ignored
        import json
        record = json.loads(store.read_text())
        record["toolchain"] = "cc-from-another-machine"
        store.write_text(json.dumps(record))
        dispatch.reset_dispatch_state()
        assert dispatch.load_tier_verdicts(store) == 0
        assert "generic_sse" not in dispatch._TIER_VERDICTS
    finally:
        dispatch.reset_dispatch_state()


# -- level-2/1 wrappers ------------------------------------------------------


class _FlakyGemv:
    """Wrong answer for the first ``bad`` calls, correct afterwards."""

    tier = "native"

    def __init__(self, bad: int) -> None:
        self.bad = bad
        self.calls = 0

    def __call__(self, a, x, y=None, alpha=1.0, beta=0.0, trans=False):
        self.calls += 1
        out = alpha * (np.asarray(a).T if trans else np.asarray(a)) @ x
        if y is not None and beta != 0.0:
            out = out + beta * np.asarray(y)
        if self.calls <= self.bad:
            out = out + 1000.0
        return out


def test_gemv_wrapper_retry_heals(rng):
    checker = IntegrityChecker(mode="full")
    driver = wrap_driver("gemv", _FlakyGemv(bad=1), checker)
    a = rng.standard_normal((9, 5))
    x = rng.standard_normal(5)
    report = IntegrityReport()
    got = driver(a, x, integrity_report=report)
    assert np.allclose(got, a @ x)
    assert report.mismatches == 1 and report.reference_recomputes == 0


def test_gemv_wrapper_reference_recompute(rng):
    checker = IntegrityChecker(mode="full")
    driver = wrap_driver("gemv", _FlakyGemv(bad=100), checker)
    a = rng.standard_normal((9, 5))
    x = rng.standard_normal(5)
    report = IntegrityReport()
    got = driver(a, x, integrity_report=report)
    assert np.allclose(got, a @ x)
    assert report.reference_recomputes == 1


class _TamperedGer:
    """A rank-1 update that flips one element of A for the first
    ``bad`` calls (``corrupt``-style silent damage), correct afterwards."""

    tier = "native"

    def __init__(self, bad: int) -> None:
        self.bad = bad
        self.calls = 0

    def __call__(self, alpha, x, y, a):
        self.calls += 1
        a += alpha * np.outer(x, y)
        if self.calls <= self.bad:
            a[a.shape[0] // 2, a.shape[1] // 2] += 1000.0
        return a


def test_ger_wrapper_catches_tampered_a_under_full(rng):
    from repro.blas.reference import ref_ger

    x, y = rng.standard_normal(9), rng.standard_normal(14)
    a0 = rng.standard_normal((9, 14))
    for bad, recomputes in ((1, 0), (100, 1)):
        driver = wrap_driver("ger", _TamperedGer(bad),
                             IntegrityChecker(mode="full"))
        report = IntegrityReport()
        a = a0.copy()
        got = driver(-0.75, x, y, a, integrity_report=report)
        assert got is a
        assert np.allclose(a, ref_ger(-0.75, x, y, a0))
        assert report.checked and report.mismatches == 1
        assert report.reference_recomputes == recomputes


def test_ger_wrapper_clean_and_nonfinite_are_not_flagged(rng):
    driver = wrap_driver("ger", _TamperedGer(bad=0),
                         IntegrityChecker(mode="full"))
    x, y = rng.standard_normal(6), rng.standard_normal(11)
    for _ in range(8):
        driver(1.25, x, y, rng.standard_normal((6, 11)))
    y[3] = np.inf   # unverifiable, not corrupt
    with np.errstate(invalid="ignore"):
        driver(1.25, x, y, rng.standard_normal((6, 11)))
    assert STATS.snapshot()["mismatches"] == 0


def test_dger_advances_the_sample_counter_by_exactly_one(rng):
    from repro.blas.api import AugemBLAS

    blas = AugemBLAS(integrity="sample:4", hardened=False)
    inner = _TamperedGer(bad=0)
    blas._ger = wrap_driver("ger", inner, blas.integrity_checker)
    x, y = rng.standard_normal(12), rng.standard_normal(5)
    for call in range(1, 9):
        blas.dger(0.5, x, y, rng.standard_normal((12, 5)))
        assert blas.integrity_checker._calls == call   # not 12 per call
    # 1-in-4 of eight calls were verified, each with one identity
    assert STATS.snapshot()["checks"] == 2
    assert inner.calls == 8


def test_wrap_driver_skips_reference_and_gemm():
    checker = IntegrityChecker(mode="full")
    from repro.blas import reference as ref

    ref_driver = ref.ReferenceGemvDriver()
    assert wrap_driver("gemv", ref_driver, checker) is ref_driver
    gemm = emulated_gemm_driver(threads=1)
    assert wrap_driver("gemm", gemm, checker) is gemm


def test_wrapped_clean_driver_no_false_positives(rng):
    checker = IntegrityChecker(mode="full")
    driver = wrap_driver("gemv", _FlakyGemv(bad=0), checker)
    for _ in range(16):
        a = rng.standard_normal((7, 4))
        x = rng.standard_normal(4)
        assert np.allclose(driver(a, x), a @ x)
    assert STATS.snapshot()["mismatches"] == 0


# -- pool drain (serve shutdown hygiene) -------------------------------------


def test_reset_pools_drains_buffer_spares():
    from repro.blas.threading import PackBufferPool, reset_pools

    pool = PackBufferPool()
    buf = pool.acquire(64)
    pool.release(buf)                      # one 64-element spare cached
    assert reset_pools() >= 64 * 8
    assert pool.stats()["outstanding"] == 0
    # second drain finds nothing left
    assert reset_pools() == 0
