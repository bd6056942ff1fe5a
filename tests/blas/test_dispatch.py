"""Dispatch-chain tests: capability ordering, ISA-probe demotion,
admission rejection, and the quarantine consult."""

import numpy as np
import pytest

from repro.backend.cache import get_cache, reset_cache
from repro.backend.faults import FaultPlan, clear_fault_plan, install_fault_plan
from repro.blas.dispatch import (
    REFERENCE_TIER,
    DispatchChain,
    KernelRejected,
    capability_chain,
    default_chain,
    reset_dispatch_state,
    tier_verdict,
    ulp_error,
)
from repro.blas.level1 import make_axpy
from repro.blas.reference import ReferenceAxpyDriver
from repro.core.framework import Augem, quarantine_key
from repro.isa.arch import (
    FORCE_ARCH_ENV,
    GENERIC_SSE,
    HASWELL,
    PILEDRIVER,
    SANDYBRIDGE,
    SKYLAKE_X,
    detect_host,
    reset_host_cache,
)

from tests.conftest import needs_avx512, needs_cc


@pytest.fixture(autouse=True)
def _clean_dispatch():
    clear_fault_plan()
    reset_dispatch_state()
    reset_host_cache()
    yield
    clear_fault_plan()
    reset_dispatch_state()
    reset_host_cache()
    reset_cache()


def _axpy_builder(tier, loader):
    return make_axpy(arch=tier.arch, loader=loader)


def _check_axpy(driver):
    x = np.arange(1.0, 20.0)
    y = np.full(19, 2.0)
    driver(1.5, x, y)
    assert np.allclose(y, 2.0 + 1.5 * x)


# -- chain shape ------------------------------------------------------------

@pytest.mark.parametrize("top,names", [
    (SKYLAKE_X, ["skylake_x", "haswell", "sandybridge", "generic_sse",
                 "reference"]),
    (HASWELL, ["haswell", "sandybridge", "generic_sse", "reference"]),
    (PILEDRIVER, ["piledriver", "sandybridge", "generic_sse", "reference"]),
    (SANDYBRIDGE, ["sandybridge", "generic_sse", "reference"]),
    (GENERIC_SSE, ["generic_sse", "reference"]),
], ids=lambda v: v.name if hasattr(v, "name") else "")
def test_capability_chain_orders_by_rank(top, names):
    chain = capability_chain(top)
    assert [t.name for t in chain] == names
    assert chain[-1] is REFERENCE_TIER
    assert chain[-1].is_reference and chain[-1].arch is None
    assert all(not t.is_reference for t in chain[:-1])


def test_default_chain_tracks_host():
    chain = default_chain()
    assert chain[0].arch is detect_host()
    assert chain[-1] is REFERENCE_TIER


def test_default_chain_forced_to_reference(monkeypatch):
    monkeypatch.setenv(FORCE_ARCH_ENV, "reference")
    reset_host_cache()
    assert default_chain() == [REFERENCE_TIER]


def test_tier_describe_mentions_the_isa():
    assert "numpy" in REFERENCE_TIER.describe()
    assert "AVX" in capability_chain(SANDYBRIDGE)[0].describe()


def test_reference_tier_verdict_is_always_ok():
    ok, _ = tier_verdict(REFERENCE_TIER)
    assert ok


# -- verdict memoization under concurrency ----------------------------------

def test_probe_verdict_memoized_under_concurrent_threads(monkeypatch):
    """Threads racing the first ``verify_tier`` run the sandboxed probe
    exactly once; everyone observes the winner's memoized verdict."""
    import threading

    calls = []
    release = threading.Event()

    def fake_probe(self, tier):
        calls.append(tier.arch.name)
        # hold the verdict lock long enough that every racer is queued
        # behind it before the verdict lands
        release.wait(timeout=5.0)
        return True, "ok"

    monkeypatch.setattr(DispatchChain, "_probe_tier", fake_probe)
    chain = DispatchChain(top=GENERIC_SSE)
    tier = chain.tiers[0]
    assert not tier.is_reference

    n = 8
    gate = threading.Barrier(n)
    results = [None] * n

    def racer(i):
        gate.wait(timeout=5.0)
        if i == 0:
            # let the pack pile onto the lock, then let the probe finish
            threading.Timer(0.05, release.set).start()
        results[i] = chain.verify_tier(tier)

    threads = [threading.Thread(target=racer, args=(i,)) for i in range(n)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=10.0)
    assert not any(t.is_alive() for t in threads), "verify_tier deadlocked"

    assert calls == ["generic_sse"], "probe must execute exactly once"
    assert results == [True] * n
    ok, detail = tier_verdict(tier)
    assert ok and detail == "ok"
    # later callers hit the memo without touching the probe path
    assert chain.verify_tier(tier)
    assert len(calls) == 1


def test_concurrent_probes_of_distinct_tiers_each_run_once(monkeypatch):
    import threading

    calls = []

    def fake_probe(self, tier):
        calls.append(tier.arch.name)
        return True, "ok"

    monkeypatch.setattr(DispatchChain, "_probe_tier", fake_probe)
    chain = DispatchChain(top=SANDYBRIDGE)
    native = [t for t in chain.tiers if not t.is_reference]
    assert len(native) >= 2

    n = 12
    gate = threading.Barrier(n)

    def racer(i):
        gate.wait(timeout=5.0)
        assert chain.verify_tier(native[i % len(native)])

    threads = [threading.Thread(target=racer, args=(i,)) for i in range(n)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=10.0)
    assert sorted(calls) == sorted(t.arch.name for t in native)


# -- ulp_error --------------------------------------------------------------

def test_ulp_error_basics():
    a = np.array([1.0, 2.0, 3.0])
    assert ulp_error(a, a) == 0.0
    assert ulp_error(a, np.array([1.0, 2.0])) == np.inf
    assert ulp_error(np.zeros(0), np.zeros(0)) == 0.0
    bumped = a.copy()
    bumped[1] = np.nextafter(bumped[1], np.inf)
    assert 0.0 < ulp_error(bumped, a) <= 1.0


# -- building down the chain ------------------------------------------------

def test_reference_only_chain_needs_no_toolchain(monkeypatch):
    monkeypatch.setenv(FORCE_ARCH_ENV, "reference")
    reset_host_cache()
    chain = DispatchChain()
    assert chain.tiers == [REFERENCE_TIER]

    def exploding_builder(tier, loader):
        raise AssertionError("native builder must not run on reference")

    driver, info = chain.build_routine("axpy", exploding_builder)
    assert isinstance(driver, ReferenceAxpyDriver)
    assert info.tier == "reference" and not info.demoted
    assert "axpy" in info.describe()
    _check_axpy(driver)


@needs_cc
def test_native_tier_admits_and_serves():
    chain = DispatchChain()
    driver, info = chain.build_routine("axpy", _axpy_builder)
    assert info.tier == chain.top.name
    assert not info.demoted and info.attempts == []
    ok, detail = tier_verdict(chain.top)
    assert ok and detail == "ok"
    _check_axpy(driver)


@needs_cc
def test_isa_probe_crash_demotes_to_reference():
    # every probe kernel is named isa_probe_<arch>, so this faults the
    # probe of every native tier and the chain must land on reference
    install_fault_plan(FaultPlan.parse("segv@isa_probe"))
    chain = DispatchChain()
    driver, info = chain.build_routine("axpy", _axpy_builder)
    assert info.tier == "reference" and info.demoted
    assert len(info.attempts) == len(chain.tiers) - 1
    assert all("ISA probe failed" in a for a in info.attempts)
    ok, _ = tier_verdict(chain.top)
    assert not ok
    _check_axpy(driver)


@needs_cc
def test_admission_failure_demotes_one_tier():
    # fault only the first routine kernel (the probe kernels have a
    # different symbol); an early-ret axpy computes nothing, so the
    # admission probe sees garbage and must reject the top tier
    install_fault_plan(FaultPlan.parse("wrong@daxpy_kernel:1"))
    chain = DispatchChain()
    driver, info = chain.build_routine("axpy", _axpy_builder)
    assert info.demoted
    assert info.tier == chain.tiers[1].name
    assert len(info.attempts) == 1
    assert "failed admission" in info.attempts[0]
    _check_axpy(driver)


@needs_cc
def test_ger_admission_failure_demotes_dger_and_leaves_daxpy_native(rng):
    from repro.blas.api import AugemBLAS
    from repro.blas.reference import ReferenceGerDriver, ref_ger

    # chain [generic_sse, reference]; builds are numbered per chain:
    # #0 the ISA probe, #1 the axpy kernel, #2 the ger kernel
    install_fault_plan(FaultPlan.parse("wrong@#2"))
    blas = AugemBLAS(arch=GENERIC_SSE)
    x, y = rng.standard_normal(19), rng.standard_normal(19)
    assert np.allclose(blas.daxpy(1.5, x, y.copy()), y + 1.5 * x)
    a = rng.standard_normal((19, 19))
    assert np.allclose(blas.dger(0.5, x, y, a.copy()),
                       ref_ger(0.5, x, y, a))
    report = blas.dispatch_report()
    assert report["ger"].tier == "reference" and report["ger"].demoted
    assert "failed admission" in report["ger"].attempts[0]
    assert isinstance(blas.ger_driver, ReferenceGerDriver)
    assert report["axpy"].tier == "generic_sse"
    assert not report["axpy"].demoted


def test_reference_chain_serves_ger(monkeypatch, rng):
    from repro.blas.reference import ReferenceGerDriver, ref_ger

    monkeypatch.setenv(FORCE_ARCH_ENV, "reference")
    reset_host_cache()
    driver, info = DispatchChain().build_routine(
        "ger", lambda tier, loader: pytest.fail("native builder ran"))
    assert isinstance(driver, ReferenceGerDriver)
    assert info.family == "ger" and info.tier == "reference"
    a = rng.standard_normal((4, 7))
    x, y = rng.standard_normal(4), rng.standard_normal(7)
    assert np.allclose(driver(2.0, x, y, a.copy()), ref_ger(2.0, x, y, a))


@needs_cc
def test_quarantined_kernel_is_never_loaded(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
    reset_cache()
    top = detect_host()
    gk = Augem(arch=top).generate_named("axpy")
    get_cache().store_quarantine(
        quarantine_key("axpy", top, gk),
        {"kernel": "axpy", "arch": top.name, "error": "synthetic quarantine"})
    chain = DispatchChain()
    driver, info = chain.build_routine("axpy", _axpy_builder)
    assert info.demoted
    assert info.tier == chain.tiers[1].name
    assert "quarantined" in info.attempts[0]
    _check_axpy(driver)


# -- the AVX-512 tier on a host that has it ------------------------------------

def _dgemm_shapes(rng):
    # a gemm_square-class block and a ragged one with partial 24x4 tiles
    return [(rng.standard_normal((m, k)), rng.standard_normal((k, n)),
             rng.standard_normal((m, n)))
            for m, k, n in [(192, 256, 160), (37, 199, 61)]]


@needs_avx512
def test_zmm_probe_sigill_serves_haswell_with_identical_bits(monkeypatch,
                                                            rng):
    from repro.blas.api import AugemBLAS

    operands = _dgemm_shapes(rng)
    blas = AugemBLAS()
    want = [blas.dgemm(a, b, c, alpha=1.25, beta=0.5) for a, b, c in operands]
    assert blas.dispatch_report()["gemm"].tier == "skylake_x"

    reset_dispatch_state()
    # build #0 of the chain is the top tier's ISA probe: it hits ud2
    monkeypatch.setenv("REPRO_FAULT_INJECT", "ill@#0")
    blas = AugemBLAS()
    got = [blas.dgemm(a, b, c, alpha=1.25, beta=0.5) for a, b, c in operands]
    info = blas.dispatch_report()["gemm"]
    assert info.tier == "haswell" and info.demoted
    assert info.attempts[0].startswith("skylake_x: ISA probe failed")
    ok, detail = tier_verdict(blas.chain.top)
    assert not ok and detail.startswith("crashed")
    # same kc slices, same ascending-k FMA chain per element: same bits
    for g, w in zip(got, want):
        assert np.array_equal(g, w)


@needs_avx512
def test_shuf_layout_at_512_bits_demotes_to_haswell(rng):
    from repro.blas.api import AugemBLAS

    blas = AugemBLAS(layout="shuf")
    a, b = rng.standard_normal((40, 60)), rng.standard_normal((60, 30))
    assert np.allclose(blas.dgemm(a, b), a @ b)
    info = blas.dispatch_report()["gemm"]
    assert info.family == "gemm_shuf"
    assert info.tier == "haswell" and info.demoted
    assert info.attempts[0].startswith("skylake_x: CodegenError")
    assert "Shuf method" in info.attempts[0]
    # the tier itself stays trusted: only this routine walked past it
    assert tier_verdict(blas.chain.top) == (True, "ok")
