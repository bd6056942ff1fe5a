"""Tuning space and search tests."""

import subprocess
import sys
from pathlib import Path

import pytest

from repro.isa.arch import GENERIC_SSE, HASWELL
from repro.transforms.pipeline import OptimizationConfig
from repro.tuning.space import (
    Candidate,
    axpy_candidates,
    candidates_for,
    dot_candidates,
    gemm_candidates,
    gemv_candidates,
    ger_candidates,
)
from repro.tuning.search import tune_kernel

from tests.conftest import needs_cc


def test_gemm_space_nonempty_and_valid():
    cands = gemm_candidates(HASWELL)
    assert len(cands) >= 10
    for c in cands:
        assert isinstance(c.config, OptimizationConfig)
        nu = dict(c.config.unroll_jam).get("j", 1)
        mu = dict(c.config.unroll_jam).get("i", 1)
        # the space pre-filters register-impossible shapes
        assert nu * (mu // 4) + mu // 4 + 1 <= 16


def test_gemm_space_shuf_candidates_on_shuf_layout():
    # both 2-lane (SSE) and 4-lane (AVX) Shuf methods are in the space
    assert any(c.strategy == "shuf"
               for c in gemm_candidates(GENERIC_SSE, layout="shuf"))
    assert any(c.strategy == "shuf"
               for c in gemm_candidates(HASWELL, layout="shuf"))
    # ...but never on the dup layout (B lanes are not contiguous there)
    assert not any(c.strategy == "shuf"
                   for c in gemm_candidates(HASWELL, layout="dup"))


def test_vector_spaces_scale_with_lanes():
    for maker in (gemv_candidates, ger_candidates, axpy_candidates,
                  dot_candidates):
        sse = maker(GENERIC_SSE)
        avx = maker(HASWELL)
        assert sse and avx


def test_dot_candidates_always_split():
    for c in dot_candidates(HASWELL):
        assert c.config.split, "DOT must split its accumulator"
        (var, acc, ways) = c.config.split[0]
        assert ways == dict(c.config.unroll)["i"]


def test_candidates_for_dispatch():
    assert candidates_for("axpy", HASWELL)
    with pytest.raises(KeyError):
        candidates_for("cholesky", HASWELL)


def test_candidate_describe():
    c = Candidate(OptimizationConfig(unroll=(("i", 8),)), "auto")
    assert "u(i)=8" in c.describe()


@needs_cc
def test_tune_kernel_picks_a_valid_winner():
    # tiny candidate list keeps this fast
    cands = [
        Candidate(OptimizationConfig(unroll=(("i", 4),))),
        Candidate(OptimizationConfig(unroll=(("i", 8),))),
    ]
    result = tune_kernel("axpy", candidates=cands, batches=2)
    assert result.best in cands
    assert result.best_gflops > 0
    assert len(result.trials) == 2
    assert "tuning axpy" in result.report()


def test_ger_space_is_unroll_j_by_prefetch_a():
    n = HASWELL.doubles_per_vector
    cands = candidates_for("ger", HASWELL)
    assert [dict(c.config.unroll)["j"] for c in cands[::2]] \
        == [n, 2 * n, 4 * n, 8 * n]
    assert {tuple(sorted((c.config.prefetch_distance or {})))
            for c in cands} == {(), ("A",)}


@needs_cc
def test_tune_ger_validates_and_times_candidates():
    cands = [
        Candidate(OptimizationConfig(unroll=(("j", 8),))),
        Candidate(OptimizationConfig(unroll=(("j", 16),),
                                     prefetch_distance={"A": 64})),
    ]
    result = tune_kernel("ger", candidates=cands, batches=2)
    assert result.best in cands and result.best_gflops > 0
    assert all(t.category == "ok" for t in result.trials)


@pytest.fixture
def tuning_store(tmp_path, monkeypatch):
    """A fresh persistent store so tuning tests exercise reuse."""
    from repro.backend.cache import reset_cache
    from repro.backend.compiler import reset_so_cache

    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "store"))
    reset_cache()
    reset_so_cache()
    yield tmp_path / "store"
    reset_cache()
    reset_so_cache()


@needs_cc
def test_parallel_tuning_matches_serial_winner(tuning_store):
    """jobs>1 must pick the same best candidate as the serial search."""
    from repro.backend.cache import get_cache

    cands = [
        Candidate(OptimizationConfig(unroll=(("i", 4),))),
        Candidate(OptimizationConfig(unroll=(("i", 8),))),
        Candidate(OptimizationConfig(unroll_jam=(("j", 8), ("i", 16)))),  # fails
    ]
    serial = tune_kernel("axpy", candidates=cands, batches=2)
    parallel = tune_kernel("axpy", candidates=cands, batches=2, jobs=2)
    assert parallel.best is serial.best
    assert parallel.best_gflops == serial.best_gflops
    # the second search replayed every persisted measurement (the failing
    # candidate fails again instead of being replayed)
    ok = [t for t in parallel.trials if t.gflops >= 0]
    assert ok and all(t.cached for t in ok)
    assert [t.candidate for t in parallel.trials] == cands  # order kept
    assert get_cache().stats.tuning_hits == len(ok)


@needs_cc
def test_warm_retune_invokes_no_toolchain(tuning_store):
    """Re-tuning with a warm store must rebuild and re-time nothing."""
    from repro.backend.cache import get_cache
    from repro.backend.compiler import reset_so_cache

    cands = [Candidate(OptimizationConfig(unroll=(("i", 4),)))]
    tune_kernel("axpy", candidates=cands, batches=2)
    reset_so_cache()  # simulate a fresh process
    before = get_cache().stats.toolchain_invocations
    result = tune_kernel("axpy", candidates=cands, batches=2)
    assert get_cache().stats.toolchain_invocations == before
    assert result.trials[0].cached


@needs_cc
def test_retune_without_reuse_retimes(tuning_store):
    cands = [Candidate(OptimizationConfig(unroll=(("i", 4),)))]
    tune_kernel("axpy", candidates=cands, batches=2)
    result = tune_kernel("axpy", candidates=cands, batches=2, reuse=False)
    assert not result.trials[0].cached
    assert result.best_gflops > 0


@needs_cc
def test_timed_axpy_uses_scratch_not_shared_y(tuning_store, monkeypatch):
    """The timing loop must never mutate the shared validation vector.

    Historically ``measure`` was handed ``lambda: native(n, 1.5, x, y)``
    with the *shared* ``y``, so thousands of timed calls accumulated
    ``1.5*x`` into the vector every later candidate validates against.
    Capture the timed closures for two candidates: they must share exactly
    one vector-length array (the read-only ``x``) — the accumulated-into
    target has to be a fresh per-candidate scratch.
    """
    import numpy as np

    from repro.backend.timer import measure as real_measure

    captured = []
    held = []  # keep the arrays alive so a freed scratch buffer cannot
               # be reallocated at the same address (id reuse would make
               # the per-candidate sets spuriously intersect)

    def spy_measure(fn, batches=5, **kw):
        # snapshot at call time: the closure cells are shared across loop
        # iterations, so inspecting later would see the last binding
        arrays = [c.cell_contents for c in fn.__closure__ or ()
                  if isinstance(c.cell_contents, np.ndarray)
                  and c.cell_contents.size == 1 << 16]
        held.extend(arrays)
        captured.append({id(a) for a in arrays})
        return real_measure(fn, batches=1, calls_per_batch=1)

    monkeypatch.setattr("repro.tuning.search.measure", spy_measure)
    cand = Candidate(OptimizationConfig(unroll=(("i", 4),)))
    result = tune_kernel("axpy", candidates=[cand, cand], batches=3,
                         reuse=False)
    assert all(t.gflops > 0 for t in result.trials), [
        t.error for t in result.trials]
    assert len(captured) == 2
    assert len(captured[0] & captured[1]) == 1


_TUNE_CHILD = r"""
from repro.tuning.search import tune_kernel
from repro.tuning.space import Candidate
from repro.transforms.pipeline import OptimizationConfig
from repro.backend.cache import get_cache
cands = [Candidate(OptimizationConfig(unroll=(("i", 4),))),
         Candidate(OptimizationConfig(unroll=(("i", 8),)))]
r = tune_kernel("axpy", candidates=cands, batches=2, jobs=2)
print("RESULT", get_cache().stats.toolchain_invocations, r.best.describe())
"""


@needs_cc
def test_fresh_process_retune_reuses_on_disk_artifacts(tmp_path):
    """Acceptance: a second tune run in a fresh process is zero-toolchain."""
    env = {"REPRO_CACHE_DIR": str(tmp_path / "store"),
           "PYTHONPATH": str(Path(__file__).resolve().parents[2] / "src"),
           "PATH": "/usr/bin:/bin", "HOME": str(tmp_path)}
    outs = []
    for _ in range(2):
        proc = subprocess.run([sys.executable, "-c", _TUNE_CHILD],
                              capture_output=True, text=True, env=env)
        assert proc.returncode == 0, proc.stderr
        outs.append(proc.stdout.strip().splitlines()[-1].split(maxsplit=2))
    assert int(outs[0][1]) > 0    # cold run drove the toolchain
    assert int(outs[1][1]) == 0   # warm run: zero toolchain invocations
    assert outs[0][2] == outs[1][2]  # and the same winner


@needs_cc
def test_tune_kernel_records_failures_and_survives():
    # an over-aggressive unroll that blows the register file must be
    # recorded as a failed trial, not crash the search
    cands = [
        Candidate(OptimizationConfig(unroll_jam=(("j", 8), ("i", 16)))),
        Candidate(OptimizationConfig(unroll_jam=(("j", 2), ("i", 8)))),
    ]
    result = tune_kernel("gemm", candidates=cands, batches=2)
    assert result.best is cands[1]
    failed = [t for t in result.trials if t.gflops < 0]
    assert len(failed) == 1 and failed[0].error
    # the exception class survives into the error string (crash triage)
    assert ": " in failed[0].error
    assert failed[0].category == "failed"


# -- fault isolation ----------------------------------------------------------


@pytest.fixture
def fault_env(monkeypatch):
    """Set a fault plan via the env (what the CLI / bench harness use)."""
    from repro.backend import faults

    faults.clear_fault_plan()

    def arm(spec):
        monkeypatch.setenv("REPRO_FAULT_INJECT", spec)

    yield arm
    faults.clear_fault_plan()


_AXPY_CANDS = [Candidate(OptimizationConfig(unroll=(("i", n),)))
               for n in (2, 4, 8, 16)]


@needs_cc
def test_isolated_tuning_survives_crash_hang_and_toolchain_fault(
        tuning_store, fault_env):
    """Acceptance: SIGSEGV + hang + toolchain failure in three distinct
    candidates; the search still returns a valid winner with all three
    recorded as categorized failed trials."""
    # index matches (#N) are seen by asm-stage faults only — address the
    # third candidate's *build* by its deterministic symbol name instead
    from repro.core.framework import stable_kernel_name
    from repro.isa.arch import detect_host

    name2 = stable_kernel_name("axpy", detect_host(),
                               _AXPY_CANDS[2].config,
                               _AXPY_CANDS[2].strategy)
    fault_env(f"segv@#0;hang@#1;toolchain@{name2}")

    result = tune_kernel("axpy", candidates=_AXPY_CANDS, batches=2,
                         isolation="fork", trial_timeout=1.0)
    assert result.best is _AXPY_CANDS[3]
    assert result.best_gflops > 0
    cats = [t.category for t in result.trials]
    assert cats[0] == "crashed" and "SIG" in result.trials[0].error
    assert cats[1] == "timeout"
    assert cats[2] == "failed" and "ToolchainError" in result.trials[2].error
    assert cats[3] == "ok"
    counts = result.failure_counts()
    assert counts == {"failed": 1, "crashed": 1, "timeout": 1,
                      "quarantined": 0}
    # every category is surfaced in the human report
    rep = result.report()
    assert "crashed=1" in rep and "timeout=1" in rep and "failed=1" in rep


@needs_cc
def test_quarantine_skips_crashers_on_retune(tuning_store, fault_env):
    """Acceptance: a second run must not re-execute known crashers."""
    from repro.backend.cache import get_cache

    fault_env("segv@#0;hang@#1")
    first = tune_kernel("axpy", candidates=_AXPY_CANDS, batches=2,
                        isolation="fork", trial_timeout=1.0)
    assert [t.category for t in first.trials[:2]] == ["crashed", "timeout"]
    assert get_cache().stats.quarantine_puts == 2

    import time

    t0 = time.monotonic()
    second = tune_kernel("axpy", candidates=_AXPY_CANDS, batches=2,
                         isolation="fork", trial_timeout=30.0)
    elapsed = time.monotonic() - t0
    cats = [t.category for t in second.trials]
    assert cats[:2] == ["quarantined", "quarantined"]
    assert second.trials[0].error.startswith("quarantined:")
    assert second.best in _AXPY_CANDS[2:] and second.best_gflops > 0
    # the hang candidate was *skipped*, not re-run: with a 30s trial
    # budget, re-executing it would have taken >= 30s
    assert elapsed < 25
    assert get_cache().stats.quarantine_hits == 2
    # cache clear releases the quarantine: the crasher executes (and
    # crashes) again instead of being skipped
    get_cache().clear()
    fault_env("segv@#0")
    third = tune_kernel("axpy", candidates=_AXPY_CANDS[:1] + _AXPY_CANDS[3:],
                        batches=2, isolation="fork", trial_timeout=1.0)
    assert third.trials[0].category == "crashed"
    assert third.trials[1].category == "ok"


@needs_cc
def test_wrong_result_fault_fails_validation_not_process(tuning_store,
                                                         fault_env):
    """An injected early-ret kernel computes nothing: validation must
    reject it in both isolation modes, with identical classification."""
    for iso in ("fork", "none"):
        fault_env("wrong@#0")
        result = tune_kernel("axpy", candidates=_AXPY_CANDS[:2], batches=2,
                             isolation=iso, reuse=False)
        assert result.trials[0].category == "failed"
        assert "validation failed" in result.trials[0].error
        assert result.best is _AXPY_CANDS[1]


@needs_cc
def test_isolation_none_matches_fork_winner(tuning_store, monkeypatch):
    # script the timings: the invariant under test is that the isolation
    # mode does not change the search outcome, not that two wall-clock
    # measurements of near-identical unrolls agree under load
    script = []

    class _Scripted:
        def __init__(self, gf):
            self._gf = gf

        def gflops(self, flops):
            return self._gf

    monkeypatch.setattr(
        "repro.tuning.search.measure",
        lambda fn, batches=5, **kw: _Scripted(script.pop(0)))
    script[:] = [1.0, 2.0]
    forked = tune_kernel("axpy", candidates=_AXPY_CANDS[:2], batches=2,
                         isolation="fork", reuse=False)
    script[:] = [1.0, 2.0]
    inline = tune_kernel("axpy", candidates=_AXPY_CANDS[:2], batches=2,
                         isolation="none", reuse=False)
    assert forked.best is inline.best
    assert forked.best is _AXPY_CANDS[1]
    assert all(t.category == "ok" for t in forked.trials + inline.trials)


def test_report_includes_category_summary_line():
    from repro.isa.arch import HASWELL
    from repro.tuning.search import TrialResult, TuningResult

    c = Candidate(OptimizationConfig(unroll=(("i", 4),)))
    r = TuningResult(kernel="axpy", arch=HASWELL, best=c, best_gflops=2.0,
                     trials=[
                         TrialResult(c, 2.0),
                         TrialResult(c, -1.0, error="SIGSEGV in candidate x",
                                     category="crashed"),
                         TrialResult(c, -1.0, error="quarantined: earlier",
                                     category="quarantined"),
                     ])
    rep = r.report()
    assert "3 trials: ok=1 failed=0 crashed=1 timeout=0 quarantined=1" in rep
    assert "crashed: SIGSEGV in candidate x" in rep


@needs_cc
def test_tune_kernel_never_writes_stdout(capsys):
    """stdout belongs to machine-readable output; quiet tuning must emit
    nothing there, and verbose narration goes to stderr (via obs.progress),
    never stdout."""
    cands = [Candidate(OptimizationConfig(unroll=(("i", n),)))
             for n in (2, 4)]
    tune_kernel("axpy", candidates=cands, batches=1, reuse=False,
                verbose=False)
    captured = capsys.readouterr()
    assert captured.out == ""

    tune_kernel("axpy", candidates=cands, batches=1, reuse=False,
                verbose=True)
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "u(i)=2" in captured.err  # narration still reaches the user
