"""Top-level CLI tests (python -m repro ...)."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.__main__ import main


def test_list_archs(capsys):
    assert main(["list-archs"]) == 0
    out = capsys.readouterr().out
    for name in ("generic_sse", "haswell", "piledriver", "sandybridge"):
        assert name in out
    assert "<- host" in out


def test_generate_to_stdout(capsys):
    assert main(["generate", "axpy", "--arch", "generic_sse"]) == 0
    out = capsys.readouterr().out
    assert ".globl daxpy_kernel" in out
    assert "movddup" in out or "movupd" in out


def test_generate_to_file_and_validate(tmp_path):
    path = tmp_path / "k.S"
    assert main(["generate", "gemm", "--arch", "piledriver",
                 "-o", str(path)]) == 0
    assert "vfmaddpd" in path.read_text()
    assert main(["validate", str(path), "--kernel", "gemm"]) == 0


def test_generate_custom_config(tmp_path):
    path = tmp_path / "dot.S"
    assert main(["generate", "dot", "--unroll", "i=8", "--split", "res=8",
                 "--arch", "generic_sse", "-o", str(path)]) == 0
    assert main(["validate", str(path), "--kernel", "dot"]) == 0


def test_generate_and_validate_ger_on_every_isa(tmp_path):
    for arch in ("generic_sse", "sandybridge", "haswell", "piledriver"):
        path = tmp_path / f"ger_{arch}.S"
        assert main(["generate", "ger", "--arch", arch, "-o", str(path)]) == 0
        assert main(["validate", str(path), "--kernel", "ger"]) == 0


def test_generate_unroll_jam_args(tmp_path):
    path = tmp_path / "g.S"
    assert main(["generate", "gemm", "--unroll-jam", "j=2",
                 "--unroll-jam", "i=4", "--arch", "generic_sse",
                 "-o", str(path)]) == 0
    assert main(["validate", str(path), "--kernel", "gemm",
                 "--m", "8"]) == 0


def test_validate_detects_wrong_kernel(tmp_path, capsys):
    path = tmp_path / "a.S"
    main(["generate", "axpy", "--arch", "generic_sse", "-o", str(path)])
    # validating an AXPY kernel as DOT must fail (different semantics)
    rc = main(["validate", str(path), "--kernel", "dot"])
    assert rc == 1


def test_bad_split_syntax():
    with pytest.raises(SystemExit):
        main(["generate", "dot", "--split", "res:8"])


def test_verbose_prints_low_level_c(tmp_path, capsys):
    main(["generate", "axpy", "--arch", "generic_sse", "-v",
          "-o", str(tmp_path / "x.S")])
    err = capsys.readouterr().err
    assert "low-level C" in err


def test_cache_stats_exits_zero_when_disabled(capsys, monkeypatch):
    from repro.backend.cache import reset_cache

    monkeypatch.setenv("REPRO_CACHE_DIR", "off")
    reset_cache()
    try:
        assert main(["cache", "stats"]) == 0
        out = capsys.readouterr().out
        assert "(disabled)" in out
        assert main(["cache", "clear"]) == 0
    finally:
        reset_cache()


def test_cache_stats_and_clear_on_real_store(capsys, tmp_path, monkeypatch):
    from repro.backend.cache import get_cache, reset_cache

    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "store"))
    reset_cache()
    try:
        get_cache().store_tuning("a" * 24, {"gflops": 1.0})
        assert main(["cache", "stats"]) == 0
        out = capsys.readouterr().out
        assert "tuning records:   1" in out
        assert main(["cache", "clear"]) == 0
        assert "cleared 1" in capsys.readouterr().out
        assert main(["cache", "stats"]) == 0
        assert "tuning records:   0" in capsys.readouterr().out
    finally:
        reset_cache()


def test_cache_stats_smoke_real_invocation():
    """CI smoke check: the real command exits 0 with the cache disabled."""
    env = dict(os.environ, REPRO_CACHE_DIR="off",
               PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    proc = subprocess.run([sys.executable, "-m", "repro", "cache", "stats"],
                          capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    assert "cache root" in proc.stdout


def test_cache_stats_reports_budget_and_disk_health(capsys, tmp_path,
                                                    monkeypatch):
    from repro.backend import fsio
    from repro.backend.cache import reset_cache

    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "store"))
    monkeypatch.setenv("REPRO_CACHE_MAX_BYTES", "1m")
    reset_cache()
    fsio.reset_disk_health()
    try:
        assert main(["cache", "stats"]) == 0
        out = capsys.readouterr().out
        assert "bytes on disk" in out
        assert "size budget:      1048576 bytes (headroom 1048576)" in out
        assert "disk health:      ok" in out
        assert "io errors=0" in out
    finally:
        reset_cache()
        fsio.reset_disk_health()


def test_cache_stats_cumulative_line(capsys, tmp_path, monkeypatch):
    """The whole ``cumulative:`` line for a scripted store: one process's
    counters flushed to stats.json plus the live process's."""
    from repro.backend.cache import get_cache, reset_cache

    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "store"))
    reset_cache()
    try:
        cache = get_cache()
        cache.store_tuning("a" * 24, {"gflops": 1.0})
        cache._record_path("tuning", "a" * 24).write_text("{rotted")
        assert cache.load_tuning("a" * 24) is None
        cache.store_tuning("b" * 24, {"gflops": 2.0})
        reset_cache()  # flushes these counters into stats.json
        cache = get_cache()
        assert cache.load_tuning("b" * 24)["gflops"] == 2.0
        cache.store_quarantine("c" * 24, {"error": "SIGILL"})
        assert cache.load_quarantine("c" * 24)["error"] == "SIGILL"
        assert main(["cache", "stats"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert [line for line in lines if line.startswith("cumulative:")] \
            == ["cumulative:       hits=0 (mem=0 disk=0) misses=0 "
                "evictions=1 errors=1 puts=0 tuning hits=1 puts=2 "
                "quarantine hits=1 puts=1 io errors=0 gc evictions=0 "
                "lock timeouts=0 toolchain calls=0 retries=0 "
                "build time=0.00s"]
    finally:
        reset_cache()


def test_integrity_show_counter_lines(capsys, rng):
    """``integrity show`` prints every counter, in ``FIELDS`` order, with
    the values of one checked call that healed on its retry."""
    from repro.blas.integrity import (IntegrityChecker, IntegrityStats,
                                      reset_integrity_state, wrap_driver)

    calls = []

    def gemv_wrong_once(a, x, y=None, alpha=1.0, beta=0.0, trans=False):
        calls.append(1)
        return alpha * (a @ x) + (1000.0 if len(calls) == 1 else 0.0)

    names = ["checks", "mismatches", "retries", "reference_recomputes",
             "quarantines", "overhead_ns"]
    assert list(IntegrityStats.FIELDS) == names
    reset_integrity_state()
    try:
        driver = wrap_driver("gemv", gemv_wrong_once,
                             IntegrityChecker(mode="full"))
        a, x = rng.standard_normal((9, 5)), rng.standard_normal(5)
        assert np.allclose(driver(a, x), a @ x)
        assert main(["integrity", "show"]) == 0
        out = capsys.readouterr().out.splitlines()
        counters = [line for line in out if line.split(":")[0] in names]
        assert counters[:5] == ["checks:               1",
                                "mismatches:           1",
                                "retries:              1",
                                "reference_recomputes: 0",
                                "quarantines:          0"]
        assert counters[5].startswith("overhead_ns:          ")
        assert int(counters[5].split()[1]) > 0
        assert len(counters) == 6
    finally:
        reset_integrity_state()


def test_cache_scrub_and_gc_on_disabled_store(capsys, monkeypatch):
    from repro.backend.cache import reset_cache

    monkeypatch.setenv("REPRO_CACHE_DIR", "off")
    reset_cache()
    try:
        assert main(["cache", "scrub"]) == 0
        assert "store is clean" in capsys.readouterr().out
        assert main(["cache", "gc", "--max-bytes", "1m"]) == 0
        assert "evicted 0" in capsys.readouterr().out
        # gc with no budget anywhere is a usage error, not a guess
        assert main(["cache", "gc"]) == 2
    finally:
        reset_cache()


def test_dispatch_show_lists_chain(capsys):
    from repro.blas.dispatch import reset_dispatch_state

    reset_dispatch_state()
    assert main(["dispatch", "show", "--arch", "generic_sse"]) == 0
    out = capsys.readouterr().out
    assert "generic_sse" in out and "reference" in out
    assert "unprobed" in out  # 'show' must not execute probes
    families = next(line for line in out.splitlines()
                    if line.startswith("routine families:"))
    assert {"gemm", "gemv", "ger", "axpy", "dot", "scal"} \
        <= set(families.split(":")[1].split())


def test_serve_status_reports_down_without_daemon(capsys, tmp_path,
                                                  monkeypatch):
    monkeypatch.setenv("REPRO_SERVE_DIR", str(tmp_path / "rt"))
    assert main(["serve", "status"]) == 2
    out = capsys.readouterr().out
    assert "unreachable" in out
    assert str(tmp_path / "rt") in out


def test_serve_stop_without_daemon(capsys, tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_SERVE_DIR", str(tmp_path / "rt"))
    assert main(["serve", "stop"]) == 2
    assert "not running" in capsys.readouterr().out


def test_serve_smoke_real_invocation(tmp_path):
    """CI smoke check: `serve status` against a dead runtime dir exits 2
    without tracebacks; the full lifecycle lives in tests/serve."""
    env = dict(os.environ, REPRO_SERVE_DIR=str(tmp_path / "rt"),
               REPRO_CACHE_DIR="off",
               PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    proc = subprocess.run([sys.executable, "-m", "repro", "serve", "status"],
                          capture_output=True, text=True, env=env)
    assert proc.returncode == 2, proc.stderr
    assert "unreachable" in proc.stdout
    assert "Traceback" not in proc.stderr


def test_dispatch_probe_reports_serving_tier(capsys):
    from repro.blas.dispatch import reset_dispatch_state

    reset_dispatch_state()
    assert main(["dispatch", "probe", "--arch", "generic_sse"]) == 0
    out = capsys.readouterr().out
    assert "serving tier:" in out
    # either the native tier verified or it was demoted to reference —
    # both are valid outcomes (a toolchain-free host demotes)
    assert "VERIFIED" in out or "DEMOTED" in out
    reset_dispatch_state()


def test_tune_choices_are_the_tuned_routine_rows():
    from repro.__main__ import TUNE_CHOICES
    from repro.tuning import CANDIDATE_SPACES

    assert set(TUNE_CHOICES) - {"sessions"} == set(CANDIDATE_SPACES)


def test_runtime_imports_leave_the_tuner_unloaded():
    """The facade, client and worker never import the tuner (a cold CLI
    or daemon start would pay for it)."""
    code = ("import sys, repro.blas.api, repro.blas.client, "
            "repro.serve.server; "
            "print(sorted(m for m in sys.modules "
            "if m.startswith('repro.tuning')))")
    env = dict(os.environ,
               PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    out = subprocess.run([sys.executable, "-c", code], env=env,
                         capture_output=True, text=True, check=True).stdout
    assert out.strip() == "[]"
