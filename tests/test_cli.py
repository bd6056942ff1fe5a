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
