"""Shared fixtures and helpers for the test suite."""

from __future__ import annotations

import importlib.util
import os
import subprocess
import sys
import threading

import numpy as np
import pytest

# Hermetic by default: unless the invoker points REPRO_CACHE_DIR somewhere
# explicitly, the persistent kernel cache is disabled for the whole suite
# so test runs neither read nor pollute ~/.cache/repro-augem. Cache tests
# opt back in with monkeypatch.setenv + reset_cache() against a tmp_path.
os.environ.setdefault("REPRO_CACHE_DIR", "off")

from repro.backend.compiler import have_native_toolchain
from repro.core.vectorize import SHUF_LANES
from repro.isa.arch import (GENERIC_SSE, HASWELL, PILEDRIVER, SANDYBRIDGE,
                            SKYLAKE_X, detect_host)

HAVE_CC = have_native_toolchain()

needs_cc = pytest.mark.skipif(not HAVE_CC, reason="no C compiler available")

needs_avx512 = pytest.mark.skipif(
    not HAVE_CC or detect_host().vector_bytes != 64,
    reason="needs a C compiler and an AVX-512F host")


# ---------------------------------------------------------------------------
# Fallback per-test timeout watchdog
#
# The suite executes generated native kernels; a kernel that hangs holds
# the GIL inside a ctypes call, so no Python-level alarm can interrupt it.
# pytest-timeout (dev extra) handles this when installed; this fallback
# reproduces its thread-method behavior — a watchdog thread that hard-exits
# the process when the ``timeout`` ini limit elapses — so the tier-1 suite
# can never wedge even on a bare environment.
# ---------------------------------------------------------------------------

_HAVE_PYTEST_TIMEOUT = importlib.util.find_spec("pytest_timeout") is not None


def pytest_addoption(parser, pluginmanager):
    parser.addoption(
        "--update-golden", action="store_true", default=False,
        help="rewrite the golden assembly snapshots under tests/golden/ "
             "instead of diffing against them")
    if not _HAVE_PYTEST_TIMEOUT and not pluginmanager.hasplugin("timeout"):
        parser.addini("timeout", "per-test timeout in seconds "
                      "(fallback watchdog; pytest-timeout not installed)",
                      default="0")
        parser.addini("timeout_method", "accepted for pytest-timeout "
                      "compatibility; the fallback always hard-exits",
                      default="thread")


@pytest.hookimpl(wrapper=True)
def pytest_runtest_protocol(item, nextitem):
    if _HAVE_PYTEST_TIMEOUT:
        return (yield)
    try:
        limit = float(item.config.getini("timeout") or 0)
    except (ValueError, KeyError):
        limit = 0.0
    if limit <= 0:
        return (yield)
    finished = threading.Event()

    def watchdog():
        if not finished.wait(limit):
            sys.stderr.write(
                f"\n[conftest watchdog] test exceeded {limit:g}s: "
                f"{item.nodeid} — killing the process (a hung native "
                f"kernel cannot be interrupted in-process)\n")
            sys.stderr.flush()
            os._exit(70)

    guard = threading.Thread(target=watchdog, daemon=True,
                             name=f"timeout-watchdog[{item.nodeid}]")
    guard.start()
    try:
        return (yield)
    finally:
        finished.set()


def host_runnable_archs():
    """Arch specs whose generated code the host CPU can execute natively."""
    host = detect_host()
    out = [GENERIC_SSE]
    if host.simd == "avx":
        out.append(SANDYBRIDGE)
    if host.fma == "fma3":
        out.append(HASWELL)
    if host.vector_bytes == 64:
        out.append(SKYLAKE_X)
    return out


def host_shuf_arch():
    """The widest host-runnable arch the Shuf method is implemented for."""
    return [a for a in host_runnable_archs()
            if a.doubles_per_vector in SHUF_LANES][-1]


ALL_ARCH_SPECS = [GENERIC_SSE, SANDYBRIDGE, PILEDRIVER, HASWELL, SKYLAKE_X]


@pytest.fixture(scope="session")
def rng():
    return np.random.default_rng(12345)


@pytest.fixture(params=ALL_ARCH_SPECS, ids=lambda a: a.name)
def any_arch(request):
    return request.param


@pytest.fixture(params=host_runnable_archs(), ids=lambda a: a.name)
def native_arch(request):
    return request.param


# ---------------------------------------------------------------------------
# GEMM reference helpers shared across tests (packed-panel layouts)
# ---------------------------------------------------------------------------


def gemm_ref_packed(a_packed, b_packed, c, mc, nc, kc, ldc, layout="dup"):
    """Reference semantics of the packed micro-kernel on flat buffers."""
    am = a_packed.reshape(kc, mc)  # A[l, i]
    out = c.copy()
    for j in range(nc):
        if layout == "dup":
            col = b_packed.reshape(nc, kc)[j, :]
        else:
            col = b_packed.reshape(kc, nc)[:, j]
        for i in range(mc):
            out[j * ldc + i] += am[:, i] @ col
    return out


def random_gemm_problem(rng, mc=16, nc=8, kc=32, ldc=None, layout="dup"):
    ldc = ldc or mc
    a = rng.standard_normal(kc * mc)
    b = rng.standard_normal(nc * kc)
    c = rng.standard_normal(ldc * nc)
    return a, b, c, (mc, nc, kc, ldc)
