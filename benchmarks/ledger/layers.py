"""Per-layer probes of the traced run.

Each probe calls one layer's public functions from outside, records a
span around every call, and returns that layer's metrics.  A workload
names the probes of the layers it goes through (``Workload.probes``); a
workload's record has no metric of a layer it bypasses.
"""

from __future__ import annotations

import os
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Sequence, Tuple

import numpy as np

from repro.backend.compiler import reset_so_cache
from repro.backend.runner import load_kernel
from repro.blas.api import AugemBLAS
from repro.blas.gemm import BlockSizes, make_gemm
from repro.blas.gemv import make_gemv
from repro.blas.kernels import KERNEL_SOURCES
from repro.blas.level1 import make_axpy, make_dot
from repro.blas.packing import pack_a, pack_b_dup
from repro.core.asmgen import generate_assembly_items
from repro.core.framework import Augem, default_config
from repro.core.identifier import identify_templates
from repro.core.vectorize import plan_vectorization
from repro.isa.arch import ALL_ARCHS, detect_host
from repro.isa.gas import emit_function
from repro.isa.instructions import Instr
from repro.poet.printer import to_c
from repro.serve.shm import SegmentSet
from repro.transforms.pipeline import optimize_c_kernel

from .stats import SpanRecorder, median
from .workloads import (Measurement, Workload, gemm_counts,
                        host_gemm_multiples)

Metrics = Dict[str, float]

#: the OpenBLAS DGEMM that ``calib.openblas_gflops`` times
CALIB_N = 512


@dataclass
class Context:
    wl: Workload
    rec: SpanRecorder
    quick: bool
    untraced: Measurement
    traced: Measurement
    rng: np.random.Generator
    attempted: int = 0
    failures: List[str] = field(default_factory=list)
    notes: Dict[str, str] = field(default_factory=dict)
    shared: Dict[str, Any] = field(default_factory=dict)

    def reps(self, full: int, quick: int) -> int:
        return quick if self.quick else full

    def verify(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failures.append(what)

    def timed(self, name: str, fn: Callable[[], Any]) -> Tuple[float, Any]:
        """Call into a layer under a span; returns (seconds, result)."""
        t0 = time.perf_counter()
        out = fn()
        t1 = time.perf_counter()
        self.rec.add(name, t0, t1)
        return t1 - t0, out

    def round_robin(self, reps: int,
                    calls: Sequence[Tuple[str, str, Callable[[], Any]]]
                    ) -> Dict[str, List[float]]:
        """Time ``(key, span name, fn)`` interleaved, so drift hits every
        contender alike; one untimed warm-up each."""
        times: Dict[str, List[float]] = {key: [] for key, _, _ in calls}
        for _, _, fn in calls:
            fn()
        for _ in range(reps):
            for key, name, fn in calls:
                times[key].append(self.timed(name, fn)[0])
        return times


def _direct_gemm(ctx: Context):
    """The un-hardened driver: same kernel bytes, no chain, own pool."""
    if "driver" not in ctx.shared:
        ctx.shared["driver"] = make_gemm()
    return ctx.shared["driver"]


# ---------------------------------------------------------------------------
# generator
# ---------------------------------------------------------------------------

def probe_codegen(ctx: Context) -> Metrics:
    """The four pipeline stages, called in sequence the way
    ``Augem.generate`` does, over the workload's 28 kernels."""
    wl = ctx.wl
    stages = {"transforms.c_opt_ms": [], "core.identify_ms": [],
              "core.plan_ms": [], "core.asmgen_ms": []}
    for _ in range(ctx.reps(2, 1)):
        sweep = dict.fromkeys(stages, 0.0)
        for family, isa in wl.order:
            arch = ALL_ARCHS[isa]
            source, func = KERNEL_SOURCES[family]
            config = default_config(family, arch)

            def c_opt():
                fn = optimize_c_kernel(source, config)
                to_c(fn)
                return fn

            dt, fn = ctx.timed("transforms.optimize_c_kernel", c_opt)
            sweep["transforms.c_opt_ms"] += dt
            dt, (fn, regions) = ctx.timed(
                "core.identify_templates", lambda: identify_templates(fn))
            sweep["core.identify_ms"] += dt
            dt, plan = ctx.timed(
                "core.plan_vectorization",
                lambda: plan_vectorization(regions, arch, "auto"))
            sweep["core.plan_ms"] += dt
            dt, asm = ctx.timed(
                "core.generate_assembly_items",
                lambda: emit_function(func, generate_assembly_items(
                    fn, arch, plan, schedule=True, unified_regalloc=False)))
            sweep["core.asmgen_ms"] += dt
            ctx.verify(asm == wl.kernels[(family, isa)].asm_text,
                       f"staged pipeline emitted other asm for "
                       f"{family}@{isa}")
        for key, total in sweep.items():
            stages[key].append(total * 1e3)
    out = {key: median(vals) for key, vals in stages.items()}
    out["core.generate_ms"] = median(ctx.traced.samples_ms)
    out["core.asm_instructions"] = float(sum(
        isinstance(item, Instr)
        for gk in wl.kernels.values() for item in gk.items))
    out["emu.check_ms"] = wl.emu_s * 1e3
    return out


def probe_backend(ctx: Context) -> Metrics:
    """Assemble+load cold (a fresh symbol name is a fresh content key)
    and from the warm store; what the hardened chain adds on top."""
    family = ctx.wl.first_family
    arch = detect_host()
    gen, cold, warm = [], [], []
    for i in range(ctx.reps(3, 1)):
        name = f"ledger_{family}_{os.getpid()}_{i}"
        dt, gk = ctx.timed(
            "core.generate_named",
            lambda: Augem(arch).generate_named(family, name=name))
        gen.append(dt)
        cold.append(ctx.timed("backend.load_kernel",
                              lambda: load_kernel(family, gk))[0])
        reset_so_cache()  # in-process handles only; the store stays warm
        warm.append(ctx.timed("backend.load_kernel",
                              lambda: load_kernel(family, gk))[0])
    direct_ms = (median(gen) + median(cold)) * 1e3
    return {"backend.assemble_load_ms": median(cold) * 1e3,
            "backend.cache_hit_load_ms": median(warm) * 1e3,
            "dispatch.build_ms": ctx.wl.first_build_s * 1e3 - direct_ms}


# ---------------------------------------------------------------------------
# kernels and packing
# ---------------------------------------------------------------------------

UKERNEL_BLOCK = (96, 192, 256)


def probe_microkernel(ctx: Context) -> Metrics:
    """One ctypes call on a packed L2-resident block, against OpenBLAS on
    the same block (as ``repro.bench.microkernel`` does)."""
    mc, nc, kc = UKERNEL_BLOCK
    kernel = _direct_gemm(ctx).kernel
    rng = ctx.rng
    a, b = rng.standard_normal(kc * mc), rng.standard_normal(nc * kc)
    c = np.zeros(mc * nc)
    am, bm = rng.standard_normal((mc, kc)), rng.standard_normal((kc, nc))
    cm = np.empty((mc, nc))
    inner = 8

    def many(fn):
        def run():
            for _ in range(inner):
                fn()
        return run

    t = ctx.round_robin(ctx.reps(15, 3), [
        ("augem", "microkernel.GemmKernel",
         many(lambda: kernel(mc, nc, kc, a, b, c, mc))),
        ("openblas", "openblas.dgemm",
         many(lambda: np.dot(am, bm, out=cm)))])
    per_call = median(t["augem"]) / inner
    ctx.shared["ukernel_gflops"] = 2.0 * mc * nc * kc / per_call / 1e9
    return {"microkernel.gflops": ctx.shared["ukernel_gflops"],
            "microkernel.vs_openblas": median(
                [o / g for o, g in zip(t["openblas"], t["augem"])])}


def probe_level12_kernels(ctx: Context) -> Metrics:
    """Raw Level-1/2 kernels on the ``obs.baseline`` problems; GB/s from
    computed bytes (array sizes), not counted misses."""
    rng = ctx.rng
    n = 1 << 16
    x, y = rng.standard_normal(n), rng.standard_normal(n)
    m, cols = 1 << 10, 64
    a, xs = rng.standard_normal(cols * m), rng.standard_normal(cols)
    ys = np.zeros(m)
    axpy, dot = make_axpy().kernel, make_dot().kernel
    gemv_t = make_gemv().kernel_t
    t = ctx.round_robin(ctx.reps(200, 20), [
        ("axpy", "microkernel.AxpyKernel", lambda: axpy(n, 1e-3, x, y)),
        ("dot", "microkernel.DotKernel", lambda: dot(n, x, y)),
        ("gemv", "microkernel.GemvKernel",
         lambda: gemv_t(m, cols, a, m, xs, ys))])
    return {
        "microkernel.axpy_gbps": 24.0 * n / median(t["axpy"]) / 1e9,
        "microkernel.dot_gbps": 16.0 * n / median(t["dot"]) / 1e9,
        "microkernel.gemv_gbps":
            8.0 * (m * cols + cols + 2 * m) / median(t["gemv"]) / 1e9,
    }


def probe_packing(ctx: Context) -> Metrics:
    """The packers on driver-sized blocks cut out of a larger matrix,
    into a pooled ``out=``; then their computed share of a pass."""
    driver = _direct_gemm(ctx)
    mults = (driver.mu, driver.nu, driver.ku)
    blocks = BlockSizes()
    big = ctx.rng.standard_normal((1024, 1024))
    mc_pad = -(-blocks.mc // driver.mu) * driver.mu
    a_block = big[256:256 + blocks.mc, 256:256 + blocks.kc]
    b_block = big[256:256 + blocks.kc, 256:256 + blocks.nc]
    pool = driver.pack_pool
    a_buf = pool.acquire(mc_pad * blocks.kc)
    b_buf = pool.acquire(blocks.kc * blocks.nc)
    try:
        t = ctx.round_robin(ctx.reps(200, 20), [
            ("a", "packing.pack_a",
             lambda: pack_a(a_block, mc_pad, blocks.kc, out=a_buf)),
            ("b", "packing.pack_b_dup",
             lambda: pack_b_dup(b_block, blocks.kc, blocks.nc, out=b_buf))])
    finally:
        pool.release(a_buf)
        pool.release(b_buf)
    # read + written bytes of the block itself
    rate_a = 16.0 * a_block.size / median(t["a"])
    rate_b = 16.0 * b_block.size / median(t["b"])
    _, a_bytes, b_bytes = gemm_counts(ctx.wl.gemm_shapes, blocks, mults)
    pack_s = 2.0 * a_bytes / rate_a + 2.0 * b_bytes / rate_b
    return {"packing.pack_a_gbps": rate_a / 1e9,
            "packing.pack_b_gbps": rate_b / 1e9,
            "packing.share": pack_s * 1e3 / median(ctx.traced.round_ms)}


# ---------------------------------------------------------------------------
# GEMM driver, threads, facade, integrity
# ---------------------------------------------------------------------------

def _square(ctx: Context, n: int) -> Tuple[np.ndarray, np.ndarray]:
    key = f"square{n}"
    if key not in ctx.shared:
        ctx.shared[key] = (ctx.rng.standard_normal((n, n)),
                           ctx.rng.standard_normal((n, n)))
    return ctx.shared[key]


def probe_gemm(ctx: Context) -> Metrics:
    """``GemmDriver`` called directly at the headline shape."""
    driver = _direct_gemm(ctx)
    n, k2 = ctx.wl.N, ctx.wl.K2
    a, b = _square(ctx, n)
    a2, b2 = a[:, :k2], b[:k2, :]
    c = ctx.rng.standard_normal((n, n))
    t = ctx.round_robin(ctx.reps(7, 1), [
        ("driver", "gemm.GemmDriver", lambda: driver(a, b)),
        ("plain", "gemm.GemmDriver", lambda: driver(a2, b2)),
        ("acc", "gemm.GemmDriver",
         lambda: driver(a2, b2, c, alpha=1.0, beta=1.0))])
    flops = 2.0 * n ** 3
    kernel_s = flops / (ctx.shared["ukernel_gflops"] * 1e9)
    share = kernel_s / median(t["driver"])
    return {"gemm.driver_gflops_1024": flops / median(t["driver"]) / 1e9,
            "gemm.kernel_share": share, "gemm.driver_tax": 1.0 - share,
            "gemm.accumulate_ms": median(
                [(w - p) * 1e3 for w, p in zip(t["acc"], t["plain"])])}


def probe_gemm_small(ctx: Context) -> Metrics:
    driver = _direct_gemm(ctx)
    a, b = _square(ctx, 48)
    t = ctx.round_robin(ctx.reps(400, 40), [
        ("driver", "gemm.GemmDriver", lambda: driver(a, b))])
    return {"gemm.small_call_us": median(t["driver"]) * 1e6}


def probe_threading(ctx: Context) -> Metrics:
    """Two threads against one, on this host's real parallel capacity."""
    driver = _direct_gemm(ctx)
    a, b = _square(ctx, ctx.wl.N)
    ctx.verify(np.array_equal(driver(a, b, threads=1),
                              driver(a, b, threads=2)),
               "GemmDriver result differs between 1 and 2 threads")

    def two_openblas():
        workers = [threading.Thread(target=np.dot, args=(a, b))
                   for _ in range(2)]
        for w in workers:
            w.start()
        for w in workers:
            w.join()

    t = ctx.round_robin(ctx.reps(5, 1), [
        ("t1", "gemm.GemmDriver", lambda: driver(a, b, threads=1)),
        ("t2", "gemm.GemmDriver", lambda: driver(a, b, threads=2)),
        ("ob1", "openblas.dgemm", lambda: np.dot(a, b)),
        ("ob2", "openblas.dgemm", two_openblas)])
    capacity = 2.0 * median(t["ob1"]) / median(t["ob2"])
    if capacity < 1.5:
        ctx.notes["threading"] = (
            f"unresolved: two concurrent OpenBLAS GEMMs get {capacity:.2f} "
            "cores of capacity, so thread scaling cannot be read here")
    return {"threading.speedup_2t": median(t["t1"]) / median(t["t2"]),
            "threading.host_parallel_capacity": capacity,
            **probe_pool(ctx)}


def probe_pool(ctx: Context) -> Metrics:
    """Pack-buffer reuse inside the facade's own driver over the run."""
    stats = ctx.wl.blas.gemm_driver.pack_pool.stats()
    return {"threading.pool_hit_share":
            stats["hits"] / max(1, stats["hits"] + stats["misses"])}


def probe_facade(ctx: Context) -> Metrics:
    """``AugemBLAS.dgemm`` minus ``GemmDriver`` on the same operands."""
    driver, blas = _direct_gemm(ctx), ctx.wl.blas
    a, b = _square(ctx, ctx.wl.N)
    t = ctx.round_robin(ctx.reps(7, 1), [
        ("facade", "facade.dgemm", lambda: blas.dgemm(a, b)),
        ("driver", "gemm.GemmDriver", lambda: driver(a, b))])
    return {"facade.tax_us_large": median(
        [(f - d) * 1e6 for f, d in zip(t["facade"], t["driver"])])}


def probe_facade_small(ctx: Context) -> Metrics:
    driver, blas = _direct_gemm(ctx), ctx.wl.blas
    trusting = AugemBLAS(hardened=False)
    a, b = _square(ctx, 48)
    t = ctx.round_robin(ctx.reps(400, 40), [
        ("hardened", "facade.dgemm", lambda: blas.dgemm(a, b)),
        ("trusting", "facade.dgemm", lambda: trusting.dgemm(a, b)),
        ("driver", "gemm.GemmDriver", lambda: driver(a, b))])
    return {
        "facade.tax_us_small":
            (median(t["hardened"]) - median(t["driver"])) * 1e6,
        "facade.hardened_tax_us":
            (median(t["hardened"]) - median(t["trusting"])) * 1e6}


def probe_integrity(ctx: Context) -> Metrics:
    """ABFT modes on the direct driver (the end-to-end runs are
    integrity-off).  ``sample`` verifies one call in 16, so its cost is
    the mean over a whole sampling period."""
    driver = _direct_gemm(ctx)
    a, b = _square(ctx, 512 if ctx.quick else ctx.wl.N)
    period = driver.integrity.sample_period
    off, sample, full = [], [], []
    driver(a, b)
    for i in range(period):
        sample.append(ctx.timed(
            "integrity.sample",
            lambda: driver(a, b, integrity="sample"))[0])
        if i % 2 == 0:
            off.append(ctx.timed("gemm.GemmDriver",
                                 lambda: driver(a, b))[0])
        if i % 4 == 0:
            full.append(ctx.timed(
                "integrity.full", lambda: driver(a, b, integrity="full"))[0])
    base = median(off)
    return {"integrity.sample_overhead_share":
            sum(sample) / len(sample) / base - 1.0,
            "integrity.full_overhead_share": median(full) / base - 1.0}


# ---------------------------------------------------------------------------
# routines cast on the kernels
# ---------------------------------------------------------------------------

def probe_ger(ctx: Context) -> Metrics:
    """AXPY kernel calls behind one DGER, counted at ``GerDriver.axpy``."""
    ger = ctx.wl.blas.ger_driver
    real, calls = ger.axpy, [0]

    def counting(alpha, x, y):
        calls[0] += 1
        return real(alpha, x, y)

    op = next(op for op in ctx.wl.ops if op.group == "dger")
    ger.axpy = counting
    try:
        op.reset()
        ctx.verify(op.check(op.run()), "counted dger outside its bound")
    finally:
        ger.axpy = real
    return {"ger.axpy_calls_per_op": float(calls[0])}


def probe_level3_gemm_calls(ctx: Context) -> Metrics:
    """The GEMM calls one round of Level-3 casts makes, recorded at
    ``Level3.gemm``; kernel calls and packed bytes computed from them."""
    level3 = ctx.wl.blas.level3
    real, shapes = level3.gemm, []

    def recording(a, b, c=None, **kw):
        shapes.append((a.shape[0], b.shape[1], a.shape[1]))
        return real(a, b, c, **kw)

    level3.gemm = recording
    try:
        for op in ctx.wl.ops:
            ctx.verify(op.check(op.run()),
                       f"recorded {op.group} outside its bound")
    finally:
        level3.gemm = real
    calls, a_bytes, b_bytes = gemm_counts(shapes, BlockSizes(),
                                          host_gemm_multiples())
    ctx.notes["level3_gemm_calls_per_round"] = str(len(shapes))
    return {"gemm.kernel_calls": float(calls),
            "gemm.bytes_packed": float(a_bytes + b_bytes)}


def routine_metrics(ctx: Context) -> Metrics:
    """Each routine of the traced rounds on its own row."""
    flops = {}
    for op in ctx.wl.ops:
        flops[op.group] = flops.get(op.group, 0.0) + op.flops
    out: Metrics = {}
    for group, total in flops.items():
        ratios = ctx.traced.ratios(group)
        if total and ratios:
            out[f"routine.{group}.vs_openblas"] = median(ratios)
            out[f"routine.{group}.gflops"] = \
                total / median(ctx.traced.group_ms(group)) / 1e6
    return out


# ---------------------------------------------------------------------------
# serve
# ---------------------------------------------------------------------------

def probe_serve(ctx: Context) -> Metrics:
    wl = ctx.wl
    client, local = wl.client, wl.blas
    rng = ctx.rng
    out: Metrics = {}
    t = ctx.round_robin(ctx.reps(300, 30), [
        ("ping", "protocol.service_alive", client.service_alive)])
    out["protocol.ping_ms"] = median(t["ping"]) * 1e3
    for label, n, reps in (("small", 64, ctx.reps(200, 20)),
                           ("large", wl.NBIG, ctx.reps(12, 3))):
        a, b = rng.standard_normal((n, n)), rng.standard_normal((n, n))

        def stage():
            with SegmentSet(prefix="rblc") as segments:
                segments.add(a.shape, fill=a)
                segments.add(b.shape, fill=b)
                segments.add((n, n))

        t = ctx.round_robin(reps, [
            ("stage", "shm.SegmentSet", stage),
            ("served", "client.dgemm", lambda: client.dgemm(a, b)),
            ("local", "facade.dgemm", lambda: local.dgemm(a, b))])
        tax = median(t["served"]) - median(t["local"])
        out[f"shm.stage_ms_{label}"] = median(t["stage"]) * 1e3
        out[f"serve.tax_ms_{label}"] = tax * 1e3
        if label == "large":
            out["serve.tax_share_large"] = tax / median(t["served"])
    requests = max(1, client.stats.requests)
    out["client.retry_share"] = client.stats.retries / requests
    out["client.fallback_share"] = client.stats.fallbacks / requests
    ctx.verify(client.stats.fallbacks == 0,
               f"{client.stats.fallbacks} probe request(s) fell back")
    out["serve.daemon_rss_mb"] = wl.daemon.sample_rss()
    return out


def probe_calib(ctx: Context) -> Metrics:
    """What OpenBLAS makes of this host during this run: tells a host
    shift from a code change."""
    a, b = _square(ctx, CALIB_N)
    out = np.empty((CALIB_N, CALIB_N))
    t = ctx.round_robin(ctx.reps(15, 3), [
        ("ob", "openblas.dgemm", lambda: np.dot(a, b, out=out))])
    return {"calib.openblas_gflops":
            2.0 * CALIB_N ** 3 / median(t["ob"]) / 1e9}


PROBES: Dict[str, Callable[[Context], Metrics]] = {
    "codegen": probe_codegen, "backend": probe_backend,
    "microkernel": probe_microkernel,
    "level12_kernels": probe_level12_kernels, "packing": probe_packing,
    "gemm": probe_gemm, "gemm_small": probe_gemm_small,
    "threading": probe_threading, "pool": probe_pool,
    "facade": probe_facade, "facade_small": probe_facade_small,
    "integrity": probe_integrity, "ger": probe_ger,
    "level3_gemm_calls": probe_level3_gemm_calls, "serve": probe_serve,
}


def layer_metrics(ctx: Context) -> Metrics:
    """Every per-layer number this workload's traced run can measure."""
    described = ctx.wl.describe()
    out: Metrics = {
        "harness.trace_overhead_share":
            median(ctx.traced.samples_ms)
            / median(ctx.untraced.samples_ms) - 1.0,
    }
    if ctx.wl.gemm_shapes:
        out["gemm.kernel_calls"] = float(described["gemm.kernel_calls"])
        out["gemm.bytes_packed"] = float(described["gemm.bytes_packed"])
    if ctx.wl.flops_per_round():
        out["pass.gflops"] = ctx.wl.flops_per_round() \
            / median(ctx.traced.round_ms) / 1e6
    if ctx.wl.routine_rows:
        out.update(routine_metrics(ctx))
    out.update(probe_calib(ctx))
    for name in ctx.wl.probes:
        out.update(PROBES[name](ctx))
    return out
