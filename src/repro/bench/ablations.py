"""Ablations of the design choices DESIGN.md calls out.

Every variant runs the GEMM micro-kernel on an L2-resident packed block
(k = 256, the paper's fixed inner dimension), isolating code-generation
effects from cache blocking:

- **vectorizer strategy**: Vdup vs Shuf (paper §3.4's two methods) vs
  fully scalar;
- **FMA instruction selection**: Table 1 line 3 (FMA3) vs line 2 (separate
  Mul+Add on the same AVX hardware — Haswell vs SandyBridge codegen, both
  at 256 bits, on this host);
- **unroll factor sweep**: the empirical-tuning axis of §2.1;
- **prefetch on/off**;
- **instruction scheduling on/off**;
- **per-array register queues vs one unified pool** (§3.1's
  false-dependence argument).
"""

from __future__ import annotations

import numpy as np

from ..backend.runner import load_kernel
from ..backend.timer import measure
from ..core.framework import Augem
from ..isa.arch import (GENERIC_SSE, HASWELL, SANDYBRIDGE, ArchSpec,
                        detect_host)
from ..transforms.pipeline import OptimizationConfig
from .report import TableResult

#: MC divides every default tile width (24 at 512 bits, 12 with FMA at 256,
#: 8 without FMA)
MC, NC, KC = 48, 64, 256
FLOPS = 2.0 * MC * NC * KC


def _variants(host: ArchSpec):
    """(group, variant, Augem, kernel name, config, strategy) per row."""
    n = host.doubles_per_vector
    sse_cfg = OptimizationConfig(unroll_jam=(("j", 2), ("i", 2)))
    for strategy, kernel in (("vdup", "gemm"), ("shuf", "gemm_shuf"),
                             ("scalar", "gemm")):
        yield ("strategy", f"{strategy} (generic_sse)",
               Augem(arch=GENERIC_SSE), kernel, sse_cfg, strategy)
    if host.fma == "fma3":  # same width both rows: only FMA differs
        yield ("FMA selection", "fma3 (haswell)",
               Augem(arch=HASWELL), "gemm", None, "auto")
        yield ("FMA selection", "mul+add (sandybridge)",
               Augem(arch=SANDYBRIDGE), "gemm", None, "auto")
    for nu, mu in ((2, n), (2, 2 * n), (4, 2 * n)):
        yield ("unroll", f"j={nu} i={mu}", Augem(arch=host), "gemm",
               OptimizationConfig(unroll_jam=(("j", nu), ("i", mu))), "auto")
    for pf in (None, 32):
        yield ("prefetch", f"distance {pf}" if pf else "off",
               Augem(arch=host), "gemm",
               OptimizationConfig(unroll_jam=(("j", 2), ("i", 2 * n)),
                                  prefetch_distance=pf), "auto")
    for schedule in (True, False):
        yield ("scheduling", "on" if schedule else "off",
               Augem(arch=host, schedule=schedule), "gemm", None, "auto")
    for unified in (False, True):
        yield ("register queues",
               "unified pool" if unified else "per-array queues",
               Augem(arch=host, unified_regalloc=unified), "gemm", None,
               "auto")


def ablations_table(batches: int = 3) -> TableResult:
    """GFLOPS of each ablation variant's micro-kernel on one block."""
    host = detect_host()
    rng = np.random.default_rng(2013)
    a = rng.standard_normal(KC * MC)
    b = rng.standard_normal(NC * KC)
    c = np.zeros(MC * NC)
    rows = []
    for i, (group, variant, aug, kernel, cfg, strategy) in enumerate(
            _variants(host)):
        gk = aug.generate_named(kernel, config=cfg, strategy=strategy,
                                name=f"abl_{i}")
        fn = load_kernel(kernel, gk)
        meas = measure(lambda: fn(MC, NC, KC, a, b, c, MC), batches=batches)
        rows.append([group, variant, f"{meas.gflops(FLOPS):.2f}"])
    if host.fma != "fma3":
        rows.append(["FMA selection", "(host lacks FMA3)", "-"])
    return TableResult(
        "ablations",
        f"GEMM micro-kernel ablations on {host.name}, block "
        f"{MC}x{NC}x{KC} (best of {batches} batches)",
        ["ablation", "variant", "GFLOPS"],
        rows,
    )
