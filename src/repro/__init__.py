"""AUGEM reproduction — template-based automatic generation of
high-performance dense linear algebra kernels for x86-64.

Reproduces *AUGEM: Automatically Generate High Performance Dense Linear
Algebra Kernels on x86 CPUs* (Wang, Zhang, Zhang, Yi — SC '13).

Quick start::

    from repro import Augem, AugemBLAS

    # the framework: simple C in, tuned assembly out
    kernel = Augem().generate_named("gemm")
    asm = kernel.asm_text  # complete GAS function text

    # the BLAS built from generated kernels
    import numpy as np
    blas = AugemBLAS()
    c = blas.dgemm(np.random.rand(256, 256), np.random.rand(256, 256))

Packages:

- :mod:`repro.poet` — mini program-transformation engine (C parser, AST,
  pattern matching) standing in for the POET language;
- :mod:`repro.transforms` — the Optimized C Kernel Generator (unroll&jam,
  unrolling, strength reduction, scalar replacement, prefetching);
- :mod:`repro.core` — templates, Template Identifier, Template Optimizer
  (Vdup/Shuf vectorization, per-array register queues, Tables 1-4
  instruction selection), Assembly Kernel Generator;
- :mod:`repro.isa` — x86-64 model, arch specs, GAS emission;
- :mod:`repro.emu` — x86-64 subset emulator (validation oracle);
- :mod:`repro.backend` — gcc/ctypes native execution, baselines, timing;
- :mod:`repro.blas` — packing, blocked GEMM, GEMV/AXPY/DOT, Level-3;
- :mod:`repro.tuning` — empirical configuration search;
- :mod:`repro.bench` — regenerates every figure/table of the paper's §5;
- :mod:`repro.obs` — structured tracing and counters.
"""

from .blas.api import AugemBLAS, default_blas
from .blas.guard import BlasArgumentError
from .core.framework import Augem, GeneratedKernel, default_config
from .isa.arch import (
    ALL_ARCHS,
    GENERIC_SSE,
    HASWELL,
    PILEDRIVER,
    SANDYBRIDGE,
    ArchSpec,
    detect_host,
    get_arch,
)
from .transforms.pipeline import OptimizationConfig

__version__ = "1.0.0"

__all__ = [
    "Augem",
    "GeneratedKernel",
    "default_config",
    "AugemBLAS",
    "default_blas",
    "BlasArgumentError",
    "OptimizationConfig",
    "ArchSpec",
    "detect_host",
    "get_arch",
    "ALL_ARCHS",
    "SANDYBRIDGE",
    "PILEDRIVER",
    "HASWELL",
    "GENERIC_SSE",
    "__version__",
]
