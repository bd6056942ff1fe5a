"""The AUGEM framework facade (paper Fig. 1).

``Augem.generate`` runs the full four-component pipeline on a simple-C DLA
kernel:

1. **Optimized C Kernel Generator** — :mod:`repro.transforms` under an
   :class:`~repro.transforms.OptimizationConfig`;
2. **Template Identifier** — :mod:`repro.core.identifier`;
3. **Template Optimizer** — :mod:`repro.core.optimizers` driven by the
   vectorization plan of :mod:`repro.core.vectorize`;
4. **Assembly Kernel Generator** — :mod:`repro.core.asmgen`.

The result bundles the instruction stream (consumed by the emulator), the
GAS text (consumed by the native backend), and every intermediate artifact
for inspection.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Union

from ..isa.arch import ArchSpec, detect_host
from ..isa.gas import emit_function
from ..isa.instructions import Item
from ..obs import span
from ..poet import cast as C
from ..poet.parser import parse_function
from ..poet.printer import to_c
from ..transforms.pipeline import OptimizationConfig, optimize_c_kernel
from .asmgen import generate_assembly_items
from .identifier import identify_templates
from .vectorize import VectorPlan, plan_vectorization


@dataclass
class GeneratedKernel:
    """Everything produced for one kernel on one architecture."""

    name: str  # exported symbol name
    arch: ArchSpec
    config: OptimizationConfig
    strategy: str  # vectorization strategy preference used
    simple_c: str  # the input kernel
    low_level_c: str  # after the Optimized C Kernel Generator
    tagged_fn: C.FuncDef  # template-tagged AST
    regions: List[C.TaggedRegion]
    plan: VectorPlan
    items: List[Item]  # instruction stream (emulator input)
    asm_text: str  # complete GAS function (native input)

    @property
    def template_counts(self) -> Dict[str, int]:
        counts: Dict[str, int] = {}
        for r in self.regions:
            counts[r.template] = counts.get(r.template, 0) + 1
        return counts

    def describe(self) -> str:
        lines = [
            f"kernel {self.name} for {self.arch}",
            f"config: {self.config.describe()}",
            f"strategy: {self.strategy}",
            f"templates: {self.template_counts}",
            f"instructions: {sum(1 for i in self.items if type(i).__name__ == 'Instr')}",
        ]
        return "\n".join(lines)

    @property
    def content_hash(self) -> str:
        """Stable content address of the finished kernel.

        Hashes the emitted assembly (which embeds the symbol name, the
        arch's instruction selection, and every optimization decision) —
        the key under which persisted tuning measurements are filed.
        """
        return hashlib.sha256(self.asm_text.encode()).hexdigest()[:24]

    @property
    def body_hash(self) -> str:
        """Content address of the kernel *body*, symbol name normalized.

        The tuner and the library facade generate byte-identical code
        under different exported symbol names (``tune_axpy_…`` vs
        ``daxpy_kernel``); replacing the name with a placeholder before
        hashing lets both address the same quarantine record.
        """
        body = self.asm_text.replace(self.name, "@SYM@")
        return hashlib.sha256(body.encode()).hexdigest()[:24]


def quarantine_key(kernel_key: str, arch: ArchSpec,
                   gk: "GeneratedKernel") -> str:
    """Content address of a known-crashing kernel in the quarantine store.

    Shared by the tuner (which writes entries) and the dispatch layer
    (which both reads and writes), and keyed by :attr:`body_hash` so a
    candidate quarantined under its tuning symbol name also blocks the
    identical code generated under the library's exported name.
    """
    return hashlib.sha256(
        f"quar\x1f{kernel_key}\x1f{arch.name}\x1f{gk.body_hash}".encode()
    ).hexdigest()[:24]


def stable_kernel_name(kernel: str, arch: ArchSpec,
                       config: OptimizationConfig,
                       strategy: str = "auto") -> str:
    """A deterministic exported-symbol name for a tuning candidate.

    The symbol name is part of the emitted assembly and therefore of the
    compile-cache key, so it must depend only on *what* is generated —
    never on candidate-list position or process state — for a re-tuning
    run to hit the persistent cache.
    """
    digest = hashlib.sha256(
        f"{config.describe()}\x1f{strategy}".encode()
    ).hexdigest()[:10]
    return f"tune_{kernel}_{arch.name}_{digest}"


#: Default optimization configurations per (kernel family, SIMD lane count).
def default_config(kernel: str, arch: ArchSpec) -> OptimizationConfig:
    """A sensible starting configuration (the tuner refines it)."""
    n = arch.doubles_per_vector
    if kernel in ("gemm", "gemm_shuf"):
        if kernel == "gemm_shuf":
            # the Shuf method needs an n x n grid
            return OptimizationConfig(
                unroll_jam=(("j", n), ("i", n)),
                prefetch_distance={"A": 8 * n, "B": 8 * n},
            )
        # wide-tile register economics (e.g. 4x12 on AVX+FMA: 12
        # accumulators, 3 A vectors, 1 rotating broadcast — the OpenBLAS
        # kernel shape); non-FMA targets need a mul temp, so one A chunk
        # fewer
        mu = 3 * n if arch.has_fma else 2 * n
        return OptimizationConfig(
            unroll_jam=(("j", 2 if n == 2 else 4), ("i", mu)),
            unroll=(("l", 2),),
        )
    if kernel == "gemv":
        return OptimizationConfig(
            unroll=(("j", 2 * n),),
            prefetch_distance={"A": 16 * n},
        )
    if kernel == "gemv_n":
        return OptimizationConfig(
            unroll=(("j", 4 * n),),
            split=(("j", "res", 4 * n),),
            prefetch_distance={"A": 16 * n},
        )
    if kernel == "ger":
        return OptimizationConfig(
            unroll=(("j", 4 * n),),
            prefetch_distance={"A": 16 * n},
        )
    if kernel == "axpy":
        return OptimizationConfig(
            unroll=(("i", 4 * n),),
            prefetch_distance={"X": 16 * n, "Y": 16 * n},
        )
    if kernel == "scal":
        return OptimizationConfig(
            unroll=(("i", 4 * n),),
            prefetch_distance={"X": 16 * n},
        )
    if kernel == "dot":
        return OptimizationConfig(
            unroll=(("i", 4 * n),),
            split=(("i", "res", 4 * n),),
            prefetch_distance={"X": 16 * n, "Y": 16 * n},
        )
    raise KeyError(f"no default configuration for kernel {kernel!r}")


class Augem:
    """Template-based DLA kernel generator (the paper's framework)."""

    def __init__(self, arch: Optional[ArchSpec] = None,
                 schedule: bool = True,
                 unified_regalloc: bool = False) -> None:
        self.arch = arch or detect_host()
        self.schedule = schedule
        self.unified_regalloc = unified_regalloc

    def generate(
        self,
        kernel_source: str,
        config: OptimizationConfig,
        strategy: str = "auto",
        name: Optional[str] = None,
    ) -> GeneratedKernel:
        """Run the full pipeline on ``kernel_source`` (simple C text).

        :param strategy: vectorization preference — ``"auto"``, ``"vdup"``,
            ``"shuf"`` or ``"scalar"`` (see :func:`plan_vectorization`).
        :param name: exported symbol name (defaults to the C function name).
        """
        with span("pipeline.generate", arch=self.arch.name,
                  config=config.describe(), strategy=strategy) as sp:
            # 1. Optimized C Kernel Generator
            with span("pipeline.c_opt"):
                fn = optimize_c_kernel(kernel_source, config)
                low_level_c = to_c(fn)
            # 2. Template Identifier
            with span("pipeline.identify") as sp_id:
                fn, regions = identify_templates(fn)
                sp_id.set(regions=len(regions))
            # 3. Template Optimizer planning (strategies + packing)
            with span("pipeline.plan"):
                plan = plan_vectorization(regions, self.arch, strategy)
            # 3+4. Template Optimizer emission + Assembly Kernel Generator
            with span("pipeline.asmgen"):
                items = generate_assembly_items(
                    fn, self.arch, plan, schedule=self.schedule,
                    unified_regalloc=self.unified_regalloc)
                sym = name or fn.name
                asm_text = emit_function(sym, items)
            sp.set(kernel=sym)
        return GeneratedKernel(
            name=sym,
            arch=self.arch,
            config=config,
            strategy=strategy,
            simple_c=kernel_source,
            low_level_c=low_level_c,
            tagged_fn=fn,
            regions=regions,
            plan=plan,
            items=items,
            asm_text=asm_text,
        )

    def generate_named(self, kernel: str,
                       config: Optional[OptimizationConfig] = None,
                       strategy: str = "auto",
                       name: Optional[str] = None) -> GeneratedKernel:
        """Generate one of the built-in kernels (the keys of
        ``blas.kernels.KERNEL_SOURCES``) with its default (or the given)
        configuration."""
        from ..blas.kernels import KERNEL_SOURCES

        source, func_name = KERNEL_SOURCES[kernel]
        cfg = config or default_config(kernel, self.arch)
        return self.generate(source, cfg, strategy=strategy,
                             name=name or func_name)
