"""Tuning search spaces (paper §2.1).

"Because loop unrolling factors are extremely sensitive to variations of
the underlying machine architecture, our Optimized C Kernel Generator
automatically experiments with different unrolling and unroll&jam
configurations and selects the best performing configurations based on the
performance of their optimized code."

Each candidate is an (OptimizationConfig, vectorization-strategy) pair.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, List, Tuple

from ..isa.arch import ArchSpec
from ..transforms.pipeline import OptimizationConfig


@dataclass(frozen=True)
class Candidate:
    config: OptimizationConfig
    strategy: str = "auto"

    def describe(self) -> str:
        return f"{self.config.describe()} [{self.strategy}]"


def gemm_candidates(arch: ArchSpec, layout: str = "dup") -> List[Candidate]:
    """unroll&jam (nu, mu), l-unroll ku, prefetch distance sweep."""
    n = arch.doubles_per_vector
    out: List[Candidate] = []
    nu_opts = (2, 4)
    mu_opts = (n, 2 * n, 3 * n, 4 * n)
    reserve = 1 if arch.has_fma else 2  # rotating broadcast (+ mul temp)
    for nu in nu_opts:
        for mu in mu_opts:
            # accumulators + A vectors + reserve must fit the register file
            if nu * (mu // n) + mu // n + reserve > arch.n_vector_regs:
                continue
            for ku in (1, 2, 4):
                for pf in (None, {"A": 8 * n, "B": 4 * n}):
                    cfg = OptimizationConfig(
                        unroll_jam=(("j", nu), ("i", mu)),
                        unroll=((("l", ku),) if ku > 1 else ()),
                        prefetch_distance=pf,
                    )
                    out.append(Candidate(cfg))
    if layout == "shuf":
        # the Shuf method applies to n x n grids on this layout
        cfg = OptimizationConfig(unroll_jam=(("j", n), ("i", n)))
        out.append(Candidate(cfg, strategy="shuf"))
        cfg2 = OptimizationConfig(unroll_jam=(("j", n), ("i", n)),
                                  unroll=(("l", 2),))
        out.append(Candidate(cfg2, strategy="shuf"))
    return out


def gemv_candidates(arch: ArchSpec) -> List[Candidate]:
    n = arch.doubles_per_vector
    out = []
    for u in (n, 2 * n, 4 * n, 8 * n):
        for pf in (None, {"A": 16 * n}):
            out.append(Candidate(OptimizationConfig(
                unroll=(("j", u),), prefetch_distance=pf)))
    return out


#: GER is the GEMV column sweep with matrix and vector roles swapped — the
#: same loop shape, so the same space: unroll j x prefetch A on/off
ger_candidates = gemv_candidates


def axpy_candidates(arch: ArchSpec) -> List[Candidate]:
    n = arch.doubles_per_vector
    out = []
    for u in (n, 2 * n, 4 * n, 8 * n):
        for pf in (None, {"X": 16 * n, "Y": 16 * n}):
            out.append(Candidate(OptimizationConfig(
                unroll=(("i", u),), prefetch_distance=pf)))
    return out


def dot_candidates(arch: ArchSpec) -> List[Candidate]:
    n = arch.doubles_per_vector
    out = []
    for u in (2 * n, 4 * n, 8 * n):
        for pf in (None, {"X": 16 * n, "Y": 16 * n}):
            out.append(Candidate(OptimizationConfig(
                unroll=(("i", u),), split=(("i", "res", u),),
                prefetch_distance=pf)))
    return out


CANDIDATE_SPACES = {
    "gemm": gemm_candidates,
    "gemv": gemv_candidates,
    "ger": ger_candidates,
    "axpy": axpy_candidates,
    "dot": dot_candidates,
}


def candidates_for(kernel: str, arch: ArchSpec, **kw) -> List[Candidate]:
    try:
        space = CANDIDATE_SPACES[kernel]
    except KeyError:
        raise KeyError(f"no tuning space for kernel {kernel!r}") from None
    return space(arch, **kw) if kernel == "gemm" else space(arch)
