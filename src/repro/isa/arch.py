"""Architecture specifications (the ``arch`` input of paper Fig. 2).

An :class:`ArchSpec` tells the template optimizers which SIMD mode to use
(SSE / AVX), whether fused multiply-add is available and in which flavour
(FMA3 / FMA4 — paper Table 1 rows 2-4), the vector width, and the register
budget used by the per-array register-queue allocator (§3.1).

The two evaluation platforms of the paper (Table 5) are modelled, along
with a generic SSE2 target (standing in for the pre-AVX GotoBLAS code path),
Haswell (AVX2+FMA3) and Skylake-X (AVX-512F: the same templates and mapping
rules at 64-byte width).
"""

from __future__ import annotations

import os
import re
from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple

from .registers import VEC_PREFIX


@dataclass(frozen=True)
class ArchSpec:
    """Everything the generator needs to know about a target CPU."""

    name: str
    simd: str  # "sse" or "avx" (AVX-512 keeps AVX's three-operand forms)
    fma: Optional[str] = None  # None, "fma3", "fma4"
    vector_bytes: int = 16  # SIMD register width: 16, 32 or 64
    n_vector_regs: int = 16
    cache_line: int = 64
    l1d_bytes: int = 32 * 1024
    l2_bytes: int = 256 * 1024
    #: default prefetch distance in *elements* (doubles) for tuning seeds
    prefetch_distance: int = 64
    #: human description for reports
    description: str = ""

    def __post_init__(self) -> None:
        if self.simd not in ("sse", "avx"):
            raise ValueError(f"simd must be 'sse' or 'avx', got {self.simd!r}")
        if self.fma not in (None, "fma3", "fma4"):
            raise ValueError(f"bad fma flavour {self.fma!r}")
        if self.simd == "sse" and self.vector_bytes != 16:
            raise ValueError("SSE vector width is 16 bytes")
        if self.vector_bytes not in VEC_PREFIX:
            raise ValueError(f"vector width must be one of "
                             f"{sorted(VEC_PREFIX)} bytes")

    @property
    def doubles_per_vector(self) -> int:
        """n in the paper's vectorization discussion (§3.4)."""
        return self.vector_bytes // 8

    @property
    def has_fma(self) -> bool:
        return self.fma is not None

    def __str__(self) -> str:
        fma = self.fma or "no-fma"
        return f"{self.name}({self.simd}{self.vector_bytes * 8},{fma})"


#: Intel Sandy Bridge E5-2680 (paper Table 5): AVX 256-bit, no FMA.
SANDYBRIDGE = ArchSpec(
    name="sandybridge",
    simd="avx",
    vector_bytes=32,
    l1d_bytes=32 * 1024,
    l2_bytes=256 * 1024,
    prefetch_distance=64,
    description="Intel Sandy Bridge (AVX, no FMA) — paper Table 5 column 1",
)

#: AMD Piledriver 6380 (paper Table 5): AVX 256-bit with FMA4 (and FMA3).
PILEDRIVER = ArchSpec(
    name="piledriver",
    simd="avx",
    fma="fma4",
    vector_bytes=32,
    l1d_bytes=16 * 1024,
    l2_bytes=2048 * 1024,
    prefetch_distance=96,
    description="AMD Piledriver (AVX + FMA4) — paper Table 5 column 2",
)

#: Intel Haswell and later: AVX2 with FMA3 (this container's host CPU).
HASWELL = ArchSpec(
    name="haswell",
    simd="avx",
    fma="fma3",
    vector_bytes=32,
    l1d_bytes=32 * 1024,
    l2_bytes=256 * 1024,
    prefetch_distance=64,
    description="Intel Haswell-class (AVX2 + FMA3)",
)

#: Intel Skylake-X and later: AVX-512F with FMA and all 32 zmm registers.
#: zmm16-31 have only EVEX encodings; the allocator hands them out after
#: zmm0-15, so only the GEMM tile (24 accumulators, 3 A vectors and a
#: rotating broadcast) reaches them, and every kernel that fits 16 registers
#: keeps Haswell's register plan at 64-byte width.
SKYLAKE_X = ArchSpec(
    name="skylake_x",
    simd="avx",
    fma="fma3",
    vector_bytes=64,
    n_vector_regs=32,
    l1d_bytes=32 * 1024,
    l2_bytes=1024 * 1024,
    prefetch_distance=64,
    description="Intel Skylake-X-class (AVX-512F + FMA, 512-bit zmm)",
)

#: Generic SSE2 x86-64 — the pre-AVX code path (GotoBLAS-era hardware).
GENERIC_SSE = ArchSpec(
    name="generic_sse",
    simd="sse",
    vector_bytes=16,
    prefetch_distance=32,
    description="Generic x86-64 SSE2 (GotoBLAS-era, no AVX/FMA)",
)

ALL_ARCHS = {
    a.name: a
    for a in (SANDYBRIDGE, PILEDRIVER, HASWELL, SKYLAKE_X, GENERIC_SSE)
}


def get_arch(name: str) -> ArchSpec:
    try:
        return ALL_ARCHS[name]
    except KeyError:
        raise KeyError(
            f"unknown arch {name!r}; available: {sorted(ALL_ARCHS)}"
        ) from None


#: env var forcing the detected host arch (any ``ALL_ARCHS`` name, or
#: ``reference`` — which the dispatch layer maps to the pure-numpy tier).
FORCE_ARCH_ENV = "REPRO_FORCE_ARCH"

#: values of the env var that mean "no override"
_FORCE_OFF = frozenset({"", "0", "off", "none", "auto"})

_DEFAULT_CPUINFO = "/proc/cpuinfo"

#: per-process memo for the default-path detection only; explicit paths
#: (tests feeding synthetic cpuinfo files) are always re-read
_HOST_CACHE: Dict[str, ArchSpec] = {}


def forced_arch_name() -> Optional[str]:
    """Normalized ``$REPRO_FORCE_ARCH`` value, or ``None`` when unset.

    Returns an ``ALL_ARCHS`` name or the literal ``"reference"``; any
    other value raises with the list of choices.
    """
    raw = os.environ.get(FORCE_ARCH_ENV)
    if raw is None:
        return None
    name = raw.strip().lower()
    if name in _FORCE_OFF:
        return None
    if name in ALL_ARCHS or name == "reference":
        return name
    raise KeyError(
        f"${FORCE_ARCH_ENV}={raw!r} is not a modelled architecture; "
        f"available: {sorted(ALL_ARCHS) + ['reference']}")


def reset_host_cache() -> None:
    """Forget the memoized default-path host detection (tests)."""
    _HOST_CACHE.clear()


def detect_host(cpuinfo_path: str = _DEFAULT_CPUINFO) -> ArchSpec:
    """Pick the best spec the *host* CPU can execute natively.

    ``$REPRO_FORCE_ARCH`` overrides detection entirely (``reference``
    resolves to GENERIC_SSE here; the dispatch layer additionally pins
    the whole fallback chain to the pure-numpy tier).  The default-path
    result is memoized per process — ``/proc/cpuinfo`` cannot change
    under a running interpreter, and ``AugemBLAS()`` constructs call this
    eagerly.  Explicit paths are always re-read (tests feed variants).

    Falls back to GENERIC_SSE when cpuinfo is unavailable (every x86-64
    CPU has SSE2).  FMA4 is never selected for native execution — Intel
    hosts cannot run it; Piledriver code is validated in the emulator.
    """
    forced = forced_arch_name()
    if forced is not None:
        return GENERIC_SSE if forced == "reference" else ALL_ARCHS[forced]
    cached = _HOST_CACHE.get(cpuinfo_path) if cpuinfo_path == _DEFAULT_CPUINFO else None
    if cached is not None:
        return cached
    try:
        with open(cpuinfo_path) as f:
            text = f.read()
    except OSError:
        return GENERIC_SSE
    flags_match = re.search(r"^flags\s*:\s*(.*)$", text, re.M)
    flags = set(flags_match.group(1).split()) if flags_match else set()
    if "avx512f" in flags and "avx2" in flags and "fma" in flags:
        spec = SKYLAKE_X
    elif "avx2" in flags and "fma" in flags:
        spec = HASWELL
    elif "avx" in flags:
        spec = SANDYBRIDGE
    else:
        spec = GENERIC_SSE
    if cpuinfo_path == _DEFAULT_CPUINFO:
        _HOST_CACHE[cpuinfo_path] = spec
    return spec
