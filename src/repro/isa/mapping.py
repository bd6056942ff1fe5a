"""Instruction mapping rules — paper Tables 1, 2, 3 and 4.

The template optimizers emit three-address *pseudo* operations (Load, Mul,
Add, Store, Vld, Vdup, Shuf, Vmul, Vadd, Vst).  This module lowers each of
them to concrete machine instructions according to the target
:class:`~repro.isa.arch.ArchSpec`:

- SSE mode: two-operand destructive instructions, so ``Mul+Add`` becomes
  ``Mov r1,r2; Mul r0,r2; Add r2,r3`` (Table 1 line 2, left column).
- AVX mode: non-destructive three-operand ``vmulpd``/``vaddpd``.
- FMA3: ``Mul+Add`` collapses to ``vfmadd231pd r0,r1,r3`` (Table 1 line 3).
- FMA4: ``vfmaddpd r0,r1,r3,r3`` (Table 1 line 4; four-operand AMD form).

Vector width is data: the same rules emit xmm, ymm or zmm operands from
``ArchSpec.vector_bytes``.  AVX-512 keeps AVX's three-operand forms, so
only broadcasts, zeroing and the horizontal fold look at the width.

All methods return ``List[Instr]`` so multi-instruction lowerings compose
uniformly.
"""

from __future__ import annotations

from typing import List, Optional

from .arch import ArchSpec
from .instructions import Instr, instr
from .operands import Imm, Mem
from .registers import N_VEX_REGS, Register


class MappingRules:
    """Arch-parameterized lowering of the paper's pseudo instructions."""

    def __init__(self, arch: ArchSpec) -> None:
        self.arch = arch
        self.avx = arch.simd == "avx"

    # ------------------------------------------------------------------
    # scalar double operations (mmCOMP / mmSTORE / mvCOMP, Tables 1-3)
    # ------------------------------------------------------------------
    def load_scalar(self, src: Mem, dst: Register, comment: str = None) -> List[Instr]:
        """``Load arr,idx,r1`` -> ``Load idx*SIZE(arr),r1``."""
        mn = "vmovsd" if self.avx else "movsd"
        return [instr(mn, src, dst.xmm, comment=comment)]

    def store_scalar(self, src: Register, dst: Mem, comment: str = None) -> List[Instr]:
        mn = "vmovsd" if self.avx else "movsd"
        return [instr(mn, src.xmm, dst, comment=comment)]

    def mov_scalar(self, src: Register, dst: Register) -> List[Instr]:
        if self.avx:
            return [instr("vmovapd", src.xmm, dst.xmm)]
        return [instr("movapd", src.xmm, dst.xmm)]

    def zero_scalar(self, reg: Register) -> List[Instr]:
        if self.avx:
            return [instr("vxorpd", reg.xmm, reg.xmm, reg.xmm)]
        return [instr("xorpd", reg.xmm, reg.xmm)]

    def add_scalar(self, src: Register, acc: Register) -> List[Instr]:
        """acc += src (scalar double)."""
        if self.avx:
            return [instr("vaddsd", src.xmm, acc.xmm, acc.xmm)]
        return [instr("addsd", src.xmm, acc.xmm)]

    def mul_scalar(self, src: Register, acc: Register) -> List[Instr]:
        """acc *= src (scalar double)."""
        if self.avx:
            return [instr("vmulsd", src.xmm, acc.xmm, acc.xmm)]
        return [instr("mulsd", src.xmm, acc.xmm)]

    def mul_add_scalar(self, a: Register, b: Register, acc: Register,
                       tmp: Optional[Register] = None,
                       comment: str = None) -> List[Instr]:
        """acc += a*b — Table 1 lines 2-4, scalar (sd) forms."""
        if self.arch.fma == "fma3":
            return [instr("vfmadd231sd", a.xmm, b.xmm, acc.xmm, comment=comment)]
        if self.arch.fma == "fma4":
            return [instr("vfmaddsd", acc.xmm, b.xmm, a.xmm, acc.xmm, comment=comment)]
        if self.avx:
            assert tmp is not None, "AVX non-FMA mul+add needs a temp register"
            return [
                instr("vmulsd", a.xmm, b.xmm, tmp.xmm, comment=comment),
                instr("vaddsd", tmp.xmm, acc.xmm, acc.xmm),
            ]
        assert tmp is not None, "SSE mul+add needs a temp register"
        return [
            instr("movapd", a.xmm, tmp.xmm, comment=comment),  # Mov r1,r2
            instr("mulsd", b.xmm, tmp.xmm),                    # Mul r0,r2
            instr("addsd", tmp.xmm, acc.xmm),                  # Add r2,r3
        ]

    # ------------------------------------------------------------------
    # vector operations (mmUnrolledCOMP / mmUnrolledSTORE / mvUnrolledCOMP,
    # Tables 1-4 packed forms)
    # ------------------------------------------------------------------
    def _v(self, reg: Register) -> Register:
        """Vector register at the arch's full width."""
        return reg.as_width(self.arch.vector_bytes)

    def vload(self, src: Mem, dst: Register, comment: str = None,
              aligned: bool = False) -> List[Instr]:
        """``Vld idx*SIZE(arr),r1`` — Table 4 line 1."""
        if self.avx:
            mn = "vmovapd" if aligned else "vmovupd"
        else:
            mn = "movapd" if aligned else "movupd"
        return [instr(mn, src, self._v(dst), comment=comment)]

    def vstore(self, src: Register, dst: Mem, comment: str = None,
               aligned: bool = False) -> List[Instr]:
        if self.avx:
            mn = "vmovapd" if aligned else "vmovupd"
        else:
            mn = "movapd" if aligned else "movupd"
        return [instr(mn, self._v(src), dst, comment=comment)]

    def vmov(self, src: Register, dst: Register) -> List[Instr]:
        mn = "vmovapd" if self.avx else "movapd"
        return [instr(mn, self._v(src), self._v(dst))]

    def vzero(self, reg: Register) -> List[Instr]:
        """Zero the whole register.

        At 64 bytes the VEX ``vxorpd %xmm`` form is used: a VEX write zeroes
        bits 511:128 too, and it needs only AVX512F (EVEX ``vxorpd`` on zmm
        is an AVX512DQ instruction).  VEX cannot name registers 16-31, so
        those take the EVEX integer form ``vpxord %zmm``, also AVX512F.
        """
        if self.arch.vector_bytes == 64 and reg.index >= N_VEX_REGS:
            v = self._v(reg)
            return [instr("vpxord", v, v, v)]
        v = reg.xmm if self.arch.vector_bytes == 64 else self._v(reg)
        if self.avx:
            return [instr("vxorpd", v, v, v)]
        return [instr("xorpd", v, v)]

    def vdup(self, src: Mem, dst: Register, comment: str = None) -> List[Instr]:
        """``Vdup``: load one element and replicate it across all lanes.

        SSE(3): ``movddup``; AVX-256/512: ``vbroadcastsd`` (memory source —
        the only form Sandy Bridge supports); AVX-128: ``vmovddup``.
        """
        if self.avx and self.arch.vector_bytes >= 32:
            return [instr("vbroadcastsd", src, self._v(dst), comment=comment)]
        if self.avx:
            return [instr("vmovddup", src, dst.xmm, comment=comment)]
        return [instr("movddup", src, dst.xmm, comment=comment)]

    def vadd(self, src: Register, acc: Register) -> List[Instr]:
        if self.avx:
            v = self.arch.vector_bytes
            return [instr("vaddpd", src.as_width(v), acc.as_width(v), acc.as_width(v))]
        return [instr("addpd", src.xmm, acc.xmm)]

    def vmul_into(self, a: Register, b: Register, dst: Register) -> List[Instr]:
        """dst = a*b (dst may alias a or b only in AVX mode)."""
        if self.avx:
            v = self.arch.vector_bytes
            return [instr("vmulpd", a.as_width(v), b.as_width(v), dst.as_width(v))]
        out = []
        if dst.index != a.index:
            out.append(instr("movapd", a.xmm, dst.xmm))
        out.append(instr("mulpd", b.xmm, dst.xmm))
        return out

    def vmul_add(self, a: Register, b: Register, acc: Register,
                 tmp: Optional[Register] = None,
                 comment: str = None) -> List[Instr]:
        """acc += a*b, packed — Table 1 lines 2-4 (the heart of the paper)."""
        v = self.arch.vector_bytes
        if self.arch.fma == "fma3":
            return [
                instr("vfmadd231pd", a.as_width(v), b.as_width(v),
                      acc.as_width(v), comment=comment)
            ]
        if self.arch.fma == "fma4":
            return [
                instr("vfmaddpd", acc.as_width(v), b.as_width(v),
                      a.as_width(v), acc.as_width(v), comment=comment)
            ]
        if self.avx:
            assert tmp is not None
            return [
                instr("vmulpd", a.as_width(v), b.as_width(v),
                      tmp.as_width(v), comment=comment),
                instr("vaddpd", tmp.as_width(v), acc.as_width(v), acc.as_width(v)),
            ]
        assert tmp is not None
        return [
            instr("movapd", a.xmm, tmp.xmm, comment=comment),
            instr("mulpd", b.xmm, tmp.xmm),
            instr("addpd", tmp.xmm, acc.xmm),
        ]

    # -- shuffles (Table 4 line 2) -------------------------------------------
    def shuf_swap_adjacent(self, src: Register, dst: Register) -> List[Instr]:
        """Swap each adjacent pair of lanes: (b0,b1,b2,b3)->(b1,b0,b3,b2).

        This is the paper's ``Shuf imm0`` for n=2 (SSE: ``shufpd $1``) and
        the in-lane half of the AVX Shuf method (``vpermilpd $5``).
        """
        if self.avx:
            imm = 0x55 & ((1 << self.arch.doubles_per_vector) - 1)
            return [instr("vpermilpd", Imm(imm), self._v(src), self._v(dst))]
        out = []
        if dst.index != src.index:
            out.append(instr("movapd", src.xmm, dst.xmm))
        out.append(instr("shufpd", Imm(1), dst.xmm, dst.xmm))
        return out

    def shuf_swap_lanes(self, src: Register, dst: Register) -> List[Instr]:
        """Swap the two 128-bit halves of a 256-bit register (AVX only)."""
        if not (self.avx and self.arch.vector_bytes == 32):
            raise ValueError("lane swap requires 256-bit AVX")
        v = self._v(src)
        return [instr("vperm2f128", Imm(1), v, v, self._v(dst))]

    def vblend(self, imm: int, a: Register, b: Register,
               dst: Register) -> List[Instr]:
        """dst[k] = b[k] if imm bit k else a[k] (AVX only)."""
        if not self.avx:
            raise ValueError("vblendpd requires AVX")
        v = self.arch.vector_bytes
        return [instr("vblendpd", Imm(imm), b.as_width(v), a.as_width(v),
                      dst.as_width(v))]

    def vperm128_lo_hi(self, lo_src: Register, hi_src: Register,
                       dst: Register) -> List[Instr]:
        """dst = (low half of lo_src, high half of hi_src) — 256-bit AVX."""
        if not (self.avx and self.arch.vector_bytes == 32):
            raise ValueError("vperm2f128 requires 256-bit AVX")
        return [instr("vperm2f128", Imm(0x30), hi_src.ymm, lo_src.ymm,
                      dst.ymm)]

    def shufpd_combine(self, imm: int, a: Register, b: Register,
                       dst: Register) -> List[Instr]:
        """dst = shufpd(a, b, imm): dst[0]=a[imm&1], dst[1]=b[(imm>>1)&1].

        128-bit only (used by the Shuf-method store un-permutation).
        """
        if self.avx:
            return [instr("vshufpd", Imm(imm), b.xmm, a.xmm, dst.xmm)]
        out = []
        if dst.index != a.index:
            out.append(instr("movapd", a.xmm, dst.xmm))
        out.append(instr("shufpd", Imm(imm), b.xmm, dst.xmm))
        return out

    # -- horizontal reduction (DOT epilogue) ----------------------------------
    def hreduce_to_scalar(self, acc: Register, tmp: Register,
                          comment: str = None) -> List[Instr]:
        """Sum all lanes of ``acc`` into its low scalar lane.

        512-bit: fold the upper 256 bits onto the lower, then as 256-bit;
        256-bit: extract high half, add, then fold the remaining pair;
        128-bit: fold the pair with an unpack + add.
        """
        out: List[Instr] = []
        if self.avx and self.arch.vector_bytes == 64:
            out.append(instr("vextractf64x4", Imm(1), acc.as_width(64),
                             tmp.ymm, comment=comment))
            out.append(instr("vaddpd", tmp.ymm, acc.ymm, acc.ymm))
            comment = None
        if self.avx and self.arch.vector_bytes >= 32:
            out.append(
                instr("vextractf128", Imm(1), acc.ymm, tmp.xmm, comment=comment)
            )
            out.append(instr("vaddpd", tmp.xmm, acc.xmm, acc.xmm))
            out.append(instr("vunpckhpd", acc.xmm, acc.xmm, tmp.xmm))
            out.append(instr("vaddsd", tmp.xmm, acc.xmm, acc.xmm))
            return out
        if self.avx:
            out.append(instr("vunpckhpd", acc.xmm, acc.xmm, tmp.xmm, comment=comment))
            out.append(instr("vaddsd", tmp.xmm, acc.xmm, acc.xmm))
            return out
        out.append(instr("movapd", acc.xmm, tmp.xmm, comment=comment))
        out.append(instr("unpckhpd", tmp.xmm, tmp.xmm))
        out.append(instr("addsd", tmp.xmm, acc.xmm))
        return out
