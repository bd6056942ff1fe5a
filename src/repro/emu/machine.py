"""x86-64 subset interpreter.

Executes the instruction streams produced by the Assembly Kernel Generator
— the exact IR that is also printed as GAS — against numpy-backed memory.
This gives the test suite an oracle for *any* architecture spec (including
FMA4/Piledriver code the host cannot run) and validates instruction
semantics independently of the native toolchain.

Supported: the GP/SSE/AVX/AVX-512F/FMA vocabulary in
:data:`repro.isa.instructions.INSTR_INFO`.  The vector file is the 32
AVX-512 registers, each eight float64 lanes (zmm); VEX/EVEX writes zero
every lane above the operand width, legacy SSE writes preserve them,
matching hardware.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Union

import numpy as np

from ..isa.instructions import Instr, Item, Label
from ..isa.operands import Imm, LabelRef, Mem
from ..isa.registers import N_EVEX_REGS, Register
from .memory import Memory

_U64 = 2 ** 64
_S64_MAX = 2 ** 63 - 1


def _to_signed(v: int) -> int:
    v &= _U64 - 1
    return v - _U64 if v > _S64_MAX else v


class EmuError(RuntimeError):
    """Bad instruction, unmapped label, or runaway execution."""


def _fma(a: np.ndarray, b: np.ndarray, c: np.ndarray) -> np.ndarray:
    """Fused multiply-add with a *single* rounding, matching hardware FMA.

    numpy has no fma ufunc; exact semantics come from rational arithmetic
    (Fraction -> float conversion rounds correctly once).  Non-finite
    inputs fall back to ordinary float arithmetic.  An exact zero loses its
    sign in a Fraction, so it follows the IEEE rule instead: ``+0`` unless
    a zero product and a zero addend are both negative.
    """
    from fractions import Fraction

    a = np.atleast_1d(a)
    b = np.atleast_1d(b)
    c = np.atleast_1d(c)
    out = np.empty_like(a)
    for i in range(len(out)):
        ai, bi, ci = float(a[i]), float(b[i]), float(c[i])
        if not (np.isfinite(ai) and np.isfinite(bi) and np.isfinite(ci)):
            out[i] = ai * bi + ci
        else:
            exact = Fraction(ai) * Fraction(bi) + Fraction(ci)
            if exact == 0:
                # a zero product is exact in floats, so +/-0 + c signs it;
                # a non-zero product cancelled by c rounds to +0
                out[i] = ai * bi + ci if ai * bi == 0 else 0.0
                continue
            try:
                out[i] = float(exact)
            except OverflowError:  # rounds past DBL_MAX -> +/-inf
                out[i] = np.inf if exact > 0 else -np.inf
    return out


@dataclass
class MachineState:
    gp: Dict[str, int] = field(default_factory=dict)
    vec: np.ndarray = field(
        default_factory=lambda: np.zeros((N_EVEX_REGS, 8)))
    # last flag-setting operation, stored as (signed_result_for_zero_cmp)
    cmp_dst: int = 0
    cmp_src: int = 0
    steps: int = 0

    def read_gp(self, reg: Register) -> int:
        return self.gp.get(reg.name, 0)

    def write_gp(self, reg: Register, value: int) -> None:
        self.gp[reg.name] = value & (_U64 - 1)


class Machine:
    """Interprets an item stream as one function activation."""

    def __init__(self, items: List[Item], memory: Memory,
                 max_steps: int = 500_000_000) -> None:
        self.items = list(items)
        self.mem = memory
        self.max_steps = max_steps
        self.state = MachineState()
        self.labels: Dict[str, int] = {}
        for idx, it in enumerate(self.items):
            if isinstance(it, Label):
                if it.name in self.labels:
                    raise EmuError(f"duplicate label {it.name}")
                self.labels[it.name] = idx

    # -- operand access -----------------------------------------------------
    def _mem_addr(self, op: Mem) -> int:
        addr = op.disp
        if op.base is not None:
            addr += self.state.read_gp(op.base)
        if op.index is not None:
            addr += self.state.read_gp(op.index) * op.scale
        return addr & (_U64 - 1)

    def _read_int(self, op) -> int:
        if isinstance(op, Register):
            return self.state.read_gp(op)
        if isinstance(op, Imm):
            return op.value & (_U64 - 1)
        if isinstance(op, Mem):
            return self.mem.read_u64(self._mem_addr(op))
        raise EmuError(f"cannot read integer operand {op}")

    def _write_int(self, op, value: int) -> None:
        if isinstance(op, Register):
            self.state.write_gp(op, value)
        elif isinstance(op, Mem):
            self.mem.write_u64(self._mem_addr(op), value & (_U64 - 1))
        else:
            raise EmuError(f"cannot write integer operand {op}")

    # vector lanes -------------------------------------------------------
    @staticmethod
    def _lanes(reg: Register) -> int:
        return reg.width // 8

    def _vreg(self, reg: Register) -> np.ndarray:
        return self.state.vec[reg.index]

    def _read_vec(self, op, lanes: int) -> np.ndarray:
        if isinstance(op, Register):
            return self._vreg(op)[:lanes].copy()
        if isinstance(op, Mem):
            return self.mem.read_f64(self._mem_addr(op), lanes)
        raise EmuError(f"cannot read vector operand {op}")

    def _write_vec(self, op, values: np.ndarray, vex: bool) -> None:
        values = np.atleast_1d(values)
        if isinstance(op, Register):
            v = self._vreg(op)
            v[: len(values)] = values
            if vex:  # VEX/EVEX write zeroes lanes above the operand width
                v[len(values):] = 0.0
        elif isinstance(op, Mem):
            self.mem.write_f64(self._mem_addr(op), values)
        else:
            raise EmuError(f"cannot write vector operand {op}")

    # -- flag helpers ---------------------------------------------------------
    def _set_cmp(self, dst: int, src: int) -> None:
        self.state.cmp_dst = _to_signed(dst)
        self.state.cmp_src = _to_signed(src)

    def _branch_taken(self, mnemonic: str) -> bool:
        d, s = self.state.cmp_dst, self.state.cmp_src
        return {
            "je": d == s,
            "jne": d != s,
            "jl": d < s,
            "jle": d <= s,
            "jg": d > s,
            "jge": d >= s,
        }[mnemonic]

    # -- main loop -----------------------------------------------------------
    def run(self, entry: int = 0) -> None:
        pc = entry
        n = len(self.items)
        while pc < n:
            self.state.steps += 1
            if self.state.steps > self.max_steps:
                raise EmuError("instruction budget exhausted (runaway loop?)")
            it = self.items[pc]
            if not isinstance(it, Instr):
                pc += 1
                continue
            next_pc = self._exec(it, pc)
            if next_pc is None:
                return  # ret hit the sentinel
            pc = next_pc

    # -- single instruction ------------------------------------------------
    def _exec(self, ins: Instr, pc: int) -> Optional[int]:
        mn = ins.mnemonic
        ops = ins.operands
        st = self.state

        # ---- control flow -------------------------------------------------
        if mn == "jmp":
            return self._label_index(ops[0])
        if mn in ("je", "jne", "jl", "jle", "jg", "jge"):
            return self._label_index(ops[0]) if self._branch_taken(mn) else pc + 1
        if mn == "ret":
            rsp = st.gp.get("rsp", 0)
            ret_addr = self.mem.read_u64(rsp)
            st.gp["rsp"] = rsp + 8
            if ret_addr == self.SENTINEL:
                return None
            raise EmuError("ret to a non-sentinel address")
        if mn == "nop" or mn.startswith("prefetch") or mn == "vzeroupper":
            return pc + 1

        # ---- GP -----------------------------------------------------------
        if mn in ("mov", "movq"):
            self._write_int(ops[1], self._read_int(ops[0]))
            return pc + 1
        if mn == "lea":
            assert isinstance(ops[0], Mem)
            self._write_int(ops[1], self._mem_addr(ops[0]))
            return pc + 1
        if mn in ("add", "sub", "imul", "and", "or", "xor"):
            a = self._read_int(ops[0])
            b = self._read_int(ops[1])
            if mn == "add":
                r = b + a
            elif mn == "sub":
                r = b - a
            elif mn == "imul":
                r = _to_signed(b) * _to_signed(a)
            elif mn == "and":
                r = b & a
            elif mn == "or":
                r = b | a
            else:
                r = b ^ a
            self._write_int(ops[1], r & (_U64 - 1))
            self._set_cmp(r & (_U64 - 1), 0)
            return pc + 1
        if mn in ("sal", "shl", "sar"):
            amount = self._read_int(ops[0]) & 63
            v = self._read_int(ops[1])
            if mn == "sar":
                r = _to_signed(v) >> amount
            else:
                r = v << amount
            self._write_int(ops[1], r & (_U64 - 1))
            self._set_cmp(r & (_U64 - 1), 0)
            return pc + 1
        if mn == "neg":
            v = self._read_int(ops[0])
            self._write_int(ops[0], (-_to_signed(v)) & (_U64 - 1))
            return pc + 1
        if mn in ("inc", "dec"):
            v = self._read_int(ops[0])
            r = v + (1 if mn == "inc" else -1)
            self._write_int(ops[0], r & (_U64 - 1))
            self._set_cmp(r & (_U64 - 1), 0)
            return pc + 1
        if mn == "cmp":
            self._set_cmp(self._read_int(ops[1]), self._read_int(ops[0]))
            return pc + 1
        if mn == "test":
            self._set_cmp(self._read_int(ops[1]) & self._read_int(ops[0]), 0)
            return pc + 1
        if mn == "push":
            rsp = st.gp.get("rsp", 0) - 8
            st.gp["rsp"] = rsp
            self.mem.write_u64(rsp, self._read_int(ops[0]))
            return pc + 1
        if mn == "pop":
            rsp = st.gp.get("rsp", 0)
            self._write_int(ops[0], self.mem.read_u64(rsp))
            st.gp["rsp"] = rsp + 8
            return pc + 1

        # ---- SSE / AVX ------------------------------------------------------
        vex = mn.startswith("v")
        if mn in ("movsd", "vmovsd"):
            src, dst = ops
            if isinstance(dst, Mem):
                self.mem.write_f64(self._mem_addr(dst),
                                   np.array([self._vreg(src)[0]]))
                return pc + 1
            v = self._vreg(dst)
            if isinstance(src, Mem):
                v[0] = self.mem.read_f64(self._mem_addr(src), 1)[0]
                v[1] = 0.0  # load form zeroes the rest of the register
                if vex:
                    v[2:] = 0.0
            else:
                v[0] = self._vreg(src)[0]  # reg->reg merges the low lane
                if vex:
                    v[2:] = 0.0  # VEX reg-reg merge still zeroes the uppers
            return pc + 1
        if mn in ("movapd", "movupd", "vmovapd", "vmovupd"):
            src, dst = ops
            lanes = self._lanes(dst if isinstance(dst, Register) else src)
            vals = self._read_vec(src, lanes)
            self._write_vec(dst, vals, vex)
            return pc + 1
        if mn in ("movddup", "vmovddup"):
            src, dst = ops
            val = (self.mem.read_f64(self._mem_addr(src), 1)[0]
                   if isinstance(src, Mem) else self._vreg(src)[0])
            self._write_vec(dst, np.array([val, val]), vex)
            return pc + 1
        if mn == "vbroadcastsd":
            src, dst = ops
            val = self.mem.read_f64(self._mem_addr(src), 1)[0]
            self._write_vec(dst, np.full(self._lanes(dst), val), vex)
            return pc + 1
        if mn in ("addsd", "subsd", "mulsd", "divsd"):
            src, dst = ops
            a = (self.mem.read_f64(self._mem_addr(src), 1)[0]
                 if isinstance(src, Mem) else self._vreg(src)[0])
            d = self._vreg(dst)
            if mn == "addsd":
                d[0] = d[0] + a
            elif mn == "subsd":
                d[0] = d[0] - a
            elif mn == "mulsd":
                d[0] = d[0] * a
            else:
                d[0] = d[0] / a
            return pc + 1
        if mn in ("addpd", "subpd", "mulpd"):
            src, dst = ops
            a = self._read_vec(src, 2)
            d = self._vreg(dst)
            if mn == "addpd":
                d[:2] = d[:2] + a
            elif mn == "subpd":
                d[:2] = d[:2] - a
            else:
                d[:2] = d[:2] * a
            return pc + 1
        if mn == "xorpd":
            src, dst = ops
            a = self._read_vec(src, 2)
            d = self._vreg(dst)
            bits = (np.frombuffer(d[:2].tobytes(), np.uint64)
                    ^ np.frombuffer(a.tobytes(), np.uint64))
            d[:2] = np.frombuffer(bits.tobytes(), np.float64)
            return pc + 1
        if mn in ("vaddsd", "vsubsd", "vmulsd"):
            s1, s2, dst = ops
            a = (self.mem.read_f64(self._mem_addr(s1), 1)[0]
                 if isinstance(s1, Mem) else self._vreg(s1)[0])
            b = self._vreg(s2)[0]
            if mn == "vaddsd":
                r = b + a
            elif mn == "vsubsd":
                r = b - a
            else:
                r = b * a
            out = self._vreg(s2).copy()
            out[0] = r
            self._write_vec(dst, out[:2], vex=True)
            return pc + 1
        if mn in ("vaddpd", "vsubpd", "vmulpd"):
            s1, s2, dst = ops
            lanes = self._lanes(dst)
            a = self._read_vec(s1, lanes)
            b = self._read_vec(s2, lanes)
            if mn == "vaddpd":
                r = b + a
            elif mn == "vsubpd":
                r = b - a
            else:
                r = b * a
            self._write_vec(dst, r, vex=True)
            return pc + 1
        if mn in ("vxorpd", "vpxord"):
            s1, s2, dst = ops
            lanes = self._lanes(dst)
            a = self._read_vec(s1, lanes)
            b = self._read_vec(s2, lanes)
            r = (np.frombuffer(b.tobytes(), np.uint64)
                 ^ np.frombuffer(a.tobytes(), np.uint64))
            self._write_vec(dst, np.frombuffer(r.tobytes(), np.float64), vex=True)
            return pc + 1
        if mn == "shufpd":
            imm, src, dst = ops
            i = imm.value
            d = self._vreg(dst)
            s = self._read_vec(src, 2)
            d[:2] = np.array([d[i & 1], s[(i >> 1) & 1]])
            return pc + 1
        if mn == "vshufpd":
            imm, s2, s1, dst = ops
            i = imm.value
            lanes = self._lanes(dst)
            a = self._read_vec(s1, lanes)
            b = self._read_vec(s2, lanes)
            out = np.empty(lanes)
            for lane_pair in range(lanes // 2):
                base = lane_pair * 2
                out[base] = a[base + ((i >> base) & 1)]
                out[base + 1] = b[base + ((i >> (base + 1)) & 1)]
            self._write_vec(dst, out, vex=True)
            return pc + 1
        if mn == "vblendpd":
            imm, s2, s1, dst = ops
            lanes = self._lanes(dst)
            a = self._read_vec(s1, lanes)
            b = self._read_vec(s2, lanes)
            out = np.array([b[k] if (imm.value >> k) & 1 else a[k]
                            for k in range(lanes)])
            self._write_vec(dst, out, vex=True)
            return pc + 1
        if mn == "vpermilpd":
            imm, src, dst = ops
            i = imm.value
            lanes = self._lanes(dst)
            s = self._read_vec(src, lanes)
            out = np.empty(lanes)
            for k in range(lanes):
                base = (k // 2) * 2
                out[k] = s[base + ((i >> k) & 1)]
            self._write_vec(dst, out, vex=True)
            return pc + 1
        if mn == "vperm2f128":
            imm, s2, s1, dst = ops
            i = imm.value
            a = self._read_vec(s1, 4)
            b = self._read_vec(s2, 4)
            halves = [a[0:2], a[2:4], b[0:2], b[2:4]]
            lo = halves[i & 3] if not (i & 0x8) else np.zeros(2)
            hi = halves[(i >> 4) & 3] if not (i & 0x80) else np.zeros(2)
            self._write_vec(dst, np.concatenate([lo, hi]), vex=True)
            return pc + 1
        if mn == "vextractf128":
            imm, src, dst = ops
            s = self._read_vec(src, 4)
            half = s[2:4] if imm.value & 1 else s[0:2]
            self._write_vec(dst, half, vex=True)
            return pc + 1
        if mn == "vextractf64x4":
            imm, src, dst = ops
            s = self._read_vec(src, 8)
            half = s[4:8] if imm.value & 1 else s[0:4]
            self._write_vec(dst, half, vex=True)
            return pc + 1
        if mn == "vinsertf128":
            imm, s2, s1, dst = ops
            a = self._read_vec(s1, 4)
            b = self._read_vec(s2, 2)
            out = a.copy()
            if imm.value & 1:
                out[2:4] = b
            else:
                out[0:2] = b
            self._write_vec(dst, out, vex=True)
            return pc + 1
        if mn in ("unpcklpd", "unpckhpd"):
            src, dst = ops
            d = self._vreg(dst)
            s = self._read_vec(src, 2)
            k = 0 if mn == "unpcklpd" else 1
            d[:2] = np.array([d[k], s[k]])
            return pc + 1
        if mn in ("vunpcklpd", "vunpckhpd"):
            s2, s1, dst = ops
            lanes = self._lanes(dst)
            a = self._read_vec(s1, lanes)
            b = self._read_vec(s2, lanes)
            k = 0 if mn == "vunpcklpd" else 1
            out = np.empty(lanes)
            for lane_pair in range(lanes // 2):
                base = lane_pair * 2
                out[base] = a[base + k]
                out[base + 1] = b[base + k]
            self._write_vec(dst, out, vex=True)
            return pc + 1
        if mn == "haddpd":
            src, dst = ops
            d = self._vreg(dst)
            s = self._read_vec(src, 2)
            d[:2] = np.array([d[0] + d[1], s[0] + s[1]])
            return pc + 1
        if mn == "vhaddpd":
            s2, s1, dst = ops
            lanes = self._lanes(dst)
            a = self._read_vec(s1, lanes)
            b = self._read_vec(s2, lanes)
            out = np.empty(lanes)
            for lane_pair in range(lanes // 2):
                base = lane_pair * 2
                out[base] = a[base] + a[base + 1]
                out[base + 1] = b[base] + b[base + 1]
            self._write_vec(dst, out, vex=True)
            return pc + 1
        if mn in ("vfmadd231pd", "vfmadd213pd", "vfmadd132pd"):
            s1, s2, dst = ops
            lanes = self._lanes(dst)
            a = self._read_vec(s1, lanes)
            b = self._read_vec(s2, lanes)
            d = self._read_vec(dst, lanes)
            if mn == "vfmadd231pd":  # dst = dst + s2*s1
                r = _fma(b, a, d)
            elif mn == "vfmadd213pd":  # dst = s2*dst + s1
                r = _fma(b, d, a)
            else:  # 132: dst = dst*s1 + s2
                r = _fma(d, a, b)
            self._write_vec(dst, r, vex=True)
            return pc + 1
        if mn == "vfmadd231sd":
            s1, s2, dst = ops
            a = self._vreg(s1)[0]
            b = self._vreg(s2)[0]
            d = self._vreg(dst)
            d[0] = _fma(np.array([b]), np.array([a]), np.array([d[0]]))[0]
            d[2:] = 0.0  # VEX-128 write zeroes the upper lanes
            return pc + 1
        if mn in ("vfmaddpd", "vfmaddsd"):
            # AT&T: vfmaddpd src3, src2, src1, dst -> dst = src1*src2 + src3
            s3, s2, s1, dst = ops
            lanes = self._lanes(dst) if mn == "vfmaddpd" else 1
            a = self._read_vec(s1, lanes)
            b = self._read_vec(s2, lanes)
            c = self._read_vec(s3, lanes)
            r = _fma(a, b, c)
            if mn == "vfmaddsd":
                out = self._vreg(s1).copy()  # lane 1 comes from src1
                out[0] = r[0]
                self._write_vec(dst, out[:2], vex=True)
            else:
                self._write_vec(dst, r, vex=True)
            return pc + 1
        if mn == "ucomisd":
            src, dst = ops
            a = self._vreg(src)[0]
            d = self._vreg(dst)[0]
            self._set_cmp(int(np.sign(d - a)), 0)
            return pc + 1

        raise EmuError(f"unimplemented instruction {ins}")

    SENTINEL = 0xDEADBEEFDEADBEEF

    def _label_index(self, op) -> int:
        if not isinstance(op, LabelRef):
            raise EmuError(f"jump target must be a label, got {op}")
        try:
            return self.labels[op.name]
        except KeyError:
            raise EmuError(f"undefined label {op.name}") from None
