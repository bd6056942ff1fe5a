"""Machine-instruction IR.

Instructions use **AT&T operand order** (sources first, destination last),
matching both the GAS emitter and the emulator.  Each mnemonic has a small
metadata entry describing operand roles so the scheduler and the emulator
can compute reads/writes without special-casing.

Roles (one letter per operand position):

- ``R``  read
- ``W``  write (register or memory destination)
- ``M``  read-modify-write destination
- ``I``  immediate (read)

An instruction stream is a list of :class:`Item` (instructions, labels,
directives, comments).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, List, Optional, Tuple, Union

from .operands import Imm, LabelRef, Mem, Operand
from .registers import N_VEX_REGS, RSP, Register


@dataclass(frozen=True)
class InstrInfo:
    roles: Tuple[str, ...]
    writes_flags: bool = False
    reads_flags: bool = False
    is_branch: bool = False
    latency: int = 1  # generic scheduling weight


_I = InstrInfo

#: mnemonic -> operand roles in AT&T order.
INSTR_INFO = {
    # -- GP ----------------------------------------------------------------
    "mov":   _I(("R", "W")),
    "movq":  _I(("R", "W")),
    "lea":   _I(("R", "W")),
    "add":   _I(("R", "M"), writes_flags=True),
    "sub":   _I(("R", "M"), writes_flags=True),
    "imul":  _I(("R", "M"), writes_flags=True, latency=3),
    "neg":   _I(("M",), writes_flags=True),
    "xor":   _I(("R", "M"), writes_flags=True),
    "and":   _I(("R", "M"), writes_flags=True),
    "or":    _I(("R", "M"), writes_flags=True),
    "sal":   _I(("I", "M"), writes_flags=True),
    "shl":   _I(("I", "M"), writes_flags=True),
    "sar":   _I(("I", "M"), writes_flags=True),
    "inc":   _I(("M",), writes_flags=True),
    "dec":   _I(("M",), writes_flags=True),
    "cmp":   _I(("R", "R"), writes_flags=True),
    "test":  _I(("R", "R"), writes_flags=True),
    "push":  _I(("R",)),
    "pop":   _I(("W",)),
    "jmp":   _I(("R",), is_branch=True),
    "je":    _I(("R",), is_branch=True, reads_flags=True),
    "jne":   _I(("R",), is_branch=True, reads_flags=True),
    "jl":    _I(("R",), is_branch=True, reads_flags=True),
    "jle":   _I(("R",), is_branch=True, reads_flags=True),
    "jg":    _I(("R",), is_branch=True, reads_flags=True),
    "jge":   _I(("R",), is_branch=True, reads_flags=True),
    "ret":   _I((), is_branch=True),
    "nop":   _I(()),
    # -- SSE scalar double ---------------------------------------------------
    "movsd":  _I(("R", "W"), latency=3),
    "addsd":  _I(("R", "M"), latency=3),
    "subsd":  _I(("R", "M"), latency=3),
    "mulsd":  _I(("R", "M"), latency=5),
    "divsd":  _I(("R", "M"), latency=14),
    "ucomisd": _I(("R", "R"), writes_flags=True),
    # -- SSE packed double -----------------------------------------------------
    "movupd":  _I(("R", "W"), latency=3),
    "movapd":  _I(("R", "W"), latency=3),
    "movddup": _I(("R", "W"), latency=3),
    "addpd":   _I(("R", "M"), latency=3),
    "subpd":   _I(("R", "M"), latency=3),
    "mulpd":   _I(("R", "M"), latency=5),
    "xorpd":   _I(("R", "M")),
    "shufpd":  _I(("I", "R", "M")),
    "unpcklpd": _I(("R", "M")),
    "unpckhpd": _I(("R", "M")),
    "haddpd":  _I(("R", "M"), latency=5),
    # -- AVX ----------------------------------------------------------------
    "vmovsd":       _I(("R", "W"), latency=3),
    "vmovupd":      _I(("R", "W"), latency=3),
    "vmovapd":      _I(("R", "W"), latency=3),
    "vmovddup":     _I(("R", "W")),
    "vbroadcastsd": _I(("R", "W"), latency=3),
    "vaddpd":  _I(("R", "R", "W"), latency=3),
    "vsubpd":  _I(("R", "R", "W"), latency=3),
    "vmulpd":  _I(("R", "R", "W"), latency=5),
    "vaddsd":  _I(("R", "R", "W"), latency=3),
    "vsubsd":  _I(("R", "R", "W"), latency=3),
    "vmulsd":  _I(("R", "R", "W"), latency=5),
    "vxorpd":  _I(("R", "R", "W")),
    "vpxord":  _I(("R", "R", "W")),
    "vshufpd": _I(("I", "R", "R", "W")),
    "vblendpd": _I(("I", "R", "R", "W")),
    "vpermilpd": _I(("I", "R", "W")),
    "vperm2f128": _I(("I", "R", "R", "W"), latency=3),
    "vextractf128": _I(("I", "R", "W"), latency=3),
    "vextractf64x4": _I(("I", "R", "W"), latency=3),
    "vinsertf128": _I(("I", "R", "R", "W"), latency=3),
    "vunpcklpd": _I(("R", "R", "W")),
    "vunpckhpd": _I(("R", "R", "W")),
    "vhaddpd":  _I(("R", "R", "W"), latency=5),
    "vzeroupper": _I(()),
    # -- FMA -------------------------------------------------------------------
    "vfmadd231pd": _I(("R", "R", "M"), latency=5),
    "vfmadd231sd": _I(("R", "R", "M"), latency=5),
    "vfmadd213pd": _I(("R", "R", "M"), latency=5),
    "vfmadd132pd": _I(("R", "R", "M"), latency=5),
    # FMA4 (AMD): vfmaddpd dst, src3, src2, src1  (AT&T: src1,src2,src3,dst)
    "vfmaddpd": _I(("R", "R", "R", "W"), latency=6),
    "vfmaddsd": _I(("R", "R", "R", "W"), latency=6),
    # -- prefetch -------------------------------------------------------------
    "prefetcht0":  _I(("R",)),
    "prefetcht1":  _I(("R",)),
    "prefetcht2":  _I(("R",)),
    "prefetchnta": _I(("R",)),
}


#: the operand widths (bytes) at which a mnemonic has an AVX512F (EVEX)
#: encoding — the only one that names registers 16-31.  Packed forms at
#: 128/256 bits need AVX512VL, EVEX ``vxorpd`` needs AVX512DQ, and
#: ``vextractf128``/``vperm2f128``/``vblendpd`` and the legacy SSE forms
#: have no EVEX encoding at all.
EVEX_WIDTHS = {
    **dict.fromkeys(
        ("vmovupd", "vmovapd", "vbroadcastsd", "vaddpd", "vsubpd", "vmulpd",
         "vpxord", "vfmadd231pd", "vfmadd213pd", "vfmadd132pd",
         "vpermilpd", "vshufpd", "vunpcklpd", "vunpckhpd"), (64,)),
    **dict.fromkeys(
        ("vmovsd", "vaddsd", "vsubsd", "vmulsd", "vfmadd231sd"), (16,)),
    "vextractf64x4": (64, 32),
}


@dataclass
class Instr:
    """A machine instruction: mnemonic + operands (AT&T order) + comment."""

    mnemonic: str
    operands: Tuple[Operand, ...] = ()
    comment: Optional[str] = None

    def __post_init__(self) -> None:
        if self.mnemonic not in INSTR_INFO:
            raise ValueError(f"unknown mnemonic {self.mnemonic!r}")
        self.operands = tuple(self.operands)
        roles = INSTR_INFO[self.mnemonic].roles
        if len(roles) != len(self.operands):
            raise ValueError(
                f"{self.mnemonic} expects {len(roles)} operands, "
                f"got {len(self.operands)}"
            )

    @property
    def info(self) -> InstrInfo:
        return INSTR_INFO[self.mnemonic]

    # -- dependence analysis -------------------------------------------------
    def reg_reads(self) -> List[Register]:
        out: List[Register] = []
        for role, op in zip(self.info.roles, self.operands):
            if isinstance(op, Mem):
                if op.base is not None:
                    out.append(op.base)
                if op.index is not None:
                    out.append(op.index)
            elif isinstance(op, Register) and role in ("R", "M"):
                out.append(op)
        if self.mnemonic in ("push", "pop", "ret"):
            out.append(RSP)  # implicit stack-pointer use
        return out

    def reg_writes(self) -> List[Register]:
        out: List[Register] = []
        for role, op in zip(self.info.roles, self.operands):
            if isinstance(op, Register) and role in ("W", "M"):
                out.append(op)
        if self.mnemonic in ("push", "pop"):
            out.append(RSP)  # implicit stack-pointer update
        return out

    def loads_mem(self) -> List[Mem]:
        if self.mnemonic.startswith("prefetch"):
            return []
        out = [
            op
            for role, op in zip(self.info.roles, self.operands)
            if isinstance(op, Mem) and role == "R"
        ]
        if self.mnemonic in ("pop", "ret"):
            out.append(Mem(base=RSP))  # implicit stack read
        return out

    def stores_mem(self) -> List[Mem]:
        out = [
            op
            for role, op in zip(self.info.roles, self.operands)
            if isinstance(op, Mem) and role in ("W", "M")
        ]
        if self.mnemonic == "push":
            out.append(Mem(base=RSP, disp=-8))  # implicit stack write
        return out

    def unencodable_register(self) -> Optional[Register]:
        """A register 16-31 operand this instruction cannot encode, if any."""
        for op in self.operands:
            if (type(op) is Register and op.kind == "vec"
                    and op.index >= N_VEX_REGS
                    and op.width not in EVEX_WIDTHS.get(self.mnemonic, ())):
                return op
        return None

    def __str__(self) -> str:
        ops = ", ".join(str(o) for o in self.operands)
        text = f"{self.mnemonic}\t{ops}" if ops else self.mnemonic
        if self.comment:
            text += f"\t# {self.comment}"
        return text


@dataclass
class Label:
    name: str

    def __str__(self) -> str:
        return f"{self.name}:"


@dataclass
class Directive:
    text: str

    def __str__(self) -> str:
        return self.text


@dataclass
class Comment:
    text: str

    def __str__(self) -> str:
        return f"# {self.text}"


Item = Union[Instr, Label, Directive, Comment]


def instr(mnemonic: str, *operands: Operand, comment: Optional[str] = None) -> Instr:
    """Convenience constructor."""
    return Instr(mnemonic, tuple(operands), comment)


def instructions_of(items: Iterable[Item]) -> List[Instr]:
    """Filter an item stream down to the executable instructions."""
    return [it for it in items if isinstance(it, Instr)]
