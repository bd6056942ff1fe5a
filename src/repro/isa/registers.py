"""x86-64 register files and the System V AMD64 calling convention."""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple


@dataclass(frozen=True)
class Register:
    """A machine register.

    :param name: canonical name (``rax``, ``xmm3``, ``ymm3``, ``zmm3``).
    :param kind: ``"gp"`` or ``"vec"``.
    :param width: width in bytes (8 for GP, 16/32/64 for xmm/ymm/zmm).
    """

    name: str
    kind: str
    width: int

    def __str__(self) -> str:
        return f"%{self.name}"

    @property
    def index(self) -> int:
        """Hardware encoding index (xmm3, ymm3 and zmm3 share index 3)."""
        if self.kind == "vec":
            return int(self.name[3:])
        return GP_ORDER.index(self.name)

    def as_width(self, width: int) -> "Register":
        """Same physical vector register at a different width."""
        if self.kind != "vec":
            raise ValueError("as_width applies to vector registers")
        return vec(self.index, width)

    @property
    def xmm(self) -> "Register":
        return self.as_width(16)

    @property
    def ymm(self) -> "Register":
        return self.as_width(32)


GP_ORDER = [
    "rax", "rcx", "rdx", "rbx", "rsp", "rbp", "rsi", "rdi",
    "r8", "r9", "r10", "r11", "r12", "r13", "r14", "r15",
]

GP = {n: Register(n, "gp", 8) for n in GP_ORDER}

#: vector register name prefix per width in bytes
VEC_PREFIX = {16: "xmm", 32: "ymm", 64: "zmm"}

#: registers 0-15 are VEX-addressable; 16-31 exist only in EVEX encodings
#: (AVX-512), so an instruction without an EVEX form cannot name them
N_VEX_REGS = 16
N_EVEX_REGS = 32

#: all 32 vector registers at every width, by name
VEC = {f"{p}{i}": Register(f"{p}{i}", "vec", w)
       for w, p in VEC_PREFIX.items() for i in range(N_EVEX_REGS)}
XMM = {n: r for n, r in VEC.items() if r.width == 16}
YMM = {n: r for n, r in VEC.items() if r.width == 32}

RAX, RCX, RDX, RBX = GP["rax"], GP["rcx"], GP["rdx"], GP["rbx"]
RSP, RBP, RSI, RDI = GP["rsp"], GP["rbp"], GP["rsi"], GP["rdi"]
R8, R9, R10, R11 = GP["r8"], GP["r9"], GP["r10"], GP["r11"]
R12, R13, R14, R15 = GP["r12"], GP["r13"], GP["r14"], GP["r15"]


def xmm(i: int) -> Register:
    return XMM[f"xmm{i}"]


def ymm(i: int) -> Register:
    return YMM[f"ymm{i}"]


def vec(i: int, width: int) -> Register:
    """Vector register ``i`` at the given width (16/32/64 -> x/y/zmm)."""
    prefix = VEC_PREFIX.get(width)
    if prefix is None:
        raise ValueError(f"unsupported vector width {width}")
    return VEC[f"{prefix}{i}"]


class SysVABI:
    """System V AMD64 calling convention facts used by the code generator."""

    INT_ARG_REGS: Tuple[Register, ...] = (RDI, RSI, RDX, RCX, R8, R9)
    FLOAT_ARG_REGS: Tuple[Register, ...] = tuple(xmm(i) for i in range(8))
    CALLEE_SAVED: Tuple[Register, ...] = (RBX, RBP, R12, R13, R14, R15)
    CALLER_SAVED: Tuple[Register, ...] = (RAX, RCX, RDX, RSI, RDI, R8, R9, R10, R11)
    RETURN_INT: Register = RAX
    RETURN_FLOAT: Register = xmm(0)

    @classmethod
    def is_callee_saved(cls, reg: Register) -> bool:
        return reg.kind == "gp" and reg.name in {r.name for r in cls.CALLEE_SAVED}

    @classmethod
    def classify_args(cls, arg_kinds: List[str]):
        """Map ``"int"``/``"float"`` argument kinds to locations.

        Returns a list whose entries are either a :class:`Register` or an
        ``int`` — the positive byte offset of a stack-passed argument
        relative to the stack pointer *at function entry* (the first stack
        argument is at entry-rsp+8, just above the return address).
        """
        out = []
        ints = floats = 0
        stack_off = 8
        for kind in arg_kinds:
            if kind == "float" and floats < len(cls.FLOAT_ARG_REGS):
                out.append(cls.FLOAT_ARG_REGS[floats])
                floats += 1
            elif kind != "float" and ints < len(cls.INT_ARG_REGS):
                out.append(cls.INT_ARG_REGS[ints])
                ints += 1
            else:
                out.append(stack_off)
                stack_off += 8
        return out


#: GP registers the code generator may allocate to C variables.  ``rsp`` is
#: the stack pointer; ``rax`` and ``r11`` are reserved as scratch.
ALLOCATABLE_GP: Tuple[Register, ...] = (
    RDI, RSI, RDX, RCX, R8, R9, R10, RBX, RBP, R12, R13, R14, R15,
)

SCRATCH_GP: Tuple[Register, ...] = (RAX, R11)
