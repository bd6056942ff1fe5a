"""ctypes runners for the generated kernels.

A kernel's ctypes signature is read off its C prototype
(:attr:`~repro.core.framework.GeneratedKernel.tagged_fn`): ``long`` and
``double`` parameters pass by value, every ``double*`` parameter takes a
float64 C-contiguous numpy array (checked on each call), and the return
type is ``void`` or ``double``.  These are the *micro-kernel* entry
points; the packing/blocking drivers in :mod:`repro.blas` compose them
into full BLAS routines.

Loading raises :class:`~repro.backend.compiler.ToolchainUnavailable` when
the host has no assembler; callers that can degrade (the tuner, test skip
markers) catch that subclass specifically.  *Executing* a loaded kernel
is only crash-safe inside the fault-isolated worker of
:mod:`repro.backend.sandbox` — a bad candidate run in-process takes the
interpreter down with it.
"""

from __future__ import annotations

import ctypes
from dataclasses import dataclass
from typing import Callable

import numpy as np

from ..core.framework import GeneratedKernel
from .compiler import SharedObject, assemble_kernel

_DP = ctypes.POINTER(ctypes.c_double)


def _ptr(a: np.ndarray) -> "ctypes._Pointer":
    # explicit checks, not asserts: handing a native kernel a pointer to
    # the wrong dtype or a strided view corrupts memory instead of
    # raising, and asserts vanish under ``python -O``
    if a.dtype != np.float64:
        raise TypeError(f"kernel buffers must be float64, got {a.dtype}")
    if not a.flags.c_contiguous:
        raise ValueError("kernel buffers must be C-contiguous "
                         "(pass a copy of the strided view)")
    return a.ctypes.data_as(_DP)


class _Buffer:
    """ctypes argtype of a ``double*`` parameter: ctypes runs :func:`_ptr`
    on every argument, so a wrong buffer raises ``ctypes.ArgumentError``."""

    from_param = staticmethod(_ptr)


#: C type of a prototype parameter / return value -> ctypes type
_ARGTYPES = {("long", 0): ctypes.c_long, ("double", 0): ctypes.c_double,
             ("double", 1): _Buffer}
_RESTYPES = {("void", 0): None, ("double", 0): ctypes.c_double}


def signature(fn) -> tuple:
    """``(restype, argtypes)`` for a kernel's C prototype (a FuncDef)."""
    def lookup(table, ctype, what):
        try:
            return table[(ctype.base, ctype.ptr)]
        except KeyError:
            raise TypeError(f"{fn.name}: unsupported {what} type "
                            f"{ctype.base}{'*' * ctype.ptr}") from None

    return (lookup(_RESTYPES, fn.ret_type, "return"),
            [lookup(_ARGTYPES, p.ctype, f"parameter {p.name!r}")
             for p in fn.params])


@dataclass
class NativeKernel:
    """A generated kernel loaded as native code, called with the
    arguments of its C prototype (arrays for ``double*``)."""

    generated: GeneratedKernel
    so: SharedObject
    fn: Callable

    @classmethod
    def load(cls, generated: GeneratedKernel) -> "NativeKernel":
        so = assemble_kernel(generated.asm_text, tag=generated.name)
        try:
            fn = so.symbol(generated.name)
        except AttributeError:
            # a persisted cache entry that dlopens but lacks the symbol
            # (e.g. written by an older build): evict it and rebuild
            so = assemble_kernel(generated.asm_text, tag=generated.name,
                                 force=True)
            fn = so.symbol(generated.name)
        fn.restype, fn.argtypes = signature(generated.tagged_fn)
        return cls(generated=generated, so=so, fn=fn)

    def __call__(self, *args):
        return self.fn(*args)


def load_kernel(kernel_family: str, generated: GeneratedKernel) -> NativeKernel:
    """Load a generated kernel.  ``kernel_family`` names it for callers
    that key loads by family (the dispatch chain's quarantine loader)."""
    return NativeKernel.load(generated)
