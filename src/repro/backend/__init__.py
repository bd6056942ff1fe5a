"""Native execution backend: toolchain driver, kernel runners, baselines,
and robust timing."""

from .baselines import (
    BaselineLibrary,
    FLAGS_NATIVE,
    FLAGS_O2,
    baseline_native,
    baseline_o2,
)
from .compiler import (
    SharedObject,
    ToolchainError,
    assemble_kernel,
    build_shared,
    find_cc,
    have_native_toolchain,
)
from .runner import (
    AxpyKernel,
    DotKernel,
    GemmKernel,
    GemvKernel,
    GerKernel,
    KERNEL_RUNNERS,
    NativeKernel,
    load_kernel,
)
from .timer import Measurement, measure

__all__ = [
    "ToolchainError",
    "SharedObject",
    "find_cc",
    "have_native_toolchain",
    "build_shared",
    "assemble_kernel",
    "NativeKernel",
    "GemmKernel",
    "GemvKernel",
    "GerKernel",
    "AxpyKernel",
    "DotKernel",
    "KERNEL_RUNNERS",
    "load_kernel",
    "BaselineLibrary",
    "baseline_o2",
    "baseline_native",
    "FLAGS_O2",
    "FLAGS_NATIVE",
    "Measurement",
    "measure",
]
