"""Golden-assembly snapshot tests.

Every template of the paper (mmCOMP, mmSTORE, mvCOMP plus their unrolled
variants) is generated under each of the five ISA mappings (SSE, AVX,
FMA3, FMA4, AVX-512) and diffed against a committed snapshot, so any change to
instruction selection, register allocation, or scheduling shows up as a
reviewable assembly diff instead of a silent behavior change.

Snapshots live beside this file as ``<scenario>__<arch>.s``.  After an
*intentional* generator change, refresh them with::

    PYTHONPATH=src python -m pytest tests/golden --update-golden

and commit the diff.  Local label names are normalized before comparison
(they encode allocation order, not semantics); everything else — mnemonics,
operands, register choices, instruction order — must match exactly.
"""

from __future__ import annotations

import re
from pathlib import Path

import pytest

from repro.core.framework import Augem
from repro.transforms.pipeline import OptimizationConfig

from tests.conftest import ALL_ARCH_SPECS

GOLDEN_DIR = Path(__file__).parent


def _vector_unroll(arch, unroll: int = 4) -> int:
    """``unroll`` widened to one full vector (only 512-bit needs it)."""
    return max(unroll, arch.doubles_per_vector)


#: scenario -> (kernel family, config, exported symbol, templates it covers);
#: a callable config is resolved per arch
SCENARIOS = {
    "gemm_baseline": (
        "gemm", OptimizationConfig(), "golden_gemm",
        {"mmCOMP", "mmSTORE"}),
    "gemm_unrolled": (
        "gemm", lambda arch: OptimizationConfig(
            unroll_jam=(("j", 2), ("i", _vector_unroll(arch)))),
        "golden_gemm_u",
        {"mmUnrolledCOMP", "mmUnrolledSTORE"}),
    "gemv_baseline": (
        "gemv", OptimizationConfig(), "golden_gemv", {"mvCOMP"}),
    "axpy_unrolled": (
        "axpy", lambda arch: OptimizationConfig(
            unroll=(("i", _vector_unroll(arch)),)), "golden_axpy_u",
        {"mvUnrolledCOMP"}),
    # config None = default_config("ger"): the kernel AugemBLAS.dger serves
    "ger_unrolled": (
        "ger", None, "golden_ger_u", {"mvUnrolledCOMP"}),
}

_LABEL = re.compile(r"\.L[A-Za-z0-9_$.]*")


def normalize_asm(text: str) -> str:
    """Rename local labels to appearance order; strip trailing blanks.

    Label *names* encode generation-order counters; the control-flow
    structure they induce is preserved because every occurrence of one
    name maps to the same placeholder.
    """
    mapping: dict = {}

    def rename(match: re.Match) -> str:
        name = match.group(0)
        if name not in mapping:
            mapping[name] = f".LBL{len(mapping)}"
        return mapping[name]

    lines = [_LABEL.sub(rename, line).rstrip()
             for line in text.splitlines()]
    return "\n".join(lines).rstrip() + "\n"


def _snapshot_path(scenario: str, arch_name: str) -> Path:
    return GOLDEN_DIR / f"{scenario}__{arch_name}.s"


@pytest.mark.parametrize("scenario", sorted(SCENARIOS))
@pytest.mark.parametrize("arch", ALL_ARCH_SPECS, ids=lambda a: a.name)
def test_golden_asm(scenario, arch, request):
    kernel, config, symbol, expected_templates = SCENARIOS[scenario]
    if callable(config):
        config = config(arch)
    gk = Augem(arch=arch).generate_named(kernel, config=config, name=symbol)

    # the scenario must actually exercise the templates it claims to cover
    missing = expected_templates - set(gk.template_counts)
    assert not missing, (
        f"{scenario} no longer instantiates template(s) {sorted(missing)}; "
        f"got {gk.template_counts}")

    got = normalize_asm(gk.asm_text)
    path = _snapshot_path(scenario, arch.name)
    if request.config.getoption("--update-golden"):
        path.write_text(got)
        return
    assert path.exists(), (
        f"missing golden snapshot {path.name}; run pytest with "
        f"--update-golden to create it")
    want = path.read_text()
    assert got == want, (
        f"generated assembly for {scenario} on {arch.name} deviates from "
        f"{path.name}; if the change is intentional, rerun with "
        f"--update-golden and review the snapshot diff")


def test_normalize_asm_is_structure_preserving():
    a = ".L_top:\n jmp .L_top\n jne .L_done\n.L_done:\n"
    b = ".L_x:\n jmp .L_x\n jne .L_y\n.L_y:\n"
    c = ".L_x:\n jmp .L_y\n jne .L_y\n.L_y:\n"  # different flow
    assert normalize_asm(a) == normalize_asm(b)
    assert normalize_asm(a) != normalize_asm(c)


def test_generation_is_deterministic():
    kernel, config, symbol, _ = SCENARIOS["gemm_baseline"]
    first = Augem(arch=ALL_ARCH_SPECS[0]).generate_named(
        kernel, config=config, name=symbol).asm_text
    second = Augem(arch=ALL_ARCH_SPECS[0]).generate_named(
        kernel, config=config, name=symbol).asm_text
    assert first == second
