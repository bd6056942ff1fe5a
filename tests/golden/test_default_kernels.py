"""Byte-identity snapshot of every production kernel.

The scenario snapshots in ``test_golden_asm.py`` pin each template under
hand-picked configurations; the runtime, however, serves the kernels that
``default_config`` builds (the 512-bit GEMM among them).  This table pins
those: for every ``KERNEL_SOURCES`` family on every ``ALL_ARCHS`` ISA it
holds the sha256 of the emitted ``asm_text`` and of the ``low_level_c``
the source-to-source stage printed, or the ``CodegenError`` text for a
combination the generator rejects.  Nothing is normalized: one changed
byte of either output fails its entry.

After an *intentional* generator change, refresh the table with::

    PYTHONPATH=src python -m pytest tests/golden --update-golden

and commit the diff.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import pytest

from repro.blas.kernels import KERNEL_SOURCES
from repro.core.asmgen import CodegenError
from repro.core.framework import Augem
from repro.isa.arch import ALL_ARCHS

TABLE = Path(__file__).parent / "default_kernels.json"

KEYS = [f"{family}@{isa}"
        for family in sorted(KERNEL_SOURCES) for isa in sorted(ALL_ARCHS)]


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def fingerprint(family: str, isa: str) -> dict:
    """The table entry for one (family, ISA) default kernel."""
    try:
        gk = Augem(arch=ALL_ARCHS[isa]).generate_named(family)
    except CodegenError as exc:
        return {"error": str(exc)}
    return {"asm_sha256": _sha256(gk.asm_text),
            "low_level_c_sha256": _sha256(gk.low_level_c)}


def _load() -> dict:
    return json.loads(TABLE.read_text()) if TABLE.exists() else {}


@pytest.mark.parametrize("key", KEYS)
def test_default_kernel_is_byte_identical(key, request):
    got = fingerprint(*key.split("@"))
    if request.config.getoption("--update-golden"):
        table = _load()
        table[key] = got
        TABLE.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")
        return
    want = _load().get(key)
    assert want is not None, (
        f"{key} is missing from {TABLE.name}; run pytest with "
        f"--update-golden to add it")
    assert got == want, (
        f"the default {key} kernel deviates from {TABLE.name}; if the "
        f"change is intentional, rerun with --update-golden and review "
        f"the table diff")


def test_table_covers_exactly_the_default_kernels(request):
    if request.config.getoption("--update-golden"):
        table = _load()
        TABLE.write_text(json.dumps({k: table[k] for k in KEYS if k in table},
                                    indent=1, sort_keys=True) + "\n")
    assert sorted(_load()) == sorted(KEYS)
    # the one rejected combination is recorded, not silently dropped
    assert "error" in _load()["gemm_shuf@skylake_x"]
