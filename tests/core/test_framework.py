"""Framework facade tests."""

import re

import numpy as np
import pytest

from repro.core.asmgen import CodegenError
from repro.core.framework import Augem, default_config, stable_kernel_name
from repro.core.vectorize import SHUF_LANES
from repro.emu.run import call_kernel
from repro.isa.arch import (GENERIC_SSE, HASWELL, PILEDRIVER, SANDYBRIDGE,
                            SKYLAKE_X)
from repro.isa.instructions import Instr
from repro.transforms.pipeline import OptimizationConfig


def test_content_hash_stable_and_content_addressed():
    cfg = OptimizationConfig(unroll=(("i", 4),))
    gk1 = Augem(arch=HASWELL).generate_named("axpy", config=cfg, name="k")
    gk2 = Augem(arch=HASWELL).generate_named("axpy", config=cfg, name="k")
    assert gk1.content_hash == gk2.content_hash
    # different config, symbol name, or arch => different address
    other_cfg = Augem(arch=HASWELL).generate_named(
        "axpy", config=OptimizationConfig(unroll=(("i", 8),)), name="k")
    other_name = Augem(arch=HASWELL).generate_named("axpy", config=cfg,
                                                    name="k2")
    other_arch = Augem(arch=GENERIC_SSE).generate_named("axpy", config=cfg,
                                                        name="k")
    assert len({gk1.content_hash, other_cfg.content_hash,
                other_name.content_hash, other_arch.content_hash}) == 4


def test_stable_kernel_name_deterministic_and_distinct():
    cfg_a = OptimizationConfig(unroll=(("i", 4),))
    cfg_b = OptimizationConfig(unroll=(("i", 8),))
    name = stable_kernel_name("axpy", HASWELL, cfg_a)
    assert name == stable_kernel_name("axpy", HASWELL, cfg_a)
    assert name.isidentifier()  # must be a legal exported symbol
    assert name != stable_kernel_name("axpy", HASWELL, cfg_b)
    assert name != stable_kernel_name("axpy", GENERIC_SSE, cfg_a)
    assert name != stable_kernel_name("axpy", HASWELL, cfg_a, "shuf")


@pytest.mark.parametrize("kernel", ["gemm", "gemm_shuf", "gemv", "axpy", "dot"])
def test_generate_named_all_kernels(kernel, any_arch):
    if kernel == "gemm_shuf" and any_arch.doubles_per_vector not in SHUF_LANES:
        with pytest.raises(CodegenError):
            Augem(arch=any_arch).generate_named(kernel)
        return
    gk = Augem(arch=any_arch).generate_named(kernel)
    assert gk.asm_text.strip().endswith(f".size {gk.name}, .-{gk.name}")
    assert any(isinstance(i, Instr) for i in gk.items)
    assert gk.low_level_c


def test_fma_used_only_when_available():
    for arch, expect in ((HASWELL, True), (SANDYBRIDGE, False)):
        gk = Augem(arch=arch).generate_named("gemm")
        has_fma = "vfmadd" in gk.asm_text
        assert has_fma == expect


def test_piledriver_uses_fma4():
    gk = Augem(arch=PILEDRIVER).generate_named("gemm")
    assert "vfmaddpd" in gk.asm_text


@pytest.mark.parametrize("kernel", ["gemm", "gemv", "gemv_n", "ger", "axpy",
                                    "dot", "scal"])
def test_skylake_x_emits_zmm_from_the_same_templates(kernel):
    gk = Augem(arch=SKYLAKE_X).generate_named(kernel)
    ymm = Augem(arch=HASWELL).generate_named(kernel)
    assert "%zmm" in gk.asm_text and "vzeroupper" in gk.asm_text
    expect = dict(ymm.template_counts)
    if kernel == "gemm":
        # one mmUnrolledSTORE per tile column: 8 at the 32-register
        # tile against Haswell's 4, every other count the same
        assert dict(gk.config.unroll_jam)["j"] == 8
        assert dict(ymm.config.unroll_jam)["j"] == 4
        expect["mmUnrolledSTORE"] *= 2
    assert gk.template_counts == expect


def _fma_operands(asm):
    return [tuple(int(r) for r in ops) for ops in
            re.findall(r"vfmadd231pd\t%zmm(\d+), %zmm(\d+), %zmm(\d+)", asm)]


def test_skylake_x_gemm_uses_the_32_register_file():
    # 24x8 tile: 24 zmm accumulators + 3 A vectors + 1 rotating broadcast
    gk = Augem(arch=SKYLAKE_X).generate_named("gemm")
    assert dict(gk.config.unroll_jam) == {"j": 8, "i": 24}
    fmas = _fma_operands(gk.asm_text)
    assert len(fmas) == 2 * 24  # u(l)=2 copies of the 24-FMA body
    # the accumulators take zmm0-15 first, then the EVEX-only overflow
    assert {acc for _, _, acc in fmas} == set(range(24))
    # A vectors and broadcasts come from the overflow after them
    assert {r for a, b, _ in fmas for r in (a, b)} <= set(range(24, 32))
    for body in (fmas[:24], fmas[24:]):
        assert len({a for a, _, _ in body}) == 3  # 3 A vectors per k step
        assert len({b for _, b, _ in body}) <= 8
    # the broadcast rotates through the 5 registers the A vectors leave,
    # which lets the scheduler hoist broadcasts: all 32 are named
    used = {int(r) for r in re.findall(r"%zmm(\d+)", gk.asm_text)}
    assert used == set(range(32))
    # zmm16-23 are zeroed with EVEX vpxord, zmm0-15 with VEX vxorpd
    zeroed = re.findall(r"vpxord\t%zmm(\d+), %zmm\1, %zmm\1", gk.asm_text)
    assert sorted(map(int, zeroed)) == list(range(16, 24))
    assert "vxorpd\t%xmm16" not in gk.asm_text
    assert len(re.findall(r"vxorpd\t%xmm(\d+)", gk.asm_text)) == 16


def test_only_the_skylake_x_gemm_reaches_registers_16_to_31():
    # every other family fits 16 registers and keeps the VEX file
    for kernel in ("gemv", "gemv_n", "ger", "axpy", "dot", "scal"):
        gk = Augem(arch=SKYLAKE_X).generate_named(kernel)
        used = {int(r) for r in re.findall(r"%[xyz]mm(\d+)", gk.asm_text)}
        assert max(used) < 16, kernel
    # the 16-register 24x4 tile generated at 32 registers never spills over
    cfg = default_config("gemm", HASWELL).with_(
        unroll_jam=(("j", 4), ("i", 24)))
    gk = Augem(arch=SKYLAKE_X).generate_named("gemm", config=cfg)
    assert {int(r) for r in re.findall(r"%zmm(\d+)", gk.asm_text)} \
        == set(range(16))


def test_vex_only_form_on_a_high_register_fails_generation():
    # the scalar strategy needs more than 16 registers for dot's 16 split
    # accumulators; the allocator hands out xmm16, whose zeroing idiom
    # (VEX vxorpd) cannot encode it: generation must refuse, not gcc
    with pytest.raises(CodegenError, match=r"vxorpd cannot encode %xmm16"):
        Augem(arch=SKYLAKE_X).generate_named("dot", strategy="scalar")


def test_sse_kernel_has_no_avx():
    gk = Augem(arch=GENERIC_SSE).generate_named("gemm")
    for line in gk.asm_text.splitlines():
        assert "\tv" not in line, f"AVX instruction on SSE target: {line}"


def test_template_counts_exposed():
    gk = Augem(arch=HASWELL).generate_named("gemm")
    counts = gk.template_counts
    assert counts.get("mmUnrolledCOMP", 0) >= 1
    assert counts.get("mmUnrolledSTORE", 0) >= 1


def test_describe_mentions_config_and_strategy():
    gk = Augem(arch=HASWELL).generate_named("dot")
    text = gk.describe()
    assert "dot" in gk.name or "ddot" in gk.name
    assert "strategy" in text and "templates" in text


def test_custom_symbol_name():
    gk = Augem(arch=HASWELL).generate_named("axpy", name="my_axpy")
    assert gk.name == "my_axpy"
    assert ".globl my_axpy" in gk.asm_text


def test_default_config_covers_all_kernels():
    for kernel in ("gemm", "gemm_shuf", "gemv", "axpy", "dot"):
        for arch in (HASWELL, GENERIC_SSE):
            cfg = default_config(kernel, arch)
            assert cfg is not None
    with pytest.raises(KeyError):
        default_config("lu", HASWELL)


def test_schedule_flag_changes_order_not_content():
    gk_sched = Augem(arch=HASWELL, schedule=True).generate_named("gemm")
    gk_plain = Augem(arch=HASWELL, schedule=False).generate_named("gemm")
    def mnem_bag(gk):
        return sorted(i.mnemonic for i in gk.items if isinstance(i, Instr))
    assert mnem_bag(gk_sched) == mnem_bag(gk_plain)


def test_unified_regalloc_matches_per_array_queues(any_arch, rng):
    # the allocation strategy must never change results: one divisible
    # tile under the emulator, unified pool vs per-array queues vs numpy
    tile = dict(default_config("gemm", any_arch).unroll_jam)
    mc, nc, kc = tile["i"], tile["j"], 8
    a = rng.standard_normal(kc * mc)
    b = rng.standard_normal(nc * kc)
    ref = (b.reshape(nc, kc) @ a.reshape(kc, mc)).ravel()
    outs = []
    for unified in (False, True):
        gk = Augem(arch=any_arch,
                   unified_regalloc=unified).generate_named("gemm")
        c = np.zeros(mc * nc)
        call_kernel(gk, [mc, nc, kc, a, b, c, mc])
        outs.append(c)
    assert np.array_equal(outs[0], outs[1])
    assert np.allclose(outs[1], ref)


def test_generate_accepts_custom_source():
    src = """
    void my_copy(long n, double* x, double* y) {
        long i;
        for (i = 0; i < n; i += 1) {
            y[i] += x[i] * 1.0;
        }
    }
    """
    from repro.transforms.pipeline import OptimizationConfig

    gk = Augem(arch=HASWELL).generate(src, OptimizationConfig())
    assert gk.name == "my_copy"
