"""Framework facade tests."""

import numpy as np
import pytest

from repro.core.framework import Augem, default_config, stable_kernel_name
from repro.emu.run import call_kernel
from repro.isa.arch import GENERIC_SSE, HASWELL, PILEDRIVER, SANDYBRIDGE
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
