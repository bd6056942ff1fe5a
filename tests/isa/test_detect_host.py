"""Host detection: cpuinfo parsing, $REPRO_FORCE_ARCH, and the memo."""

import pytest

from repro.isa import arch as arch_mod
from repro.isa.arch import (
    ALL_ARCHS,
    FORCE_ARCH_ENV,
    GENERIC_SSE,
    HASWELL,
    SANDYBRIDGE,
    SKYLAKE_X,
    detect_host,
    forced_arch_name,
    reset_host_cache,
)


@pytest.fixture(autouse=True)
def _clean_detection(monkeypatch):
    monkeypatch.delenv(FORCE_ARCH_ENV, raising=False)
    reset_host_cache()
    yield
    reset_host_cache()


def _cpuinfo(tmp_path, text):
    path = tmp_path / "cpuinfo"
    path.write_text(text)
    return str(path)


def test_avx2_fma_flags_select_haswell(tmp_path):
    path = _cpuinfo(tmp_path, "processor : 0\nflags : fpu sse2 avx avx2 fma\n")
    assert detect_host(path) is HASWELL


def test_avx512f_flags_select_skylake_x(tmp_path):
    path = _cpuinfo(tmp_path,
                    "flags : fpu sse2 avx avx2 fma avx512f avx512dq\n")
    assert detect_host(path) is SKYLAKE_X


def test_avx512_family_flags_without_avx512f_stay_haswell(tmp_path):
    # only avx512f is required; its siblings alone do not select the tier
    path = _cpuinfo(tmp_path, "flags : fpu sse2 avx avx2 fma avx512vl\n")
    assert detect_host(path) is HASWELL


def test_avx512f_without_fma_is_not_skylake_x(tmp_path):
    path = _cpuinfo(tmp_path, "flags : sse2 avx avx2 avx512f\n")
    assert detect_host(path) is SANDYBRIDGE


def test_avx_without_fma_selects_sandybridge(tmp_path):
    path = _cpuinfo(tmp_path, "flags : fpu sse2 avx\n")
    assert detect_host(path) is SANDYBRIDGE


def test_no_flags_line_falls_back_to_sse(tmp_path):
    path = _cpuinfo(tmp_path, "processor : 0\nmodel name : mystery\n")
    assert detect_host(path) is GENERIC_SSE


def test_empty_cpuinfo_falls_back_to_sse(tmp_path):
    assert detect_host(_cpuinfo(tmp_path, "")) is GENERIC_SSE


def test_missing_cpuinfo_falls_back_to_sse(tmp_path):
    assert detect_host(str(tmp_path / "does-not-exist")) is GENERIC_SSE


def test_avx2_without_fma_is_not_haswell(tmp_path):
    # avx2 alone must not select the FMA tier (fma flag is required)
    path = _cpuinfo(tmp_path, "flags : sse2 avx avx2\n")
    assert detect_host(path) is SANDYBRIDGE


def test_explicit_path_is_never_cached(tmp_path):
    path = _cpuinfo(tmp_path, "flags : sse2 avx\n")
    assert detect_host(path) is SANDYBRIDGE
    (tmp_path / "cpuinfo").write_text("flags : sse2 avx avx2 fma\n")
    assert detect_host(path) is HASWELL


def test_default_path_is_memoized():
    arch_mod._HOST_CACHE[arch_mod._DEFAULT_CPUINFO] = SANDYBRIDGE
    assert detect_host() is SANDYBRIDGE
    reset_host_cache()
    fresh = detect_host()
    assert fresh in ALL_ARCHS.values()
    # the re-detection result is memoized for the next call
    assert arch_mod._HOST_CACHE.get(arch_mod._DEFAULT_CPUINFO) is fresh


# -- $REPRO_FORCE_ARCH -----------------------------------------------------

def test_force_arch_overrides_cpuinfo(tmp_path, monkeypatch):
    monkeypatch.setenv(FORCE_ARCH_ENV, "haswell")
    path = _cpuinfo(tmp_path, "flags : sse2\n")  # would detect GENERIC_SSE
    assert detect_host(path) is HASWELL
    assert detect_host() is HASWELL
    assert forced_arch_name() == "haswell"


def test_force_arch_is_case_insensitive(monkeypatch):
    monkeypatch.setenv(FORCE_ARCH_ENV, "  Piledriver ")
    assert forced_arch_name() == "piledriver"
    assert detect_host() is ALL_ARCHS["piledriver"]


@pytest.mark.parametrize("off", ["", "0", "off", "none", "auto"])
def test_force_arch_off_values_mean_no_override(monkeypatch, off):
    monkeypatch.setenv(FORCE_ARCH_ENV, off)
    assert forced_arch_name() is None


def test_force_arch_reference_maps_to_sse_spec(monkeypatch):
    # the dispatch layer pins the chain; detect_host still needs a spec
    monkeypatch.setenv(FORCE_ARCH_ENV, "reference")
    assert forced_arch_name() == "reference"
    assert detect_host() is GENERIC_SSE


def test_force_arch_unknown_value_raises_with_choices(monkeypatch):
    monkeypatch.setenv(FORCE_ARCH_ENV, "itanium")
    with pytest.raises(KeyError, match="reference"):
        forced_arch_name()
    with pytest.raises(KeyError, match="itanium"):
        detect_host()
