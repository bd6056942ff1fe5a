"""Benchmark harness tests (tiny sizes: correctness of the machinery)."""

import json

import numpy as np
import pytest

from repro.bench.figures import fig18_dgemm, fig20_daxpy
from repro.bench.harness import (
    make_atlas_proxy_library,
    make_augem_library,
    make_goto_proxy_library,
    make_naive_library,
    make_vendor_library,
    standard_lineup,
)
from repro.bench.report import FigureResult, Series, TableResult
from repro.bench.tables import table5_platform, table6_level3

from tests.conftest import needs_cc

pytestmark = needs_cc


@pytest.fixture(scope="module")
def libs(rng):
    """Every adapter, validated for correctness on a small problem."""
    lineup = standard_lineup(include_naive=True)
    a = rng.standard_normal((24, 16))
    b = rng.standard_normal((16, 12))
    x = rng.standard_normal(50)
    y = rng.standard_normal(50)
    for lib in lineup:
        assert np.allclose(lib.dgemm(a, b), a @ b), lib.name
        v = rng.standard_normal(24)
        assert np.allclose(lib.dgemv_t(a, v), a.T @ v), lib.name
        assert np.isclose(lib.ddot(x, y), x @ y), lib.name
        yy = y.copy()
        lib.daxpy(2.0, x, yy)
        assert np.allclose(yy, y + 2.0 * x), lib.name
    return lineup


def test_lineup_has_four_libraries(libs):
    names = [lib.name for lib in libs]
    assert len(names) == 5  # incl. the naive floor
    assert names[0] == "AUGEM"


def test_level3_adapters_correct(rng, libs):
    n, k = 20, 12
    a = rng.standard_normal((n, k))
    l = np.tril(rng.standard_normal((n, n))) + 4 * np.eye(n)
    b = rng.standard_normal((n, k))
    for lib in libs:
        if lib.dsyrk is None:
            continue
        got = np.tril(lib.dsyrk(a))
        assert np.allclose(got, np.tril(a @ a.T)), lib.name
        assert np.allclose(lib.dtrmm(l, b), np.tril(l) @ b), lib.name


def test_fig_sweep_produces_all_series(libs):
    result = fig20_daxpy(libraries=libs[:2], sizes=[1000, 2000], batches=1)
    assert result.xs == [1000, 2000]
    assert len(result.series) == 2
    for s in result.series:
        assert set(s.points) == {1000, 2000}
        assert all(v > 0 for v in s.points.values())


def test_fig18_small(libs):
    result = fig18_dgemm(libraries=libs[:2], sizes=[64], batches=1)
    assert result.series[0].points[64] > 0
    text = result.render()
    assert "fig18" in text and "advantage" in text


def test_table5_renders():
    t = table5_platform()
    assert "Platform" in t.title
    text = t.render()
    assert "SIMD" in text


def test_table6_small(libs):
    t = table6_level3(libraries=libs[:2], sizes=[48], ger_sizes=[64],
                      batches=1)
    assert len(t.rows) == 6  # SYMM SYRK SYR2K TRMM TRSM GER
    assert t.rows[0][0] == "SYMM"
    for row in t.rows:
        assert float(row[1]) > 0  # AUGEM column populated


def test_figure_json_round_trip(tmp_path):
    fig = FigureResult("figX", "t", "x", [1, 2],
                       [Series("L", {1: 10.0, 2: 20.0})])
    path = fig.save(tmp_path)
    data = json.loads(path.read_text())
    assert data["series"]["L"]["1"] == 10.0


def test_table_save(tmp_path):
    t = TableResult("tabX", "t", ["a", "b"], [["1", "2"]])
    path = t.save(tmp_path)
    assert json.loads(path.read_text())["rows"] == [["1", "2"]]


def test_series_mean():
    s = Series("L", {1: 10.0, 2: 30.0})
    assert s.mean() == 20.0
    assert Series("E").mean() == 0.0
