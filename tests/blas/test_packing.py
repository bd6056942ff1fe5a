"""Panel-packing tests including hypothesis round trips."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.blas.packing import (
    pack_a,
    pack_a_block,
    pack_b_dup,
    pack_b_panel,
    pack_b_shuf,
    unpack_a,
    unpack_b_dup,
    unpack_b_shuf,
)


def test_pack_a_layout():
    block = np.arange(6.0).reshape(2, 3)  # 2 rows x 3 k
    packed = pack_a(block, 2, 3)
    # A[l*mc + i] == block[i, l]
    for l in range(3):
        for i in range(2):
            assert packed[l * 2 + i] == block[i, l]


def test_pack_b_dup_layout():
    block = np.arange(6.0).reshape(3, 2)  # 3 k x 2 cols
    packed = pack_b_dup(block, 3, 2)
    for j in range(2):
        for l in range(3):
            assert packed[j * 3 + l] == block[l, j]


def test_pack_b_shuf_layout():
    block = np.arange(6.0).reshape(3, 2)
    packed = pack_b_shuf(block, 3, 2)
    for l in range(3):
        for j in range(2):
            assert packed[l * 2 + j] == block[l, j]


def test_split_panels_put_the_ragged_part_after_the_whole_groups():
    # 7 rows/columns at a step of 3: two whole groups (6), then one ragged
    # element padded to 3, as its own panel starting at 6 * kc
    kc, step = 4, 3
    a_block = np.arange(1.0, 29.0).reshape(7, 4)  # 7 rows x k 4
    b_block = np.arange(1.0, 29.0).reshape(4, 7)  # k 4 x 7 columns
    a = pack_a_block(a_block, kc, step, alpha=0.5)
    assert np.array_equal(a[:6 * kc], pack_a(a_block[:6], 6, kc, alpha=0.5))
    assert np.array_equal(a[6 * kc:], pack_a(a_block[6:], step, kc,
                                             alpha=0.5))
    shuf = pack_b_panel(b_block, kc, step, "shuf")
    assert np.array_equal(shuf[:6 * kc], pack_b_shuf(b_block[:, :6], kc, 6))
    assert np.array_equal(shuf[6 * kc:], pack_b_shuf(b_block[:, 6:], kc,
                                                     step))
    # the dup layout needs no move: its partial group already starts there
    assert np.array_equal(pack_b_panel(b_block, kc, step, "dup"),
                          pack_b_dup(b_block, kc, 9))
    # whole multiples and blocks under one step are a single panel
    assert np.array_equal(pack_a_block(a_block[:6], kc, step),
                          pack_a(a_block[:6], 6, kc))
    assert np.array_equal(pack_b_panel(b_block[:, :2], kc, step, "shuf"),
                          pack_b_shuf(b_block[:, :2], kc, step))


def test_zero_padding():
    block = np.ones((2, 2))
    packed = pack_a(block, 4, 3)
    assert packed.shape == (12,)
    assert packed.sum() == 4.0  # only the real elements are non-zero


def test_oversize_block_rejected():
    with pytest.raises(ValueError):
        pack_a(np.ones((5, 2)), 4, 4)
    with pytest.raises(ValueError):
        pack_b_dup(np.ones((5, 2)), 4, 4)
    with pytest.raises(ValueError):
        pack_b_shuf(np.ones((2, 5)), 4, 4)


def test_non_contiguous_input_accepted():
    big = np.arange(48.0).reshape(6, 8)
    view = big[::2, ::2]  # non-contiguous
    packed = pack_a(view, 3, 4)
    assert np.array_equal(unpack_a(packed, 3, 4), view)


def test_pack_a_alpha_folded():
    block = np.arange(6.0).reshape(2, 3)
    assert np.array_equal(pack_a(block, 2, 3, alpha=2.5),
                          2.5 * pack_a(block, 2, 3))
    # alpha scales only the data; padding stays exactly zero
    padded = pack_a(block, 4, 5, alpha=-3.0)
    assert np.array_equal(unpack_a(padded, 4, 5)[:2, :3], -3.0 * block)
    assert padded.sum() == -3.0 * block.sum()


def test_pack_into_dirty_buffer_rezeroes_padding():
    block = np.arange(4.0).reshape(2, 2) + 1.0
    for packer, (r, c) in ((pack_a, (4, 3)), (pack_b_dup, (4, 3)),
                           (pack_b_shuf, (4, 3))):
        dirty = np.full(12, 7.7)
        fresh = packer(block, r, c)
        reused = packer(block, r, c, out=dirty)
        assert reused is dirty  # in place, no allocation
        assert np.array_equal(reused, fresh)


def test_pack_a_out_and_alpha_combine():
    rng = np.random.default_rng(3)
    block = rng.standard_normal((3, 5))
    dirty = rng.standard_normal(6 * 4)  # (mc=4) x (kc=6) panel, dirty
    got = pack_a(block, 4, 6, out=dirty, alpha=1.25)
    assert np.array_equal(got, pack_a(block, 4, 6, alpha=1.25))


def test_pack_out_buffer_validated():
    block = np.ones((2, 2))
    with pytest.raises(ValueError):
        pack_a(block, 4, 3, out=np.zeros(11))  # wrong element count
    with pytest.raises(ValueError):
        pack_b_dup(block, 4, 3, out=np.zeros(12, dtype=np.float32))


@st.composite
def block_and_panel(draw):
    rows = draw(st.integers(1, 6))
    cols = draw(st.integers(1, 6))
    pad_r = draw(st.integers(0, 3))
    pad_c = draw(st.integers(0, 3))
    data = draw(st.lists(
        st.floats(allow_nan=False, allow_infinity=False, width=32),
        min_size=rows * cols, max_size=rows * cols))
    return (np.array(data).reshape(rows, cols), rows + pad_r, cols + pad_c)


@given(block_and_panel())
@settings(max_examples=50, deadline=None)
def test_pack_a_round_trip(args):
    block, mc, kc = args
    packed = pack_a(block, mc, kc)
    restored = unpack_a(packed, mc, kc)
    assert np.array_equal(restored[: block.shape[0], : block.shape[1]], block)


@given(block_and_panel())
@settings(max_examples=50, deadline=None)
def test_pack_b_round_trips(args):
    block, kc, nc = args
    assert np.array_equal(
        unpack_b_dup(pack_b_dup(block, kc, nc), kc, nc)[: block.shape[0],
                                                        : block.shape[1]],
        block)
    assert np.array_equal(
        unpack_b_shuf(pack_b_shuf(block, kc, nc), kc, nc)[: block.shape[0],
                                                          : block.shape[1]],
        block)
