import random
from itertools import combinations

import numpy as np
import pytest

from mrlrc.subsets import (
    bits_of,
    format_indices,
    full_mask,
    lowest_bits,
    mask_of,
    masks_of_size,
    parse_indices,
    popcount_array,
    submasks,
)


def test_mask_roundtrip():
    m = mask_of([0, 3, 5])
    assert bits_of(m) == [0, 3, 5]
    assert m.bit_count() == 3
    assert parse_indices(format_indices(m)) == m
    assert parse_indices("") == 0
    assert format_indices(0) == ""


def test_parse_indices_rejects_negative():
    with pytest.raises(ValueError, match=r"negative index -1 in '0,1,2,-1'"):
        parse_indices("0,1,2,-1")


def test_full_mask_bounds():
    assert full_mask(0) == 0
    assert full_mask(3) == 0b111
    with pytest.raises(ValueError):
        full_mask(65)


def test_lowest_bits():
    assert lowest_bits(0b110110, 2) == 0b110
    assert lowest_bits(0b110110, 4) == 0b110110
    with pytest.raises(ValueError):
        lowest_bits(0b11, 3)


def test_submasks_sorted_and_complete():
    subs = submasks(0b1010)
    assert subs == [0b0000, 0b0010, 0b1000, 0b1010]
    assert len(submasks(0b1111)) == 16


def test_masks_of_size():
    got = list(masks_of_size(0b1111, 2))
    assert len(got) == 6
    assert all(m.bit_count() == 2 for m in got)


def _masks_of_size_loop(mask, t):
    """Reference: OR the bits of each combination of the ascending members."""
    out = []
    for comb in combinations(bits_of(mask), t):
        m = 0
        for i in comb:
            m |= 1 << i
        out.append(m)
    return out


def test_masks_of_size_matches_loop():
    rng = random.Random(17)
    # members anywhere in 0..63, so bits 40-63 appear; the 20-member mask
    # alone walks 2^20 submasks through the reference loop
    masks = [mask_of(rng.sample(range(64), size)) for size in [*range(15), 20]]
    masks.append(full_mask(64) & ~full_mask(52))  # bits 52-63
    for mask in masks:
        for t in range(mask.bit_count() + 2):
            assert list(masks_of_size(mask, t)) == _masks_of_size_loop(mask, t), (mask, t)
        assert list(masks_of_size(mask, 0)) == [0]
        assert list(masks_of_size(mask, mask.bit_count() + 1)) == []


def test_popcount_array_matches_python():
    rng = np.random.default_rng(0)
    vals = rng.integers(0, 1 << 62, size=1000, dtype=np.int64)
    vals = np.concatenate([vals, [0, 1 << 62, (1 << 63) - 1, (1 << 62) | 1]]).astype(np.int64)
    expect = np.array([int(v).bit_count() for v in vals])
    got = popcount_array(vals)
    assert got.dtype == np.int64 and (got == expect).all()
