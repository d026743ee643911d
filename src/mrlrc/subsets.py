"""Bitmask subsets of a ground set {0, ..., n-1}, n <= 64.

A subset is a plain int whose set bits are the member indices.  All set
algebra is the usual &, |, ^, ~ restricted to the ground mask.
"""

from __future__ import annotations

from itertools import combinations
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from collections.abc import Iterator

    import numpy as np

MAX_GROUND = 64


def full_mask(n: int) -> int:
    if not 0 <= n <= MAX_GROUND:
        raise ValueError(f"ground size must be in [0, {MAX_GROUND}], got {n}")
    return (1 << n) - 1


def mask_of(indices) -> int:
    m = 0
    for i in indices:
        m |= 1 << i
    return m


def bits_of(mask: int) -> list[int]:
    """Member indices in increasing order."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


def popcount(mask: int) -> int:
    return mask.bit_count()


def lowest_bits(mask: int, t: int) -> int:
    """Mask of the t smallest members of mask."""
    out = 0
    while t > 0:
        if not mask:
            raise ValueError("mask has fewer members than requested")
        low = mask & -mask
        out |= low
        mask ^= low
        t -= 1
    return out


def submasks(mask: int) -> list[int]:
    """All submasks of mask, ascending by numeric value."""
    subs = []
    s = 0
    while True:
        subs.append(s)
        if s == mask:
            break
        s = (s - mask) & mask
    subs.sort()
    return subs


def masks_of_size(mask: int, t: int) -> Iterator[int]:
    """Iterator over all size-t submasks of mask, in combinations-of-ascending-bits order.

    The iterator is built in C (itertools.combinations of the member bits,
    each tuple summed by map), so no Python code runs per mask.
    """
    return map(sum, combinations([1 << e for e in bits_of(mask)], t))


def format_indices(mask: int) -> str:
    return ",".join(str(i) for i in bits_of(mask))


def parse_indices(text: str) -> int:
    text = text.strip()
    if not text:
        return 0
    indices = [int(tok) for tok in text.split(",")]
    for i in indices:
        if i < 0:
            raise ValueError(f"negative index {i} in {text!r}")
    return mask_of(indices)


def popcount_array(a: np.ndarray) -> np.ndarray:
    """Popcount of each entry; returns int64 array.

    SWAR popcount on uint64, so it needs no np.bitwise_count (numpy >= 2).
    """
    import numpy as np

    m1 = np.uint64(0x5555555555555555)
    m2 = np.uint64(0x3333333333333333)
    m4 = np.uint64(0x0F0F0F0F0F0F0F0F)
    h01 = np.uint64(0x0101010101010101)
    x = a.astype(np.uint64)
    x = x - ((x >> np.uint64(1)) & m1)
    x = (x & m2) + ((x >> np.uint64(2)) & m2)
    x = (x + (x >> np.uint64(4))) & m4
    with np.errstate(over="ignore"):
        x = (x * h01) >> np.uint64(56)
    return x.astype(np.int64)
