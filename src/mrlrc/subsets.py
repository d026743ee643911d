"""Bitmask subsets of a ground set {0, ..., n-1}, n <= 64.

A subset is a plain int whose set bits are the member indices.  All set
algebra is the usual &, |, ^, ~ restricted to the ground mask.
"""

from __future__ import annotations

from itertools import combinations
from typing import TYPE_CHECKING

from .errors import ParameterError

if TYPE_CHECKING:
    from collections.abc import Iterator

    import numpy as np

MAX_GROUND = 64


def full_mask(n: int) -> int:
    if not 0 <= n <= MAX_GROUND:
        raise ParameterError(f"ground size must be in [0, {MAX_GROUND}], got {n}")
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


def as_int64(mask: int) -> np.int64:
    """mask as an int64 array entry; a member at bit 63 does not fit and is a ParameterError."""
    import numpy as np

    if mask >> 63:
        raise ParameterError(f"member 63 of mask {mask:#x} does not fit the int64 masks of a rank scan")
    return np.int64(mask)


def format_indices(mask: int) -> str:
    return ",".join(map(str, bits_of(mask)))


def parse_indices(text: str) -> int:
    """Mask of a comma-separated index list; each index is checked before its bit is built."""
    text = text.strip()
    if not text:
        return 0
    indices = [int(tok) for tok in text.split(",")]
    for i in indices:
        if i < 0:
            raise ValueError(f"negative index {i} in {text!r}")
        if i >= MAX_GROUND:
            raise ParameterError(f"index {i} in {text!r} is past the ground limit of {MAX_GROUND} elements")
    return mask_of(indices)


def popcount_array(a: np.ndarray) -> np.ndarray:
    """Popcount of each entry of an int64 array; returns int64 array (numpy >= 2.0)."""
    import numpy as np

    return np.bitwise_count(a.view(np.uint64)).astype(np.int64)
