"""Closed-form matroid of an (n, k, r) maximally recoverable LRC.

The code has length n, dimension k, locality r, g = n/(r+1) disjoint
repair sets of size r+1 each, and h = g*r - k heavy parities.  The rank of
a subset A is min(k, |A| - #{i : R_i contained in A}); equivalently the
truncation at k of the direct sum of the per-repair-set uniform ranks.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import TYPE_CHECKING

from .errors import ParameterError, SizeRefusal
from .matroid import _FLATS_LIMIT, Matroid
from .subsets import (
    format_indices,
    full_mask,
    parse_indices,
    popcount_array,
)

if TYPE_CHECKING:
    import numpy as np


@dataclass(frozen=True)
class MrParams:
    """Validated (n, k, r) with an explicit repair-set partition, None when contiguous.

    g, the repair-set count, and h = g*r - k, the heavy parities, are set once at construction.
    """

    n: int
    k: int
    r: int
    partition: tuple[int, ...] | None = None
    g: int = field(init=False, repr=False, compare=False)
    h: int = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "g", self.n // (self.r + 1))
        object.__setattr__(self, "h", self.g * self.r - self.k)

    @cached_property
    def repair_sets(self) -> tuple[int, ...]:
        """The repair sets as masks; the contiguous ones are built on first read."""
        return self.partition or _contiguous_partition(self.n, self.r)

    def to_text(self) -> str:
        base = f"{self.n},{self.k},{self.r}"
        if self.partition is not None:
            base += ":" + ";".join(format_indices(b) for b in self.partition)
        return base


def _contiguous_partition(n: int, r: int) -> tuple[int, ...]:
    size = r + 1
    block = (1 << size) - 1
    return tuple(block << i for i in range(0, n, size))


def make_params(n: int, k: int, r: int, partition=None) -> MrParams:
    if n <= 0:
        raise ParameterError(f"code length must be positive, got n={n}")
    if r < 1:
        raise ParameterError(f"locality must be at least 1, got r={r}")
    if n % (r + 1) != 0:
        raise ParameterError(f"divisibility failure: (r+1)={r + 1} does not divide n={n}")
    g = n // (r + 1)
    if k <= r:
        raise ParameterError(f"dimension must exceed locality: need k > r, got k={k}, r={r}")
    if k > g * r:
        raise ParameterError(f"dimension too large: need k <= g*r = {g * r}, got k={k}")
    if partition is None:
        return MrParams(n, k, r)
    blocks = tuple(int(b) for b in partition)
    if len(blocks) != g:
        raise ParameterError(f"malformed partition: expected {g} repair sets, got {len(blocks)}")
    union = 0
    for b in blocks:
        if b.bit_count() != r + 1:
            raise ParameterError(
                f"malformed partition: repair set {format_indices(b)} has size {b.bit_count()}, expected {r + 1}"
            )
        if union & b:
            raise ParameterError("malformed partition: repair sets overlap")
        union |= b
    if union != full_mask(n):
        raise ParameterError("malformed partition: repair sets do not cover the ground set")
    return MrParams(n, k, r, None if blocks == _contiguous_partition(n, r) else blocks)


def parse_params(text: str) -> MrParams:
    """Parse "n,k,r" or "n,k,r:0,1,2,3;4,5,6,7" (semicolon-separated blocks)."""
    text = text.strip()
    if ":" in text:
        head, part = text.split(":", 1)
        partition = [parse_indices(p) for p in part.split(";")]
    else:
        head, partition = text, None
    fields = head.split(",")
    if len(fields) != 3:
        raise ValueError(f"expected 'n,k,r[:partition]', got {text!r}")
    try:
        n, k, r = map(int, fields)
    except ValueError as exc:
        raise ValueError(f"non-integer parameter in {text!r}") from exc
    return make_params(n, k, r, partition)


class MrMatroid(Matroid):
    """Rank oracle of the (n, k, r)-MR matroid."""

    def __init__(self, params: MrParams):
        self.params = params
        self.ground = full_mask(params.n)

    def rank(self, x: int) -> int:
        self._check_subset(x)
        full = sum(1 for b in self.params.repair_sets if x & b == b)
        return min(self.params.k, x.bit_count() - full)

    def closure(self, x: int) -> int:
        """cl(x) in closed form, with one pass over the repair sets.

        When r(x) = k, cl(x) = E.  Otherwise |x| - #full < k, so adding e
        outside x raises |x| by one and leaves the rank below the
        truncation; it keeps the rank exactly when e completes a repair
        set.  So cl(x) is x plus the one missing member of every repair
        set b with |b - x| = 1.
        """
        if self.rank(x) == self.params.k:
            return self.ground
        out = x
        for b in self.params.repair_sets:
            rest = b & ~x
            if rest & (rest - 1) == 0:  # at most one member missing
                out |= rest
        return out

    def uniform_minor(self, f: int, x: int):
        """(size, rank) if M/f\\x is uniform, else None, in closed form: one pass over the repair sets.

        Let K = E - f - x and k' = r(f + K) - r(f).  If r(f) = k, then
        k' = 0 and the minor is U^0.  Otherwise r(f) = |f| - #full(f), and
        a set A of at most k' members of K has |f + A| - #full(f + A) =
        r(f) + |A| - #{b not in f : b - f inside A} <= r(f) + k' <= k, so
        the truncation never binds: A is dependent in M/f exactly when it
        holds some leftover b - f.  So the minor is U^{k'}_{|K|} iff no
        repair set b outside f has its leftover inside K with |b - f| <= k'.
        The same pass counts the repair sets inside f and inside f + K, so
        k' = min(k, |f + K| - #full(f + K)) - min(k, |f| - #full(f)) is
        counted there, with no minor view to rank through.
        """
        if f & x:
            raise ParameterError("contract and delete sets overlap")
        self._check_subset(f | x)
        keep = self.ground & ~f & ~x
        in_f = in_kept = 0
        least = self.params.k + 1  # past every k'
        for b in self.params.repair_sets:
            rest = b & ~f
            if not rest:
                in_f += 1
            elif rest & keep == rest:
                in_kept += 1
                least = min(least, rest.bit_count())
        size, k = keep.bit_count(), self.params.k
        rf = f.bit_count() - in_f  # r(f) before the truncation at k
        k_prime = min(k, rf + size - in_kept) - min(k, rf)
        return None if least <= k_prime else (size, k_prime)

    def rank_array(self, masks: np.ndarray) -> np.ndarray:
        """Vectorized rank: popcount minus the repair sets each mask holds whole, truncated at k.

        One containment pass per repair set, on the masks' uint64 view, so
        a repair set at bit 63 needs no int64 form.
        """
        import numpy as np

        bits = masks.view(np.uint64)
        rank = popcount_array(masks)
        for b in self.params.repair_sets:
            rank -= (bits & b) == b
        return np.minimum(self.params.k, rank)


def make_mr(n: int, k: int, r: int, partition=None) -> MrMatroid:
    return MrMatroid(make_params(n, k, r, partition))


def mr_flats(m: MrMatroid) -> list[int]:
    """The flats by definition, cl(F) = F, over the closed-form closure, sorted
    by (size, mask): the independent check of the rank-table `matroid.flats`."""
    p = m.params
    if p.n > _FLATS_LIMIT:
        raise SizeRefusal(f"mr_flats enumerates 2^{p.n} subsets; limit is n <= {_FLATS_LIMIT}")
    return sorted((x for x in range(1 << p.n) if m.closure(x) == x), key=lambda s: (s.bit_count(), s))


def valid_param_triples(n_max: int):
    """All valid (n, k, r) with n <= n_max, ascending."""
    out = []
    for n in range(2, n_max + 1):
        for r in range(1, n):
            if n % (r + 1) != 0:
                continue
            g = n // (r + 1)
            for k in range(r + 1, g * r + 1):
                out.append((n, k, r))
    return out
