"""Generic matroid machinery over bitmask ground sets.

A matroid is a rank oracle on subsets of a ground mask.  The ground set is
not required to be {0..n-1}: minor views keep their parent's element
labels, so `ground` is an arbitrary mask, possibly with high bits.
Enumerative operations refuse above their stated size limits.  Axiom
checking and flats rank each of the 2^t subsets of the t-element ground
once, in one table indexed by dense index (bit j of an index is the j-th
ground member), so their memory is 2^t whatever the highest member; both
walk that table the same way, through reshaped views whose axes are bits
of the index.  Uniformity, `is_uniform`, ranks the k-subsets in batches:
the generic reference scan, which takes seconds near its limit.  Closure and
the uniformity of a minor are methods, `Matroid.closure` and
`Matroid.uniform_minor`: the generic rank scans here, which a matroid
with closed forms (`mr.MrMatroid`) overrides.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import combinations
from math import comb
from typing import TYPE_CHECKING

from .errors import ParameterError, SizeRefusal
from .subsets import (
    bits_of,
    full_mask,
    masks_of_size,
    popcount_array,
)

if TYPE_CHECKING:
    import numpy as np

_AXIOM_LIMIT = 20
_FLATS_LIMIT = 24
_RANK_BATCH = 1 << 16  # masks per rank_array call; bounds memory of big scans
_UNIFORM_LIMIT = 1 << 23  # k-subsets is_uniform ranks before it refuses: about 1.5-2 s


class Matroid:
    """Base rank oracle.  Subclasses implement rank(mask)."""

    ground: int  # mask of the ground set

    @property
    def ground_size(self) -> int:
        return self.ground.bit_count()

    def rank(self, x: int) -> int:
        raise NotImplementedError

    def rank_array(self, masks: np.ndarray) -> np.ndarray:
        """Ranks of a uint64 mask array, as an int64 array; the default falls back to the scalar oracle."""
        import numpy as np

        return np.fromiter(
            (self.rank(int(m)) for m in masks), dtype=np.int64, count=len(masks)
        )

    def full_rank(self) -> int:
        return self.rank(self.ground)

    def closure(self, x: int) -> int:
        """cl(x) = x together with every element whose addition keeps the rank.

        The generic rule: one rank call per ground element outside x.
        Views, linear and table matroids close by it; MrMatroid overrides
        it with its closed form, which tests check against this scan.
        """
        self._check_subset(x)
        r = self.rank(x)
        out = x
        for e in bits_of(self.ground & ~x):
            if self.rank(x | (1 << e)) == r:
                out |= 1 << e
        return out

    def uniform_minor(self, f: int, x: int):
        """(size, rank) if M/f\\x is the uniform matroid of its rank, else None.

        The generic rule is is_uniform's scan of the minor's k-subsets;
        MrMatroid overrides it with its closed form, which tests check
        against this scan.
        """
        return is_uniform(minor(self, f, x))

    def _check_subset(self, x: int) -> None:
        if x & ~self.ground:
            raise ValueError(
                f"mask {x:#x} has elements outside the ground set {self.ground:#x}"
            )


class TableMatroid(Matroid):
    """Explicit rank table on ground {0..n-1}; no axiom validation on input."""

    def __init__(self, n: int, table):
        import numpy as np

        self.ground = full_mask(n)
        self._table = np.asarray(table, dtype=np.int64)
        if len(self._table) != 1 << n:
            raise ValueError("rank table must have 2^n entries")

    def rank(self, x: int) -> int:
        self._check_subset(x)
        return int(self._table[x])

    def rank_array(self, masks: np.ndarray) -> np.ndarray:
        return self._table[masks]


def uniform_matroid(n: int, k: int) -> TableMatroid:
    """U_n^k as an explicit table."""
    if not 0 <= k <= n:
        raise ParameterError(f"uniform matroid needs 0 <= k <= n, got k={k}, n={n}")
    import numpy as np

    masks = np.arange(1 << n, dtype=np.uint64)
    return TableMatroid(n, np.minimum(popcount_array(masks), k))


class MinorView(Matroid):
    """Minor of a base matroid: contract a set, keep a disjoint set; built by `minor`.

    Elements keep their labels in the base matroid's mask space; the view's
    ground set is exactly the kept set.  A view of a view ranks through its
    base view.
    """

    def __init__(self, base: Matroid, contract: int, keep: int):
        self.base = base
        self.contract = contract
        self.ground = keep
        self._r0 = base.rank(contract)

    def rank(self, x: int) -> int:
        self._check_subset(x)
        return self.base.rank(x | self.contract) - self._r0

    def rank_array(self, masks: np.ndarray) -> np.ndarray:
        return self.base.rank_array(masks | self.contract) - self._r0


def minor(m: Matroid, contract_x: int, delete_y: int) -> MinorView:
    """M/contract_x\\delete_y, the one way to build a minor view."""
    if contract_x & delete_y:
        raise ParameterError("contract and delete sets overlap")
    m._check_subset(contract_x | delete_y)
    return MinorView(m, contract_x, m.ground & ~contract_x & ~delete_y)


def _rank_table(m: Matroid) -> tuple[np.ndarray, np.ndarray]:
    """(subs, rk) over the 2^t subsets of the t-element ground, in dense index order.

    Bit j of an index stands for the j-th ground member: subs deposits
    those bits onto the members, one shift per run of consecutive members,
    so subs ascends and memory is O(2^t) whatever the highest member.
    rk holds their ranks, from rank_array in batches of _RANK_BATCH masks.
    Axis 1 of x.reshape(-1, 2, 2^j) is bit j of the index, for x either
    array.
    """
    import numpy as np

    idx = np.arange(1 << m.ground_size, dtype=np.uint64)
    subs = np.zeros_like(idx)
    j, rest = 0, m.ground
    while rest:
        lo = (rest & -rest).bit_length() - 1
        run = ((rest >> lo) ^ ((rest >> lo) + 1)).bit_length() - 1
        members = ((1 << run) - 1) << lo
        subs |= (idx << (lo - j)) & members
        j, rest = j + run, rest & ~members
    rk = np.empty(len(subs), np.int64)
    for i in range(0, len(subs), _RANK_BATCH):
        rk[i : i + _RANK_BATCH] = m.rank_array(subs[i : i + _RANK_BATCH])
    return subs, rk


@dataclass
class AxiomReport:
    r1_ok: bool
    r2_ok: bool
    r3_ok: bool
    counterexamples: dict = field(default_factory=dict)

    @property
    def passed(self) -> bool:
        return self.r1_ok and self.r2_ok and self.r3_ok


def check_axioms(m: Matroid) -> AxiomReport:
    """Exhaustive check of (R.1) bounds, (R.2) monotonicity, (R.3) submodularity.

    R.2 and R.3 are checked in their local forms, which imply the global
    ones: r(X) <= r(X+a), and r(X+a) + r(X+b) >= r(X+a+b) + r(X) for
    distinct a, b outside X.  Refuses ground sets above 20 elements.
    Counterexamples are violating pairs: (X, X) for R1, (X, X+a) for R2 and
    (X+a, X+b) for R3, at the first element (pair) that has one.
    """
    t = m.ground_size
    if t > _AXIOM_LIMIT:
        raise SizeRefusal(
            f"axiom check walks 2^{t} subsets per element pair; limit is ground size {_AXIOM_LIMIT}"
        )
    import numpy as np

    subs, rk = _rank_table(m)

    report = AxiomReport(True, True, True)

    bad1 = (rk < 0) | (rk > popcount_array(subs))
    if bad1.any():
        i = int(np.argmax(bad1))
        report.r1_ok = False
        report.counterexamples["R1"] = (int(subs[i]), int(subs[i]))

    # In each view below, the first True in C order is the least X, as in
    # a scan of the indices in ascending order.
    for i in range(t):
        # axis 1 is the i-th member: [:, 0] is X, [:, 1] is X+a
        r = rk.reshape(-1, 2, 1 << i)
        bad2 = r[:, 0] > r[:, 1]
        if bad2.any():
            u, v = np.unravel_index(np.argmax(bad2), bad2.shape)
            s = subs.reshape(-1, 2, 1 << i)[u, :, v]
            report.r2_ok = False
            report.counterexamples["R2"] = (int(s[0]), int(s[1]))
            break

    for i, j in combinations(range(t), 2):
        # axes 1 and 3 are the j-th and i-th members: [:, 0, :, 1] is X+a, [:, 1, :, 0] is X+b
        shape = (-1, 2, 1 << (j - i - 1), 2, 1 << i)
        r = rk.reshape(shape)
        bad3 = r[:, 0, :, 1] + r[:, 1, :, 0] < r[:, 1, :, 1] + r[:, 0, :, 0]
        if bad3.any():
            u, w, v = np.unravel_index(np.argmax(bad3), bad3.shape)
            s = subs.reshape(shape)[u, :, w, :, v]
            report.r3_ok = False
            report.counterexamples["R3"] = (int(s[0, 1]), int(s[1, 0]))
            break
    return report


def flats(m: Matroid) -> list[int]:
    """All flats, sorted by (cardinality, mask value).  Refuses above 24 elements."""
    t = m.ground_size
    if t > _FLATS_LIMIT:
        raise SizeRefusal(
            f"flat enumeration walks 2^{t} subsets; limit is ground size {_FLATS_LIMIT}"
        )
    import numpy as np

    subs, rk = _rank_table(m)
    flat = np.ones(len(subs), dtype=bool)
    for i in range(t):
        # axis 1 of the view is bit i of the index: a set without the i-th
        # member is a flat only if adding that member raises the rank
        r = rk.reshape(-1, 2, 1 << i)
        flat.reshape(-1, 2, 1 << i)[:, 0] &= r[:, 1] > r[:, 0]
    out = subs[flat]  # ascending, so a stable sort by size keeps (size, mask) order
    return out[np.argsort(popcount_array(out), kind="stable")].tolist()


def is_uniform(m: Matroid):
    """Return (ground_size, k) if m is the uniform matroid of its rank, else None.

    Uses the standard reduction: m is uniform iff every subset of size
    k = rank(E) has full rank.  The k-subset masks come from masks_of_size,
    _RANK_BATCH at a time through np.fromiter, one rank_array call per
    batch, so memory is bounded by about one batch and the scan stops at
    the first batch with a rank-deficient subset.  A rank-0 matroid needs
    no case of its own: its one 0-subset, the empty set, has rank 0, so it
    is U_t^0.  Refuses above _UNIFORM_LIMIT = 2^23 =
    8,388,608 k-subsets, which bounds a scan to about 2 s: at about 0.2 us a
    mask, the 6,906,900 9-subsets of the (35,9,4) eq1 minor take 1.1-1.4 s
    on a 2-CPU x86-64 VM, and the 8,436,285 10-subsets of the (36,10,3) eq1
    minor, just past the limit, took 1.5-1.8 s.  It is the generic body of
    `Matroid.uniform_minor` and the tests' reference scan; an MrMatroid
    certifies its minors in closed form instead, so this scan serves views,
    linear and table matroids.
    """
    t = m.ground_size
    k = m.full_rank()
    work = comb(t, k)
    if work > _UNIFORM_LIMIT:
        raise SizeRefusal(
            f"uniformity check would rank C({t},{k}) = {work} subsets; limit is {_UNIFORM_LIMIT}"
        )
    import numpy as np

    masks = masks_of_size(m.ground, k)
    for left in range(work, 0, -_RANK_BATCH):
        batch = np.fromiter(masks, np.uint64, count=min(left, _RANK_BATCH))
        if (m.rank_array(batch) != k).any():
            return None
    return (t, k)
