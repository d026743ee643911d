"""Linear-code bridge: generator matrices, their matroids, MR/MDS certification.

Columns of a generator matrix index the ground set.  `LinearMatroid.rank`
is the one column-set rank: the rank of the column submatrix, computed on
every call (no memo; the checks below rarely rank a set twice).
`is_mr_lrc` ranks through it.  `is_mds_code` ranks no column set: one
elimination brings G to systematic form [I | A], and the code is MDS iff
every square submatrix of A is nonsingular.  `gf.minors_nonzero` tests
that by cofactor expansion, s ascending, the shorter side in `combinations`
order: each s x s minor from the (s-1)-minors, the one level it keeps, and
the first zero minor answers.  The refusal weighs that expansion, s
multiply-adds per s x s minor.  Contraction and deletion of
the matroid are shortening and puncturing of the code, and
`shorten_then_puncture` is the one code minor: it eliminates the contracted
columns once and keeps the other rows on the columns that survive, in the
caller's labels.

Maximal recoverability is certified on two independent paths.
`search_mr_code` certifies each trial's parity-check matrix on the parity
side, by ranks of h x h heavy-row differences (the view of Gopalan, Huang,
Jenkins and Yekhanin), and builds the generator matrix only for the trial
that passes.  `is_mr_lrc`, behind `code check --mr`, scans the generator
matrix's k-column sets (the primal side).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from itertools import combinations
from math import comb

from .errors import ParameterError, SizeRefusal
from .gf import Field, FieldSpec, _eliminate, mat_rank, minors_nonzero, nullspace, parse_field, rref
from .matroid import Matroid
from .mr import MrParams
from .subsets import MAX_GROUND, bits_of, full_mask, masks_of_size

# The most steps one `is_mds_code` or `is_mr_lrc` call, or one whole search
# (all its trials), may take, a d x d rank weighing d^3 steps and an s x s
# minor of the MDS expansion s.  A step takes 1.1-1.6 us over GF(257) or
# GF(2^8) (2-CPU x86-64 VM), so an admitted check answers within about a
# minute: an [18,9] column-set scan, C(18,9) = 48,620 9x9 ranks or 35.4M
# steps (~40 s), is just past the limit; a [24,12] Reed-Solomon MDS check
# over GF(257), 12 C(23,12) = 16.2M steps, answers in about 7 s.
_CODE_LIMIT = 1 << 25


@dataclass(frozen=True)
class GenMatrix:
    """k x n generator matrix over a finite field; entries are canonical ints."""

    field: FieldSpec
    n: int
    rows: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        q = self.field.q
        for row in self.rows:
            if len(row) != self.n:
                raise ParameterError(f"row length {len(row)} does not match n={self.n}")
            for v in row:
                if not 0 <= v < q:
                    raise ParameterError(f"entry {v} outside GF({q})")

    @property
    def k(self) -> int:
        return len(self.rows)


def matrix_from_rows(field: FieldSpec, rows) -> GenMatrix:
    rows = tuple(tuple(int(v) for v in r) for r in rows)
    if not rows:
        raise ParameterError("generator matrix needs at least one row")
    return GenMatrix(field, len(rows[0]), rows)


class LinearMatroid(Matroid):
    """Column matroid of a generator matrix: rank(x) is the rank of the x-columns.

    `is_mr_lrc` ranks through it; `is_mds_code` reads the systematic form instead.
    """

    def __init__(self, gm: GenMatrix):
        self.gm = gm
        self.ground = full_mask(gm.n)
        self._field = Field(gm.field)

    def rank(self, x: int) -> int:
        self._check_subset(x)
        cols = bits_of(x)
        return mat_rank(self._field, [[row[j] for j in cols] for row in self.gm.rows])


def code_to_matroid(gm: GenMatrix) -> LinearMatroid:
    return LinearMatroid(gm)


def _refuse(work: str, steps: int, weight: str) -> None:
    """SizeRefusal when `work`, `steps` steps at `weight` each, passes _CODE_LIMIT."""
    if steps > _CODE_LIMIT:
        raise SizeRefusal(f"{work}: {steps} steps at {weight}; limit is {_CODE_LIMIT}")


def is_mds_code(gm: GenMatrix) -> bool:
    """True iff the rows are independent and every k columns are too.

    One elimination brings G to systematic form: its k reduced rows hold the
    identity on the pivot columns and A, k x |Q|, on the rest, Q.  A k-set
    S holding the pivot columns of rows J is a basis iff A[rows not in J,
    S & Q] is nonsingular, and each square submatrix of A arises from
    exactly one S.  So the code is MDS iff every entry of A is nonzero and
    every s x s minor, 2 <= s <= min(k, |Q|), is nonzero (MacWilliams and
    Sloane, ch. 11, Thm 8).  `minors_nonzero` expands them by s ascending,
    the shorter side's sets in `combinations` order, keeping the (s-1)-minors,
    and stops at the first zero one.  A and the dual's A are transposes up
    to sign, so no dual is built.  The refusal weighs each s x s minor at its
    s multiply-adds: sum over s of s C(k, s) C(n-k, s) = k C(n-1, k) steps.
    """
    full_mask(gm.n)  # the 64-column limit, exit 3, before any count of the work
    n, k = gm.n, gm.k
    work = f"MDS check would expand C({n},{k}) - 1 = {comb(n, k) - 1} square submatrices of A"
    _refuse(work, k * comb(n - 1, k) if n > k else 0, "s multiply-adds per s x s minor")
    f = Field(gm.field)
    red, pivots = rref(f, gm.rows)
    q = [j for j in range(n) if j not in pivots]
    return len(pivots) == k and minors_nonzero(f, [[row[j] for j in q] for row in red])


def is_mr_lrc(gm: GenMatrix, p: MrParams) -> bool:
    """Certify maximal recoverability with locality r for the given partition.

    (a) each repair set's columns span at most r dimensions (a local
    parity exists); (b) every k-subset containing no whole repair set has
    full column rank k.
    """
    if gm.n != p.n or gm.k != p.k:
        raise ParameterError(
            f"matrix is [{gm.n},{gm.k}], parameters ask for [{p.n},{p.k}]"
        )
    full_mask(gm.n)  # the 64-column limit, exit 3, before any count of the work
    sets = comb(p.n, p.k)
    work = f"MR check would rank C({p.n},{p.k}) = {sets} column sets"
    _refuse(work, sets * p.k**3, f"d^3 per {p.k}x{p.k} rank")
    m = LinearMatroid(gm)
    return all(m.rank(b) <= p.r for b in p.repair_sets) and all(
        m.rank(x) == p.k
        for x in masks_of_size(m.ground, p.k)
        if not any(x & b == b for b in p.repair_sets)
    )


def shorten_then_puncture(gm: GenMatrix, contract_mask: int, delete_mask: int) -> GenMatrix:
    """The code minor: shorten at contract_mask, puncture at delete_mask.

    Both masks use gm's column labels.  Eliminating the contracted columns
    leaves the rows that vanish on all of them, which generate the
    codewords vanishing there (matroid contraction, dimension
    k - rank(contract_mask)); those rows are kept on the columns outside
    both masks (deletion drops the rest).
    """
    if contract_mask & delete_mask:
        raise ParameterError("contract and delete columns overlap")
    if (contract_mask | delete_mask) & ~full_mask(gm.n):
        raise ParameterError("shorten/puncture columns outside [n]")
    rows, pivots = _eliminate(Field(gm.field), gm.rows, bits_of(contract_mask))
    used = {i for i, _ in pivots}
    keep = bits_of(full_mask(gm.n) & ~contract_mask & ~delete_mask)
    new_rows = tuple(
        tuple(row[j] for j in keep) for i, row in enumerate(rows) if i not in used
    )
    return GenMatrix(gm.field, len(keep), new_rows)


def _difference_sets(groups, r: int, budget: int):
    """Yield each choice of subsets S_i (|S_i| >= 2) of distinct groups with
    sum(|S_i| - 1) = budget, as its (min S_i, c) pairs for c in S_i - min S_i."""
    if budget == 0:
        yield []
        return
    if len(groups) * r < budget:
        return
    first, rest = groups[0], groups[1:]
    yield from _difference_sets(rest, r, budget)
    for size in range(2, min(budget, r) + 2):
        for s in combinations(first, size):
            pairs = [(s[0], c) for c in s[1:]]
            for tail in _difference_sets(rest, r, budget - size + 1):
                yield pairs + tail


def _certificate_checks(p: MrParams) -> int:
    """How many h x h difference matrices the parity-side certificate ranks."""
    per_group = [1] + [comb(p.r + 1, e + 1) for e in range(1, p.r + 1)]
    counts = [1] + [0] * p.h
    for _ in range(p.g):
        counts = [
            sum(per_group[e] * counts[d - e] for e in range(min(d, p.r) + 1))
            for d in range(p.h + 1)
        ]
    return counts[p.h]


def _heavy_rows_are_mr(f: Field, p: MrParams, heavy) -> bool:
    """Parity-side MR certificate of H = (one all-ones row per repair set; heavy).

    A k-set containing no whole repair set is an information set of ker H
    iff H_E is invertible, E its complement, which meets every group.
    Subtracting the column min(E & group) from the rest of each group and
    expanding along the local rows leaves the h heavy-row differences
    v_c - v_min, so ker H is an MR code of dimension k iff every
    `_difference_sets` choice has rank h.  A rank-deficient H fails them all.
    """
    cols = [[row[j] for row in heavy] for j in range(p.n)]
    negs = [[f.neg(x) for x in col] for col in cols]
    groups = tuple(bits_of(b) for b in p.repair_sets)
    diff = {
        (a, c): [f.add(x, y) for x, y in zip(cols[c], negs[a])]
        for g in groups
        for a, c in combinations(g, 2)
    }
    return all(
        mat_rank(f, [diff[e] for e in pairs]) == p.h
        for pairs in _difference_sets(groups, p.r, p.h)
    )


def search_mr_code(
    p: MrParams, field: FieldSpec, trials: int | None, seed: int
) -> GenMatrix | None:
    """Seeded random search for a certified MR generator matrix.

    Each trial builds a parity-check matrix with one all-ones local parity
    per repair set plus h uniformly random heavy rows and certifies it on
    the parity side (`_heavy_rows_are_mr`); the first trial that passes
    returns its nullspace as the generator matrix.  `is_mr_lrc`, the
    primal scan behind `code check --mr`, is an independent path to the
    same verdict.  Trials use derived seeds "seed:index", so the result is
    deterministic and independent of scheduling.  The whole search, trials
    times the steps of one trial (at least 1), is bounded by _CODE_LIMIT;
    trials=None runs as many trials as that bound admits.
    """
    if trials is not None and trials < 1:
        raise ParameterError(f"search needs at least one trial, got trials={trials}")
    # the repair sets of a long code are n-bit masks: refuse before building them
    if p.n > MAX_GROUND:
        raise SizeRefusal(f"MR search would build an n={p.n} code; limit is n <= {MAX_GROUND}")
    checks = _certificate_checks(p)
    steps = max(checks * p.h**3, 1)
    if trials is None:
        trials = max(_CODE_LIMIT // steps, 1)
    if trials * steps > _CODE_LIMIT:
        raise SizeRefusal(
            f"MR search would rank {checks} {p.h}x{p.h} difference matrices per trial: {steps} steps at d^3 "
            f"per {p.h}x{p.h} rank, {trials * steps} steps over {trials} trials; limit is {_CODE_LIMIT}"
        )
    f = Field(field)
    for t in range(trials):
        rng = random.Random(f"{seed}:{t}")
        heavy = [[rng.randrange(field.q) for _ in range(p.n)] for _ in range(p.h)]
        if _heavy_rows_are_mr(f, p, heavy):
            local = [[b >> j & 1 for j in range(p.n)] for b in p.repair_sets]
            basis = nullspace(f, local + heavy)
            return GenMatrix(field, p.n, tuple(tuple(v) for v in basis))
    return None


def write_matrix(gm: GenMatrix) -> str:
    lines = [gm.field.to_text(), f"{gm.k} {gm.n}"]
    for row in gm.rows:
        lines.append(" ".join(str(v) for v in row))
    return "\n".join(lines) + "\n"


def read_matrix(text: str) -> GenMatrix:
    lines = [ln for ln in (raw.strip() for raw in text.splitlines()) if ln and not ln.startswith("#")]
    if len(lines) < 2:
        raise ValueError("matrix file needs a field line and a dimension line")
    head = lines[0].split()
    if head[0] != "field" or len(head) < 2:
        raise ValueError(f"expected 'field ...' on line 1, got {lines[0]!r}")
    spec_txt = head[1]
    for tok in head[2:]:
        if not tok.startswith("modulus="):
            raise ValueError(f"unknown field option {tok!r}")
        spec_txt += ":" + tok.split("=", 1)[1]
    try:
        k, n = (int(v) for v in lines[1].split())
    except ValueError as exc:
        raise ValueError(f"bad dimension line {lines[1]!r}") from exc
    rows = tuple(tuple(int(v) for v in ln.split()) for ln in lines[2:])
    if n == 0 and not rows:
        # write_matrix writes each row of an n = 0 matrix as a blank line, skipped above
        rows = ((),) * k
    if len(rows) != k:
        raise ValueError(f"expected {k} rows, found {len(rows)}")
    # a malformed file is a parse error, whichever check finds it
    try:
        return GenMatrix(parse_field(spec_txt), n, rows)
    except ParameterError as exc:
        raise ValueError(str(exc)) from exc

