"""Uniform minors of MR matroids: constructive witnesses and an exhaustive oracle.

A witness is a (contract-flat F, delete-set X) pair together with the
target rank k' and the size n' of the resulting minor.  Every uniform minor
in the paper's list contracts a flat F and deletes a set X, so one builder,
`_witness`, makes all four families: each constructor picks F and passes
its formula size, and the builder picks X, the size n - |F| - |X| and the
boundary flag (built size != formula size), then verifies.  By the rank
formula, the only circuits of size <= k' left after contracting F are the
leftovers b - F of the repair sets b with |b - F| <= k'.  They are
disjoint, so deleting the lowest member of each is the least deletion
that leaves a uniform minor.

`verify_witness` re-derives a certificate through the matroid's own
rules, `Matroid.closure` and `Matroid.uniform_minor`.  For an MR matroid
both are closed forms of O(g) steps that rank no subset and import no
numpy, so verification answers at any n <= 64.  The uniformity
rule rests on the same circuit argument as the builder, so the tests
check it against the generic `matroid.is_uniform` scan, which still
certifies the minors of every other matroid.

The oracle takes the flats from one generic closure scan, `matroid.flats`,
per call.  By the Scum theorem a rank-k' minor needs only the flats of
rank rank(E) - k', so each flat serves exactly one k': the oracle ranks it
once, contracts it at that k' with `matroid.minor` and then chooses
arbitrary deletions.  The oracle uses none of the constructors and nothing
of `mr.mr_flats` (the flats by definition, cl(F) = F, over the closed-form
closure), which stays the independent check of the scan.  The constructors
do use the oracle: in the eq3 gap cases, where `_spread` finds no contract
set (the minimal j overshoots), `witness_eq3` takes F from
`oracle_max_uniform`'s best witness.  The builder still picks X, the size
and the flag there, but construction and oracle share F, so they are one
path, not two.
"""

from __future__ import annotations

from dataclasses import dataclass

from .bounds import eq1_size, eq2_size, eq3_size, eq4_size
from .errors import ParameterError, SizeRefusal
from .matroid import Matroid, flats, minor
from .mr import MrMatroid
from .subsets import (
    bits_of,
    format_indices,
    lowest_bits,
    masks_of_size,
    parse_indices,
)

_ORACLE_LIMIT = 15


@dataclass(frozen=True, slots=True)
class MinorWitness:
    """Certificate that minor(m, contract_flat, delete_set) = U_{claimed_size}^{target_rank}."""

    contract_flat: int
    delete_set: int
    target_rank: int
    claimed_size: int
    verified: bool = False
    boundary_case: bool = False

    def to_line(self) -> str:
        return (
            f"F={format_indices(self.contract_flat)}; "
            f"X={format_indices(self.delete_set)}; "
            f"k'={self.target_rank}; n'={self.claimed_size}; "
            f"verified={str(self.verified).lower()}; "
            f"boundary={str(self.boundary_case).lower()}"
        )

    @classmethod
    def from_line(cls, line: str) -> "MinorWitness":
        parts = {}
        for tok in line.split(";"):
            key, _, val = tok.strip().partition("=")
            parts[key] = val
        try:
            return cls(
                contract_flat=parse_indices(parts["F"]),
                delete_set=parse_indices(parts["X"]),
                target_rank=int(parts["k'"]),
                claimed_size=int(parts["n'"]),
                verified=parts.get("verified", "false") == "true",
                boundary_case=parts.get("boundary", "false") == "true",
            )
        except KeyError as exc:
            raise ValueError(f"malformed witness line: {line!r}") from exc


def verify_witness(m: Matroid, w: MinorWitness) -> bool:
    """Re-derive the certificate: flat, disjointness, size, and uniformity.

    Flatness and uniformity come from m's own rules, `Matroid.closure` and
    `Matroid.uniform_minor`: the closed forms for an MrMatroid (O(g) each,
    no subset ranked, no numpy), the generic rank scans for other matroids.
    """
    if w.contract_flat & w.delete_set:
        return False
    if (w.contract_flat | w.delete_set) & ~m.ground:
        return False
    if w.claimed_size != m.ground_size - w.contract_flat.bit_count() - w.delete_set.bit_count():
        return False
    if m.closure(w.contract_flat) != w.contract_flat:
        return False
    return m.uniform_minor(w.contract_flat, w.delete_set) == (w.claimed_size, w.target_rank)


def _witness(m: MrMatroid, f: int, k_prime: int, formula_size: int) -> MinorWitness:
    """Contract f, delete the lowest member of each leftover of size <= k', and verify."""
    x = 0
    for b in m.params.repair_sets:
        rest = b & ~f
        if rest.bit_count() <= k_prime:
            x |= rest & -rest
    size = m.ground_size - f.bit_count() - x.bit_count()
    return _verified(m, MinorWitness(f, x, k_prime, size, True, size != formula_size))


def _verified(m: Matroid, w: MinorWitness) -> MinorWitness:
    """w, which its caller builds once and marks verified, after verify_witness accepts it;
    a RuntimeError if it fails, since every caller builds a uniform minor."""
    if not verify_witness(m, w):
        raise RuntimeError(f"witness failed verification: {w.to_line()}")
    return w


def witness_eq1(m: MrMatroid) -> MinorWitness:
    """Delete one element per repair set: a U_{n-g}^{k} minor."""
    return _witness(m, 0, m.params.k, eq1_size(m.params))


def witness_eq2(m: MrMatroid) -> MinorWitness:
    """Rank-r uniform minor of size n - k + r - ceil(k/r) + 1.

    If r | k, contract k/r - 1 whole repair sets.  Otherwise contract
    floor(k/r) - 1 whole sets plus a partial block completing the rank to
    k - r; the builder deletes one leftover element of that block.
    """
    p = m.params
    kr = p.k // p.r
    f = 0
    for b in p.repair_sets[: kr - 1]:
        f |= b
    if p.k % p.r:
        f |= lowest_bits(p.repair_sets[kr - 1], p.k % p.r)
    return _witness(m, f, p.r, eq2_size(p))


def _spread(p, need_total: int, cap: int) -> int | None:
    """Contract set of rank need_total: j whole repair sets plus a spread.

    The spread takes at most `cap` lowest elements of each following block;
    j is the least count for which it fits.  Some j <= g - 1 always fits:
    there the test reads k <= g r for eq3 (cap r - k') and k - k' <= g r - 1
    for eq4 (cap r - 1), both implied by make_params.  None when that j
    already overshoots need_total (the eq3 gap cases).
    """
    for j in range(p.g):
        need = need_total - j * p.r
        if need <= (p.g - j) * cap:
            break
    if need < 0:
        return None
    f = 0
    for b in p.repair_sets[:j]:
        f |= b
    for b in p.repair_sets[j:]:
        take = min(need, cap)
        f |= lowest_bits(b, take)
        need -= take
    return f


def witness_eq3(m: MrMatroid, k_prime: int) -> MinorWitness:
    """Rank-k' uniform minor for 2 <= k' <= r-1, X empty.

    Contract j whole repair sets (j minimal such that the remaining
    k - k' - j*r rank can be spread with at most r - k' elements per
    remaining block) plus that spread.  When the strict-inequality j of
    the closed formula exceeds this minimal j (exact-fit boundary), the
    verified minor is larger than the formula value and the witness is
    flagged as a boundary case.  In the gap cases, where the minimal j
    overshoots, the oracle's best witness supplies F alone; the builder
    does the rest, as for every family.
    """
    p = m.params
    formula_size = eq3_size(p, k_prime)
    f = _spread(p, p.k - k_prime, p.r - k_prime)
    if f is None:
        f = oracle_max_uniform(m, k_prime)[1].contract_flat
    return _witness(m, f, k_prime, formula_size)


def witness_eq4(m: MrMatroid, k_prime: int) -> MinorWitness:
    """Rank-k' uniform minor for r < k' < k, of size n - g - k + k'.

    Contract a (k-k')-set that is independent and a flat (at most r-1
    elements per block); the builder deletes one element of every repair
    set left uncontracted or partly contracted.  When the spread capacity
    g*(r-1) is short, whole repair sets join the contract side instead and
    lose nothing to X; the size formula is unchanged.
    """
    p = m.params
    formula_size = eq4_size(p, k_prime)
    # _spread always fits: k - k' <= (g-1)r - 1, and the minimal j never overshoots
    return _witness(m, _spread(p, p.k - k_prime, p.r - 1), k_prime, formula_size)


def _small_circuits(view: Matroid, k_prime: int) -> list[int]:
    """Minimal dependent sets of size <= k' in the view."""
    circuits: list[int] = []
    for size in range(1, k_prime + 1):
        for mask in masks_of_size(view.ground, size):
            if any(c & mask == c for c in circuits):
                continue
            if view.rank(mask) < size:
                circuits.append(mask)
    return circuits


def _max_circuit_free(ground: int, circuits: list[int]) -> int:
    """Largest submask of ground containing no circuit (branch and bound)."""
    best = [0, 0]

    def rec(cur: int) -> None:
        if cur.bit_count() <= best[0]:
            return
        for c in circuits:
            if c & cur == c:
                for e in bits_of(c):
                    rec(cur & ~(1 << e))
                return
        best[0] = cur.bit_count()
        best[1] = cur

    rec(ground)
    return best[1]


def _oracle_scan(m: Matroid, k_prime: int | None = None) -> dict[int, tuple[int, MinorWitness]]:
    """k' -> (largest size, its verified witness), for k_prime alone or every 2 <= k' <= rank(E).

    By the Scum theorem it suffices to contract flats of rank
    rank(E) - k', so one pass over `flats` serves every k': each flat is
    ranked once and tried at its own k'.  Deletions are then chosen to
    kill every dependent set of size <= k' in the contracted matroid.  E - F
    has rank k' in M/F, so every k' finds a minor of at least k' elements.
    """
    t = m.ground_size
    if t > _ORACLE_LIMIT:
        raise SizeRefusal(
            f"oracle search scans the flats among 2^{t} subsets; limit is ground size {_ORACLE_LIMIT}"
        )
    k0 = m.full_rank()
    if k_prime is not None and not 2 <= k_prime <= k0:
        raise ParameterError(f"oracle rank target must satisfy 2 <= k' <= rank(E)={k0}")
    targets = range(2, k0 + 1) if k_prime is None else (k_prime,)
    best = {kp: (0, None) for kp in targets}
    for f in flats(m):
        kp = k0 - m.rank(f)
        if kp not in best:
            continue
        ground = m.ground & ~f
        if ground.bit_count() <= best[kp][0]:
            continue
        keep = _max_circuit_free(ground, _small_circuits(minor(m, f, 0), kp))
        size = keep.bit_count()
        if size > best[kp][0]:
            best[kp] = (size, _verified(m, MinorWitness(f, ground & ~keep, kp, size, True)))
    return best


def oracle_max_uniform(m: Matroid, k_prime: int) -> tuple[int, MinorWitness]:
    """Largest uniform minor of rank k', by exhaustive search over contract-flats."""
    return _oracle_scan(m, k_prime)[k_prime]


def oracle_max_uniform_all(m: Matroid) -> dict[int, int]:
    """Table k' -> largest uniform-minor size, for 2 <= k' <= rank(E), from one flats scan."""
    return {kp: size for kp, (size, _) in _oracle_scan(m).items()}
