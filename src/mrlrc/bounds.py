"""Closed-form uniform-minor sizes and field-size lower bounds.

Everything here is exact integer or rational arithmetic; floors of
negative quantities round toward minus infinity (Python's //).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import ParameterError, SizeRefusal
from .mr import MrParams, make_params

# A sweep prints one row per valid n, so its output grows with n_max: at most
# 1,000 rows here (sweep(3, 1, 2, 2000) takes 0.03 s on a 2-CPU x86-64 VM).
# A bounds report lists one size per rank k' of its eq3 and eq4 families,
# and holds each family to the same count.
_SWEEP_N_LIMIT = 2000


def _ceil_div(a: int, b: int) -> int:
    return -(-a // b)


def eq1_size(p: MrParams) -> int:
    """Size of the rank-k minor obtained by deleting one element per repair set."""
    return p.n - p.g


def eq2_size(p: MrParams) -> int:
    """Size of the rank-r minor."""
    return p.n - p.k + p.r - _ceil_div(p.k, p.r) + 1


def eq3_size(p: MrParams, k_prime: int) -> int:
    """Formula size of the rank-k' minor, 2 <= k' <= r-1."""
    if k_prime not in eq3_range(p):
        raise ParameterError(f"need 2 <= k' <= r-1, got k'={k_prime}, r={p.r}")
    j = (-p.h) // k_prime + p.g
    return p.n - p.k + k_prime - max(j, 0)


def eq4_size(p: MrParams, k_prime: int) -> int:
    """Formula size of the rank-k' minor, r < k' < k."""
    if k_prime not in eq4_range(p):
        raise ParameterError(f"need r < k' < k, got k'={k_prime}")
    return p.n - p.g - p.k + k_prime


def eq3_range(p: MrParams) -> range:
    return range(2, p.r)


def eq4_range(p: MrParams) -> range:
    return range(p.r + 1, p.k)


def _listed(ranks: range, family: str) -> range:
    """ranks, or a SizeRefusal before a list of more than _SWEEP_N_LIMIT sizes is built."""
    if len(ranks) > _SWEEP_N_LIMIT:
        raise SizeRefusal(
            f"bounds list the {family} size of each of {len(ranks)} ranks k'; limit is {_SWEEP_N_LIMIT}"
        )
    return ranks


def largest_uniform_size(p: MrParams) -> int:
    """Largest size over all uniform-minor families.

    r >= 3: n - min(g, k - r + 1).  r <= 2: n - min(g, k - r + ceil(k/r) - 1),
    which is exactly max of the rank-k and rank-r sizes (the rank range
    2..r-1 is empty there).
    """
    if p.r >= 3:
        deficit = p.k - p.r + 1
    else:
        deficit = p.k - p.r + _ceil_div(p.k, p.r) - 1
    return p.n - min(p.g, deficit)


def q_lower_gopalan(p: MrParams) -> int:
    """Baseline lower bound from the punctured MDS code: k + 1."""
    return p.k + 1


def _q_unconditional_raw(p: MrParams, by_rank: dict[int, int] | None = None) -> int:
    """Field-size bound not relying on the MDS conjecture, before clamping.

    The MDS length bound q >= n' - k' + 1 of a U_{n'}^{k'} minor: the
    rank-2 minor (eq2 when r = 2, eq3 when r >= 3) or, for r = 1, which has
    no rank-2 family, the rank-k minor of size n - g.  n' is read from
    by_rank, the `_sizes_by_rank` of a report; without it, the sizes are
    evaluated with eq3 at k' = 2 alone.
    """
    if by_rank is None:
        by_rank = _sizes_by_rank(p, eq3_range(p)[:1])
    kp = p.k if p.r == 1 else 2
    return by_rank[kp] - kp + 1


def q_lower_unconditional(p: MrParams) -> int:
    """Field-size bound not relying on the MDS conjecture, clamped at 2."""
    return max(_q_unconditional_raw(p), 2)


@dataclass(frozen=True)
class ConjecturalBound:
    """MDS-conjecture-based bound: n' - 1, with the even-q exceptional cases flagged."""

    value: int
    safe_value: int
    exception_possible: bool
    achiever_ranks: tuple[int, ...]


def q_lower_conjectural(p: MrParams) -> ConjecturalBound:
    """Largest uniform-minor size minus one, assuming the MDS conjecture.

    The conjecture's exceptions (q even with dimension 3 or q-1) cannot be
    ruled out from (n, k, r) alone, so the bound is reported as a pair:
    the optimistic n'-1 and the safe n'-2, with a flag whenever some
    achieving rank could hit an exceptional case.
    """
    return _conjectural(largest_uniform_size(p), _sizes_by_rank(p, _listed(eq3_range(p), "eq3")))


def _sizes_by_rank(p: MrParams, eq3_ranks: range) -> dict[int, int]:
    """Formula size of the families the theorem maximises over, by rank, each evaluated once:
    eq1 (rank k), eq2 (rank r) and eq3 at each of eq3_ranks (within 2 <= k' <= r-1)."""
    eq3 = {kp: eq3_size(p, kp) for kp in eq3_ranks}
    return {p.k: eq1_size(p), p.r: eq2_size(p), **eq3}


def _conjectural(best: int, by_rank: dict[int, int]) -> ConjecturalBound:
    ranks = tuple(kp for kp in sorted(by_rank) if by_rank[kp] == best)
    return ConjecturalBound(
        value=max(best - 1, 2),
        safe_value=max(best - 2, 2),
        # exceptional dimensions for q = best - 1: dimension 3, or dimension q - 1
        exception_possible=any(kp == 3 or kp == best - 2 for kp in ranks),
        achiever_ranks=ranks,
    )


def gopi_alpha(p: MrParams) -> Fraction | None:
    """Exponent of the asymptotic bound, exact rational; None when h = 0.

    Informational only: the asymptotic statement carries no constant, so
    nothing is asserted numerically from it.
    """
    if p.h == 0:
        return None
    hg = _ceil_div(p.h, p.g)
    return Fraction(min(1, p.h - 2 * hg), hg)


def rate_threshold(r: int) -> Fraction:
    """Rate below which the unconditional bound beats k + 1 (asymptotic fractions)."""
    if r <= 2:
        return Fraction(2, 5)
    if r == 3:
        return Fraction(9, 20)
    if r == 4:
        return Fraction(12, 25)
    return Fraction(1, 2)


@dataclass(frozen=True)
class ThresholdReport:
    rate: Fraction
    threshold: Fraction
    improves: bool
    near_boundary: bool


def threshold_report(p: MrParams) -> ThresholdReport:
    """Compare the unconditional bound against k + 1 and the rate threshold.

    Empirically (integer grid n <= 200) the prediction is exact for r >= 2
    except at rate == threshold, where the two bounds tie; those rows (and
    all of r = 1, outside the threshold statements) are marked
    near_boundary and should be reported, not asserted.
    """
    rate = Fraction(p.k, p.n)
    thr = rate_threshold(p.r)
    return ThresholdReport(
        rate=rate,
        threshold=thr,
        improves=q_lower_unconditional(p) > q_lower_gopalan(p),
        near_boundary=rate == thr or p.r == 1,
    )


@dataclass(frozen=True)
class BoundsReport:
    """All bound and size values for one parameter triple."""

    params: MrParams
    eq1_size: int
    eq2_size: int
    eq3_sizes: dict
    eq4_sizes: dict
    largest_uniform: int
    q_unconditional: int
    q_unconditional_vacuous: bool
    q_conjectural: ConjecturalBound
    q_gopalan: int
    gopi_alpha: Fraction | None

    def to_text(self) -> str:
        p = self.params
        lines = [
            f"n={p.n}",
            f"k={p.k}",
            f"r={p.r}",
            f"g={p.g}",
            f"h={p.h}",
            f"eq1={self.eq1_size}",
            f"eq2={self.eq2_size}",
        ]
        for kp, v in sorted(self.eq3_sizes.items()):
            lines.append(f"eq3[{kp}]={v}")
        for kp, v in sorted(self.eq4_sizes.items()):
            lines.append(f"eq4[{kp}]={v}")
        lines += [
            f"largest_uniform={self.largest_uniform}",
            f"q_unconditional={self.q_unconditional}",
            f"q_unconditional_vacuous={str(self.q_unconditional_vacuous).lower()}",
            f"q_conjectural={self.q_conjectural.value}",
            f"q_conjectural_safe={self.q_conjectural.safe_value}",
            f"q_conjectural_exception_possible={str(self.q_conjectural.exception_possible).lower()}",
            f"achiever_ranks={','.join(str(x) for x in self.q_conjectural.achiever_ranks)}",
            f"q_gopalan={self.q_gopalan}",
            f"gopi_alpha={self.gopi_alpha if self.gopi_alpha is not None else 'undefined'}",
        ]
        return "\n".join(lines)

    def to_csv(self) -> str:
        """The sweep row under SWEEP_HEADER; its eq3 columns are the largest
        rank-k' size of 2 <= k' <= r-1 and the smallest k' attaining it."""
        p = self.params
        e3 = self.eq3_sizes
        kp = max(e3, key=lambda j: (e3[j], -j), default=None)
        cols = (
            p.n, p.g, p.h, self.eq1_size, self.eq2_size, "" if kp is None else kp, e3.get(kp, ""),
            self.largest_uniform, self.q_unconditional, self.q_conjectural.value, self.q_gopalan,
        )
        return ",".join(map(str, cols))


def compute_bounds(p: MrParams) -> BoundsReport:
    """Every size and bound of p, each formula size evaluated once."""
    eq4_ranks = _listed(eq4_range(p), "eq4")
    eq3_ranks = _listed(eq3_range(p), "eq3")
    by_rank = _sizes_by_rank(p, eq3_ranks)
    q_raw = _q_unconditional_raw(p, by_rank)
    best = largest_uniform_size(p)
    if best != max(by_rank.values()):
        raise RuntimeError(
            f"theorem consistency violated for {p.to_text()}: {best} vs {max(by_rank.values())}"
        )
    return BoundsReport(
        params=p,
        eq1_size=by_rank[p.k],
        eq2_size=by_rank[p.r],
        eq3_sizes={kp: by_rank[kp] for kp in eq3_ranks},
        eq4_sizes={kp: eq4_size(p, kp) for kp in eq4_ranks},
        largest_uniform=best,
        q_unconditional=max(q_raw, 2),
        q_unconditional_vacuous=q_raw < 2,
        q_conjectural=_conjectural(best, by_rank),
        q_gopalan=q_lower_gopalan(p),
        gopi_alpha=gopi_alpha(p),
    )


SWEEP_HEADER = "n,g,h,eq1,eq2,eq3_kprime,eq3,thm,q_uncond,q_conj,q_gopalan"


def sweep(k: int, r: int, n_min: int, n_max: int) -> list[BoundsReport]:
    """The report of each valid n in [n_min, n_max] for fixed k and r.

    A range with no valid n (k <= r, or n_min > n_max) is a ParameterError,
    so a sweep that returns always has rows.
    """
    if r < 1:
        raise ParameterError(f"locality must be at least 1, got r={r}")
    if n_max > _SWEEP_N_LIMIT:
        raise SizeRefusal(
            f"sweep computes the bounds of every n up to n_max={n_max}; limit is n_max <= {_SWEEP_N_LIMIT}"
        )
    rows = [
        compute_bounds(make_params(n, k, r))
        for n in range(max(n_min, r + 1), n_max + 1)  # no n <= r holds a repair set
        if n % (r + 1) == 0 and r < k <= n // (r + 1) * r
    ]
    if not rows:
        raise ParameterError(f"no n in [{n_min}, {n_max}] gives a valid (n, {k}, {r}) triple")
    return rows
