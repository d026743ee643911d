import hashlib
from fractions import Fraction
from itertools import accumulate, combinations_with_replacement

import pytest

from mrlrc.bounds import (
    SWEEP_HEADER,
    _q_unconditional_raw,
    compute_bounds,
    eq1_size,
    eq2_size,
    eq3_range,
    eq3_size,
    eq4_range,
    eq4_size,
    gopi_alpha,
    largest_uniform_size,
    q_lower_gopalan,
    rate_threshold,
    sweep,
    threshold_report,
)
from mrlrc.errors import ParameterError, SizeRefusal
from mrlrc.mr import make_params, valid_param_triples


def test_size_formulas_frozen_values():
    p = make_params(12, 7, 3)
    assert eq1_size(p) == 9
    assert eq2_size(p) == 6
    assert eq3_size(p, 2) == 5
    assert eq4_size(p, 4) == 6
    assert eq4_size(p, 6) == 8
    assert largest_uniform_size(p) == 9

    p40 = make_params(40, 7, 3)
    assert eq1_size(p40) == 30
    assert eq2_size(p40) == 34
    assert eq3_size(p40, 2) == 35
    assert largest_uniform_size(p40) == 35


def test_eq3_floor_is_toward_minus_infinity():
    # h = 2, k' = 2: j = floor(-2/2) + g = g - 1; h = 3 gives floor(-3/2) = -2
    p = make_params(12, 7, 3)  # h = 2, g = 3
    assert eq3_size(p, 2) == 12 - 7 + 2 - 2
    p2 = make_params(16, 9, 3)  # h = 3, g = 4
    assert eq3_size(p2, 2) == 16 - 9 + 2 - 2


def test_size_formula_range_validation():
    p = make_params(12, 7, 3)
    with pytest.raises(ParameterError):
        eq3_size(p, 1)
    with pytest.raises(ParameterError):
        eq3_size(p, 3)
    with pytest.raises(ParameterError):
        eq4_size(p, 3)
    with pytest.raises(ParameterError):
        eq4_size(p, 7)


def test_ranges():
    p = make_params(12, 7, 3)
    assert list(eq3_range(p)) == [2]
    assert list(eq4_range(p)) == [4, 5, 6]
    p2 = make_params(9, 4, 2)
    assert list(eq3_range(p2)) == []


def test_largest_is_max_of_families():
    for n, k, r in valid_param_triples(60):
        p = make_params(n, k, r)
        cands = [eq1_size(p), eq2_size(p)] + [eq3_size(p, kp) for kp in eq3_range(p)]
        assert largest_uniform_size(p) == max(cands), (n, k, r)


def _profile_optima(n, r):
    """{k: {k': best size of a rank-k' uniform minor}} of the (n, k, r) MR matroids.

    A proper flat F meets each block in 0..r-1 or r+1 elements and has rank
    |F| - #{blocks inside F} < k.  In M/F, of rank k' = k - r(F), a k'-set
    is dependent iff it holds some b - F, and those sets are disjoint, so
    the best rank-k' minor over F's block-intersection profile deletes one
    element of each b not inside F with |b - F| <= k': size
    n - |F| - #{b not inside F : |b - F| <= k'}.  Only the rank formula is
    used, not the paper's constructions.
    """
    g = n // (r + 1)
    profiles = []
    for profile in combinations_with_replacement([*range(r), r + 1], g):
        small = [0] * (r + 2)  # small[d]: blocks not inside F with |b - F| = d
        for a in profile:
            if a < r:
                small[r + 1 - a] += 1
        size = sum(profile)
        profiles.append((size, size - profile.count(r + 1), list(accumulate(small))))
    out = {}
    for k in range(r + 1, g * r + 1):
        best = out[k] = {}
        for size, rank, small_upto in profiles:
            kp = k - rank
            if kp > 0:
                best[kp] = max(best.get(kp, 0), n - size - small_upto[min(kp, r + 1)])
    return out


def test_profile_optimum_matches_the_size_formulas():
    # a third path to the main theorem: the largest uniform minor over every rank k' >= 2
    checked = 0
    for n, r in sorted({(n, r) for n, _, r in valid_param_triples(60)}):
        for k, best in _profile_optima(n, r).items():
            p = make_params(n, k, r)
            if r >= 2:
                assert max(s for kp, s in best.items() if kp >= 2) == largest_uniform_size(p), (n, k, r)
                checked += 1
            if n <= 40:
                assert best[k] == eq1_size(p), (n, k, r)
                assert best[r] == eq2_size(p), (n, k, r)
                for kp in eq4_range(p):
                    assert best[kp] == eq4_size(p, kp), (n, k, r, kp)
    assert checked == 2698


def test_q_unconditional_frozen_values():
    assert compute_bounds(make_params(40, 7, 3)).q_unconditional == 34
    assert compute_bounds(make_params(12, 7, 3)).q_unconditional == 4
    assert q_lower_gopalan(make_params(12, 7, 3)) == 8


def test_q_unconditional_clamp_and_vacuous_flag():
    # the raw value, read from the family sizes, equals the closed forms written out
    for n, k, r in valid_param_triples(200):
        p = make_params(n, k, r)
        raw = (
            (p.n - p.g - p.k + 1) if r == 1
            else (p.n - p.k - -(-p.k // 2) + 2) if r == 2
            else (p.n - p.k + 1 - max((-p.h) // 2 + p.g, 0))
        )
        assert _q_unconditional_raw(p) == raw, (n, k, r)
        b = compute_bounds(p)
        assert b.q_unconditional == max(raw, 2)
        assert b.q_unconditional_vacuous == (raw < 2)


def test_q_conjectural():
    p = make_params(12, 7, 3)
    c = compute_bounds(p)
    assert c.q_conjectural == largest_uniform_size(p) - 1 == 8
    assert c.q_conjectural_safe == 7
    assert 7 in c.achiever_ranks  # the rank-k minor attains the maximum
    p40 = make_params(40, 7, 3)
    c40 = compute_bounds(p40)
    assert c40.q_conjectural == 34
    # achieving rank 2 is neither 3 nor value-1, so no exception flag
    assert c40.achiever_ranks == (2,)
    assert not c40.q_conjectural_exception_possible


def test_q_conjectural_exception_flag():
    # an achieving rank of 3 triggers the even-characteristic exception flag
    found = False
    for n, k, r in valid_param_triples(40):
        p = make_params(n, k, r)
        c = compute_bounds(p)
        best = largest_uniform_size(p)
        if any(kp == 3 or kp == best - 2 for kp in c.achiever_ranks):
            assert c.q_conjectural_exception_possible
            found = True
        else:
            assert not c.q_conjectural_exception_possible
    assert found


def test_families_past_2000_ranks_are_refused():
    # eq3 lists r - 2 sizes and eq4 k - r - 1; 2,000 of either is the most a report lists
    assert len(compute_bounds(make_params(4006, 2003, 2002)).eq3_sizes) == 2000
    assert len(compute_bounds(make_params(4006, 2002, 1)).eq4_sizes) == 2000
    with pytest.raises(SizeRefusal, match="eq3 size of each of 2001 ranks"):
        compute_bounds(make_params(4008, 2004, 2003))
    with pytest.raises(SizeRefusal, match="eq4 size of each of 2001 ranks"):
        compute_bounds(make_params(4008, 2003, 1))


def test_gopi_alpha_values():
    assert gopi_alpha(make_params(40, 7, 3)) == Fraction(1, 3)
    assert gopi_alpha(make_params(8, 6, 3)) is None  # h = 0
    a = gopi_alpha(make_params(12, 7, 3))  # h = 2, g = 3 -> min(1, 0)/1
    assert a == Fraction(0, 1)


def test_rate_thresholds():
    assert rate_threshold(1) == Fraction(2, 5)
    assert rate_threshold(2) == Fraction(2, 5)
    assert rate_threshold(3) == Fraction(9, 20)
    assert rate_threshold(4) == Fraction(12, 25)
    assert rate_threshold(5) == Fraction(1, 2)
    assert rate_threshold(99) == Fraction(1, 2)


def test_threshold_prediction_exact_off_boundary():
    for n, k, r in valid_param_triples(80):
        if r == 1:
            continue
        t = threshold_report(make_params(n, k, r))
        if not t.near_boundary:
            assert t.improves == (t.rate <= t.threshold), (n, k, r)


def test_threshold_boundary_rows_are_ties():
    # at rate == threshold the two bounds coincide; flagged, not asserted
    t = threshold_report(make_params(20, 8, 3))  # rate 2/5 < 9/20 -> not a tie
    assert not t.near_boundary
    p = make_params(40, 18, 3)  # rate 9/20 == threshold
    t = threshold_report(p)
    assert t.near_boundary
    b = compute_bounds(p)
    assert b.q_unconditional == b.q_gopalan


def test_compute_bounds_report_text():
    rep = compute_bounds(make_params(12, 7, 3))
    text = rep.to_text()
    assert "eq1=9" in text
    assert "eq3[2]=5" in text
    assert "largest_uniform=9" in text
    assert "q_unconditional=4" in text
    assert "q_gopalan=8" in text


def test_sweep_fig1_rows():
    rows = sweep(7, 3, 8, 60)
    by_n = {row.params.n: row for row in rows}
    r12, r40 = by_n[12], by_n[40]
    assert (r12.eq1_size, r12.eq2_size, max(r12.eq3_sizes.values())) == (9, 6, 5)
    assert (r40.eq1_size, r40.eq2_size, max(r40.eq3_sizes.values())) == (30, 34, 35)
    assert r12.largest_uniform == r12.eq1_size  # rank-k family dominates at n = 12
    assert max(r40.eq3_sizes.values()) > r40.eq1_size  # low-rank family dominates at n = 40
    assert rows[0].params.n == 12  # n = 8 is invalid for k = 7
    header_cols = SWEEP_HEADER.split(",")
    assert len(rows[0].to_csv().split(",")) == len(header_cols)


def test_sweep_skips_invalid_n():
    rows = sweep(7, 3, 8, 60)
    assert all(row.params.n % 4 == 0 and 7 <= row.params.n // 4 * 3 for row in rows)


def test_bounds_text_pinned():
    # every report of a valid triple with n <= 100; recorded before sweep rows became reports
    digest = hashlib.sha256()
    count = 0
    for n, k, r in valid_param_triples(100):
        digest.update((compute_bounds(make_params(n, k, r)).to_text() + "\n").encode())
        count += 1
    assert count == 10763
    assert digest.hexdigest() == "b4b8d496743e70e09969ced9feedb6f14f7624bbabf7f898ac4e9d70107dca11"


def test_sweep_rows_pinned():
    # every sweep row of r < k < 40, r <= 7, n <= 400; recorded with the pin above
    digest = hashlib.sha256()
    count = 0
    for r in range(1, 8):
        for k in range(r + 1, 40):
            for row in sweep(k, r, r + 1, 400):
                digest.update((row.to_csv() + "\n").encode())
                count += 1
    assert count == 22808
    assert digest.hexdigest() == "3ddfa66005258e25731ad3fde17c6a5290aa0943f7f9ea385c3746d2e4012af0"
