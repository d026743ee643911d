"""Acceptance gate: one pass/fail line per criterion, printed unconditionally.

Each test evaluates its criterion into a boolean, prints
"ACCEPTANCE <i>: PASS|FAIL" directly to the real stdout (bypassing pytest
capture so the lines always appear), and then asserts.  Time budgets are
asserted with wall-clock measurements and generous margins.
"""

import time
from fractions import Fraction

import numpy as np

from mrlrc.bounds import (
    compute_bounds,
    eq1_size,
    eq2_size,
    eq3_range,
    eq3_size,
    eq4_range,
    eq4_size,
    gopi_alpha,
    largest_uniform_size,
    sweep,
    threshold_report,
)
from mrlrc.codes import code_to_matroid, is_mds_code, search_mr_code, shorten_then_puncture
from mrlrc.gf import FieldSpec
from mrlrc.matroid import check_axioms, flats
from mrlrc.minors import oracle_max_uniform, oracle_max_uniform_all, witness_eq1, witness_eq2, witness_eq3, witness_eq4
from mrlrc.mr import make_mr, make_params, mr_flats, valid_param_triples
from mrlrc.subsets import submasks


def _report(capfd, idx: int, ok: bool, note: str = "") -> None:
    line = f"ACCEPTANCE {idx}: {'PASS' if ok else 'FAIL'}"
    if note:
        line += f"  ({note})"
    with capfd.disabled():
        print(line, flush=True)


def test_acceptance_1_axioms_all_small_params(capfd):
    start = time.monotonic()
    failures = []
    for n, k, r in valid_param_triples(12):
        if not check_axioms(make_mr(n, k, r)).passed:
            failures.append((n, k, r))
    elapsed = time.monotonic() - start
    ok = not failures and elapsed < 120.0
    _report(capfd, 1, ok, f"{len(valid_param_triples(12))} triples in {elapsed:.1f}s")
    assert ok, (failures, elapsed)


def test_acceptance_2_flat_formula_equivalence(capfd):
    failures = []
    for n, k, r in valid_param_triples(12):
        m = make_mr(n, k, r)
        if mr_flats(m) != flats(m):
            failures.append((n, k, r))
    ok = not failures
    _report(capfd, 2, ok)
    assert ok, failures


def test_acceptance_3_witness_suite(capfd):
    unverified = []
    wrong_size = []
    for n, k, r in valid_param_triples(12):
        m = make_mr(n, k, r)
        p = m.params
        cases = [(witness_eq1(m), eq1_size(p)), (witness_eq2(m), eq2_size(p))]
        cases += [(witness_eq3(m, kp), eq3_size(p, kp)) for kp in eq3_range(p)]
        cases += [(witness_eq4(m, kp), eq4_size(p, kp)) for kp in eq4_range(p)]
        for w, formula_size in cases:
            if not w.verified:
                unverified.append((n, k, r, w.target_rank))
            if w.boundary_case:
                if w.claimed_size < formula_size:
                    wrong_size.append((n, k, r, w.target_rank))
            elif w.claimed_size != formula_size:
                wrong_size.append((n, k, r, w.target_rank))
    ok = not unverified and not wrong_size
    _report(capfd, 3, ok)
    assert ok, (unverified, wrong_size)


def test_acceptance_4_oracle_linkage(capfd):
    start = time.monotonic()
    m843 = make_mr(8, 4, 3)
    table = oracle_max_uniform_all(m843)
    ok = table == {2: 6, 3: 6, 4: 6}
    ok &= max(table.values()) == largest_uniform_size(m843.params) == 6

    m1273 = make_mr(12, 7, 3)
    thm = largest_uniform_size(m1273.params)
    oracle_best = max(oracle_max_uniform_all(m1273).values())
    ok &= thm == oracle_best == 9

    # rank-k' formula vs oracle: report every discrepancy, hide none
    discrepancies = []
    for n, k, r in [(8, 4, 3), (12, 7, 3)]:
        m = make_mr(n, k, r)
        for kp in eq3_range(m.params):
            formula = eq3_size(m.params, kp)
            actual, _ = oracle_max_uniform(m, kp)
            if actual != formula:
                discrepancies.append((n, k, r, kp, formula, actual))
            ok &= actual >= formula  # the formula is a lower bound
    for d in discrepancies:
        with capfd.disabled():
            print(
                f"  note: rank-{d[3]} formula gives {d[4]} for ({d[0]},{d[1]},{d[2]}), "
                f"oracle finds {d[5]}",
                flush=True,
            )
    elapsed = time.monotonic() - start
    ok &= elapsed < 300.0
    _report(capfd, 4, ok, f"{elapsed:.1f}s, {len(discrepancies)} boundary discrepancies reported")
    assert ok


def test_acceptance_5_sweep_rows(capfd):
    start = time.monotonic()
    rows = {row.params.n: row for row in sweep(7, 3, 8, 60)}
    elapsed = time.monotonic() - start
    r12, r40 = rows.get(12), rows.get(40)
    ok = r12 is not None and (r12.eq1_size, r12.eq2_size, max(r12.eq3_sizes.values())) == (9, 6, 5)
    ok &= r40 is not None and (r40.eq1_size, r40.eq2_size, max(r40.eq3_sizes.values())) == (30, 34, 35)
    ok &= r12.largest_uniform == r12.eq1_size  # the rank-k family dominates at n = 12
    ok &= max(r40.eq3_sizes.values()) > r40.eq1_size  # the low-rank family dominates at n = 40
    ok &= elapsed < 1.0
    _report(capfd, 5, ok, f"{elapsed:.3f}s")
    assert ok


def test_acceptance_6_field_size_bounds(capfd):
    ok = compute_bounds(make_params(40, 7, 3)).q_unconditional == 34
    ok &= compute_bounds(make_params(12, 7, 3)).q_unconditional == 4

    boundary_rows = 0
    inconsistent = []
    for n, k, r in valid_param_triples(200):
        p = make_params(n, k, r)
        b = compute_bounds(p)  # raises if the closed forms disagree internally
        t = threshold_report(p)
        ok &= t.improves == (b.q_unconditional > b.q_gopalan)
        if t.near_boundary:
            boundary_rows += 1
        elif t.improves != (t.rate <= t.threshold):
            inconsistent.append((n, k, r))
    ok &= not inconsistent
    _report(capfd, 6, ok, f"{boundary_rows} boundary rows reported, not asserted")
    assert ok, inconsistent


def test_acceptance_7_code_level_closure(capfd):
    start = time.monotonic()
    p = make_params(8, 4, 3)
    gm = None
    q_used = None
    for spec in (FieldSpec(13), FieldSpec(2, 4)):
        gm = search_mr_code(p, spec, trials=None, seed=7)
        if gm is not None:
            q_used = spec.q
            break
    ok = gm is not None
    if ok:
        ok &= q_used <= 16
        ok &= q_used >= compute_bounds(p).q_unconditional
        lm = code_to_matroid(gm)
        m = make_mr(8, 4, 3)
        subs = np.array(submasks(m.ground), dtype=np.uint64)
        ok &= bool((lm.rank_array(subs) == m.rank_array(subs)).all())
        for w in (witness_eq1(m), witness_eq2(m), witness_eq3(m, 2)):
            sub = shorten_then_puncture(gm, w.contract_flat, w.delete_set)
            ok &= sub.n == w.claimed_size and sub.k == w.target_rank
            ok &= is_mds_code(sub)
    elapsed = time.monotonic() - start
    ok &= elapsed < 120.0
    _report(capfd, 7, ok, f"q={q_used}, {elapsed:.1f}s")
    assert ok


def test_acceptance_8_asymptotic_exponent(capfd):
    # exact rational exponent only; the asymptotic growth statement itself
    # carries no constant and is not reproducible by finite computation
    ok = gopi_alpha(make_params(40, 7, 3)) == Fraction(1, 3)
    _report(capfd, 8, ok, "exponent exact; asymptotic statement informational only")
    assert ok
