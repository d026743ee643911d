import random
import tracemalloc
from itertools import combinations

import numpy as np
import pytest

from mrlrc import matroid
from mrlrc.errors import ParameterError, SizeRefusal
from mrlrc.matroid import (
    TableMatroid,
    check_axioms,
    flats,
    is_uniform,
    minor,
    uniform_matroid,
)
from mrlrc.minors import witness_eq1
from mrlrc.mr import make_mr, valid_param_triples
from mrlrc.subsets import bits_of, full_mask, mask_of, popcount_array, submasks


def test_axioms_pass_uniform():
    assert check_axioms(uniform_matroid(4, 2)).passed


def test_axioms_fail_rank_of_empty():
    table = [min(m.bit_count(), 2) for m in range(16)]
    table[0] = 1  # rank of the empty set must be 0
    report = check_axioms(TableMatroid(4, table))
    assert not report.r1_ok
    assert report.counterexamples["R1"][0] == 0


def test_axioms_fail_non_monotone():
    table = [min(m.bit_count(), 2) for m in range(16)]
    table[0b11] = 0
    report = check_axioms(TableMatroid(4, table))
    assert not report.passed


def _pair_scan(m):
    """Reference axiom check: (R1, R2, R3) verdicts over all 4^t subset pairs."""
    subs = np.array(submasks(m.ground), dtype=np.uint64)
    rk = m.rank_array(subs)
    table = np.full(1 << m.ground.bit_length(), -1, dtype=np.int64)
    table[subs] = rk
    x, y = subs[:, None], subs[None, :]
    rx, ry = rk[:, None], rk[None, :]
    r1 = not ((rk < 0) | (rk > popcount_array(subs))).any()
    r2 = not (((x & ~y) == 0) & (rx > ry)).any()
    r3 = not (rx + ry < table[x | y] + table[x & y]).any()
    return r1, r2, r3


def _assert_matches_pair_scan(m):
    report = check_axioms(m)
    assert (report.r1_ok, report.r2_ok, report.r3_ok) == _pair_scan(m)
    for name, (x, y) in report.counterexamples.items():
        assert (x | y) & ~m.ground == 0
        if name == "R2":
            assert x & ~y == 0 and m.rank(x) > m.rank(y)
        elif name == "R3":
            assert m.rank(x) + m.rank(y) < m.rank(x | y) + m.rank(x & y)
    return report


def _random_table(rng, n):
    """Rank table of a matroid, of a matroid with 1-2 entries nudged, or arbitrary."""
    kind = rng.randrange(4)
    if kind == 3:
        return [rng.randrange(-1, n + 2) for _ in range(1 << n)]
    # truncated direct sum of uniform matroids on a random partition
    label = [rng.randrange(3) for _ in range(n)]
    blocks = [mask_of(i for i in range(n) if label[i] == c) for c in range(3)]
    caps = [rng.randint(0, b.bit_count()) for b in blocks]
    k = rng.randint(0, n)
    table = [
        min(k, sum(min((s & b).bit_count(), c) for b, c in zip(blocks, caps)))
        for s in range(1 << n)
    ]
    for _ in range(kind):
        table[rng.randrange(1 << n)] += rng.choice((-1, 1))
    return table


def test_axioms_local_forms_match_pair_scan():
    broken_empty = [min(m.bit_count(), 2) for m in range(16)]
    broken_empty[0] = 1
    broken_mono = [min(m.bit_count(), 2) for m in range(16)]
    broken_mono[0b11] = 0
    for table in (broken_empty, broken_mono):
        assert not _assert_matches_pair_scan(TableMatroid(4, table)).passed
    rng = random.Random(2024)
    verdicts = set()
    for _ in range(240):
        n = rng.randint(1, 8)
        report = _assert_matches_pair_scan(TableMatroid(n, _random_table(rng, n)))
        verdicts.add((report.r1_ok, report.r2_ok, report.r3_ok))
    # the random tables reach passing and failing verdicts of every axiom
    assert (True, True, True) in verdicts
    for i in range(3):
        assert any(not v[i] for v in verdicts)


def test_axioms_local_forms_on_minor_views():
    rng = random.Random(5)
    for _ in range(30):
        n = rng.randint(3, 8)
        base = TableMatroid(n, _random_table(rng, n))
        x = rng.getrandbits(n)
        y = rng.getrandbits(n) & ~x
        _assert_matches_pair_scan(minor(base, x, y))


def _gather_scan(m):
    """Reference check_axioms report, walked by an index array and gathers.

    Same local forms and the same first counterexample (least X, first
    element or pair) as `check_axioms`, found by boolean selection of the
    indices without each member and fancy indexing of the rank table.
    """
    t = m.ground_size
    idx = np.arange(1 << t, dtype=np.int64)
    subs = np.array(submasks(m.ground), dtype=np.uint64)  # dense index order
    rk = m.rank_array(subs)
    found = {}
    bad1 = (rk < 0) | (rk > popcount_array(subs))
    if bad1.any():
        x = int(np.argmax(bad1))
        found["R1"] = (int(subs[x]), int(subs[x]))
    for i in range(t):
        a = 1 << i
        xs = idx[(idx & a) == 0]
        bad2 = rk[xs] > rk[xs | a]
        if bad2.any():
            x = xs[np.argmax(bad2)]
            found["R2"] = (int(subs[x]), int(subs[x | a]))
            break
    for i, j in combinations(range(t), 2):
        a, b = 1 << i, 1 << j
        xs = idx[(idx & (a | b)) == 0]
        bad3 = rk[xs | a] + rk[xs | b] < rk[xs | a | b] + rk[xs]
        if bad3.any():
            x = xs[np.argmax(bad3)]
            found["R3"] = (int(subs[x | a]), int(subs[x | b]))
            break
    return ("R1" not in found, "R2" not in found, "R3" not in found), found


def test_axioms_view_walk_matches_gather_scan():
    # the reshaped-view walk reports the same verdicts and the same
    # counterexample pairs as the gather scan, on tables and on their minors
    rng = random.Random(600)
    failing = set()
    for _ in range(600):
        n = rng.randint(1, 9)
        m = TableMatroid(n, _random_table(rng, n))
        kind = rng.randrange(3)
        if kind == 1:
            m = minor(m, 0, m.ground & ~rng.getrandbits(n))
        elif kind == 2:
            m = minor(m, rng.getrandbits(n) & rng.getrandbits(n), 0)
        report = check_axioms(m)
        verdicts, found = _gather_scan(m)
        assert (report.r1_ok, report.r2_ok, report.r3_ok) == verdicts
        assert report.counterexamples == found
        failing |= found.keys()
    assert failing == {"R1", "R2", "R3"}


def test_axioms_pass_mr():
    assert check_axioms(make_mr(8, 4, 3)).passed


def test_axioms_size_refusal():
    with pytest.raises(SizeRefusal):
        check_axioms(make_mr(24, 12, 3))


def test_axioms_above_fourteen_elements():
    assert check_axioms(make_mr(18, 10, 5)).passed


def test_closure_of_ground_is_ground():
    m = make_mr(8, 4, 3)
    assert m.closure(m.ground) == m.ground


def test_closure_of_partial_repair_set():
    m = make_mr(8, 4, 3)
    # three elements of the first repair set close up to the whole set
    assert m.closure(0b0111) == 0b1111


def test_closure_singleton_uniform():
    m = uniform_matroid(4, 2)
    assert m.closure(0b1) == 0b1


def test_closure_properties_random():
    rng = random.Random(11)
    m = make_mr(12, 5, 3)
    for _ in range(50):
        x = rng.getrandbits(12)
        cx = m.closure(x)
        assert x & ~cx == 0  # extensive
        assert m.closure(cx) == cx  # idempotent
        y = x | rng.getrandbits(12)
        assert cx & ~m.closure(y) == 0  # monotone


def test_flats_u32():
    got = flats(uniform_matroid(3, 2))
    assert got == [0, 0b001, 0b010, 0b100, 0b111]


def _reference_flats(m):
    """Scalar closure test on every ground subset, sorted by (size, mask)."""
    return sorted((s for s in submasks(m.ground) if m.closure(s) == s), key=lambda s: (s.bit_count(), s))


def test_flats_sorted_and_contain_ground():
    m = make_mr(8, 4, 3)
    fs = flats(m)
    assert m.ground in fs
    keys = [(f.bit_count(), f) for f in fs]
    assert keys == sorted(keys)
    # seeded minors, whose grounds are scattered: the closure test runs in
    # index space, away from the full ground
    rng = random.Random(30)
    triples = valid_param_triples(12)
    for _ in range(30):
        n, k, r = rng.choice(triples)
        base = make_mr(n, k, r)
        c = rng.getrandbits(n) & rng.getrandbits(n)
        d = rng.getrandbits(n) & rng.getrandbits(n) & ~c
        view = minor(base, c, d)
        assert flats(view) == _reference_flats(view)


def test_scans_of_wide_minors_are_sized_by_the_ground():
    # 10-14 members scattered over a 40-bit mask space: the tables hold 2^t
    # entries for t ground members, not 2^40
    m = make_mr(40, 20, 3)
    views = [minor(m, 0, m.ground & ~(0xFFF << 20))]
    rng = random.Random(40)
    for t in (10, 12, 14):
        keep = mask_of(rng.sample(range(40), t))
        views.append(minor(m, 0, m.ground & ~keep))
        c = mask_of(rng.sample(bits_of(m.ground & ~keep), rng.randint(1, 12)))
        views.append(minor(minor(m, 0, m.ground & ~(keep | c)), c, 0))
    assert len(flats(views[0])) == 1728
    for view in views:
        assert 10 <= view.ground_size <= 14
        assert flats(view) == _reference_flats(view)
        assert check_axioms(view).passed


def test_scans_answer_at_bit_63():
    # the 12 members at bits 52-63 of (64,40,3) are three whole repair sets, as
    # bits 20-31 of (40,20,3) are: the same flats, 32 bits higher
    m = make_mr(64, 40, 3)
    view = minor(m, 0, m.ground & ~(0xFFF << 52))
    low = make_mr(40, 20, 3)
    assert flats(view) == [f << 32 for f in flats(minor(low, 0, low.ground & ~(0xFFF << 20)))]
    assert check_axioms(view).passed
    # the two repair sets at bits 56-63 are 4-member circuits of a rank-6 view: not uniform, as at bits 20-27
    assert is_uniform(minor(m, 0, m.ground & ~(0xFF << 56))) is None
    assert is_uniform(minor(m, 0, m.ground & ~(0xFF << 20))) is None


def test_minor_view_rank_formula():
    m = make_mr(8, 4, 3)
    c = mask_of([0, 4])  # one element from each repair set
    view = minor(m, c, 0)
    assert view.full_rank() == 2
    for a in submasks(view.ground)[:100]:
        assert view.rank(a) == m.rank(a | c) - m.rank(c)


def test_contract_by_empty_is_identity():
    m = make_mr(8, 4, 3)
    view = minor(m, 0, 0)
    assert all(view.rank(a) == m.rank(a) for a in submasks(m.ground)[:200])


def test_minor_overlap_error():
    m = make_mr(8, 4, 3)
    with pytest.raises(ParameterError):
        minor(m, 0b11, 0b10)


def test_minor_rank_outside_ground():
    m = make_mr(8, 4, 3)
    view = minor(m, 0, 0b1)
    with pytest.raises(ValueError):
        view.rank(0b1)


def test_minor_order_independence_exhaustive_n8():
    m = make_mr(8, 4, 3)
    rng = random.Random(3)
    for _ in range(20):
        x = rng.getrandbits(8) & m.ground
        y = rng.getrandbits(8) & m.ground & ~x
        a = minor(m, x, y)
        b = minor(minor(m, 0, y), x, 0)
        subs = np.array(submasks(a.ground), dtype=np.uint64)
        assert (a.rank_array(subs) == b.rank_array(subs)).all()


def test_minor_order_independence_random_12():
    m = make_mr(12, 5, 3)
    rng = random.Random(7)
    for _ in range(100):
        x = rng.getrandbits(12) & m.ground
        y = rng.getrandbits(12) & m.ground & ~x
        a = minor(minor(m, x, 0), 0, y)
        b = minor(minor(m, 0, y), x, 0)
        assert a.ground == b.ground
        subs = np.array(submasks(a.ground), dtype=np.uint64)
        assert (a.rank_array(subs) == b.rank_array(subs)).all()


def _flats_of_minor_check(m, f, x):
    """Check both minor-flat identities against direct closure scans.

    Contraction by the flat f: flats of M/f must be exactly the sets A in
    E-f with A|f a flat of M.  Deletion of x: flats of M\\x must be exactly
    {F - x : F a flat of M}.
    """
    if m.closure(f) != f:
        raise ParameterError("contraction set must be a flat of the matroid")
    direct_c = set(flats(minor(m, f, 0)))
    via_m = {a for a in submasks(m.ground & ~f) if m.closure(a | f) == a | f}
    if direct_c != via_m:
        return False
    direct_d = set(flats(minor(m, 0, x)))
    via_m2 = {fl & ~x for fl in flats(m)}
    return direct_d == via_m2


def test_flats_of_minor_identity_cases():
    m = make_mr(8, 4, 3)
    assert _flats_of_minor_check(m, 0, 0)
    f = mask_of([0, 4])  # rank-2 transversal flat
    assert _flats_of_minor_check(m, f, 0)
    u = uniform_matroid(4, 2)
    assert _flats_of_minor_check(u, 0b1, 0b10)


def test_flats_of_minor_requires_flat():
    m = make_mr(8, 4, 3)
    with pytest.raises(ParameterError):
        _flats_of_minor_check(m, 0b0111, 0)  # closure adds the 4th element


def test_flats_of_minor_all_small_mr():
    for n, k, r in [(6, 3, 2), (8, 4, 3)]:
        m = make_mr(n, k, r)
        for f in flats(m):
            if f.bit_count() > 3:
                continue
            assert _flats_of_minor_check(m, f, 0)


def test_is_uniform_table():
    assert is_uniform(uniform_matroid(5, 3)) == (5, 3)


def test_is_uniform_rejects_mr():
    assert is_uniform(make_mr(8, 4, 3)) is None


def test_is_uniform_minor_after_transversal_deletion():
    m = make_mr(8, 4, 3)
    view = minor(m, 0, mask_of([0, 4]))
    assert is_uniform(view) == (6, 4)


def test_is_uniform_rank_zero_view():
    # contracting a spanning set leaves U_4^0: the scan ranks the one 0-subset, the empty set
    m = make_mr(8, 4, 3)
    view = minor(m, mask_of([0, 1, 2, 4]), 0)
    assert view.full_rank() == 0
    assert is_uniform(view) == (4, 0) == _is_uniform_by_definition(view)


def _is_uniform_by_definition(m):
    """Definition-level check: rank(X) = min(|X|, rank(E)) for every subset."""
    k = m.full_rank()
    subs = np.array(submasks(m.ground), dtype=np.uint64)
    rk = m.rank_array(subs)
    if (rk == np.minimum(popcount_array(subs), k)).all():
        return (m.ground_size, k)
    return None


def test_is_uniform_matches_definition():
    cases = [
        uniform_matroid(6, 3),
        make_mr(8, 4, 3),
        make_mr(9, 4, 2),
        minor(make_mr(8, 4, 3), 0, mask_of([0, 4])),
        minor(make_mr(12, 7, 3), mask_of([0, 4]), 0),
    ]
    for m in cases:
        assert is_uniform(m) == _is_uniform_by_definition(m)


def _first_deficient_subset(m):
    """Index of the first rank-deficient k-subset in combination order, or None."""
    k = m.full_rank()
    for i, comb in enumerate(combinations(bits_of(m.ground), k)):
        if m.rank(mask_of(comb)) < k:
            return i
    return None


def _late_failure_minors():
    """MR minors that lose one element of every repair set but the last.

    Only k-subsets holding the whole last set are dependent, and they come
    late in combination order.
    """
    for n, k, r in valid_param_triples(12):
        m = make_mr(n, k, r)
        yield minor(m, 0, mask_of(bits_of(b)[0] for b in m.params.repair_sets[:-1]))


@pytest.mark.parametrize("batch", [1, 7, 64])
def test_is_uniform_across_rank_batches(monkeypatch, batch):
    rng = random.Random(batch)
    triples = valid_param_triples(12)
    cases = []
    for _ in range(120):
        n, k, r = rng.choice(triples)
        f = rng.getrandbits(n) & rng.getrandbits(n)
        x = rng.getrandbits(n) & rng.getrandbits(n) & ~f
        cases.append(minor(make_mr(n, k, r), f, x))
    cases += _late_failure_minors()
    expected = [_is_uniform_by_definition(m) for m in cases]
    monkeypatch.setattr(matroid, "_RANK_BATCH", batch)
    late = 0
    for m, want in zip(cases, expected):
        assert is_uniform(m) == want
        if want is None and _first_deficient_subset(m) >= batch:
            late += 1
    # both verdicts, and failures that only a batch after the first can see
    assert {w is None for w in expected} == {True, False}
    assert late > 0


def _eq1_minor_22_11_10():
    m = make_mr(22, 11, 10)
    w = witness_eq1(m)
    return minor(m, w.contract_flat, w.delete_set)


def test_is_uniform_eq1_minor_spans_three_batches():
    view = _eq1_minor_22_11_10()
    calls = []
    rank_array = view.rank_array
    view.rank_array = lambda masks: calls.append(len(masks)) or rank_array(masks)
    assert is_uniform(view) == (20, 11)
    # C(20, 11) = 167,960 masks: two full batches and a partial one
    assert calls == [matroid._RANK_BATCH] * 2 + [167_960 - 2 * matroid._RANK_BATCH]


def test_is_uniform_memory_is_one_batch():
    view = _eq1_minor_22_11_10()
    tracemalloc.start()
    try:
        assert is_uniform(view) == (20, 11)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 4.5e6


def test_is_uniform_refusal_states_its_work(monkeypatch):
    # the eq1 minor of (48,24,3): one element deleted from each of the 12 repair sets
    view = minor(make_mr(48, 24, 3), 0, mask_of(range(0, 48, 4)))
    with pytest.raises(SizeRefusal, match=r"would rank C\(36,24\) = 1251677700 subsets; limit is 8388608"):
        is_uniform(view)
    # the budget counts k-subsets: C(20, 11) = 167,960 is the first refused total
    view = _eq1_minor_22_11_10()
    monkeypatch.setattr(matroid, "_UNIFORM_LIMIT", 167_960)
    assert is_uniform(view) == (20, 11)
    monkeypatch.setattr(matroid, "_UNIFORM_LIMIT", 167_959)
    with pytest.raises(SizeRefusal, match=r"C\(20,11\) = 167960"):
        is_uniform(view)


def test_flats_refusal():
    class Big(TableMatroid):
        pass

    m = make_mr(28, 14, 3)
    with pytest.raises(SizeRefusal):
        flats(m)


def test_minor_view_flattening():
    m = make_mr(8, 4, 3)
    v1 = minor(m, 0b1, 0)
    v2 = minor(v1, 0b10000, 0)
    assert v2.rank(0b10) == m.rank(0b10011) - m.rank(0b10001)


def test_table_matroid_needs_2_to_the_n_entries():
    with pytest.raises(ValueError, match=r"2\^n entries"):
        TableMatroid(3, [0] * 7)


def test_uniform_matroid_validation():
    with pytest.raises(ParameterError):
        uniform_matroid(3, 4)
