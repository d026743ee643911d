import random
from itertools import islice
from math import comb

import numpy as np
import pytest

from mrlrc.errors import ParameterError, SizeRefusal
from mrlrc.matroid import Matroid, check_axioms, flats, minor
from mrlrc.minors import MinorWitness, verify_witness, witness_eq1, witness_eq2, witness_eq3, witness_eq4
from mrlrc.mr import (
    MrMatroid,
    make_mr,
    make_params,
    mr_flats,
    parse_params,
    valid_param_triples,
)
from mrlrc.subsets import bits_of, mask_of, masks_of_size, submasks


def test_make_params_derived_values():
    p = make_params(8, 4, 3)
    assert (p.g, p.h) == (2, 2)
    p = make_params(12, 7, 3)
    assert (p.g, p.h) == (3, 2)


def test_make_params_distinct_errors():
    with pytest.raises(ParameterError, match="divisib"):
        make_params(9, 4, 3)
    with pytest.raises(ParameterError, match="k > r"):
        make_params(8, 3, 3)
    with pytest.raises(ParameterError, match="k <= g"):
        make_params(8, 7, 3)
    with pytest.raises(ParameterError, match="partition"):
        make_params(8, 4, 3, partition=[0b1111, 0b1111_0000, 0])
    with pytest.raises(ParameterError, match="partition"):
        make_params(8, 4, 3, partition=[0b111, 0b1111_1000])
    with pytest.raises(ParameterError, match="overlap"):
        make_params(8, 4, 3, partition=[0b1111, 0b0011_1100])


def test_parse_params_roundtrip():
    p = parse_params("8,4,3")
    assert p == make_params(8, 4, 3)
    q = parse_params("8,4,3:0,1,2,4;3,5,6,7")
    assert q.repair_sets == (mask_of([0, 1, 2, 4]), mask_of([3, 5, 6, 7]))
    assert parse_params(q.to_text()) == q
    with pytest.raises(ValueError):
        parse_params("8,4")
    with pytest.raises(ValueError):
        parse_params("8,x,3")


def _rank_direct_sum(m, x):
    """Alternate rank form: truncation at k of per-repair-set uniform ranks."""
    total = sum(min((x & b).bit_count(), m.params.r) for b in m.params.repair_sets)
    return min(m.params.k, total)


def test_rank_formulas_agree():
    for n, k, r in [(8, 4, 3), (9, 5, 2), (12, 7, 3), (14, 9, 6)]:
        m = make_mr(n, k, r)
        for x in submasks(m.ground):
            assert m.rank(x) == _rank_direct_sum(m, x), (n, k, r, x)


def _seeded_partition(rng, n, r):
    perm = list(range(n))
    rng.shuffle(perm)
    return [mask_of(perm[i : i + r + 1]) for i in range(0, n, r + 1)]


def _assert_rank_array(m, masks):
    """rank_array of one uint64 batch equals the scalar rank of each mask."""
    masks = np.asarray(masks, dtype=np.uint64)
    got = m.rank_array(masks)
    assert got.dtype == np.int64 and got.shape == masks.shape
    assert got.tolist() == [m.rank(int(x)) for x in masks]


def test_rank_array_matches_scalar():
    m = make_mr(12, 7, 3)
    masks = np.arange(1 << 12, dtype=np.uint64)  # the whole rank table, as flats and check_axioms rank it
    arr = m.rank_array(masks)
    assert arr.tolist() == [m.rank(x) for x in range(1 << 12)]
    rng = random.Random(5)
    for n, k, r in [(12, 7, 3), (18, 16, 8), (40, 20, 3), (48, 21, 15), (63, 40, 2), (63, 9, 8)]:
        for partition in (None, _seeded_partition(rng, n, r)):
            m = make_mr(n, k, r, partition)
            sets = m.params.repair_sets
            # random masks of every density, small ones included
            _assert_rank_array(m, [rng.getrandbits(n) & rng.getrandbits(n) >> rng.randrange(n) for _ in range(300)])
            # a common core of two whole repair sets and a partial one, held by every mask
            core = sets[0] | sets[-1] | (sets[1] & (sets[1] - 1))
            _assert_rank_array(m, [core | rng.getrandbits(n) for _ in range(300)])
            # one member of every other repair set held by no mask: those sets are never whole
            drop = 0
            for b in sets[::2]:
                drop |= 1 << rng.choice([e for e in range(n) if b >> e & 1])
            _assert_rank_array(m, [rng.getrandbits(n) & ~drop for _ in range(300)])
            # batches through a minor view and a view of a view, as is_uniform ranks them
            c = sets[0] | (sets[1] & (sets[1] - 1))
            d = drop & ~c
            view = minor(m, c, d)
            inner = minor(view, sets[-1] & ~d & view.ground, 0)
            for v in (view, inner):
                t = min(3, v.full_rank())
                _assert_rank_array(v, list(islice(masks_of_size(v.ground, t), 500)))
            # a one-mask batch and an empty batch
            _assert_rank_array(m, [rng.getrandbits(n)])
            _assert_rank_array(m, [])
    # 64-bit masks, some holding the repair set {60..63} at bit 63 whole
    masks = [rng.getrandbits(64) for _ in range(300)]
    assert any(x >> 60 == 0xF for x in masks)
    _assert_rank_array(make_mr(64, 40, 3), masks)


def test_closure_closed_form_matches_rank_scan():
    """MrMatroid.closure equals the generic scan on every subset, n <= 12."""
    rng = random.Random(21)
    count = 0
    for n, k, r in valid_param_triples(12):
        for partition in (None, _seeded_partition(rng, n, r)):
            m = make_mr(n, k, r, partition)
            for x in range(1 << n):
                assert m.closure(x) == Matroid.closure(m, x), (n, k, r, partition, x)
            count += 1
    assert count == 90
    with pytest.raises(ValueError):
        make_mr(8, 4, 3).closure(1 << 8)


def test_uniform_minor_closed_form_matches_is_uniform():
    """MrMatroid.uniform_minor equals is_uniform of the minor on seeded (F, X), n <= 15,
    and agrees with the rank formula on seeded (F, X) for 16 <= n <= 64.

    F is a random set (rarely a flat, so leftovers of one member are loops)
    or its closure; X is random outside F.  Both verdicts occur for each.
    """
    rng = random.Random(26)
    verdicts = {}
    for n, k, r in valid_param_triples(15):
        for partition in (None, _seeded_partition(rng, n, r)):
            m = make_mr(n, k, r, partition)
            for i in range(24):
                f = rng.getrandbits(n) & rng.getrandbits(n)
                if i % 2:
                    f = m.closure(f)
                x = rng.getrandbits(n) & rng.getrandbits(n) & ~f
                got = m.uniform_minor(f, x)
                assert got == Matroid.uniform_minor(m, f, x), (n, k, r, partition, f, x)
                key = (i % 2, got is None)
                verdicts[key] = verdicts.get(key, 0) + 1
    assert len(verdicts) == 4, verdicts
    assert 4 * (verdicts[0, True] + verdicts[1, True]) >= sum(verdicts.values()), verdicts
    # 16 <= n <= 64, mostly past is_uniform's reach: k' against the rank formula
    # through minor(); a None names a leftover of at most k' members that is
    # dependent in the minor; minors of at most 5,000 k'-subsets are also scanned.
    # Every n = 64 partition has a repair set holding bit 63.
    large, scanned = {}, 0
    triples = [t for t in valid_param_triples(64) if t[0] >= 16]
    for n, k, r in rng.sample(triples, 60) + [t for t in triples if t[0] == 64][::9]:
        for partition in (None, _seeded_partition(rng, n, r)):
            m = make_mr(n, k, r, partition)
            for f, x in _large_pairs(rng, m):
                got = m.uniform_minor(f, x)
                view = minor(m, f, x)
                if got is None:
                    assert any(
                        b & ~f & ~view.ground == 0 and view.rank(b & ~f) < (b & ~f).bit_count() <= view.full_rank()
                        for b in m.params.repair_sets
                        if b & ~f
                    ), (n, k, r, partition, f, x)
                else:
                    assert got == ((m.ground & ~f & ~x).bit_count(), view.full_rank()), (n, k, r, partition, f, x)
                if comb(view.ground_size, view.full_rank()) <= 5000:
                    assert got == Matroid.uniform_minor(m, f, x), (n, k, r, partition, f, x)
                    scanned += 1
                key = (n == 64, got is None)
                large[key] = large.get(key, 0) + 1
    assert min(large.values()) >= 100 and len(large) == 4, large
    assert scanned >= 300, scanned
    m = make_mr(8, 4, 3)
    with pytest.raises(ParameterError):
        m.uniform_minor(0b11, 0b10)
    with pytest.raises(ValueError):
        m.uniform_minor(0, 1 << 8)


def test_uniform_minor_closed_form_matches_is_uniform_at_n_64():
    """At n = 64, where every partition has a repair set holding bit 63, the closed
    form and is_uniform agree on the eq3 k' = 2 witness of every triple with r >= 3,
    and on F = every repair set but the last two, with X empty or the lowest member
    of the last set, wherever that minor has at most 20,000 k'-subsets."""
    witnesses, verdicts = 0, {}
    for n, k, r in valid_param_triples(64):
        if n < 64 or r < 3:
            continue
        m = make_mr(n, k, r)
        w = witness_eq3(m, 2)
        f, x = w.contract_flat, w.delete_set
        assert Matroid.uniform_minor(m, f, x) == m.uniform_minor(f, x) == (w.claimed_size, 2), (k, r)
        witnesses += 1
        sets = m.params.repair_sets
        f = sum(sets[:-2])
        for x in (0, sets[-1] & -sets[-1]):
            view = minor(m, f, x)
            if comb(view.ground_size, view.full_rank()) > 20000:
                continue
            got = m.uniform_minor(f, x)
            assert got == Matroid.uniform_minor(m, f, x), (k, r, x)
            verdicts[got is None] = verdicts.get(got is None, 0) + 1
    assert witnesses == 170
    assert verdicts == {False: 204, True: 28}, verdicts
    # (64,48,3): the two leftovers are whole repair sets of 4 <= k' = 6 members
    m = make_mr(64, 48, 3)
    f = sum(m.params.repair_sets[:-2])
    assert m.uniform_minor(f, 0) is None and Matroid.uniform_minor(m, f, 0) is None


def _large_pairs(rng, m):
    """Seeded (F, X) on m: random pairs as in the n <= 15 check and pairs that
    delete one member of every leftover (uniform); pairs that keep one leftover
    whole; and the eq1, eq2, eq3 and eq4 witnesses, each also with one deleted
    member restored, which leaves a leftover of at most k' members whole."""
    n, k, r = m.params.n, m.params.k, m.params.r
    for i in range(8):
        f = rng.getrandbits(n) & rng.getrandbits(n) & rng.getrandbits(n)
        if i % 2:
            f = m.closure(f)
        x = rng.getrandbits(n) & rng.getrandbits(n) & rng.getrandbits(n) & ~f
        if i % 4 == 3:
            for b in m.params.repair_sets:
                if b & ~f:
                    x |= 1 << rng.choice(bits_of(b & ~f))
        yield f, x
    for extra in (0, 1, 2):
        # K = one leftover kept whole plus `extra` other members: while F + K does
        # not span and K holds no other whole leftover, k' = |K| - 1 and the
        # leftover is a circuit of k' + 1 - extra members (extra = 1: |b - F| = k')
        f = m.closure(rng.getrandbits(n) & rng.getrandbits(n) & rng.getrandbits(n))
        leftovers = [b & ~f for b in m.params.repair_sets if b & ~f]
        if leftovers:
            keep = rng.choice(leftovers)
            others = bits_of(m.ground & ~f & ~keep)
            for e in rng.sample(others, min(extra, len(others))):
                keep |= 1 << e
            yield f, m.ground & ~f & ~keep
    built = [witness_eq1(m), witness_eq2(m)]
    if r > 2:
        try:
            built.append(witness_eq3(m, rng.randrange(2, r)))
        except SizeRefusal:  # an eq3 gap case: the oracle refuses n > 15
            pass
    if k > r + 1:
        built.append(witness_eq4(m, rng.randrange(r + 1, k)))
    for w in built:
        yield w.contract_flat, w.delete_set
        if w.delete_set:
            yield w.contract_flat, w.delete_set & ~(1 << rng.choice(bits_of(w.delete_set)))


def test_verify_witness_rejects_non_flat_on_seeded_partition():
    m = make_mr(8, 4, 3, partition=[mask_of([0, 2, 4, 6]), mask_of([1, 3, 5, 7])])
    f = mask_of([0, 2, 4])
    assert m.closure(f) == f | 1 << 6  # three members of the first repair set close it
    assert not verify_witness(m, MinorWitness.from_line("F=0,2,4; X=; k'=1; n'=5"))
    assert verify_witness(m, MinorWitness.from_line("F=0,1; X=; k'=2; n'=6"))


def test_rank_of_ground_and_repair_sets():
    for n, k, r in [(8, 4, 3), (12, 7, 3), (9, 4, 2)]:
        m = make_mr(n, k, r)
        assert m.rank(m.ground) == k
        for b in m.params.repair_sets:
            assert m.rank(b) == r


def test_mr_flats_equal_closure_flats():
    for n, k, r in [(6, 3, 2), (8, 4, 3), (9, 4, 2), (12, 7, 3)]:
        m = make_mr(n, k, r)
        assert mr_flats(m) == flats(m), (n, k, r)
    # a seeded partition of every valid triple with n <= 12
    rng = random.Random(23)
    for n, k, r in valid_param_triples(12):
        m = make_mr(n, k, r, _seeded_partition(rng, n, r))
        assert mr_flats(m) == flats(m), (n, k, r, m.params.partition)


def test_mr_flats_membership_examples():
    m = make_mr(8, 4, 3)
    fs = set(mr_flats(m))
    r1 = m.params.repair_sets[0]
    assert r1 in fs
    assert (r1 & ~0b1) not in fs  # r elements of a repair set are not a flat
    assert mask_of([0, 4]) in fs  # transversal pair
    assert m.ground in fs


def test_mr_flats_never_meet_repair_set_in_r():
    m = make_mr(8, 4, 3)
    for f in mr_flats(m):
        if f == m.ground:
            continue
        for b in m.params.repair_sets:
            assert (f & b).bit_count() != m.params.r


def test_information_set_property():
    # every k-subset without a whole repair set has rank k
    for n, k, r in [(8, 4, 3), (9, 5, 2), (12, 7, 3)]:
        m = make_mr(n, k, r)
        for s in masks_of_size(m.ground, k):
            if any(s & b == b for b in m.params.repair_sets):
                continue
            assert m.rank(s) == k


def test_partition_covariance():
    m = make_mr(8, 4, 3, partition=_seeded_partition(random.Random(19), 8, 3))
    assert check_axioms(m).passed
    assert m.rank(m.ground) == 4
    assert mr_flats(m) == flats(m)


def test_axioms_all_small_params():
    for n, k, r in valid_param_triples(9):
        assert check_axioms(make_mr(n, k, r)).passed, (n, k, r)


def test_mr_flats_refusal():
    with pytest.raises(SizeRefusal):
        mr_flats(make_mr(28, 14, 3))


def test_matroid_cap_at_64():
    p = make_params(204, 7, 3)  # params themselves are fine for formula work
    with pytest.raises(ParameterError):
        MrMatroid(p)


def test_valid_param_triples():
    triples = valid_param_triples(8)
    assert (8, 4, 3) in triples
    assert all(n % (r + 1) == 0 and r < k <= n // (r + 1) * r for n, k, r in triples)
