import random

import numpy as np
import pytest

from mrlrc.errors import ParameterError, SizeRefusal
from mrlrc.matroid import check_axioms, flats
from mrlrc.mr import (
    MrMatroid,
    make_mr,
    make_params,
    mr_flats,
    parse_params,
    valid_param_triples,
)
from mrlrc.subsets import mask_of, masks_of_size, submasks


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


def test_rank_array_matches_scalar():
    m = make_mr(12, 7, 3)
    masks = np.arange(1 << 12, dtype=np.int64)
    arr = m.rank_array(masks)
    rng = random.Random(5)
    for _ in range(200):
        x = rng.getrandbits(12)
        assert int(arr[x]) == m.rank(x)


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
    rng = random.Random(19)
    perm = list(range(8))
    rng.shuffle(perm)
    blocks = [mask_of(perm[i : i + 4]) for i in range(0, 8, 4)]
    m = make_mr(8, 4, 3, partition=blocks)
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
