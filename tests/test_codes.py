import random
from itertools import combinations, product
from math import comb

import numpy as np
import pytest

from mrlrc import codes
from mrlrc.codes import (
    GenMatrix,
    _heavy_rows_are_mr,
    code_to_matroid,
    is_mds_code,
    is_mr_lrc,
    matrix_from_rows,
    read_matrix,
    search_mr_code,
    shorten_then_puncture,
    write_matrix,
)
from mrlrc.errors import ParameterError, SizeRefusal
from mrlrc.gf import Field, FieldSpec, _eliminate, mat_rank, minors_nonzero, nullspace, parse_field, rref
from mrlrc.matroid import minor
from mrlrc.minors import MinorWitness, verify_witness, witness_eq1, witness_eq2, witness_eq3
from mrlrc.mr import make_mr, make_params, parse_params
from mrlrc.subsets import bits_of, mask_of, submasks


def _rs_matrix(spec: FieldSpec, n: int, k: int) -> GenMatrix:
    """Reed-Solomon generator matrix: row i evaluates x^i at the n field elements 0..n-1."""
    f = Field(spec)
    rows, row = [], [1] * n
    for _ in range(k):
        rows.append(row)
        row = [f.mul(v, x) for v, x in zip(row, range(n))]
    return matrix_from_rows(spec, rows)


def test_genmatrix_validation():
    field = FieldSpec(5)
    with pytest.raises(ParameterError):
        GenMatrix(field, 3, ((1, 2),))  # wrong row length
    with pytest.raises(ParameterError):
        GenMatrix(field, 2, ((1, 5),))  # entry outside the field
    with pytest.raises(ParameterError):
        matrix_from_rows(field, [])


def test_reed_solomon_is_mds():
    gm = _rs_matrix(FieldSpec(7), 6, 3)
    assert is_mds_code(gm)


def test_singleton_violation_is_not_mds():
    field = FieldSpec(5)
    gm = matrix_from_rows(field, [[1, 0, 1, 1], [0, 1, 1, 1]])
    # columns 2 and 3 are equal, so those two columns are dependent
    assert not is_mds_code(gm)


def test_mds_refusal():
    # the limit weighs the expansion, not columns: a [25,1] code's A is 1x24, 24 entries
    assert is_mds_code(matrix_from_rows(FieldSpec(2), [[1] * 25]))
    # [24,12] is 12 C(23,12) = 16224936 steps, admitted (this A has zero entries);
    # [26,13] is 13 C(25,13) = 67603900, past the limit
    assert not is_mds_code(matrix_from_rows(FieldSpec(13), [[1] * 24 for _ in range(12)]))
    with pytest.raises(SizeRefusal):
        is_mds_code(matrix_from_rows(FieldSpec(13), [[1] * 26 for _ in range(13)]))
    # past the 64-element ground limit a matrix is still a typed error
    with pytest.raises(ValueError, match="ground size"):
        is_mds_code(matrix_from_rows(FieldSpec(2), [[1] * 65]))


def test_refusals_state_the_work():
    # the refused count of column sets is named, C(30, 15) = 155117520, with its
    # steps at 15^3 per 15x15 rank
    gm = matrix_from_rows(FieldSpec(13), [[0] * 30 for _ in range(15)])
    msg = r"C\(30,15\) = 155117520 column sets: 523521630000 steps at d\^3 per 15x15 rank; limit is 33554432"
    with pytest.raises(SizeRefusal, match=msg):
        is_mr_lrc(gm, make_params(30, 15, 4))
    # the MDS check names the square submatrices of A = 15x15 it tests, C(30,15) - 1 of them,
    # and their s multiply-adds per s x s minor, 15 C(29,15) in all
    msg = (
        r"C\(30,15\) - 1 = 155117519 square submatrices of A: 1163381400 steps at s multiply-adds"
        r" per s x s minor; limit is 33554432"
    )
    with pytest.raises(SizeRefusal, match=msg):
        is_mds_code(gm)
    # few column sets can still be too much work when each is wide: C(64,61) = 41664 61x61 ranks
    with pytest.raises(SizeRefusal, match=r"C\(64,61\) = 41664 column sets: 9456936384 steps"):
        is_mr_lrc(matrix_from_rows(FieldSpec(13), [[0] * 64 for _ in range(61)]), make_params(64, 61, 31))
    # a high-rate code: A is 30x10, C(40,30) - 1 submatrices of at most 10x10, 30 C(39,30) steps
    gm = matrix_from_rows(FieldSpec(13), [[0] * 40 for _ in range(30)])
    with pytest.raises(SizeRefusal, match=r"C\(40,30\) - 1 = 847660527 square submatrices of A: 6357453960 steps"):
        is_mds_code(gm)


def test_search_finds_mr_code_and_matches_matroid():
    p = make_params(8, 4, 3)
    gm = search_mr_code(p, FieldSpec(13), trials=200, seed=7)
    assert gm is not None
    assert is_mr_lrc(gm, p)
    lm = code_to_matroid(gm)
    m = make_mr(8, 4, 3)
    subs = np.array(submasks(m.ground), dtype=np.uint64)
    assert (lm.rank_array(subs) == m.rank_array(subs)).all()


def test_search_pinned_output():
    # random trials depend only on the seed; trial 0 of the GF(2^8) search is rejected
    p = make_params(8, 4, 3)
    gm = search_mr_code(p, FieldSpec(2, 8, 285), trials=5, seed=4)
    assert write_matrix(gm) == (
        "field 2^8 modulus=285\n"
        "4 8\n"
        "102 252 155 1 0 0 0 0\n"
        "230 142 104 0 1 1 0 0\n"
        "88 92 4 0 1 0 1 0\n"
        "170 204 102 0 1 0 0 1\n"
    )
    gm = search_mr_code(p, FieldSpec(13), trials=200, seed=7)
    assert write_matrix(gm) == (
        "field 13\n"
        "4 8\n"
        "6 8 11 1 0 0 0 0\n"
        "8 7 11 0 12 1 0 0\n"
        "3 3 7 0 12 0 1 0\n"
        "6 11 9 0 12 0 0 1\n"
    )


def test_search_pinned_output_three_groups():
    # h = 2 heavy rows over three repair sets; trial 0 is rejected.  Recorded
    # when the search still certified through is_mr_lrc.
    gm = search_mr_code(make_params(12, 7, 3), FieldSpec(257), trials=5, seed=7)
    assert write_matrix(gm) == (
        "field 257\n"
        "7 12\n"
        "218 68 227 1 0 0 0 0 0 0 0 0\n"
        "30 1 226 0 256 1 0 0 0 0 0 0\n"
        "120 99 38 0 256 0 1 0 0 0 0 0\n"
        "183 7 67 0 256 0 0 1 0 0 0 0\n"
        "7 13 237 0 0 0 0 0 256 1 0 0\n"
        "191 122 201 0 0 0 0 0 256 0 1 0\n"
        "181 239 94 0 0 0 0 0 256 0 0 1\n"
    )
    assert search_mr_code(make_params(12, 7, 3), FieldSpec(257), trials=1, seed=7) is None


def _parity_kernel(p, spec, heavy):
    """ker H for H = (one all-ones row per repair set; heavy), or None if H is rank-deficient."""
    local = [[b >> j & 1 for j in range(p.n)] for b in p.repair_sets]
    basis = nullspace(Field(spec), local + heavy)
    return GenMatrix(spec, p.n, tuple(map(tuple, basis))) if len(basis) == p.k else None


def test_certificate_matches_primal_scan():
    # h = 0 (vacuous), r = 1, a non-contiguous partition, prime and extension fields
    cases = (
        ("12,9,3", "5", 4),
        ("10,4,1", "5", 10),
        ("6,2,1", "3", 30),
        ("8,4,3", "13", 120),
        ("8,4,3:0,2,5,7;1,3,4,6", "13", 120),
        ("8,4,3", "2^8:285", 10),
        ("12,7,3", "2^8:285", 4),
    )
    seen = {}
    for params, field, trials in cases:
        p, spec = parse_params(params), parse_field(field)
        for t in range(trials):
            rng = random.Random(f"v:{t}")
            heavy = [[rng.randrange(spec.q) for _ in range(p.n)] for _ in range(p.h)]
            gm = _parity_kernel(p, spec, heavy)
            cert = _heavy_rows_are_mr(Field(spec), p, heavy)
            assert cert == (gm is not None and is_mr_lrc(gm, p)), (params, field, t)
            seen.setdefault(field, set()).add(cert)
    assert all(v == {True, False} for v in seen.values()), seen


def test_certificate_rejects_equal_heavy_columns():
    # columns 0 and 1 share a repair set and their heavy entries: erasing both
    # plus the rest of another group leaves a zero difference column
    p, spec = make_params(8, 4, 3), FieldSpec(13)
    heavy = [[3, 3, 1, 4, 1, 5, 9, 2], [6, 6, 5, 3, 5, 8, 9, 7]]
    gm = _parity_kernel(p, spec, heavy)
    assert gm is not None
    assert not is_mr_lrc(gm, p)
    assert not _heavy_rows_are_mr(Field(spec), p, heavy)


def test_search_validates_up_front():
    p = make_params(8, 4, 3)
    for trials in (0, -1):
        with pytest.raises(ParameterError, match="at least one trial"):
            search_mr_code(p, FieldSpec(13), trials=trials, seed=1)
    # refused before any trial, with the certificate's per-trial work
    with pytest.raises(SizeRefusal, match=r"51329100 9x9 difference matrices per trial: 37418913900 steps"):
        search_mr_code(make_params(30, 15, 4), FieldSpec(13), trials=1, seed=1)
    # past the 64-element ground limit the search is refused before it counts over the repair sets
    with pytest.raises(SizeRefusal, match=r"n=20000 code; limit is n <= 64"):
        search_mr_code(make_params(20000, 5000, 1), FieldSpec(13), trials=1, seed=1)


def test_search_bounds_trials_times_steps():
    # (8,4,3) ranks 44 2x2 matrices, 352 steps, per trial: 95,325 trials fit in
    # 2^25 = 33,554,432 steps and 95,326 do not
    p = make_params(8, 4, 3)
    with pytest.raises(SizeRefusal, match=r"per trial: 352 steps .* 33554752 steps over 95326 trials"):
        search_mr_code(p, FieldSpec(13), trials=95_326, seed=7)
    assert search_mr_code(p, FieldSpec(13), trials=95_325, seed=7) is not None
    # three trials of the (45,37,8) certificate are past the limit; two are not
    with pytest.raises(SizeRefusal, match=r"per trial: 14247090 steps .* over 3 trials"):
        search_mr_code(make_params(45, 37, 8), FieldSpec(65521), trials=3, seed=22)
    # an h = 0 trial ranks nothing but still weighs one step
    with pytest.raises(SizeRefusal, match=r"per trial: 1 steps"):
        search_mr_code(make_params(8, 6, 3), FieldSpec(13), trials=(1 << 25) + 1, seed=1)


def test_search_is_deterministic():
    p = make_params(8, 4, 3)
    a = search_mr_code(p, FieldSpec(13), trials=50, seed=3)
    b = search_mr_code(p, FieldSpec(13), trials=50, seed=3)
    assert a == b


def test_is_mr_lrc_rejects_wrong_shape_and_bad_codes():
    p = make_params(8, 4, 3)
    with pytest.raises(ParameterError):
        is_mr_lrc(_rs_matrix(FieldSpec(13), 6, 3), p)
    # an MDS code of the right shape has no local parities
    assert not is_mr_lrc(_rs_matrix(FieldSpec(13), 8, 4), p)


def test_puncture_matches_deletion():
    gm = search_mr_code(make_params(8, 4, 3), FieldSpec(13), trials=200, seed=7)
    lm = code_to_matroid(gm)
    x = mask_of([0, 4])
    pm = code_to_matroid(shorten_then_puncture(gm, 0, x))
    dv = minor(lm, 0, x)
    survivors = bits_of(lm.ground & ~x)
    for s in submasks(dv.ground):
        dense = 0
        for new_j, old_j in enumerate(survivors):
            if s >> old_j & 1:
                dense |= 1 << new_j
        assert pm.rank(dense) == dv.rank(s)


def test_shorten_matches_contraction():
    gm = search_mr_code(make_params(8, 4, 3), FieldSpec(13), trials=200, seed=7)
    lm = code_to_matroid(gm)
    x = mask_of([0, 4])
    sm = code_to_matroid(shorten_then_puncture(gm, x, 0))
    cv = minor(lm, x, 0)
    assert sm.gm.k == gm.k - lm.rank(x)
    survivors = bits_of(lm.ground & ~x)
    for s in submasks(cv.ground):
        dense = 0
        for new_j, old_j in enumerate(survivors):
            if s >> old_j & 1:
                dense |= 1 << new_j
        assert sm.rank(dense) == cv.rank(s)


def test_witnesses_give_mds_codes():
    p = make_params(8, 4, 3)
    gm = search_mr_code(p, FieldSpec(13), trials=200, seed=7)
    m = make_mr(8, 4, 3)
    lm = code_to_matroid(gm)
    # eq3 has one witness here: 2 <= k' <= r - 1 = 2
    for w in (witness_eq1(m), witness_eq2(m), witness_eq3(m, 2)):
        sub = shorten_then_puncture(gm, w.contract_flat, w.delete_set)
        assert sub.n == w.claimed_size
        assert sub.k == w.target_rank
        assert is_mds_code(sub)
        # the code's own matroid certifies it too, by the generic closure and is_uniform scans
        assert verify_witness(lm, w)
    # {0} is a flat, but {1,2,3} completes its repair set in M/{0}, so M/{0} is not U^3_7;
    # {0,1,2} is no flat: it spans 3
    for line in ("F=0; X=; k'=3; n'=7", "F=0,1,2; X=; k'=1; n'=5"):
        w = MinorWitness.from_line(line)
        assert not verify_witness(m, w)
        assert not verify_witness(lm, w)


def test_shorten_then_puncture_overlap_error():
    gm = _rs_matrix(FieldSpec(7), 6, 3)
    with pytest.raises(ParameterError):
        shorten_then_puncture(gm, 0b11, 0b10)
    # columns outside [n], on either side of the minor
    for f, x in ((1 << 6, 0), (0, 1 << 6), (0b1, 1 << 9)):
        with pytest.raises(ParameterError, match=r"outside \[n\]"):
            shorten_then_puncture(gm, f, x)
    for f, x in ((0b1 | 1 << 6, 0), (0, 0b1 | 1 << 6)):
        with pytest.raises(ParameterError, match=r"outside \[n\]"):
            shorten_then_puncture(gm, f, x)


def _shorten_relabel_puncture(gm, f, x):
    """Reference code minor in three steps: shorten at f, which renumbers the
    surviving columns densely; carry x over to the new labels; puncture."""
    rows, pivots = _eliminate(Field(gm.field), gm.rows, bits_of(f))
    used = {i for i, _ in pivots}
    survivors = [j for j in range(gm.n) if not f >> j & 1]
    shortened = GenMatrix(
        gm.field,
        len(survivors),
        tuple(tuple(row[j] for j in survivors) for i, row in enumerate(rows) if i not in used),
    )
    remapped = 0
    for new_j, old_j in enumerate(survivors):
        if x >> old_j & 1:
            remapped |= 1 << new_j
    keep = [j for j in range(shortened.n) if not remapped >> j & 1]
    return GenMatrix(gm.field, len(keep), tuple(tuple(row[j] for j in keep) for row in shortened.rows))


_FIELDS = ("13", "2^4", "3^2", "2^8:285")


def _random_matrix(rng, spec, n):
    """k x n with random entries, k random; half of them repeat row 0 as the last row."""
    k = rng.randint(1, n)
    rows = [[rng.randrange(spec.q) for _ in range(n)] for _ in range(k)]
    if k > 1 and rng.random() < 0.5:
        rows[-1] = rows[0]
    return matrix_from_rows(spec, rows)


def test_minor_matches_shorten_relabel_puncture():
    rng = random.Random(12)
    for text in _FIELDS:
        spec = parse_field(text)
        for n in range(1, 13):
            gm = _random_matrix(rng, spec, n)
            if n <= 6:  # every disjoint (F, X): each column in F, in X or in neither
                pairs = [
                    (mask_of(j for j in range(n) if side[j] == 1), mask_of(j for j in range(n) if side[j] == 2))
                    for side in product(range(3), repeat=n)
                ]
            else:
                pairs = [(f, rng.getrandbits(n) & ~f) for f in (rng.getrandbits(n) for _ in range(40))]
            for f, x in pairs:
                assert shorten_then_puncture(gm, f, x) == _shorten_relabel_puncture(gm, f, x), (text, f, x)
                assert shorten_then_puncture(gm, f, 0) == _shorten_relabel_puncture(gm, f, 0)
                assert shorten_then_puncture(gm, 0, x) == _shorten_relabel_puncture(gm, 0, x)


def _mds_by_combinations(gm, rank):
    """Reference is_mds_code: the rows, then every k-tuple of columns."""
    field = Field(gm.field)
    if rank(field, [list(r) for r in gm.rows]) != gm.k:
        return False
    for cols in combinations(range(gm.n), gm.k):
        if rank(field, [[row[j] for j in cols] for row in gm.rows]) != gm.k:
            return False
    return True


def _mr_by_combinations(gm, p, rank):
    """Reference is_mr_lrc: each repair set, then every k-tuple holding no whole repair set."""
    field = Field(gm.field)
    for b in p.repair_sets:
        if rank(field, [[row[j] for j in bits_of(b)] for row in gm.rows]) > p.r:
            return False
    for cols in combinations(range(p.n), p.k):
        mask = mask_of(cols)
        if any(mask & b == b for b in p.repair_sets):
            continue
        if rank(field, [[row[j] for j in cols] for row in gm.rows]) != p.k:
            return False
    return True


def _recording(log):
    def rank(field, rows):
        log.append(rows)
        return mat_rank(field, rows)

    return rank


def _ranked_minors(gm):
    """The matrices is_mds_code ranks: the s x s submatrices of A, 2 <= s <= min(k, n-k),
    in (s, rows, cols) order, up to the first singular one, where rref(G) = [I | A] on
    its pivot and other columns; none when G is rank-deficient or A has a zero entry."""
    f = Field(gm.field)
    red, pivots = rref(f, gm.rows)
    if len(pivots) < gm.k:
        return []
    a = [[row[j] for j in range(gm.n) if j not in pivots] for row in red]
    if not all(v for row in a for v in row):
        return []
    out = []
    for s in range(2, min(gm.k, gm.n - gm.k) + 1):
        for rows in combinations(range(gm.k), s):
            for cols in combinations(range(gm.n - gm.k), s):
                out.append([[a[i][j] for j in cols] for i in rows])
                if mat_rank(f, out[-1]) < s:
                    return out
    return out


def test_checks_match_combination_loops(monkeypatch):
    # same verdicts as the column-set scans; is_mds_code ranks no submatrix (it expands
    # the minors of the systematic form's A), is_mr_lrc ranks the same column
    # submatrices in the same order
    lib, ref = [], []
    monkeypatch.setattr(codes, "mat_rank", _recording(lib))
    rng = random.Random(13)
    mds, mr = set(), set()
    for text in _FIELDS:
        spec = parse_field(text)
        for _ in range(25):
            gm = _random_matrix(rng, spec, rng.randint(1, 7))
            lib.clear()
            verdict = is_mds_code(gm)
            assert verdict == _mds_by_combinations(gm, mat_rank)
            assert lib == []
            if verdict:
                # C(n, k) k-sets: the identity's, k(n-k) entries of A, and the rest
                assert len(_ranked_minors(gm)) == comb(gm.n, gm.k) - 1 - gm.k * (gm.n - gm.k)
            mds.add(verdict)
    for params, text in (("8,4,3", "13"), ("8,4,3:0,2,5,7;1,3,4,6", "2^4"), ("9,4,2", "3^2")):
        p, spec = parse_params(params), parse_field(text)
        for t in range(30):
            trial = random.Random(f"c:{t}")
            heavy = [[trial.randrange(spec.q) for _ in range(p.n)] for _ in range(p.h)]
            gm = _parity_kernel(p, spec, heavy)
            if gm is None or t % 5 == 0:  # a random matrix has no local parities
                gm = matrix_from_rows(spec, [[trial.randrange(spec.q) for _ in range(p.n)] for _ in range(p.k)])
            lib.clear()
            ref.clear()
            verdict = is_mr_lrc(gm, p)
            assert verdict == _mr_by_combinations(gm, p, _recording(ref))
            assert lib == ref
            mr.add(verdict)
    assert mds == mr == {True, False}


def test_matrix_io_roundtrip():
    for gm in (_rs_matrix(FieldSpec(7), 6, 3), search_mr_code(make_params(8, 4, 3), FieldSpec(2, 4), trials=2000, seed=1)):
        if gm is None:
            continue
        text = write_matrix(gm)
        back = read_matrix(text)
        assert back == gm


def test_matrix_io_roundtrip_of_every_minor_shape():
    # minors with no rows or no columns included: an n = 0 matrix's rows are blank lines
    rng = random.Random(19)
    for text in ("13", "2^8:285"):
        spec = parse_field(text)
        for n in range(1, 9):
            gm = _random_matrix(rng, spec, n)
            full = (1 << n) - 1
            f = rng.getrandbits(n)
            pairs = [(full, 0), (0, full), (f, full & ~f), (f, 0), (0, f), (f, rng.getrandbits(n) & ~f)]
            for f, x in pairs:
                sub = shorten_then_puncture(gm, f, x)
                assert read_matrix(write_matrix(sub)) == sub, (text, n, f, x)


def test_read_matrix_errors():
    with pytest.raises(ValueError):
        read_matrix("just one line")
    with pytest.raises(ValueError):
        read_matrix("field 7\n2 3\n1 2 3\n")  # row count mismatch
    with pytest.raises(ValueError):
        read_matrix("matrix 7\n1 1\n0\n")  # missing field keyword
    with pytest.raises(ValueError):
        read_matrix("field 7 modulus=3\n1 1\n0\n")  # prime field with modulus
    with pytest.raises(ValueError):
        read_matrix("field\n1 1\n0\n")  # field line without a field
    with pytest.raises(ValueError):
        read_matrix("field 2^2 degree=2\n1 1\n0\n")  # unknown field option


def test_read_matrix_extension_field():
    text = "field 2^2 modulus=7\n1 3\n1 2 3\n"
    gm = read_matrix(text)
    assert gm.field == FieldSpec(2, 2, 7)
    assert gm.rows == ((1, 2, 3),)
    text = "field 2^8 modulus=285\n1 3\n255 0 7\n"
    gm = read_matrix(text)
    assert gm.field == FieldSpec(2, 8, 285)
    assert write_matrix(gm) == text


def test_read_matrix_indented_comment():
    gm = read_matrix("field 13\n  # note\n1 3\n1 2 3\n")
    assert gm.field == FieldSpec(13)
    assert gm.rows == ((1, 2, 3),)


def test_shorten_pinned_extension_field():
    # the shortened matrix is fixed by the pivot order: first unused row, no swaps
    rows = [
        [0, 7, 0, 19, 200, 1, 0, 255],
        [6, 3, 0, 14, 33, 90, 2, 17],
        [5, 0, 11, 0, 128, 64, 32, 16],
        [9, 1, 4, 0, 77, 0, 150, 3],
    ]
    gm = matrix_from_rows(FieldSpec(2, 8, 285), rows)
    assert write_matrix(shorten_then_puncture(gm, mask_of([0, 2]), 0)) == (
        "field 2^8 modulus=285\n"
        "2 6\n"
        "7 19 200 1 0 255\n"
        "18 165 135 30 240 43\n"
    )


def test_mds_verdicts_match_primal_reference():
    # high-rate codes (full rank, 2k > n) get the primal verdict, and both verdicts occur there
    rng = random.Random(14)
    high_rate = set()
    count = 0
    for text in _FIELDS:
        spec = parse_field(text)
        for _ in range(300):
            gm = _random_matrix(rng, spec, rng.randint(1, 8))
            verdict = is_mds_code(gm)
            assert verdict == _mds_by_combinations(gm, mat_rank), (text, gm.rows)
            if 2 * gm.k > gm.n and mat_rank(Field(spec), gm.rows) == gm.k:
                high_rate.add(verdict)
            count += 1
    assert count >= 1000
    assert high_rate == {True, False}


@pytest.mark.parametrize("spec, n, k", [(FieldSpec(257), 12, 9), (FieldSpec(257), 16, 12), (FieldSpec(2, 8, 285), 16, 13)])
def test_high_rate_reed_solomon_is_mds(spec, n, k):
    gm = _rs_matrix(spec, n, k)
    assert is_mds_code(gm)
    # column 5 becomes 3 times column 2: those two columns are dependent
    f = Field(spec)
    rows = [list(row) for row in gm.rows]
    for row in rows:
        row[5] = f.mul(3, row[2])
    assert not is_mds_code(matrix_from_rows(spec, rows))


def test_full_rank_square_code_is_mds():
    for spec in (FieldSpec(13), FieldSpec(2, 8, 285)):
        assert is_mds_code(matrix_from_rows(spec, [[int(i == j) for j in range(5)] for i in range(5)]))
        assert is_mds_code(_rs_matrix(spec, 6, 6))
    # a square matrix with a repeated row is not
    assert not is_mds_code(matrix_from_rows(FieldSpec(13), [[1, 2, 3], [0, 1, 4], [1, 2, 3]]))


@pytest.mark.parametrize(
    "text, n, k",
    [("257", 12, 6), ("257", 12, 3), ("257", 12, 9), ("3^2", 8, 3), ("3^2", 8, 5), ("2^8:285", 12, 4), ("2^8:285", 12, 8)],
)
def test_mds_on_systematic_reed_solomon(monkeypatch, text, n, k):
    # G = [I | A] from a Reed-Solomon code, then one entry of A zeroed (a 1x1 minor),
    # then one 2x2 minor made singular (the first one the reference ranks); each
    # also with its columns reversed, which moves the pivots.  No submatrix is ranked
    spec = parse_field(text)
    f = Field(spec)
    red, pivots = rref(f, _rs_matrix(spec, n, k).rows)
    assert pivots == list(range(k))
    zero = [list(row) for row in red]
    zero[0][k] = 0
    singular = [list(row) for row in red]
    singular[1][k + 1] = f.mul(f.mul(red[0][k + 1], red[1][k]), f.inv(red[0][k]))
    lib = []
    monkeypatch.setattr(codes, "mat_rank", _recording(lib))
    for rows, verdict, ranked in ((red, True, comb(n, k) - 1 - k * (n - k)), (zero, False, 0), (singular, False, 1)):
        for gm in (matrix_from_rows(spec, rows), matrix_from_rows(spec, [row[::-1] for row in rows])):
            lib.clear()
            assert is_mds_code(gm) == _mds_by_combinations(gm, mat_rank) == verdict
            assert lib == []
        assert len(_ranked_minors(matrix_from_rows(spec, rows))) == ranked


def _minors_ranked(f, a, sizes):
    """Reference minors_nonzero, at the given sizes: every s x s submatrix of a has rank s."""
    return all(
        mat_rank(f, [[a[i][j] for j in cols] for i in rows]) == s
        for s in sizes
        for rows in combinations(range(len(a)), s)
        for cols in combinations(range(len(a[0])), s)
    )


def test_minors_nonzero_matches_ranks():
    # 1 x m, k x 1, square and wide or tall shapes; a quarter of the matrices get one
    # zero entry, so that both verdicts occur at every shape
    rng = random.Random(24)
    verdicts = {}
    for text in _FIELDS:
        f = Field(parse_field(text))
        for k, m in ((1, 1), (1, 6), (6, 1), (2, 2), (3, 3), (4, 4), (2, 5), (5, 3)):
            for _ in range(25):
                a = [[rng.randrange(1, f.q) for _ in range(m)] for _ in range(k)]
                if rng.random() < 0.25:
                    a[rng.randrange(k)][rng.randrange(m)] = 0
                verdict = minors_nonzero(f, a)
                assert verdict == _minors_ranked(f, a, range(1, min(k, m) + 1)), (text, a)
                verdicts.setdefault((k, m), set()).add(verdict)
    assert all(v == {True, False} for v in verdicts.values()), verdicts


def test_minors_nonzero_stops_at_the_first_zero_minor(monkeypatch):
    # s multiplications per s x s minor; when the first 2x2 minor (rows 0, 1 and
    # columns 0, 1) is singular, its 2 are all, and no 3x3 minor is evaluated
    spec = FieldSpec(257)
    f = Field(spec)
    red, pivots = rref(f, _rs_matrix(spec, 9, 4).rows)
    assert pivots == list(range(4))
    a = [row[4:] for row in red]
    singular = [list(row) for row in a]
    singular[1][1] = f.mul(f.mul(a[0][1], a[1][0]), f.inv(a[0][0]))
    calls = []
    mul = Field.mul
    monkeypatch.setattr(Field, "mul", lambda self, x, y: calls.append((x, y)) or mul(self, x, y))
    assert minors_nonzero(f, a)
    assert len(calls) == sum(s * comb(4, s) * comb(5, s) for s in range(2, 5))
    calls.clear()
    assert not minors_nonzero(f, singular)
    assert len(calls) == 2
    # a tall matrix is expanded as its transpose: the 5x4 transpose of a costs the
    # products of a, and the singular minor at its rows 3, 4 and columns 0, 1 (rows 0, 1
    # and columns 3, 4 of a, the 10th 2x2 minor of a) costs 10 minors, not 55
    late = [list(row) for row in a]
    late[1][4] = f.mul(f.mul(a[0][4], a[1][3]), f.inv(a[0][3]))
    for wide, products in ((a, sum(s * comb(4, s) * comb(5, s) for s in range(2, 5))), (late, 20)):
        calls.clear()
        assert minors_nonzero(f, wide) == (wide is a)
        assert len(calls) == products
        calls.clear()
        assert minors_nonzero(f, [list(col) for col in zip(*wide)]) == (wide is a)
        assert len(calls) == products


def test_mds_fails_on_a_3x3_minor_alone():
    # systematic Reed-Solomon [12,6] over GF(257) with A[5][5] solved so that the
    # last 3x3 minor of A (rows and columns 3-5) is singular, while every entry and
    # every 2x2 minor stays nonzero: only the 3x3 level can reject it
    spec = FieldSpec(257)
    f = Field(spec)
    red, pivots = rref(f, _rs_matrix(spec, 12, 6).rows)
    assert pivots == list(range(6))
    a = [row[6:] for row in red]

    def last_3x3(v):
        return [row[3:5] + [v if i == 5 else row[5]] for i, row in enumerate(a[3:], 3)]

    a[5][5] = next(v for v in range(1, 257) if mat_rank(f, last_3x3(v)) < 3)
    assert _minors_ranked(f, a, (1, 2))
    assert not minors_nonzero(f, a)
    gm = matrix_from_rows(spec, [row[:6] + arow for row, arow in zip(red, a)])
    assert not is_mds_code(gm)
    assert not _mds_by_combinations(gm, mat_rank)


@pytest.mark.parametrize("text, n, k", [("257", 16, 8), ("257", 20, 5), ("257", 20, 10), ("2^8:285", 16, 8)])
def test_larger_reed_solomon_is_mds(text, n, k):
    # C(n,k) - 1 - k(n-k) minors of A: 12,805 for [16,8], 15,428 for [20,5], 184,655 for
    # [20,10], which the refusal admits at 10 C(19,10) = 923,780 multiply-adds
    spec = parse_field(text)
    gm = _rs_matrix(spec, n, k)
    assert is_mds_code(gm)
    # column 5 becomes 3 times column 2 plus 5 times column 3: those three columns are dependent
    f = Field(spec)
    rows = [list(row) for row in gm.rows]
    for row in rows:
        row[5] = f.add(f.mul(3, row[2]), f.mul(5, row[3]))
    assert not is_mds_code(matrix_from_rows(spec, rows))


def test_mds_degenerate_shapes():
    for text in ("13", "3^2", "2^8:285"):
        spec = parse_field(text)
        rs = [list(row) for row in _rs_matrix(spec, 8, 3).rows]
        cases = [
            ([[int(i == j) for j in range(5)] for i in range(5)], True),  # k = n
            ([[1, 2], [3, 4], [5, 6]], False),  # k > n
            (rs[:2] + [rs[0]], False),  # rank-deficient
            ([row[:4] + [0] + row[5:] for row in rs], False),  # a zero column, 2k < n
            ([list(row[:4]) + [0] + list(row[5:]) for row in _rs_matrix(spec, 6, 4).rows], False),  # and 2k > n
            ([[]], False),  # n = 0
            ([[], []], False),
        ]
        for rows, verdict in cases:
            gm = matrix_from_rows(spec, rows)
            assert is_mds_code(gm) == _mds_by_combinations(gm, mat_rank) == verdict, (text, rows)
