import hashlib
import random

import pytest

from mrlrc import minors
from mrlrc.errors import ParameterError, SizeRefusal
from mrlrc.matroid import Matroid, is_uniform, minor
from mrlrc.minors import (
    MinorWitness,
    oracle_max_uniform,
    oracle_max_uniform_all,
    verify_witness,
    witness_eq1,
    witness_eq2,
    witness_eq3,
    witness_eq4,
    _max_circuit_free,
    _small_circuits,
    _spread,
)
from mrlrc.mr import make_mr, valid_param_triples
from mrlrc.bounds import (
    eq1_size,
    eq2_size,
    eq3_range,
    eq3_size,
    eq4_range,
    eq4_size,
    largest_uniform_size,
)
from mrlrc.subsets import mask_of, submasks


def test_witness_line_roundtrip():
    w = MinorWitness(0b1001, 0b0110, 3, 9, verified=True, boundary_case=False)
    line = w.to_line()
    assert "k'=3" in line and "n'=9" in line
    back = MinorWitness.from_line(line)
    assert back.contract_flat == 0b1001
    assert back.delete_set == 0b0110
    assert back.target_rank == 3
    assert back.claimed_size == 9
    assert back.verified
    with pytest.raises(ValueError):
        MinorWitness.from_line("nonsense")


def test_eq1_witness_small():
    m = make_mr(8, 4, 3)
    w = witness_eq1(m)
    assert w.verified
    assert w.contract_flat == 0
    assert w.delete_set.bit_count() == m.params.g
    assert w.claimed_size == eq1_size(m.params) == 6
    assert w.target_rank == 4


def test_eq2_witness_divisible():
    # r | k: pure whole-block contraction, empty delete set
    m = make_mr(12, 6, 3)
    w = witness_eq2(m)
    assert w.verified
    assert w.delete_set == 0
    assert w.target_rank == 3
    assert w.claimed_size == eq2_size(m.params)


def test_eq2_witness_non_divisible():
    m = make_mr(8, 4, 3)
    w = witness_eq2(m)
    assert w.verified
    assert w.target_rank == 3
    assert w.claimed_size == eq2_size(m.params) == 6
    # partial block: one element contracted, its neighbour deleted
    assert w.contract_flat == 0b0001
    assert w.delete_set == 0b0010


def test_eq3_witness_boundary_case_flagged():
    # h = 2, k' = 2: the strict-inequality formula undercounts here
    m = make_mr(8, 4, 3)
    w = witness_eq3(m, 2)
    assert w.verified
    assert w.boundary_case
    assert w.formula_size == eq3_size(m.params, 2) == 5
    assert w.claimed_size == 6
    assert w.claimed_size >= w.formula_size


def test_eq3_witness_exact_case():
    # h = 5, k' = 2: formula and construction agree
    m = make_mr(12, 4, 3)
    w = witness_eq3(m, 2)
    assert w.verified
    assert not w.boundary_case
    assert w.claimed_size == eq3_size(m.params, 2)


def test_eq3_rejects_bad_rank():
    m = make_mr(8, 4, 3)
    with pytest.raises(ParameterError):
        witness_eq3(m, 1)
    with pytest.raises(ParameterError):
        witness_eq3(m, 3)  # k' must stay below r


def test_eq3_gap_witnesses_take_only_f_from_the_oracle(monkeypatch):
    # where the minimal j overshoots, F is the oracle's best flat and the builder
    # does the rest: the oracle's X and n', which meet the closed form, so no flag
    oracle_bests = []

    def spy(m, k_prime):
        size, best = oracle_max_uniform(m, k_prime)
        oracle_bests.append(best)
        return size, best

    monkeypatch.setattr(minors, "oracle_max_uniform", spy)
    cases = 0
    for n, k, r in valid_param_triples(15):
        perm = list(range(n))
        random.Random(f"{n},{k},{r}").shuffle(perm)
        seeded = [mask_of(perm[i : i + r + 1]) for i in range(0, n, r + 1)]
        for m in (make_mr(n, k, r), make_mr(n, k, r, seeded)):
            p = m.params
            for kp in eq3_range(p):
                if _spread(p, k - kp, r - kp) is not None:
                    continue
                w = witness_eq3(m, kp)
                best = oracle_bests.pop()
                assert w.contract_flat == best.contract_flat, (n, k, r, kp)
                assert (w.delete_set, w.claimed_size) == (best.delete_set, best.claimed_size)
                assert not w.boundary_case, (n, k, r, kp)
                assert w.formula_size == eq3_size(p, kp) == w.claimed_size
                cases += 1
    assert cases == 16 and not oracle_bests


def test_eq4_witness():
    m = make_mr(12, 7, 3)
    for kp in eq4_range(m.params):
        w = witness_eq4(m, kp)
        assert w.verified
        assert w.target_rank == kp
        assert w.claimed_size == eq4_size(m.params, kp)
    # F holds blocks 0 and 1 whole and one element of each of blocks 2-4; X hits blocks 2-4 only
    w = witness_eq4(make_mr(15, 10, 2), 3)
    assert w.to_line() == "F=0,1,2,3,4,5,6,9,12; X=7,10,13; k'=3; n'=3; verified=true; boundary=false"


def test_eq4_rejects_bad_rank():
    m = make_mr(12, 7, 3)
    with pytest.raises(ParameterError):
        witness_eq4(m, 3)  # k' = r is the other family
    with pytest.raises(ParameterError):
        witness_eq4(m, 7)  # k' = k is the other family


def test_every_witness_verifies_to_n_64():
    # the closed-form certificate verifies every build up to the 64-element limit; the
    # eq3 gap cases above 15 elements are left out, as their F comes from the oracle,
    # which refuses there; up to n = 12 the generic is_uniform scan agrees
    count = 0
    for n, k, r in valid_param_triples(64):
        m = make_mr(n, k, r)
        p = m.params
        ws = [witness_eq1(m), witness_eq2(m)]
        for kp in eq3_range(p):
            if n > 15 and _spread(p, k - kp, r - kp) is None:
                continue
            w = witness_eq3(m, kp)
            assert w.claimed_size >= eq3_size(p, kp) and w.boundary_case == (w.claimed_size > eq3_size(p, kp))
            ws.append(w)
        ws += [witness_eq4(m, kp) for kp in eq4_range(p)]
        for w in ws:
            assert w.verified, (n, k, r, w.to_line())
            if n <= 12:
                got = Matroid.uniform_minor(m, w.contract_flat, w.delete_set)
                assert got == (w.claimed_size, w.target_rank), (n, k, r, w.to_line())
        count += len(ws)
    assert count == 76589


def test_witness_lines_pinned():
    # every constructed witness (F, X, k', n', flags, formula size) for n <= 22,
    # eq3 gap cases (F from the oracle) left out; the digest was recorded from the
    # per-family builds that the shared builder replaced
    digest = hashlib.sha256()
    count = 0
    for n, k, r in valid_param_triples(22):
        m = make_mr(n, k, r)
        p = m.params
        ws = [witness_eq1(m), witness_eq2(m)]
        ws += [witness_eq3(m, kp) for kp in eq3_range(p) if _spread(p, k - kp, r - kp) is not None]
        ws += [witness_eq4(m, kp) for kp in eq4_range(p)]
        for w in ws:
            digest.update(f"{n},{k},{r} {w.to_line()} {w.formula_size}\n".encode())
            count += 1
    assert count == 1608
    assert digest.hexdigest() == "70b7a46d89c33e9b668b770d7f8e10d7f23738bc9956b29e0f03db6ff21dcee5"


def test_eq4_spread_always_fits():
    # k - k' <= (g-1)r - 1, so a whole-set count fits and the minimal one never overshoots
    for n, k, r in valid_param_triples(64):
        m = make_mr(n, k, r)
        g = m.params.g
        for kp in eq4_range(m.params):
            f = _spread(m.params, k - kp, r - 1)
            assert f is not None, (n, k, r, kp)
            assert m.rank(f) == k - kp, (n, k, r, kp)
        # eq3 too: k <= g r, so some j <= g - 1 fits; only an overshoot (a gap case) gives None
        for kp in eq3_range(m.params):
            assert any(k - kp - j * r <= (g - j) * (r - kp) for j in range(g)), (n, k, r, kp)
            f = _spread(m.params, k - kp, r - kp)
            assert f is None or m.rank(f) == k - kp, (n, k, r, kp)


def test_verify_witness_rejects_tampering():
    m = make_mr(8, 4, 3)
    w = witness_eq1(m)
    assert verify_witness(m, w)
    # wrong size
    bad = MinorWitness(w.contract_flat, w.delete_set, w.target_rank, w.claimed_size + 1)
    assert not verify_witness(m, bad)
    # overlap between contract and delete
    bad = MinorWitness(0b0001, 0b0011, w.target_rank, 5)
    assert not verify_witness(m, bad)
    # contract set that is not a flat
    bad = MinorWitness(0b0111, 0, 1, 5)
    assert not verify_witness(m, bad)
    # outside the ground set
    bad = MinorWitness(0, 1 << 9, 4, 7)
    assert not verify_witness(m, bad)


def test_a_witness_that_fails_verification_is_an_error(monkeypatch):
    # builder and oracle alike: a circuit-free keep set of size >= k' is uniform,
    # so a failure is a bug, never a candidate to skip
    monkeypatch.setattr(minors, "verify_witness", lambda m, w: False)
    m = make_mr(8, 4, 3)
    with pytest.raises(RuntimeError, match="failed verification"):
        witness_eq1(m)
    with pytest.raises(RuntimeError, match="failed verification"):
        oracle_max_uniform(m, 2)


def test_oracle_matches_theorem_8_4_3():
    m = make_mr(8, 4, 3)
    table = oracle_max_uniform_all(m)
    assert table == {2: 6, 3: 6, 4: 6}
    assert max(table.values()) == largest_uniform_size(m.params) == 6


def test_oracle_matches_theorem_12_7_3():
    m = make_mr(12, 7, 3)
    table = oracle_max_uniform_all(m)
    assert max(table.values()) == largest_uniform_size(m.params) == 9


def test_oracle_lines_pinned():
    # every oracle answer (size and best witness) for n <= 10, k' in 2..k; the
    # digest was recorded from the oracle that rescanned the flats per k'
    lines = []
    for n, k, r in valid_param_triples(10):
        m = make_mr(n, k, r)
        for kp in range(2, k + 1):
            size, w = oracle_max_uniform(m, kp)
            lines.append(f"{n},{k},{r} {kp} {size} {w.to_line()}")
    assert len(lines) == 73
    digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    assert digest == "4c6bbebe49114b9d03a28b30190a9d57a60315c544fac179a9d14ca89b098b85"


def test_oracle_table_scans_the_flats_once(monkeypatch):
    scans = []
    flats = minors.flats
    monkeypatch.setattr(minors, "flats", lambda m: scans.append(m) or flats(m))
    assert oracle_max_uniform_all(make_mr(12, 7, 3)) == {2: 6, 3: 6, 4: 6, 5: 7, 6: 8, 7: 9}
    assert len(scans) == 1


def test_oracle_witnesses_verify():
    m = make_mr(9, 4, 2)
    for kp in range(2, 5):
        size, w = oracle_max_uniform(m, kp)
        assert w is not None
        assert verify_witness(m, w)
        assert m.ground.bit_count() - w.contract_flat.bit_count() - w.delete_set.bit_count() == size


def test_oracle_is_genuine_maximum():
    # every witnessed minor is uniform and no larger uniform minor exists
    m = make_mr(8, 4, 3)
    size, w = oracle_max_uniform(m, 3)
    view = minor(m, w.contract_flat, w.delete_set)
    assert is_uniform(view) == (size, 3)


def _unrestricted_max_uniform(m, k_prime):
    """Like the oracle but contracting arbitrary sets, not just flats."""
    k0 = m.full_rank()
    best = 0
    for c in submasks(m.ground):
        if m.rank(c) != k0 - k_prime:
            continue
        ground = m.ground & ~c
        if ground.bit_count() <= best or ground.bit_count() < k_prime:
            continue
        view = minor(m, c, 0)
        keep = _max_circuit_free(ground, _small_circuits(view, k_prime))
        size = keep.bit_count()
        if size >= k_prime:
            best = max(best, size)
    return best


def test_flat_restriction_loses_nothing():
    # contracting arbitrary sets instead of flats finds nothing bigger
    for n, k, r in valid_param_triples(8):
        m = make_mr(n, k, r)
        for kp in range(2, k + 1):
            restricted, _ = oracle_max_uniform(m, kp)
            assert restricted == _unrestricted_max_uniform(m, kp), (n, k, r, kp)


def test_oracle_on_a_wide_restriction():
    # 12 members at bits 20-31 of a 40-bit mask space: the flats come from
    # a scan over the 2^12 ground subsets
    m = make_mr(40, 20, 3)
    view = minor(m, 0, m.ground & ~(0xFFF << 20))
    size, w = oracle_max_uniform(view, 2)
    assert size == 3 and w.claimed_size == 3 and w.target_rank == 2
    assert verify_witness(view, w)


def test_oracle_refusals_and_validation():
    with pytest.raises(SizeRefusal):
        oracle_max_uniform(make_mr(16, 9, 3), 3)
    m = make_mr(8, 4, 3)
    with pytest.raises(ParameterError):
        oracle_max_uniform(m, 1)
    with pytest.raises(ParameterError):
        oracle_max_uniform(m, 5)


def test_constructed_sizes_never_beat_oracle():
    for n, k, r in valid_param_triples(10):
        m = make_mr(n, k, r)
        p = m.params
        checks = [(k, witness_eq1(m)), (r, witness_eq2(m))]
        checks += [(kp, witness_eq3(m, kp)) for kp in eq3_range(p)]
        checks += [(kp, witness_eq4(m, kp)) for kp in eq4_range(p)]
        for kp, w in checks:
            if kp < 2:  # rank-1 targets (r = 1) are below the oracle's range
                continue
            best, _ = oracle_max_uniform(m, kp)
            assert w.claimed_size <= best, (n, k, r, kp)


def _exact_dp(p, k_prime):
    """Largest rank-k' uniform minor of the MR matroid, by a DP over the blocks.

    The minor contracts a flat F of rank k - k' (Scum theorem).  Below rank k a
    flat meets each repair set in t = 0..r-1 members (rank t) or in all r + 1
    (rank r), and the least deletion then removes one member of each leftover
    b - F of size <= k'.  So each block costs t, plus 1 when its leftover r + 1 - t
    is at most k', and the DP finds the least total cost over profiles whose
    ranks sum to k - k'.  The minor has n minus that many elements.
    """
    profiles = [(t, t + (p.r + 1 - t <= k_prime)) for t in range(p.r)] + [(p.r, p.r + 1)]
    need = p.k - k_prime
    least = {0: 0}  # rank so far -> least cost
    for _ in range(p.g):
        nxt = {}
        for rank, cost in least.items():
            for dr, dc in profiles:
                if rank + dr <= need and cost + dc < nxt.get(rank + dr, p.n + 1):
                    nxt[rank + dr] = cost + dc
        least = nxt
    return p.n - least[need]


def _seeded(n, k, r):
    perm = list(range(n))
    random.Random(f"dp:{n},{k},{r}").shuffle(perm)
    return make_mr(n, k, r, [mask_of(perm[i : i + r + 1]) for i in range(0, n, r + 1)])


def test_oracle_matches_the_exact_dp():
    # the exhaustive oracle on the contiguous and on one seeded partition, every k'
    pairs = 0
    for n, k, r in valid_param_triples(10):
        for m in (make_mr(n, k, r), _seeded(n, k, r)):
            table = oracle_max_uniform_all(m)
            assert table == {kp: _exact_dp(m.params, kp) for kp in range(2, k + 1)}, (m.params, table)
            pairs += len(table)
    assert pairs == 146


def test_witnesses_have_the_exact_dp_size():
    # every constructed witness is a largest uniform minor of its rank, and it is
    # flagged a boundary case exactly where that largest size beats the closed form;
    # the eq3 gap cases, where F comes from the exhaustive oracle, stop at n = 12
    # (3 of the 8 that the oracle admits, up to n = 15), next to 1,608 others
    count = 0
    for n, k, r in valid_param_triples(22):
        m = make_mr(n, k, r)
        p = m.params
        ws = [witness_eq1(m), witness_eq2(m)]
        ws += [witness_eq3(m, kp) for kp in eq3_range(p) if n <= 12 or _spread(p, k - kp, r - kp) is not None]
        ws += [witness_eq4(m, kp) for kp in eq4_range(p)]
        for w in ws:
            best = _exact_dp(p, w.target_rank)
            assert w.verified and w.claimed_size == best, (n, k, r, w.to_line())
            assert w.boundary_case == (best > w.formula_size), (n, k, r, w.to_line())
            count += 1
    assert count == 1611
