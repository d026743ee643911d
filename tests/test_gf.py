import random

import pytest

from mrlrc.errors import ParameterError
from mrlrc.gf import (
    MAX_Q,
    Field,
    FieldSpec,
    _is_irreducible,
    _poly_mod,
    is_prime,
    mat_rank,
    nullspace,
    parse_field,
    rref,
)


def test_is_prime():
    primes = {2, 3, 5, 7, 11, 13, 65521}
    for p in primes:
        assert is_prime(p)
    for c in (0, 1, 4, 9, 15, 65535):
        assert not is_prime(c)


def test_field_spec_validation():
    with pytest.raises(ParameterError):
        FieldSpec(4)  # not prime
    with pytest.raises(ParameterError):
        FieldSpec(2, 17)  # 2^17 > 2^16
    with pytest.raises(ParameterError):
        FieldSpec(7, 0)
    with pytest.raises(ParameterError):
        FieldSpec(13, 1, modulus=7)  # prime fields take no modulus
    with pytest.raises(ParameterError):
        FieldSpec(2, 2, modulus=0b110)  # x^2 + x is reducible
    with pytest.raises(ParameterError):
        FieldSpec(2, 3, modulus=0b111)  # degree 2, not 3
    with pytest.raises(ParameterError):
        FieldSpec(3, 2, modulus=2 * 9 + 1)  # 2x^2 + 1 is not monic


def test_builtin_moduli_fill_in():
    spec = FieldSpec(2, 4)
    assert spec.modulus == 0b10011
    assert spec.q == 16
    # any degree has a default modulus: x^5 + x^2 + 1
    assert FieldSpec(2, 5).modulus == 37


def test_parse_field():
    assert parse_field("13") == FieldSpec(13)
    assert parse_field("2^4") == FieldSpec(2, 4)
    assert parse_field("2^4:19") == FieldSpec(2, 4, 19)
    with pytest.raises(ValueError):
        parse_field("13:7")
    with pytest.raises(ValueError):
        parse_field("abc")


def test_field_spec_checks_run_once(monkeypatch):
    # the irreducibility test is cached: a second parse divides no polynomial
    calls = []

    def spy(a, mod, p):
        calls.append((a, mod, p))
        return _poly_mod(a, mod, p)

    _is_irreducible.cache_clear()
    monkeypatch.setattr("mrlrc.gf._poly_mod", spy)
    assert parse_field("2^8:285") == FieldSpec(2, 8, 285)
    assert calls
    calls.clear()
    assert parse_field("2^8:285") == FieldSpec(2, 8, 285)
    assert calls == []
    # a cached verdict still raises on every call: x^4 + x = x (x^3 + 1) is reducible
    for _ in range(2):
        with pytest.raises(ParameterError, match="reducible"):
            parse_field("2^4:18")


def test_field_to_text_roundtrip():
    assert FieldSpec(13).to_text() == "field 13"
    assert FieldSpec(2, 4).to_text() == "field 2^4 modulus=19"


def test_prime_field_arithmetic():
    f = Field(FieldSpec(7))
    assert f.add(5, 4) == 2
    assert f.add(2, f.neg(5)) == 4
    assert f.mul(3, 5) == 1
    assert f.inv(3) == 5
    assert f.mul(1, f.inv(3)) == 5
    with pytest.raises(ZeroDivisionError):
        f.inv(0)
    with pytest.raises(ValueError):
        f.add(7, 0)


def _field_tables_ok(f: Field) -> None:
    q = f.q
    for a in range(q):
        assert f.add(a, 0) == a
        assert f.mul(a, 1) == a
        assert f.add(a, f.neg(a)) == 0
        if a:
            assert f.mul(a, f.inv(a)) == 1
    # associativity and distributivity spot checks over the whole table
    for a in range(q):
        for b in range(q):
            assert f.add(a, b) == f.add(b, a)
            assert f.mul(a, b) == f.mul(b, a)
            for c in (1, q - 1):
                assert f.mul(a, f.add(b, c)) == f.add(f.mul(a, b), f.mul(a, c))


def test_gf4_full_tables():
    _field_tables_ok(Field(FieldSpec(2, 2)))


def test_gf9_full_tables():
    _field_tables_ok(Field(FieldSpec(3, 2)))


def test_gf16_characteristic_two():
    f = Field(FieldSpec(2, 4))
    for a in range(16):
        assert f.add(a, a) == 0  # characteristic 2
    # multiplicative group has order 15
    a = 2  # the polynomial x
    acc, order = 1, 0
    while True:
        acc = f.mul(acc, a)
        order += 1
        if acc == 1:
            break
    assert 15 % order == 0


def test_mat_rank():
    f = Field(FieldSpec(5))
    assert mat_rank(f, [[1, 2], [2, 4]]) == 1  # second row is a multiple
    assert mat_rank(f, [[1, 0, 1], [0, 1, 1], [1, 1, 2]]) == 2
    assert mat_rank(f, [[0, 0], [0, 0]]) == 0
    assert mat_rank(f, []) == 0
    f2 = Field(FieldSpec(2, 2))
    assert mat_rank(f2, [[2, 3], [3, 2]]) == 2


def test_elimination_negates_each_row_factor_once(monkeypatch):
    # a seeded 6x6 matrix over GF(257) of rank 6 whose pivot columns meet no zero:
    # each of the 6 pivots eliminates the 5 other rows, one negation per row
    # (v - f w = v + (-f) w), not one per entry
    k = 6
    f = Field(FieldSpec(257))
    rng = random.Random(25)
    rows = [[rng.randrange(1, 257) for _ in range(k)] for _ in range(k)]
    calls = []
    neg = Field.neg
    monkeypatch.setattr(Field, "neg", lambda self, x: calls.append(x) or neg(self, x))
    assert mat_rank(f, rows) == k
    assert len(calls) == k * (k - 1)


def test_rref_pivots():
    f = Field(FieldSpec(7))
    red, pivots = rref(f, [[2, 4, 6], [1, 2, 4]])
    assert pivots == [0, 2]
    assert red[0][0] == 1 and red[1][2] == 1


def test_nullspace_orthogonality():
    f = Field(FieldSpec(13))
    rows = [[1, 1, 1, 1, 0], [0, 1, 2, 3, 4]]
    basis = nullspace(f, rows)
    assert len(basis) == 5 - 2
    for v in basis:
        for row in rows:
            acc = 0
            for a, b in zip(row, v):
                acc = f.add(acc, f.mul(a, b))
            assert acc == 0


def test_nullspace_of_no_rows_is_empty():
    assert nullspace(Field(FieldSpec(13)), []) == []


def test_nullspace_extension_field():
    f = Field(FieldSpec(2, 2))
    rows = [[1, 2, 3]]
    basis = nullspace(f, rows)
    assert len(basis) == 2
    for v in basis:
        acc = 0
        for a, b in zip(rows[0], v):
            acc = f.add(acc, f.mul(a, b))
        assert acc == 0


# Reference arithmetic: the digit-polynomial routines Field used before its
# log/antilog/Zech tables, kept here so the tables are checked against an
# independent path.


def _ref_digits(x: int, p: int) -> list[int]:
    out = []
    while x:
        out.append(x % p)
        x //= p
    return out


def _ref_undigits(ds, p: int) -> int:
    x = 0
    for d in reversed(list(ds)):
        x = x * p + d
    return x


def _ref_add(s: FieldSpec, a: int, b: int) -> int:
    da, db = _ref_digits(a, s.p), _ref_digits(b, s.p)
    length = max(len(da), len(db))
    da += [0] * (length - len(da))
    db += [0] * (length - len(db))
    return _ref_undigits(((x + y) % s.p for x, y in zip(da, db)), s.p)


def _ref_neg(s: FieldSpec, a: int) -> int:
    return _ref_undigits(((-c) % s.p for c in _ref_digits(a, s.p)), s.p)


def _ref_mul(s: FieldSpec, a: int, b: int) -> int:
    p = s.p
    if s.m == 1:
        return a * b % p
    da, db = _ref_digits(a, p), _ref_digits(b, p)
    if not da or not db:
        return 0
    prod = [0] * (len(da) + len(db) - 1)
    for i, ca in enumerate(da):
        for j, cb in enumerate(db):
            prod[i + j] = (prod[i + j] + ca * cb) % p
    return _ref_poly_mod(_ref_undigits(prod, p), s.modulus, p)


def _ref_poly_mod(a: int, mod: int, p: int) -> int:
    """a mod a monic polynomial, on digit lists."""
    da, dm = _ref_digits(a, p), _ref_digits(mod, p)
    while len(da) >= len(dm):
        shift, lead = len(da) - len(dm), da[-1]
        for i, c in enumerate(dm):
            da[shift + i] = (da[shift + i] - lead * c) % p
        while da and da[-1] == 0:
            da.pop()
    return _ref_undigits(da, p)


def _ref_inv(s: FieldSpec, a: int) -> int:
    # a^(q-2) by square and multiply
    result, base, e = 1, a, s.q - 2
    while e:
        if e & 1:
            result = _ref_mul(s, result, base)
        base = _ref_mul(s, base, base)
        e >>= 1
    return result


def _assert_matches_reference(s: FieldSpec, f: Field, pairs) -> None:
    for a, b in pairs:
        assert f.add(a, b) == _ref_add(s, a, b), (s, a, b)
        assert f.mul(a, b) == _ref_mul(s, a, b), (s, a, b)


@pytest.mark.parametrize(
    "spec",
    [
        FieldSpec(2),
        FieldSpec(3),
        FieldSpec(2, 2),
        FieldSpec(2, 3),
        FieldSpec(3, 2),
        FieldSpec(2, 4),
        FieldSpec(2, 8, 285),
        FieldSpec(2, 8, 283),  # x has order 51: the modulus is not primitive
        FieldSpec(13),
        FieldSpec(257),
    ],
    ids=str,
)
def test_tables_match_reference_on_every_pair(spec):
    f = Field(spec)
    q = spec.q
    _assert_matches_reference(spec, f, ((a, b) for a in range(q) for b in range(q)))
    for a in range(q):
        assert f.neg(a) == _ref_neg(spec, a), a
        if a:
            assert f.inv(a) == _ref_inv(spec, a), a


@pytest.mark.parametrize(
    "spec", [FieldSpec(2, 16, 65581), FieldSpec(65521), FieldSpec(3, 5, 250)], ids=str
)
def test_tables_match_reference_on_random_pairs(spec):
    f = Field(spec)
    rng = random.Random(f"tables:{spec}")
    pairs = [(rng.randrange(spec.q), rng.randrange(spec.q)) for _ in range(20_000)]
    _assert_matches_reference(spec, f, pairs)
    for a, b in pairs:
        assert f.neg(a) == _ref_neg(spec, a), a
        # inverses are unique, so this equals _ref_inv without its q - 2 power
        if b:
            assert _ref_mul(spec, f.inv(b), b) == 1, b
            assert _ref_mul(spec, f.mul(a, f.inv(b)), b) == a, (a, b)


def _ref_poly_mul(a: int, b: int, p: int) -> int:
    da, db = _ref_digits(a, p), _ref_digits(b, p)
    prod = [0] * (len(da) + len(db) - 1)
    for i, ca in enumerate(da):
        for j, cb in enumerate(db):
            prod[i + j] = (prod[i + j] + ca * cb) % p
    return _ref_undigits(prod, p)


@pytest.mark.parametrize("p, max_deg", [(2, 6), (3, 4), (5, 3)])
def test_irreducibility_matches_reference(p, max_deg):
    # a monic polynomial is reducible iff it is a product of two monic
    # polynomials of lower degree; monic of degree d = p^d + tail, tail < p^d
    def monic(d):
        return range(p**d, 2 * p**d)

    for m in range(2, max_deg + 1):
        reducible = {
            _ref_poly_mul(a, b, p)
            for d in range(1, m // 2 + 1)
            for a in monic(d)
            for b in monic(m - d)
        }
        for mod in monic(m):
            try:
                FieldSpec(p, m, mod)
                accepted = True
            except ParameterError:
                accepted = False
            assert accepted == (mod not in reducible), (p, m, mod)


def _ref_has_factor(mod: int, p: int, m: int) -> bool:
    """Trial division of a monic degree-m polynomial by every monic one of degree 1..m//2."""
    return any(
        _ref_poly_mod(mod, p**d + tail, p) == 0 for d in range(1, m // 2 + 1) for tail in range(p**d)
    )


def test_default_modulus_is_the_least_irreducible():
    # the former hand-written table: x^2+x+1, x^3+x+1, x^4+x+1 over GF(2) and x^2+1 over GF(3)
    assert [FieldSpec(p, m).modulus for p, m in [(2, 2), (2, 3), (2, 4), (3, 2)]] == [7, 11, 19, 10]
    assert FieldSpec(2, 8).modulus == 283
    fields = [(p, m) for p in range(2, 257) if is_prime(p) for m in range(2, 17) if p**m <= MAX_Q]
    assert len(fields) == 93
    for p, m in fields:
        mod = FieldSpec(p, m).modulus
        assert not _ref_has_factor(mod, p, m), (p, m, mod)
        assert all(_ref_has_factor(c, p, m) for c in range(p**m, mod)), (p, m, mod)


def test_binary_poly_mod_matches_digit_routine():
    # every monic divisor of degree 1..5 is 2^d + tail, tail < 2^d
    for mod in range(2, 64):
        for a in range(1 << 10):
            assert _poly_mod(a, mod, 2) == _ref_poly_mod(a, mod, 2), (a, mod)


def _gauss_count(p: int, d: int) -> int:
    """Monic irreducibles of degree d over GF(p): (1/d) sum over e | d of mu(e) p^(d/e)."""

    def mobius(e):
        out, f = 1, 2
        while e > 1:
            if e % f == 0:
                e //= f
                if e % f == 0:
                    return 0
                out = -out
            f += 1
        return out

    return sum(mobius(e) * p ** (d // e) for e in range(1, d + 1) if d % e == 0) // d


@pytest.mark.parametrize(
    "p, counts", [(2, [2, 1, 2, 3, 6, 9, 18, 30, 56, 99]), (3, [3, 3, 8, 18, 48])]
)
def test_irreducible_counts_follow_gauss(p, counts):
    for d, expected in enumerate(counts, start=1):
        found = sum(_is_irreducible(mod, p, d) for mod in range(p**d, 2 * p**d))
        assert found == expected == _gauss_count(p, d), (p, d)
