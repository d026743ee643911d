"""Arithmetic over GF(p^m), p^m <= 2^16, with exact integer matrices.

Field elements are canonical integers: the polynomial coefficients over
GF(p) packed little-endian in base p (so for p = 2 an element is just the
bit pattern of its polynomial).  Extension moduli are encoded the same way
and must be monic and irreducible; irreducibility is verified by trial
division at construction, and a spec without a modulus takes the least one.

Arithmetic runs on log/antilog/Zech-logarithm tables, built once per field
on its first use (the table technique of Plank, Greenan and Miller, FAST
2013): a product, inverse or negation is a sum of logs, a sum is a Zech
lookup.  The digit-polynomial routines below only build the tables of
odd-characteristic extensions and test odd-p moduli for irreducibility;
for p = 2 both multiply and divide bit patterns by shift and XOR.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from itertools import combinations

from .errors import ParameterError

MAX_Q = 1 << 16


# pure, and FieldSpec's arguments stay below 2^17: each parse after the first is a lookup
@functools.cache
def is_prime(p: int) -> bool:
    if p < 2:
        return False
    d = 2
    while d * d <= p:
        if p % d == 0:
            return False
        d += 1
    return True


def _digits(x: int, p: int) -> list[int]:
    out = []
    while x:
        out.append(x % p)
        x //= p
    return out


def _undigits(ds, p: int) -> int:
    x = 0
    for d in reversed(list(ds)):
        x = x * p + d
    return x


def _poly_mul(a: int, b: int, p: int) -> int:
    da, db = _digits(a, p), _digits(b, p)
    if not da or not db:
        return 0
    out = [0] * (len(da) + len(db) - 1)
    for i, ca in enumerate(da):
        if ca == 0:
            continue
        for j, cb in enumerate(db):
            out[i + j] = (out[i + j] + ca * cb) % p
    return _undigits(out, p)


def _poly_mod(a: int, mod: int, p: int) -> int:
    if p == 2:
        # bit patterns: subtracting a shifted modulus is an XOR
        dgm = mod.bit_length() - 1
        while a.bit_length() > dgm:
            a ^= mod << (a.bit_length() - 1 - dgm)
        return a
    da = _digits(a, p)
    dm = _digits(mod, p)
    dgm = len(dm) - 1
    # mod is monic, so no leading-coefficient inversion is needed
    while len(da) - 1 >= dgm and any(da):
        shift = len(da) - 1 - dgm
        lead = da[-1]
        for i, c in enumerate(dm):
            da[shift + i] = (da[shift + i] - lead * c) % p
        while da and da[-1] == 0:
            da.pop()
    return _undigits(da, p)


@functools.cache
def _is_irreducible(mod: int, p: int, m: int) -> bool:
    # trial division by every monic polynomial of degree 1..m//2
    for d in range(1, m // 2 + 1):
        lead = p**d
        for tail in range(p**d):
            if _poly_mod(mod, lead + tail, p) == 0:
                return False
    return True


@dataclass(frozen=True)
class FieldSpec:
    """GF(p^m), p^m <= 2^16.  An extension's modulus, if given, must be monic
    of degree m and irreducible; without one it is the least such polynomial
    in the base-p encoding (x^4 + x + 1 = 19 for 2^4, 37 for 2^5, 283 for 2^8).
    """

    p: int
    m: int = 1
    modulus: int | None = None

    def __post_init__(self):
        if self.m < 1:
            raise ParameterError(f"extension degree must be positive, got {self.m}")
        # p <= 2^16 and m <= 16 follow from p^m <= 2^16; checked first, they keep
        # p**m and the primality test small
        if self.p > MAX_Q or self.m > 16 or self.p**self.m > MAX_Q:
            raise ParameterError(f"field size {self.p}^{self.m} exceeds 2^16")
        if not is_prime(self.p):
            raise ParameterError(f"characteristic must be prime, got {self.p}")
        if self.m == 1:
            if self.modulus is not None:
                raise ParameterError("prime fields take no modulus")
            return
        if self.modulus is None:
            # every degree has an irreducible (Lidl and Niederreiter, ch. 3),
            # so the search ends below 2 p^m
            mod = next(c for c in range(self.q, 2 * self.q) if _is_irreducible(c, self.p, self.m))
            object.__setattr__(self, "modulus", mod)
            return
        mod = self.modulus
        # monic of degree m: leading digit 1 at p^m, lower digits below p^m
        if not self.q <= mod < 2 * self.q:
            raise ParameterError(f"modulus {mod} is not monic of degree {self.m} over GF({self.p})")
        if not _is_irreducible(mod, self.p, self.m):
            raise ParameterError(f"modulus {mod} is reducible over GF({self.p})")

    @property
    def q(self) -> int:
        return self.p**self.m

    def to_text(self) -> str:
        if self.m == 1:
            return f"field {self.p}"
        return f"field {self.p}^{self.m} modulus={self.modulus}"


def parse_field(text: str) -> FieldSpec:
    """Parse "13", "2^4" (the least irreducible modulus of degree 4) or "2^4:19"."""
    text = text.strip()
    modulus = None
    if ":" in text:
        text, mtxt = text.split(":", 1)
        modulus = int(mtxt)
    if "^" in text:
        ptxt, mtxt = text.split("^", 1)
        return FieldSpec(int(ptxt), int(mtxt), modulus)
    return FieldSpec(int(text), 1, modulus)


def _construction_mul(spec: FieldSpec, a: int, b: int) -> int:
    """a * b for building the tables only: % p, shift/xor for p = 2, digit polynomials otherwise."""
    p, m = spec.p, spec.m
    if m == 1:
        return a * b % p
    if p == 2:
        out = 0
        while b:
            if b & 1:
                out ^= a
            b >>= 1
            a <<= 1
            if a >> m:
                a ^= spec.modulus
        return out
    return _poly_mod(_poly_mul(a, b, p), spec.modulus, p)


@functools.cache
def _tables(spec: FieldSpec) -> tuple[list, list, list]:
    """(exp, log, zech) of GF(q) for the first primitive element g.

    exp[i] = g^(i mod (q-1)) for 0 <= i < 2(q-1), doubled so that a sum of
    two logs needs no reduction; log[g^i] = i and log[0] = None;
    zech[n] = log(1 + g^n), None where 1 + g^n = 0.  The modulus need not
    be primitive, so g is searched for.  Built once per spec, on the first
    Field(spec), without going through Field.
    """
    p, q = spec.p, spec.q
    for g in range(1, q):
        powers, x = [1], g
        while x != 1:
            powers.append(x)
            x = _construction_mul(spec, x, g)
        if len(powers) == q - 1:
            break
    log = [None] * q
    for i, x in enumerate(powers):
        log[x] = i
    # 1 + x adds 1 to the constant digit x % p
    zech = [log[x - x % p + (x + 1) % p] for x in powers]
    return powers + powers, log, zech


class Field:
    """add, neg, mul and inv on canonical integer elements of GF(p^m), by table lookup."""

    def __init__(self, spec: FieldSpec):
        self.spec = spec
        self.q = spec.q
        self._exp, self._log, self._zech = _tables(spec)
        self._log_minus_one = self._log[spec.p - 1]  # the integer p - 1 encodes -1

    def _check(self, x: int) -> None:
        if not 0 <= x < self.q:
            raise ValueError(f"element {x} outside GF({self.q})")

    def add(self, a: int, b: int) -> int:
        self._check(a)
        self._check(b)
        if not a:
            return b
        if not b:
            return a
        # g^la + g^lb = g^la (1 + g^(lb - la)); a negative index wraps mod q - 1
        la = self._log[a]
        z = self._zech[self._log[b] - la]
        return 0 if z is None else self._exp[la + z]

    def neg(self, a: int) -> int:
        self._check(a)
        return self._exp[self._log[a] + self._log_minus_one] if a else 0

    def mul(self, a: int, b: int) -> int:
        self._check(a)
        self._check(b)
        return self._exp[self._log[a] + self._log[b]] if a and b else 0

    def inv(self, a: int) -> int:
        self._check(a)
        if a == 0:
            raise ZeroDivisionError("inverse of 0 in a finite field")
        return self._exp[self.q - 1 - self._log[a]]


def _eliminate(field: Field, rows, cols):
    """Gauss-Jordan elimination over `cols` in order, without row swaps.

    Each column's pivot is the first row without a pivot that is nonzero
    there.  Stops once every row has a pivot.  Returns the reduced rows and
    the [(pivot row, column), ...] list in column order.
    """
    rows = [list(r) for r in rows]
    used = [False] * len(rows)
    pivots = []
    for col in cols:
        if len(pivots) == len(rows):
            break
        piv = None
        for i, row in enumerate(rows):
            if not used[i] and row[col] != 0:
                piv = i
                break
        if piv is None:
            continue
        used[piv] = True
        inv = field.inv(rows[piv][col])
        prow = rows[piv] = [field.mul(inv, v) for v in rows[piv]]
        for i, row in enumerate(rows):
            if i != piv and row[col] != 0:
                # v - f w = v + (-f) w: one negation per row, not per entry
                nf = field.neg(row[col])
                rows[i] = [field.add(v, field.mul(nf, w)) for v, w in zip(row, prow)]
        pivots.append((piv, col))
    return rows, pivots


def mat_rank(field: Field, rows) -> int:
    """Rank by Gaussian elimination over the field."""
    rows = list(rows)
    return len(_eliminate(field, rows, range(len(rows[0]) if rows else 0))[1])


def minors_nonzero(field: Field, a) -> bool:
    """True iff every square submatrix of `a` is nonsingular.

    The entries are tested first, then the s x s minors for s = 2, 3, ...
    by cofactor expansion along the last column: with C = P + (x,),
    det a[R, C] is the sum over t of +-a[r_t][x] det a[R - r_t, P], each
    (s-1)-minor read from the previous level, s multiplications per minor.
    Row sets R and column sets C run in `combinations` order (the C that
    extend one P are consecutive there), and the first zero minor answers
    False.  Only the previous level is kept, for each R a list of its
    minors in the order of P; the last level is not stored.  A level's
    values are its determinants times one common sign, which no zero test
    sees.  A tall `a` is expanded as its transpose (det a^T = det a), so
    that the row sets, each with its own set-up, are the fewer.
    """
    if not all(map(all, a)):
        return False
    if a and len(a) > len(a[0]):
        a = list(zip(*a))
    k, m = len(a), len(a[0]) if a else 0
    add, mul = field.add, field.mul
    # the odd terms of an expansion take their entry negated
    signed = [(row, [field.neg(v) for v in row]) for row in a]
    level = {(r,): row for r, row in enumerate(a)}
    top = min(k, m)
    for s in range(2, top + 1):
        below, level = level, {}
        # (rank of P, first x past P) for each P that some x extends
        spans = [(j, p[-1] + 1) for j, p in enumerate(combinations(range(m), s - 1)) if p[-1] + 1 < m]
        for rows in combinations(range(k), s):
            terms = [(below[rows[:t] + rows[t + 1 :]], signed[r][t & 1]) for t, r in enumerate(rows)]
            (sub0, ent0), *rest = terms
            out = []
            for j, lo in spans:
                m0 = sub0[j]
                for x in range(lo, m):
                    det = mul(m0, ent0[x])
                    for sub, ent in rest:
                        det = add(det, mul(sub[j], ent[x]))
                    if not det:
                        return False
                    if s < top:
                        out.append(det)
            level[rows] = out
    return True


def rref(field: Field, rows):
    """Reduced row-echelon form; returns (nonzero rows, pivot column list)."""
    rows = list(rows)
    red, pivots = _eliminate(field, rows, range(len(rows[0]) if rows else 0))
    return [red[i] for i, _ in pivots], [col for _, col in pivots]


def nullspace(field: Field, rows):
    """Basis of the right kernel as a list of length-n vectors."""
    if not rows:
        return []
    ncols = len(rows[0])
    red, pivots = rref(field, rows)
    free = [c for c in range(ncols) if c not in pivots]
    basis = []
    for f in free:
        v = [0] * ncols
        v[f] = 1
        for prow, pcol in enumerate(pivots):
            v[pcol] = field.neg(red[prow][f])
        basis.append(v)
    return basis
