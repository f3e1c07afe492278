"""The sparse echelon form, ``kernel_basis`` on it and the certified mod-p
kernel against the dense reference elimination, the reconstruction bound
the kernel lifts with, the prime walks, and root finding mod p against
brute force."""

import random
from itertools import islice
from math import gcd
from types import SimpleNamespace

import pytest
from hypothesis import given, settings, strategies as st
from sympy import GF

import dense_reference as ref
from trigonal import modular
from trigonal.linalg import kernel_basis
from trigonal.intutil import is_prime
from trigonal.modular import (PRIME_WALK_START, FpEchelon, certified_kernel,
                              clear_denominators, fp_divmod, fp_eval, fp_mul,
                              fp_powmod_linear, fp_reduce, fp_roots, fp_sqrt, primes_below,
                              rational_reconstruct, recon_bound)
from trigonal.errors import InternalInvariantError
from trigonal.scalars import QQ, PrimeField, QuadExt, QuadraticField, rat

WALK = list(islice(primes_below(PRIME_WALK_START), 4))
P0 = WALK[0]
FQ = PrimeField(101)
GF101 = GF(FQ.p)
QQ2 = QuadraticField(2)
SETTINGS = settings(max_examples=60)


def test_recon_bound_meets_wang_condition_on_the_walk():
    for p in WALK:
        b = recon_bound(p)
        assert 2 * b * b < p < 2 * (b + 1) ** 2
        for num, den in ((b, b - 1), (-b, 1), (1, b), (-(b - 1), b), (b, 1)):
            r = num * pow(den, -1, p) % p
            assert rational_reconstruct(r, p) == rat(num, den)


def test_recon_rejects_values_beyond_the_bound():
    p = WALK[0]
    b = recon_bound(p)
    # b + 1 over 1 has no representative with both parts within the bound
    assert rational_reconstruct(b + 1, p) is None


def modular_kernel(rows, ncols, fld, counters=None, answers=None):
    """certified_kernel of a plain matrix: rows reduced entry by entry,
    certified by M.v == 0 exactly; ``answers``, when given, receives each
    answer of the certificate."""
    def system(p):
        out = [[fp_reduce(c, p) for c in r] for r in rows]
        return None if any(None in r for r in out) else out

    def certify(vecs):
        ok = all(sum(c * x for c, x in zip(r, v)) == 0 for r in rows for v in vecs)
        if answers is not None:
            answers.append(ok)
        return ok

    return certified_kernel(ncols, system, certify, fld, counters=counters)


def assert_same_kernel(rows, ncols, fld, lift=rat):
    """The certified kernel against the dense reference over the field that
    ``lift`` maps into: over F_q sympy's ``GF(q)``."""
    ours = [[lift(x) for x in v] for v in modular_kernel(rows, ncols, fld)]
    rows = [[lift(c) for c in r] for r in rows]
    for v in ours:
        assert all(sum(c * x for c, x in zip(r, v)) == 0 for r in rows)
    assert len(ours) + ref.rank(rows) == ncols
    assert ref.same_span(ours, ref.kernel(rows, ncols))


def _matrices(entry):
    return st.integers(1, 6).flatmap(lambda ncols: st.lists(
        st.lists(entry, min_size=ncols, max_size=ncols), min_size=1, max_size=6))


RATIONALS = st.builds(rat, st.integers(-40, 40), st.integers(1, 6))


@SETTINGS
@given(_matrices(RATIONALS))
def test_certified_kernel_matches_fraction_kernel_over_q(rows):
    assert_same_kernel(rows, len(rows[0]), QQ)


@SETTINGS
@given(_matrices(st.integers(0, 100)))
def test_certified_kernel_matches_fraction_kernel_over_fq(rows):
    assert_same_kernel(rows, len(rows[0]), FQ, GF101)


@SETTINGS
@given(_matrices(st.integers(-9, 9)), st.data())
def test_certified_kernel_survives_a_rank_drop_mod_the_first_prime(rows, data):
    """Add a copy of one row with P0 added to one entry: over Q it may be
    independent of the rest, mod P0 it never is."""
    ncols = len(rows[0])
    i = data.draw(st.integers(0, len(rows) - 1))
    k = data.draw(st.integers(0, ncols - 1))
    copy = list(rows[i])
    copy[k] += P0
    assert_same_kernel(rows + [copy], ncols, QQ)


def test_rank_drop_skips_the_first_prime():
    rows = [[1, 2, 3], [1, 2 + P0, 3]]
    counters = {}
    kern = modular_kernel(rows, 3, QQ, counters)
    assert ref.same_span(kern, ref.kernel(rows, 3))
    assert counters["nullity"] == 1
    assert counters["primes"]["tried"][0] == P0
    assert P0 not in counters["primes"]["used"]


def test_large_kernel_entries_lift_by_crt():
    big = 3 ** 18       # beyond the bound of one 30-bit prime, within that of two
    rows = [[big, -1]]
    counters = {}
    assert modular_kernel(rows, 2, QQ, counters) == [[rat(1, big), 1]]
    assert counters["primes"]["used"] == WALK[:2]


def test_restart_keeps_a_kernel_that_changes_at_the_second_prime():
    """Mod P0 the rank is the same as over Q but the kernel is (0, 0, 1).
    Every prime has the same pivots, so P0 stays in the lift, and the CRT
    over three primes reaches (0, -P0, 1)."""
    rows = [[1, 0, 0], [0, 1, P0]]
    counters = {}
    assert modular_kernel(rows, 3, QQ, counters) == [[0, -P0, 1]]
    assert counters["nullity"] == 1
    assert counters["primes"]["used"] == WALK[:3]


def test_kernel_lifts_early_once_ncols_rows_add_no_rank():
    # the rank stops at 1 with the first row; the third row is the second
    # in a row that adds nothing, so the lift is tried and accepted there
    rows = [[1, 2]] + [[k, 2 * k] for k in range(2, 7)]
    counters, answers = {}, []
    kern = modular_kernel(rows, 2, QQ, counters, answers)
    assert kern == [[-2, 1]] and answers == [True]
    assert counters["eq_rows"] == 3 and counters["nullity"] == 1


def test_an_early_lift_that_fails_its_certificate_is_refused():
    """Three rows that add no rank come before the last row that does: the
    lift tried after them still has (0, 1, 0) in its kernel, the certificate
    refuses it, and elimination goes on to the end."""
    rows = [[1, 0, 0]] * 4 + [[0, 1, 0]]
    counters, answers = {}, []
    kern = modular_kernel(rows, 3, QQ, counters, answers)
    assert answers == [False, True]
    assert counters["eq_rows"] == len(rows)
    assert ref.same_span(kern, ref.kernel(rows, 3))


def test_kernel_over_fq_reduces_every_row():
    # over F_q the kernel mod q is the answer: no lift, so no early exit
    rows = [[k, 2 * k] for k in range(1, 7)]
    counters, answers = {}, []
    kern = modular_kernel(rows, 2, FQ, counters, answers)
    assert answers == [] and counters["eq_rows"] == len(rows)
    assert ref.same_span([[GF101(x) for x in v] for v in kern],
                         ref.kernel([[GF101(c) for c in r] for r in rows], 2))


def test_zero_residues_lift_without_a_reconstruction(monkeypatch):
    """The kernel (1/2, 0, 0, 1) mod P0 has two zero entries: only the two
    nonzero ones go through rational_reconstruct, and the zeros lift to 0."""
    seen = []
    real = modular.rational_reconstruct

    def spy(r, m):
        seen.append(r)
        return real(r, m)

    monkeypatch.setattr(modular, "rational_reconstruct", spy)
    rows = [[2, 0, 0, -1], [0, 1, 0, 0], [0, 0, 1, 0]]
    kern = modular_kernel(rows, 4, QQ)
    assert kern == [[rat(1, 2), 0, 0, 1]]
    assert all(type(x) is type(rat(0)) for x in kern[0])
    assert sorted(seen) == sorted([pow(2, -1, P0), 1]) and all(seen)

# --- the sparse echelon form against the dense Fraction elimination ---------

def _sparse_rows(entry):
    """(ncols, rows) with rows as {column: value} dicts of a few entries."""
    return st.integers(1, 8).flatmap(lambda ncols: st.tuples(
        st.just(ncols),
        st.lists(st.dictionaries(st.integers(0, ncols - 1), entry, max_size=3),
                 min_size=1, max_size=8)))


class _PivotOneEchelon:
    """Reference: the exact elimination with pivots 1, one row at a time, on
    the values ``lift`` gives (``rat``, ``QuadExt`` or a sympy ``GF(p)``
    element)."""

    def __init__(self, lift):
        self.lift = lift
        self.rows = {}

    def residue(self, row):
        row = {j: self.lift(x) for j, x in row.items() if self.lift(x)}
        while row and min(row) in self.rows:
            f = row[min(row)]
            for j, y in self.rows[min(row)].items():
                row[j] = row.get(j, 0) - f * y
            row = {j: x for j, x in row.items() if x}
        return row

    def add(self, row):
        row = self.residue(row)
        if row:
            lead = row[min(row)]
            self.rows[min(row)] = {j: x / lead for j, x in row.items()}


def _check_echelon(ncols, rows, p, lift, order):
    """FpEchelon mod p (exactly when p is 0) against the rank and the
    kernel of the dense reference over the field that ``lift`` maps into;
    each row's residue before it goes in has the values of the elimination
    with pivots 1; a second insertion order gives the same pivots, reduced
    rows and kernel.  ``reduced_kernel``, cut to all or half of the
    columns, is the reduced basis of the reference kernel so cut, and
    ``kernel_basis`` of the dense rows, mod p or exactly, is the reference
    kernel itself."""
    dense = [[lift(r.get(j, 0)) for j in range(ncols)] for r in rows]
    ech, pivot_one = FpEchelon(ncols, p), _PivotOneEchelon(lift)
    for r in rows:
        res = ech.residue(r)
        assert {j: lift(x) for j, x in res.items() if lift(x)} == pivot_one.residue(r)
        ech.add(r)
        pivot_one.add(r)
    assert ech.rank == ref.rank(dense)
    kern = [[lift(x) for x in v] for v in ech.kernel()]
    assert len(kern) == ncols - ech.rank
    for v in kern:
        assert all(sum(a * x for a, x in zip(r, v)) == 0 for r in dense)
    expected = ref.kernel(dense, ncols)
    assert ref.same_span(kern, expected)
    assert [[lift(x) for x in v] for v in kernel_basis(
        [[r.get(j, 0) for j in range(ncols)] for r in rows], p)] == expected
    for width in (ncols, ncols // 2):
        got = [[lift(r.get(j, 0)) for j in range(width)]
               for r in ech.reduced_kernel(width)]
        assert got == ref.rref([v[:width] for v in expected])[0]
    for c, r in zip(ech.pivots, ech.reduced()):
        assert min(r) == c and r[c] == 1
        assert not any(c2 in r for c2 in ech.pivots if c2 != c)
    again = FpEchelon(ncols, p)
    for r in order:
        again.add(r)
    assert again.pivots == ech.pivots
    assert again.reduced() == ech.reduced()
    assert again.kernel() == ech.kernel()
    for r in rows:
        assert again.contains(r)
    return ech


def _assert_integer_rows(ech):
    """Exactly over Q the stored rows are primitive integer rows with a
    positive pivot."""
    assert ech.integral is not False
    for c, row in ech.rows.items():
        assert all(type(x) is int for x in row.values())
        assert gcd(*row.values()) == 1 and row[c] > 0


@SETTINGS
@given(_sparse_rows(RATIONALS), st.data())
def test_sparse_echelon_matches_dense_elimination_exactly(m, data):
    ncols, rows = m
    ech = _check_echelon(ncols, rows, 0, rat, data.draw(st.permutations(rows)))
    _assert_integer_rows(ech)


# large coprime denominators (primes near 2^61 and 10^9), mixed with ints
LARGE_RATIONALS = st.one_of(
    st.integers(-9, 9),
    st.builds(rat, st.integers(-10 ** 20, 10 ** 20),
              st.sampled_from([P0, WALK[1], 10 ** 9 + 7, 10 ** 9 + 9, 3 ** 40])))


@SETTINGS
@given(_sparse_rows(LARGE_RATIONALS), st.data())
def test_sparse_echelon_with_large_denominators_and_ints(m, data):
    ncols, rows = m
    ech = _check_echelon(ncols, rows, 0, rat, data.draw(st.permutations(rows)))
    _assert_integer_rows(ech)


SQRT2 = st.builds(lambda a, b: QuadExt(a, b, 2), st.integers(-5, 5), st.integers(-3, 3))


@SETTINGS
@given(_sparse_rows(SQRT2), st.data())
def test_sparse_echelon_over_q_sqrt2_takes_the_field_path(m, data):
    ncols, rows = m
    ech = _check_echelon(ncols, rows, 0, lambda x: QQ2.coerce(x),
                         data.draw(st.permutations(rows)))
    assert ech.integral is not True
    for row in ech.rows.values():
        assert row[min(row)] == 1


class _Mpz(int):
    """Stands in for gmpy2's ``mpz``, the type of the parts of an ``mpq``:
    an integer that is not an ``int`` and keeps its type under * and //."""

    def __mul__(self, other):
        return _Mpz(int(self) * int(other))

    __rmul__ = __mul__

    def __floordiv__(self, other):
        return _Mpz(int(self) // int(other))

    def __rfloordiv__(self, other):
        return _Mpz(int(other) // int(self))


def test_cleared_denominators_are_python_ints():
    """``is_rational`` takes ints and rationals, not ``mpz``: rows cleared
    from ``mpq`` entries must come out as Python ints."""
    mpq = {j: SimpleNamespace(numerator=_Mpz(n), denominator=_Mpz(d))
           for j, (n, d) in enumerate(((1, 2), (-5, 3), (0, 1), (7, 1)))}
    row, den = clear_denominators(mpq)
    assert (row, den) == ({0: 3, 1: -10, 2: 0, 3: 42}, 6)
    assert all(type(x) is int for x in [*row.values(), den])


def test_echelon_of_rational_rows_refuses_a_row_outside_q():
    ech = FpEchelon(3)
    ech.add({0: rat(1, 2), 2: 3})
    with pytest.raises(InternalInvariantError):
        ech.add({1: QuadExt(1, 1, 2)})
    # a field echelon takes rationals as elements of its field
    field = FpEchelon(3)
    field.add({0: QuadExt(0, 1, 2)})
    assert field.contains([3, 0, 0])
    assert field.residue({0: 2, 1: rat(1, 3)}) == {1: rat(1, 3)}


@SETTINGS
@given(_sparse_rows(st.integers(-300, 300)), st.data())
def test_sparse_echelon_matches_dense_elimination_mod_101(m, data):
    ncols, rows = m
    _check_echelon(ncols, rows, FQ.p, GF101, data.draw(st.permutations(rows)))


@SETTINGS
@given(_sparse_rows(st.one_of(st.integers(-9, 9), st.integers(P0 - 9, P0 + 9))),
       st.data())
def test_sparse_echelon_matches_dense_elimination_mod_a_walk_prime(m, data):
    ncols, rows = m
    _check_echelon(ncols, rows, P0, GF(P0), data.draw(st.permutations(rows)))


# --- prime walks ----------------------------------------------------------------

def test_prime_walks_repeat_and_interleave():
    bound = 1 << 40
    naive = [n for n in range(bound - 1, bound - 4000, -2) if is_prime(n)]
    assert list(islice(primes_below(bound), 6)) == naive[:6]
    # two later walks read the six primes kept so far and grow the walk in
    # turns, with the same sequence
    second, third = primes_below(bound), primes_below(bound)
    pairs = [(next(second), next(third)) for _ in range(9)]
    assert [u for u, _ in pairs] == [v for _, v in pairs] == naive[:9]
    assert list(primes_below(20)) == list(primes_below(20)) == [19, 17, 13, 11, 7, 5, 3]
    assert list(primes_below(3)) == []


# --- roots mod p ------------------------------------------------------------------

def test_fp_roots_match_a_scan_of_f101():
    rng = random.Random(11)
    p = 101
    for deg in range(13):
        for _ in range(6):
            # a product of random linear factors, some repeated, and a
            # random cofactor, so every degree sees 0..deg roots
            k = rng.randint(0, deg)
            a = [rng.randrange(1, p)]
            for _ in range(k):
                a = fp_mul(a, [rng.randrange(p), 1], p)
            cof = [rng.randrange(p) for _ in range(deg - k)] + [rng.randrange(1, p)]
            a = fp_mul(a, cof, p)
            assert len(a) == deg + 1
            assert fp_roots(a, p) == [x for x in range(p) if not fp_eval(a, x, p)]


def test_fp_roots_at_the_walk_prime_skip_an_irreducible_quadratic():
    rng = random.Random(12)
    nonresidue = next(n for n in range(2, 100) if pow(n, (P0 - 1) // 2, P0) == P0 - 1)
    for k in range(6):
        roots = [rng.randrange(P0) for _ in range(k)] + [rng.randrange(P0)] * (k % 2)
        a = [(-nonresidue) % P0, 0, 1]
        for r in roots:
            a = fp_mul(a, [(-r) % P0, 1], P0)
        assert fp_roots(a, P0) == sorted(set(roots))


P30 = next(primes_below(1 << 30))          # the head of the walk, 5 mod 8
P61 = next(primes_below((1 << 61) - 2))    # a 61-bit prime, 1 mod 32


def _nonresidue(p):
    return next(n for n in range(2, p) if pow(n, (p - 1) // 2, p) == p - 1)


@st.composite
def planted_roots(draw):
    """(p, a, roots): a polynomial mod p with its distinct roots planted: a
    run of consecutive small integers, 0, random roots, double roots, and
    irreducible quadratics x^2 + b x + (b^2 - n t^2)/4, n a non-square, as
    cofactors with no root."""
    p = draw(st.sampled_from([P61, P30, 101]))
    start = draw(st.integers(0, 20))
    roots = list(range(start, start + draw(st.integers(0, 5))))
    roots += draw(st.lists(st.integers(0, p - 1), max_size=3))
    if draw(st.booleans()):
        roots.append(0)
    doubles = draw(st.lists(st.sampled_from(roots), max_size=2)) if roots else []
    a = [draw(st.integers(1, p - 1))]
    for r in roots + doubles:
        a = fp_mul(a, [(-r) % p, 1], p)
    n, inv4 = _nonresidue(p), pow(4, -1, p)
    for _ in range(draw(st.integers(0, 2))):
        b, t = draw(st.integers(0, p - 1)), draw(st.integers(1, p - 1))
        a = fp_mul(a, [(b * b - n * t * t) * inv4 % p, b, 1], p)
    return p, a, sorted({r % p for r in roots})


@settings(max_examples=150)
@given(planted_roots())
def test_fp_roots_find_the_planted_roots(case):
    p, a, roots = case
    assert fp_roots(a, p) == roots
    if p == 101:
        assert roots == [x for x in range(p) if not fp_eval(a, x, p)]


@pytest.mark.parametrize("p", [103, 10007, 97, 101, 10009, 7681])
def test_fp_sqrt_matches_a_scan(p):
    # p = 3 mod 4 (103, 10007) takes no Tonelli-Shanks loop; 97 and 7681 have
    # 2^5 and 2^9 in p - 1, so the loop runs several rounds
    smaller = {}
    for r in range(p - 1, -1, -1):
        smaller[r * r % p] = r
    assert [fp_sqrt(a, p) for a in range(p)] == [smaller.get(a) for a in range(p)]


@pytest.mark.parametrize("p", [P61, P30, (1 << 61) - 1])
def test_fp_sqrt_at_large_primes(p):
    # P61 = 1 mod 32, P30 = 5 mod 8, 2^61 - 1 = 3 mod 4
    rng = random.Random(p)
    n = _nonresidue(p)
    for _ in range(50):
        x = rng.randrange(p)
        assert fp_sqrt(x * x % p, p) == min(x, p - x)
        assert fp_sqrt(x * x * n % p, p) is None or x == 0
        assert fp_sqrt(x * x + p * rng.randrange(1, 99), p) == min(x, p - x)


def _naive_powmod(s, e, g, p):
    """(x + s)^e mod g by squaring and multiplying lists, one fp_mul and one
    fp_divmod a step."""
    out = [1]
    for bit in bin(e)[2:]:
        out = fp_divmod(fp_mul(out, out, p), g, p)[1]
        if bit == "1":
            out = fp_divmod(fp_mul(out, [s, 1], p), g, p)[1]
    return out


@settings(max_examples=60)
@given(st.sampled_from([P61, P30, 101]), st.integers(1, 9), st.data())
def test_packed_power_matches_the_naive_power(p, d, data):
    g = data.draw(st.lists(st.integers(0, p - 1), min_size=d, max_size=d)) + [1]
    s = data.draw(st.integers(0, p - 1))
    e = data.draw(st.one_of(st.integers(0, 40), st.integers(0, 1 << 64),
                            st.sampled_from([p, (p - 1) // 2])))
    assert fp_powmod_linear(s, e, g, p) == _naive_powmod(s, e, g, p)
    if e < 12:
        by_one = [1]
        for _ in range(e):
            by_one = fp_divmod(fp_mul(by_one, [s, 1], p), g, p)[1]
        assert fp_powmod_linear(s, e, g, p) == by_one


def _spy_powers(monkeypatch):
    shifts = []
    real = modular.fp_powmod_linear

    def spy(s, e, g, p):
        shifts.append(s)
        return real(s, e, g, p)

    monkeypatch.setattr(modular, "fp_powmod_linear", spy)
    return shifts


def test_fp_roots_paths(monkeypatch):
    # a linear or quadratic polynomial takes no power; a cubic takes
    # x^((p-1)/2) first, then shifted powers at multiples of ROOT_SHIFT_STEP
    shifts = _spy_powers(monkeypatch)
    n = _nonresidue(P0)
    assert fp_roots([P0 - 7, 3], P0) == [7 * pow(3, -1, P0) % P0]
    assert fp_roots([P0 - n, 0, 1], P0) == []
    assert fp_roots([9, P0 - 6, 1], P0) == [3]
    assert fp_roots(fp_mul([P0 - 2, 1], [P0 - 3, 1], P0), P0) == [2, 3]
    assert shifts == []
    cubic = fp_mul(fp_mul([P0 - 2, 1], [P0 - 5, 1], P0), [P0 - 11, 1], P0)
    assert fp_roots(cubic, P0) == [2, 5, 11]
    assert shifts[0] == 0
    assert shifts[1:] == [k * modular.ROOT_SHIFT_STEP % P0 for k in range(1, len(shifts))]
