import math
import random

import pytest
from hypothesis import given, settings, strategies as st

from trigonal import intutil
from trigonal.errors import CurveUnsupported, InvalidInput
from trigonal.scalars import (QQ, PrimeField, QuadExt, QuadraticField,
                              int_if_integral, is_rational, rat,
                              rational_square_split, sdiv, sinv, sqrt_rational)


def test_rational_lowest_terms():
    x = rat(6, -4)
    assert x.numerator == -3 and x.denominator == 2
    assert str(x) == "-3/2"


def test_quadext_arithmetic():
    a = QuadExt(1, 2, 5)
    b = QuadExt(3, -1, 5)
    assert a + b == QuadExt(4, 1, 5)
    assert a * b == QuadExt(3 - 10, -1 + 6, 5)
    assert (a / b) * b == a
    assert a * a.conjugate() == a.norm()
    assert (a ** 3) == a * a * a
    assert QuadExt(2, 0, 5) == rat(2)


def test_quadext_reduction_rule():
    # sqrt(5)*sqrt(5) = 5
    r5 = QuadExt(0, 1, 5)
    assert r5 * r5 == QuadExt(5, 0, 5)


def test_quadext_mixed_delta_rejected():
    with pytest.raises(InvalidInput):
        _ = QuadExt(1, 1, 5) + QuadExt(1, 1, 7)


def test_quadraticfield_rejects_non_squarefree():
    with pytest.raises(InvalidInput):
        QuadraticField(8)
    with pytest.raises(InvalidInput):
        QuadraticField(1)


def test_prime_field_coercion():
    F = PrimeField(101)
    assert [(x, type(x)) for x in (F.coerce(rat(1, 2)), F.coerce(-1))] == [
        (51, int), (100, int)]
    with pytest.raises(InvalidInput):
        F.coerce(rat(1, 101))
    with pytest.raises(InvalidInput):
        PrimeField(2)


def test_numerators_are_rational():
    # under gmpy2 a numerator is an mpz, not an int
    n = rat(7, 3).numerator
    assert is_rational(n)
    assert QQ.coerce(n) == rat(7) and is_rational(QQ.coerce(n))


def test_sqrt_and_square_split():
    assert sqrt_rational(rat(9, 4)) == rat(3, 2)
    assert sqrt_rational(rat(2)) is None
    s, d = rational_square_split(rat(8, 9))
    assert d == 2 and s * s * d == rat(8, 9)
    s, d = rational_square_split(rat(-12))
    assert d == -3 and s * s * d == rat(-12)


def test_perfect_powers_split_without_rho(monkeypatch):
    """A square or cube of a large prime is split by an exact root; rho,
    which would need about sqrt(p) steps per factor, is never called."""
    def refuse(n):
        raise AssertionError(f"rho called on {n}")

    monkeypatch.setattr(intutil, "_brent_rho", refuse)
    m61 = 2 ** 61 - 1
    assert intutil.squarefree_split(m61 ** 2) == (m61, 1)
    assert intutil.squarefree_split(3 * (10 ** 12 + 39) ** 2) == (10 ** 12 + 39, 3)
    assert intutil.factorize(-m61 ** 3 * 4) == {2: 2, m61: 3}


def test_factorization_ends_on_two_large_primes():
    """Rho has a fixed step budget: two primes of 61 and 89 bits are past
    it and raise ``CurveUnsupported`` (exit 2); three primes near 2^31 and
    10^9 still split."""
    with pytest.raises(CurveUnsupported, match="factorization failed"):
        intutil.squarefree_split((2 ** 61 - 1) * (2 ** 89 - 1))
    primes = [2 ** 31 - 1, 10 ** 9 + 7, 10 ** 9 + 9]
    assert intutil.factorize(primes[0] * primes[1] * primes[2]) == dict.fromkeys(primes, 1)


# psi_12 and psi_13, the least strong pseudoprimes to all prime bases up to
# 37 and up to 41
PSI12 = 318665857834031151167461
PSI13 = 3317044064679887385961981


def _strong_probable_prime(n, a):
    d, r = n - 1, 0
    while d % 2 == 0:
        d, r = d // 2, r + 1
    x = pow(a, d, n)
    return x in (1, n - 1) or any(pow(x, 2 ** i, n) == n - 1 for i in range(1, r))


@pytest.mark.parametrize("n, bases", [(PSI12, 12), (PSI13, 13)])
def test_strong_pseudoprimes_are_not_prime(n, bases):
    """psi_12 passes Miller-Rabin to the bases 2-37 and fails base 41;
    psi_13 passes all 13 bases, and the strong Lucas test refuses it.
    Neither names a prime field."""
    witnesses = intutil._MR_WITNESSES
    assert all(_strong_probable_prime(n, a) for a in witnesses[:bases])
    assert bases == len(witnesses) or not _strong_probable_prime(n, witnesses[bases])
    assert not intutil.is_prime(n)
    with pytest.raises(InvalidInput, match="not an odd prime"):
        PrimeField(n)


def test_mersenne_primes_past_the_bound_are_prime():
    assert all(intutil.is_prime(2 ** e - 1) for e in (89, 107, 127))
    assert not intutil.is_prime((2 ** 89 - 1) * (2 ** 107 - 1))


def test_strong_lucas_test_matches_its_definition():
    """Among odd n below 30000 with no prime factor below 53, the strong
    Lucas test with Selfridge's parameters passes the primes and exactly the
    strong Lucas pseudoprimes (OEIS A217255) among the composites."""
    pseudoprimes = {5459, 5777, 10877, 16109, 18971, 22499, 24569, 25199}
    for n in range(53, 30000, 2):
        if any(n % p == 0 for p in intutil._SMALL_PRIMES):
            continue
        prime = all(n % k for k in range(3, math.isqrt(n) + 1, 2))
        assert intutil._strong_lucas(n) == (prime or n in pseudoprimes), n


def test_sdiv_never_floats():
    assert sdiv(1, 1) == 1
    assert sdiv(rat(3), 2) == rat(3, 2)
    assert [(x, type(x)) for x in (sdiv(-6, 3), sdiv(3, -2), sdiv(0, 5))] == [
        (-2, int), (rat(-3, 2), rat), (0, int)]
    assert [(x, type(x)) for x in (sdiv(rat(3, 2), rat(3, 4)), sdiv(rat(4), 2),
                                   sdiv(rat(1, 2), rat(1, 3)))] == [
        (2, int), (2, int), (rat(3, 2), rat)]
    assert [(x, type(x)) for x in map(int_if_integral, (rat(4, 2), rat(1, 2), 3))] == [
        (2, int), (rat(1, 2), rat), (3, int)]
    assert sinv(rat(2, 3)) == rat(3, 2)
    v = sinv(QuadExt(0, 1, 5))
    assert v * QuadExt(0, 1, 5) == QuadExt(1, 0, 5)


def test_exact_equality_is_decidable():
    rng = random.Random(11)
    for _ in range(50):
        a = rat(rng.randint(-50, 50), rng.randint(1, 30))
        b = rat(rng.randint(-50, 50), rng.randint(1, 30))
        assert (a == b) == (a - b == 0)


# --- field axioms -----------------------------------------------------------------

LAWS = settings(max_examples=100)
RATIONALS = st.builds(rat, st.integers(-50, 50), st.integers(1, 30))


@st.composite
def quad_triples(draw):
    delta = draw(st.sampled_from([2, -1, 5, -3]))
    return [QuadExt(draw(RATIONALS), draw(RATIONALS), delta) for _ in range(3)]


def _field_laws(a, b, c, zero, one):
    assert (a + b) + c == a + (b + c) and a + b == b + a
    assert (a * b) * c == a * (b * c) and a * b == b * a
    assert a * (b + c) == a * b + a * c
    assert a + zero == a and a * one == a and a - a == zero and a + (-a) == zero
    if a:
        assert a * a.inverse() == one and (b / a) * a == b
    else:
        with pytest.raises(ZeroDivisionError):
            a.inverse()


@LAWS
@given(quad_triples())
def test_quadext_field_laws(xs):
    delta = xs[0].delta
    _field_laws(*xs, QuadExt(0, 0, delta), QuadExt(1, 0, delta))

