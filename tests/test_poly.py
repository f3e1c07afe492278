import math
import random
from itertools import islice

import pytest
from hypothesis import given, settings, strategies as st
from sympy import GF

from trigonal import intutil, modular
from trigonal.errors import CurveUnsupported, InvalidInput
from trigonal.modular import (PRIME_WALK_START, fp_bivariate_table, fp_eval, fp_gcd,
                              fp_interpolate, fp_reduce, fp_resultant,
                              fp_resultant_keepvar, primes_below, rational_roots,
                              zz_gcd, zz_squarefree)
from trigonal.poly import (MPoly, binary_form_squarefree, parse_poly, poly_str,
                           taylor_rows)
from trigonal.scalars import QQ, PrimeField, rat, sdiv

from dense_reference import (euclid_gcd, euclid_squarefree, poly_mul, resultant,
                             taylor_pieces, taylor_rows_by_division)


WALK_PRIME = next(primes_below(PRIME_WALK_START))


def P(text, names=("x", "y", "z")):
    return parse_poly(text, names)


# --- grammar ------------------------------------------------------------------

def test_parse_print_round_trip():
    s = "3/2*x^2*y - z^3 + x*y*z - 5"
    p = P(s)
    assert poly_str(p) == "3/2*x^2*y + x*y*z - z^3 - 5"
    assert parse_poly(poly_str(p)) == p


def test_parse_rejects_unknown_variable_and_implicit_mult():
    with pytest.raises(InvalidInput):
        P("w^2")
    with pytest.raises(InvalidInput):
        P("2x")   # no implicit multiplication


def test_printing_is_graded_lex():
    p = P("z^3 + x*y^2 + x^2*y + y^3 + x + 1")
    assert poly_str(p) == "x^2*y + x*y^2 + y^3 + z^3 + x + 1"


# --- arithmetic / division ------------------------------------------------------

def test_division_round_trip():
    rng = random.Random(5)
    for _ in range(20):
        def rand_poly():
            t = {}
            for _ in range(rng.randint(1, 6)):
                e = (rng.randint(0, 2), rng.randint(0, 2), rng.randint(0, 2))
                t[e] = rat(rng.randint(-5, 5))
            return MPoly(3, t)
        a, b = rand_poly(), rand_poly()
        if not a or not b:
            continue
        prod = a * b
        assert prod.exact_div(b) == a
        assert prod.divisible_by(a)


def test_homogeneous_components_and_degrees():
    p = P("x^2*y + z^2 + x")
    assert sorted({sum(e) for e in p.terms}) == [1, 2, 3]
    assert not p.is_homogeneous()
    assert P("x^3 + y^2*z").is_homogeneous()


# --- resultants ------------------------------------------------------------------

def test_resultant_trivial_examples():
    # evaluation at y=0, up to sign
    r = resultant(P("y^2 - x"), P("y"), 1)
    assert r == P("x") or r == P("0 - x")
    # linear case: a - b up to sign
    r = resultant(P("y - x"), P("y - z"), 1)
    assert r == P("x - z") or r == P("z - x")


def test_resultant_cubic_squares_frozen_oracle():
    # eliminating u from (u^3 - u - 1, y - u^2) gives the cubic whose roots
    # are the squares of the roots; by power sums it is y^3 - 2y^2 + y - 1
    f = parse_poly("u^3 - u - 1", ("y", "u"))
    g = parse_poly("y - u^2", ("y", "u"))
    r = resultant(f, g, 1)
    expect = parse_poly("y^3 - 2*y^2 + y - 1", ("y", "u"))
    assert r == expect or r == -expect
    # numeric smoke test: substitute each complex root
    import numpy as np
    for u0 in np.roots([1, 0, -1, -1]):
        y0 = u0 ** 2
        val = sum(complex(c) * y0 ** e[0] for e, c in r.terms.items())
        assert abs(val) < 1e-6


def test_resultant_swap_sign():
    f = P("y^2 + 3*x*y - z^2 + x^2")
    g = P("2*y^3 - x*z*y + z^3")
    r1, r2 = resultant(f, g, 1), resultant(g, f, 1)
    assert r1 == r2.map_coeffs(lambda c: c * (-1) ** (2 * 3))


def test_resultant_specialization_property():
    # with constant leading y-coefficients, specialization commutes exactly
    rng = random.Random(3)
    f = P("y^3 + x*y + z^2*y - x^3 + z^3")
    g = P("y^2 + 2*x*y - z*y + x^2 - z^2")
    r = resultant(f, g, 1)
    for _ in range(5):
        a, b = rat(rng.randint(-9, 9)), rat(rng.randint(-9, 9))
        fs = [f.substitute([MPoly.const(1, a), MPoly.variable(1, 0),
                            MPoly.const(1, b)]).terms.get((k,), 0) for k in range(4)]
        gs = [g.substitute([MPoly.const(1, a), MPoly.variable(1, 0),
                            MPoly.const(1, b)]).terms.get((k,), 0) for k in range(3)]
        # univariate resultant via the Euclidean routine mod p
        p = WALK_PRIME
        rs = fp_resultant([fp_reduce(c, p) for c in fs], [fp_reduce(c, p) for c in gs], p)
        assert rs == fp_reduce(r.evaluate([a, rat(0), b]), p)


@st.composite
def bivariates(draw, scale):
    """f(x, y) of y-degree 1-3 whose leading y-coefficient is scale*(x - r)
    for an integer r, so it vanishes at an evaluation point."""
    y_deg = draw(st.integers(1, 3))
    x_deg = draw(st.integers(0, 2))
    coeff = st.integers(-4, 4)
    terms = {(i, j): rat(draw(coeff)) for i in range(x_deg + 1) for j in range(y_deg)}
    r = draw(st.integers(0, 3))
    terms[(1, y_deg)] = rat(scale)
    terms[(0, y_deg)] = rat(-scale * r)
    return MPoly(2, terms)


def _mod_p_coeffs(u, p):
    """Coefficients in x of a polynomial in (x, y) free of y, mod p."""
    out = [0] * (max((e[0] for e in u.terms), default=0) + 1)
    for (i, _j), c in u.terms.items():
        out[i] = fp_reduce(c, p)
    while out and not out[-1]:
        out.pop()
    return out


@settings(max_examples=80)
@given(st.data(), st.sampled_from([WALK_PRIME, 101]),
       st.sampled_from([(1, 1), (101, 1), (1, 101), (101, 101)]))
def test_fp_resultant_keepvar_matches_bareiss(data, p, scales):
    # differential: the mod-p kernel against the exact Bareiss resultant
    # reduced mod p, on pairs whose leading y-coefficients vanish at an
    # integer x; a scale of 101 makes that leading row vanish outright mod 101
    f = data.draw(bivariates(scales[0]))
    g = data.draw(bivariates(scales[1]))
    tf = fp_bivariate_table(f, p)
    tg = fp_bivariate_table(g, p)
    assert fp_resultant_keepvar(tf, tg, p) == _mod_p_coeffs(resultant(f, g, 1), p)


@st.composite
def dense_forms(draw, top):
    """Dense f(x, y) of total degree 2-6: every monomial x^i y^j with
    i + j <= d, and y^d with coefficient ``top`` times a nonzero integer."""
    d = draw(st.integers(2, 6))
    coeff = st.integers(-4, 4)
    terms = {(i, j): rat(draw(coeff)) for i in range(d + 1) for j in range(d - i)}
    terms[(0, d)] = rat(top * draw(st.sampled_from([1, -1, 2, -3])))
    return MPoly(2, {e: c for e, c in terms.items() if c})


@settings(max_examples=40, deadline=None)
@given(st.data(), st.sampled_from([WALK_PRIME, 101]),
       st.sampled_from([(1, 1), (101, 1), (1, 101)]))
def test_fp_resultant_keepvar_matches_bareiss_at_full_total_degree(data, p, tops):
    # differential at full total degree, where the Bezout bound D_a * D_b is
    # half the per-variable bound 2 * D_a * D_b; a top of 101 makes the
    # leading row vanish mod 101, so it is peeled before the bound is taken
    f = data.draw(dense_forms(tops[0]))
    g = data.draw(dense_forms(tops[1]))
    tf = fp_bivariate_table(f, p)
    tg = fp_bivariate_table(g, p)
    assert fp_resultant_keepvar(tf, tg, p) == _mod_p_coeffs(resultant(f, g, 1), p)


@pytest.mark.parametrize("p", [101, WALK_PRIME, 2305843009213693921])
def test_fp_interpolate_takes_the_values_at_consecutive_nodes(p):
    rng = random.Random(p % 1000)
    for n in range(1, 25):
        ys = [rng.randrange(p) for _ in range(n)]
        poly = fp_interpolate(ys, p)
        assert len(poly) <= n and all(0 <= c < p for c in poly)
        assert [fp_eval(poly, x, p) for x in range(n)] == ys


@st.composite
def remainder_drops(draw):
    """(a, b) with b of y-degree n >= 2 and a constant leading coefficient
    other than 1, and a = b*q + rem, q monic, rem = (x - r) y^(n-1) + ... +
    1: a mod b at x = r has a lower degree than at the other points, and is
    not zero there."""
    n = draw(st.integers(2, 3))
    coeff = st.integers(-4, 4)
    x, y = MPoly.variable(2, 0), MPoly.variable(2, 1)

    def in_y(deg, lead):
        terms = {(i, j): rat(draw(coeff)) for i in range(3) for j in range(deg)}
        return MPoly(2, terms) + MPoly.const(2, rat(lead)) * y ** deg

    b = in_y(n, draw(st.sampled_from([2, -3, 5])))
    q = in_y(draw(st.integers(0, 2)), 1)
    terms = {(i, j): rat(draw(coeff)) for i in range(3) for j in range(1, n - 1)}
    terms[(0, 0)] = rat(1)
    r = draw(st.integers(0, 3))
    rem = MPoly(2, terms) + (x - MPoly.const(2, rat(r))) * y ** (n - 1)
    return b * q + rem, b


def _check_against_points_and_bareiss(f, g, p):
    """fp_resultant_keepvar on f, g against the exact Bareiss resultant mod
    p, and at every x in 0..30 where both leading coefficients survive
    against one ``fp_resultant`` of the specialized pair; returns the
    number of ``fp_resultant`` calls the kernel made."""
    tf = fp_bivariate_table(f, p)
    tg = fp_bivariate_table(g, p)
    calls = []

    def spy(a, b, q):
        calls.append(q)
        return fp_resultant(a, b, q)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(modular, "fp_resultant", spy)
        got = fp_resultant_keepvar(tf, tg, p)
    assert got == _mod_p_coeffs(resultant(f, g, 1), p)
    for x in range(31):
        av = [fp_eval(row, x, p) for row in tf]
        bv = [fp_eval(row, x, p) for row in tg]
        if av[-1] and bv[-1]:
            assert fp_eval(got, x, p) == fp_resultant(av, bv, p)
    return len(calls)


@settings(max_examples=60)
@given(st.data(), st.sampled_from([WALK_PRIME, 101]), st.sampled_from(["lead", "drop", "row"]))
def test_lockstep_resultants_match_pointwise_euclid_and_bareiss(data, p, case):
    # the lockstep remainder sequence against one Euclidean resultant per
    # point and against the exact oracle: a leading coefficient that
    # vanishes at one point, a remainder whose degree drops at one point
    # only (that point leaves the lockstep and is finished alone), and a
    # leading row that is 101 times an integer row, so it vanishes mod 101
    if case == "drop":
        f, g = data.draw(remainder_drops())
        assert _check_against_points_and_bareiss(f, g, p) >= 1
    else:
        scale = 1 if case == "lead" else 101
        f, g = data.draw(bivariates(scale)), data.draw(bivariates(1))
        _check_against_points_and_bareiss(f, g, p)


@pytest.mark.parametrize("da, db", [(2, 3), (4, 3), (6, 5)])
def test_fp_resultant_keepvar_evaluates_monic_pairs_at_the_bezout_number(
        monkeypatch, da, db):
    # dense pairs monic in y: D_a * D_b + 1 evaluation points, the nodes
    # 0, 1, ... that the interpolation reads
    nodes = []

    def spy(ys, p):
        nodes.append(len(ys))
        return fp_interpolate(ys, p)

    monkeypatch.setattr(modular, "fp_interpolate", spy)
    rng = random.Random(da * 10 + db)
    tables = [[[rng.randrange(1, 101) for _ in range(d + 1 - j)] for j in range(d)] + [[1]]
              for d in (da, db)]
    assert fp_resultant_keepvar(*tables, 101)
    assert nodes == [da * db + 1]


def test_fp_resultant_keepvar_matches_sympy():
    """sympy's resultant over Z, reduced mod p, as an outside oracle on
    seeded dense pairs in (x, y); every third pair shares a factor that
    involves y, so its resultant vanishes identically.  The singular-locus
    scan rejects repeated components by exactly such vanishing nets."""
    sympy = pytest.importorskip("sympy")
    x, y = sympy.symbols("x y")
    rng = random.Random(7)

    def dense(d):
        """Every monomial of total degree <= d, with y^d among them."""
        terms = [rng.randint(-9, 9) * x ** i * y ** j
                 for i in range(d + 1) for j in range(d + 1 - i) if j < d]
        return sum(terms) + rng.choice([1, -2, 3]) * y ** d

    def table(e, p):
        F = MPoly(2, {m: rat(int(c)) for m, c in sympy.Poly(e, x, y).terms()})
        return fp_bivariate_table(F, p)

    def sympy_resultant(a, b):
        # sympy 1.14 returns Res(b, a) when deg a < deg b, which is off by
        # (-1)^(deg a * deg b); ask it with the larger degree first
        m, n = sympy.degree(a, y), sympy.degree(b, y)
        if m >= n:
            return sympy.resultant(a, b, y)
        return (-1) ** (m * n) * sympy.resultant(b, a, y)

    shared = 0
    for k in range(45):
        a, b = dense(rng.randint(1, 3)), dense(rng.randint(1, 3))
        if k % 3 == 0:
            c = dense(rng.randint(1, 2))
            a, b = sympy.expand(a * c), sympy.expand(b * c)
        p = rng.choice([101, 10007, WALK_PRIME])
        want = [int(c) % p for c in reversed(sympy.Poly(sympy_resultant(a, b), x).all_coeffs())]
        while want and not want[-1]:
            want.pop()
        got = fp_resultant_keepvar(table(a, p), table(b, p), p)
        assert got == want
        shared += k % 3 == 0 and got == []
    assert shared == 15


def test_fp_resultant_keepvar_small_modulus_is_typed():
    # a = x(x-1) y + 1, b = y + x^2: Res_y = x^4 - x^3 - 1 has degree bound
    # 4, so the five nodes x = 0..4 are needed, x = 0 and 1 among them, where
    # the leading coefficient x(x-1) of a vanishes
    def tables(p):
        return [[1], [0, p - 1, 1]], [[0, 0, 1], [1]]

    assert fp_resultant_keepvar(*tables(7), 7) == [6, 0, 0, 6, 1]
    assert fp_resultant_keepvar(*tables(5), 5) == [4, 0, 0, 4, 1]
    with pytest.raises(CurveUnsupported):
        fp_resultant_keepvar(*tables(3), 3)   # fewer residues than points


def test_fp_resultant_keepvar_trims_a_zero_leading_row(monkeypatch):
    # the row [0] is the zero polynomial, so a = 3 + y has formal degree 2
    # and is peeled like [[3], [1], []]: Res = -(x - 3), interpolated from
    # the two nodes of the peeled degree bound 1
    a, b = [[3], [1], [0]], [[0, 1], [1]]
    want = fp_resultant_keepvar([[3], [1], []], b, WALK_PRIME)
    assert want == [3, WALK_PRIME - 1]
    nodes = []

    def spy(ys, p):
        nodes.append(len(ys))
        return fp_interpolate(ys, p)

    monkeypatch.setattr(modular, "fp_interpolate", spy)
    assert fp_resultant_keepvar(a, b, WALK_PRIME) == want
    assert nodes == [2]
    assert fp_resultant_keepvar(b, [[1], [0, 1], [0, 0]], WALK_PRIME) == \
        fp_resultant_keepvar(b, [[1], [0, 1], []], WALK_PRIME)
    assert a == [[3], [1], [0]]   # the caller's rows are left as they were


def test_resultant_rejects_bad_input():
    with pytest.raises(InvalidInput):
        resultant(P("x"), P("z"), 1)   # both constant in y
    with pytest.raises(InvalidInput):
        resultant(MPoly(3), P("y"), 1)


# --- square-free parts and roots ----------------------------------------------

def _is_primitive(a):
    """An int list with content 1 and a positive leading coefficient."""
    return all(type(c) is int for c in a) and a[-1] > 0 and math.gcd(*a) == 1


def test_squarefree_part_examples():
    x, xm1, xp1 = [0, 1], [-1, 1], [1, 1]
    assert zz_squarefree(poly_mul(xm1, xm1)) == xm1
    assert zz_squarefree([1, 0, 1]) == [1, 0, 1]                  # x^2 + 1
    assert zz_squarefree(poly_mul(poly_mul(x, x), xm1)) == poly_mul(x, xm1)
    # content 6 and a negative leading coefficient: -6 (x - 1)^2 (x + 1)
    assert zz_squarefree([-6 * c for c in poly_mul(poly_mul(xm1, xm1), xp1)]) == [-1, 0, 1]
    # a planted common factor 2x - 3 under contents 4 and 10
    u, v = poly_mul([4], poly_mul([-3, 2], [5, 0, 1])), poly_mul([-10], poly_mul([-3, 2], xp1))
    assert zz_gcd(u, v) == zz_gcd(v, u) == [-3, 2]
    assert zz_gcd([2, 0, 2], [6, 3]) == [1]                       # coprime
    assert zz_gcd([0, 0, 4], [0, -6]) == [0, 1]                   # zero constant terms
    assert zz_gcd([-7], [3, 5, 1]) == zz_gcd([-7], []) == [1]      # a constant
    assert zz_gcd([], [0, -4, 2]) == [0, -2, 1] and zz_gcd([], []) == []
    assert zz_squarefree([-12]) == [1] and zz_squarefree([]) == []


_small_polys = st.lists(st.integers(-9, 9), min_size=1, max_size=4).filter(any)


@given(common=_small_polys, u=_small_polys, v=_small_polys,
       scales=st.tuples(*[st.sampled_from([1, -1, 2, -6, 35])] * 2),
       shifts=st.tuples(st.integers(0, 2), st.integers(0, 2)))
@settings(max_examples=150, deadline=None)
def test_zz_gcd_and_squarefree_match_fraction_euclid(common, u, v, scales, shifts):
    """On products with a planted common factor, under contents, signs and
    powers of x (zero constant terms), the primitive gcd and square-free
    part over Z are the Fraction-Euclid ones over Q, made primitive with a
    positive leading coefficient; constants and coprime pairs give [1]."""
    a = poly_mul([0] * shifts[0] + [scales[0]], poly_mul(common, u))
    b = poly_mul([0] * shifts[1] + [scales[1]], poly_mul(common, v))
    for p, q in ((a, b), (b, a), (a, a), (u, v), (common, [scales[0]])):
        while p and not p[-1]:
            p = p[:-1]
        while q and not q[-1]:
            q = q[:-1]
        g = zz_gcd(p, q)
        assert _is_primitive(g) and euclid_gcd(g, []) == euclid_gcd(p, q)
        sf = zz_squarefree(poly_mul(p, p))
        assert _is_primitive(sf) and euclid_gcd(sf, []) == euclid_squarefree(p)


def test_squarefree_part_randomized_property():
    rng = random.Random(9)
    for _ in range(20):
        u = [rng.randint(-4, 4) for _ in range(rng.randint(2, 4))]
        v = [rng.randint(-4, 4) for _ in range(rng.randint(2, 4))]
        if not u[-1] or not v[-1]:
            continue
        assert zz_squarefree(poly_mul(poly_mul(u, u), v)) == zz_squarefree(poly_mul(u, v))


def test_rational_roots_examples():
    assert rational_roots([rat(-1), rat(0), rat(1)]) == [rat(-1), rat(1)]
    assert rational_roots([rat(1), rat(0), rat(1)]) == []
    # x(2x-1)(x-1) = 2x^3 - 3x^2 + x
    assert rational_roots([rat(0), rat(1), rat(-3), rat(2)]) == \
        [rat(0), rat(1, 2), rat(1)]
    assert rational_roots([rat(0), rat(0), rat(5)]) == [rat(0)]
    assert rational_roots([rat(3, 2)]) == []
    with pytest.raises(InvalidInput):
        rational_roots([rat(0), rat(0)])


def test_rational_roots_refuse_a_repeated_root():
    # (3x-2)^2 (3x+1): every prime divides the discriminant
    u = poly_mul([4, -12, 9], [1, 3])
    with pytest.raises(CurveUnsupported):
        rational_roots(u)
    assert rational_roots(zz_squarefree(u)) == [rat(-1, 3), rat(2, 3)]


@pytest.mark.parametrize("a,b,c", [(1, 0, -1), (4, -4, 1), (9, 12, 4), (1, 0, 1),
                                   (1, 0, -2), (-6, 1, 1), (6, 5, -4), (3, 0, 0),
                                   (-2, 7, -3), (5, 1, 1), (25, 0, -4)])
def test_rational_roots_of_quadratics_match_sympy(a, b, c):
    """The distinct rational roots of a quadratic, read off its square-free
    part, as the singular scan reads them."""
    sympy = pytest.importorskip("sympy")
    x = sympy.Symbol("x")
    want = sorted(rat(int(r.p), int(r.q)) for r in
                  sympy.roots(sympy.Poly(a * x**2 + b * x + c, x)) if r.is_rational)
    sf = zz_squarefree([c, b, a])
    assert rational_roots(sf) == want
    half = rat(1, 2)
    assert rational_roots([c * half for c in sf]) == want


def _sympy_rational_roots(expr, x):
    import sympy
    return sorted(rat(int(-f.coeff(x, 0)), int(f.coeff(x, 1)))
                  for f, _ in sympy.factor_list(expr, x)[1] if sympy.degree(f, x) == 1)


def test_rational_roots_match_sympy_on_random_square_free_polynomials():
    """Degrees 1-6: rational roots at 0, small ones and a/b with 60-bit a
    and b, times a factor with no rational root."""
    sympy = pytest.importorskip("sympy")
    x = sympy.Symbol("x")
    rng = random.Random(22)
    for trial in range(60):
        expr = sympy.Integer(rng.randint(1, 9))
        for _ in range(rng.randint(0, 3)):
            bits = rng.choice([3, 60])
            num, den = rng.randint(-2**bits, 2**bits), rng.randint(1, 2**bits)
            expr *= den * x - num
        if trial % 3 == 0:
            expr *= x**2 + rng.randint(-5, 5) * x + rng.randint(7, 2**60)
        if trial % 4 == 1 or sympy.degree(expr, x) < 1:
            expr *= x
        sf = sympy.Poly(expr, x).sqf_part()
        coeffs = [rat(int(c)) for c in reversed(sf.all_coeffs())]
        assert 1 <= len(coeffs) - 1 <= 6
        assert rational_roots(coeffs) == _sympy_rational_roots(sf.as_expr(), x)
    assert rational_roots([rat(1), rat(1), rat(0), rat(0), rat(1)]) == []   # x^4 + x + 1


def test_rational_roots_skip_a_prime_dividing_the_discriminant(monkeypatch):
    p0, p1 = islice(primes_below(PRIME_WALK_START), 2)
    used = []
    real = modular.fp_roots
    monkeypatch.setattr(modular, "fp_roots", lambda a, p: used.append(p) or real(a, p))
    # (x - 1)(x - 1 - p0) has discriminant p0^2: a double root mod p0
    u = poly_mul([-1, 1], [-1 - p0, 1])
    assert rational_roots(u) == [rat(1), rat(1 + p0)]
    # p0 divides the leading coefficient of p0 x - 1
    assert rational_roots([rat(-1), rat(p0)]) == [rat(1, p0)]
    assert used == [p1, p1]


def test_rational_roots_give_up_typed_when_no_prime_is_admissible():
    lead = 1
    for p in islice(primes_below(PRIME_WALK_START), modular.ROOT_PRIMES):
        lead *= p
    with pytest.raises(CurveUnsupported):
        rational_roots([rat(-1), rat(lead)])
    # with the first walk prime taken out of it, that prime is admissible
    rest = lead // next(primes_below(PRIME_WALK_START))
    assert rational_roots([rat(-1), rat(rest)]) == [rat(1, rest)]


def test_rational_roots_never_factor_an_integer(monkeypatch):
    """Large extreme coefficients are no cost: nothing is factored."""
    def refuse(n):
        raise AssertionError(f"factored {n}")

    monkeypatch.setattr(intutil, "factorize", refuse)
    big = 1000003 * 999983
    # x (x - big)(6x + big)
    assert rational_roots([rat(0), rat(-big * big), rat(-5 * big), rat(6)]) == \
        [rat(-big, 6), rat(0), rat(big)]
    # 9x^3 - 9x^2 - 4x + 4 = (3x-2)(3x+2)(x-1)
    assert rational_roots([rat(4), rat(-4), rat(-9), rat(9)]) == \
        [rat(-2, 3), rat(2, 3), rat(1)]


# --- local expansions, read from Taylor rows ------------------------------------

def _piece_values(f, point, k):
    """The coefficients of u^a v^(k-a), a = 0..k, in the degree-k piece of
    the local expansion of f at the point, read from ``taylor_rows``."""
    coeffs = list(f.terms.values())
    return [sum(c * r for c, r in zip(coeffs, row) if r)
            for row in taylor_rows(list(f.terms), point, k)]


def _piece(f, point, k):
    """That piece as a binary form."""
    return MPoly(2, {(a, k - a): c for a, c in enumerate(_piece_values(f, point, k)) if c})


def _cone_squarefree(f, point, k):
    """Whether the degree-k piece of f (integer coefficients) at an integer
    point is square-free, over Q and mod 10007."""
    piece = [int(c) for c in _piece_values(f, point, k)]
    over_q = binary_form_squarefree(piece, zz_gcd)
    assert binary_form_squarefree([c % 10007 for c in piece],
                                  lambda a, b: fp_gcd(a, b, 10007)) == over_q
    return over_q


def _multiplicity(f, point):
    return next(k for k in range(f.total_degree() + 1) if _piece(f, point, k))


def test_local_expansion_smooth_conic_point():
    assert _multiplicity(P("x*z - y^2"), (0, 0, 1)) == 1


def test_local_expansion_cusp_vs_node():
    cusp = P("y^2*z - x^3")
    assert _multiplicity(cusp, (0, 0, 1)) == 2
    assert [poly_str(_piece(cusp, (0, 0, 1), k), ("x", "y")) for k in range(4)] == \
        ["0", "0", "y^2", "-x^3"]
    assert not _cone_squarefree(cusp, (0, 0, 1), 2)
    node = P("z*x^2 - z*y^2 + x^3")
    assert _multiplicity(node, (0, 0, 1)) == 2
    assert _cone_squarefree(node, (0, 0, 1), 2)


def test_local_expansion_chart_invariance():
    # the same point of the same curve, read in another chart
    f = P("x^3*y + y^3*z + z^3*x")
    m0 = _multiplicity(f, (0, 0, 1))
    g = f.substitute([MPoly.variable(3, 2), MPoly.variable(3, 0),
                      MPoly.variable(3, 1)])
    m1 = _multiplicity(g, (0, 1, 0))
    assert m0 == m1 == 1


def test_local_expansion_rejects_zero_point():
    with pytest.raises(InvalidInput):
        taylor_rows([(3, 0, 0), (0, 3, 0), (0, 0, 3)], (0, 0, 0), 0)


@pytest.mark.parametrize("fld", [QQ, PrimeField(10007)])
def test_taylor_rows_match_substitute_and_split(fld):
    # every piece up to d of random forms of degree 3-7, at points in each
    # of the three charts; over F_q the rows of residues are read in sympy's
    # GF(q), where the reference substitutes
    lift = _lift(fld)
    rng = random.Random(14)
    for d in range(3, 8):
        monos = [(i, j, d - i - j) for i in range(d + 1) for j in range(d + 1 - i)]
        f = MPoly(3, {e: fld.coerce(rng.randint(-9, 9)) for e in monos})
        for chart in range(3):
            point = [fld.coerce(rng.randint(-5, 5)) for _ in range(chart)]
            point += [fld.coerce(1)] + [fld.coerce(0)] * (2 - chart)
            ref = taylor_pieces(f.map_coeffs(lift), [lift(x) for x in point])
            for k in range(d + 1):
                rows = taylor_rows(list(f.terms), point, k)
                got = {(a, k - a): v for a, row in enumerate(rows)
                       if (v := lift(sum(c * r for c, r in zip(f.terms.values(), row) if r)))}
                assert got == ref[k], (d, point, k)


@pytest.mark.parametrize("fld", [QQ, PrimeField(10007)])
def test_taylor_rows_on_any_representative(fld):
    """At a point with chart coordinate 1 the rows are those of the
    division formula in the chart; at lambda times a point they are
    lambda^(D-k) times the rows at the point, for an integer lambda over Q
    and an element of F_10007, so integer points give the pieces of their
    normalized point up to a nonzero factor.  Over F_10007 the points are
    residues and every row is read in sympy's GF(10007)."""
    lift = _lift(fld)

    def read(rows):
        return [[lift(r) for r in row] for row in rows]

    rng = random.Random(25)
    for d in range(3, 7):
        monos = [(i, j, d - i - j) for i in range(d + 1) for j in range(d + 1 - i)]
        for chart in range(3):
            point = [rng.randint(-5, 5) for _ in range(chart)]
            point += [rng.choice([-3, -1, 2, 7])] + [0] * (2 - chart)
            if fld == QQ:
                lam = rng.choice([-4, 3, 12])
            else:
                point = [fld.coerce(x) for x in point]
                lam = fld.coerce(rng.randint(2, 10006))
            normal = [fld.coerce(sdiv(x, point[chart])) for x in point]
            scaled = [fld.coerce(lam * x) for x in point]
            at = [lift(x) for x in point]
            for k in range(d + 1):
                rows = read(taylor_rows(monos, point, k))
                assert read(taylor_rows(monos, normal, k)) == \
                    taylor_rows_by_division(monos, at, k)
                assert read(taylor_rows(monos, scaled, k)) == \
                    [[lift(lam) ** (d - k) * r for r in row] for row in rows]
                factor = at[chart] ** (d - k)
                assert rows == [[factor * r for r in row]
                                for row in read(taylor_rows(monos, normal, k))]
                if fld == QQ:
                    assert all(type(r) is int for row in rows for r in row)


def _lift(fld):
    """The map of a scalar over ``fld`` into the field of the reference:
    over F_q sympy's GF(q), over Q the scalar itself."""
    return GF(fld.char) if fld.char else (lambda x: x)


def test_binary_form_repeated_factor_at_infinity_detected():
    # u v^2 has the repeated factor v^2 even though its value u at v = 1 is
    # square-free; u v (u - v) has none
    assert not binary_form_squarefree([0, 1, 0, 0], zz_gcd)
    assert binary_form_squarefree([0, -1, 1], zz_gcd)
    assert not binary_form_squarefree([1, -2, 1], zz_gcd)        # (u - v)^2
    with pytest.raises(InvalidInput):
        binary_form_squarefree([0, 0], zz_gcd)
