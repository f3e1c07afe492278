import hashlib
import random
import time
from itertools import islice

import pytest
from hypothesis import assume, given, settings, strategies as st

from trigonal import curve as curve_mod
from trigonal.curve import (derived_rng, gen_method1, gen_method2, gen_singular_model,
                            gen_trigonal_projection, genus, normalize_point,
                            parse_curve_file, singular_locus, validate_curve,
                            write_curve_file)
from trigonal.errors import (CurveUnsupported, GenerationFailed, GenusTooSmall,
                             InvalidInput, IrrationalSingularLocus,
                             NonOrdinarySingularity, ParseError, PointNotOnCurve,
                             ReducibleSuspected, UnsupportedInput)
from trigonal.modular import (PRIME_WALK_START, fp_reduce, fp_resultant_keepvar,
                              primes_below)
from trigonal.poly import MPoly, parse_poly, poly_str
from trigonal.scalars import QQ, PrimeField, QuadraticField, rat

import dense_reference

P0, P1 = islice(primes_below(PRIME_WALK_START), 2)


def P(text):
    return parse_poly(text)


# --- genus formula ----------------------------------------------------------------

def test_genus_formula():
    assert genus(4, []) == 3
    assert genus(6, [3]) == 7
    assert genus(5, [2, 2]) == 4
    assert genus(6, [2] * 5) == 5
    with pytest.raises(InvalidInput):
        genus(4, [2, 2, 2, 2])   # negative
    with pytest.raises(InvalidInput):
        genus(4, [1])


def test_method1_genus_matches_reported_values():
    # accepted curves have genus 2(deg_x - 1): 4 at deg_x=3, 10 at deg_x=6
    assert gen_method1(3, seed=1).genus == 4
    assert gen_method1(6, seed=3).genus == 10


# --- singular locus ----------------------------------------------------------------

def test_singular_locus_smooth():
    pts, residual = singular_locus(P("x^4 + y^4 + z^4"))
    assert pts == [] and residual == 0


def test_singular_locus_node_with_direct_oracle():
    f = P("x^4 + y^4 - x*y*z^2")
    pts, residual = singular_locus(f)
    assert residual == 0 and len(pts) == 1
    s = pts[0]
    assert s.coords == (rat(0), rat(0), rat(1)) and s.multiplicity == 2
    # direct oracle: f and all partials vanish exactly at the point
    point = list(s.coords)
    assert not f.evaluate(point)
    for i in range(3):
        assert not f.derivative(i).evaluate(point)


def test_singular_locus_cusp_found():
    pts, residual = singular_locus(P("y^2*z - x^3"))
    assert [(s.coords, s.multiplicity) for s in pts] == \
        [((rat(0), rat(0), rat(1)), 2)]


def _sympy_singular_points(f):
    """Singular points of the form f with their multiplicities, found by
    sympy alone: the solutions of a lex Groebner basis of (F, F_x, F_y) in
    the chart z = 1, and of (F, F_x, F_y, F_z) on the line z = 0 (charts
    y = 1 and x = 1), each normalized by its last nonzero coordinate; the
    multiplicity is the lowest total degree of F moved to the point in that
    chart.  Every form given to it has rational singular points only."""
    sympy = pytest.importorskip("sympy")
    xyz = sympy.symbols("x y z")
    F = sum(sympy.Rational(int(c.numerator), int(c.denominator))
            * xyz[0] ** i * xyz[1] ** j * xyz[2] ** k
            for (i, j, k), c in f.terms.items())
    grad = [F] + [sympy.diff(F, v) for v in xyz]
    charts = [(2, grad[:3], {}), (1, grad, {xyz[2]: 0}),
              (0, grad, {xyz[1]: 0, xyz[2]: 0})]
    out = []
    for piv, eqs, fixed in charts:
        fixed = {**fixed, xyz[piv]: 1}
        free = [v for v in xyz if v not in fixed]
        eqs = [e.subs(fixed) for e in eqs]
        if not free:
            sols = [] if any(eqs) else [{}]
        else:
            basis = sympy.groebner(eqs, *free, order="lex").exprs
            sols = [] if basis == [1] else sympy.solve(basis, free, dict=True)
        local = [v for v in xyz if v != xyz[piv]]
        for sol in sols:
            point = [sympy.Rational(fixed.get(v, sol.get(v))) for v in xyz]
            moved = sympy.expand(F.subs({v: (v + c if v in local else 1)
                                         for v, c in zip(xyz, point)},
                                        simultaneous=True))
            m = min(map(sum, sympy.Poly(moved, *local).monoms()))
            out.append((tuple(rat(int(c.p), int(c.q)) for c in point), m))
    return sorted(out, key=str)


@pytest.mark.parametrize("form", [
    "y^2*z - x^3 - x^2*z",                  # nodal cubic, node at (0:0:1)
    "x^3 + y^3 - x*y*z",                    # folium, node at (0:0:1)
    # (y - 2z)^2 z - (x - z)^3 - (x - z)^2 z, node at (1:2:1)
    "-x^3 + 2*x^2*z - x*z^2 + y^2*z - 4*y*z^2 + 4*z^3",
    "y*z^2 - x^3 - x^2*y",                  # nodal cubic, node at (0:1:0)
    "x^4 + y^4 - x*y*z^2",                  # quartic, one node
    # three nodes, at the coordinate points
    "x^2*y^2 + y^2*z^2 + z^2*x^2 + x^2*y*z + x*y^2*z + x*y*z^2",
    "y^2*z - x^3",                          # cuspidal cubic
])
def test_singular_points_match_a_groebner_basis(form):
    f = P(form)
    pts, residual = singular_locus(f)
    assert residual == 0
    assert sorted(((s.coords, s.multiplicity) for s in pts), key=str) == \
        _sympy_singular_points(f)


@pytest.mark.parametrize("assigned", [
    [((1, 2, 3), 2), ((2, -1, 1), 2)],
    [((1, 0, 0), 2), ((0, 1, 0), 2), ((1, 1, 1), 2)],
    [((1, 1, 0), 2), ((3, 0, 1), 2), ((0, 0, 1), 2)],
])
def test_generated_nodes_match_a_groebner_basis(assigned):
    # quintics: a quartic with two nodes is below genus 3
    f = gen_singular_model(5, assigned, seed=1).f
    pts, _ = singular_locus(f)
    want = _sympy_singular_points(f)
    assert sorted(((s.coords, s.multiplicity) for s in pts), key=str) == want
    assert len(want) == len(assigned)


def test_nodes_on_a_common_vertical_line_with_large_coordinates_validate_fast():
    # the y-gcd at x = 0 is y^2 - N^2 with N a product of two 46-bit primes:
    # its roots come off the discriminant, with no factoring of N^2
    n = 35184372101267 * 35184373076497
    t0 = time.perf_counter()
    curve = gen_singular_model(5, [((0, n, 1), 2), ((0, -n, 1), 2)], seed=1)
    assert time.perf_counter() - t0 < 2
    assert sorted(s.key() for s in curve.sings) == [
        ("0", str(-n), "1"), ("0", str(n), "1")]
    assert all(s.multiplicity == 2 and s.ordinary for s in curve.sings)


def test_singular_points_at_infinity_found():
    # method-1 style curve: multiplicity 3 at (1:0:0) and (0:1:0)
    c = gen_method1(3, seed=1)
    keys = sorted(s.key() for s in c.sings)
    assert keys == [(str(rat(0)), str(rat(1)), str(rat(0))),
                    (str(rat(1)), str(rat(0)), str(rat(0)))]
    assert all(s.multiplicity == 3 for s in c.sings)


# --- validation --------------------------------------------------------------------

def test_validate_klein_quartic(klein):
    assert klein.genus == 3 and klein.sings == () and klein.validated


def test_validate_rejects_cusp():
    with pytest.raises(NonOrdinarySingularity):
        validate_curve(P("y^2*z - x^3"))
    # quintic with a cusp at the origin chart: tangent cone y^2
    with pytest.raises(NonOrdinarySingularity):
        validate_curve(P("y^2*z^3 - x^3*z^2 - x^5 - y^5"))


def test_validate_rejects_low_genus():
    with pytest.raises(GenusTooSmall):
        validate_curve(P("x^3 + y^3 + z^3"))   # genus 1
    with pytest.raises(GenusTooSmall):
        validate_curve(P("x^2 + y^2 - z^2"))


def test_validate_rejects_irrational_cusps():
    # cusps at (+-sqrt(2) : 0 : 1): the local equation is 8u^2 + sqrt(2) y^3
    # + ...  Over Q they are irrational; 2 is a square mod 10007, where they
    # are rational and the repeated tangent shows
    f = P("x^4 - 4*x^2*z^2 + 4*z^4 + x*y^3 + y^4")
    with pytest.raises(IrrationalSingularLocus):
        validate_curve(f)
    F = PrimeField(10007)
    with pytest.raises(NonOrdinarySingularity):
        validate_curve(f.map_coeffs(F.coerce), fld=F)


def test_validate_rejects_irrational_nodes():
    # nodes at (+-sqrt(2) : 0 : 1), with tangent cone 8u^2 - y^2; mod 10007
    # they are rational and ordinary, and the two nodes leave genus 1
    f = P("x^4 - 4*x^2*z^2 + 4*z^4 - y^2*z^2 + x*y^3 + y^4")
    with pytest.raises(IrrationalSingularLocus):
        validate_curve(f)
    F = PrimeField(10007)
    with pytest.raises(GenusTooSmall, match="genus 1"):
        validate_curve(f.map_coeffs(F.coerce), fld=F)


def test_validate_rejects_reducible_suspects():
    with pytest.raises(ReducibleSuspected):
        validate_curve(P("x^2*y^2"))            # monomial
    with pytest.raises(ReducibleSuspected):
        validate_curve(P("x^4 + x^2*y^2"))      # x^2 (x^2 + y^2)
    with pytest.raises(ReducibleSuspected):
        validate_curve(P("x^4 + 2*x^2*y^2 + y^4"))   # (x^2+y^2)^2, z-free


@pytest.mark.parametrize("fld", [QQ, PrimeField(101)])
def test_too_many_nodes_for_an_irreducible_curve_are_reducible(fld):
    # the four lines xyz(x+y+z) meet in six nodes, three more than a quartic
    # of genus >= 0 can have; the negative genus comes from discovered
    # points, so it is a suspected reducible curve, not bad declared data
    with pytest.raises(ReducibleSuspected, match="negative genus"):
        validate_curve(P("x^2*y*z + x*y^2*z + x*y*z^2"), fld=fld)


@st.composite
def rational_forms(draw):
    """Ternary forms h^2 g of degree 3-6 over Q with a form h of degree >= 1,
    so the curve has a repeated component; the coefficients have
    denominators, P0 among them, which moves the scan to the next prime."""
    coeff = st.builds(rat, st.integers(-5, 5), st.sampled_from([1, 2, 3, 7, P0]))

    def form(d):
        return MPoly(3, {(i, j, d - i - j): draw(coeff)
                         for i in range(d + 1) for j in range(d + 1 - i)})

    d = draw(st.integers(3, 6))
    k = draw(st.integers(1, (d - 1) // 2))
    h = form(k)
    return h * h * form(d - 2 * k)


@settings(max_examples=40)
@given(rational_forms())
def test_a_repeated_component_is_rejected_over_q_and_fq(f):
    # the singular-locus scan is the one check for repeated components, on
    # both fields; mod 10007 the form keeps its squared factor
    assume(f)
    for fld in (QQ, PrimeField(10007)):
        with pytest.raises(UnsupportedInput):
            validate_curve(f, fld=fld)


H = P("x^3 + 2*y^3 - z^3 + x*y*z")
NON_ORDINARY = (NonOrdinarySingularity, "tangent cone at (0:0:1) has a repeated factor")
VERTICAL = (ReducibleSuspected, "a vertical line lies on the curve")
ON_Z0 = (ReducibleSuspected, "the gradient vanishes on the whole line z=0")


def _residual(degree):
    return (IrrationalSingularLocus,
            f"singular locus has a non-rational residual of degree {degree}")


# (name, form, outcome over Q, outcome over F_10007); an outcome is the
# class and message of the rejection, or the genus of an accepted curve
REJECT_TABLE = [
    ("cusp", P("y^2*z^3 - x^3*z^2 - x^5 - y^5"), NON_ORDINARY, NON_ORDINARY),
    ("tacnode", P("y^2*z^3 - x^4*z + x^5 + y^5"), NON_ORDINARY, NON_ORDINARY),
    ("triple point, cone x^2 y", P("x^2*y*z^2 + x^5 + y^5"), NON_ORDINARY, NON_ORDINARY),
    # nine nodes, one of them rational mod 10007
    ("two cubics", P("x^3 + y^3 + z^3") * H, _residual(9), _residual(8)),
    ("three-nodal quartic", P("x^2*y^2 + y^2*z^2 + z^2*x^2 + x^2*y*z + x*y^2*z + x*y*z^2"),
     (GenusTooSmall, "genus 0 < 3"), (GenusTooSmall, "genus 0 < 3")),
    ("(x - z)^2 h", P("x - z") ** 2 * H, VERTICAL, VERTICAL),
    ("z^2 h", P("z") ** 2 * H, ON_Z0, ON_Z0),
    # the lines x = +-i z are not defined over Q, nor over F_10007 (10007 = 3
    # mod 4), so the doubled pair is a residual on both fields
    ("(x^2 + z^2)^2 h", P("x^2 + z^2") ** 2 * H, _residual(2), _residual(2)),
]


def _outcome(f, fld):
    try:
        return validate_curve(f, fld=fld).genus
    except UnsupportedInput as e:
        return type(e), str(e)


def test_reject_table_is_pinned(sqrt2_sextic):
    # 2 is a square mod 10007, so the nodes (+-sqrt 2 : 0 : 1) are rational
    # there and the sextic is accepted with genus 10 - 2 = 8
    table = REJECT_TABLE + [("nodes over Q(sqrt 2)", sqrt2_sextic, _residual(2), 8)]
    F = PrimeField(10007)
    assert {name: (_outcome(f, QQ), _outcome(f, F)) for name, f, _, _ in table} == \
        {name: (q, fq) for name, _, q, fq in table}


@pytest.mark.parametrize("fld", [QQ, PrimeField(10007)])
def test_validation_grounds_once_and_expands_once_per_point(five_nodal_sextic, fld,
                                                            monkeypatch):
    # one modulus for the scan; at each singular point of multiplicity m the
    # Taylor pieces of degree 0..m are built once each, and none above m
    grounds, pieces = [], {}
    ground, rows = curve_mod._ground, curve_mod.taylor_rows

    def spy_ground(*args):
        grounds.append(args)
        return ground(*args)

    def spy_rows(monos, point, k):
        pieces.setdefault(tuple(point), []).append(k)
        return rows(monos, point, k)

    monkeypatch.setattr(curve_mod, "_ground", spy_ground)
    monkeypatch.setattr(curve_mod, "taylor_rows", spy_rows)
    curve = validate_curve(five_nodal_sextic.f.map_coeffs(fld.coerce), fld=fld)
    assert len(curve.sings) == 5 and all(s.ordinary for s in curve.sings)
    assert len(grounds) == 1
    assert pieces == {s.coords: list(range(s.multiplicity + 1)) for s in curve.sings}


def test_validate_cross_checks_declared_sings(proj5):
    f = proj5.f
    curve = validate_curve(f, declared_sings=[((0, 0, 1), 2)])
    assert curve.genus == genus(5, [2]) == 5
    with pytest.raises(InvalidInput):
        validate_curve(f, declared_sings=[((0, 1, 0), 2)])
    with pytest.raises(InvalidInput):
        validate_curve(f, declared_sings=[((0, 0, 1), 3)])
    with pytest.raises(InvalidInput):
        validate_curve(f, declared_sings=[])


def test_validate_base_point():
    with pytest.raises(PointNotOnCurve):
        validate_curve(P("x^4 + y^4 + z^4"), base_point=(0, 0, 1))
    c = validate_curve(P("x^3*y + y^3*z + z^3*x"), base_point=(0, 0, 1))
    assert c.base_point == normalize_point((0, 0, 1))


def test_validate_rejects_other_ground_fields(m1_cubic):
    # curve files and the CLI give Q or F_p; other fields are refused up front
    with pytest.raises(InvalidInput, match="Q or F_p"):
        validate_curve(m1_cubic.f, fld=QuadraticField(2))


def _spy_scan(monkeypatch):
    """Record the modulus of every resultant net and every z=0 scan."""
    primes, scans = [], []
    keepvar, infinity = curve_mod.fp_resultant_keepvar, curve_mod._infinity_scan

    def spy_keepvar(a, b, p):
        primes.append(p)
        return keepvar(a, b, p)

    def spy_infinity(*args):
        scans.append(args)
        return infinity(*args)

    monkeypatch.setattr(curve_mod, "fp_resultant_keepvar", spy_keepvar)
    monkeypatch.setattr(curve_mod, "_infinity_scan", spy_infinity)
    return primes, scans


def test_validation_scans_the_affine_chart_at_one_prime(proj5, monkeypatch):
    # the node at (0:0:1) survives every net, so no early exit: at most the
    # three nets, all mod the first prime of the walk, and one z=0 scan
    primes, scans = _spy_scan(monkeypatch)
    curve = validate_curve(proj5.f)
    assert [(s.coords, s.multiplicity) for s in curve.sings] == [((0, 0, 1), 2)]
    assert 1 <= len(primes) <= 3 and set(primes) == {P0}
    assert len(scans) == 1


def test_scan_moves_on_only_when_a_denominator_vanishes(proj5, monkeypatch):
    primes, _ = _spy_scan(monkeypatch)
    curve = validate_curve(proj5.f.map_coeffs(lambda c: c / P0))
    assert [(s.coords, s.multiplicity) for s in curve.sings] == [((0, 0, 1), 2)]
    assert primes and set(primes) == {P1}
    with pytest.raises(CurveUnsupported, match="every prime"):
        curve_mod.singular_locus(proj5.f.map_coeffs(lambda c: c / (P0 * P1)))


@pytest.mark.parametrize("fld", [QQ, PrimeField(10007)])
def test_the_last_net_runs_only_for_candidates_outside_fp(five_nodal_sextic, fld,
                                                           monkeypatch):
    """Res_y(F_x, F_y) and Res_y(F, F_x) leave x-values that all lie in F_p
    for the five-nodal sextic and for the Fermat quartic, so Res_y(F, F_y)
    is not computed.  The quartic's two-net gcd is x, and x = 0 carries no
    singular point: the check mod p drops it, as the last net used to.  The
    nodes of two cubics do not all lie over F_p, so the last net runs."""
    primes, _ = _spy_scan(monkeypatch)
    rational = 0 if fld == QQ else 1      # of the nine nodes, as in REJECT_TABLE
    cases = [(five_nodal_sextic.f, 5, 0, 2), (P("x^4 + y^4 + z^4"), 0, 0, 2),
             (P("x^3 + y^3 + z^3") * H, rational, 9 - rational, 3)]
    for f, npoints, residual, nets in cases:
        primes.clear()
        points, res = singular_locus(f.map_coeffs(fld.coerce), fld)
        assert (len(points), res, len(primes)) == (npoints, residual, nets)


# --- the same scan over F_q ----------------------------------------------------------

X, Y, Z = (MPoly.variable(3, i) for i in range(3))


@pytest.mark.parametrize("q", [149, 163])
def test_nodes_over_a_quadratic_extension_are_rejected_over_fq(sqrt2_sextic, q):
    # 2 is not a square mod 149 or 163, so the nodes (+-sqrt 2 : 0 : 1) lie
    # over F_{q^2}; exchanging x and y puts them in one fiber above x = 0,
    # and exchanging y and z moves them onto the line z=0
    F = PrimeField(q)
    for f in (sqrt2_sextic, sqrt2_sextic.substitute([Y, X, Z]),
              sqrt2_sextic.substitute([X, Z, Y])):
        f = f.map_coeffs(F.coerce)
        assert singular_locus(f, F) == ([], 2)
        with pytest.raises(IrrationalSingularLocus, match="degree 2"):
            validate_curve(f, fld=F)


def test_large_prime_field_finds_the_points_found_over_q(klein, five_nodal_sextic):
    F = PrimeField(10007)
    one_fiber = gen_singular_model(5, [((0, 0, 1), 2), ((0, 1, 1), 2)], seed=1)
    for curve in (klein, five_nodal_sextic, one_fiber):
        mod_q = validate_curve(curve.f.map_coeffs(F.coerce), fld=F)
        assert mod_q.genus == curve.genus
        # points over Q are normalized by their last nonzero coordinate,
        # which stays 1 mod q
        assert {(s.key(), s.multiplicity) for s in mod_q.sings} == \
            {(tuple(str(F.coerce(c)) for c in s.coords), s.multiplicity)
             for s in curve.sings}


def _brute_singular_points(f, q):
    """Every F_q point of the plane where f and its three partials vanish,
    by evaluating them at all q^2 + q + 1 normalized points."""
    polys = [[(e, fp_reduce(c, q)) for e, c in g.terms.items()]
             for g in (f, *(f.derivative(i) for i in range(3)))]
    points = ([(a, b, 1) for a in range(q) for b in range(q)]
              + [(a, 1, 0) for a in range(q)] + [(1, 0, 0)])
    return {pt for pt in points
            if all(sum(c * pt[0] ** i * pt[1] ** j * pt[2] ** k
                       for (i, j, k), c in g) % q == 0 for g in polys)}


@st.composite
def forms_mod_q(draw):
    """A prime q in 41..61 and a form of degree 4 or 5 over F_q, on every
    monomial or on a drawn support; half of them are forced singular at a
    drawn F_q point by moving a form singular at (0:0:1) there."""
    q = draw(st.sampled_from([41, 43, 47, 53, 59, 61]))
    d = draw(st.sampled_from([4, 5]))
    forced = draw(st.booleans())
    monos = [(a, b, d - a - b) for a in range(d + 1) for b in range(d + 1 - a)
             if not forced or a + b >= 2]
    support = draw(st.one_of(st.just(monos), st.lists(st.sampled_from(monos),
                                                        min_size=1, unique=True)))
    coeffs = draw(st.lists(st.integers(1, q - 1), min_size=len(support),
                           max_size=len(support)))
    f = MPoly(3, {m: rat(c) for m, c in zip(support, coeffs)})
    if forced:
        # images of x, y, z under a linear map taking (0:0:1) to the point
        a, b = draw(st.integers(0, q - 1)), draw(st.integers(0, q - 1))
        f = f.substitute(draw(st.sampled_from([[X - a * Z, Y - b * Z, Z],
                                               [X - a * Y, Z, Y], [Z, Y, X]])))
    F = PrimeField(q)
    return F, f.map_coeffs(F.coerce)


@settings(max_examples=40)
@given(forms_mod_q())
def test_singular_locus_over_fq_matches_a_brute_force_scan(case):
    F, f = case
    assume(f)
    try:
        points, _ = singular_locus(f, F)
    except (CurveUnsupported, ReducibleSuspected):
        return      # too few evaluation points, or a repeated component
    assert {tuple(c.v for c in s.coords) for s in points} == \
        _brute_singular_points(f, F.p)


# --- generators --------------------------------------------------------------------

def test_projection_generator_structure(proj5, proj6):
    for d, c in ((5, proj5), (6, proj6)):
        assert c.genus == 2 * d - 5
        assert [(s.coords, s.multiplicity) for s in c.sings] == \
            [((rat(0), rat(0), rat(1)), d - 3)]
        # every monomial has z-exponent at most 3
        assert max(e[2] for e in c.f.terms) <= 3


def test_projection_generator_marks_point_for_quartic():
    c = gen_trigonal_projection(4, seed=1)
    assert c.genus == 3 and c.sings == ()
    assert c.base_point == normalize_point((0, 0, 1))


def test_generators_deterministic():
    a = gen_trigonal_projection(5, seed=9)
    b = gen_trigonal_projection(5, seed=9)
    assert a.f == b.f
    c = gen_method1(3, seed=9)
    d = gen_method1(3, seed=9)
    assert c.f == d.f


def test_generator_distinct_seeds_differ():
    assert gen_trigonal_projection(5, seed=1).f != gen_trigonal_projection(5, seed=2).f


# sha256 prefixes of poly_str(gen_method2_candidate(d, h, rng)), pinned from
# the exact Sylvester/Bareiss elimination the generator used to run on
METHOD2_DIGESTS = {
    (1, 2, 0): "4a5ad7856889810b", (1, 2, 1): "8714ec63c71f558b",
    (1, 2, 2): "f36451ab66aea429", (2, 2, 0): "625899842ee2d606",
    (2, 2, 1): "85a7a2e169bd8bea", (2, 2, 2): "e25f7d1a24aa7265",
    (3, 2, 0): "3896691d358cd6bf", (3, 2, 1): "4c49cf9e048eba94",
    (3, 2, 2): "89c824798e51c8ae", (4, 2, 0): "a61e36e542568bad",
    (4, 2, 1): "9e513d5f2a02f9f9", (4, 2, 2): "5859947ca3dbff04",
    (3, 20, 0): "497b16a375695a48", (4, 12, 1): "62257d8167cb87d7",
}


def _method2_digest(d, h, seed):
    rng = derived_rng(seed, f"m2-pin:{d}:{h}")
    text = poly_str(curve_mod.gen_method2_candidate(d, h, rng))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


@pytest.mark.parametrize("d, h, seed", sorted(METHOD2_DIGESTS))
def test_method2_candidates_are_pinned(d, h, seed):
    assert _method2_digest(d, h, seed) == METHOD2_DIGESTS[d, h, seed]


def test_method2_large_coefficients_combine_several_primes(monkeypatch):
    # at height 20 the coefficients of R reach 122 bits, so its bound needs
    # more than one walk prime and the residues are combined by CRT
    primes = []

    def spy(a, b, p):
        primes.append(p)
        return fp_resultant_keepvar(a, b, p)

    monkeypatch.setattr(curve_mod, "fp_resultant_keepvar", spy)
    assert _method2_digest(3, 20, 0) == METHOD2_DIGESTS[3, 20, 0]
    assert len(set(primes)) >= 2
    assert len(primes) == len(set(primes)) * (5 * 3 + 1)


def _method2_reference(d, h, rng):
    """Res_u(F, G) of the method-2 model by the dense Sylvester/Bareiss
    resultant, from the same draws as ``gen_method2_candidate``."""
    a = []
    for _ in range(5):
        cs = [curve_mod._rand_coeff(rng, h) for _ in range(d + 1)]
        while not cs[-1]:
            cs[-1] = curve_mod._rand_coeff(rng, h)
        a.append(MPoly(3, {(0, 0, k): rat(c) for k, c in enumerate(cs)}))
    a1, a2, a3, a4, a5 = a
    x, y = MPoly.variable(3, 0), MPoly.variable(3, 1)
    return dense_reference.resultant(x ** 3 - a1 * x - a2,
                                     y - a3 - a4 * x - a5 * x ** 2, 2)


@settings(max_examples=30)
@given(st.integers(1, 3), st.sampled_from([1, 2, 8, 20]), st.integers(0, 10 ** 6))
def test_method2_elimination_matches_the_dense_resultant(d, h, seed):
    got = curve_mod.gen_method2_candidate(d, h, random.Random(seed))
    want = _method2_reference(d, h, random.Random(seed))
    assert got == want and poly_str(got) == poly_str(want)


def test_method2_rejects_or_returns_valid():
    # most candidates have unsupported singularities; either outcome is
    # acceptable but must be typed and deterministic
    try:
        c = gen_method2(2, seed=11, budget=6)
        assert c.validated and c.genus >= 3
    except GenerationFailed as e:
        assert "rejected by validation" in str(e)


def test_singular_model_low_genus_fails_before_any_attempt(monkeypatch):
    # a quintic with a triple point and three nodes has genus 6 - 3 - 3 = 0
    calls = []
    monkeypatch.setattr(curve_mod, "validate_curve",
                        lambda *a, **k: calls.append(a))
    assigned = [((0, 0, 1), 3), ((1, 0, 0), 2), ((0, 1, 0), 2), ((1, 1, 0), 2)]
    with pytest.raises(GenerationFailed, match="genus 0 < 3"):
        gen_singular_model(5, assigned, seed=1)
    assert calls == []


def test_singular_model_collinear_excess_fails_before_any_attempt(monkeypatch):
    # four nodes on z = 0 meet a sextic with multiplicity 8 > 6, so by
    # Bezout the line is a component of every candidate
    calls = []
    monkeypatch.setattr(curve_mod, "validate_curve",
                        lambda *a, **k: calls.append(a))
    assigned = [((1, 0, 0), 2), ((0, 1, 0), 2), ((1, 1, 0), 2), ((1, 2, 0), 2)]
    with pytest.raises(GenerationFailed, match="summing to 8 > 6"):
        gen_singular_model(6, assigned, seed=1)
    assert calls == []


def test_singular_model_hits_assignment(two_node_quintic, five_nodal_sextic):
    assert two_node_quintic.genus == 4
    assert sorted(s.multiplicity for s in two_node_quintic.sings) == [2, 2]
    assert five_nodal_sextic.genus == 5
    assert len(five_nodal_sextic.sings) == 5


def test_a_node_with_a_64_bit_coordinate_validates_quickly():
    """The quintic y^2 z^3 - x^2 z^3 + x^5 + y^5 + x y^4 has a node at
    (0 : 0 : 1); under y -> y - N z it moves to (0 : N : 1), N a product of
    two 32-bit primes.  Its x- and y-coordinates come from linear factors,
    whose roots are read off without factoring N."""
    n = 4294967291 * 4294967279
    x, y, z = (MPoly.variable(3, i) for i in range(3))
    f = P("y^2*z^3 - x^2*z^3 + x^5 + y^5 + x*y^4").substitute([x, y - z * rat(n), z])
    t0 = time.perf_counter()
    curve = validate_curve(f)
    assert time.perf_counter() - t0 < 2
    assert [(s.coords, s.multiplicity) for s in curve.sings] == \
        [((rat(0), rat(n), rat(1)), 2)]
    assert curve.genus == 5


# --- curve file format ---------------------------------------------------------------

def test_curve_file_round_trip(proj5):
    text = write_curve_file(proj5, comments=("example",))
    data = parse_curve_file(text)
    assert data["f"] == proj5.f
    assert len(data["sings"]) == 1
    c2 = validate_curve(data["f"], declared_sings=data["sings"])
    assert c2.genus == proj5.genus


def test_curve_file_parse_errors():
    with pytest.raises(ParseError):
        parse_curve_file("sing = (0:0:1) mult 2\n")      # no f line
    with pytest.raises(ParseError):
        parse_curve_file("f = x^4 + w\n")
    with pytest.raises(ParseError):
        parse_curve_file("f = x^4 + y^4 + z^4\nsing = (0:0) mult 2\n")
    with pytest.raises(ParseError):
        parse_curve_file("f = x^4 + y^4 + z^4\nfield = R\n")


def test_curve_file_point_and_field():
    data = parse_curve_file(
        "# comment\nf = x^3*y + y^3*z + z^3*x\npoint = (0:0:1)\nfield = Q\n")
    assert data["point"] == (rat(0), rat(0), rat(1))
    data = parse_curve_file("f = x^3*y + y^3*z + z^3*x\npoint = 1/2 : 0 : 1\n")
    assert data["point"] == (rat(1, 2), rat(0), rat(1))
    data = parse_curve_file("f = x^4 + y^4 + z^4\nfield = Fp 10007\n")
    assert data["field"].p == 10007
