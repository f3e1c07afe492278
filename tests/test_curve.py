import importlib.util
import random
import time
from itertools import islice
from math import prod
from pathlib import Path

import pytest
from hypothesis import assume, given, settings, strategies as st

from trigonal import curve as curve_mod, intutil, modular
from trigonal.curve import (gen_method1, gen_singular_model,
                            gen_trigonal_projection, genus, normalize_point,
                            parse_curve_file, singular_locus, validate_curve,
                            write_curve_file)
from trigonal.errors import (CurveUnsupported, GenerationFailed, GenusTooSmall,
                             InternalInvariantError, InvalidInput, IrrationalSingularLocus,
                             NonOrdinarySingularity, ParseError, PointNotOnCurve,
                             ReducibleSuspected, UnsupportedInput)
from trigonal.linalg import kernel_basis
from trigonal.modular import PRIME_WALK_START, fp_reduce, primes_below
from trigonal.poly import MPoly, parse_poly, taylor_rows
from trigonal.scalars import QQ, PrimeField, QuadraticField, rat

P0, P1, P2 = islice(primes_below(PRIME_WALK_START), 3)

_SPEC = importlib.util.spec_from_file_location(
    "perfbench_corpus", Path(__file__).resolve().parent.parent / "perfbench" / "corpus.py")
corpus = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(corpus)


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
    return sorted(out, key=_by_coords)


def _by_coords(point):
    """Sort key of a (coords, multiplicity) pair: the coordinates as
    strings, which an int and an integral ``rat`` share."""
    return [str(c) for c in point[0]], point[1]


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
    assert sorted(((s.coords, s.multiplicity) for s in pts), key=_by_coords) == \
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
    assert sorted(((s.coords, s.multiplicity) for s in pts), key=_by_coords) == want
    assert len(want) == len(assigned)


def test_nodes_on_a_common_vertical_line_with_large_coordinates_validate_fast():
    # the y-gcd at x = 0 is y^2 - N^2 with N a product of two 46-bit primes:
    # its roots are lifted from roots mod a prime, with no factoring of N^2
    n = 35184372101267 * 35184373076497
    t0 = time.perf_counter()
    curve = gen_singular_model(5, [((0, n, 1), 2), ((0, -n, 1), 2)], seed=1)
    assert time.perf_counter() - t0 < 2
    assert sorted(s.key() for s in curve.sings) == [
        ("0", str(-n), "1"), ("0", str(n), "1")]
    assert all(s.multiplicity == 2 and s.ordinary for s in curve.sings)


# three nodes on x = 0 whose y-gcd is a cubic: at y = N, -N, 2N with N a
# product of two 40-bit primes, and at y = a/b, -a/b, 2a/b with a of 60 bits
# (a 40-bit prime times a 21-bit one) and b a 40-bit prime
LARGE_Y = [549755826233 * 549755912663, rat(549755815003 * 1048583, 549755818237)]


def _three_nodes(y):
    return [((0, y, 1), 2), ((0, -y, 1), 2), ((0, 2 * y, 1), 2)]


@pytest.mark.parametrize("y", LARGE_Y, ids=["N", "a/b"])
def test_three_nodes_with_large_coordinates_validate_fast(y):
    t0 = time.perf_counter()
    curve = gen_singular_model(6, _three_nodes(y), seed=1)
    assert time.perf_counter() - t0 < 1
    assert sorted(s.coords for s in curve.sings) == [
        (rat(0), c, rat(1)) for c in sorted((rat(y), -rat(y), 2 * rat(y)))]
    assert all(s.multiplicity == 2 and s.ordinary for s in curve.sings)


def test_validation_never_factors_an_integer(monkeypatch):
    """Every root the scan takes over Q is lifted from a root mod a prime:
    neither the seed-1 inputs of the three benchmark workloads nor the
    large-coordinate nodes above reach integer factoring."""
    forms = [item.f for workload in corpus.WORKLOADS for item in corpus.build(workload, 1)]
    forms += [gen_singular_model(6, _three_nodes(y), seed=1).f for y in LARGE_Y]

    def refuse(n):
        raise AssertionError(f"validation factored {n}")

    monkeypatch.setattr(intutil, "factorize", refuse)
    for f in forms:
        try:
            validate_curve(f)
        except UnsupportedInput:
            pass


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
    # Taylor pieces of degree 0..m are built once each, and none above m.
    # The rows are built at an int representative of the point, so the calls
    # are keyed by the point it normalizes to.
    grounds, pieces = [], {}
    ground, rows = curve_mod._ground, curve_mod.taylor_rows

    def spy_ground(*args):
        grounds.append(args)
        return ground(*args)

    def spy_rows(monos, point, k):
        pieces.setdefault(normalize_point(point, fld), []).append(k)
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
    # over F_q the residues of the point give a value that vanishes mod q
    # only: 792^4 = -1 mod 10009
    F = PrimeField(10009)
    c = validate_curve(P("x^4 + y^4 + z^4"), base_point=(2 * (792 + F.p), 0, 2), fld=F)
    assert c.base_point == (792, 0, 1)


def test_validate_refuses_a_singular_base_point(two_node_quintic, five_nodal_sextic):
    # (1:0:0) is a node of the genus-4 quintic; (1:2:3) is a node of the
    # sextic, whose partials there vanish mod q only
    with pytest.raises(InvalidInput, match="must be a smooth point"):
        validate_curve(two_node_quintic.f, base_point=(1, 0, 0))
    with pytest.raises(InvalidInput, match="must be a smooth point"):
        validate_curve(five_nodal_sextic.f, base_point=(1, 2, 3), fld=PrimeField(10007))


def test_a_smooth_point_reported_singular_is_an_internal_error(monkeypatch):
    """F, F_x and F_y vanish at every point the scan reports, and F_z by
    Euler's formula, so a multiplicity below 2 means the scan is broken:
    an ``InternalInvariantError`` (exit status 3), not a refused input."""
    point = curve_mod.SingularPoint(normalize_point((0, 0, 1)), 1, True)
    monkeypatch.setattr(curve_mod, "singular_locus", lambda f, fld: ([point], 0))
    with pytest.raises(InternalInvariantError, match="reported singular"):
        validate_curve(P("x^3*y + y^3*z + z^3*x"))


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


def test_scaling_f_changes_neither_the_points_nor_the_scan_prime(proj5, monkeypatch):
    """The scan reduces the primitive integer multiple of f, so it is the
    same for every rational multiple, P0 * f included, and always runs at
    the head of the walk."""
    primes, _ = _spy_scan(monkeypatch)
    for scale in (P0, rat(1, P0), rat(1, P0 * P1)):
        primes.clear()
        curve = validate_curve(proj5.f.map_coeffs(lambda c: c * scale))
        assert [(s.coords, s.multiplicity) for s in curve.sings] == [((0, 0, 1), 2)]
        assert primes and set(primes) == {P0}
    quartic = P("x^4 + y^4 + z^4 + x*y*z^2")
    for scale in (1, 3, P0, rat(1, P0)):
        curve = validate_curve(quartic.map_coeffs(lambda c: c * scale))
        assert (curve.genus, curve.sings) == (3, ())


def _two_node_quintic(node, seed):
    """A quintic with nodes at ``node`` and (0:1:0): a combination of the
    kernel of their Taylor conditions, one coefficient in [-7, 7] each."""
    monos = [(i, j, 5 - i - j) for i in range(6) for j in range(6 - i)]
    rows = [row for pt in (node, (0, 1, 0)) for k in range(2)
            for row in taylor_rows(monos, normalize_point(pt), k)]
    kern = kernel_basis(rows)
    rng = random.Random(seed)
    combo = [rng.randint(-7, 7) for _ in kern]
    return MPoly(3, {m: c for m, c in zip(monos, (sum(a * v[i] for a, v in zip(combo, kern))
                                                   for i in range(len(monos)))) if c})


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_a_node_whose_z_reduces_to_zero_is_not_missed(seed, monkeypatch):
    """A node whose z is 0 mod the scan prime reduces onto z=0, where the
    affine scan cannot see it; ``_missed_on_z0`` counts it, and the scan
    moves to the next prime, as far as the first that does not divide z.
    There both nodes are found, at genus 4.  At (1:0:7) they are found at
    the first prime."""
    primes, _ = _spy_scan(monkeypatch)
    for node, accepted_at in (((1, 0, 7), P0), ((1, 0, P0), P1), ((2, 3, P0), P1),
                              ((1, 0, P0 * P1), P2)):
        primes.clear()
        curve = validate_curve(_two_node_quintic(node, seed))
        assert curve.genus == 4
        assert [s.coords for s in curve.sings] == [(0, 1, 0), normalize_point(node)]
        assert primes[-1] == accepted_at


@pytest.mark.parametrize("h, k", [
    ("x^3 + 2*y^3 + 3*z^3 + x*y*z", "x^5 + x*y^4 + 3*y^5"),
    ("x^3 + y^3 + z^3", "x^5 + y^5"),
], ids=["nets-vanish-mod-P0", "gradient-on-z0-mod-P0"])
def test_a_degenerate_reduction_moves_the_scan_to_the_next_prime(h, k, monkeypatch):
    """f = z^2 h + P0 k is z^2 h mod P0.  The affine nets of the first form
    vanish identically mod P0, and the gradient of the second vanishes on
    the whole line z=0, where the points the affine scan misses cannot be
    counted.  Both curves are smooth, and the scan at P1 says so."""
    primes, scans = _spy_scan(monkeypatch)
    f = P("z^2") * P(h) + P(k).map_coeffs(lambda c: c * P0)
    curve = validate_curve(f)
    assert (curve.genus, curve.sings) == (6, ())
    assert primes[0] == P0 and primes[-1] == P1 and set(primes) == {P0, P1}
    assert len(scans) == 1       # the exact scan of z=0 runs once


def test_a_gradient_vanishing_on_z0_mod_every_scan_prime_is_rejected():
    """f = z^2 h mod each of the first SCAN_PRIMES walk primes: every point
    of z=0 is singular mod each, so the points that reduce onto it cannot be
    counted at any of them."""
    scan_primes = list(islice(primes_below(PRIME_WALK_START), curve_mod.SCAN_PRIMES))
    m = prod(scan_primes)
    f = P("z^2") * P("x^3 + y^3 + z^3") + P("x^5 + y^5").map_coeffs(lambda c: c * m)
    last = scan_primes[-1]
    with pytest.raises(CurveUnsupported,
                       match=f"^the gradient mod {last} vanishes on the whole line z=0$"):
        validate_curve(f)


def test_a_doubled_component_is_refused_at_every_scan_prime(monkeypatch):
    """(x + y + z)^2 h: the affine nets vanish identically over Q, so mod
    every prime, and the form is refused as before once the scan primes run
    out."""
    primes, _ = _spy_scan(monkeypatch)
    with pytest.raises(ReducibleSuspected,
                       match="^all affine resultant nets vanish identically$"):
        validate_curve(P("x + y + z") ** 2 * H)
    assert set(primes) == set(islice(primes_below(PRIME_WALK_START), curve_mod.SCAN_PRIMES))
    with pytest.raises(ReducibleSuspected,
                       match="^all affine resultant nets vanish identically$"):
        validate_curve((P("x + y + z") ** 2 * H).map_coeffs(PrimeField(10007).coerce),
                       fld=PrimeField(10007))


def _locus(f, fld=QQ):
    points, residual = singular_locus(f, fld)
    return {(s.coords, s.multiplicity, s.ordinary) for s in points}, residual


def test_the_scan_over_q_runs_on_int_coefficients(five_nodal_sextic, sqrt2_sextic,
                                                   monkeypatch):
    """The scan takes the primitive integer multiple of f with int
    coefficients: f, 7 f and f / 6 give the same points, multiplicities,
    ordinary flags and residual, and so does a form with rational
    coefficients, whose node (1/3 : 2/5 : 1) lifts from the scan prime.  No
    Fraction reaches a table mod p over Q.  Over F_10007 the points are the
    reductions of those over Q.  On both fields every coefficient that
    reaches the exact half of the scan, the fiber gcds, their square-free
    parts and the tangent-cone gcds, is an int."""
    types, exact = [], []
    table, ground = curve_mod.fp_bivariate_table, curve_mod._ground

    def spy(F, p, root=None):
        types.extend(type(c) for c in F.terms.values())
        return table(F, p, root)

    def record(fn):
        def spied(*polys):
            exact.extend(type(c) for u in polys for c in u)
            return fn(*polys)
        return spied

    def spy_ground(fld):
        g = ground(fld)
        return g._replace(gcd=record(g.gcd), squarefree=record(g.squarefree))

    monkeypatch.setattr(curve_mod, "fp_bivariate_table", spy)
    monkeypatch.setattr(curve_mod, "_ground", spy_ground)
    x, y, z = (MPoly.variable(3, i) for i in range(3))
    shifted = P("y^2*z^3 - x^2*z^3 + x^5 + y^5 + x*y^4").substitute(
        [x - z * rat(1, 3), y - z * rat(2, 5), z])
    nodes = [(1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 1), (1, 2, 3)]
    cases = [(five_nodal_sextic.f, {(normalize_point(c), 2, True) for c in nodes}, 0),
             (P("y^2*z^3 - x^3*z^2 - x^5 - y^5"), {(normalize_point((0, 0, 1)), 2, False)}, 0),
             (sqrt2_sextic, set(), 2),
             (shifted, {(normalize_point((rat(1, 3), rat(2, 5), 1)), 2, True)}, 0)]
    assert any(c.denominator > 1 for c in shifted.terms.values())
    F = PrimeField(10007)
    for f, points, residual in cases:
        for scale in (1, 7, rat(1, 6)):
            types.clear()
            exact.clear()
            assert _locus(f.map_coeffs(lambda c: c * scale)) == (points, residual)
            assert types and set(types) == {int}
            assert exact and set(exact) == {int}
        if residual == 0:       # the nodes over Q(sqrt 2) are rational mod 10007
            exact.clear()
            reduced = {(normalize_point(c, F), m, o) for c, m, o in points}
            assert _locus(f.map_coeffs(F.coerce), F) == (reduced, 0)
            assert exact and set(exact) == {int}


def test_root_finding_powers_on_corpus_inputs_are_pinned(monkeypatch):
    """The polynomial powers ``fp_roots`` takes while seed-1 corpus inputs
    are validated, a count and not a time: the five-nodal sextic's cubic gcd
    of candidate x-values parts by quadratic character in one power, the
    quadratics of the Q(sqrt 2) quintic take none, and the nine nodes of the
    two cubics one."""
    items = {item.name: item.f for item in corpus.build("small_mixed", 1)}
    powers = []
    real = modular.fp_powmod_linear
    monkeypatch.setattr(modular, "fp_powmod_linear",
                        lambda s, e, g, p: powers.append(s) or real(s, e, g, p))
    counts = []
    for name in ("five-nodal sextic", "nodes over Q(sqrt 2) d=5", "product of two cubics"):
        powers.clear()
        try:
            validate_curve(items[name])
        except UnsupportedInput:
            pass
        counts.append(len(powers))
    assert counts == [1, 0, 1]


@pytest.mark.parametrize("fld", [QQ, PrimeField(10007)])
def test_the_last_net_runs_only_for_candidates_outside_fp(five_nodal_sextic, fld,
                                                           monkeypatch):
    """Res_y(F_x, F_y) and Res_y(F, F_x) leave x-values that all lie in F_p
    for the five-nodal sextic and for the Fermat quartic, so Res_y(F, F_y)
    is not computed.  The quartic's two-net gcd is x, and x = 0 carries no
    singular point: the check mod p drops it, as the last net used to.  The
    nodes of two cubics do not all lie over F_p, so the last net runs.  Over
    Q their residual rests on the scan prime alone, so the first two nets
    are taken again at the next walk prime to confirm it; over F_q nothing
    rests on a prime."""
    primes, _ = _spy_scan(monkeypatch)
    rational = 0 if fld == QQ else 1      # of the nine nodes, as in REJECT_TABLE
    cases = [(five_nodal_sextic.f, 5, 0, 2), (P("x^4 + y^4 + z^4"), 0, 0, 2),
             (P("x^3 + y^3 + z^3") * H, rational, 9 - rational, 5 if fld == QQ else 3)]
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
    assert {s.coords for s in points} == \
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


ASSIGNED_NODES = [((1, 0, 0), 2), ((0, 1, 0), 2), ((0, 0, 1), 2)]


@pytest.mark.parametrize("make, provenance, message", [
    (lambda: gen_trigonal_projection(5, coeff_height=1, seed=1),
     {"generator": "projection", "d": 5, "height": 1, "seed": 1, "attempts": 2},
     "no valid projection curve of degree 5 within 50 tries"),
    (lambda: gen_method1(3, coeff_height=1, seed=2),
     {"generator": "m1", "deg_x": 3, "height": 1, "seed": 2, "attempts": 2},
     "no valid method-1 curve with deg_x=3 within 50 tries"),
    (lambda: gen_singular_model(5, ASSIGNED_NODES, coeff_height=1, seed=3),
     {"generator": "singular_model", "d": 5, "assigned": ASSIGNED_NODES, "height": 1,
      "seed": 3, "attempts": 4},
     "no valid curve with the assigned singularities"),
], ids=["projection", "m1", "singular_model"])
def test_generator_provenance_and_failure_are_pinned(make, provenance, message,
                                                    monkeypatch):
    """The attempt a generator accepts pins its draw order: each candidate
    it discards, before or after validation, counts as one attempt.  When
    validation refuses every candidate, the generator says so in its own
    words."""
    assert list(make().provenance.items()) == list(provenance.items())

    def refuse(*args, **kwargs):
        raise UnsupportedInput("refused")

    monkeypatch.setattr(curve_mod, "validate_curve", refuse)
    with pytest.raises(GenerationFailed) as err:
        make()
    assert str(err.value) == message


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


@pytest.mark.parametrize("assigned, message", [
    ([((0, 0, 1), 2), ((0, 0, 2), 2)], "a point is assigned twice"),
    ([((0, 0, 1), 1)], "multiplicity at least 2, got 1"),
], ids=["repeated-point", "multiplicity-one"])
def test_singular_model_bad_assignment_fails_before_any_attempt(monkeypatch, assigned,
                                                               message):
    # (0:0:1) and (0:0:2) are one point, which the genus formula would count
    # twice, and no curve has a simple point as a singular point
    calls = []
    monkeypatch.setattr(curve_mod, "validate_curve",
                        lambda *a, **k: calls.append(a))
    with pytest.raises(InvalidInput, match=message):
        gen_singular_model(5, assigned, seed=1)
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


NODAL_QUINTIC = P("y^2*z^3 - x^2*z^3 + x^5 + y^5 + x*y^4")     # a node at (0:0:1)


def _spy_lifts(monkeypatch):
    """Record the point (r, s) mod p of every p-adic point lift."""
    lifts, real = [], curve_mod._lift_point

    def spy(terms, r, s, *rest):
        lifts.append((r, s))
        return real(terms, r, s, *rest)

    monkeypatch.setattr(curve_mod, "_lift_point", spy)
    return lifts


@settings(max_examples=24)
@given(st.integers(15, 63).flatmap(lambda b: st.integers(1 << b, 1 << (b + 1))),
       st.sampled_from([1, -1]), st.sampled_from([0, 1]))
def test_a_node_moved_far_out_validates_where_it_moved(n, sign, var):
    """The node moved by N in x or in y, 2^15 <= |N| <= 2^64, is found at
    its new place.  A coordinate past sqrt(p/2) does not come out of one
    reconstruction mod the scan prime p; in x it is lifted p-adically as a
    point, in y as a root of the fiber."""
    images = [X, Y, Z]
    images[var] = images[var] - Z * rat(sign * n)
    curve = validate_curve(NODAL_QUINTIC.substitute(images))
    node = [rat(0), rat(0), rat(1)]
    node[var] = rat(sign * n)
    assert [(s.coords, s.multiplicity) for s in curve.sings] == [(tuple(node), 2)]
    assert curve.genus == 5


def test_a_five_fold_point_far_out_in_x_lifts_on_partials_of_order_four(monkeypatch):
    """gen_trigonal_projection(8, seed=1) has an ordinary 5-fold point at
    (0:0:1); moved to (2^40 + 1 : 0 : 1) it is lifted from its one point mod
    p on two of the partials of order 4, and keeps its multiplicity and the
    genus."""
    lifts = _spy_lifts(monkeypatch)
    n = (1 << 40) + 1
    curve = validate_curve(gen_trigonal_projection(8, seed=1).f.substitute([X - Z * n, Y, Z]))
    assert [(s.coords, s.multiplicity) for s in curve.sings] == [((rat(n), 0, 1), 5)]
    assert curve.genus == 11
    assert len(lifts) == 1


def test_two_nodes_whose_x_agree_mod_the_scan_prime_are_both_found(monkeypatch):
    """Nodes at (3 : 2 : 1) and (3 + 7 P0 : 9 : 1) share the root 3 of the
    nets mod P0.  The exact fiber above 3 holds one of them; the fiber mod
    P0 above 3 holds two points, and the one left over, (3, 9), is lifted
    to the second node."""
    lifts = _spy_lifts(monkeypatch)
    far = 3 + 7 * P0
    curve = gen_singular_model(5, [((3, 2, 1), 2), ((far, 9, 1), 2)], seed=1)
    assert [(s.coords, s.multiplicity) for s in curve.sings] == \
        [((3, 2, 1), 2), ((far, 9, 1), 2)]
    assert curve.genus == 4
    assert (3, 9) in lifts


def test_two_nodes_that_meet_mod_the_scan_prime_are_both_found(monkeypatch):
    """Nodes at (3 : 2 : 1) and (3 + 7 P0 : 2 + 5 P0 : 1) are one point of
    f mod P0, with a delta invariant of at least 2, so the node found there
    is no node mod P0 (its cone vanishes or is a square there): the scan
    runs again at P1, where they are apart.  Where they meet mod each scan
    prime, the curve is refused, not validated with one node."""
    primes, _ = _spy_scan(monkeypatch)
    far = (3 + 7 * P0, 2 + 5 * P0, 1)
    curve = gen_singular_model(5, [((3, 2, 1), 2), (far, 2)], seed=1)
    assert [(s.coords, s.multiplicity) for s in curve.sings] == [((3, 2, 1), 2), (far, 2)]
    assert curve.genus == 4
    assert primes[0] == P0 and primes[-1] == P1
    scan_primes = list(islice(primes_below(PRIME_WALK_START), curve_mod.SCAN_PRIMES))
    n = prod(scan_primes)
    errors, real = [], curve_mod.validate_curve

    def spy(f, **kwargs):
        try:
            return real(f, **kwargs)
        except UnsupportedInput as err:
            errors.append(str(err))
            raise

    monkeypatch.setattr(curve_mod, "validate_curve", spy)
    monkeypatch.setattr(curve_mod, "SINGULAR_MODEL_TRIES", 3)
    with pytest.raises(GenerationFailed):
        gen_singular_model(5, [((3, 2, 1), 2), ((3 + 7 * n, 2 + 5 * n, 1), 2)], seed=1)
    assert errors == [f"singular points found may meet others mod {scan_primes[-1]}"] * 3


def test_a_cusp_whose_x_agrees_mod_the_scan_prime_with_a_node_is_found():
    """A quintic with a node at (3 : 2 : 1) and a cusp at (3 + 7 P0 : 9 : 1),
    cone (y - 9)^2, from the kernel of its point conditions.  Mod P0 the
    cusp sits above the node's root 3, where no two partials of order 1
    have an invertible Jacobian, so its x comes from the net over Z, among
    x = 3 itself: only the x with a point whose y is 9 mod P0 is taken."""
    monos = [(i, j, 5 - i - j) for i in range(6) for j in range(6 - i)]
    cusp = (3 + 7 * P0, 9, 1)
    rows = [row for pt in ((3, 2, 1), cusp) for k in range(2)
            for row in taylor_rows(monos, pt, k)]
    rows += taylor_rows(monos, cusp, 2)[1:]        # no u^2, no u v: the cone is v^2
    kern = kernel_basis(rows)
    rng = random.Random(1)
    combo = [rng.randint(-9, 9) for _ in kern]
    f = MPoly(3, {m: c for m, c in zip(monos, (sum(c * v[i] for c, v in zip(combo, kern))
                                               for i in range(len(monos)))) if c})
    with pytest.raises(NonOrdinarySingularity, match=f"at \\({cusp[0]}:9:1\\)"):
        validate_curve(f)


@pytest.mark.parametrize("form", ["y^2*z^3 - x^3*z^2 - x^5 - y^5",     # cusp
                                  "y^2*z^3 - x^4*z + x^5 + y^5"])      # tacnode
def test_a_non_ordinary_point_far_out_in_x_is_found_by_the_net_over_z(form, monkeypatch):
    """Moved to (2^20 + 1 : 0 : 1), past reconstruction mod P0, the point
    has a tangent cone that is a square, so no two partials of order 1 have
    an invertible Jacobian there and Newton's lift has nothing to run on:
    its x is a rational root of the first net, taken over Z by CRT, and the
    curve is rejected for the cone, not for an irrational residual."""
    calls, real = [], curve_mod._net_roots

    def spy(*args):
        calls.append(real(*args))
        return calls[-1]

    monkeypatch.setattr(curve_mod, "_net_roots", spy)
    n = (1 << 20) + 1
    with pytest.raises(NonOrdinarySingularity, match=f"at \\({n}:0:1\\)"):
        validate_curve(P(form).substitute([X - Z * n, Y, Z]))
    assert calls and rat(n) in calls[0]


def test_no_corpus_input_takes_a_lift(monkeypatch):
    """The 99 inputs of the three workloads at seeds 1-3 each have every
    singular point in reach of one reconstruction mod the scan prime, so no
    point is lifted, and the net bound and the net over Z, built only at
    the first lift that needs them, are never built."""
    calls = []
    for name in ("_lift_point", "_net_bound", "_net_roots"):
        real = getattr(curve_mod, name)

        def spy(*args, real=real, name=name):
            calls.append(name)
            return real(*args)

        monkeypatch.setattr(curve_mod, name, spy)
    items = [item for workload in corpus.WORKLOADS for seed in (1, 2, 3)
             for item in corpus.build(workload, seed)]
    assert len(items) == 99
    for item in items:
        try:
            validate_curve(item.f)
        except UnsupportedInput:
            pass
    assert calls == []


@pytest.mark.parametrize("conic, lifted", [("sqrt2", 0), ("i", 2)])
def test_phantom_nodes_mod_the_scan_prime_are_not_counted(sqrt2_sextic, i_sextic, conic,
                                                          lifted, monkeypatch):
    """h is a sextic with nodes at (+-sqrt 2 : 0 : 1) or at (+-i : 0 : 1),
    and f = h + P0 k for a random sextic k.  Over Q f is smooth, but mod P0
    it is h, with two phantom nodes.  P0 = 5 mod 8, so sqrt 2 is not in
    F_P0 and the phantoms have no F_P0 root; i is in F_P0, so they have one
    each, and their lifts fail.  Either way the residual rests on P0 alone;
    the next walk prime does not confirm it, and the scan runs again there.
    h itself stays rejected: the next prime confirms its two nodes."""
    assert P0 % 8 == 5
    h = sqrt2_sextic if conic == "sqrt2" else i_sextic
    rng = random.Random(1)
    k = MPoly(3, {(i, j, 6 - i - j): rat(rng.randint(-9, 9))
                  for i in range(7) for j in range(7 - i)})
    with pytest.raises(IrrationalSingularLocus, match="residual of degree 2$"):
        validate_curve(h)
    lifts = _spy_lifts(monkeypatch)
    curve = validate_curve(h + k.map_coeffs(lambda c: c * P0))
    assert (curve.genus, curve.sings) == (10, ())
    assert len(lifts) == lifted


# --- curve file format ---------------------------------------------------------------

def test_curve_file_round_trip(proj5, five_nodal_sextic):
    text = write_curve_file(proj5, comments=("example",))
    data = parse_curve_file(text)
    assert data["f"] == proj5.f
    assert len(data["sings"]) == 1
    c2 = validate_curve(data["f"], declared_sings=data["sings"])
    assert c2.genus == proj5.genus
    # sing is the one key that may repeat
    assert len(parse_curve_file(write_curve_file(five_nodal_sextic))["sings"]) == 5


def test_curve_file_keeps_the_base_point(klein):
    data = parse_curve_file(write_curve_file(klein))
    assert "point = (0:0:1)" in write_curve_file(klein)
    again = validate_curve(data["f"], base_point=data["point"])
    assert again.base_point == klein.base_point == normalize_point((0, 0, 1))


def test_a_prime_field_is_written_by_its_name():
    """The field descriptor owns its name: ``write_curve_file`` writes it,
    and ``parse_curve_file`` reads the same field back."""
    F = PrimeField(101)
    assert F.name == "Fp 101"
    klein = P("x^3*y + y^3*z + z^3*x")
    text = write_curve_file(validate_curve(klein.map_coeffs(F.coerce), fld=F))
    assert text.endswith("field = Fp 101\n")
    assert parse_curve_file(text)["field"] == F
    assert write_curve_file(validate_curve(klein)).endswith("field = Q\n")


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
