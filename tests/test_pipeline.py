import importlib.util
import os
import subprocess
import sys
import textwrap
from itertools import islice
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import assume, given, settings, strategies as st

from trigonal import canonical, curve as curve_mod, liealg, linalg, modular, pipeline
from trigonal.canonical import adjoint_basis, cubic_count
from trigonal.cli import main
from trigonal.curve import gen_trigonal_projection, validate_curve, write_curve_file
from trigonal.errors import (ChainCountUnexpected, CurveUnsupported, DegenerateFiber,
                             HyperellipticInput, InvalidInput, PointNotOnCurve,
                             TrigonalError, UnsupportedInput)
from trigonal.pipeline import decide, g3_map, map_degree
from trigonal.poly import MPoly, parse_poly, poly_str
from trigonal.modular import fp_bivariate_table
from trigonal.scalars import QQ, PrimeField, QuadExt, QuadraticField, rat
from trigonal.scroll import PencilMap


_SPEC = importlib.util.spec_from_file_location(
    "perfbench_corpus", Path(__file__).resolve().parent.parent / "perfbench" / "corpus.py")
corpus = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(corpus)


def _pencil(ptext, qtext, fld=QQ):
    return PencilMap(p=parse_poly(ptext), q=parse_poly(qtext), field=fld)


# --- fiber counting ------------------------------------------------------------

def test_projection_pencil_on_method1_curve(m1_cubic):
    # the coordinate projection (x : z) is 3:1 on a deg_y=3 curve
    deg, draws = map_degree(m1_cubic, _pencil("x", "z"))
    assert deg == 3
    # two agreeing draws end the check, each mod its own prime below 2^30
    assert len(draws) == 2
    assert all(d["degree"] == 3 and d["prime"] < 1 << 30 for d in draws)
    assert draws[0]["prime"] > draws[1]["prime"]


def test_pencil_through_point_on_klein_quartic(klein):
    # lines through (0:0:1), which lies on the curve: 4 - 1 = 3
    deg, _ = map_degree(klein, _pencil("x", "y"))
    assert deg == 3
    # (x : z) also projects from a point of the curve, namely (0:1:0)
    deg, _ = map_degree(klein, _pencil("x", "z"))
    assert deg == 3


def test_projection_from_point_off_curve_is_degree_four(fermat_quartic):
    # (0:1:0) is not on x^4+y^4+z^4, so the pencil (x : z) has degree 4
    deg, _ = map_degree(fermat_quartic, _pencil("x", "z"))
    assert deg == 4


def test_map_degree_over_quadratic_field(m1_cubic):
    fld = QuadraticField(2)
    sqrt2 = QuadExt(0, 1, 2)
    x, y, z = (MPoly(3, {e: fld.coerce(1)}) for e in ((1, 0, 0), (0, 1, 0), (0, 0, 1)))
    sqrt2_z = MPoly(3, {(0, 0, 1): sqrt2})
    # (x + sqrt(2) z : z) is (x : z) followed by a translation of P^1
    deg, draws = map_degree(m1_cubic, PencilMap(p=x + sqrt2_z, q=z, field=fld))
    assert deg == 3
    assert len(draws) == 2
    assert all(d["prime"] < 1 << 30 for d in draws)
    assert draws[0]["prime"] > draws[1]["prime"]
    # lines through (sqrt(2) : 0 : 1), a point of this smooth quartic: the
    # degree drops from 4 to 3 only if sqrt(2) is sent to a root of 2 mod p
    quartic = validate_curve(parse_poly("x^2 - 2*z^2") * parse_poly("x^2 + z^2")
                             + parse_poly("y") * parse_poly("y^3 + x*z^2 + z^3"))
    deg2, draws2 = map_degree(quartic, PencilMap(p=y, q=x - sqrt2_z, field=fld))
    assert deg2 == 3
    for d in draws + draws2:
        assert d["degree"] == 3
        assert pow(2, (d["prime"] - 1) // 2, d["prime"]) == 1


@pytest.mark.parametrize("delta", [2, -1, 7])
def test_fiber_primes_send_sqrt_delta_to_its_smaller_root(delta):
    # the image of sqrt(delta) is fixed, so the fiber draws repeat: the
    # smaller of the two roots mod p, at the walk primes where delta is a
    # nonzero square
    primes = islice(pipeline._fiber_primes(QuadraticField(delta)), 12)
    for p, root in primes:
        assert root * root % p == delta % p and 0 < root < p - root


def test_map_degree_over_small_prime_field():
    # the Klein quartic over F_101, and a quintic over F_1009 whose three
    # nodes are off the coordinate points: its adjoint conics have residue
    # coefficients, and the combinations of its pencil reach past q
    quintic = curve_mod.gen_singular_model(
        5, [((1, 2, 3), 2), ((2, -1, 1), 2), ((1, 1, 0), 2)], seed=1).f
    for q, f, point in ((101, parse_poly("x^3*y + y^3*z + z^3*x"), (0, 0, 1)),
                        (1009, quintic, (2, 535, 1))):
        curve = validate_curve(f, base_point=point, fld=PrimeField(q))
        pm = g3_map(curve, adjoint_basis(curve))
        assert all(type(c) is int and 0 <= c < q
                   for form in (pm.p, pm.q) for c in form.terms.values())
        deg, draws = map_degree(curve, pm)
        assert deg == 3
        assert all(d["prime"] == q for d in draws)


_SHEAR_FIELDS = {
    "Q": (QQ, lambda a, b: rat(a, b)),
    "Q(sqrt 2)": (QuadraticField(2), lambda a, b: QuadExt(rat(a, b), rat(b - 3), 2)),
    "F101": (PrimeField(101), lambda a, b: a % 101),
}


@settings(max_examples=60, deadline=None)
@given(st.data(), st.sampled_from(sorted(_SHEAR_FIELDS)), st.integers(-3, 3))
def test_residue_shear_matches_the_exact_shear(data, name, lam):
    """The shear of a form's table mod p against the table of the form
    sheared exactly by ``MPoly.substitute``, with no trailing zero row, over
    Q and Q(sqrt 2) at their first fiber prime and over F_101."""
    fld, scalar = _SHEAR_FIELDS[name]
    p, root = next(iter(pipeline._fiber_primes(fld)))
    d = data.draw(st.integers(1, 5))
    monos = [(i, j, d - i - j) for i in range(d + 1) for j in range(d + 1 - i)]
    coeffs = data.draw(st.lists(st.tuples(st.integers(-9, 9), st.integers(1, 5)),
                                min_size=len(monos), max_size=len(monos)))
    u = MPoly(3, {m: scalar(a, b) for m, (a, b) in zip(monos, coeffs) if a})
    if not u:
        u = MPoly(3, {(0, d, 0): fld.coerce(1)})
    x, y, z = (MPoly.variable(3, i) for i in range(3))
    exact = fp_bivariate_table(u.substitute([x + y * fld.coerce(lam), y, z]), p, root)
    while not exact[-1]:
        exact.pop()
    assert pipeline._shear(fp_bivariate_table(u, p, root), lam, p) == exact


def test_only_ints_reach_the_fiber_resultants(m1_cubic, monkeypatch):
    """The tables of f and of each h = p - t*q are int lists mod the draw
    prime, over Q and for a pencil over Q(sqrt 2)."""
    types = set()
    keepvar = pipeline.fp_resultant_keepvar

    def spy(a, b, p):
        types.update(type(c) for table in (a, b) for row in table for c in row)
        return keepvar(a, b, p)

    monkeypatch.setattr(pipeline, "fp_resultant_keepvar", spy)
    halves = MPoly(3, {(1, 0, 0): rat(1, 2), (0, 0, 1): rat(1, 3)})
    assert map_degree(m1_cubic, PencilMap(p=halves, q=parse_poly("z"), field=QQ))[0] == 3
    fld = QuadraticField(2)
    x, z = (MPoly(3, {e: fld.coerce(1)}) for e in ((1, 0, 0), (0, 0, 1)))
    sqrt2_z = MPoly(3, {(0, 0, 1): QuadExt(rat(1, 3), 1, 2)})
    assert map_degree(m1_cubic, PencilMap(p=x + sqrt2_z, q=z, field=fld))[0] == 3
    assert types == {int}


def test_every_residue_of_the_scan_and_the_stabilizer_kernel_is_one_digit(monkeypatch):
    """Over the seed-1 inputs of the three benchmark workloads, every table
    that validation and the fiber check hand the resultant engine, and
    every row that the certified kernel hands its echelon, holds residues
    in [0, 2^30): one CPython digit each."""
    digit = range(1 << 30)
    tables, rows, wide = [0], [0], []

    def spy_on(module):
        keepvar = module.fp_resultant_keepvar

        def spy(a, b, p):
            tables[0] += 1
            wide.extend(c for t in (a, b) for row in t for c in row if c not in digit)
            return keepvar(a, b, p)
        monkeypatch.setattr(module, "fp_resultant_keepvar", spy)

    class SpyEchelon(modular.FpEchelon):
        def add(self, row):
            if self.p:
                rows[0] += 1
                wide.extend(c for c in (row.values() if isinstance(row, dict) else row)
                            if c not in digit)
            return super().add(row)

    spy_on(curve_mod)
    spy_on(pipeline)
    monkeypatch.setattr(modular, "FpEchelon", SpyEchelon)
    for workload in corpus.WORKLOADS:
        for item in corpus.build(workload, 1):
            try:
                decide(validate_curve(item.f), seed=1)
            except UnsupportedInput:
                pass
    assert tables[0] and rows[0] and not wide


@pytest.mark.parametrize("bits", [128, 160])
def test_a_node_far_out_in_y_decides_within_the_kernel_budget(bits):
    """The nodal quintic with its node moved to (0 : 2^bits + 1 : 1) is a
    Scroll.  Its stabilizer kernel has entries of several hundred bits,
    lifted by CRT over more 30-bit walk primes than 16."""
    x, y, z = (MPoly.variable(3, i) for i in range(3))
    f = parse_poly("y^2*z^3 - x^2*z^3 + x^5 + y^5 + x*y^4").substitute(
        [x, y - z * rat((1 << bits) + 1), z])
    rep = decide(validate_curve(f))
    assert (rep.case, rep.trigonal, rep.verified_degree) == ("Scroll", True, 3)
    assert 16 < len(rep.counters["liealg"]["primes"]["used"]) <= modular.KERNEL_PRIMES


def test_map_degree_evaluates_no_form(m1_cubic, klein, monkeypatch):
    """The shears' leading y-coefficients are read off the z-free
    coefficients of f as ints, so the fiber check evaluates no MPoly."""
    def refuse(*args):
        raise AssertionError("map_degree evaluated a form")

    monkeypatch.setattr(MPoly, "evaluate", refuse)
    assert map_degree(m1_cubic, _pencil("x", "z"))[0] == 3
    fld = PrimeField(10007)
    klein_q = validate_curve(klein.f.map_coeffs(fld.coerce), fld=fld)
    assert map_degree(klein_q, _pencil("x", "z", fld))[0] == 3


def test_pencil_outside_a_prime_field_is_invalid_input():
    """The pencil (x/101 : y) on the Klein quartic over F_101 has a
    coefficient that F_101 does not hold: a typed error at once, not a hang
    on the moduli of the fiber check.  The child process fails the test if
    it outlives its timeout."""
    code = textwrap.dedent("""
        import time
        from trigonal.curve import validate_curve
        from trigonal.pipeline import map_degree
        from trigonal.poly import MPoly, parse_poly
        from trigonal.scalars import PrimeField, rat
        from trigonal.scroll import PencilMap
        fld = PrimeField(101)
        klein = validate_curve(parse_poly("x^3*y + y^3*z + z^3*x"), fld=fld)
        pencil = PencilMap(p=MPoly(3, {(1, 0, 0): rat(1, 101)}),
                           q=MPoly(3, {(0, 1, 0): rat(1)}), field=fld)
        t0 = time.perf_counter()
        try:
            map_degree(klein, pencil)
        except Exception as e:
            print(type(e).__name__, time.perf_counter() - t0)
    """)
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env=env, timeout=20)
    name, seconds = proc.stdout.split()
    assert name == "InvalidInput" and float(seconds) < 1


@pytest.mark.parametrize("faked, expected", [([3, 4, 4], 4), ([5, 3, 4, 3], 3)])
def test_fiber_check_returns_the_first_degree_seen_twice(m1_cubic, monkeypatch,
                                                         faked, expected):
    """Draws whose degrees disagree are followed by more draws until one
    degree has come out twice, also past the third draw."""
    queue = iter(faked)
    monkeypatch.setattr(pipeline, "fp_squarefree", lambda a, p: [1] * (next(queue) + 1))
    deg, draws = map_degree(m1_cubic, _pencil("x", "z"))
    assert deg == expected
    assert [d["degree"] for d in draws] == faked


def test_fiber_check_gives_up_when_no_degree_repeats(m1_cubic, monkeypatch):
    queue = iter(range(3, 3 + pipeline.FIBER_DRAWS))
    monkeypatch.setattr(pipeline, "fp_squarefree", lambda a, p: [1] * (next(queue) + 1))
    with pytest.raises(DegenerateFiber, match=r"never agreed: \[3, 4, 5, 6, 7, 8\]"):
        map_degree(m1_cubic, _pencil("x", "z"))


def _klein_power_pencil(e, fld):
    klein = validate_curve(parse_poly("x^3*y + y^3*z + z^3*x"), fld=fld)
    pm = PencilMap(p=parse_poly(f"x^{e}").map_coeffs(fld.coerce),
                   q=parse_poly(f"y^{e}").map_coeffs(fld.coerce), field=fld)
    return klein, pm


def test_map_degree_modulus_too_small_is_typed():
    # the resultants of the pencil (x^17 : y^17) with the quartic have
    # Bezout degree 4 * 17 = 68, so they need 69 evaluation points, more
    # than F_67 has
    klein, pm = _klein_power_pencil(17, PrimeField(67))
    with pytest.raises(CurveUnsupported):
        map_degree(klein, pm)


def test_map_degree_of_a_power_pencil_over_a_small_field():
    # (x^12 : y^12) needs 4 * 12 + 1 = 49 of the 67 points of F_67; it is
    # the 3:1 projection from (0:0:1) followed by t -> t^12
    klein, pm = _klein_power_pencil(12, PrimeField(67))
    deg, draws = map_degree(klein, pm)
    assert deg == 36
    assert {d["prime"] for d in draws} == {67}


def test_map_degree_divides_out_the_fixed_part_of_the_pencil():
    # (x^9*y^8 : x^8*y^9) is (x : y) times x^8*y^8: the unreduced h would
    # need 4 * 17 + 1 = 69 points, more than F_67 has, the reduced one 5
    fld = PrimeField(67)
    klein = validate_curve(parse_poly("x^3*y + y^3*z + z^3*x"), fld=fld)
    pm = PencilMap(p=parse_poly("x^9*y^8").map_coeffs(fld.coerce),
                   q=parse_poly("x^8*y^9").map_coeffs(fld.coerce), field=fld)
    deg, draws = map_degree(klein, pm)
    assert deg == 3
    assert {d["prime"] for d in draws} == {67}


def _fiber_check(curve, pencil):
    try:
        return map_degree(curve, pencil)
    except TrigonalError as e:
        return type(e), str(e)


_KLEIN = parse_poly("x^3*y + y^3*z + z^3*x")
_FIXED_PART_FIELDS = {
    "Q": (QQ, lambda a, b: rat(a)),
    "Q(sqrt 2)": (QuadraticField(2), lambda a, b: QuadExt(rat(a), rat(b), 2)),
    "F101": (PrimeField(101), lambda a, b: a % 101),
}


@settings(max_examples=30)
@given(st.data(), st.sampled_from(sorted(_FIXED_PART_FIELDS)), st.sampled_from("yz"))
def test_dividing_out_the_fixed_part_keeps_every_draw(data, name, other):
    """The fiber check of A*(x : y) and A*(x : z) on the Klein quartic, for a
    random form A of degree 1 to 4, gives the same degree and draws as with
    the division by A patched to the identity: Res_y(F, A*(a - t*b)) is
    Res_y(F, A) * Res_y(F, a - t*b) up to a constant, and the shared factor
    drops out of R_t1 / gcd(R_t1, R_t2).  Every shear of the quartic is
    nonzero, so a - t*b is free of y only for (x : y) at a t equal to the
    shear mod the prime; the reduced draw refuses that t, while the
    unreduced h = A*x involves y, so those examples are left out."""
    fld, scalar = _FIXED_PART_FIELDS[name]
    k = data.draw(st.integers(1, 4))
    monos = [(i, j, k - i - j) for i in range(k + 1) for j in range(k + 1 - i)]
    coeffs = data.draw(st.lists(st.tuples(st.integers(-9, 9), st.integers(-3, 3)),
                                min_size=len(monos), max_size=len(monos)))
    a = MPoly(3, {m: scalar(u, v) for m, (u, v) in zip(monos, coeffs) if u or v})
    if not a:
        a = MPoly(3, {(0, 0, k): fld.coerce(1)})
    second = (0, 1, 0) if other == "y" else (0, 0, 1)
    u, v = (MPoly(3, {e: fld.coerce(1)}) for e in ((1, 0, 0), second))
    pencil = PencilMap(p=a * u, q=a * v, field=fld)
    curve = validate_curve(_KLEIN.map_coeffs(fld.coerce), fld=fld) if name == "F101" \
        else validate_curve(_KLEIN)
    reduced = _fiber_check(curve, pencil)
    with mock.patch.object(pipeline, "_divide_fixed_part", lambda pt, qt, e, p: (pt, qt)):
        plain = _fiber_check(curve, pencil)
    if other == "y" and isinstance(plain, tuple) and isinstance(plain[1], list):
        assume(all((int(t) - d["shear"]) % d["prime"] for d in plain[1] for t in d["t"]))
    assert reduced == plain


def test_the_reduced_pencil_reaches_the_resultants_as_lines(proj5, m1_quartic, monkeypatch):
    """Every corpus pencil is a pencil of lines times a fixed part, so every
    h that the fiber check hands the resultant engine has total degree 1:
    on the projection and method-1 fixtures, and on a projection curve moved
    by (x, y, z) -> (x + z, x + y - 2z, y + z), whose fixed part is a dense
    form."""
    degrees = []
    keepvar = pipeline.fp_resultant_keepvar

    def spy(a, b, p):
        degrees.append(max(len(row) - 1 + j for j, row in enumerate(b) if row))
        return keepvar(a, b, p)

    monkeypatch.setattr(pipeline, "fp_resultant_keepvar", spy)
    x, y, z = (MPoly.variable(3, i) for i in range(3))
    f = gen_trigonal_projection(8, seed=1).f.substitute([x + z, x + y - z * 2, y + z])
    for curve in (proj5, m1_quartic, validate_curve(f)):
        degrees.clear()
        rep = decide(curve, seed=1)
        assert rep.verified_degree == 3
        assert degrees and set(degrees) == {1}
    assert rep.case == "Scroll"


def test_map_degree_rejects_degenerate_pencils(klein):
    with pytest.raises(InvalidInput):
        map_degree(klein, _pencil("x", "x^2"))


def test_projection_generator_raw_pencil(proj5):
    # projecting from the multiplicity-(d-3) point: always 3:1
    deg, _ = map_degree(proj5, _pencil("x", "y"))
    assert deg == 3


# --- genus-3 branch ------------------------------------------------------------

def test_g3_map_klein(klein):
    pm = g3_map(klein, adjoint_basis(klein))
    assert {poly_str(pm.p), poly_str(pm.q)} == {"x", "y"}
    deg, _ = map_degree(klein, pm)
    assert deg == 3


def test_g3_map_needs_a_validated_point_on_the_curve(klein, fermat_quartic):
    """The point comes from validation, which refuses one off the curve;
    a curve validated without a point has no pencil."""
    with pytest.raises(PointNotOnCurve):
        validate_curve(klein.f, base_point=(1, 1, 1))
    with pytest.raises(PointNotOnCurve, match="no base point"):
        g3_map(fermat_quartic, adjoint_basis(fermat_quartic))


def test_g3_decide_without_point_degrades(fermat_quartic):
    rep = decide(fermat_quartic, seed=1)
    assert rep.case == "Genus3" and rep.trigonal is True
    assert not rep.map_available and rep.verified_degree is None
    assert any("no base point" in n for n in rep.notes)


def test_g3_decide_with_marked_point():
    c = gen_trigonal_projection(4, seed=1)   # marks (0:0:1)
    rep = decide(c, seed=1)
    assert rep.trigonal and rep.map_available and rep.verified_degree == 3


# --- full decide ------------------------------------------------------------------

def test_decide_scroll(proj5):
    rep = decide(proj5, seed=3)
    assert rep.case == "Scroll" and rep.trigonal is True
    assert rep.verified_degree == 3
    assert rep.petri == "QuadricsInsufficient" and rep.agreement is True
    assert rep.lie_dim == 6 and rep.levi_type == "sl2"
    assert all(d["degree"] == 3 for d in rep.fiber_draws)


def test_decide_p1xp1_both_rulings(two_node_quintic):
    rep = decide(two_node_quintic, seed=3)
    assert rep.case == "P1xP1" and rep.trigonal is True
    assert rep.verified_degree == 3
    assert "2 of 2" in rep.notes[0]
    assert [c[0] for c in rep.extras["verified"]] == [0, 1]
    assert rep.extras["failures"] == []


def test_decide_veronese(fermat_quintic):
    rep = decide(fermat_quintic, seed=3)
    assert rep.case == "Veronese" and rep.trigonal is False
    assert rep.lie_dim == 8 and rep.levi_type == "sl3"
    assert rep.genus == 6
    assert rep.petri == "QuadricsInsufficient" and rep.agreement is True


def test_decide_generic_negative(five_nodal_sextic):
    rep = decide(five_nodal_sextic, seed=3)
    assert rep.case == "CurveCutByQuadrics" and rep.trigonal is False
    assert rep.lie_dim == 0
    assert rep.petri == "GeneratedByQuadrics" and rep.agreement is True


def test_decide_hyperelliptic_raises(hyper5):
    with pytest.raises(HyperellipticInput):
        decide(hyper5, seed=3)


def test_decide_requires_validation(klein):
    from trigonal.curve import PlaneCurve
    fake = PlaneCurve(f=klein.f, degree=4, sings=(), genus=3, validated=False)
    with pytest.raises(InvalidInput):
        decide(fake)


def test_decide_reembedded_balanced_scroll(m1_quartic):
    rep = decide(m1_quartic, seed=3)
    assert rep.case == "P1xP1" and rep.trigonal and rep.verified_degree == 3
    assert "1 of 1" in rep.notes[0]
    # the other summand decomposes into three 2-chains
    [(_, err)] = rep.extras["failures"]
    assert isinstance(err, ChainCountUnexpected)


def test_a_refused_summand_does_not_hide_the_map_error(m1_quartic, tmp_path, monkeypatch):
    """With the one candidate's fiber check failing, the map stage raises
    that input-side error, not the internal refusal of the other summand,
    and the CLI exits 2 for it."""
    def degenerate(*args, **kwargs):
        raise DegenerateFiber("forced degenerate fiber")

    monkeypatch.setattr(pipeline, "map_degree", degenerate)
    with pytest.raises(DegenerateFiber, match=r"\[map\] forced degenerate fiber"):
        decide(m1_quartic)
    path = tmp_path / "m1.curve"
    path.write_text(write_curve_file(m1_quartic))
    assert main(["decide", str(path)]) == 2


def _record_calls(monkeypatch, name):
    """First argument of every call to liealg.<name>, whether decide looks
    it up in pipeline or liealg looks it up in its own module."""
    calls = []
    real = getattr(liealg, name)

    def recorded(*args, **kwargs):
        calls.append(args[0])
        return real(*args, **kwargs)

    for mod in (pipeline, liealg):
        monkeypatch.setattr(mod, name, recorded, raising=False)
    return calls


def test_p1xp1_lie_work_runs_once(m1_quartic, monkeypatch):
    splits = _record_calls(monkeypatch, "split_two_ideals")
    radicals = _record_calls(monkeypatch, "radical")
    rep = decide(m1_quartic, seed=3)
    assert rep.case == "P1xP1"
    assert len(splits) == 1
    # levi() takes the radical of the stabilizer once (and once more of the
    # lifted complement, as its own semisimplicity check)
    assert sum(a is rep.extras["lie"] for a in radicals) == 1


@pytest.mark.parametrize("fixture, what", [
    ("proj5", "scroll ruling"),
    ("two_node_quintic", "ruling of the quadric"),
    ("proj4", "marked-point pencil"),
], ids=["scroll", "p1xp1", "genus3"])
def test_map_stage_errors_carry_the_stage_label(fixture, what, request, monkeypatch):
    """Every case raises its first failure: the DegenerateFiber of the fiber
    check, or the degree it verified instead of 3."""
    curve = (gen_trigonal_projection(4, seed=1) if fixture == "proj4"
             else request.getfixturevalue(fixture))

    def degenerate(curve, pencil, seed=0):
        raise DegenerateFiber("no agreement")

    monkeypatch.setattr(pipeline, "map_degree", degenerate)
    with pytest.raises(DegenerateFiber, match=r"^\[map\] no agreement"):
        decide(curve, seed=3)
    monkeypatch.setattr(pipeline, "map_degree", lambda curve, pencil, seed=0: (4, []))
    with pytest.raises(CurveUnsupported,
                       match=rf"^\[map\] {what} verified at degree 4, not 3$"):
        decide(curve, seed=3)


def test_report_determinism(proj5):
    a = decide(proj5, seed=5).to_json(with_timings=False)
    b = decide(proj5, seed=5).to_json(with_timings=False)
    assert a == b


def test_report_serialization_shape(proj5):
    import json
    rep = decide(proj5, seed=5)
    data = json.loads(rep.to_json())
    assert list(data) == ["input", "seed", "genus", "adjoint_dim",
                          "quadric_dim", "lie_dim", "levi_type",
                          "case", "trigonal", "map", "verified_degree",
                          "fiber_draws", "petri", "agreement", "notes",
                          "timings", "counters"]
    assert data["map"]["field"] == "Q"
    assert list(data["timings"]) == ["adjoints", "quadrics", "liealg", "map",
                                     "petri"]
    assert list(data["counters"]) == ["liealg", "petri"]
    lie = data["counters"]["liealg"]
    assert sorted(lie) == ["eq_rows", "nullity", "primes", "stored_nnz"]
    # the trace is an equation of the system, so the kernel is the algebra
    assert lie["nullity"] == rep.lie_dim and lie["eq_rows"] > 0
    assert lie["primes"]["used"] == lie["primes"]["tried"][-1:]
    # the echelon holds rank = g^2 - nullity normalized rows, each with a 1
    assert lie["stored_nnz"] >= rep.genus ** 2 - lie["nullity"]
    petri = data["counters"]["petri"]
    assert petri == {"rows": rep.quadric_dim * rep.genus, "rank": petri["rank"],
                     "expected": cubic_count(rep.genus)}
    assert petri["rank"] < petri["expected"]      # trigonal: a strict gap
    bare = json.loads(rep.to_json(with_timings=False))
    assert "timings" not in bare and "counters" not in bare


def test_scaling_invariance(proj5):
    scaled = validate_curve(proj5.f.map_coeffs(lambda c: rat(7, 3) * c))
    a = decide(proj5, seed=5)
    b = decide(scaled, seed=5)
    for attr in ("genus", "quadric_dim", "lie_dim", "levi_type",
                 "case", "trigonal", "verified_degree", "petri", "agreement"):
        assert getattr(a, attr) == getattr(b, attr)


# --- prime-field mode ---------------------------------------------------------------

def test_prime_field_generic_negative(five_nodal_sextic):
    F = PrimeField(149)
    f = five_nodal_sextic.f.map_coeffs(F.coerce)
    curve = validate_curve(f, fld=F)
    assert curve.genus == 5
    rep = decide(curve, seed=1)
    assert rep.case == "CurveCutByQuadrics" and rep.trigonal is False
    assert rep.lie_dim == 0 and rep.agreement is True
    assert {"liealg", "petri"} <= set(rep.timings)


def test_prime_field_beyond_the_old_scan_cap_gives_the_q_verdict(klein):
    F = PrimeField(10007)
    curve = validate_curve(klein.f.map_coeffs(F.coerce), base_point=(0, 0, 1), fld=F)
    assert curve.sings == () and curve.genus == 3
    a, b = decide(klein, seed=1), decide(curve, seed=1)
    for attr in ("genus", "adjoint_dim", "quadric_dim", "case", "trigonal",
                 "verified_degree"):
        assert getattr(a, attr) == getattr(b, attr)
    assert b.case == "Genus3" and b.verified_degree == 3


def test_prime_field_positive_dimension_unsupported(proj5):
    F = PrimeField(163)
    f = proj5.f.map_coeffs(F.coerce)
    curve = validate_curve(f, fld=F)
    with pytest.raises(CurveUnsupported):
        decide(curve, seed=1)


def test_every_elimination_of_a_prime_field_decide_is_mod_q(monkeypatch, klein,
                                                            two_node_quintic):
    """Over F_10007 the scalars are residues, and every ``FpEchelon`` that
    ``canonical``, ``liealg``, ``linalg`` and ``pipeline`` build is mod
    10007: an exact echelon fed residues would eliminate over Q.  The decides
    cover the genus-3 pencil, the quadrics, Petri and the stabilizer's
    solution echelon, and the two-node quintic, which stops at liealg."""
    F = PrimeField(10007)
    coerced = (PrimeField(101).coerce(rat(1, 2)), QQ.coerce(rat(4, 2)))
    assert [(x, type(x)) for x in coerced] == [(51, int), (2, int)]
    built = []

    class Spy(modular.FpEchelon):
        def __init__(self, ncols, p=0):
            built.append((sys._getframe(1).f_code.co_name, p))
            super().__init__(ncols, p)

    for module in (canonical, liealg, linalg, pipeline):
        monkeypatch.setattr(module, "FpEchelon", Spy)
    sextic = curve_mod.gen_singular_model(6, [((0, 0, 1), 2)], seed=1)
    for f, point, stops in ((klein.f, (0, 0, 1), False),
                            (parse_poly("x^7 + y^7 + z^7"), None, False),
                            (sextic.f, None, False),
                            (two_node_quintic.f, None, True)):
        built.clear()
        curve = validate_curve(f.map_coeffs(F.coerce), base_point=point, fld=F)
        if stops:
            with pytest.raises(CurveUnsupported, match="prime-field mode stops"):
                decide(curve, seed=1)
        else:
            decide(curve, seed=1)
        assert built and all(p == F.p for _, p in built), built
        assert ("stabilizer_algebra" in dict(built)) == (curve.genus > 3 and not stops)
