import importlib.util
from math import comb, gcd
from pathlib import Path

import pytest

import dense_reference as ref
from dense_reference import rank
from trigonal import canonical, modular
from trigonal.canonical import (PetriResult, adjoint_basis, cubic_count,
                                forms_through_image, hyperelliptic_test,
                                monomials, petri_test)
from trigonal.curve import gen_singular_model, validate_curve
from trigonal.errors import InvalidInput, UnexpectedDimension, UnsupportedInput
from trigonal.modular import FpEchelon
from trigonal.poly import parse_poly, poly_str
from trigonal.scalars import FpElt, PrimeField, is_rational

_SPEC = importlib.util.spec_from_file_location(
    "perfbench_corpus", Path(__file__).resolve().parent.parent / "perfbench" / "corpus.py")
corpus = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(corpus)


def test_monomial_order_is_deterministic():
    assert monomials(3, 1) == ((1, 0, 0), (0, 1, 0), (0, 0, 1))
    assert monomials(2, 2) == ((2, 0), (1, 1), (0, 2))
    assert len(monomials(4, 3)) == 20
    # one shared result, which no caller can change
    assert monomials(4, 3) is monomials(4, 3)
    assert isinstance(monomials(4, 3), tuple)


def test_adjoints_of_smooth_quartic(fermat_quartic):
    cm = adjoint_basis(fermat_quartic)
    assert [poly_str(w) for w in cm.forms] == ["x", "y", "z"]


def test_adjoints_two_node_quintic(two_node_quintic):
    # conics through both nodes: 6 - 2 = 4 = genus
    cm = adjoint_basis(two_node_quintic)
    assert cm.genus == 4 and cm.degree == 2
    for s in two_node_quintic.sings:
        for w in cm.forms:
            assert not w.evaluate(list(s.coords))


def test_adjoints_sextic_triple_point():
    from trigonal.curve import gen_trigonal_projection
    c = gen_trigonal_projection(6, seed=2)   # one ordinary triple point
    cm = adjoint_basis(c)
    assert cm.genus == 7 and cm.degree == 3
    # vanishing to order 2: all first partials vanish at the point too
    pt = list(c.sings[0].coords)
    for w in cm.forms:
        assert not w.evaluate(pt)
        for i in range(3):
            assert not w.derivative(i).evaluate(pt)


def test_adjoint_dimension_law_includes_hyperelliptic(hyper5):
    assert adjoint_basis(hyper5).genus == hyper5.genus == 3


def test_quadric_dimensions(fermat_quartic, fermat_quintic, two_node_quintic):
    cases = [(fermat_quartic, 0), (fermat_quintic, 6), (two_node_quintic, 1)]
    for curve, expect in cases:
        cm = adjoint_basis(curve)
        q = forms_through_image(curve, cm)
        assert q.dim == expect
        g = curve.genus
        assert expect == (g - 2) * (g - 3) // 2


def test_cubic_dimension_law(five_nodal_sextic):
    # the library builds no cubics; the reference construction does
    cm = adjoint_basis(five_nodal_sextic)
    c3 = ref.forms_through_image(five_nodal_sextic, cm, 3)
    g = five_nodal_sextic.genus
    def binom(n, k):
        from math import comb
        return comb(n, k)
    assert c3.dim == binom(g + 2, 3) - (5 * g - 5) == 15


def test_quadric_pullbacks_divisible_by_curve(proj5, two_node_quintic):
    for curve in (proj5, two_node_quintic):
        cm = adjoint_basis(curve)
        q = forms_through_image(curve, cm)
        for vec in q.basis:
            pulled = ref.expand_in_adjoints(vec, q.monomials, cm)
            assert pulled.divisible_by(curve.f)


def test_hyperelliptic_test_values():
    assert hyperelliptic_test(3, 1) is True
    assert hyperelliptic_test(3, 0) is False
    assert hyperelliptic_test(5, 3) is False
    assert hyperelliptic_test(5, 6) is True
    with pytest.raises(UnexpectedDimension):
        hyperelliptic_test(5, 4)


def test_hyperelliptic_curve_hits_the_other_count(hyper5):
    cm = adjoint_basis(hyper5)
    q = forms_through_image(hyper5, cm)
    g = hyper5.genus
    assert q.dim == (g - 1) * (g - 2) // 2
    assert hyperelliptic_test(g, q.dim) is True


def _quadric_multiples(q, g):
    """The vectors of x_i * q over monomials(g, 3), for each basis quadric."""
    index3 = {m: i for i, m in enumerate(monomials(g, 3))}
    for vec in q.basis:
        for i in range(g):
            out = [0] * len(index3)
            for mono, c in zip(q.monomials, vec):
                if c:
                    shifted = list(mono)
                    shifted[i] += 1
                    out[index3[tuple(shifted)]] = c
            yield out


def test_petri_results(five_nodal_sextic, proj5, two_node_quintic, fermat_quintic):
    # petri_test compares against the Noether count; the cubic space it
    # stands for is built here and checked against it, one curve per case
    F = PrimeField(149)
    mod_p = validate_curve(five_nodal_sextic.f.map_coeffs(F.coerce), fld=F)
    for curve, expect in [
            (five_nodal_sextic, PetriResult.GeneratedByQuadrics),
            (proj5, PetriResult.QuadricsInsufficient),
            (two_node_quintic, PetriResult.QuadricsInsufficient),
            (fermat_quintic, PetriResult.QuadricsInsufficient),
            (mod_p, PetriResult.GeneratedByQuadrics)]:
        g = curve.genus
        cm = adjoint_basis(curve)
        q = forms_through_image(curve, cm)
        c3 = ref.forms_through_image(curve, cm, 3)
        assert c3.monomials == monomials(g, 3)
        assert c3.dim == cubic_count(g) == comb(g + 2, 3) - (5 * g - 5)
        cubics = c3.row_space()
        products = list(_quadric_multiples(q, g))
        assert all(cubics.contains(vec) for vec in products)
        result = petri_test(q, g)
        assert result == expect
        assert (result == PetriResult.GeneratedByQuadrics) == (rank(products) == c3.dim)


def test_form_space_bases_are_echelon(proj5):
    cm = adjoint_basis(proj5)
    q = forms_through_image(proj5, cm)
    lead = []
    for vec in q.basis:
        nz = [i for i, x in enumerate(vec) if x]
        assert vec[nz[0]] == 1
        lead.append(nz[0])
    assert lead == sorted(lead)


def test_petri_test_takes_an_exact_span_rank(monkeypatch, proj5):
    """The span rank is taken on one sparse echelon form with no modulus,
    and it is the rank of the dense reference."""
    g = proj5.genus
    qspace = forms_through_image(proj5, adjoint_basis(proj5))
    moduli = []

    class Spy(FpEchelon):
        def __init__(self, ncols, p=None):
            moduli.append(p)
            super().__init__(ncols, p)

    monkeypatch.setattr(canonical, "FpEchelon", Spy)
    assert petri_test(qspace, g) == PetriResult.QuadricsInsufficient
    assert moduli == [None]
    counters = {}
    petri_test(qspace, g, counters)
    assert counters == {"rows": qspace.dim * g,
                        "rank": rank(list(_quadric_multiples(qspace, g))),
                        "expected": cubic_count(g)}
    assert counters["rank"] < cubic_count(g)


# --- the term-map construction against the MPoly reference ---------------------

def _same_basis(curve):
    """The library quadric basis equals the reference's entry for entry, as
    strings; returns the library space."""
    cm = adjoint_basis(curve)
    got = forms_through_image(curve, cm)
    want = ref.forms_through_image(curve, cm, 2)
    assert got.monomials == want.monomials
    assert [[str(x) for x in v] for v in got.basis] == \
        [[str(x) for x in v] for v in want.basis]
    return got


def test_quadric_basis_matches_the_reference_on_the_corpus():
    checked = 0
    for workload in ("trigonal_hi", "dense_nontrigonal", "small_mixed"):
        for seed in (1, 2, 3):
            for item in corpus.build(workload, seed):
                try:
                    curve = validate_curve(item.f)
                except UnsupportedInput:
                    continue
                if curve.genus >= 3:
                    _same_basis(curve)
                    checked += 1
    assert checked == 69


@pytest.mark.parametrize("form,p", [("x^7 + y^7 + z^7", 211),
                                    ("x^6 + y^6 + z^6 + 3*x^2*y^2*z^2", 1009)])
def test_quadric_basis_matches_the_reference_over_prime_fields(form, p):
    F = PrimeField(p)
    curve = validate_curve(parse_poly(form).map_coeffs(F.coerce), fld=F)
    q = _same_basis(curve)
    assert q.dim == (curve.genus - 2) * (curve.genus - 3) // 2 > 0


@pytest.mark.parametrize("seed", range(1, 6))
def test_quadric_basis_matches_the_reference_with_fractional_adjoints(seed):
    curve = gen_singular_model(6, [((1, 2, 3), 2), ((2, -1, 5), 2), ((3, 1, -2), 2)],
                               seed=seed)
    cm = adjoint_basis(curve)
    assert sum(c.denominator != 1 for w in cm.forms for c in w.terms.values()) == 21
    _same_basis(curve)


def test_quadric_basis_matches_the_reference_without_multiples_of_f(
        fermat_quartic, two_node_quintic):
    # 2(d - 3) < d: the relations come from the products alone
    for curve in (fermat_quartic, two_node_quintic):
        assert 2 * (curve.degree - 3) < curve.degree
        _same_basis(curve)


def test_form_space_takes_quadrics_only(proj5):
    with pytest.raises(InvalidInput):
        forms_through_image(proj5, adjoint_basis(proj5), 3)


def test_int_rows_are_primitive_and_span_the_basis(proj5, five_nodal_sextic):
    for curve in (proj5, five_nodal_sextic):
        q = forms_through_image(curve, adjoint_basis(curve))
        assert len(q.int_rows) == q.dim
        for row in q.int_rows:
            assert all(type(x) is int and x for x in row.values())
            assert gcd(*row.values()) == 1
        dense = [[row.get(j, 0) for j in range(len(q.monomials))] for row in q.int_rows]
        assert ref.same_span(dense, q.basis)
        assert q.int_rows is q.int_rows


def test_int_rows_hold_field_elements_over_a_prime_field():
    F = PrimeField(1009)
    curve = validate_curve(parse_poly("x^6 + y^6 + z^6 + 3*x^2*y^2*z^2").map_coeffs(F.coerce),
                           fld=F)
    q = forms_through_image(curve, adjoint_basis(curve))
    assert q.dim == 28
    for row, vec in zip(q.int_rows, q.basis):
        assert row == {j: x for j, x in enumerate(vec) if x}
        assert all(isinstance(x, FpElt) and not is_rational(x) for x in row.values())


def test_petri_test_clears_denominators_at_most_once_per_quadric(monkeypatch,
                                                                 five_nodal_sextic):
    q = forms_through_image(five_nodal_sextic, adjoint_basis(five_nodal_sextic))
    assert any(x.denominator != 1 for v in q.basis for x in v if x)
    calls = []
    clear = modular.clear_denominators

    def spy(row):
        calls.append(len(row))
        return clear(row)

    monkeypatch.setattr(canonical, "clear_denominators", spy)
    monkeypatch.setattr(modular, "clear_denominators", spy)
    assert petri_test(q, five_nodal_sextic.genus) == PetriResult.GeneratedByQuadrics
    assert 0 < len(calls) <= q.dim
