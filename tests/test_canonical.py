from math import comb

import pytest

from dense_reference import rank
from trigonal import canonical
from trigonal.canonical import (PetriResult, adjoint_basis, cubic_count,
                                expand_in_adjoints, forms_through_image,
                                hyperelliptic_test, monomials, petri_test)
from trigonal.curve import validate_curve
from trigonal.errors import UnexpectedDimension
from trigonal.modular import FpEchelon
from trigonal.poly import poly_str
from trigonal.scalars import PrimeField


def test_monomial_order_is_deterministic():
    assert monomials(3, 1) == [(1, 0, 0), (0, 1, 0), (0, 0, 1)]
    assert monomials(2, 2) == [(2, 0), (1, 1), (0, 2)]
    assert len(monomials(4, 3)) == 20


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
        q = forms_through_image(curve, cm, 2)
        assert q.dim == expect
        g = curve.genus
        assert expect == (g - 2) * (g - 3) // 2


def test_cubic_dimension_law(five_nodal_sextic):
    cm = adjoint_basis(five_nodal_sextic)
    c3 = forms_through_image(five_nodal_sextic, cm, 3)
    g = five_nodal_sextic.genus
    def binom(n, k):
        from math import comb
        return comb(n, k)
    assert c3.dim == binom(g + 2, 3) - (5 * g - 5) == 15


def test_quadric_pullbacks_divisible_by_curve(proj5, two_node_quintic):
    for curve in (proj5, two_node_quintic):
        cm = adjoint_basis(curve)
        q = forms_through_image(curve, cm, 2)
        for vec in q.basis:
            pulled = expand_in_adjoints(vec, q.monomials, cm)
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
    q = forms_through_image(hyper5, cm, 2)
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
        q = forms_through_image(curve, cm, 2)
        c3 = forms_through_image(curve, cm, 3)
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
    q = forms_through_image(proj5, cm, 2)
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
    qspace = forms_through_image(proj5, adjoint_basis(proj5), 2)
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
