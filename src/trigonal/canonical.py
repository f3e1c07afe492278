"""Canonical linear system of a validated curve and the form spaces through
its canonical image.

The adjoint space (degree d-3 forms vanishing to order m-1 at each
multiplicity-m point) realizes the canonical map into P^{g-1}.  Quadrics
(and, for tests, cubics) through the image are computed as kernel relations
among products of the adjoint forms modulo multiples of the curve -- pure
linear algebra on the exact ``FpEchelon``, with no point sampling and no
variable elimination.  The decision path never builds the cubic space: for
a non-hyperelliptic canonical curve Max Noether's theorem fixes its
dimension, and the quadric-generation test compares against that count.
"""

import enum
import math
from dataclasses import dataclass

from .errors import (AdjointDimensionMismatch, InvalidInput,
                     UnexpectedDimension)
from .linalg import kernel_basis
from .modular import FpEchelon
from .poly import MPoly, taylor_rows
from .scalars import rat


def monomials(nvars, degree):
    """Exponent tuples of the given total degree, lexicographically
    descending (deterministic column order everywhere)."""
    out = []

    def rec(prefix, remaining, slots):
        if slots == 1:
            out.append(prefix + (remaining,))
            return
        for e in range(remaining, -1, -1):
            rec(prefix + (e,), remaining - e, slots - 1)

    rec((), degree, nvars)
    return out


@dataclass
class CanonicalMap:
    """Adjoint forms realizing the canonical map of a plane curve."""
    forms: list          # g homogeneous polynomials of degree d-3
    degree: int          # d-3
    curve: object = None

    @property
    def genus(self):
        return len(self.forms)


def adjoint_combination(coeffs, cm):
    """The plane form sum c_i * w_i over the adjoint forms w_i: the pull-back
    of a hyperplane of P^{g-1}."""
    total = MPoly(3)
    for c, form in zip(coeffs, cm.forms):
        if c:
            total = total + form.map_coeffs(lambda q: c * q)
    return total


@dataclass
class FormSpace:
    """Echelonized space of degree-k forms through the canonical image."""
    ambient_dim: int     # g
    degree: int          # k in {2, 3}
    basis: list          # echelon coefficient vectors over `monomials`
    monomials: list      # exponent tuples, fixed order

    @property
    def dim(self):
        return len(self.basis)

    def row_space(self):
        span = FpEchelon(len(self.monomials))
        for vec in self.basis:
            span.add(vec)
        return span


def adjoint_basis(curve):
    """Basis of degree-(d-3) forms vanishing to order m-1 at each
    multiplicity-m singular point, the kernel of their ``taylor_rows`` of
    degree < m-1; must have dimension exactly g."""
    if not curve.validated:
        raise InvalidInput("adjoint basis requires a validated curve")
    d = curve.degree
    k = d - 3
    monos = monomials(3, k)
    rows = [row for s in curve.sings for deg in range(s.multiplicity - 1)
            for row in taylor_rows(monos, s.coords, deg)]
    fld = curve.field
    if rows:
        kern = kernel_basis(rows)
    else:
        kern = [[fld.one() if i == j else fld.zero() for i in range(len(monos))]
                for j in range(len(monos))]
    if len(kern) != curve.genus:
        raise AdjointDimensionMismatch(
            f"adjoint space has dimension {len(kern)}, genus is {curve.genus}")
    forms = [MPoly(3, {mono: fld.coerce(c) if isinstance(c, int) else c
                       for mono, c in zip(monos, vec) if c})
             for vec in kern]
    return CanonicalMap(forms=forms, degree=k, curve=curve)


def _power_cache(forms):
    caches = [{0: MPoly.const(3, 1), 1: f} for f in forms]

    def power(i, e):
        cache = caches[i]
        if e not in cache:
            cache[e] = power(i, e - 1) * cache[1]
        return cache[e]

    return power


def expand_in_adjoints(vec, monos, cm):
    """Pull a degree-k ambient form back to the curve plane: substitute the
    adjoint forms for the ambient variables."""
    power = _power_cache(cm.forms)
    total = MPoly(3)
    for mono, c in zip(monos, vec):
        if not c:
            continue
        prod = MPoly.const(3, c)
        for i, e in enumerate(mono):
            if e:
                prod = prod * power(i, e)
        total = total + prod
    return total


def forms_through_image(curve, cm, k):
    """Space of degree-k forms in g variables vanishing on the canonical
    image: kernel relations among adjoint products modulo multiples of f.

    The relations are the kernel of one exact ``FpEchelon`` over the
    products and the multiples of f; the span of their parts on the
    products, in reduced echelon form, is the basis."""
    if k not in (2, 3):
        raise InvalidInput("only quadrics and cubics are supported")
    g = cm.genus
    d = curve.degree
    big = k * cm.degree
    amb = monomials(g, k)
    target = monomials(3, big)
    tindex = {m: i for i, m in enumerate(target)}

    power = _power_cache(cm.forms)
    rows = [{} for _ in target]
    products = []
    for mono in amb:
        prod = MPoly.const(3, 1)
        for i, e in enumerate(mono):
            if e:
                prod = prod * power(i, e)
        products.append(prod)
    if big - d >= 0:
        one = rat(1) if curve.field.char == 0 else curve.field.one()
        products += [curve.f * MPoly.monomial(3, beta, one)
                     for beta in monomials(3, big - d)]
    for col, prod in enumerate(products):
        for e, c in prod.terms.items():
            rows[tindex[e]][col] = c

    ech = FpEchelon(len(products))
    for row in rows:
        ech.add(row)
    fld = curve.field
    basis = [[fld.coerce(x) if isinstance(x, int) and x else x
              for x in (row.get(j, 0) for j in range(len(amb)))]
             for row in ech.reduced_kernel(len(amb))]

    dim = len(basis)
    if k == 2:
        expected = {(g - 2) * (g - 3) // 2, (g - 1) * (g - 2) // 2}
        if dim not in expected:
            raise UnexpectedDimension(
                f"quadric space has dimension {dim}; expected one of {sorted(expected)}")
    else:
        expected3 = cubic_count(g)
        if dim != expected3:
            raise UnexpectedDimension(
                f"cubic space has dimension {dim}; expected {expected3}")
    return FormSpace(ambient_dim=g, degree=k, basis=basis, monomials=amb)


def hyperelliptic_test(g, quadric_dim):
    """True when the quadric count matches a 2:1 image on the rational
    normal curve, false for the non-hyperelliptic count."""
    if g < 3:
        raise InvalidInput("hyperelliptic test needs genus >= 3")
    if quadric_dim == (g - 1) * (g - 2) // 2:
        return True
    if quadric_dim == (g - 2) * (g - 3) // 2:
        return False
    raise UnexpectedDimension(
        f"quadric dimension {quadric_dim} matches neither count for genus {g}")


class PetriResult(enum.Enum):
    GeneratedByQuadrics = "GeneratedByQuadrics"
    QuadricsInsufficient = "QuadricsInsufficient"


def cubic_count(g):
    """Dimension of the cubics through a non-hyperelliptic canonical curve of
    genus g (Max Noether): C(g+2, 3) - (5g - 5)."""
    return math.comb(g + 2, 3) - (5 * g - 5)


def petri_test(qspace, g, counters=None):
    """Compare dim span{x_i * q} against the cubics through the image.

    Equality means the ideal is generated in degree 2 there; a strict gap is
    the independent signal that the curve is trigonal or a plane quintic.
    The cubic dimension is the count fixed by ``cubic_count``, which
    ``forms_through_image(..., 3)`` enforces on the computed space.  The
    span rank is exact over the field of the quadrics: the products go into
    a sparse ``FpEchelon`` with no modulus (on integer rows over Q), so the
    oracle takes no mod-p step and needs no certificate.  ``counters``, when given, receives
    "rows" (products inserted), "rank" and "expected" (the cubic count).
    """
    if g < 4:
        raise InvalidInput("the quadric-generation test is vacuous for genus 3")
    if qspace.ambient_dim != g:
        raise InvalidInput("the quadric space does not match the genus")
    sym3 = monomials(g, 3)
    index3 = {m: i for i, m in enumerate(sym3)}
    span = FpEchelon(len(sym3))
    for q in qspace.basis:
        terms = [(mono2, c) for mono2, c in zip(qspace.monomials, q) if c]
        for i in range(g):
            vec = {}
            for mono2, c in terms:
                mono3 = list(mono2)
                mono3[i] += 1
                vec[index3[tuple(mono3)]] = c
            span.add(vec)
    expected = cubic_count(g)
    if counters is not None:
        counters.update(rows=qspace.dim * g, rank=span.rank, expected=expected)
    if span.rank > expected:
        raise UnexpectedDimension(
            "products of quadrics escape the cubic space; upstream bug")
    if span.rank == expected:
        return PetriResult.GeneratedByQuadrics
    return PetriResult.QuadricsInsufficient
