"""Canonical linear system of a validated curve and the quadrics through its
canonical image.

The adjoint space (degree d-3 forms vanishing to order m-1 at each
multiplicity-m point) realizes the canonical map into P^{g-1}.  Quadrics
through the image are computed as kernel relations among the products
w_i * w_j of the adjoint forms modulo multiples of the curve -- pure linear
algebra on the exact ``FpEchelon``, with no point sampling and no variable
elimination.  The products and the multiples of f are formed on term maps,
with no polynomial product.  The decision path never builds the cubic
space: for a non-hyperelliptic canonical curve Max Noether's theorem fixes
its dimension, and the quadric-generation test compares against that count.
"""

import enum
import math
from dataclasses import dataclass
from functools import cache, cached_property

from .errors import (AdjointDimensionMismatch, InvalidInput,
                     UnexpectedDimension)
from .linalg import kernel_basis
from .modular import FpEchelon, clear_denominators
from .poly import MPoly, taylor_rows
from .scalars import is_rational


@cache
def monomials(nvars, degree):
    """Exponent tuples of the given total degree, lexicographically
    descending (deterministic column order everywhere), as one tuple that
    every caller shares."""
    out = []

    def rec(prefix, remaining, slots):
        if slots == 1:
            out.append(prefix + (remaining,))
            return
        for e in range(remaining, -1, -1):
            rec(prefix + (e,), remaining - e, slots - 1)

    rec((), degree, nvars)
    return tuple(out)


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
    """Echelonized space of quadrics through the canonical image.

    ``basis`` holds the reduced echelon rows (pivot 1) as dense coefficient
    lists over ``monomials``; ``int_rows`` is the same basis as sparse
    ``{column: value}`` rows, each a primitive integer row over Q and the
    field elements themselves over F_q."""
    ambient_dim: int     # g
    basis: list          # echelon coefficient vectors over `monomials`
    monomials: tuple     # exponent tuples, fixed order

    @property
    def dim(self):
        return len(self.basis)

    @cached_property
    def int_rows(self):
        rows = []
        for vec in self.basis:
            row = {j: x for j, x in enumerate(vec) if x}
            if all(map(is_rational, row.values())):
                row = clear_denominators(row)[0]
            rows.append(row)
        return rows

    def row_space(self):
        span = FpEchelon(len(self.monomials))
        for row in self.int_rows:
            span.add(row)
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


def _coded_terms(form, base):
    """The terms c * x^a y^b z^e of a ternary form as (a*base + b, c) pairs,
    with an integral rational c as an int.  While every degree stays below
    ``base``, the code of a product of monomials is the sum of theirs."""
    return [(e[0] * base + e[1],
             int(c) if is_rational(c) and c.denominator == 1 else c)
            for e, c in form.terms.items()]


def forms_through_image(curve, cm, k=2):
    """Space of quadrics in g variables vanishing on the canonical image:
    kernel relations among adjoint products modulo multiples of f.

    ``k``, the form degree, must be 2: the cubics are counted by
    ``cubic_count``, not built (the pipeline passes it, and the trace of
    ``perfbench`` names the call by it).  The columns are the products w_i * w_j,
    i <= j, in ``monomials(g, 2)`` order, then the multiples x^beta * f;
    the rows are the monomials of degree 2(d-3).  The relations are the
    kernel of one exact ``FpEchelon`` over them; the span of their parts on
    the products, in reduced echelon form, is the basis."""
    if k != 2:
        raise InvalidInput("only quadrics are supported")
    g = cm.genus
    big = 2 * cm.degree
    base = big + 1
    amb = monomials(g, 2)
    tindex = {m[0] * base + m[1]: i for i, m in enumerate(monomials(3, big))}
    rows = [{} for _ in tindex]

    ws = [_coded_terms(w, base) for w in cm.forms]
    col = 0
    # i <= j in this nested order is monomials(g, 2) order
    for i in range(g):
        for j in range(i, g):
            prod = {}
            for e1, c1 in ws[i]:
                for e2, c2 in ws[j]:
                    e = e1 + e2
                    prod[e] = prod[e] + c1 * c2 if e in prod else c1 * c2
            for e, c in prod.items():
                if c:
                    rows[tindex[e]][col] = c
            col += 1
    if big >= curve.degree:
        fterms = _coded_terms(curve.f, base)
        for beta in monomials(3, big - curve.degree):
            shift = beta[0] * base + beta[1]
            for e, c in fterms:
                rows[tindex[e + shift]][col] = c
            col += 1

    ech = FpEchelon(col)
    for row in rows:
        ech.add(row)
    fld = curve.field
    basis = []
    for row in ech.reduced_kernel(len(amb)):
        vec = [0] * len(amb)
        for j, x in row.items():
            vec[j] = fld.coerce(x) if isinstance(x, int) else x
        basis.append(vec)

    dim = len(basis)
    expected = {(g - 2) * (g - 3) // 2, (g - 1) * (g - 2) // 2}
    if dim not in expected:
        raise UnexpectedDimension(
            f"quadric space has dimension {dim}; expected one of {sorted(expected)}")
    return FormSpace(ambient_dim=g, basis=basis, monomials=amb)


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


@cache
def _shift_table(g):
    """shift[j][i]: the ``monomials(g, 3)`` index of x_i times the j-th
    monomial of ``monomials(g, 2)``, shared like ``monomials``."""
    index3 = {m: n for n, m in enumerate(monomials(g, 3))}
    return tuple(tuple(index3[mono[:i] + (mono[i] + 1,) + mono[i + 1:]]
                       for i in range(g))
                 for mono in monomials(g, 2))


def petri_test(qspace, g, counters=None):
    """Compare dim span{x_i * q} against the cubics through the image.

    Equality means the ideal is generated in degree 2 there; a strict gap is
    the independent signal that the curve is trigonal or a plane quintic.
    The cubic dimension is the count fixed by ``cubic_count``.  The span
    rank is exact over the field of the quadrics: the products of
    ``qspace.int_rows`` go into a sparse ``FpEchelon`` with no modulus (on
    integer rows over Q), so the oracle takes no mod-p step and needs no
    certificate.  ``counters``, when given, receives "rows" (products
    inserted), "rank" and "expected" (the cubic count).
    """
    if g < 4:
        raise InvalidInput("the quadric-generation test is vacuous for genus 3")
    if qspace.ambient_dim != g:
        raise InvalidInput("the quadric space does not match the genus")
    shift = _shift_table(g)
    span = FpEchelon(len(monomials(g, 3)))
    for q in qspace.int_rows:
        for i in range(g):
            span.add({shift[j][i]: c for j, c in q.items()})
    expected = cubic_count(g)
    if counters is not None:
        counters.update(rows=qspace.dim * g, rank=span.rank, expected=expected)
    if span.rank > expected:
        raise UnexpectedDimension(
            "products of quadrics escape the cubic space; upstream bug")
    if span.rank == expected:
        return PetriResult.GeneratedByQuadrics
    return PetriResult.QuadricsInsufficient
