"""Canonical linear system of a validated curve and the quadrics through its
canonical image.

The adjoint space (degree d-3 forms vanishing to order m-1 at each
multiplicity-m point) realizes the canonical map into P^{g-1}.  Quadrics
through the image are computed as kernel relations among the products
w_i * w_j of the adjoint forms modulo multiples of the curve -- pure linear
algebra on ``FpEchelon`` over the ground field, exact over Q and mod q over
F_q, with no point sampling and no variable elimination.  The products and
the multiples of f are formed on term maps, with no polynomial product.
Every consumer reads the one form of the span, ``FormSpace.rows``.  The
decision path never builds the cubic space: for a non-hyperelliptic
canonical curve Max Noether's theorem fixes its dimension, and the
quadric-generation test compares against that count.
"""

import enum
import math
from dataclasses import dataclass
from functools import cache

from .errors import (AdjointDimensionMismatch, InvalidInput,
                     UnexpectedDimension)
from .linalg import kernel_basis
from .modular import FpEchelon, clear_denominators
from .poly import MPoly, taylor_rows


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

    ``rows`` is its reduced echelon basis, sparse ``{column: value}`` rows
    over ``monomials`` in column order: over Q the primitive integer
    multiples of the pivot-1 rows, over F_q the pivot-1 rows themselves, in
    residues.  ``field`` is the curve's field; its ``char`` is the modulus
    of every echelon over the rows."""
    ambient_dim: int     # g
    rows: list           # echelon rows over `monomials`
    monomials: tuple     # exponent tuples, fixed order
    field: object

    @property
    def dim(self):
        return len(self.rows)

    def row_space(self):
        span = FpEchelon(len(self.monomials), self.field.char)
        for row in self.rows:
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
    # a zero row, when there is no singular point, imposes no condition
    kern = kernel_basis(rows or [[0] * len(monos)], curve.field.char)
    if len(kern) != curve.genus:
        raise AdjointDimensionMismatch(
            f"adjoint space has dimension {len(kern)}, genus is {curve.genus}")
    forms = [MPoly(3, {mono: c for mono, c in zip(monos, vec) if c})
             for vec in kern]
    return CanonicalMap(forms=forms, degree=k, curve=curve)


def _coded_terms(form, base):
    """The terms c * x^a y^b z^e of a ternary form as (a*base + b, c) pairs.
    While every degree stays below ``base``, the code of a product of
    monomials is the sum of theirs."""
    return [(e[0] * base + e[1], c) for e, c in form.terms.items()]


def forms_through_image(curve, cm, k=2):
    """Space of quadrics in g variables vanishing on the canonical image:
    kernel relations among adjoint products modulo multiples of f.

    ``k``, the form degree, must be 2: the cubics are counted by
    ``cubic_count``, not built (the pipeline passes it, and the trace of
    ``perfbench`` names the call by it).  The columns are the products w_i * w_j,
    i <= j, in ``monomials(g, 2)`` order, then the multiples x^beta * f;
    the rows are the monomials of degree 2(d-3).  The relations are the
    kernel of one exact ``FpEchelon`` over them; the span of their parts on
    the products, in reduced echelon form, gives the rows.  The one check of
    the quadric count: any but (g-2)(g-3)/2, or (g-1)(g-2)/2 (hyperelliptic),
    raises ``UnexpectedDimension``."""
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

    fld = curve.field
    ech = FpEchelon(col, fld.char)
    for row in rows:
        ech.add(row)
    basis = []
    for row in ech.reduced_kernel(len(amb)):
        row = dict(sorted(row.items()))
        basis.append(row if fld.char else clear_denominators(row)[0])
    expected = {(g - 2) * (g - 3) // 2, (g - 1) * (g - 2) // 2}
    if len(basis) not in expected:
        raise UnexpectedDimension(
            f"quadric space has dimension {len(basis)}; expected one of {sorted(expected)}")
    return FormSpace(ambient_dim=g, rows=basis, monomials=amb, field=fld)


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


def petri_test(qspace, counters=None):
    """Compare dim span{x_i * q} against the cubics through the image.

    Equality means the ideal is generated in degree 2 there; a strict gap is
    the independent signal that the curve is trigonal or a plane quintic.
    The cubic dimension is ``cubic_count`` at g = ``qspace.ambient_dim``.
    The span rank is exact over the field of the quadrics: the products of
    ``qspace.rows`` go into a sparse ``FpEchelon`` over ``qspace.field``,
    on integer rows with no modulus over Q and mod q over F_q, so the
    oracle takes no other prime and needs no certificate.  ``counters``,
    when given, receives "rows" (products inserted), "rank" and "expected"
    (the cubic count).
    """
    g = qspace.ambient_dim
    if g < 4:
        raise InvalidInput("the quadric-generation test is vacuous for genus 3")
    shift = _shift_table(g)
    span = FpEchelon(len(monomials(g, 3)), qspace.field.char)
    for q in qspace.rows:
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
