"""From an sl2 action on the ambient space to the trigonal pencil.

The ambient representation decomposes into weight chains (v, f.v, f^2.v,
...) from its highest-weight vectors v.  Let phi_k be the coordinate
functional of f^k.v in the chain basis.  The columns (k!.phi_k,
(k+1)!.phi_{k+1}) form a two-row matrix of linear forms: consecutive-ratio
functionals are constant along the rulings of the surface, so the 2x2
minors cut out the surface and any nondegenerate column is the ruling map.
No chain vector is built.  The chain vectors f^k.v with k >= 1 span im f,
so the ambient space is im f plus the span of the highest-weight vectors,
a direct sum; phi_0 of v is therefore the one functional that vanishes on
im f and at the other highest-weight vector and is 1 at v.  For v of weight
lam, e.f^(k+1).v = (k+1)(lam-k) f^k.v, so phi_{k+1} = phi_k.e /
((k+1)(lam-k)), and each column's second entry is its first times e over
lam - k.  Substituting the adjoint forms for the ambient coordinates pulls
the ruling map back to the plane curve.  ``rulings`` runs this once per sl2
summand: the Levi part of a scroll, or each of the two ideals of P1xP1.
"""

from dataclasses import dataclass

from .canonical import adjoint_combination
from .errors import (AllColumnsDegenerate, ChainCountUnexpected,
                     DecompositionFailed, TrigonalError)
from .linalg import kernel_basis
from .poly import MPoly
from .scalars import sdiv

__all__ = ["PencilMap", "highest_weights", "ruling_columns", "ruling_map",
           "rulings", "minor_vectors"]


@dataclass
class PencilMap:
    """A candidate degree-3 pencil on the curve: two forms of degree d-3."""
    p: MPoly
    q: MPoly
    field: object


def _dot(u, v, zero):
    return sum((x * y for x, y in zip(u, v) if x and y), zero)


def highest_weights(triple):
    """The highest-weight vectors of (e, h, f) on the ambient g-space, as
    (weight, vector) pairs sorted by (weight, str).  ker e is taken once, as
    its reduced echelon basis v_1..v_k; more than two vectors means more
    chains than a scroll or a ruling of P1xP1 has.  h preserves ker e, and
    a vector of ker e is zero exactly when it is zero at the leads of the
    v_i, so the vectors of weight lam are the sums c_1 v_1 + ... + c_k v_k
    with c in the kernel of M - lam*I, M the k x k rows (h v_i) at the
    leads, taken at each lam in [0, g-1] where det(M - lam*I) vanishes:
    at most two kernels.  Each v_i is 1 at its lead and 0 at the others',
    so the reduced basis of c gives the reduced basis of the weight space,
    the one a kernel of [e; h - lam*I] gives."""
    g = triple.n
    zero = triple.field.coerce(0)
    top = kernel_basis([[triple.e.get(i * g + j, 0) for j in range(g)] for i in range(g)])
    if len(top) > 2:
        raise ChainCountUnexpected(f"expected at most two chains, found {len(top)}")
    # row r holds (h v_i) at the lead of v_r, over i
    rows = [[_dot([triple.h.get(lead * g + j, 0) for j in range(g)], v, zero) for v in top]
            for lead in (next(j for j, x in enumerate(v) if x) for v in top)]
    k = len(top)
    tr = sum((rows[i][i] for i in range(k)), zero)
    det = rows[0][0] * rows[1][1] - rows[0][1] * rows[1][0] if k == 2 else zero
    found, filled = [], 0
    for lam in range(g - 1, -1, -1):
        if (lam * lam - tr * lam + det if k == 2 else lam - tr):
            continue
        for c in kernel_basis([[a - lam if i == r else a for i, a in enumerate(row)]
                               for r, row in enumerate(rows)]):
            found.append((lam, [_dot(c, col, zero) for col in zip(*top)]))
            filled += lam + 1
    if filled != g:
        raise DecompositionFailed("the weights do not fill the ambient space")
    return sorted(found, key=lambda w: (w[0], tuple(str(x) for x in w[1])))


def ruling_columns(triple):
    """The columns (k!.phi_k, (k+1)!.phi_{k+1}) of the scroll matrix, each a
    pair of coefficient vectors over the ambient coordinates: chain by chain
    in the order of ``highest_weights``, k = 0..lam-1 in a chain of weight
    lam.  phi_0 of v is one kernel of g + k - 1 rows, the columns of f and
    the other highest-weight vector, scaled to 1 at v."""
    g = triple.n
    zero = triple.field.coerce(0)
    tops = highest_weights(triple)
    if not any(lam for lam, _ in tops):
        raise ChainCountUnexpected("no chain of length >= 2")
    im_f = [[triple.f.get(i * g + j, 0) for i in range(g)] for j in range(g)]
    e = [(divmod(ij, g), x) for ij, x in triple.e.items()]
    for lam, v in tops:
        if not lam:
            continue
        phi = kernel_basis(im_f + [w for _, w in tops if w is not v])
        if len(phi) != 1 or not (at_v := _dot(phi[0], v, zero)):
            raise DecompositionFailed(f"no unique phi_0 for the weight-{lam} chain")
        cur = [sdiv(x, at_v) for x in phi[0]]
        for k in range(lam):
            nxt = [zero] * g
            for (i, j), x in e:
                if cur[i]:
                    nxt[j] += cur[i] * x
            nxt = [sdiv(x, lam - k) for x in nxt]
            yield cur, nxt
            cur = nxt


def minor_vectors(columns, monos2):
    """2x2 minors of the scroll matrix, given as its list of columns, as
    quadratic-form coefficient vectors over the given degree-2 monomial
    order."""
    index = {m: i for i, m in enumerate(monos2)}
    g = len(columns[0][0])
    out = []

    def put(vec, i, j, c):
        mono = [0] * g
        mono[i] += 1
        mono[j] += 1
        t = index[tuple(mono)]
        vec[t] = vec[t] + c

    for c1, (u, t) in enumerate(columns):
        for s, v in columns[c1 + 1:]:
            vec = [0] * len(monos2)
            for i in range(g):
                for j in range(g):
                    cval = u[i] * v[j] - s[i] * t[j]
                    if cval:
                        put(vec, i, j, cval)
            if any(vec):
                out.append(vec)
    return out


def ruling_map(columns, cm, field):
    """First scroll column whose two entries pull back to independent forms
    on the curve; their ratio is the candidate pencil over ``field``."""
    for u, v in columns:
        p = adjoint_combination(u, cm)
        q = adjoint_combination(v, cm)
        if not p or not q:
            continue
        # degree d-3 < deg f, so dependence mod f is plain dependence: q is
        # a multiple of p exactly when it is q[m]/p[m] times p at a term m
        m = next(iter(p.terms))
        if p * q.terms.get(m, 0) == q * p.terms[m]:
            continue
        return PencilMap(p=p, q=q, field=field)
    raise AllColumnsDegenerate("every scroll column pulls back degenerately")


def rulings(summands, cm):
    """Run split_sl2, then ruling_map on the ``ruling_columns`` of the
    triple, on each sl2 summand.  The columns are drawn as ruling_map needs
    them, so a summand is refused before any column when ker e shows three
    or more chains.  Returns the candidates, (summand index, triple,
    pencil), and the failures, (summand index, error), both in summand
    order."""
    from .liealg import split_sl2
    candidates = []
    failures = []
    for idx, s in enumerate(summands):
        try:
            triple = split_sl2(s)
            columns = ruling_columns(triple)
            candidates.append((idx, triple, ruling_map(columns, cm, triple.field)))
        except TrigonalError as err:
            failures.append((idx, err))
    return candidates, failures
