"""From an sl2 action on the ambient space to the trigonal pencil.

The ambient representation decomposes into weight chains (v, f.v, f^2.v,
...).  Coordinate functionals of the chain basis, rescaled by divided-power
factors, assemble into a two-row matrix of linear forms: consecutive-ratio
functionals are constant along the rulings of the surface, so the 2x2 minors
cut out the surface and any nondegenerate column is the ruling map.
Substituting the adjoint forms for the ambient coordinates pulls that map
back to the plane curve.  ``rulings`` runs this chain once per sl2 summand:
the Levi part of a scroll, or each of the two ideals of P1xP1.
"""

from dataclasses import dataclass
from math import factorial

from .canonical import adjoint_combination
from .errors import (AllColumnsDegenerate, ChainCountUnexpected,
                     DecompositionFailed, TrigonalError)
from .linalg import kernel_basis
from .modular import FpEchelon
from .poly import MPoly

__all__ = ["WeightChains", "ScrollMat", "PencilMap", "weight_chains",
           "scroll_matrix", "ruling_map", "rulings", "minor_vectors"]


@dataclass
class WeightChains:
    chains: list        # list of chains; chain = list of ambient vectors
    cob_inv: list       # rows are the chain-coordinate functionals
    field: object

    @property
    def lengths(self):
        return [len(c) for c in self.chains]


@dataclass
class ScrollMat:
    """Two rows of linear forms (coefficient vectors over the ambient
    coordinates); column ratios are constant along rulings."""
    row1: list
    row2: list
    field: object

    @property
    def ncols(self):
        return len(self.row1)


@dataclass
class PencilMap:
    """A candidate degree-3 pencil on the curve: two forms of degree d-3."""
    p: MPoly
    q: MPoly
    field: object


def _is_dependent(pvec, qvec, dim):
    span = FpEchelon(dim)
    span.add(pvec)
    return not span.add(qvec)


def weight_chains(triple, g):
    """Decompose the ambient g-space under (e, h, f) into chains by repeated
    f-action.  The highest-weight vectors of weight lam are the kernel of
    the stacked rows [e; h - lam*I], taken for lam = g-1 down to 0 until the
    chains fill the space; a chain from weight lam must have length lam+1."""
    fld = triple.field
    zero = fld.zero()
    e, h, f = ([[m.get(i * g + j, 0) for j in range(g)] for i in range(g)]
               for m in (triple.e, triple.h, triple.f))
    chains = []
    for lam in range(g - 1, -1, -1):
        if sum(map(len, chains)) >= g:
            break
        lam_c = fld.coerce(lam)
        shifted = [list(row) for row in h]
        for i in range(g):
            shifted[i][i] = shifted[i][i] - lam_c
        for v in kernel_basis(e + shifted):
            cur = [fld.coerce(x) if isinstance(x, int) else x for x in v]
            chain = [cur]
            while True:
                cur = [sum((x * y for x, y in zip(row, cur) if x and y), zero)
                       for row in f]
                if not any(cur):
                    break
                chain.append(cur)
                if len(chain) > g:
                    raise DecompositionFailed("chain exceeds the ambient dimension")
            if len(chain) != lam + 1:
                raise DecompositionFailed(
                    f"chain from weight {lam} has length {len(chain)}")
            chains.append(chain)
    if sum(len(c) for c in chains) != g:
        raise DecompositionFailed("chains do not span the ambient space")
    chains.sort(key=lambda ch: (len(ch), tuple(str(x) for x in ch[0])))
    cob = [list(row) for row in zip(*(v for ch in chains for v in ch))]
    # the inverse is the right half of the reduced form of [cob | I]
    aug = FpEchelon(2 * g)
    for i, row in enumerate(cob):
        aug.add(row + [fld.one() if j == i else zero for j in range(g)])
    if aug.pivots[:g] != list(range(g)):
        raise DecompositionFailed("the chain vectors are dependent")
    cob_inv = [[fld.coerce(row.get(g + j, 0)) for j in range(g)]
               for row in aug.reduced()]
    return WeightChains(chains=chains, cob_inv=cob_inv, field=fld)


def scroll_matrix(chains):
    """Assemble the two-row matrix: each chain of length L contributes L-1
    columns of consecutive chain functionals, rescaled by divided-power
    factors so that all column ratios agree along the rulings."""
    w = chains
    if len(w.chains) > 2 or not w.chains:
        raise ChainCountUnexpected(
            f"expected at most two chains, found lengths {w.lengths}")
    effective = [c for c in w.chains if len(c) >= 2]
    if not effective:
        raise ChainCountUnexpected("no chain of length >= 2")
    fld = w.field
    row1, row2 = [], []
    offset = 0
    for chain in w.chains:
        ell = len(chain)
        for k in range(ell - 1):
            func_k = w.cob_inv[offset + k]
            func_k1 = w.cob_inv[offset + k + 1]
            row1.append([factorial(k) * x for x in func_k])
            row2.append([factorial(k + 1) * x for x in func_k1])
        offset += ell
    return ScrollMat(row1=row1, row2=row2, field=fld)


def minor_vectors(a, monos2):
    """2x2 minors of the scroll matrix as quadratic-form coefficient vectors
    over the given degree-2 monomial order."""
    index = {m: i for i, m in enumerate(monos2)}
    g = len(a.row1[0])
    out = []

    def put(vec, i, j, c):
        mono = [0] * g
        mono[i] += 1
        mono[j] += 1
        t = index[tuple(mono)]
        vec[t] = vec[t] + c

    n = a.ncols
    for c1 in range(n):
        for c2 in range(c1 + 1, n):
            vec = [0] * len(monos2)
            u, v = a.row1[c1], a.row2[c2]
            s, t = a.row1[c2], a.row2[c1]
            for i in range(g):
                for j in range(g):
                    cval = u[i] * v[j] - s[i] * t[j]
                    if cval:
                        put(vec, i, j, cval)
            if any(vec):
                out.append(vec)
    return out


def ruling_map(a, cm, curve):
    """First column of the scroll matrix whose two entries pull back to
    independent forms on the curve; their ratio is the candidate pencil."""
    for col in range(a.ncols):
        p = adjoint_combination(a.row1[col], cm)
        q = adjoint_combination(a.row2[col], cm)
        if not p or not q:
            continue
        # degree d-3 < deg f, so dependence mod f is plain dependence
        tot = len(set(p.terms) | set(q.terms))
        monos = sorted(set(p.terms) | set(q.terms))
        pvec = [p.terms.get(m, 0) for m in monos]
        qvec = [q.terms.get(m, 0) for m in monos]
        if _is_dependent(pvec, qvec, tot):
            continue
        return PencilMap(p=p, q=q, field=a.field)
    raise AllColumnsDegenerate("every scroll column pulls back degenerately")


def rulings(summands, cm, curve):
    """Run split_sl2, weight_chains, scroll_matrix and ruling_map on each
    sl2 summand.  Returns the candidates, (summand index, triple, scroll
    matrix, pencil), and the failures, (summand index, error), both in
    summand order."""
    from .liealg import split_sl2
    candidates = []
    failures = []
    for idx, s in enumerate(summands):
        try:
            triple = split_sl2(s)
            smat = scroll_matrix(weight_chains(triple, cm.genus))
            candidates.append((idx, triple, smat, ruling_map(smat, cm, curve)))
        except TrigonalError as err:
            failures.append((idx, err))
    return candidates, failures
