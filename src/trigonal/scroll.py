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


def weight_chains(triple, g):
    """Decompose the ambient g-space under (e, h, f) into chains by repeated
    f-action from the highest-weight vectors, ker e.  That kernel is taken
    once, as its reduced echelon basis v_1..v_k; the vectors of weight lam
    are the sums c_1 v_1 + ... + c_k v_k with c in the kernel of the g x k
    rows (h v_i - lam v_i)_r, for lam = g-1 down to 0 until the chains fill
    the space.  Each v_i is 1 at its lead and 0 at the others' leads, so
    the reduced basis of c gives the reduced basis of the weight space, the
    one a kernel of [e; h - lam*I] gives.  A chain from weight lam must
    have length lam+1."""
    fld = triple.field
    zero = fld.zero()
    e, h, f = ([[m.get(i * g + j, 0) for j in range(g)] for i in range(g)]
               for m in (triple.e, triple.h, triple.f))

    def act(mat, v):
        return [sum((x * y for x, y in zip(row, v) if x and y), zero) for row in mat]

    top = kernel_basis(e)
    h_top = [act(h, v) for v in top]
    # row r of the weight-lam system is (h v_i - lam v_i)_r over i
    pairs = [[(hv[r], v[r]) for v, hv in zip(top, h_top)] for r in range(g)]
    chains = []
    for lam in range(g - 1, -1, -1):
        if sum(map(len, chains)) >= g:
            break
        for c in kernel_basis([[a - lam * b if b else a for a, b in row] for row in pairs]):
            cur = [sum((x * v[r] for x, v in zip(c, top) if x and v[r]), zero) for r in range(g)]
            chain = [cur]
            while True:
                cur = act(f, cur)
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


def ruling_map(a, cm):
    """First column of the scroll matrix whose two entries pull back to
    independent forms on the curve; their ratio is the candidate pencil."""
    for col in range(a.ncols):
        p = adjoint_combination(a.row1[col], cm)
        q = adjoint_combination(a.row2[col], cm)
        if not p or not q:
            continue
        # degree d-3 < deg f, so dependence mod f is plain dependence: q is
        # a multiple of p exactly when it is q[m]/p[m] times p at a term m
        m = next(iter(p.terms))
        if p * q.terms.get(m, 0) == q * p.terms[m]:
            continue
        return PencilMap(p=p, q=q, field=a.field)
    raise AllColumnsDegenerate("every scroll column pulls back degenerately")


def rulings(summands, cm):
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
            candidates.append((idx, triple, smat, ruling_map(smat, cm)))
        except TrigonalError as err:
            failures.append((idx, err))
    return candidates, failures
