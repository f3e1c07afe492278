"""Lie algebra of the quadric system and its structure theory.

The stabilizer of the span of quadrics inside the traceless matrices is the
algebraic invariant that separates the cases: zero for curves cut out by
quadrics, and a positive-dimensional algebra whose Levi type (sl2, sl2+sl2,
sl3) identifies a ruled surface or the Veronese.  The stabilizer equations
are solved mod p by ``modular.certified_kernel`` and lifted to a basis that
is verified exactly.  ``LieAlg`` keeps each basis matrix as an {i*n + j: x}
map of its nonzero entries, the package's one matrix form: brackets are
sparse products, coordinates come from one exact echelon over the basis,
and every bracket must reduce to zero there.  The structure theory
(radical, Levi part, centroid, ideals, split triples) is exact linear
algebra on the structure constants, on ``FpEchelon`` with no modulus: spans
and memberships on its rows, residuals and solutions read off its reduced
rows.  Its sub-algebras take their structure constants from the parent's,
in the parent's coordinates, and a lift coerces them, so no matrix bracket
is formed there.  A sub-algebra's basis matrices are sums of its parent's;
matrix products come back only where a map leaves the algebra: the check
of a split triple and the ruling maps.
"""

import enum
from dataclasses import dataclass
from functools import cache, cached_property

from .errors import (InternalInvariantError, InvalidInput, LiftingFailed,
                     NotSl2, SplitFailedOverExtension, UnexpectedDimension)
from .linalg import kernel_basis
from .modular import FpEchelon, certified_kernel, clear_denominators, fp_reduce
from .scalars import (QQ, QuadExt, QuadraticField, rat, rational_square_split,
                      sqrt_rational)

__all__ = ["Case", "LieAlg", "Sl2Triple", "stabilizer_algebra",
           "killing_form", "radical", "levi", "classify", "split_sl2",
           "split_two_ideals"]


class Case(enum.Enum):
    CurveCutByQuadrics = "CurveCutByQuadrics"
    Scroll = "Scroll"
    P1xP1 = "P1xP1"
    Veronese = "Veronese"
    Genus3 = "Genus3"
    Unexpected = "Unexpected"


def _by_row(entries, n):
    """An {i*n + j: x} map of an n x n matrix, grouped as {i: {j: x}}."""
    rows = {}
    for idx, x in entries.items():
        rows.setdefault(idx // n, {})[idx % n] = x
    return rows


def _bracket(a, b, n):
    """AB - BA for n x n matrices grouped by ``_by_row``, as an {i*n + j: x}
    map of its nonzero entries.  Each product costs nnz of its left factor
    times the nonzeros per row of its right one."""
    out = {}
    for x, y, sign in ((a, b, 1), (b, a, -1)):
        for i, xrow in x.items():
            for k, u in xrow.items():
                yrow = y.get(k)
                if yrow:
                    u = sign * u
                    for j, v in yrow.items():
                        idx = i * n + j
                        out[idx] = out.get(idx, 0) + u * v
    return {idx: v for idx, v in out.items() if v}


def _coordinate_map(vecs, width, fld):
    """Coordinates over the sparse vectors ``vecs``, each with ``width``
    columns.  One exact ``FpEchelon`` over them, the k-th carrying 1 in extra
    column width + k, where a vector reduces to minus its coordinates.
    Raises ``InvalidInput`` when the vectors are dependent; the returned map
    raises ``InternalInvariantError`` for a vector outside their span."""
    dim = len(vecs)
    ech = FpEchelon(width + dim)
    for k, v in enumerate(vecs):
        v[width + k] = fld.one()
        ech.add(v)
        if ech.pivots[-1] >= width:
            raise InvalidInput("basis vectors are dependent")

    def coords(vec):
        res = ech.residue(vec)
        if res and min(res) < width:
            raise InternalInvariantError(
                "element outside the algebra span (bracket closure violated)")
        return [fld.coerce(-res.get(width + j, 0)) for j in range(dim)]

    return coords


def _structure_constants(dim, fld, coords):
    """``sc`` from ``coords(i, j)``, the coordinates of [b_i, b_j], i < j."""
    sc = [[None] * dim for _ in range(dim)]
    for i in range(dim):
        sc[i][i] = [fld.zero()] * dim
        for j in range(i + 1, dim):
            c = coords(i, j)
            sc[i][j] = c
            sc[j][i] = [-x for x in c]
    return sc


class LieAlg:
    """Matrix Lie algebra given by a basis of n x n matrices (``basis``, each
    an {i*n + j: x} map of its nonzero entries), each also kept grouped by
    row, and by its structure constants, ``sc[i][j]`` the coordinates of
    [b_i, b_j].

    Built from matrices, each bracket of two basis matrices is a sparse
    product, and its coordinates come from one exact echelon over the
    matrix entries (``_coordinate_map``): a residual among the n*n entries
    raises, so closure is verified exactly.  A sub-algebra (``subalgebra``)
    and a lift (``lift``) take their structure constants from this
    algebra's instead; their matrix echelon is built at the first
    ``express``.
    """

    def __init__(self, n, basis, fld=QQ):
        self._embed(n, basis, fld)
        coords = self._coords      # dependent basis matrices raise here
        self.sc = _structure_constants(
            self.dim, fld,
            lambda i, j: coords(_bracket(self._rows[i], self._rows[j], n)))

    def _embed(self, n, basis, fld):
        """Take the n x n matrices ``basis`` over ``fld`` as the basis."""
        self.n = n
        self.field = fld
        self.basis = list(basis)
        if any(not 0 <= k < n * n for b in self.basis for k in b):
            raise InvalidInput("basis matrix has the wrong shape")
        self._rows = [_by_row(b, n) for b in self.basis]
        self.dim = len(self.basis)

    @classmethod
    def _with_sc(cls, n, basis, fld, sc):
        """The algebra on ``basis`` whose structure constants ``sc`` are
        already known and verified."""
        alg = cls.__new__(cls)
        alg._embed(n, basis, fld)
        alg.sc = sc
        return alg

    @cached_property
    def _coords(self):
        return _coordinate_map([dict(b) for b in self.basis], self.n * self.n,
                               self.field)

    def express(self, m):
        """Coordinates of a matrix, an {i*n + j: x} map, in the basis; raises
        when it lies outside the span."""
        return self._coords(m)

    def bracket_coords(self, u, v):
        """Bracket of two coordinate vectors, in coordinates."""
        dim = self.dim
        out = [self.field.zero()] * dim
        for i in range(dim):
            ui = u[i]
            if not ui:
                continue
            for j in range(dim):
                vj = v[j]
                if not vj:
                    continue
                cij = self.sc[i][j]
                f = ui * vj
                for k in range(dim):
                    if cij[k]:
                        out[k] = out[k] + f * cij[k]
        return out

    def element(self, coords):
        """Ambient matrix for a coordinate vector, as an {i*n + j: x} map of
        its nonzero entries."""
        ent = {}
        for c, b in zip(coords, self.basis):
            if c:
                for idx, x in b.items():
                    ent[idx] = ent.get(idx, 0) + c * x
        return {idx: x for idx, x in ent.items() if x}

    def subalgebra(self, vecs):
        """The sub-algebra spanned by the coordinate vectors ``vecs``, whose
        k-th basis matrix is ``element(vecs[k])``.  Its structure constants
        are ``bracket_coords`` of the vectors, expressed on one echelon over
        ``dim`` + len(vecs) columns, in this algebra's coordinates: no
        matrix bracket is formed, and a bracket outside the span of
        ``vecs`` raises ``InternalInvariantError``."""
        vecs = [list(v) for v in vecs]
        coords = _coordinate_map([{i: x for i, x in enumerate(v) if x} for v in vecs],
                                 self.dim, self.field)
        sc = _structure_constants(
            len(vecs), self.field,
            lambda i, j: coords(self.bracket_coords(vecs[i], vecs[j])))
        return LieAlg._with_sc(self.n, [self.element(v) for v in vecs],
                               self.field, sc)

    def lift(self, fld):
        """The same algebra over an extension field: the basis and ``sc``
        coerced into ``fld``, with no bracket formed again."""
        sc = [[[fld.coerce(x) for x in c] for c in row] for row in self.sc]
        return LieAlg._with_sc(
            self.n, [{k: fld.coerce(x) for k, x in b.items()} for b in self.basis],
            fld, sc)


@dataclass
class Sl2Triple:
    """A split triple of n x n matrices, each an {i*n + j: x} map."""
    e: dict
    h: dict
    f: dict
    n: int
    field: object

    def check(self):
        n = self.n
        e, h, f = self.e, self.h, self.f
        rows_e, rows_h, rows_f = (_by_row(m, n) for m in (e, h, f))
        ok = (_bracket(rows_h, rows_e, n) == {i: 2 * x for i, x in e.items()}
              and _bracket(rows_h, rows_f, n) == {i: -2 * x for i, x in f.items()}
              and _bracket(rows_e, rows_f, n) == h)
        if not ok:
            raise NotSl2("bracket relations fail for the produced triple")
        return True


def _derivation_terms(terms, monos, index, targets):
    """Terms of D_E(q) for the matrix units E = E_ij with j in targets[i],
    where D_M(q) = sum_ij M[i][j] x_j dq/dx_i and q is given by its
    (monomial index, coefficient) pairs: triples (i*g + j, index of the
    monomial, coefficient)."""
    g = len(targets)
    for pos, c in terms:
        if not c:
            continue
        alpha = monos[pos]
        for i, ai in enumerate(alpha):
            if not ai or not targets[i]:
                continue
            coef = ai * c
            beta = list(alpha)
            beta[i] -= 1
            for j in targets[i]:
                beta[j] += 1
                yield i * g + j, index[tuple(beta)], coef
                beta[j] -= 1


def _derivation_system(qspace, g, p):
    """The stabilizer equations mod p as sparse rows, or None when the
    quadric basis does not reduce to a basis mod p.

    Over the reduced-echelon basis R of the quadric span mod p, with pivot
    columns P: one equation per quadric r of R and column mu outside P,
    the coefficient of x^mu in D_M(r) minus what the span accounts for.
    The rows are built one quadric at a time, as the elimination asks for
    them.

    The unknown M[i][j] is column g^2 - 1 - (i*g + j), the entries of M
    numbered from the far end; ``stabilizer_algebra`` reverses the kernel
    back.  The elimination pivots on the lowest column, and in this order
    it keeps the stored rows sparse.  On the smooth sextics (g = 10) the
    natural order leaves 34.7 of 100 nonzeros per stored row and the
    reversed one 11.4; the elimination takes 0.082 s and 0.007 s (Python
    3.11, 2-CPU host).
    """
    monos = qspace.monomials
    ech = FpEchelon(len(monos), p)
    for q in qspace.int_rows:
        row = {j: fp_reduce(c, p) for j, c in q.items()}
        if None in row.values() or not ech.add(row):
            return None
    basis = ech.reduced()
    # modulo the span, x^t with t a pivot column is minus the rest of its row
    tail = {c: [(t, (-x) % p) for t, x in row.items() if t != c]
            for c, row in zip(ech.pivots, basis)}
    index = {m: i for i, m in enumerate(monos)}
    targets = [range(g)] * g
    last = g * g - 1

    def rows():
        for r in basis:
            block = {}      # column outside P -> its equation
            for col, t, coef in _derivation_terms(r.items(), monos, index, targets):
                col = last - col
                for mu, x in tail.get(t, ((t, 1),)):
                    eq = block.setdefault(mu, {})
                    eq[col] = eq.get(col, 0) + coef * x
            for mu in sorted(block):
                row = {c: v % p for c, v in block[mu].items() if v % p}
                if row:
                    yield row

    return rows()


def stabilizer_algebra(qspace, g, fld=QQ, counters=None):
    """Traceless matrices M whose derivation action maps every quadric of
    the space back into the space.  The identity always stabilizes and is
    split off, so dim = (solution dimension) - 1.

    The solutions come from ``modular.certified_kernel`` (over F_q, exactly
    mod q); over Q every lifted solution is checked to map each quadric of
    ``qspace`` into its span, on integer rows (clearing denominators leaves
    span membership unchanged).  ``counters`` receives the kernel's counters.
    """
    if qspace.dim < 1:
        raise InvalidInput("stabilizer needs at least one quadric")
    nn = g * g
    ident = [fld.one() if i % (g + 1) == 0 else fld.zero() for i in range(nn)]

    def integral(vec):
        return clear_denominators({j: x for j, x in enumerate(vec) if x})[0]

    monos = qspace.monomials
    index = {m: i for i, m in enumerate(monos)}

    @cache
    def quadrics():
        """The quadric span: built at the first lift to certify, and kept
        for the next one."""
        return qspace.row_space()

    def stabilizes(vecs):
        span = quadrics()
        for v in vecs:
            m = integral(v[::-1])
            targets = [[j for j in range(g) if i * g + j in m] for i in range(g)]
            for q in qspace.int_rows:
                image = {}
                for col, t, coef in _derivation_terms(q.items(), monos, index,
                                                      targets):
                    image[t] = image.get(t, 0) + coef * m[col]
                if not span.contains(image):
                    return False
        return True

    kern = certified_kernel(nn, lambda p: _derivation_system(qspace, g, p),
                            stabilizes, fld, known=[ident], counters=counters)
    kern = [v[::-1] for v in kern]
    sol = FpEchelon(nn)
    for v in kern:
        sol.add(v)
    if not sol.contains(ident):
        raise InternalInvariantError("identity does not stabilize the quadrics")
    traceless = FpEchelon(nn)
    for v in kern:
        tr = sum((v[i * (g + 1)] for i in range(g)), fld.zero())
        shift = tr / g
        w = list(v)
        if shift:
            for i in range(g):
                w[i * (g + 1)] = w[i * (g + 1)] - shift
        traceless.add(w)
    if traceless.rank != len(kern) - 1:
        raise InternalInvariantError("identity direction did not split off cleanly")
    return LieAlg(g, traceless.reduced(), fld)


def killing_form(alg):
    """kappa(b_i, b_j) = trace(ad b_i . ad b_j), from structure constants,
    as rows."""
    dim = alg.dim
    fld = alg.field
    rows = []
    for i in range(dim):
        rows.append([])
        for j in range(dim):
            s = fld.zero()
            for k in range(dim):
                cik = alg.sc[i][k]
                cjk = alg.sc[j]
                for l in range(dim):
                    if cik[l] and cjk[l][k]:
                        s = s + cik[l] * cjk[l][k]
            rows[-1].append(s)
    return rows


def _dense(rows, ncols):
    """Sparse rows as dense lists, 0 where a row has no entry."""
    return [[r.get(j, 0) for j in range(ncols)] for r in rows]


def _residual(reduced, vec):
    """vec - sum of vec[c] * row over the (pivot c, row) pairs of a reduced
    echelon form: the canonical residual, 0 at every pivot."""
    out = list(vec)
    for c, row in reduced:
        x = vec[c]
        if x:
            for j, y in row.items():
                out[j] = out[j] - x * y
    return out


def _solve(rows, rhs):
    """One solution x of rows . x = rhs, read off the reduced echelon form of
    the augmented rows with the free unknowns 0, or None when the system is
    inconsistent."""
    n = len(rows[0])
    aug = FpEchelon(n + 1)
    for row, b in zip(rows, rhs):
        aug.add(list(row) + [b])
    if n in aug.pivots:
        return None
    x = [0] * n
    for c, row in zip(aug.pivots, aug.reduced()):
        x[c] = row.get(n, 0)
    return x


def derived_space(alg):
    """The derived algebra [L, L] as an exact echelon over the coordinates."""
    span = FpEchelon(alg.dim)
    for i in range(alg.dim):
        for j in range(i + 1, alg.dim):
            span.add(alg.sc[i][j])
    return span


def radical(alg):
    """Solvable radical: kappa-orthogonal complement of the derived algebra
    (Cartan's criterion, characteristic zero)."""
    if alg.field.char != 0:
        raise InvalidInput("the radical computation requires characteristic zero")
    dim = alg.dim
    if dim == 0:
        return []
    kappa = killing_form(alg)
    der = derived_space(alg)
    if der.rank == 0:
        return [[alg.field.one() if i == j else alg.field.zero()
                 for i in range(dim)] for j in range(dim)]
    rows = [[sum((x * v for x, v in zip(krow, d) if x and v), alg.field.zero())
             for krow in kappa] for d in _dense(der.reduced(), dim)]
    return kernel_basis(rows)


def levi(alg):
    """A semisimple complement of the radical, by iterative correction along
    the derived series of the radical."""
    rad = radical(alg)
    if not rad:
        return alg
    dim = alg.dim
    fld = alg.field
    if len(rad) == dim:
        return LieAlg(alg.n, [], fld)
    radspace = FpEchelon(dim)
    for v in rad:
        radspace.add(v)
    comp_idx = [c for c in range(dim) if c not in set(radspace.pivots)]
    rad_rows = list(zip(radspace.pivots, radspace.reduced()))
    rc = len(comp_idx)
    cur = []
    for c in comp_idx:
        v = [fld.zero()] * dim
        v[c] = fld.one()
        cur.append(v)
    # quotient structure constants in the complement coordinates
    gamma = [[None] * rc for _ in range(rc)]
    for a in range(rc):
        for b in range(rc):
            br = alg.bracket_coords(cur[a], cur[b])
            res = _residual(rad_rows, br)
            gamma[a][b] = [res[ci] for ci in comp_idx]
    # derived series of the radical, each term by its reduced rows
    chain = [rad_rows]
    while chain[-1]:
        pb = _dense((row for _, row in chain[-1]), dim)
        nxt = FpEchelon(dim)
        for i in range(len(pb)):
            for j in range(i + 1, len(pb)):
                nxt.add(alg.bracket_coords(pb[i], pb[j]))
        if nxt.rank >= len(pb):
            raise LiftingFailed("the radical is not solvable; upstream bug")
        chain.append(list(zip(nxt.pivots, nxt.reduced())))
        if len(chain) > dim + 2:
            raise LiftingFailed("derived series fails to terminate")

    for k in range(len(chain) - 1):
        nk_rows, nk1_rows = chain[k], chain[k + 1]
        nb = _dense((row for _, row in nk_rows), dim)
        nt = len(nb)
        if nt == 0:
            break
        nunk = rc * nt

        def red(vec):
            return _residual(nk1_rows, vec)

        rows = []
        rhs = []
        for a in range(rc):
            for b in range(a + 1, rc):
                defect = alg.bracket_coords(cur[a], cur[b])
                for c in range(rc):
                    gab = gamma[a][b][c]
                    if gab:
                        defect = [dv - gab * cv for dv, cv in zip(defect, cur[c])]
                if any(_residual(nk_rows, defect)):
                    raise LiftingFailed("defect left the expected radical layer")
                coefvecs = [[fld.zero()] * dim for _ in range(nunk)]
                for t in range(nt):
                    v1 = alg.bracket_coords(cur[a], nb[t])       # times w[b][t]
                    v2 = alg.bracket_coords(nb[t], cur[b])       # times w[a][t]
                    for l in range(dim):
                        coefvecs[b * nt + t][l] = coefvecs[b * nt + t][l] + v1[l]
                        coefvecs[a * nt + t][l] = coefvecs[a * nt + t][l] + v2[l]
                for c in range(rc):
                    gab = gamma[a][b][c]
                    if gab:
                        for t in range(nt):
                            for l in range(dim):
                                coefvecs[c * nt + t][l] = (coefvecs[c * nt + t][l]
                                                           - gab * nb[t][l])
                dred = red(defect)
                credlist = [red(cv) for cv in coefvecs]
                for l in range(dim):
                    row = [cv[l] for cv in credlist]
                    if any(row) or dred[l]:
                        rows.append(row)
                        rhs.append(-dred[l] if dred[l] else fld.zero())
        if not rows:
            continue
        w = _solve(rows, rhs)
        if w is None:
            raise LiftingFailed("Levi correction system is inconsistent")
        for a in range(rc):
            for t in range(nt):
                c = w[a * nt + t]
                if c:
                    cur[a] = [cv + c * nv for cv, nv in zip(cur[a], nb[t])]

    sub = alg.subalgebra(cur)
    if radical(sub):
        raise LiftingFailed("the lifted complement is not semisimple")
    return sub


def _field_sqrt(x, fld):
    """A square root of x in fld, Q or Q(sqrt delta), or None; over
    Q(sqrt delta) only the root of a rational square is found."""
    if fld == QQ:
        return sqrt_rational(x)
    if isinstance(x, QuadExt) and not x.b:
        r = sqrt_rational(x.a)
        if r is not None:
            return fld.coerce(r)
    return None


def _square_root(alg, x):
    """(algebra, field, root) for a square root of x over alg's field: the
    root of ``_field_sqrt`` when there is one; otherwise, over Q, with x =
    sfac^2 delta and delta square-free, alg lifted to Q(sqrt delta) and the
    root sfac*sqrt(delta).  A second extension is not supported."""
    fld = alg.field
    root = _field_sqrt(x, fld)
    if root is not None:
        return alg, fld, root
    if fld != QQ:
        raise SplitFailedOverExtension(
            "splitting needs a second square root; unsupported")
    sfac, delta = rational_square_split(x)
    wfld = QuadraticField(delta)
    return alg.lift(wfld), wfld, QuadExt(0, sfac, delta)


def split_two_ideals(s):
    """Decompose a 6-dimensional semisimple algebra into two 3-dimensional
    ideals via the centroid; adjoins one square root when the two factors
    are conjugate over the base field.  Returns (s1, s2).

    Everything runs on the structure constants: the centroid is the kernel
    of psi.ad(b_j) = ad(b_j).psi over psi in gl(6), with ad(b_j)[v][c] =
    sc[j][c][v]; a non-scalar psi satisfies psi^2 = a + b psi, and the
    images of its two idempotents are the ideals, sub-algebras whose
    structure constants come from those of ``s``.  Only the sort key, which
    orders the ideals by their basis matrices, reads ambient entries."""
    if s.dim != 6:
        raise InvalidInput("ideal split expects a 6-dimensional algebra")
    dim = s.dim
    nn = dim * dim
    fld = s.field
    cent = FpEchelon(nn)
    for ad in s.sc:
        for r in range(dim):
            for c in range(dim):
                # (psi.ad - ad.psi)[r][c], psi[u][v] the unknown u*dim + v
                row = {r * dim + v: x for v, x in enumerate(ad[c]) if x}
                for u in range(dim):
                    x = ad[u][r]
                    if x:
                        k = u * dim + c
                        row[k] = row[k] - x if k in row else -x
                cent.add(row)
    cent = cent.reduced_kernel(nn)
    if len(cent) != 2:
        raise UnexpectedDimension(
            f"centroid has dimension {len(cent)}; expected 2")
    ident = [fld.one() if i % (dim + 1) == 0 else fld.zero() for i in range(nn)]
    idspace = FpEchelon(nn)
    idspace.add(ident)
    psi_vec = next((v for v in cent if not idspace.contains(v)), None)
    if psi_vec is None:
        raise UnexpectedDimension("centroid degenerates to scalars")
    psi = _by_row({k: fld.coerce(x) for k, x in psi_vec.items()}, dim)
    psi2 = {}
    for r, row in psi.items():
        for u, x in row.items():
            for c, y in psi.get(u, {}).items():
                k = r * dim + c
                psi2[k] = psi2[k] + x * y if k in psi2 else x * y
    coords = _solve([[i, psi_vec.get(k, 0)] for k, i in enumerate(ident)],
                    [psi2.get(k, 0) for k in range(nn)])
    if coords is None:
        raise UnexpectedDimension("centroid is not quadratic over the base field")
    a, b = (fld.coerce(x) for x in coords)
    disc = b * b + 4 * a
    if not disc:
        raise UnexpectedDimension("centroid is not etale; unexpected input")
    work, wfld, root = _square_root(s, disc)
    a, b = wfld.coerce(a), wfld.coerce(b)
    lam1 = (b + root) / 2
    lam2 = (b - root) / 2
    scalefac = 1 / (lam1 - lam2)
    zero, one = wfld.zero(), wfld.one()
    # column j of the idempotent (psi - lam2) / (lam1 - lam2) and of 1 minus it
    proj = [[scalefac * (wfld.coerce(psi_vec.get(i * dim + j, 0))
                         - (lam2 if i == j else zero)) for i in range(dim)]
            for j in range(dim)]
    ideals = []
    for cols in (proj, [[(one if i == j else zero) - x for i, x in enumerate(col)]
                        for j, col in enumerate(proj)]):
        img = FpEchelon(dim)
        for col in cols:
            img.add(col)
        if img.rank != 3:
            raise UnexpectedDimension(
                f"centroid idempotent has rank {img.rank}; expected 3")
        ideals.append(work.subalgebra(_dense(img.reduced(), dim)))
    ideals.sort(key=lambda alg: tuple(str(b.get(k, 0)) for b in alg.basis
                                      for k in range(s.n * s.n)))
    return ideals[0], ideals[1]


def classify(alg, semisimple, g):
    """Map (stabilizer algebra, Levi part) to the surface trichotomy.

    Returns (case, ideals): for P1xP1, ideals is the pair of 3-dimensional
    ideals from ``split_two_ideals`` that tells the case apart, for the
    rulings to reuse; otherwise it is None."""
    if alg.dim == 0:
        return Case.CurveCutByQuadrics, None
    sdim = semisimple.dim
    if sdim == 3:
        return Case.Scroll, None
    if sdim == 6:
        try:
            return Case.P1xP1, split_two_ideals(semisimple)
        except UnexpectedDimension:
            return Case.Unexpected, None
    if sdim == 8:
        return (Case.Veronese if g == 6 else Case.Unexpected), None
    return Case.Unexpected, None


_SPLIT_SAMPLES = [
    (1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 0), (1, 0, 1), (0, 1, 1),
    (1, -1, 0), (1, 0, -1), (0, 1, -1), (1, 1, 1), (1, 1, -1), (1, -1, 1),
    (-1, 1, 1), (2, 1, 0), (2, 0, 1), (0, 2, 1), (1, 2, 0), (1, 0, 2),
    (0, 1, 2), (2, 1, 1), (1, 2, 1), (1, 1, 2), (3, 1, 0), (1, 3, 1),
    (2, 2, 1),
]


def _ad(alg, x):
    """ad(x) as rows, for x in coordinates, read off the structure
    constants: ad(x)[k][j] = sum_i x_i sc[i][j][k]."""
    zero = alg.field.zero()
    out = [[zero] * alg.dim for _ in range(alg.dim)]
    for xi, sci in zip(x, alg.sc):
        if xi:
            for j, col in enumerate(sci):
                for k, c in enumerate(col):
                    if c:
                        out[k][j] = out[k][j] + xi * c
    return out


def _charpoly3(m):
    """Coefficients (c2, c1, c0) of t^3 - c2 t^2 + c1 t - c0 for a 3x3
    given by its rows."""
    (a, b, c), (d, e, f), (g_, h, i) = m
    c2 = a + e + i
    c1 = (a * e - b * d) + (a * i - c * g_) + (e * i - f * h)
    c0 = (a * (e * i - f * h) - b * (d * i - f * g_) + c * (d * h - e * g_))
    return c2, c1, c0


def split_sl2(s):
    """Split triple (e, h, f) of a 3-dimensional semisimple algebra.

    Samples small deterministic elements looking for rational ad-eigenvalues
    {0, +-2}; when all 25 samples have irrational eigenvalues, one square
    root is adjoined and the split proceeds over the extension.
    """
    if s.dim != 3:
        raise NotSl2(f"expected a 3-dimensional algebra, got dim {s.dim}")
    fld = s.field
    chosen = None
    for sample in _SPLIT_SAMPLES:
        coords = [fld.coerce(c) for c in sample]
        c2, c1, c0 = _charpoly3(_ad(s, coords))
        if c2 or c0:
            raise NotSl2("ad(x) has nonzero trace or determinant")
        if not c1:
            continue
        if _field_sqrt(-c1, fld) is not None:
            chosen = coords, -c1
            break
        if chosen is None:
            chosen = coords, -c1
    if chosen is None:
        raise NotSl2("every sampled element was nilpotent")
    coords, alpha_sq = chosen
    # ad(x) has eigenvalues 0 and +-alpha, so ad(2x/alpha) has 0 and +-2
    work, wfld, alpha = _square_root(s, alpha_sq)
    h_coords = [2 * wfld.coerce(c) / alpha for c in coords]

    adh = _ad(work, h_coords)
    two = wfld.coerce(rat(2))
    eig_e = kernel_basis([[adh[i][j] - (two if i == j else wfld.zero())
                           for j in range(3)] for i in range(3)])
    eig_f = kernel_basis([[adh[i][j] + (two if i == j else wfld.zero())
                           for j in range(3)] for i in range(3)])
    if len(eig_e) != 1 or len(eig_f) != 1:
        raise NotSl2("ad(h) eigenspaces for +-2 are not one-dimensional")
    e_coords = [wfld.coerce(x) if isinstance(x, int) else x for x in eig_e[0]]
    f0_coords = [wfld.coerce(x) if isinstance(x, int) else x for x in eig_f[0]]
    br = work.bracket_coords(e_coords, f0_coords)
    piv = next(i for i in range(3) if h_coords[i])
    c = br[piv] / h_coords[piv]
    if not c:
        raise NotSl2("[e, f] is not a nonzero multiple of h")
    for i in range(3):
        if br[i] != c * h_coords[i]:
            raise NotSl2("[e, f] is not parallel to h")
    f_coords = [x / c for x in f0_coords]
    triple = Sl2Triple(e=work.element(e_coords), h=work.element(h_coords),
                       f=work.element(f_coords), n=work.n, field=wfld)
    triple.check()
    return triple
