"""Lie algebra of the quadric system and its structure theory.

The stabilizer of the span of quadrics inside the traceless matrices is the
algebraic invariant that separates the cases: zero for curves cut out by
quadrics, and a positive-dimensional algebra whose Levi type (sl2, sl2+sl2,
sl3) identifies a ruled surface or the Veronese.  The stabilizer equations
are solved mod p by ``modular.certified_kernel`` and lifted to a basis that
is verified exactly.  ``LieAlg`` keeps its basis matrices by their nonzero
entries: brackets are sparse products, coordinates come from one exact
echelon over the basis, and every bracket must reduce to zero there.  The
structure theory is exact linear algebra on the structure constants, on
``FpEchelon`` with no modulus: spans and memberships on its rows, residuals
and solutions read off its reduced rows.
"""

import enum
from dataclasses import dataclass
from functools import cache

from .errors import (InternalInvariantError, InvalidInput, LiftingFailed,
                     NotSl2, SplitFailedOverExtension, UnexpectedDimension)
from .linalg import Mat, kernel_basis
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


def _entries(m):
    """The nonzero entries of a matrix as an {i*cols + j: x} map."""
    return {idx: x for idx, x in enumerate(m.entries) if x}


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


class LieAlg:
    """Matrix Lie algebra given by a basis of n x n matrices (``basis``, a
    list of ``Mat``), each also kept by its nonzero entries grouped by row.

    Coordinates come from one exact ``FpEchelon`` over the basis whose rows
    carry their combination of the basis in ``dim`` extra columns, where a
    matrix reduces to minus its coordinates.  Each bracket of two basis
    matrices is a sparse product, reduced at construction: a residual among
    the n*n entries raises, so closure is verified exactly.  ``sc[i][j]``
    holds the coordinates of [b_i, b_j].
    """

    def __init__(self, n, basis, fld=QQ):
        self.n = n
        self.field = fld
        self.basis = list(basis)
        self._rows = []
        self._echelon = FpEchelon(n * n + len(self.basis))
        for k, b in enumerate(self.basis):
            if b.rows != n or b.cols != n:
                raise InvalidInput("basis matrix has the wrong shape")
            ent = _entries(b)
            self._rows.append(_by_row(ent, n))
            ent[n * n + k] = fld.one()
            self._echelon.add(ent)
            if self._echelon.pivots[-1] >= n * n:
                raise InvalidInput("basis matrices are dependent")
        dim = len(self.basis)
        self.sc = [[None] * dim for _ in range(dim)]
        for i in range(dim):
            self.sc[i][i] = [fld.zero()] * dim
            for j in range(i + 1, dim):
                c = self.express(_bracket(self._rows[i], self._rows[j], n))
                self.sc[i][j] = c
                self.sc[j][i] = [-x for x in c]

    @property
    def dim(self):
        return len(self.basis)

    def express(self, m):
        """Coordinates of a matrix (a ``Mat`` or an {i*n + j: x} map) in the
        basis; raises when it lies outside the span."""
        nn = self.n * self.n
        res = self._echelon.residue(_entries(m) if isinstance(m, Mat) else m)
        if res and min(res) < nn:
            raise InternalInvariantError(
                "matrix outside the algebra span (bracket closure violated)")
        return [self.field.coerce(-res.get(nn + j, 0)) for j in range(self.dim)]

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

    def ad_matrix(self, coords):
        """Matrix of ad(x) on the algebra for x given in coordinates."""
        dim = self.dim
        cols = []
        for j in range(dim):
            unit = [self.field.zero()] * dim
            unit[j] = self.field.one()
            cols.append(self.bracket_coords(coords, unit))
        ent = [cols[j][i] for i in range(dim) for j in range(dim)]
        return Mat(dim, dim, ent, self.field)

    def element(self, coords):
        """Ambient matrix for a coordinate vector."""
        n = self.n
        ent = [self.field.zero()] * (n * n)
        for c, rows in zip(coords, self._rows):
            if c:
                for i, row in rows.items():
                    for j, x in row.items():
                        ent[i * n + j] = ent[i * n + j] + c * x
        return Mat(n, n, ent, self.field)

    def subalgebra(self, coord_vectors):
        return LieAlg(self.n, [self.element(v) for v in coord_vectors], self.field)

    def lift(self, fld):
        """The same algebra over an extension field."""
        mats = [Mat(self.n, self.n, b.entries, fld) for b in self.basis]
        return LieAlg(self.n, mats, fld)


@dataclass
class Sl2Triple:
    e: Mat
    h: Mat
    f: Mat
    field: object

    def check(self):
        n = self.h.rows
        e, h, f = (_entries(m) for m in (self.e, self.h, self.f))
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
    for q in qspace.basis:
        row = {j: fp_reduce(c, p) for j, c in enumerate(q) if c}
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
        """The integral quadric basis and its span: built at the first lift
        to certify, and kept for the next one."""
        return [integral(q) for q in qspace.basis], qspace.row_space()

    def stabilizes(vecs):
        basis, span = quadrics()
        for v in vecs:
            m = integral(v[::-1])
            targets = [[j for j in range(g) if i * g + j in m] for i in range(g)]
            for q in basis:
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
    mats = [Mat(g, g, [row.get(i, 0) for i in range(nn)], fld)
            for row in traceless.reduced()]
    return LieAlg(g, mats, fld)


def killing_form(alg):
    """kappa(b_i, b_j) = trace(ad b_i . ad b_j), from structure constants."""
    dim = alg.dim
    fld = alg.field
    ent = []
    for i in range(dim):
        for j in range(dim):
            s = fld.zero()
            for k in range(dim):
                cik = alg.sc[i][k]
                cjk = alg.sc[j]
                for l in range(dim):
                    if cik[l] and cjk[l][k]:
                        s = s + cik[l] * cjk[l][k]
            ent.append(s)
    return Mat(dim, dim, ent, fld)


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
    rows = [kappa.apply(d) for d in _dense(der.reduced(), dim)]
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


def split_two_ideals(s):
    """Decompose a 6-dimensional semisimple algebra into two 3-dimensional
    ideals via the centroid; adjoins one square root when the two factors
    are conjugate over the base field.  Returns (s1, s2)."""
    if s.dim != 6:
        raise InvalidInput("ideal split expects a 6-dimensional algebra")
    dim = s.dim
    fld = s.field
    ads = [s.ad_matrix([fld.one() if i == j else fld.zero() for i in range(dim)])
           for j in range(dim)]
    rows = []
    for A in ads:
        for r in range(dim):
            for c in range(dim):
                row = [0] * (dim * dim)
                for v in range(dim):
                    row[r * dim + v] = row[r * dim + v] + A[v, c]
                for u in range(dim):
                    row[u * dim + c] = row[u * dim + c] - A[r, u]
                if any(row):
                    rows.append(row)
    cent = kernel_basis(rows)
    if len(cent) != 2:
        raise UnexpectedDimension(
            f"centroid has dimension {len(cent)}; expected 2")
    ident = [fld.one() if i % (dim + 1) == 0 else fld.zero()
             for i in range(dim * dim)]
    idspace = FpEchelon(dim * dim)
    idspace.add(ident)
    psi_vec = None
    for v in cent:
        if not idspace.contains(v):
            psi_vec = v
            break
    if psi_vec is None:
        raise UnexpectedDimension("centroid degenerates to scalars")
    psi = Mat(dim, dim, [fld.coerce(x) if x else fld.zero() for x in psi_vec], fld)
    psi2 = psi * psi
    coords = _solve([[i, pv] for i, pv in zip(ident, psi_vec)], psi2.entries)
    if coords is None:
        raise UnexpectedDimension("centroid is not quadratic over the base field")
    a, b = (fld.coerce(x) for x in coords)
    disc = b * b + 4 * a
    if not disc:
        raise UnexpectedDimension("centroid is not etale; unexpected input")
    if fld == QQ:
        root = sqrt_rational(disc)
    elif isinstance(disc, QuadExt) and not disc.b:
        r = sqrt_rational(disc.a)
        root = fld.coerce(r) if r is not None else None
    else:
        root = None
    work = s
    wfld = fld
    if root is None:
        if fld != QQ:
            raise SplitFailedOverExtension(
                "ideal split needs a second field extension; unsupported")
        sfac, delta = rational_square_split(disc)
        wfld = QuadraticField(delta)
        work = s.lift(wfld)
        psi = Mat(dim, dim, psi.entries, wfld)
        root = QuadExt(0, sfac, delta)
        a, b = wfld.coerce(a), wfld.coerce(b)
    lam1 = (b + root) / 2
    lam2 = (b - root) / 2
    scalefac = 1 / (lam1 - lam2)
    proj = (psi - Mat.identity(dim, wfld).scale(lam2)).scale(scalefac)
    ideals = []
    for projector in (proj, Mat.identity(dim, wfld) - proj):
        img = FpEchelon(dim)
        for j in range(dim):
            unit = [wfld.zero()] * dim
            unit[j] = wfld.one()
            img.add(projector.apply(unit))
        if img.rank != 3:
            raise UnexpectedDimension(
                f"centroid idempotent has rank {img.rank}; expected 3")
        ideals.append(work.subalgebra(_dense(img.reduced(), dim)))
    ideals.sort(key=lambda alg: tuple(str(e) for b in alg.basis for e in b.entries))
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


def _charpoly3(m):
    """Coefficients (c2, c1, c0) of t^3 - c2 t^2 + c1 t - c0 for a 3x3."""
    a, b, c = m[0, 0], m[0, 1], m[0, 2]
    d, e, f = m[1, 0], m[1, 1], m[1, 2]
    g_, h, i = m[2, 0], m[2, 1], m[2, 2]
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
    fallback = None
    h_coords = None
    work = s
    wfld = fld
    for sample in _SPLIT_SAMPLES:
        coords = [fld.coerce(c) for c in sample]
        adx = s.ad_matrix(coords)
        c2, c1, c0 = _charpoly3(adx)
        if c2 or c0:
            raise NotSl2("ad(x) has nonzero trace or determinant")
        alpha_sq = -c1
        if not alpha_sq:
            continue
        if fld == QQ:
            r = sqrt_rational(alpha_sq)
            if r is not None:
                h_coords = [2 * c / r for c in coords]
                break
            if fallback is None:
                fallback = (coords, alpha_sq)
        else:
            # already over an extension: only a rational square splits
            if isinstance(alpha_sq, QuadExt) and not alpha_sq.b:
                r = sqrt_rational(alpha_sq.a)
                if r is not None:
                    h_coords = [2 * c / wfld.coerce(r) for c in coords]
                    break
            if fallback is None:
                fallback = (coords, alpha_sq)
    if h_coords is None:
        if fallback is None:
            raise NotSl2("every sampled element was nilpotent")
        if fld != QQ:
            raise SplitFailedOverExtension(
                "splitting needs a second square root; unsupported")
        coords, alpha_sq = fallback
        sfac, delta = rational_square_split(alpha_sq)
        wfld = QuadraticField(delta)
        work = s.lift(wfld)
        # alpha = sfac*sqrt(delta); h = 2x/alpha = (2/(sfac*delta)) sqrt(delta) x
        scale = QuadExt(0, rat(2) / (sfac * delta), delta)
        h_coords = [scale * wfld.coerce(c) for c in coords]

    adh = work.ad_matrix(h_coords)
    two = wfld.coerce(rat(2))
    eig_e = kernel_basis([[adh[i, j] - (two if i == j else wfld.zero())
                           for j in range(3)] for i in range(3)])
    eig_f = kernel_basis([[adh[i, j] + (two if i == j else wfld.zero())
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
                       f=work.element(f_coords), field=wfld)
    triple.check()
    return triple
