"""Dense Gauss-Jordan elimination over the scalar fields: the tests'
independent reference for the package's one elimination engine, the sparse
``modular.FpEchelon``, and for everything built on it.

Rows are plain lists of ``rat`` or ``QuadExt`` values (ints allowed), or
over F_q of sympy ``GF(q)`` elements; every result is exact.  The reduced
row echelon form of a row space is unique, so ``rref`` gives the canonical
basis that ``kernel`` and ``same_span`` compare.

``identity``, ``mat_mul``, ``bracket``, ``mat_vec`` and ``trace`` are dense
matrix arithmetic on such rows, and ``dense`` and ``sparse`` convert between rows
and the package's {i*n + j: x} matrix maps: the reference for the sparse
products of ``liealg`` and ``scroll``.

``weight_vectors`` and ``chain_columns`` are the chain construction of the
scroll matrix: the highest-weight vectors from the kernels of
[e; h - lam*I], their chains by repeated f, and the chain basis inverted,
whose rows phi_k give the columns (k!.phi_k, (k+1)!.phi_{k+1}).  They are
the reference for ``scroll.highest_weights`` and ``scroll.ruling_columns``,
which build no chain and invert nothing.

``taylor_pieces`` is the same kind of reference for ``poly.taylor_rows``:
it substitutes and splits where the package reads a closed formula.
``taylor_rows_by_division`` is that formula in the chart coordinates, the
other two coordinates divided by the chart one: the rows ``taylor_rows``
gives at a point normalized to chart coordinate 1.

``poly_mul``, ``euclid_gcd`` and ``euclid_squarefree`` are dense univariate
arithmetic over Q on coefficient lists, lowest degree first, with the
Euclidean algorithm on ``rat`` values: the reference for the fraction-free
``modular.zz_gcd`` and ``modular.zz_squarefree``.

``resultant`` is the dense Sylvester resultant of two ``MPoly``, taken by a
fraction-free (Bareiss) determinant over ``MPoly``: the reference for the
package's one resultant engine, ``modular.fp_resultant_keepvar``.

``forms_through_image`` builds the quadrics (k = 2) or cubics (k = 3)
through a canonical image from ``MPoly`` products of the adjoint forms and
multiples of f: the reference for the term-map construction of
``canonical.forms_through_image``, and the cubic space that the Noether count
of ``canonical.cubic_count`` stands for; over F_q its echelon is taken mod
q.  ``form_space`` builds a ``FormSpace`` from dense rows, over F_q by an
``rref`` in ``GF(q)``, and ``dense_rows`` reads one back; ``in_field`` takes
rows of residues into ``GF(q)``.
``expand_in_adjoints`` pulls an ambient form back to the plane.
"""

from math import comb, factorial, lcm

from sympy import GF

from trigonal.canonical import FormSpace, monomials
from trigonal.errors import InvalidInput
from trigonal.modular import FpEchelon
from trigonal.poly import MPoly
from trigonal.scalars import is_rational, rat, sinv


def rref(rows):
    """(reduced rows, pivot columns) of a list of dense rows: each column in
    turn pivots on its first nonzero entry at or below the current row,
    which is scaled to 1 and cleared from every other row."""
    rows = [list(r) for r in rows]
    ncols = len(rows[0]) if rows else 0
    pivots = []
    for c in range(ncols):
        r = len(pivots)
        pr = next((i for i in range(r, len(rows)) if rows[i][c]), None)
        if pr is None:
            continue
        rows[r], rows[pr] = rows[pr], rows[r]
        inv = sinv(rows[r][c])
        rows[r] = [x * inv for x in rows[r]]
        for i in range(len(rows)):
            f = rows[i][c]
            if i != r and f:
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[r])]
        pivots.append(c)
    return rows[:len(pivots)], pivots


def rank(rows):
    return len(rref(rows)[1])


def kernel(rows, ncols):
    """The right null space of the rows, as its reduced echelon basis."""
    red, pivots = rref(rows)
    vecs = []
    for f in (c for c in range(ncols) if c not in pivots):
        v = [0] * ncols
        v[f] = 1
        for row, c in zip(red, pivots):
            if row[f]:
                v[c] = -row[f]
        vecs.append(v)
    return rref(vecs)[0]


def same_span(a, b):
    """True when two lists of dense rows span the same space."""
    return rref(a)[0] == rref(b)[0]


def solve(rows, rhs):
    """One solution x of rows . x = rhs (free unknowns 0), or None."""
    n = len(rows[0])
    red, pivots = rref([list(r) + [b] for r, b in zip(rows, rhs)])
    if n in pivots:
        return None
    x = [0] * n
    for row, c in zip(red, pivots):
        x[c] = row[n]
    return x


def inverse(rows):
    """The inverse of an invertible square matrix, as rows."""
    n = len(rows)
    red, pivots = rref([list(row) + ident for row, ident in zip(rows, identity(n))])
    assert pivots[:n] == list(range(n)), "singular matrix"
    return [row[n:] for row in red]


def identity(n):
    """The n x n identity over Q, as rows."""
    return [[rat(int(i == j)) for j in range(n)] for i in range(n)]


def mat_mul(a, b):
    """The product of two matrices given by their rows."""
    cols = list(zip(*b))
    return [[sum((x * y for x, y in zip(row, col)), 0) for col in cols] for row in a]


def bracket(a, b):
    """ab - ba for two square matrices given by their rows."""
    return [[x - y for x, y in zip(r, s)] for r, s in zip(mat_mul(a, b), mat_mul(b, a))]


def mat_vec(rows, vec):
    """A matrix given by its rows times a column vector."""
    return [sum((x * v for x, v in zip(row, vec)), 0) for row in rows]


def trace(rows):
    return sum((row[i] for i, row in enumerate(rows)), 0)


def dense(m, n):
    """The rows of the n x n matrix with {i*n + j: x} map ``m``."""
    return [[m.get(i * n + j, 0) for j in range(n)] for i in range(n)]


def sparse(rows):
    """The {i*n + j: x} map of the nonzero entries of a square matrix."""
    n = len(rows)
    return {i * n + j: x for i, row in enumerate(rows) for j, x in enumerate(row) if x}


def weight_vectors(e, h):
    """(weight, vector) for the reduced echelon basis of each weight space
    of ker e, from the kernels of [e; h - lam*I] for lam = g-1 down to 0
    until the chains fill the space, sorted by (weight, str)."""
    g = len(e)
    out, filled = [], 0
    for lam in range(g - 1, -1, -1):
        if filled >= g:
            break
        shifted = [[x - lam if i == j else x for j, x in enumerate(row)]
                   for i, row in enumerate(h)]
        for v in kernel(e + shifted, g):
            out.append((lam, v))
            filled += lam + 1
    return sorted(out, key=lambda w: (w[0], tuple(str(x) for x in w[1])))


def chain_columns(e, h, f):
    """The scroll columns (k!.phi_k, (k+1)!.phi_{k+1}), chain by chain: the
    chains v, f.v, ..., f^lam.v of the ``weight_vectors``, and phi_k the row
    of the inverse chain basis at f^k.v."""
    chains = []
    for lam, v in weight_vectors(e, h):
        chains.append([v])
        for _ in range(lam):
            chains[-1].append(mat_vec(f, chains[-1][-1]))
    inv = inverse([list(col) for col in zip(*(v for ch in chains for v in ch))])
    out, offset = [], 0
    for chain in chains:
        out += [([factorial(k) * x for x in inv[offset + k]],
                 [factorial(k + 1) * x for x in inv[offset + k + 1]])
                for k in range(len(chain) - 1)]
        offset += len(chain)
    return out


def taylor_pieces(f, point):
    """Substitute-and-split reference for ``poly.taylor_rows``: the form f
    dehomogenized in the chart of the point's last nonzero coordinate,
    translated to the point, and split into its homogeneous pieces of degree
    0..deg f, each a {(a, k-a): coefficient} dict over the other two
    coordinates in order."""
    chart = max(i for i in range(3) if point[i])
    images = [MPoly.const(2, 1)] * 3
    for slot, i in enumerate(i for i in range(3) if i != chart):
        images[i] = MPoly.variable(2, slot) + MPoly.const(2, sinv(point[chart]) * point[i])
    pieces = [{} for _ in range(f.total_degree() + 1)]
    for e, c in f.substitute(images).terms.items():
        pieces[sum(e)][e] = c
    return pieces


def taylor_rows_by_division(monos, point, k):
    """The rows of the degree-k Taylor piece at a projective point, read in
    the chart of its last nonzero coordinate c with u = p_u / p_c and
    v = p_v / p_c: the entry of x^e in row a is
    C(e_u, a) u^(e_u-a) C(e_v, k-a) v^(e_v-k+a)."""
    chart = max(i for i in range(3) if point[i])
    iu, iv = [i for i in range(3) if i != chart]
    u, v = (sinv(point[chart]) * point[i] for i in (iu, iv))
    return [[comb(e[iu], a) * comb(e[iv], k - a) * u ** (e[iu] - a) * v ** (e[iv] - k + a)
             if e[iu] >= a and e[iv] >= k - a else 0 for e in monos]
            for a in range(k + 1)]


def poly_mul(a, b):
    """The product of two coefficient lists."""
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def _monic(a):
    """a over its leading coefficient, as ``rat`` values, with no trailing
    zeros; [] for zero."""
    a = [rat(x) for x in a]
    while a and not a[-1]:
        a.pop()
    return [x / a[-1] for x in a] if a else a


def euclid_gcd(a, b):
    """The monic gcd over Q of two coefficient lists ([] when both are 0),
    by Euclid's algorithm on ``rat`` values."""
    a, b = _monic(a), _monic(b)
    while b:
        r = list(a)
        while len(r) >= len(b):
            f = r[-1]
            for i, y in enumerate(b):
                r[len(r) - len(b) + i] -= f * y
            while r and not r[-1]:
                r.pop()
        a, b = b, _monic(r)
    return a


def euclid_squarefree(a):
    """The monic square-free part over Q of a coefficient list: a over its
    gcd with a', by long division on ``rat`` values."""
    g = euclid_gcd(a, [i * x for i, x in enumerate(a)][1:])
    r, q = _monic(a), []
    while len(r) >= len(g):
        f = r[-1]
        q.append(f)
        for i, y in enumerate(g):
            r[len(r) - len(g) + i] -= f * y
        r.pop()
    return q[::-1]


def coeffs_by_power(f, var):
    """Coefficients of var^k as polynomials with var zeroed out;
    returns a list indexed by k up to degree_in(var)."""
    d = f.degree_in(var)
    out = [MPoly(f.nvars) for _ in range(d + 1)]
    for e, c in f.terms.items():
        k = e[var]
        ne = list(e)
        ne[var] = 0
        out[k].terms[tuple(ne)] = c
    return out


def det_mpoly(rows):
    """Fraction-free (Bareiss) determinant of a square MPoly matrix."""
    n = len(rows)
    if n == 0:
        raise InvalidInput("empty matrix")
    nvars = rows[0][0].nvars
    m = [list(r) for r in rows]
    sign = 1
    prev = MPoly.const(nvars, 1)
    for k in range(n - 1):
        piv = None
        for i in range(k, n):
            if m[i][k]:
                piv = i
                break
        if piv is None:
            return MPoly(nvars)
        if piv != k:
            m[k], m[piv] = m[piv], m[k]
            sign = -sign
        pk = m[k][k]
        for i in range(k + 1, n):
            mik = m[i][k]
            for j in range(k + 1, n):
                num = pk * m[i][j] - mik * m[k][j]
                m[i][j] = num.exact_div(prev) if num else num
            m[i][k] = MPoly(nvars)
        prev = pk
    out = m[n - 1][n - 1]
    return out if sign == 1 else -out


def sylvester_matrix(f, g, var):
    """Sylvester matrix of f, g seen as univariate in ``var``; entries are
    polynomials in the remaining variables (the chosen variable zeroed)."""
    fm = f.degree_in(var)
    gn = g.degree_in(var)
    fc = coeffs_by_power(f, var)
    gc = coeffs_by_power(g, var)
    size = fm + gn
    zero = MPoly(f.nvars)
    rows = [[zero] * size for _ in range(size)]
    for i in range(gn):
        for k in range(fm + 1):
            rows[i][i + k] = fc[fm - k]
    for i in range(fm):
        for k in range(gn + 1):
            rows[gn + i][i + k] = gc[gn - k]
    return rows


def resultant(f, g, var):
    """Sylvester resultant of f and g with respect to variable ``var``."""
    if not f or not g:
        raise InvalidInput("resultant of a zero polynomial")
    if f.nvars != g.nvars:
        raise InvalidInput("variable count mismatch")
    m = f.degree_in(var)
    n = g.degree_in(var)
    if m == 0 and n == 0:
        raise InvalidInput("both polynomials are constant in the chosen variable")
    if m == 0:
        return f ** n
    if n == 0:
        return g ** m
    return det_mpoly(sylvester_matrix(f, g, var))


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
    image, k in {2, 3}: the kernel of one ``FpEchelon`` over the ``MPoly``
    products of the adjoint forms and the multiples of f, cut to its parts
    on the products and taken in reduced echelon form by a second one."""
    g = cm.genus
    d = curve.degree
    big = k * cm.degree
    amb = monomials(g, k)
    tindex = {m: i for i, m in enumerate(monomials(3, big))}

    power = _power_cache(cm.forms)
    rows = [{} for _ in tindex]
    products = []
    for mono in amb:
        prod = MPoly.const(3, 1)
        for i, e in enumerate(mono):
            if e:
                prod = prod * power(i, e)
        products.append(prod)
    if big - d >= 0:
        products += [curve.f * MPoly.monomial(3, beta, 1)
                     for beta in monomials(3, big - d)]
    for col, prod in enumerate(products):
        for e, c in prod.terms.items():
            rows[tindex[e]][col] = c

    ech = FpEchelon(len(products), curve.field.char)
    for row in rows:
        ech.add(row)
    basis = [[row.get(j, 0) for j in range(len(amb))]
             for row in ech.reduced_kernel(len(amb))]
    return form_space(g, basis, amb, curve.field)


def form_space(g, vectors, monos, field):
    """The ``FormSpace`` over ``field`` of the span of dense ``vectors``
    over ``monos``: the rows of their ``rref`` made sparse and, over Q,
    scaled by the lcm of their denominators, which makes each one
    primitive.  Over F_q the ``rref`` is taken in ``GF(q)`` and its rows are
    read back as residues."""
    q = field.char
    rows = []
    for vec in rref(in_field(vectors, field))[0]:
        row = {j: x for j, x in enumerate(vec) if x}
        if q:
            row = {j: int(x) % q for j, x in row.items()}
        elif all(is_rational(x) for x in row.values()):
            den = lcm(*(x.denominator for x in row.values()))
            row = {j: int(x * den) for j, x in row.items()}
        rows.append(row)
    return FormSpace(ambient_dim=g, rows=rows, monomials=monos, field=field)


def in_field(rows, field):
    """Dense rows over ``field`` as the reference computes on them: over F_q
    as ``GF(q)`` elements, otherwise as they are."""
    if not field.char:
        return rows
    gf = GF(field.char)
    return [[gf(x) for x in row] for row in rows]


def dense_rows(space):
    """The rows of a ``FormSpace`` as dense lists over its monomials."""
    return [[row.get(j, 0) for j in range(len(space.monomials))] for row in space.rows]
