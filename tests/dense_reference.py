"""Dense Gauss-Jordan elimination over the scalar fields: the tests'
independent reference for the package's one elimination engine, the sparse
``modular.FpEchelon``, and for everything built on it.

Rows are plain lists of ``rat``, ``QuadExt`` or ``FpElt`` values (ints
allowed); every result is exact.  The reduced row echelon form of a row
space is unique, so ``rref`` gives the canonical basis that ``kernel`` and
``same_span`` compare.

``taylor_pieces`` is the same kind of reference for ``poly.taylor_rows``:
it substitutes and splits where the package reads a closed formula.
"""

from trigonal.linalg import Mat
from trigonal.poly import MPoly
from trigonal.scalars import sinv


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


def inverse(m):
    """The inverse of an invertible square ``Mat``."""
    n = m.rows
    one, zero = m.field.one(), m.field.zero()
    red, pivots = rref([row + [one if j == i else zero for j in range(n)]
                        for i, row in enumerate(m.to_rows())])
    assert pivots[:n] == list(range(n)), "singular matrix"
    return Mat.from_rows([row[n:] for row in red], m.field)


def taylor_pieces(f, point):
    """Substitute-and-split reference for ``poly.taylor_rows``: the form f
    dehomogenized in the chart of the point's last nonzero coordinate,
    translated to the point, and split into its homogeneous pieces of degree
    0..deg f, each a {(a, k-a): coefficient} dict over the other two
    coordinates in order."""
    chart = max(i for i in range(3) if point[i])
    images = [MPoly.const(2, 1)] * 3
    for slot, i in enumerate(i for i in range(3) if i != chart):
        images[i] = MPoly.variable(2, slot) + MPoly.const(2, point[i] / point[chart])
    pieces = [{} for _ in range(f.total_degree() + 1)]
    for e, c in f.substitute(images).terms.items():
        pieces[sum(e)][e] = c
    return pieces
