"""Dense exact linear algebra over the scalar fields.

Everything is plain Gaussian elimination with deterministic pivoting (first
nonzero entry in row order), so identical inputs give byte-identical bases.
Integer 0 is used as the zero sentinel inside work rows; scalar classes all
interoperate with it.
"""

from .errors import InvalidInput
from .scalars import QQ, common_field, sinv

__all__ = ["Mat", "rref", "rank", "kernel_basis", "solve", "inverse",
           "mat_det", "RowSpace"]


class Mat:
    """Immutable dense matrix over one scalar field."""

    __slots__ = ("rows", "cols", "entries", "field")

    def __init__(self, rows, cols, entries, field=None):
        entries = list(entries)
        if len(entries) != rows * cols:
            raise InvalidInput("entry count does not match the shape")
        if field is None:
            field = common_field(entries) if entries else QQ
        else:
            entries = [field.coerce(x) for x in entries]
        for x in entries:
            if not field.is_element(x):
                raise InvalidInput(f"entry {x!r} is not in {field}")
        self.rows = rows
        self.cols = cols
        self.entries = tuple(entries)
        self.field = field

    @classmethod
    def from_rows(cls, rows, field=None):
        rows = [list(r) for r in rows]
        n = len(rows)
        m = len(rows[0]) if rows else 0
        if any(len(r) != m for r in rows):
            raise InvalidInput("ragged rows")
        return cls(n, m, [x for r in rows for x in r], field)

    @classmethod
    def identity(cls, n, field=QQ):
        e = [field.one() if i == j else field.zero()
             for i in range(n) for j in range(n)]
        return cls(n, n, e, field)

    @classmethod
    def zero(cls, rows, cols, field=QQ):
        return cls(rows, cols, [field.zero()] * (rows * cols), field)

    def __getitem__(self, ij):
        i, j = ij
        return self.entries[i * self.cols + j]

    def row(self, i):
        return list(self.entries[i * self.cols:(i + 1) * self.cols])

    def to_rows(self):
        return [self.row(i) for i in range(self.rows)]

    def transpose(self):
        e = [self.entries[i * self.cols + j]
             for j in range(self.cols) for i in range(self.rows)]
        return Mat(self.cols, self.rows, e, self.field)

    def trace(self):
        if self.rows != self.cols:
            raise InvalidInput("trace of a non-square matrix")
        t = self.field.zero()
        for i in range(self.rows):
            t = t + self.entries[i * self.cols + i]
        return t

    def __add__(self, other):
        self._compat(other)
        return Mat(self.rows, self.cols,
                   [a + b for a, b in zip(self.entries, other.entries)], self.field)

    def __sub__(self, other):
        self._compat(other)
        return Mat(self.rows, self.cols,
                   [a - b for a, b in zip(self.entries, other.entries)], self.field)

    def __neg__(self):
        return Mat(self.rows, self.cols, [-a for a in self.entries], self.field)

    def scale(self, c):
        return Mat(self.rows, self.cols, [c * a for a in self.entries], self.field)

    def _compat(self, other):
        if not isinstance(other, Mat) or other.rows != self.rows or other.cols != self.cols:
            raise InvalidInput("matrix shape mismatch")

    def __mul__(self, other):
        if not isinstance(other, Mat):
            return NotImplemented
        if self.cols != other.rows:
            raise InvalidInput("matrix shape mismatch in product")
        n, k, m = self.rows, self.cols, other.cols
        a, b = self.entries, other.entries
        out = []
        for i in range(n):
            arow = a[i * k:(i + 1) * k]
            for j in range(m):
                s = 0
                for l in range(k):
                    x = arow[l]
                    if x:
                        s = s + x * b[l * m + j]
                out.append(s if s else self.field.zero())
        return Mat(n, m, out, self.field)

    def apply(self, vec):
        """Matrix times column vector (a plain list)."""
        if len(vec) != self.cols:
            raise InvalidInput("vector length mismatch")
        out = []
        for i in range(self.rows):
            s = 0
            row = self.entries[i * self.cols:(i + 1) * self.cols]
            for x, v in zip(row, vec):
                if x and v:
                    s = s + x * v
            out.append(s if s else self.field.zero())
        return out

    def is_zero(self):
        return not any(self.entries)

    def __eq__(self, other):
        return (isinstance(other, Mat) and self.rows == other.rows
                and self.cols == other.cols
                and all(a == b for a, b in zip(self.entries, other.entries)))

    def __hash__(self):
        return hash((self.rows, self.cols, tuple(str(e) for e in self.entries)))

    def __repr__(self):
        body = "; ".join(" ".join(str(x) for x in self.row(i)) for i in range(self.rows))
        return f"Mat({self.rows}x{self.cols}: {body})"


def _as_work_rows(m):
    if isinstance(m, Mat):
        return [list(r) for r in m.to_rows()], m.cols
    rows = [list(r) for r in m]
    cols = len(rows[0]) if rows else 0
    if any(len(r) != cols for r in rows):
        raise InvalidInput("ragged rows")
    return rows, cols


def _rref_rows(rows, cols):
    """In-place reduced row echelon form; returns pivot column list."""
    pivots = []
    r = 0
    nrows = len(rows)
    for c in range(cols):
        pr = None
        for i in range(r, nrows):
            if rows[i][c]:
                pr = i
                break
        if pr is None:
            continue
        rows[r], rows[pr] = rows[pr], rows[r]
        inv = sinv(rows[r][c])
        row_r = rows[r]
        if inv != 1:
            for j in range(c, cols):
                if row_r[j]:
                    row_r[j] = row_r[j] * inv
        for i in range(nrows):
            if i != r and rows[i][c]:
                f = rows[i][c]
                ri = rows[i]
                for j in range(c, cols):
                    if row_r[j]:
                        ri[j] = ri[j] - f * row_r[j]
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    return pivots


def rref(m):
    """Reduced row echelon form: returns (rows, pivot_columns)."""
    rows, cols = _as_work_rows(m)
    pivots = _rref_rows(rows, cols)
    return rows[:len(pivots)], pivots


def rank(m):
    """Exact rank over the entries' field."""
    _, pivots = rref(m)
    return len(pivots)


def kernel_basis(m, reduced=True):
    """Basis of the right null space.

    rank + len(result) == cols.  With reduced=True (the default) the result
    is additionally brought to reduced echelon form, making it canonical.
    """
    rows, cols = _as_work_rows(m)
    pivots = _rref_rows(rows, cols)
    pivset = set(pivots)
    free = [c for c in range(cols) if c not in pivset]
    vecs = []
    for fc in free:
        v = [0] * cols
        v[fc] = 1
        for i, pc in enumerate(pivots):
            if rows[i][fc]:
                v[pc] = -rows[i][fc]
        vecs.append(v)
    if vecs and reduced:
        _rref_rows(vecs, cols)
    return vecs


def solve(m, b):
    """One exact solution x of m x = b, or None if inconsistent."""
    rows, cols = _as_work_rows(m)
    aug = [r + [bv] for r, bv in zip(rows, b)]
    pivots = _rref_rows(aug, cols + 1)
    if cols in pivots:
        return None
    x = [0] * cols
    for i, pc in enumerate(pivots):
        x[pc] = aug[i][cols]
    return x


def inverse(m):
    if m.rows != m.cols:
        raise InvalidInput("inverse of a non-square matrix")
    n = m.rows
    rows = m.to_rows()
    ident = Mat.identity(n, m.field).to_rows()
    aug = [r + e for r, e in zip(rows, ident)]
    pivots = _rref_rows(aug, 2 * n)
    if pivots[:n] != list(range(n)):
        raise InvalidInput("matrix is singular")
    inv_rows = [r[n:] for r in aug[:n]]
    return Mat.from_rows(inv_rows, m.field)


def mat_det(m):
    """Exact determinant via elimination (deterministic pivoting)."""
    if m.rows != m.cols:
        raise InvalidInput("determinant of a non-square matrix")
    rows = m.to_rows()
    n = m.rows
    det = m.field.one()
    for c in range(n):
        pr = None
        for i in range(c, n):
            if rows[i][c]:
                pr = i
                break
        if pr is None:
            return m.field.zero()
        if pr != c:
            rows[c], rows[pr] = rows[pr], rows[c]
            det = -det
        det = det * rows[c][c]
        inv = sinv(rows[c][c])
        for i in range(c + 1, n):
            if rows[i][c]:
                f = rows[i][c] * inv
                for j in range(c, n):
                    if rows[c][j]:
                        rows[i][j] = rows[i][j] - f * rows[c][j]
    return det


class RowSpace:
    """Incrementally built row space with exact membership/reduction.

    Rows are kept fully reduced against each other (RREF order by pivot
    column), so reduce() returns a canonical residual.
    """

    def __init__(self, ncols, rows=None):
        self.ncols = ncols
        self._rows = []       # (pivot_col, row)
        if rows is not None:
            for r in rows:
                self.add(list(r))

    @property
    def dim(self):
        return len(self._rows)

    def reduce(self, vec):
        """Reduce vec against the space; returns (coords, residual).

        coords[i] is the coefficient of stored row i used in the reduction.
        """
        vec = list(vec)
        coords = [0] * len(self._rows)
        for i, (pc, row) in enumerate(self._rows):
            c = vec[pc]
            if c:
                coords[i] = c
                for j in range(pc, self.ncols):
                    if row[j]:
                        vec[j] = vec[j] - c * row[j]
        return coords, vec

    def contains(self, vec):
        _, res = self.reduce(vec)
        return not any(res)

    def add(self, vec):
        """Insert vec; returns True if the dimension grew."""
        _, res = self.reduce(vec)
        pc = None
        for j, x in enumerate(res):
            if x:
                pc = j
                break
        if pc is None:
            return False
        inv = sinv(res[pc])
        if inv != 1:
            res = [x * inv if x else x for x in res]
        # keep previously stored rows reduced against the new pivot
        for _, row in self._rows:
            c = row[pc]
            if c:
                for j in range(pc, self.ncols):
                    if res[j]:
                        row[j] = row[j] - c * res[j]
        self._rows.append((pc, res))
        self._rows.sort(key=lambda t: t[0])
        return True

    def basis(self):
        return [list(r) for _, r in self._rows]

    def pivots(self):
        return [pc for pc, _ in self._rows]

    def equals(self, other):
        if not isinstance(other, RowSpace) or other.ncols != self.ncols:
            return False
        if other.dim != self.dim or other.pivots() != self.pivots():
            return False
        return all(all(x == y for x, y in zip(a, b))
                   for a, b in zip(self.basis(), other.basis()))
