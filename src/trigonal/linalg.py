"""Dense exact matrices over the scalar fields, and the dense-list entry
point to the package's elimination engine.

``Mat`` is an immutable dense matrix.  ``kernel_basis`` takes dense rows,
hands them to ``modular.FpEchelon`` with no modulus and returns the kernel
as dense lists in reduced echelon form, which depends only on the kernel, so
identical inputs give byte-identical bases.  Integer 0 stands for the zero
of any field; scalar classes all interoperate with it.
"""

from .errors import InvalidInput
from .modular import FpEchelon
from .scalars import QQ, common_field

__all__ = ["Mat", "kernel_basis"]


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


def kernel_basis(m):
    """Basis of the right null space of a ``Mat`` or a list of dense rows,
    in reduced echelon form: rank + len(result) == cols.  The rows go into
    an exact ``FpEchelon``, whose ``reduced_kernel`` is the basis."""
    rows = m.to_rows() if isinstance(m, Mat) else m
    ncols = len(rows[0]) if rows else 0
    if any(len(r) != ncols for r in rows):
        raise InvalidInput("ragged rows")
    ech = FpEchelon(ncols)
    for r in rows:
        ech.add(r)
    return [[r.get(j, 0) for j in range(ncols)] for r in ech.reduced_kernel(ncols)]
