"""The dense-list entry point to the package's elimination engine.

``kernel_basis`` takes dense rows and the characteristic of their field,
hands them to ``modular.FpEchelon`` with that modulus and returns the
kernel as dense lists in reduced echelon form, which depends only on the
kernel, so identical inputs give byte-identical bases.  Integer 0 stands
for the zero of any field; scalar classes all interoperate with it.  Over Q
a row may hold ints, ``Fraction``s or both, and the basis holds an int for
each integral entry and a ``Fraction`` for each other one; over F_q rows
hold any ints and the basis holds their residues.
"""

from .errors import InvalidInput
from .modular import FpEchelon

__all__ = ["kernel_basis"]


def kernel_basis(rows, p=0):
    """Basis of the right null space of a list of dense rows, in reduced
    echelon form: rank + len(result) == cols.  The rows go into an
    ``FpEchelon`` mod ``p``, exact at 0, whose ``reduced_kernel`` is the
    basis."""
    ncols = len(rows[0]) if rows else 0
    if any(len(r) != ncols for r in rows):
        raise InvalidInput("ragged rows")
    ech = FpEchelon(ncols, p)
    for r in rows:
        ech.add(r)
    return [[r.get(j, 0) for j in range(ncols)] for r in ech.reduced_kernel(ncols)]
