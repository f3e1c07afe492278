import random

import pytest
from hypothesis import given, settings, strategies as st

from trigonal.errors import InvalidInput
from trigonal.linalg import (Mat, RowSpace, inverse, kernel_basis, mat_det,
                             rank, rref, solve)
from trigonal.scalars import FpElt, PrimeField, rat


def _brute_rank(rows, p):
    """Independent text-book elimination over F_p (ints), counting nonzero
    rows; no normalization, different pivot walk than the library."""
    m = [list(r) for r in rows]
    if not m:
        return 0
    nrows, ncols = len(m), len(m[0])
    rk = 0
    for col in range(ncols):
        piv = None
        for i in range(rk, nrows):
            if m[i][col] % p:
                piv = i
                break
        if piv is None:
            continue
        m[rk], m[piv] = m[piv], m[rk]
        for i in range(nrows):
            if i != rk and m[i][col] % p:
                f = m[i][col] * pow(m[rk][col], p - 2, p) % p
                m[i] = [(a - f * b) % p for a, b in zip(m[i], m[rk])]
        rk += 1
    return rk


def test_kernel_trivial_cases():
    assert kernel_basis(Mat.from_rows([[rat(1), rat(1)]])) == [[1, rat(-1)]]
    assert kernel_basis(Mat.identity(2)) == []
    assert kernel_basis(Mat.from_rows([[rat(1), rat(0), rat(0)],
                                       [rat(0), rat(1), rat(0)]])) == [[0, 0, 1]]


def test_rank_trivial_cases():
    assert rank(Mat.zero(3, 3)) == 0
    assert rank(Mat.identity(3)) == 3
    assert rank(Mat.from_rows([[rat(1), rat(2)], [rat(2), rat(4)]])) == 1


def test_rank_kernel_vs_bruteforce_oracle_fp():
    p = 10007
    F = PrimeField(p)
    rng = random.Random(42)
    for _ in range(40):
        n = rng.randint(1, 6)
        m = rng.randint(1, 6)
        rows = [[rng.randrange(p) for _ in range(m)] for _ in range(n)]
        mat = Mat.from_rows([[F.coerce(x) for x in row] for row in rows], F)
        rk = rank(mat)
        assert rk == _brute_rank(rows, p)
        kern = kernel_basis(mat)
        assert rk + len(kern) == m
        for v in kern:
            img = mat.apply([F.coerce(x) if isinstance(x, int) else x for x in v])
            assert not any(img)


def test_rank_equals_transpose_rank():
    rng = random.Random(7)
    for _ in range(25):
        n, m = rng.randint(1, 5), rng.randint(1, 5)
        mat = Mat.from_rows([[rat(rng.randint(-9, 9)) for _ in range(m)]
                             for _ in range(n)])
        assert rank(mat) == rank(mat.transpose())


def test_kernel_vectors_in_reduced_echelon_form():
    mat = Mat.from_rows([[rat(1), rat(2), rat(3), rat(4)]])
    kern = kernel_basis(mat)
    assert len(kern) == 3
    # leading entries are 1 and strictly move right
    lead = []
    for v in kern:
        nz = [i for i, x in enumerate(v) if x]
        assert v[nz[0]] == 1
        lead.append(nz[0])
    assert lead == sorted(lead)
    # every vector is in the kernel
    for v in kern:
        assert sum(c * x for c, x in zip(mat.row(0), v)) == 0


def test_mixed_variants_rejected():
    with pytest.raises(InvalidInput):
        Mat.from_rows([[rat(1), FpElt(1, 101)]])


def test_solve_and_inverse():
    m = Mat.from_rows([[rat(2), rat(1)], [rat(1), rat(1)]])
    x = solve(m.to_rows(), [rat(3), rat(2)])
    assert x == [rat(1), rat(1)]
    inv = inverse(m)
    assert (m * inv) == Mat.identity(2)
    assert mat_det(m) == rat(1)
    assert solve([[rat(1), rat(1)], [rat(1), rat(1)]], [rat(0), rat(1)]) is None


def test_rref_is_canonical_and_deterministic():
    rows = [[rat(2), rat(4), rat(2)], [rat(1), rat(3), rat(1)]]
    r1, piv1 = rref(rows)
    r2, piv2 = rref(list(reversed(rows)))
    assert piv1 == piv2 == [0, 1]
    assert r1 == r2


def test_rowspace_membership_and_equality():
    rs = RowSpace(3)
    assert rs.add([rat(1), rat(1), rat(0)])
    assert rs.add([rat(0), rat(1), rat(1)])
    assert not rs.add([rat(1), rat(2), rat(1)])
    assert rs.contains([rat(2), rat(3), rat(1)])
    other = RowSpace(3, rows=[[rat(1), rat(2), rat(1)], [rat(1), rat(1), rat(0)]])
    assert rs.equals(other)


@settings(max_examples=60)
@given(st.lists(st.lists(st.builds(rat, st.integers(-40, 40), st.integers(1, 6)),
                         min_size=4, max_size=4), min_size=1, max_size=6),
       st.randoms(use_true_random=False))
def test_rowspace_basis_does_not_depend_on_insertion_order(vecs, rnd):
    shuffled = list(vecs)
    rnd.shuffle(shuffled)
    a, b = RowSpace(4, rows=vecs), RowSpace(4, rows=shuffled)
    assert a.basis() == b.basis() and a.pivots() == b.pivots()
