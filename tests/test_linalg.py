"""``kernel_basis``, the dense-list entry point to ``FpEchelon``,
and the echelon's ranks and reduced rows, against the dense reference and
sympy."""

import random

import pytest
from hypothesis import given, settings, strategies as st
from sympy import GF

import dense_reference as ref
from trigonal.linalg import kernel_basis
from trigonal.modular import FpEchelon
from trigonal.scalars import rat


def echelon(ncols, rows, p=0):
    ech = FpEchelon(ncols, p)
    for row in rows:
        ech.add(row)
    return ech


def rank(rows):
    """Rank of a matrix, given by its rows, on the exact echelon."""
    return echelon(len(rows[0]), rows).rank


def dense(ech):
    return [[row.get(j, 0) for j in range(ech.ncols)] for row in ech.reduced()]


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
    assert kernel_basis([[rat(1), rat(1)]]) == [[1, rat(-1)]]
    assert kernel_basis(ref.identity(2)) == []
    assert kernel_basis([[rat(1), rat(0), rat(0)],
                         [rat(0), rat(1), rat(0)]]) == [[0, 0, 1]]


def test_rank_trivial_cases():
    assert rank([[rat(0)] * 3 for _ in range(3)]) == 0
    assert rank(ref.identity(3)) == 3
    assert rank([[rat(1), rat(2)], [rat(2), rat(4)]]) == 1


def test_rank_kernel_vs_bruteforce_oracle_fp():
    # rows of residues, the last a multiple of the first mod p only; the
    # kernel is checked in sympy's GF(p)
    p = 10007
    F = GF(p)
    rng = random.Random(42)
    for _ in range(40):
        n = rng.randint(1, 6)
        m = rng.randint(1, 6)
        rows = [[rng.randrange(p) for _ in range(m)] for _ in range(n)]
        c = rng.randrange(2, p)
        rows.append([c * x % p for x in rows[0]])
        rk = echelon(m, rows, p).rank
        assert rk == _brute_rank(rows, p)
        kern = kernel_basis(rows, p)
        assert rk + len(kern) == m
        for v in kern:
            assert all(type(x) is int and 0 <= x < p for x in v)
            img = ref.mat_vec([[F(x) for x in row] for row in rows], [F(x) for x in v])
            assert not any(img)


def test_rank_equals_transpose_rank():
    rng = random.Random(7)
    for _ in range(25):
        n, m = rng.randint(1, 5), rng.randint(1, 5)
        mat = [[rat(rng.randint(-9, 9)) for _ in range(m)] for _ in range(n)]
        assert rank(mat) == rank([list(col) for col in zip(*mat)])


def test_kernel_vectors_in_reduced_echelon_form():
    mat = [[rat(1), rat(2), rat(3), rat(4)]]
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
        assert sum(c * x for c, x in zip(mat[0], v)) == 0


def test_solve_and_inverse():
    """The dense reference's solve and inverse that the other tests lean
    on."""
    m = [[rat(2), rat(1)], [rat(1), rat(1)]]
    assert ref.solve(m, [rat(3), rat(2)]) == [rat(1), rat(1)]
    assert ref.mat_mul(m, ref.inverse(m)) == ref.identity(2)
    assert ref.solve([[rat(1), rat(1)], [rat(1), rat(1)]], [rat(0), rat(1)]) is None
    # free unknowns are 0, pivot unknowns read off the augmented column
    assert ref.solve([[rat(1), rat(2), rat(0)], [rat(0), rat(0), rat(3)]],
                     [rat(5), rat(6)]) == [rat(5), 0, rat(2)]


def test_rref_is_canonical_and_deterministic():
    """The exact echelon's reduced rows are the reference rref, whatever
    order the rows come in."""
    rows = [[rat(2), rat(4), rat(2)], [rat(1), rat(3), rat(1)]]
    r1, r2 = (echelon(3, rs) for rs in (rows, list(reversed(rows))))
    assert r1.pivots == r2.pivots == [0, 1]
    assert r1.reduced() == r2.reduced()
    assert dense(r1) == ref.rref(rows)[0]


def test_rowspace_membership_and_equality():
    rs = FpEchelon(3)
    assert rs.add([rat(1), rat(1), rat(0)])
    assert rs.add([rat(0), rat(1), rat(1)])
    assert not rs.add([rat(1), rat(2), rat(1)])
    assert rs.contains([rat(2), rat(3), rat(1)])
    other = echelon(3, [[rat(1), rat(2), rat(1)], [rat(1), rat(1), rat(0)]])
    assert rs.reduced() == other.reduced()


@settings(max_examples=60)
@given(st.lists(st.lists(st.builds(rat, st.integers(-40, 40), st.integers(1, 6)),
                         min_size=4, max_size=4), min_size=1, max_size=6),
       st.randoms(use_true_random=False))
def test_rowspace_basis_does_not_depend_on_insertion_order(vecs, rnd):
    shuffled = list(vecs)
    rnd.shuffle(shuffled)
    a, b = echelon(4, vecs), echelon(4, shuffled)
    assert a.reduced() == b.reduced() and a.pivots == b.pivots
    assert dense(a) == ref.rref(vecs)[0]


def test_kernel_basis_and_reduced_rows_match_sympy():
    """sympy's rref and nullspace as an outside oracle over Q: the reduced
    rows of the exact echelon are ``Matrix.rref``, and ``kernel_basis`` is
    the rref of ``Matrix.nullspace``."""
    sympy = pytest.importorskip("sympy")

    def fractions(m):
        return [[rat(int(x.p), int(x.q)) for x in m.row(i)] for i in range(m.rows)]

    rng, rows_rng = random.Random(11), random.Random(12)
    for _ in range(40):
        n, m = rng.randint(1, 5), rng.randint(1, 6)
        rows = [[rat(rng.randint(-9, 9), rng.randint(1, 4)) if rng.random() < 0.7
                 else rat(0) for _ in range(m)] for _ in range(n)]
        sm = sympy.Matrix([[sympy.Rational(x.numerator, x.denominator) for x in r]
                           for r in rows])
        red, pivots = sm.rref()
        ech = echelon(m, rows)
        assert ech.pivots == list(pivots)
        assert dense(ech) == fractions(red[:len(pivots), :])
        null = sm.nullspace()
        want = fractions(sympy.Matrix.hstack(*null).T.rref()[0]) if null else []
        assert kernel_basis(rows) == want
        # every integral entry the exact layer returns is an int
        row = [rat(rows_rng.randint(-9, 9), rows_rng.randint(1, 3)) for _ in range(m)]
        res = ech.residue(row)
        assert ech.contains([x - res.get(j, 0) for j, x in enumerate(row)])
        assert _lean(x for r in ech.reduced() for x in r.values())
        assert _lean(x for v in kernel_basis(rows) for x in v)
        assert _lean(res.values())


def _lean(xs):
    """Each rational an int when integral and a ``Fraction`` otherwise."""
    return all(type(x) is (int if x.denominator == 1 else rat) for x in xs)


def test_kernel_basis_of_integer_rows_holds_ints():
    kern = kernel_basis([[1, 2, 3], [0, 1, 1]])
    assert kern == [[1, 1, -1]]
    assert all(type(x) is int for x in kern[0])
