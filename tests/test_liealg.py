import importlib.util
import random
from fractions import Fraction
from itertools import islice
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import dense_reference as ref
from trigonal import intutil, liealg, modular
from trigonal.canonical import (adjoint_basis, forms_through_image,
                                monomials, petri_test)
from trigonal.curve import validate_curve
from trigonal.errors import (ChainCountUnexpected, CurveUnsupported,
                             InternalInvariantError, InvalidInput, LiftingFailed,
                             NotSl2, SplitFailedOverExtension, UnexpectedDimension)
from trigonal.liealg import (Case, LieAlg, classify, killing_form, levi,
                             radical, split_sl2, split_two_ideals,
                             stabilizer_algebra)
from trigonal.linalg import kernel_basis
from trigonal.scalars import QQ, QuadExt, QuadraticField, rat
from trigonal.scroll import ruling_columns

WALK = list(islice(modular.primes_below(modular.PRIME_WALK_START), 2))

_SPEC = importlib.util.spec_from_file_location(
    "perfbench_corpus", Path(__file__).resolve().parent.parent / "perfbench" / "corpus.py")
corpus = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(corpus)


def _sum(*mats, scale=1):
    """The sum of {i*n + j: x} matrix maps, the last times ``scale``."""
    out = {}
    for k, m in enumerate(mats):
        c = scale if k == len(mats) - 1 else 1
        for idx, x in m.items():
            out[idx] = out.get(idx, 0) + c * x
    return {idx: x for idx, x in out.items() if x}


def _br(a, b, n):
    """[a, b] of two {i*n + j: x} maps, by the dense reference."""
    return ref.sparse(ref.bracket(ref.dense(a, n), ref.dense(b, n)))


def _std_sl2():
    e = ref.sparse([[rat(0), rat(1)], [rat(0), rat(0)]])
    h = ref.sparse([[rat(1), rat(0)], [rat(0), rat(-1)]])
    f = ref.sparse([[rat(0), rat(0)], [rat(1), rat(0)]])
    return LieAlg(2, [e, h, f])


def quadric_space(vec_terms, nvars):
    monos = monomials(nvars, 2)
    idx = {m: i for i, m in enumerate(monos)}
    basis = []
    for terms in vec_terms:
        v = [0] * len(monos)
        for mono, c in terms.items():
            v[idx[mono]] = rat(c)
        basis.append(v)
    return ref.form_space(nvars, basis, monos, QQ)


CONIC = quadric_space([{(1, 0, 1): 1, (0, 2, 0): -1}], 3)

# quadrics of the cone over the twisted cubic in P^4 (vertex = last coord):
# 2x2 minors of [[w0,w1,w2],[w1,w2,w3]]
CONE = quadric_space([
    {(1, 0, 1, 0, 0): 1, (0, 2, 0, 0, 0): -1},
    {(1, 0, 0, 1, 0): 1, (0, 1, 1, 0, 0): -1},
    {(0, 1, 0, 1, 0): 1, (0, 0, 2, 0, 0): -1},
], 5)


def test_stabilizer_of_conic_is_three_dimensional():
    alg = stabilizer_algebra(CONIC)
    assert alg.dim == 3
    assert all(not ref.trace(ref.dense(b, 3)) for b in alg.basis)
    assert not radical(alg)
    t = split_sl2(levi(alg))
    assert t.check() and t.field == QQ


def test_killing_form_of_standard_sl2():
    alg = _std_sl2()
    K = killing_form(alg)
    # basis order (e, h, f)
    assert K[1][1] == 8 and K[0][2] == 4 and K[2][0] == 4
    assert K[0][0] == 0 and K[0][1] == 0 and K[1][2] == 0
    assert ref.rank(K) == 3


def test_killing_symmetry_and_invariance():
    alg = _std_sl2()
    K = killing_form(alg)
    rng = random.Random(3)
    for _ in range(10):
        x = [rat(rng.randint(-3, 3)) for _ in range(3)]
        y = [rat(rng.randint(-3, 3)) for _ in range(3)]
        z = [rat(rng.randint(-3, 3)) for _ in range(3)]

        def kap(u, v):
            return sum(u[i] * K[i][j] * v[j] for i in range(3) for j in range(3))
        assert kap(x, y) == kap(y, x)
        assert kap(alg.bracket_coords(x, y), z) == kap(x, alg.bracket_coords(y, z))


def test_radical_cases():
    alg = _std_sl2()
    assert radical(alg) == []
    # abelian: two commuting diagonal matrices
    a = ref.sparse([[rat(1), rat(0), rat(0)], [rat(0), rat(-1), rat(0)],
                    [rat(0), rat(0), rat(0)]])
    b = ref.sparse([[rat(0), rat(0), rat(0)], [rat(0), rat(1), rat(0)],
                    [rat(0), rat(0), rat(-1)]])
    ab = LieAlg(3, [a, b])
    assert len(radical(ab)) == 2
    assert levi(ab).dim == 0


def test_levi_of_semidirect_product():
    # sl2 acting on its standard 2-dim module inside 3x3 matrices:
    # block [[sl2, v], [0, 0]]
    def emb(rows):
        out = [[rat(0)] * 3 for _ in range(3)]
        for i in range(2):
            for j in range(2):
                out[i][j] = rows[i][j]
        return ref.sparse(out)
    e = emb([[rat(0), rat(1)], [rat(0), rat(0)]])
    h = emb([[rat(1), rat(0)], [rat(0), rat(-1)]])
    f = emb([[rat(0), rat(0)], [rat(1), rat(0)]])
    v1 = ref.sparse([[rat(0), rat(0), rat(1)], [rat(0)] * 3, [rat(0)] * 3])
    v2 = ref.sparse([[rat(0)] * 3, [rat(0), rat(0), rat(1)], [rat(0)] * 3])
    # mix the basis so the complement is not already closed
    alg = LieAlg(3, [_sum(e, v2), _sum(h, v1), f, v1, v2])
    rad = radical(alg)
    assert len(rad) == 2
    sem = levi(alg)
    assert sem.dim == 3
    assert not radical(sem)
    t = split_sl2(sem)
    assert t.check()


def test_split_sl2_on_conjugated_basis():
    base = _std_sl2()
    # conjugate by a random invertible matrix and re-run the splitting
    g = [[rat(2), rat(1)], [rat(1), rat(1)]]
    gi = ref.inverse(g)
    mats = [ref.sparse(ref.mat_mul(ref.mat_mul(g, ref.dense(b, 2)), gi))
            for b in base.basis]
    # scramble the basis by taking combinations
    m0 = _sum(mats[0], mats[1])
    m1 = _sum(mats[1], mats[2], scale=rat(2))
    m2 = _sum(mats[0], mats[2])
    alg = LieAlg(2, [m0, m1, m2])
    t = split_sl2(alg)
    assert t.check() and t.field == QQ


def test_split_sl2_non_split_form_goes_to_extension():
    # so(3): rotations; compact form, no rational split
    a = ref.sparse([[rat(0), rat(1), rat(0)], [rat(-1), rat(0), rat(0)],
                    [rat(0), rat(0), rat(0)]])
    b = ref.sparse([[rat(0), rat(0), rat(1)], [rat(0), rat(0), rat(0)],
                    [rat(-1), rat(0), rat(0)]])
    c = ref.sparse([[rat(0), rat(0), rat(0)], [rat(0), rat(0), rat(1)],
                    [rat(0), rat(-1), rat(0)]])
    alg = LieAlg(3, [a, b, c])
    t = split_sl2(alg)
    assert t.check()
    assert isinstance(t.field, QuadraticField)
    assert t.field.delta < 0   # compact form needs an imaginary root
    # h = 2x/alpha for the first sample x = a, alpha^2 = -1
    assert {k: str(x) for k, x in t.h.items()} == {1: "-2*sqrt(-1)", 3: "2*sqrt(-1)"}


def test_split_sl2_over_a_quadratic_field():
    """Over Q(sqrt 2) a rational square has its root in the field: the
    standard sl2, lifted there, splits with no further extension."""
    t = split_sl2(_std_sl2().lift(QuadraticField(2)))
    assert t.field == QuadraticField(2) and t.check()
    assert all(type(x) is QuadExt for m in (t.e, t.h, t.f) for x in m.values())


def test_split_sl2_needs_no_second_extension():
    """so(3) lifted to Q(sqrt 2) needs sqrt(-1) to split, a second square
    root, which is refused."""
    alg = LieAlg(3, [_unit(3, 0, 1) | {3: rat(-1)}, _unit(3, 0, 2) | {6: rat(-1)},
                     _unit(3, 1, 2) | {7: rat(-1)}])
    with pytest.raises(SplitFailedOverExtension, match="second square root"):
        split_sl2(alg.lift(QuadraticField(2)))


def test_classify_cases(five_nodal_sextic, fermat_quintic, two_node_quintic, proj5):
    """``classify`` reads g off the algebra and takes the Levi part itself:
    zero, sl3 at g = 6, sl2+sl2 with its two ideals, sl2 as its own one
    summand."""
    def run(curve):
        alg = stabilizer_algebra(forms_through_image(curve, adjoint_basis(curve)))
        return classify(alg), alg

    (name, case, summands), alg = run(five_nodal_sextic)
    assert (name, case, summands, alg.dim) == ("zero", Case.CurveCutByQuadrics, [], 0)
    (name, case, summands), alg = run(fermat_quintic)
    assert (name, case, summands, alg.dim, alg.n) == ("sl3", Case.Veronese, [], 8, 6)
    (name, case, summands), alg = run(two_node_quintic)
    assert (name, case) == ("sl2+sl2", Case.P1xP1)
    assert [s.dim for s in summands] == [3, 3]
    assert [s.basis for s in summands] == [s.basis for s in split_two_ideals(levi(alg))]
    (name, case, [sem]), alg = run(proj5)
    assert (name, case, sem.dim) == ("sl2", Case.Scroll, 3)
    assert sem.basis == levi(alg).basis


def test_two_ideal_split_bracket_orthogonal(two_node_quintic):
    cm = adjoint_basis(two_node_quintic)
    q = forms_through_image(two_node_quintic, cm)
    alg = stabilizer_algebra(q)
    sem = levi(alg)
    s1, s2 = split_two_ideals(sem)
    assert s1.dim == s2.dim == 3
    # ideals commute: brackets across the summands vanish
    for b1 in s1.basis:
        for b2 in s2.basis:
            assert _br(b1, b2, 4) == {}


def test_two_ideal_split_over_a_quadratic_extension():
    """The Weil restriction of sl2 from Q(sqrt 2) to Q, the span of X (x) M
    in gl4 for X in {e, h, f} and M in {1, sqrt 2 as [[0, 2], [1, 0]]}, is
    simple over Q: its two ideals are conjugate, and the split adjoins
    sqrt 2 and runs its echelons over Q(sqrt 2)."""
    def kron(a, b):
        return ref.sparse([[a[i // 2][j // 2] * b[i % 2][j % 2] for j in range(4)]
                           for i in range(4)])

    root2 = [[rat(0), rat(2)], [rat(1), rat(0)]]
    alg = LieAlg(4, [kron(ref.dense(x, 2), m) for x in _std_sl2().basis
                     for m in (ref.identity(2), root2)])
    s1, s2 = split_two_ideals(alg)
    assert s1.field == s2.field == QuadraticField(2)
    assert s1.dim == s2.dim == 3
    for s in (s1, s2):
        for a in s.basis:
            for b in s.basis:
                coords = s.express(_br(a, b, 4))
                assert s.element(coords) == _br(a, b, 4)
    for b1 in s1.basis:
        for b2 in s2.basis:
            assert _br(b1, b2, 4) == {}


def test_a_quadratic_lift_factors_each_integer_once(monkeypatch):
    """A lift to Q(sqrt delta) names delta by one split of x = 49 * 62418;
    building the field then checks that delta is square-free with no second
    factorization, and a second lift of that class factors nothing."""
    factored = []
    factorize = intutil.factorize
    monkeypatch.setattr(intutil, "_SPLITS", {})
    monkeypatch.setattr(intutil, "factorize", lambda n: factored.append(n) or factorize(n))
    for _ in range(2):
        work, fld, root = liealg._square_root(_std_sl2(), rat(3058482))
        assert fld == QuadraticField(62418) == work.field
        assert root * root == 3058482
    assert factored == [3058482]


def test_ideals_of_a_levi_part_reach_the_ambient_through_both_parents():
    """gl2 + gl2 in block-diagonal 4 x 4 matrices, with a mixed basis: the
    Levi part is a sub-algebra of it, and the two ideals are sub-algebras of
    that one, so their matrices go through two parents.  Each ideal is one
    sl2 block, the two commute, and express inverts element on them."""
    def unit(i, j, c=1):
        return {i * 4 + j: rat(c)}

    def sl2(o):
        return unit(o, o + 1), _sum(unit(o, o), unit(o + 1, o + 1, -1)), unit(o + 1, o)

    (e1, h1, f1), (e2, h2, f2) = sl2(0), sl2(2)
    z1, z2 = _sum(unit(0, 0), unit(1, 1)), _sum(unit(2, 2), unit(3, 3))
    alg = LieAlg(4, [_sum(e1, e2, z1), _sum(h1, z2), _sum(f1, f2, scale=-1),
                     _sum(e2, z1, z2), h2, f2, z1, z2])
    sem = levi(alg)
    assert len(radical(alg)) == 2 and sem.dim == 6
    ideals = split_two_ideals(sem)
    blocks = []
    for s in ideals:
        rows = {k // 4 for b in s.basis for k, x in b.items() if x}
        cols = {k % 4 for b in s.basis for k, x in b.items() if x}
        assert rows == cols and rows in ({0, 1}, {2, 3})
        blocks.append(rows)
        assert split_sl2(s).check()
        for a in s.basis:
            for b in s.basis:
                assert s.element(s.express(_br(a, b, 4))) == _br(a, b, 4)
    assert blocks[0] != blocks[1]
    for b1 in ideals[0].basis:
        for b2 in ideals[1].basis:
            assert _br(b1, b2, 4) == {}


def test_cone_stabilizer_has_sl2_levi():
    """Cone over the twisted cubic: large solvable radical (vertex
    translations plus a torus), Levi still sl2."""
    alg = stabilizer_algebra(CONE)
    assert alg.dim == 8
    rad = radical(alg)
    assert len(rad) == 5
    sem = levi(alg)
    assert sem.dim == 3 and not radical(sem)
    t = split_sl2(sem)
    assert t.check()


def test_bracket_closure_of_stabilizers(proj5):
    cm = adjoint_basis(proj5)
    q = forms_through_image(proj5, cm)
    alg = stabilizer_algebra(q)
    # LieAlg construction already verifies closure; re-check explicitly
    for i in range(alg.dim):
        for j in range(alg.dim):
            br = _br(alg.basis[i], alg.basis[j], alg.n)
            coords = alg.express(br)
            rebuilt = alg.element(coords)
            assert rebuilt == br


def test_split_sl2_rejects_wrong_dimension():
    a = ref.sparse([[rat(1), rat(0)], [rat(0), rat(-1)]])
    alg = LieAlg(2, [a])
    with pytest.raises(NotSl2):
        split_sl2(alg)


def test_stabilizer_makes_no_fraction_kernel_call(five_nodal_sextic, monkeypatch):
    """The stabilizer equations are solved mod p only; on a curve cut out by
    quadrics the rank mod p alone certifies that the traceless stabilizer
    is zero."""
    calls = []

    def recorded(*args, **kwargs):
        calls.append(args)
        return kernel_basis(*args, **kwargs)

    monkeypatch.setattr(liealg, "kernel_basis", recorded)
    cm = adjoint_basis(five_nodal_sextic)
    q = forms_through_image(five_nodal_sextic, cm)
    counters = {}
    alg = stabilizer_algebra(q, counters=counters)
    assert alg.dim == 0 and calls == []
    assert counters["nullity"] == 0
    assert counters["primes"]["used"] == [WALK[0]]


def test_stabilizer_kernel_lifts_once_the_rank_settles(proj6):
    """proj6 has 49 unknowns and 135 stabilizer equations, the trace first,
    and the rank mod the first prime last grows at row 50.  After 49 more
    rows the kernel of the rows so far is lifted and certified, so fewer
    rows are reduced than the system has; the algebra is the one the whole
    system gives."""
    g = proj6.genus
    q = forms_through_image(proj6, adjoint_basis(proj6))
    counters = {}
    alg = stabilizer_algebra(q, counters=counters)
    p = WALK[0]
    rows = list(liealg._derivation_system(q, p))
    full = modular.FpEchelon(g * g, p)
    for row in rows:
        full.add(row)
    assert counters["primes"]["used"] == [p]
    assert counters["eq_rows"] < len(rows)
    # the kernel of every row mod p, lifted, against the algebra; the
    # unknowns of the system are numbered from the far end
    lifted = [[modular.rational_reconstruct(x, p) for x in v][::-1]
              for v in full.kernel()]
    assert len(lifted) == counters["nullity"] == alg.dim
    assert ref.same_span(lifted, [[b.get(k, 0) for k in range(g * g)]
                                  for b in alg.basis])


def test_corrupted_lift_moves_on_to_the_next_prime(proj5, monkeypatch):
    """A lift mod the first prime that does not stabilize the quadrics is
    refused; the next prime's lift is certified and gives the same algebra."""
    cm = adjoint_basis(proj5)
    q = forms_through_image(proj5, cm)
    expected = stabilizer_algebra(q)
    real = modular.rational_reconstruct
    first = WALK[0]

    def corrupted(r, m):
        value = real(r, m)
        return value + 1 if m == first and value else value

    monkeypatch.setattr(modular, "rational_reconstruct", corrupted)
    counters = {}
    alg = stabilizer_algebra(q, counters=counters)
    assert alg.basis == expected.basis
    assert counters["primes"]["tried"] == WALK
    assert counters["primes"]["used"] == WALK
    assert counters["nullity"] == alg.dim


def test_stabilizer_without_the_trace_row_fails_to_lift(proj5, monkeypatch):
    """The trace is the first row of the stabilizer system.  Without it the
    kernel holds the identity as well, every lift has a vector of nonzero
    trace and the certificate refuses it: the stabilizer fails to lift and
    is never an algebra one dimension too large."""
    q = forms_through_image(proj5, adjoint_basis(proj5))
    g = proj5.genus
    real = liealg._derivation_system

    def untraced(qspace, p):
        rows = real(qspace, p)
        if rows is not None:
            assert next(rows) == {k: 1 for k in range(0, g * g, g + 1)}
        return rows

    monkeypatch.setattr(liealg, "_derivation_system", untraced)
    with pytest.raises(LiftingFailed):
        stabilizer_algebra(q)


def test_ideal_split_of_a_non_semisimple_algebra_is_unexpected():
    """sl2 + Q^3 in block matrices of gl5, sl2 on the first two coordinates
    and the diagonal on the last three, is 6-dimensional but not
    semisimple: its centroid holds all of gl3 on the abelian part, so the
    split raises ``UnexpectedDimension``."""
    e, h, f = (_unit(5, 0, 1), _sum(_unit(5, 0, 0), _unit(5, 1, 1), scale=-1),
               _unit(5, 1, 0))
    alg = LieAlg(5, [e, h, f] + [_unit(5, i, i) for i in (2, 3, 4)])
    with pytest.raises(UnexpectedDimension):
        split_two_ideals(alg)


def test_a_levi_part_sl3_off_genus_6_is_unsupported():
    """sl3 in 3 x 3 matrices is its own Levi part, of dimension 8, but the
    Veronese case needs n = 6: ``classify`` refuses it by name."""
    basis = [_unit(3, i, j) for i in range(3) for j in range(3) if i != j]
    basis += [_sum(_unit(3, 0, 0), _unit(3, 1, 1), scale=-1),
              _sum(_unit(3, 1, 1), _unit(3, 2, 2), scale=-1)]
    with pytest.raises(CurveUnsupported, match="^unexpected Levi structure: sl3$"):
        classify(LieAlg(3, basis))


def test_stabilizer_certificate_refuses_a_perturbed_lift(proj5, monkeypatch):
    """The stabilizes certificate can say no: with one entry of one lifted
    vector moved by 1, the vectors no longer map every quadric of proj5
    into the span, and the certificate returns False."""
    q = forms_through_image(proj5, adjoint_basis(proj5))
    answers = []
    real_kernel = liealg.certified_kernel

    def kernel(ncols, system, certify, *args, **kwargs):
        def spied(vecs):
            bad = [list(v) for v in vecs]
            bad[0][0] += 1
            answers.append((certify(vecs), certify(bad)))
            return answers[-1][0]
        return real_kernel(ncols, system, spied, *args, **kwargs)

    monkeypatch.setattr(liealg, "certified_kernel", kernel)
    assert stabilizer_algebra(q).dim > 0
    assert answers == [(True, False)]


def test_structure_theory_forms_no_matrix_product(proj5, two_node_quintic,
                                                  monkeypatch):
    """Brackets are sparse products and coordinates an echelon lookup: the
    stabilizers of proj5 (Scroll) and of the two-node quintic (P1xP1), their
    Levi parts, ideals and split triples are built and checked with no
    dense matrix product.  ``classify``, the Levi part and the ideal split
    inside it, runs on the structure constants alone: it forms no bracket in
    gl_g either, and there is no ad matrix method to call.  A split triple
    forms gl_g brackets only in its check, three each time."""
    calls = []
    real_bracket = liealg._bracket

    def bracket(*args):
        calls.append("_bracket")
        return real_bracket(*args)

    monkeypatch.setattr(liealg, "_bracket", bracket)
    assert not hasattr(LieAlg, "ad_matrix")
    for curve, sdim, case in ((proj5, 3, Case.Scroll), (two_node_quintic, 6, Case.P1xP1)):
        q = forms_through_image(curve, adjoint_basis(curve))
        alg = stabilizer_algebra(q)
        assert set(calls) == {"_bracket"}
        calls.clear()
        _, found, summands = classify(alg)
        assert calls == []
        assert found == case and sum(s.dim for s in summands) == sdim
        # proj5's stabilizer has a radical, so levi's correction path and its
        # subalgebra call run; the quintic's is sl2 + sl2 itself
        assert (alg.dim > sdim) == (case is Case.Scroll)
        for s in summands:
            assert split_sl2(s).check()
        # the check inside split_sl2 and the one above
        assert calls == ["_bracket"] * 6 * len(summands)
        calls.clear()


def test_levi_reduces_modulo_the_next_derived_term():
    """gl2 acting on k^2 inside 3 x 3 matrices, with a basis that mixes sl2
    with the radical.  The radical, the scalars t of the gl2 block and the
    translations v, is not abelian: its derived algebra is the translations,
    as [t, v] = v.  The first correction solves for the complement modulo
    that derived algebra; its equations along the translations are left to
    the next step, and taken exactly they have no solution."""
    def unit(i, j, c=1):
        return {i * 3 + j: rat(c)}

    e, h, f = unit(0, 1), _sum(unit(0, 0), unit(1, 1, -1)), unit(1, 0)
    t, v1, v2 = _sum(unit(0, 0), unit(1, 1)), unit(0, 2), unit(1, 2)
    alg = LieAlg(3, [_sum(e, t), h, _sum(f, v1), t, v1, v2])
    assert len(radical(alg)) == 3
    assert liealg.derived_space(LieAlg(3, [t, v1, v2])).rank == 2
    sem = levi(alg)
    assert sem.dim == 3 and not radical(sem)
    assert split_sl2(sem).check()


def test_levi_corrects_two_layers_of_the_radical():
    """gl2 acting on k^2 inside 3 x 3 matrices, [[A, v], [0, 0]], with a
    basis that mixes the scalars z of the A block and the translations v
    into every sl2 vector.  The radical, z and v, has the derived series
    R > V > 0, so the correction runs two layers.  The Levi part is
    semisimple, complementary to the radical, and pinned."""
    def unit(i, j, c=1):
        return {i * 3 + j: rat(c)}

    e, h, f = unit(0, 1), _sum(unit(0, 0), unit(1, 1, -1)), unit(1, 0)
    z, v1, v2 = _sum(unit(0, 0), unit(1, 1)), unit(0, 2), unit(1, 2)
    alg = LieAlg(3, [_sum(e, v2, z), _sum(h, v1), _sum(f, z, v1, v2), _sum(z, v2), v1, v2])
    rad = radical(alg)
    assert len(rad) == 3
    sem = levi(alg)
    assert sem.dim == 3 and not radical(sem)
    assert ref.rank([alg.express(b) for b in sem.basis] + rad) == alg.dim
    assert [{k: str(x) for k, x in b.items()} for b in sem.basis] == [
        {1: "1"}, {0: "1", 4: "-1"}, {3: "1"}]


def test_exact_echelons_over_q_invert_no_pivot(proj5, monkeypatch):
    """Over Q the span rank of petri_test, the stabilizes certificate, the
    solution echelons and the Lie coordinates run on integer rows: the
    echelon never inverts a pivot.  A row over Q(sqrt 2) still does."""
    q = forms_through_image(proj5, adjoint_basis(proj5))
    calls, certified = [], []
    real_sinv, real_kernel = modular.sinv, liealg.certified_kernel

    def sinv(b):
        calls.append(b)
        return real_sinv(b)

    def kernel(ncols, system, certify, *args, **kwargs):
        def spied(vecs):
            certified.append(certify(vecs))
            return certified[-1]
        return real_kernel(ncols, system, spied, *args, **kwargs)

    monkeypatch.setattr(modular, "sinv", sinv)
    monkeypatch.setattr(liealg, "certified_kernel", kernel)
    petri_test(q)
    alg = stabilizer_algebra(q)
    assert alg.dim > 0 and certified == [True]
    assert calls == []
    modular.FpEchelon(2).add([QuadraticField(2).coerce(3), 1])
    assert len(calls) == 1


def _unit(n, i, j):
    return {i * n + j: rat(1)}


def test_basis_that_is_not_closed_is_refused():
    # [E12, E21] = E11 - E22 lies outside span{E12, E21}
    with pytest.raises(InternalInvariantError):
        LieAlg(2, [_unit(2, 0, 1), _unit(2, 1, 0)])


def test_dependent_basis_is_refused():
    e, h, f = _std_sl2().basis
    with pytest.raises(InvalidInput):
        LieAlg(2, [e, h, f, _sum(e, f, scale=rat(3))])
    with pytest.raises(InvalidInput):
        LieAlg(2, [h, h])
    with pytest.raises(InvalidInput):
        LieAlg(2, [_sum(h, scale=rat(0))])
    with pytest.raises(InvalidInput):
        _std_sl2().subalgebra([[rat(1), rat(0), rat(0)], [rat(2), rat(0), rat(0)]])


def _sl2_irreducible(n):
    """sl2 acting on binary forms of degree n - 1: e = x d/dy, f = y d/dx."""
    m = n - 1
    e = [[rat(k) if k == i + 1 else rat(0) for k in range(n)] for i in range(n)]
    f = [[rat(m - k) if i == k + 1 else rat(0) for k in range(n)] for i in range(n)]
    h = [[rat(m - 2 * i) if i == k else rat(0) for k in range(n)] for i in range(n)]
    return [ref.sparse(x) for x in (e, h, f)]


def _upper_triangular(n):
    return [_unit(n, i, j) for i in range(n) for j in range(i, n)]


def _elementary_product(n, ops):
    """A unimodular n x n matrix, as rows: the product of I + lam*E_ij over
    ops."""
    t = ref.identity(n)
    for i, j, lam in ops:
        if i % n != j % n:
            rows = ref.identity(n)
            rows[i % n][j % n] = rat(lam)
            t = ref.mat_mul(t, rows)
    return t


def _dense_structure_constants(basis, n, fld):
    """Reference: each bracket by two dense products, its coordinates by
    solving against the basis entries."""
    cols = [[b.get(k, 0) for b in basis] for k in range(n * n)]
    sc = []
    for a in basis:
        sc.append([])
        for b in basis:
            br = ref.bracket(ref.dense(a, n), ref.dense(b, n))
            x = ref.solve(cols, [y for row in br for y in row])
            assert x is not None
            sc[-1].append([fld.coerce(v) for v in x])
    return sc


OPS = st.lists(st.tuples(st.integers(0, 9), st.integers(0, 9), st.integers(-2, 2)),
               max_size=4)


@settings(max_examples=30)
@given(st.sampled_from([_sl2_irreducible, _upper_triangular]),
       st.sampled_from([3, 4]), OPS, OPS, st.booleans(),
       st.lists(st.builds(rat, st.integers(-5, 5), st.integers(1, 4)),
                min_size=10, max_size=10))
def test_structure_constants_match_the_dense_reference(family, n, conj, mix, lift,
                                                        coeffs):
    """Unimodular conjugates of sl2 and of the upper-triangular algebra, with
    the basis mixed by unimodular steps, over Q or lifted to Q(sqrt 2): the
    sparse construction gives the dense structure constants, and express
    inverts element."""
    t = _elementary_product(n, conj)
    basis = [ref.sparse(ref.mat_mul(ref.mat_mul(t, ref.dense(b, n)), ref.inverse(t)))
             for b in family(n)]
    for i, j, lam in mix:
        i, j = i % len(basis), j % len(basis)
        if i != j:
            basis[i] = _sum(basis[i], basis[j], scale=rat(lam))
    alg = LieAlg(n, basis)
    if lift:
        alg = alg.lift(QuadraticField(2))
    fld = alg.field
    assert alg.sc == _dense_structure_constants(alg.basis, n, fld)
    coords = [fld.coerce(c) for c in coeffs[:alg.dim]]
    m = alg.element(coords)
    assert alg.express(m) == coords
    assert alg.element(alg.express(m)) == m


def _lean(values, fld):
    """Every scalar an int when integral and a ``Fraction`` otherwise over
    Q, a ``QuadExt`` over Q(sqrt delta); never a float."""
    if fld != QQ:
        return all(type(x) is QuadExt for x in values)
    return all(type(x) is int or (type(x) is Fraction and x.denominator != 1)
               for x in values)


def _algebra_scalars(alg):
    return ([x for b in alg.basis for x in b.values()]
            + [x for row in alg.sc for c in row for x in c])


@pytest.mark.parametrize("workload", ["small_mixed", "trigonal_hi"])
def test_the_lie_stage_keeps_integral_rationals_as_ints(workload):
    """On the accepted benchmark inputs of seed 1 from genus 4 up: the
    stabilizer basis, its structure constants, the Levi part, the ideals,
    each split triple and each ruling column hold ints where integral and
    a ``Fraction`` only where a division made one.  A summand whose ker e
    shows three chains has no columns; the other summand gives the map."""
    seen = {"sc": 0, "triple": 0, "columns": 0}
    for item in corpus.build(workload, 1):
        if item.expect.kind != "accept" or item.expect.genus < 4:
            continue
        curve = validate_curve(item.f)
        alg = stabilizer_algebra(forms_through_image(curve, adjoint_basis(curve)))
        _, _, summands = classify(alg)
        for sub in [alg, levi(alg)] + summands:
            assert _lean(_algebra_scalars(sub), sub.field), item.name
            seen["sc"] += sub.dim
        for s in summands:
            t = split_sl2(s)
            assert _lean([x for m in (t.e, t.h, t.f) for x in m.values()], t.field)
            seen["triple"] += 1
            try:
                columns = list(ruling_columns(t))
            except ChainCountUnexpected:
                continue
            assert _lean([x for u, v in columns for x in u + v], t.field)
            seen["columns"] += len(columns)
    assert all(seen.values())


def _sl2_plus_sl2():
    """sl2 + sl2 in block-diagonal 4 x 4 matrices, e1, h1, f1, e2, h2, f2."""
    def block(o):
        return (_unit(4, o, o + 1), _sum(_unit(4, o, o), _unit(4, o + 1, o + 1), scale=-1),
                _unit(4, o + 1, o))
    return LieAlg(4, [*block(0), *block(2)])


class _CentroidSpy(modular.FpEchelon):
    """An exact echelon that records the rows fed to a 36-column one, the
    centroid system of a 6-dimensional algebra."""
    fed = []

    def add(self, row):
        if self.ncols == 36:
            self.fed.append(row)
        return super().add(row)


def test_a_centroid_row_left_after_the_rank_is_reached_is_checked(monkeypatch):
    """sl2 + sl2 with one structure constant changed by hand (no longer a
    Lie algebra): ad(b_5) also maps b_3 to b_0, coupling the blocks.  The
    trace row and the rows of ad(b_0), ..., ad(b_4), at most 181 rows, reach
    rank 35 with kernel psi = 1 (+) -1, so the echelon takes no row of
    ad(b_5); the row of the changed entry does not vanish at psi, and the
    traceless centroid is 0."""
    alg = _sl2_plus_sl2()
    assert [s.dim for s in split_two_ideals(alg)] == [3, 3]
    sc = [[list(c) for c in row] for row in alg.sc]
    sc[5][3][0] = 1
    bad = LieAlg._with_sc(4, alg.basis, QQ, sc)
    monkeypatch.setattr(_CentroidSpy, "fed", [])
    monkeypatch.setattr(liealg, "FpEchelon", _CentroidSpy)
    with pytest.raises(UnexpectedDimension,
                       match="^traceless centroid has dimension 0; expected 1$"):
        split_two_ideals(bad)
    assert len(_CentroidSpy.fed) <= 1 + 5 * 36


def test_the_centroid_echelon_stops_at_rank_35(two_node_quintic, monkeypatch):
    """On the two-node quintic (P1xP1) the centroid echelon takes fewer rows
    than the 216 of the system.  The whole system has a one-dimensional
    traceless centroid too, so the line is the same, and the split gives two
    commuting ideals."""
    alg = stabilizer_algebra(forms_through_image(two_node_quintic,
                                                 adjoint_basis(two_node_quintic)))
    sem = levi(alg)
    monkeypatch.setattr(_CentroidSpy, "fed", [])
    monkeypatch.setattr(liealg, "FpEchelon", _CentroidSpy)
    s1, s2 = split_two_ideals(sem)
    assert 35 <= len(_CentroidSpy.fed) < 216
    full = modular.FpEchelon(36)
    full.add({i * 7: 1 for i in range(6)})
    for row in liealg._centroid_rows(sem):
        full.add(row)
    assert len(full.reduced_kernel(36)) == 1
    assert s1.dim == s2.dim == 3
    for b1 in s1.basis:
        for b2 in s2.basis:
            assert _br(b1, b2, 4) == {}


def test_the_centroid_split_runs_over_a_quadratic_field():
    """sl2 + sl2 lifted to Q(sqrt 5): an exact echelon takes its
    fraction-free mode from the first nonzero row it is fed, so the
    centroid's trace row is in Q(sqrt 5) like the rows after it.  The split
    stays in that field (psi^2 = 1) and gives two commuting 3-dimensional
    ideals whose scalars are all ``QuadExt``."""
    fld = QuadraticField(5)
    s1, s2 = split_two_ideals(_sl2_plus_sl2().lift(fld))
    assert s1.field == s2.field == fld
    assert s1.dim == s2.dim == 3
    assert _lean(_algebra_scalars(s1) + _algebra_scalars(s2), fld)
    for b1 in s1.basis:
        for b2 in s2.basis:
            assert _br(b1, b2, 4) == {}
