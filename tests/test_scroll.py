import pytest

from trigonal.canonical import (adjoint_basis, adjoint_combination,
                                forms_through_image)
from trigonal.errors import ChainCountUnexpected, DecompositionFailed
from trigonal.liealg import (Sl2Triple, levi, split_sl2,
                             split_two_ideals, stabilizer_algebra)
from trigonal.scalars import QQ, rat
from trigonal.scroll import (minor_vectors, p1xp1_rulings, ruling_map,
                             scroll_matrix, weight_chains)

from dense_reference import inverse, mat_mul, mat_vec, same_span, sparse
from test_liealg import CONE


def _triple_from_mats(e, h, f):
    return Sl2Triple(e=sparse(e), h=sparse(h), f=sparse(f), n=len(h), field=QQ)


def _sym_action(n):
    """Standard sl2 acting on Sym^(n-1) of the defining representation:
    n-dimensional irreducible with integer weights, as rows."""
    # basis v_k = f^k v_0; h v_k = (n-1-2k) v_k; e v_k = k(n-k) v_{k-1}
    h = [[rat(n - 1 - 2 * k) if k == j else rat(0) for k in range(n)]
         for j in range(n)]
    e_rows = [[rat(0)] * n for _ in range(n)]
    f_rows = [[rat(0)] * n for _ in range(n)]
    for k in range(n):
        if k > 0:
            e_rows[k - 1][k] = rat(k * (n - k))
        if k < n - 1:
            f_rows[k + 1][k] = rat(1)
    return e_rows, h, f_rows


def _block(mats_list):
    n = sum(len(m) for m in mats_list)
    rows = [[rat(0)] * n for _ in range(n)]
    off = 0
    for m in mats_list:
        for i, row in enumerate(m):
            for j, x in enumerate(row):
                rows[off + i][off + j] = x
        off += len(m)
    return rows


def test_weight_chain_of_standard_two_space():
    e, h, f = _sym_action(2)
    t = _triple_from_mats(e, h, f)
    w = weight_chains(t, 2)
    assert w.lengths == [2]
    a = scroll_matrix(w)
    assert a.ncols == 1


def test_weight_chain_of_sym3():
    e, h, f = _sym_action(4)
    t = _triple_from_mats(e, h, f)
    w = weight_chains(t, 4)
    assert w.lengths == [4]
    # chain relations: v_{k+1} = f v_k, e v_{k+1} = (k+1)(len-1-k) v_k
    chain = w.chains[0]
    for k in range(3):
        assert mat_vec(f, chain[k]) == chain[k + 1]
    for k in range(3):
        img = mat_vec(e, chain[k + 1])
        coeff = rat((k + 1) * (4 - 1 - k))
        assert img == [coeff * x for x in chain[k]]


def test_weight_chain_block_sum():
    e2, h2, f2 = _sym_action(2)
    e4, h4, f4 = _sym_action(4)
    t = _triple_from_mats(_block([e2, e4]), _block([h2, h4]), _block([f2, f4]))
    w = weight_chains(t, 6)
    assert w.lengths == [2, 4]
    a = scroll_matrix(w)
    assert a.ncols == (2 - 1) + (4 - 1)


def _chain_strs(w):
    return [[[str(x) for x in v] for v in ch] for ch in w.chains]


def _unit(n, *hot):
    return [["1" if i == j else "0" for i in range(n)] for j in hot]


def test_weight_chains_are_pinned():
    # the full chains, not only their lengths; [e2, e2, e2] has a
    # 2-dimensional highest-weight space
    e2, h2, f2 = _sym_action(2)
    e4, h4, f4 = _sym_action(4)
    t = _triple_from_mats(_block([e2, e4]), _block([h2, h4]), _block([f2, f4]))
    assert _chain_strs(weight_chains(t, 6)) == [_unit(6, 0, 1), _unit(6, 2, 3, 4, 5)]
    t = _triple_from_mats(_block([e2] * 3), _block([h2] * 3), _block([f2] * 3))
    assert _chain_strs(weight_chains(t, 6)) == \
        [_unit(6, 4, 5), _unit(6, 2, 3), _unit(6, 0, 1)]


def test_weight_chains_pinned_after_a_change_of_basis():
    # P^-1 X P for the three-chain triple: the highest-weight vectors are the
    # reduced echelon basis of a 3-dimensional kernel with dense entries
    e2, h2, f2 = _sym_action(2)
    P = [[rat(x) for x in row] for row in
         [[1, 1, 0, -1, 1, 0], [0, 1, 1, 0, -1, 1], [0, 0, 1, 1, 0, -1],
          [0, 0, 0, 1, 1, 0], [0, 0, 0, 0, 1, 1], [0, 0, 0, 0, 0, 1]]]
    t = _triple_from_mats(*(mat_mul(mat_mul(inverse(P), _block([m] * 3)), P)
                            for m in (e2, h2, f2)))
    assert _chain_strs(weight_chains(t, 6)) == [
        [["0", "0", "1", "-1", "1", "0"], ["2", "0", "0", "1", "-1", "1"]],
        [["0", "1", "0", "-1", "1", "0"], ["1", "0", "1", "0", "-1", "1"]],
        [["1", "0", "0", "0", "0", "0"], ["-1", "1", "0", "0", "0", "0"]]]


def test_weight_chains_reject_f_chains_that_disagree_with_h():
    # h = diag(1, -1) puts a highest weight 1 on the first axis, but f = 0
    # ends its chain at length 1, not 2
    zero = [[rat(0), rat(0)], [rat(0), rat(0)]]
    h = [[rat(1), rat(0)], [rat(0), rat(-1)]]
    with pytest.raises(DecompositionFailed, match="weight 1 has length 1"):
        weight_chains(_triple_from_mats(zero, h, zero), 2)


def test_scroll_matrix_rejects_three_chains():
    e2, h2, f2 = _sym_action(2)
    t = _triple_from_mats(_block([e2, e2, e2]), _block([h2, h2, h2]),
                          _block([f2, f2, f2]))
    w = weight_chains(t, 6)
    assert w.lengths == [2, 2, 2]
    with pytest.raises(ChainCountUnexpected):
        scroll_matrix(w)


def test_minors_span_the_quadrics_of_proj5(proj5):
    cm = adjoint_basis(proj5)
    q = forms_through_image(proj5, cm)
    alg = stabilizer_algebra(q, 5)
    sem = levi(alg)
    t = split_sl2(sem)
    w = weight_chains(t, 5)
    assert sorted(w.lengths) == [2, 3]     # the scroll S(1,2) for genus 5
    a = scroll_matrix(w)
    vecs = minor_vectors(a, q.monomials)
    assert same_span(vecs, q.basis)


def test_cone_chain_lengths_and_minor_containment():
    """Cone over the twisted cubic: one vertex chain of length 1 plus a
    length-4 chain; the three minors recover the cone's quadrics."""
    alg = stabilizer_algebra(CONE, 5)
    sem = levi(alg)
    t = split_sl2(sem)
    w = weight_chains(t, 5)
    assert sorted(w.lengths) == [1, 4]
    a = scroll_matrix(w)
    assert a.ncols == 3
    vecs = minor_vectors(a, CONE.monomials)
    assert same_span(vecs, CONE.basis)


def test_ruling_map_columns_agree_on_curve(proj5):
    cm = adjoint_basis(proj5)
    q = forms_through_image(proj5, cm)
    alg = stabilizer_algebra(q, 5)
    t = split_sl2(levi(alg))
    w = weight_chains(t, 5)
    a = scroll_matrix(w)
    pm = ruling_map(a, cm, proj5)
    # all admissible columns define the same map mod f
    maps = []
    for col in range(a.ncols):
        p = adjoint_combination(a.row1[col], cm)
        qq = adjoint_combination(a.row2[col], cm)
        if p and qq:
            maps.append((p, qq))
    assert len(maps) >= 2
    for (p1, q1) in maps:
        for (p2, q2) in maps:
            cross = p1 * q2 - p2 * q1
            assert (not cross) or cross.divisible_by(proj5.f)


def test_p1xp1_rulings_on_genus4(two_node_quintic):
    cm = adjoint_basis(two_node_quintic)
    q = forms_through_image(two_node_quintic, cm)
    alg = stabilizer_algebra(q, 4)
    sem = levi(alg)
    s1, s2 = split_two_ideals(sem)
    cands, fails = p1xp1_rulings((s1, s2), cm, two_node_quintic)
    assert len(cands) == 2 and not fails


def test_p1xp1_one_summand_fails_on_reembedded_scroll(m1_quartic):
    # genus 6 trigonal: the balanced surface re-embedded; one summand
    # decomposes into three 2-chains and is rejected
    cm = adjoint_basis(m1_quartic)
    q = forms_through_image(m1_quartic, cm)
    alg = stabilizer_algebra(q, 6)
    sem = levi(alg)
    s1, s2 = split_two_ideals(sem)
    cands, fails = p1xp1_rulings((s1, s2), cm, m1_quartic)
    assert len(cands) == 1 and len(fails) == 1
    assert isinstance(fails[0][1], ChainCountUnexpected)
