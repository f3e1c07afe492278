import pytest

from trigonal.canonical import (adjoint_basis, adjoint_combination,
                                forms_through_image)
from trigonal import scroll
from trigonal.errors import (AllColumnsDegenerate, ChainCountUnexpected,
                             DecompositionFailed)
from trigonal.liealg import (LieAlg, Sl2Triple, levi, split_sl2,
                             split_two_ideals, stabilizer_algebra)
from trigonal.scalars import QQ, rat
from trigonal.scroll import (highest_weights, minor_vectors, ruling_columns,
                             ruling_map, rulings)

from dense_reference import (chain_columns, dense, dense_rows, inverse, mat_mul,
                             same_span, sparse, weight_vectors)
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


def _block_triple(*sizes):
    """The triple on Sym^(n-1) + ... for the chain lengths n in sizes."""
    actions = [_sym_action(n) for n in sizes]
    return _triple_from_mats(*(_block([a[i] for a in actions]) for i in range(3)))


def _conjugated(triple, P):
    """P^-1 X P for each X of the triple: the same chains in dense
    coordinates."""
    n = triple.n
    return _triple_from_mats(*(mat_mul(mat_mul(inverse(P), dense(m, n)), P)
                               for m in (triple.e, triple.h, triple.f)))


def _upper(n):
    """A unimodular upper triangular matrix with dense entries above."""
    return [[rat(0 if j < i else 1 if j == i else (-1) ** (i + j) * (j - i))
             for j in range(n)] for i in range(n)]


def _curve_triples(curve):
    """The triples of the sl2 summands of a curve's stabilizer: the Levi
    part of a scroll, or each ideal of P1xP1."""
    sem = levi(stabilizer_algebra(forms_through_image(curve, adjoint_basis(curve))))
    summands = split_two_ideals(sem) if sem.dim == 6 else [sem]
    return [split_sl2(s) for s in summands]


def _so3_triple():
    # so(3) splits over Q(sqrt(-1)): one chain of weight 2
    units = [[(0, 1), (1, 0)], [(0, 2), (2, 0)], [(1, 2), (2, 1)]]
    mats = []
    for (i, j), (k, l) in units:
        rows = [[rat(0)] * 3 for _ in range(3)]
        rows[i][j], rows[k][l] = rat(1), rat(-1)
        mats.append(sparse(rows))
    t = split_sl2(LieAlg(3, mats))
    assert t.field.delta == -1
    return t


CASES = ["sym3", "block_2_4", "block_2_5", "conjugated_2_2", "cone",
         "proj5", "two_node_quintic_0", "two_node_quintic_1", "so3"]


def _case(name, request):
    """(triple, g) for a named case."""
    if name == "sym3":
        return _block_triple(4), 4
    if name.startswith("block"):
        sizes = [int(x) for x in name.split("_")[1:]]
        return _block_triple(*sizes), sum(sizes)
    if name == "conjugated_2_2":
        return _conjugated(_block_triple(2, 2), _upper(4)), 4
    if name == "cone":
        return split_sl2(levi(stabilizer_algebra(CONE))), 5
    if name == "proj5":
        return _curve_triples(request.getfixturevalue("proj5"))[0], 5
    if name.startswith("two_node_quintic"):
        curve = request.getfixturevalue("two_node_quintic")
        return _curve_triples(curve)[int(name[-1])], 4
    return _so3_triple(), 3


def _strs(vecs):
    return [[str(x) for x in v] for v in vecs]


@pytest.mark.parametrize("case", CASES)
def test_ruling_columns_match_the_chain_construction(request, case):
    # the dual functionals read off e equal the rows of the inverted chain
    # basis, entry by entry, and the highest-weight vectors are the same
    t, g = _case(case, request)
    e, h, f = (dense(m, g) for m in (t.e, t.h, t.f))
    tops = highest_weights(t)
    assert [lam for lam, _ in tops] == [lam for lam, _ in weight_vectors(e, h)]
    assert _strs(v for _, v in tops) == _strs(v for _, v in weight_vectors(e, h))
    cols = list(ruling_columns(t))
    assert _strs(u + v for u, v in cols) == \
        _strs(u + v for u, v in chain_columns(e, h, f))
    assert len(cols) == sum(lam for lam, _ in tops)


def test_weight_chain_of_standard_two_space():
    t = _block_triple(2)
    assert _strs(v for _, v in highest_weights(t)) == [["1", "0"]]
    assert [lam for lam, _ in highest_weights(t)] == [1]
    assert len(list(ruling_columns(t))) == 1


def test_weight_chain_of_sym3():
    # phi_k is the coordinate of v_k = f^k v_0, and e v_{k+1} = (k+1)(3-k) v_k
    # in Sym^3, so the columns are (k! e_k, (k+1)! e_{k+1}) over the axes
    t = _block_triple(4)
    assert [lam for lam, _ in highest_weights(t)] == [3]
    assert _strs(u + v for u, v in ruling_columns(t)) == [
        ["1", "0", "0", "0", "0", "1", "0", "0"],
        ["0", "1", "0", "0", "0", "0", "2", "0"],
        ["0", "0", "2", "0", "0", "0", "0", "6"]]


def test_weight_chain_block_sum():
    t = _block_triple(2, 4)
    assert [lam for lam, _ in highest_weights(t)] == [1, 3]
    assert len(list(ruling_columns(t))) == (2 - 1) + (4 - 1)


def _unit(n, *hot):
    return [["1" if i == j else "0" for i in range(n)] for j in hot]


def test_weight_chains_are_pinned():
    # the highest-weight vectors, not only their weights; [e2, e2] has a
    # 2-dimensional highest-weight space, listed by str
    assert _strs(v for _, v in highest_weights(_block_triple(2, 4))) == _unit(6, 0, 2)
    assert _strs(v for _, v in highest_weights(_block_triple(2, 2))) == _unit(4, 2, 0)


def test_weight_chains_pinned_after_a_change_of_basis():
    # P^-1 X P: ker e is spanned by P^-1 e_0 = e_0 and P^-1 e_2 =
    # (-1, 1, 1, 0), both of weight 1, and its reduced echelon basis is
    # listed by str
    t = _conjugated(_block_triple(2, 2), _upper(4))
    assert _strs(v for _, v in highest_weights(t)) == \
        [["0", "1", "1", "0"], ["1", "0", "0", "0"]]


def _spy_kernels(monkeypatch):
    shapes = []
    kernel = scroll.kernel_basis

    def spy(rows):
        shapes.append((len(rows), len(rows[0])))
        return kernel(rows)

    monkeypatch.setattr(scroll, "kernel_basis", spy)
    return shapes


@pytest.mark.parametrize("case", ["block_2_4", "conjugated_2_2", "proj5"],
                         ids=["block", "change_of_basis", "proj5"])
def test_weight_chains_eliminate_e_once(monkeypatch, request, case):
    # one g x g kernel of e, one k x k kernel per distinct weight (only the
    # eigenvalues of the k x k weight system are tried), then one
    # (g + k - 1) x g kernel for phi_0 of each chain with columns
    t, g = _case(case, request)
    shapes = _spy_kernels(monkeypatch)
    tops = highest_weights(t)
    k = len(tops)
    tried = len({lam for lam, _ in tops})
    assert shapes == [(g, g)] + [(k, k)] * tried
    shapes.clear()
    list(ruling_columns(t))
    with_columns = sum(1 for lam, _ in tops if lam)
    assert shapes == [(g, g)] + [(k, k)] * tried + [(g + k - 1, g)] * with_columns


def test_scroll_matrix_rejects_three_chains(monkeypatch):
    # three 2-chains, on the axes and after a change of basis, are refused
    # once ker e is known, before any weight is tried or column drawn
    shapes = _spy_kernels(monkeypatch)
    for t in (_block_triple(2, 2, 2), _conjugated(_block_triple(2, 2, 2), _upper(6))):
        shapes.clear()
        with pytest.raises(ChainCountUnexpected, match="found 3"):
            highest_weights(t)
        assert shapes == [(6, 6)]
        shapes.clear()
        with pytest.raises(ChainCountUnexpected):
            next(ruling_columns(t))
        assert shapes == [(6, 6)]


def _diagonal(*xs):
    return [[rat(x) if i == j else rat(0) for j in range(len(xs))]
            for i, x in enumerate(xs)]


def test_weight_chains_reject_f_chains_that_disagree_with_h():
    # h = diag(1, -1) puts a highest weight 1 on the first axis, but f = 0
    # leaves the second axis outside im f and the span of that one vector,
    # so phi_0 is not unique: a typed refusal, not a ValueError or a
    # ZeroDivisionError
    zero = _diagonal(0, 0)
    t = _triple_from_mats(zero, _diagonal(1, -1), zero)
    with pytest.raises(DecompositionFailed, match="no unique phi_0 for the weight-1 chain"):
        list(ruling_columns(t))


@pytest.mark.parametrize("h", [(2, 2), (1, 1)], ids=["no-weight", "too-many"])
def test_weights_that_do_not_fill_the_space_are_refused(h):
    zero = _diagonal(0, 0)
    with pytest.raises(DecompositionFailed, match="do not fill"):
        list(ruling_columns(_triple_from_mats(zero, _diagonal(*h), zero)))


def test_only_weight_zero_is_refused():
    zero = _diagonal(0, 0)
    with pytest.raises(ChainCountUnexpected, match="no chain of length >= 2"):
        next(ruling_columns(_triple_from_mats(zero, zero, zero)))


def test_minors_span_the_quadrics_of_proj5(proj5):
    cm = adjoint_basis(proj5)
    q = forms_through_image(proj5, cm)
    t = split_sl2(levi(stabilizer_algebra(q)))
    # the scroll S(1,2) for genus 5: chains of lengths 2 and 3
    assert [lam for lam, _ in highest_weights(t)] == [1, 2]
    vecs = minor_vectors(list(ruling_columns(t)), q.monomials)
    assert same_span(vecs, dense_rows(q))


def test_cone_chain_lengths_and_minor_containment():
    """Cone over the twisted cubic: one vertex chain of length 1 plus a
    length-4 chain; the three minors recover the cone's quadrics."""
    t = split_sl2(levi(stabilizer_algebra(CONE)))
    assert [lam for lam, _ in highest_weights(t)] == [0, 3]
    cols = list(ruling_columns(t))
    assert len(cols) == 3
    assert same_span(minor_vectors(cols, CONE.monomials), dense_rows(CONE))


def test_ruling_map_columns_agree_on_curve(proj5):
    cm = adjoint_basis(proj5)
    [t] = _curve_triples(proj5)
    cols = list(ruling_columns(t))
    pm = ruling_map(cols, cm, t.field)
    assert (pm.p, pm.q) == (adjoint_combination(cols[0][0], cm),
                            adjoint_combination(cols[0][1], cm))
    # all admissible columns define the same map mod f
    maps = []
    for u, v in cols:
        p = adjoint_combination(u, cm)
        qq = adjoint_combination(v, cm)
        if p and qq:
            maps.append((p, qq))
    assert len(maps) >= 2
    for (p1, q1) in maps:
        for (p2, q2) in maps:
            cross = p1 * q2 - p2 * q1
            assert (not cross) or cross.divisible_by(proj5.f)


def test_ruling_map_skips_degenerate_columns(proj5):
    # a zero entry, a zero second entry and a second entry -3/2 times the
    # first are skipped before proj5's own columns; with only those three,
    # every column is degenerate
    cm = adjoint_basis(proj5)
    [t] = _curve_triples(proj5)
    cols = list(ruling_columns(t))
    u, zero = cols[0][0], [rat(0)] * len(cols[0][0])
    bad = [(zero, u), (u, zero), (u, [rat(-3, 2) * x for x in u])]
    assert ruling_map(bad + cols, cm, QQ) == ruling_map(cols, cm, QQ)
    with pytest.raises(AllColumnsDegenerate):
        ruling_map(bad, cm, QQ)


def test_p1xp1_rulings_on_genus4(two_node_quintic):
    cm = adjoint_basis(two_node_quintic)
    q = forms_through_image(two_node_quintic, cm)
    alg = stabilizer_algebra(q)
    sem = levi(alg)
    s1, s2 = split_two_ideals(sem)
    cands, fails = rulings((s1, s2), cm)
    assert [c[0] for c in cands] == [0, 1] and not fails
    for _, triple, pm in cands:
        assert triple.check() and pm.field == triple.field


def test_p1xp1_one_summand_fails_on_reembedded_scroll(m1_quartic):
    # genus 6 trigonal: the balanced surface re-embedded; one summand
    # decomposes into three 2-chains and is rejected
    cm = adjoint_basis(m1_quartic)
    q = forms_through_image(m1_quartic, cm)
    alg = stabilizer_algebra(q)
    sem = levi(alg)
    s1, s2 = split_two_ideals(sem)
    cands, fails = rulings((s1, s2), cm)
    assert len(cands) == 1 and len(fails) == 1
    assert isinstance(fails[0][1], ChainCountUnexpected)
