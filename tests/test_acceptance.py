"""Acceptance suite: one test per criterion, exact tolerances.

Each test prints one PASS line (visible with -s or in the captured output);
an assertion failure marks the criterion red.  The corpus is built once per
session from seeded generators plus hand examples.
"""

import time

import pytest

from trigonal.canonical import adjoint_basis, forms_through_image
from trigonal.curve import (gen_method1, gen_method1_candidate,
                            gen_method2_candidate, gen_singular_model,
                            gen_trigonal_projection, derived_rng,
                            validate_curve, _homogenize_xy,
                            _integer_content_normalize)
from trigonal.errors import HyperellipticInput, UnsupportedInput
from dense_reference import (bracket, dense, identity, inverse, mat_mul, mat_vec,
                             rank, same_span, sparse, trace)
from trigonal.pipeline import decide
from trigonal.poly import MPoly, parse_poly
from trigonal.scalars import rat
from trigonal.scroll import minor_vectors

FIVE_NODES_A = [((1, 0, 0), 2), ((0, 1, 0), 2), ((0, 0, 1), 2),
                ((1, 1, 1), 2), ((1, 2, 3), 2)]
FIVE_NODES_B = [((1, 0, 0), 2), ((0, 1, 0), 2), ((0, 0, 1), 2),
                ((1, 1, 1), 2), ((2, 1, 5), 2)]


def _p(text):
    return parse_poly(text)


@pytest.fixture(scope="module")
def corpus():
    """Validated curves of genus 3..8 from both generators and by hand."""
    out = []

    def add(tag, curve):
        out.append((tag, curve))

    add("klein-g3", validate_curve(_p("x^3*y + y^3*z + z^3*x"),
                                   base_point=(0, 0, 1)))
    add("fermat4-g3", validate_curve(_p("x^4 + y^4 + z^4")))
    add("proj4a-g3", gen_trigonal_projection(4, seed=1))
    add("proj4b-g3", gen_trigonal_projection(4, seed=2))
    add("2node5a-g4", gen_singular_model(5, [((1, 0, 0), 2), ((0, 1, 0), 2)], seed=3))
    add("2node5b-g4", gen_singular_model(5, [((1, 0, 0), 2), ((0, 1, 0), 2)], seed=4))
    add("m1x3a-g4", gen_method1(3, seed=1))
    add("m1x3b-g4", gen_method1(3, seed=2))
    add("proj5a-g5", gen_trigonal_projection(5, seed=1))
    add("proj5b-g5", gen_trigonal_projection(5, seed=2))
    add("sexticA-g5", gen_singular_model(6, FIVE_NODES_A, seed=5))
    add("sexticB-g5", gen_singular_model(6, FIVE_NODES_B, seed=6))
    add("fermat5-g6", validate_curve(_p("x^5 + y^5 + z^5")))
    add("m1x4a-g6", gen_method1(4, seed=1))
    add("m1x4b-g6", gen_method1(4, seed=2))
    add("proj6a-g7", gen_trigonal_projection(6, seed=2))
    add("proj6b-g7", gen_trigonal_projection(6, seed=3))
    add("proj6c-g7", gen_trigonal_projection(6, seed=4))
    add("m1x5a-g8", gen_method1(5, seed=1))
    add("m1x5b-g8", gen_method1(5, seed=2))
    assert len(out) >= 20
    assert {c.genus for _, c in out} == {3, 4, 5, 6, 7, 8}
    return out


@pytest.fixture(scope="module")
def corpus_reports(corpus):
    """decide() on every non-hyperelliptic corpus curve, timed."""
    reports = {}
    for tag, curve in corpus:
        t0 = time.perf_counter()
        rep = decide(curve, seed=11)
        reports[tag] = (rep, time.perf_counter() - t0)
    return reports


@pytest.fixture(scope="module")
def trigonal_positive_reports():
    """>= 20 projection-generated curves, d in {5,6,7,8}, fully decided."""
    jobs = [(5, (1, 2, 3, 4, 5, 6)), (6, (1, 2, 3, 4, 5, 6)),
            (7, (1, 2, 3, 4, 5)), (8, (1, 2, 3))]
    out = []
    for d, seeds in jobs:
        for seed in seeds:
            curve = gen_trigonal_projection(d, seed=seed)
            rep = decide(curve, seed=17)
            out.append((d, seed, curve, rep))
    assert len(out) == 20
    return out


def test_criterion_1_dimension_laws(corpus):
    for tag, curve in corpus:
        g = curve.genus
        assert 3 <= g <= 8, tag
        t0 = time.perf_counter()
        cm = adjoint_basis(curve)
        qs = forms_through_image(curve, cm)
        elapsed = time.perf_counter() - t0
        assert cm.genus == g, tag
        assert qs.dim == (g - 2) * (g - 3) // 2, tag
        assert elapsed < 60, f"{tag}: {elapsed:.1f}s"
    # hyperelliptic inputs: the other quadric count, and decide refuses
    hyper = [gen_singular_model(5, [((0, 0, 1), 3)], seed=7),
             gen_singular_model(6, [((0, 0, 1), 4)], seed=8),
             gen_singular_model(7, [((0, 0, 1), 5)], seed=9)]
    for curve in hyper:
        g = curve.genus
        cm = adjoint_basis(curve)
        assert cm.genus == g
        qs = forms_through_image(curve, cm)
        assert qs.dim == (g - 1) * (g - 2) // 2
        with pytest.raises(HyperellipticInput):
            decide(curve, seed=11)
    assert sorted(c.genus for c in hyper) == [3, 4, 5]
    print(f"\nACCEPTANCE 1 PASS: adjoint dim = g and quadric dim law exact on "
          f"{len(corpus)} curves (genus 3-8); {len(hyper)} hyperelliptic "
          f"inputs hit the (g-1)(g-2)/2 count and raise HyperellipticInput")


def test_criterion_2_trigonal_positives(trigonal_positive_reports):
    for d, seed, curve, rep in trigonal_positive_reports:
        assert curve.genus == 2 * d - 5
        assert rep.trigonal is True, (d, seed)
        assert rep.map_available and rep.verified_degree == 3, (d, seed)
        degrees = [dr["degree"] for dr in rep.fiber_draws]
        assert degrees and all(x == 3 for x in degrees), (d, seed, degrees)
    print(f"\nACCEPTANCE 2 PASS: {len(trigonal_positive_reports)} projection "
          f"curves (d in 5..8) all trigonal with every fiber draw at degree 3")


def test_criterion_3_veronese_negative():
    curve = validate_curve(_p("x^5 + y^5 + z^5"))
    rep = decide(curve, seed=11)
    assert curve.genus == 6
    assert rep.lie_dim == 8
    assert rep.case == "Veronese"
    assert rep.trigonal is False
    assert rep.petri == "QuadricsInsufficient"
    print("\nACCEPTANCE 3 PASS: the degree-5 Fermat curve gives genus 6, "
          "stabilizer dimension 8, case Veronese, trigonal false, "
          "quadrics insufficient")


def test_criterion_4_generic_negatives(corpus_reports, trigonal_positive_reports):
    sextics = [gen_singular_model(6, FIVE_NODES_A, seed=s) for s in (5, 20, 21)]
    sextics += [gen_singular_model(6, FIVE_NODES_B, seed=s) for s in (6, 22)]
    for curve in sextics:
        assert curve.genus == 5
        rep = decide(curve, seed=11)
        assert rep.lie_dim == 0 and rep.trigonal is False
        assert rep.petri == "GeneratedByQuadrics"
        assert rep.agreement is True
    # oracle agreement across the whole corpus (genus-3 reports carry none)
    disagreements = []
    for tag, (rep, _) in corpus_reports.items():
        if rep.agreement is False:
            disagreements.append(tag)
    for d, seed, _, rep in trigonal_positive_reports:
        if rep.agreement is False:
            disagreements.append((d, seed))
    assert not disagreements
    print(f"\nACCEPTANCE 4 PASS: {len(sextics)} five-nodal sextics are "
          f"non-trigonal with zero stabilizer; Lie and quadric-generation "
          f"verdicts agree on 100% of the corpus")


def test_criterion_5_genus4_branch():
    curve = gen_singular_model(5, [((1, 0, 0), 2), ((0, 1, 0), 2)], seed=3)
    rep = decide(curve, seed=11)
    assert rep.case in ("P1xP1", "Scroll")
    assert rep.verified_degree == 3
    verified = rep.extras.get("p1xp1_verified", [])
    if rep.case == "P1xP1":
        fields = {str(t.field) for _, t, _, _ in verified}
        if fields == {"Q"}:
            assert len(verified) == 2, "both rational rulings must verify"
    print(f"\nACCEPTANCE 5 PASS: two-node quintic decided as {rep.case}; "
          f"{len(verified)} ruling(s) verified at degree 3")


def test_criterion_6_paper_table_check():
    # genus values from the reported experiments: deg_x=3 -> 4, deg_x=6 -> 10
    m1_stats = {}
    for deg_x, expected in ((3, 4), (6, 10)):
        accepted = 0
        tried = 0
        genera = []
        for i in range(10):
            rng = derived_rng(100 + i, f"acc6:m1:{deg_x}")
            cand = gen_method1_candidate(deg_x, 5, rng)
            tried += 1
            try:
                curve = validate_curve(cand)
            except UnsupportedInput:
                continue
            accepted += 1
            genera.append(curve.genus)
            assert curve.genus == expected, (deg_x, i, curve.genus)
        m1_stats[deg_x] = (accepted, tried)
        assert accepted > 0, f"no accepted method-1 samples at deg_x={deg_x}"
    # method 2 with (d, e) = (4, 2): acceptance is rare; genus 4 when accepted
    m2_accepted = 0
    m2_tried = 0
    for i in range(10):
        rng = derived_rng(200 + i, "acc6:m2:4")
        cand = gen_method2_candidate(4, 2, rng)
        m2_tried += 1
        if not cand or cand.degree_in(0) < 1 or cand.degree_in(1) < 1:
            continue
        f = _integer_content_normalize(_homogenize_xy(cand))
        try:
            curve = validate_curve(f)
        except UnsupportedInput:
            continue
        m2_accepted += 1
        assert curve.genus == 4, (i, curve.genus)
    print(f"\nACCEPTANCE 6 PASS: accepted method-1 genera match the reported "
          f"table (deg_x=3 -> 4: {m1_stats[3][0]}/{m1_stats[3][1]} accepted; "
          f"deg_x=6 -> 10: {m1_stats[6][0]}/{m1_stats[6][1]}); method-2 "
          f"(4,2) acceptance rate {m2_accepted}/{m2_tried}"
          + (" (genus 4 on all accepted)" if m2_accepted else
             " (genus check vacuous: every sample rejected by the "
             "ordinary-rational gate)"))


def test_criterion_7_lie_structure_suite(corpus_reports, trigonal_positive_reports):
    import random
    rng = random.Random(31)
    checked = 0
    items = [rep for rep, _ in corpus_reports.values()]
    items += [rep for _, _, _, rep in trigonal_positive_reports]
    for rep in items:
        alg = rep.extras.get("lie")
        if alg is None or alg.dim == 0:
            continue
        checked += 1
        dim = alg.dim
        # bracket closure, exactly
        for i in range(dim):
            for j in range(dim):
                br = sparse(bracket(dense(alg.basis[i], alg.n),
                                    dense(alg.basis[j], alg.n)))
                assert alg.element(alg.express(br)) == br
        # Killing symmetry and invariance on random triples
        from trigonal.liealg import killing_form, levi, radical
        K = killing_form(alg)
        def kap(u, v):
            return sum(u[a] * K[a][b] * v[b] for a in range(dim) for b in range(dim))
        for _ in range(3):
            x = [rat(rng.randint(-2, 2)) for _ in range(dim)]
            y = [rat(rng.randint(-2, 2)) for _ in range(dim)]
            z = [rat(rng.randint(-2, 2)) for _ in range(dim)]
            assert kap(x, y) == kap(y, x)
            assert kap(alg.bracket_coords(x, y), z) == kap(x, alg.bracket_coords(y, z))
        sem = levi(alg)
        assert radical(sem) == []
        triple = rep.extras.get("triple")
        if triple is not None:
            assert triple.check()
            assert not trace(dense(triple.h, triple.n))
        for entry in rep.extras.get("p1xp1_verified", []):
            assert entry[1].check()
    assert checked >= 10
    print(f"\nACCEPTANCE 7 PASS: bracket closure, Killing symmetry/invariance, "
          f"semisimple Levi and exact sl2 relations on {checked} curves "
          f"reaching the Lie stage")


def test_criterion_8_scroll_ideal_equality(corpus_reports, trigonal_positive_reports):
    count = 0
    items = list(corpus_reports.values())
    items += [(rep, None) for _, _, _, rep in trigonal_positive_reports]
    for rep, _ in items:
        if rep.case != "Scroll":
            continue
        count += 1
        qspace = rep.extras["qspace"]
        smat = rep.extras["smat"]
        vecs = minor_vectors(smat, qspace.monomials)
        assert same_span(vecs, qspace.basis), "minor span != quadric span"
    assert count >= 10
    print(f"\nACCEPTANCE 8 PASS: span(2x2 minors) equals the quadric space "
          f"on all {count} Scroll cases (echelon-form equality)")


def _random_unimodular(rng):
    m = identity(3)
    for _ in range(4):
        i, j = rng.sample(range(3), 2)
        lam = rat(rng.choice([-2, -1, 1, 2]))
        rows = identity(3)
        rows[i][j] = lam
        m = mat_mul(m, rows)
    return m


def _transform(f, t):
    images = [sum((MPoly.variable(3, j) * t[i][j] for j in range(3)),
                  MPoly(3)) for i in range(3)]
    return f.substitute(images)


def test_criterion_9_invariance():
    import random
    rng = random.Random(77)
    picks = [
        ("klein", validate_curve(_p("x^3*y + y^3*z + z^3*x"), base_point=(0, 0, 1))),
        ("proj5", gen_trigonal_projection(5, seed=1)),
        ("proj6", gen_trigonal_projection(6, seed=2)),
        ("sextic", gen_singular_model(6, FIVE_NODES_A, seed=5)),
        ("fermat5", validate_curve(_p("x^5 + y^5 + z^5"))),
    ]
    keys = ("genus", "adjoint_dim", "quadric_dim", "lie_dim", "levi_type",
            "case", "trigonal", "petri")
    checks = 0
    for tag, curve in picks:
        base = decide(curve, seed=23)
        basevals = tuple(getattr(base, k) for k in keys)
        for _ in range(5):
            t = _random_unimodular(rng)
            scale = rat(rng.choice([2, 3, -5, 7, -1]))
            g = _transform(curve.f, t).map_coeffs(lambda c: scale * c)
            bp = None
            if curve.base_point is not None:
                ti = inverse(t)
                bp = tuple(mat_vec(ti, list(curve.base_point)))
            moved = validate_curve(g, base_point=bp)
            rep = decide(moved, seed=23)
            assert tuple(getattr(rep, k) for k in keys) == basevals, tag
            checks += 1
            # the emitted map transforms by the substitution, up to the
            # coordinate freedom of the target line: the substituted old
            # pencil and the new pencil must satisfy a (1,1)-relation mod f
            if base.case in ("Scroll", "Genus3") and base.map_available:
                pm0 = base.extras["pencil"]
                pm1 = rep.extras["pencil"]
                old_p = _transform(pm0.p, t)
                old_q = _transform(pm0.q, t)
                prods = [old_p * pm1.p, old_p * pm1.q,
                         old_q * pm1.p, old_q * pm1.q]
                rems = [pr.divmod_single(moved.f)[1] for pr in prods]
                monos = sorted(set().union(*[r.terms for r in rems]))
                span = [[r.terms.get(m, 0) for m in monos] for r in rems]
                assert rank(span) < 4, f"{tag}: maps differ beyond a Moebius change"
    print(f"\nACCEPTANCE 9 PASS: genus, dimensions, case and verdict "
          f"invariant under scaling and {checks} unimodular coordinate "
          f"changes (5 curves x 5 transformations)")


def test_criterion_10_desk_scale_performance(tmp_path):
    t0 = time.perf_counter()
    rep9 = decide(gen_trigonal_projection(7, seed=11), seed=5)    # genus 9
    t9 = time.perf_counter() - t0
    t0 = time.perf_counter()
    rep10 = decide(gen_method1(6, seed=3), seed=5)                # genus 10
    t10 = time.perf_counter() - t0
    assert rep9.genus == 9 and rep10.genus == 10
    assert t9 <= 300 and t10 <= 300, (t9, t10)
    # one-shot bench run with a 10-sample spec
    from trigonal.cli import BENCH_HEADER, main
    spec = tmp_path / "bench.spec"
    spec.write_text("method=m1 params=deg_x=3 n=10 height=5\n")
    out = tmp_path / "bench.csv"
    status = main(["bench", str(spec), "--out", str(out), "--seed", "4"])
    assert status == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == ",".join(BENCH_HEADER)
    assert len(lines) == 11
    print(f"\nACCEPTANCE 10 PASS: genus-9 decide in {t9:.2f}s and genus-10 "
          f"in {t10:.2f}s (limit 300s); 10-sample bench CSV emitted in one run")
