"""Property tests of the whole decision: invariance under projective changes
of coordinates and scaling, and the error contract on random forms."""

import pytest
from hypothesis import given, settings, strategies as st

from trigonal.curve import validate_curve
from trigonal.errors import TrigonalError
from dense_reference import identity, mat_mul, rank
from trigonal.pipeline import Report, decide
from trigonal.poly import MPoly
from trigonal.scalars import QQ, PrimeField, rat

KEYS = ("genus", "adjoint_dim", "quadric_dim", "lie_dim", "levi_type", "case",
        "trigonal", "petri")

# elementary steps I + lam*E_ij, i != j, with multipliers in [-2, 2]
STEPS = st.lists(st.tuples(st.sampled_from([(0, 1), (0, 2), (1, 0), (1, 2),
                                            (2, 0), (2, 1)]),
                           st.integers(-2, 2)), min_size=1, max_size=4)
SCALES = st.builds(rat, st.integers(-7, 7).filter(bool), st.integers(1, 5))


def _unimodular(steps):
    t = identity(3)
    for (i, j), lam in steps:
        rows = identity(3)
        rows[i][j] = rat(lam)
        t = mat_mul(t, rows)
    return t


def _transform(f, t):
    images = [sum((MPoly.variable(3, j) * t[i][j] for j in range(3)), MPoly(3))
              for i in range(3)]
    return f.substitute(images)


def _check_invariance(curve, base, steps, scale):
    t = _unimodular(steps)
    moved = validate_curve(_transform(curve.f, t).map_coeffs(lambda c: scale * c))
    rep = decide(moved, seed=23)
    assert [getattr(rep, k) for k in KEYS] == [getattr(base, k) for k in KEYS]
    if base.case == "Scroll":
        # the substituted old pencil and the new one satisfy a (1,1)-relation
        # mod f: they differ by a Moebius change of the target line
        old = [_transform(p, t) for p in (base.extras["pencil"].p,
                                          base.extras["pencil"].q)]
        new = (rep.extras["pencil"].p, rep.extras["pencil"].q)
        rems = [(a * b).divmod_single(moved.f)[1] for a in old for b in new]
        monos = sorted(set().union(*[r.terms for r in rems]))
        assert rank([[r.terms.get(m, 0) for m in monos] for r in rems]) < 4


@pytest.fixture(scope="module")
def proj5_report(proj5):
    return decide(proj5, seed=23)


@pytest.fixture(scope="module")
def two_node_report(two_node_quintic):
    return decide(two_node_quintic, seed=23)


@settings(max_examples=4)
@given(STEPS, SCALES)
def test_petri_counters_are_invariant(five_nodal_sextic, steps, scale):
    """The exact span rank of the Petri products, and the counts around it,
    do not move under a unimodular change of coordinates and a scaling."""
    base = decide(five_nodal_sextic, seed=23)
    moved = validate_curve(_transform(five_nodal_sextic.f, _unimodular(steps))
                           .map_coeffs(lambda c: scale * c))
    assert decide(moved, seed=23).counters["petri"] == base.counters["petri"]


@settings(max_examples=8)
@given(STEPS, SCALES)
def test_scroll_decision_is_invariant(proj5, proj5_report, steps, scale):
    assert proj5_report.case == "Scroll" and proj5_report.map_available
    _check_invariance(proj5, proj5_report, steps, scale)


@settings(max_examples=6)
@given(STEPS, SCALES)
def test_p1xp1_decision_is_invariant(two_node_quintic, two_node_report, steps, scale):
    assert two_node_report.case == "P1xP1"
    _check_invariance(two_node_quintic, two_node_report, steps, scale)


@st.composite
def plane_forms(draw):
    """Forms of degree 4-7 with coefficients in [-3, 3]: either on every
    monomial or on a drawn support, which reaches the singular and reducible
    inputs that dense forms almost never are."""
    d = draw(st.integers(4, 7))
    monos = [(a, b, d - a - b) for a in range(d + 1) for b in range(d + 1 - a)]
    support = draw(st.one_of(st.just(monos), st.lists(st.sampled_from(monos),
                                                        min_size=1, unique=True)))
    coeffs = draw(st.lists(st.integers(-3, 3), min_size=len(support),
                           max_size=len(support)))
    return MPoly(3, {m: rat(c) for m, c in zip(support, coeffs)})


@settings(max_examples=60)
@given(plane_forms(), st.sampled_from([None, 67, 101, 103, 149, 163, 211]))
def test_random_forms_give_a_report_or_a_typed_error(f, q):
    # over Q, or reduced mod a small prime (67 is below the 4 d^2 bound that
    # validation sets for quintics, 101-163 are below it for septics, and
    # 211 > 4 * 7^2 = 196 takes septics on to the singular scan and the
    # adjoints)
    try:
        rep = decide(validate_curve(f, fld=QQ if q is None else PrimeField(q)), seed=1)
    except TrigonalError:
        return
    assert isinstance(rep, Report)
