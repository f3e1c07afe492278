"""Pinned reports: the SHA-256 of ``Report.to_json(with_timings=False)`` for
the fixture curves and the Klein quartic over F_10007.  Every basis, case and
pencil in a report comes out of the exact eliminations, so a change to them
that moves any emitted value shows here.

``EXACT_DIGESTS`` pins the same JSON with ``fiber_draws`` left out: the
verdict, the certificates and the map, which no change to how the fiber
check draws its primes, shears or t-values may move.  ``DIGESTS`` pins the
whole report, draws included.

``SINGULAR_F10007_DIGESTS`` pins the JSON and the counters of singular
models reduced to F_10007, whose adjoint conditions are read at points with
prime-field coordinates."""

import hashlib
import json

import pytest

from trigonal.curve import gen_singular_model, validate_curve
from trigonal.errors import CurveUnsupported
from trigonal.pipeline import decide
from trigonal.scalars import PrimeField

DIGESTS = {
    "proj5": "0d2dd854d0e7d394326c42fe95a641c3d464cb7dd302f67ded290faa0200dc0a",
    "two_node_quintic": "534fd38ba6457703f08704640b3b8650ba9bde01d2317ce6d2b591df67e66d00",
    "five_nodal_sextic": "34443c85a1f68621c262dbf227e5b80fc833c1f46ad2b3ca584e902349933921",
    "fermat_quintic": "8ca8a2bb2fa021d40b7eeb6304d0a01b209ca985ff805cd3a22a876924ab7fb1",
    "klein_f10007": "ed3dc84983bd3af994a250b113fbaa766b1f7cd4fb5410467e3d4ed358e03337",
}

EXACT_DIGESTS = {
    "proj5": "478fb6006e5d5551dc6ec1ce6062abd651363736ef4de67adde023e654c7427c",
    "two_node_quintic": "9d24999f7832a05f341f674bd2760418a6baf3d6150ea04fca245899302254c5",
    "five_nodal_sextic": "a1fbec68a0100f448025635dc4244d2f7dc18d645b438aadf1c7f48aa1d55e06",
    "fermat_quintic": "58b2976b58bdea9519bab936c184b5bdc6c6a22f7da943ed8d14449366e6f76c",
    "klein_f10007": "68e0e0a95d2e6a29d78e10c4064f97b625b19fba1b70cd3dcabfbc3e92ce78c7",
}


F10007 = PrimeField(10007)

# name -> (degree, assigned ordinary points, generator seed) of a model
# generated over Q and reduced to F_10007
SINGULAR_F10007 = {
    "five_nodal_sextic": (6, [((1, 0, 0), 2), ((0, 1, 0), 2), ((0, 0, 1), 2),
                              ((1, 1, 1), 2), ((1, 2, 3), 2)], 5),
    "one_node_sextic": (6, [((0, 0, 1), 2)], 1),
    "two_node_sextic": (6, [((1, 2, 3), 2), ((0, 0, 1), 2)], 1),
}

SINGULAR_F10007_DIGESTS = {
    "five_nodal_sextic": "4baab702e0def6852111cce80ea5a10798ac01005c80b2e8326e80aa4eb6c431",
    "one_node_sextic": "3a4ec32cf2920869585229332acaa525ccc8c43f9e23cbcfed1627586623337c",
    "two_node_sextic": "a2b040df54b8b332895b944594b307071c27b53355d7cb65f428b0f18db397d6",
}


def _over_f10007(f):
    return validate_curve(f.map_coeffs(F10007.coerce), fld=F10007)


@pytest.fixture(scope="module")
def klein_f10007(klein):
    return validate_curve(klein.f.map_coeffs(F10007.coerce), base_point=(0, 0, 1),
                          fld=F10007)


@pytest.fixture(scope="module")
def reports(request):
    """decide(..., seed=1) for each fixture, computed once per module."""
    return {name: decide(request.getfixturevalue(name), seed=1) for name in DIGESTS}


@pytest.mark.parametrize("name", sorted(DIGESTS))
def test_report_digest_is_pinned(name, reports):
    text = reports[name].to_json(with_timings=False)
    assert hashlib.sha256(text.encode()).hexdigest() == DIGESTS[name]


@pytest.mark.parametrize("name", sorted(EXACT_DIGESTS))
def test_exact_report_digest_is_pinned(name, reports):
    exact = reports[name].to_dict(with_timings=False)
    del exact["fiber_draws"]
    text = json.dumps(exact, indent=2)
    assert hashlib.sha256(text.encode()).hexdigest() == EXACT_DIGESTS[name]


@pytest.mark.parametrize("name", sorted(SINGULAR_F10007))
def test_singular_report_over_f10007_is_pinned(name):
    d, assigned, seed = SINGULAR_F10007[name]
    rep = decide(_over_f10007(gen_singular_model(d, assigned, seed=seed).f), seed=1)
    text = rep.to_json(with_timings=False) + json.dumps(rep.counters, sort_keys=True)
    assert hashlib.sha256(text.encode()).hexdigest() == SINGULAR_F10007_DIGESTS[name]


def test_two_node_quintic_over_f10007_stops_at_liealg(two_node_quintic):
    with pytest.raises(CurveUnsupported, match=r"^\[liealg\] prime-field mode stops "
                       r"at the stabilizer \(dim 6 > 0\)"):
        decide(_over_f10007(two_node_quintic.f), seed=1)
