"""Pinned reports: the SHA-256 of ``Report.to_json(with_timings=False)`` for
the fixture curves and the Klein quartic over F_10007.  Every basis, case and
pencil in a report comes out of the exact eliminations, so a change to them
that moves any emitted value shows here."""

import hashlib

import pytest

from trigonal.curve import validate_curve
from trigonal.pipeline import decide
from trigonal.scalars import PrimeField

DIGESTS = {
    "proj5": "5b4a789d03a6bfbd0bf84dedc85c2dcad79042c8887da1e0ad4f0fc6dde52d42",
    "two_node_quintic": "ff2cfddeab4572cd2a7e0044d46c6051f4516e958b7d8a22c3e0332c37ced40b",
    "five_nodal_sextic": "34443c85a1f68621c262dbf227e5b80fc833c1f46ad2b3ca584e902349933921",
    "fermat_quintic": "8ca8a2bb2fa021d40b7eeb6304d0a01b209ca985ff805cd3a22a876924ab7fb1",
    "klein_f10007": "20bfea3e7a565bb70d61ef55580ff71142ccb450c8d749f6c2b74afc9739449e",
}


@pytest.fixture(scope="module")
def klein_f10007(klein):
    F = PrimeField(10007)
    return validate_curve(klein.f.map_coeffs(F.coerce), base_point=(0, 0, 1), fld=F)


@pytest.mark.parametrize("name", sorted(DIGESTS))
def test_report_digest_is_pinned(name, request):
    rep = decide(request.getfixturevalue(name), seed=1)
    text = rep.to_json(with_timings=False)
    assert hashlib.sha256(text.encode()).hexdigest() == DIGESTS[name]
