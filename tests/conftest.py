import sys
from pathlib import Path

import pytest
from hypothesis import settings

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from trigonal.curve import (gen_method1, gen_singular_model,
                            gen_trigonal_projection, validate_curve)
from trigonal.poly import parse_poly

# One profile for every Hypothesis test: a fixed example sequence, no
# example database and no per-example deadline, so that a tier-1 run repeats
# exactly on a loaded host.  Each test sets its own max_examples.
settings.register_profile("tier1", derandomize=True, database=None, deadline=None)
settings.load_profile("tier1")

FIVE_NODES = [((1, 0, 0), 2), ((0, 1, 0), 2), ((0, 0, 1), 2),
              ((1, 1, 1), 2), ((1, 2, 3), 2)]
TWO_NODES = [((1, 0, 0), 2), ((0, 1, 0), 2)]


@pytest.fixture(scope="session")
def klein():
    return validate_curve(parse_poly("x^3*y + y^3*z + z^3*x"),
                          base_point=(0, 0, 1))


@pytest.fixture(scope="session")
def fermat_quartic():
    return validate_curve(parse_poly("x^4 + y^4 + z^4"))


@pytest.fixture(scope="session")
def fermat_quintic():
    return validate_curve(parse_poly("x^5 + y^5 + z^5"))


@pytest.fixture(scope="session")
def two_node_quintic():
    return gen_singular_model(5, TWO_NODES, seed=3)


@pytest.fixture(scope="session")
def five_nodal_sextic():
    return gen_singular_model(6, FIVE_NODES, seed=5)


@pytest.fixture(scope="session")
def proj5():
    return gen_trigonal_projection(5, seed=1)


@pytest.fixture(scope="session")
def proj6():
    return gen_trigonal_projection(6, seed=2)


@pytest.fixture(scope="session")
def m1_cubic():
    return gen_method1(3, seed=1)


@pytest.fixture(scope="session")
def m1_quartic():
    return gen_method1(4, seed=1)


@pytest.fixture(scope="session")
def hyper5():
    """Hyperelliptic: quintic with an ordinary triple point (genus 3)."""
    return gen_singular_model(5, [((0, 0, 1), 3)], seed=7)


@pytest.fixture(scope="session")
def sqrt2_sextic():
    """The benchmark input "nodes over Q(sqrt 2) d=6" of seed 1, written out:
    a member of (y, x^2 - 2 z^2)^2, so it has nodes at (+-sqrt 2 : 0 : 1)."""
    return _sextic_with_nodes_on(parse_poly("x^2 - 2*z^2"))


@pytest.fixture(scope="session")
def i_sextic():
    """The same member of (y, x^2 + z^2)^2: nodes at (+-i : 0 : 1)."""
    return _sextic_with_nodes_on(parse_poly("x^2 + z^2"))


def _sextic_with_nodes_on(q):
    """y^2 a + y q b + q^2 c for fixed forms a, b, c: a sextic in (y, q)^2,
    with nodes at the points y = q = 0."""
    y = parse_poly("y")
    a = parse_poly("-5*x^4 + 22*x^3*y + 30*x^3*z - 9*x^2*y^2 + 15*x^2*y*z"
                   " + 18*x^2*z^2 - 12*x*y^3 + 21*x*y^2*z + 25*x*y*z^2 - 19*x*z^3"
                   " - 30*y^4 + 20*y^3*z + 15*y^2*z^2 - 23*y*z^3 + 6*z^4")
    b = parse_poly("-13*x^3 + 22*x^2*y - 12*x^2*z - 26*x*y^2 - 12*x*y*z + x*z^2"
                   " - 19*y^3 - 26*y^2*z + 3*y*z^2 - 21*z^3")
    c = parse_poly("-11*x^2 + 2*x*y + 3*x*z - 14*y^2 + y*z - 16*z^2")
    return y * y * a + y * q * b + q * q * c
