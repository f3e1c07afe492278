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
