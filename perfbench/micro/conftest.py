"""Kernel inputs for the microbenchmarks, captured once from the workloads.

Each input is the argument list of a real call made while the library
decides a workload curve (seed 1).  The call of interest is intercepted at
the attribute its caller looks it up from, its arguments are kept, and the
computation stops there, so capturing costs only the work before that call.
"""

import functools
import sys
from contextlib import contextmanager
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(BENCH_DIR.parent / "src"))
sys.path.insert(0, str(BENCH_DIR))

import corpus  # noqa: E402
from trigonal import canonical, curve, linalg, liealg, pipeline  # noqa: E402

SEED = 1


class _Captured(Exception):
    pass


@contextmanager
def intercept(owner, attr, stop):
    """Record the (args, kwargs) of every call to ``owner.attr``; with
    ``stop``, raise _Captured at the first call instead of running it."""
    calls = []
    orig = getattr(owner, attr)

    def stub(*args, **kwargs):
        calls.append((args, kwargs))
        if stop:
            raise _Captured
        return orig(*args, **kwargs)

    setattr(owner, attr, stub)
    try:
        yield calls
    finally:
        setattr(owner, attr, orig)


def first_call(run, owner, attr):
    with intercept(owner, attr, stop=True) as calls:
        try:
            run()
        except _Captured:
            pass
    if not calls:
        raise RuntimeError(f"{attr} was never called")
    return calls[0]


@functools.lru_cache(maxsize=None)
def _items(workload):
    return {it.name: it for it in corpus.build(workload, SEED)}


def _curve(workload, name):
    return curve.validate_curve(_items(workload)[name].f)


@pytest.fixture(scope="session")
def dense_sextic():
    """Smooth 5-bit sextic (genus 10) with its quadric space."""
    c = _curve("dense_nontrigonal", "smooth d=6, 5-bit, #1")
    cm = canonical.adjoint_basis(c)
    return c, cm, canonical.forms_through_image(c, cm, 2)


@pytest.fixture(scope="session")
def m1x8():
    """Method-1 curve with deg_x=8 (genus 14, P1xP1) with its quadric space."""
    c = _curve("trigonal_hi", "method-1 deg_x=8")
    cm = canonical.adjoint_basis(c)
    return c, cm, canonical.forms_through_image(c, cm, 2)


@pytest.fixture(scope="session")
def stabilizer_rows(dense_sextic):
    c, _, qspace = dense_sextic
    args, kwargs = first_call(lambda: liealg.stabilizer_algebra(qspace, c.genus),
                              liealg, "kernel_basis")
    return args[0]


@pytest.fixture(scope="session")
def cubic_matrix(m1x8):
    c, cm, _ = m1x8
    args, kwargs = first_call(lambda: canonical.forms_through_image(c, cm, 3),
                              canonical, "kernel_basis")
    return args[0]


@pytest.fixture(scope="session")
def map_stage_calls(m1x8):
    """First resultant_bivariate call of map_degree and the first Sylvester
    matrix it hands to mat_det."""
    c = m1x8[0]
    with intercept(pipeline, "resultant_bivariate", stop=False) as res_calls:
        det_args, _ = first_call(lambda: pipeline.decide(c, seed=SEED), linalg, "mat_det")
    return res_calls[0], det_args[0]


@pytest.fixture(scope="session")
def petri_vectors():
    """Vectors petri_test inserts into its RowSpace, for projection d=8."""
    c = _curve("trigonal_hi", "projection d=8")
    cm = canonical.adjoint_basis(c)
    qspace = canonical.forms_through_image(c, cm, 2)
    cspace = canonical.forms_through_image(c, cm, 3)
    with intercept(linalg.RowSpace, "add", stop=False) as calls:
        canonical.petri_test(qspace, cspace, c.genus)
    return calls[0][0][0].ncols, [args[1] for args, _ in calls]


@pytest.fixture(scope="session")
def singular_scan_call():
    """First fp_resultant_keepvar call of singular_locus, projection d=10."""
    item = _items("trigonal_hi")["projection d=10"]
    return first_call(lambda: curve.validate_curve(item.f), curve, "fp_resultant_keepvar")
