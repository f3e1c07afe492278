"""pytest-benchmark microbenchmarks of the kernels the decision stages run on.

Run from the repository root:

    python3 -m pytest perfbench/micro

Slow kernels run a fixed number of rounds; fast ones let pytest-benchmark
calibrate.  Each benchmark checks a property of its result, so a kernel that
got faster by computing something else fails.
"""

from trigonal import curve, liealg, pipeline
from trigonal.linalg import RowSpace, kernel_basis, mat_det


def _annihilates(rows, vec):
    return all(sum(a * b for a, b in zip(row, vec) if a and b) == 0 for row in rows)


def test_kernel_basis_stabilizer_rows(benchmark, stabilizer_rows):
    """Stabilizer equations of a dense genus-10 sextic: only the identity
    stabilizes its quadrics, so the kernel is one vector."""
    kern = benchmark.pedantic(kernel_basis, args=(stabilizer_rows,),
                              kwargs={"reduced": False}, rounds=1, iterations=1)
    assert len(kern) == 1 and _annihilates(stabilizer_rows, kern[0])


def test_kernel_basis_cubic_matrix(benchmark, cubic_matrix):
    """Adjoint-product matrix of the cubics through a genus-14 canonical image."""
    kern = benchmark.pedantic(kernel_basis, args=(cubic_matrix,),
                              kwargs={"reduced": False}, rounds=3, iterations=1)
    assert kern and _annihilates(cubic_matrix, kern[0])


def test_rowspace_add(benchmark, petri_vectors):
    """The insertions petri_test makes at genus 11."""
    ncols, vecs = petri_vectors

    def build():
        rs = RowSpace(ncols)
        for v in vecs:
            rs.add(v)
        return rs

    rs = benchmark(build)
    assert 0 < rs.dim <= len(vecs)


def test_mat_det_sylvester(benchmark, map_stage_calls):
    """A Sylvester matrix evaluated inside map_degree at genus 14."""
    _, m = map_stage_calls
    det = benchmark(mat_det, m)
    assert det == mat_det(m.transpose())


def test_resultant_bivariate(benchmark, map_stage_calls):
    """Res_y(F, p - t q) of the first fiber draw at genus 14."""
    (args, kwargs), _ = map_stage_calls
    res = benchmark.pedantic(pipeline.resultant_bivariate, args=args, kwargs=kwargs,
                             rounds=3, iterations=1)
    assert res.degree() >= 3


def test_fp_resultant_keepvar(benchmark, singular_scan_call):
    """First resultant net of the singular-locus scan of a degree-10 curve."""
    args, kwargs = singular_scan_call
    out = benchmark(curve.fp_resultant_keepvar, *args, **kwargs)
    p = args[2]
    assert out and all(0 <= c < p for c in out)


def test_stabilizer_algebra(benchmark, m1x8):
    """Stabilizer of the quadrics through a genus-14 P1xP1 curve, which
    contains sl2 + sl2."""
    c, _, qspace = m1x8
    alg = benchmark.pedantic(liealg.stabilizer_algebra, args=(qspace, c.genus),
                             rounds=3, iterations=1)
    assert alg.dim >= 6
