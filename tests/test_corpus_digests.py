"""Pinned outcomes of the benchmark corpus: the 99 inputs that
``perfbench/corpus.py`` builds for its three workloads at seeds 1-3.

Per input the test pins the SHA-256 (first 16 hex digits) of
``Report.to_json(with_timings=False)`` without ``fiber_draws``, and that of
``Report.counters``, kept apart so that a stated counter change re-pins only
its own digest; or, for a rejected input, the error class and message.  A
change that moves an output re-pins it and says why.  Each outcome is also
checked against the known answer ``corpus.Expect`` gives, as
``perfbench/run.py`` checks it: genus, case and verdict, a map verified at
degree 3, and agreement of the Lie and quadric-generation verdicts.  So the
two verdicts agree on the whole corpus, checked here, not only in the
benchmark.  The corpus module is imported by path and not changed.

``MOVED`` pins the same two digests for projection curves after elementary
moves of the coordinates, where the Levi correction reaches more of the
complement than on the corpus scrolls."""

import hashlib
import importlib.util
import json
import random
from functools import cache
from pathlib import Path

import pytest

from trigonal.curve import gen_trigonal_projection, validate_curve
from trigonal.errors import HyperellipticInput, UnsupportedInput
from trigonal.pipeline import decide
from trigonal.poly import MPoly

_SPEC = importlib.util.spec_from_file_location(
    "perfbench_corpus", Path(__file__).resolve().parent.parent / "perfbench" / "corpus.py")
corpus = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(corpus)

CONE = "NonOrdinarySingularity: tangent cone at (0:0:1) has a repeated factor"


def _residual(degree):
    return ("IrrationalSingularLocus: singular locus has a non-rational residual "
            f"of degree {degree}")


def _hyperelliptic(qdim, genus):
    return (f"HyperellipticInput: [quadrics] quadric dimension {qdim} shows a 2:1 "
            f"canonical image (genus {genus}); trigonality is undefined here")


# (workload, seed) -> per input, in run order: (name, report digest, counters
# digest) for a verdict, (name, "ErrorClass: message") for a rejection
PINNED = {
    ("trigonal_hi", 1): [
        ("projection d=8", "aa31da4a57199297", "a7cfb65a0cbe61f8"),
        ("non-ordinary 5-fold point d=8", CONE),
        ("projection d=10", "ebb984ad16d6e760", "1209e320d577be9a"),
        ("method-1 deg_x=7", "d0bf31b2f1b34410", "b223a5aa21ec7cc1"),
        ("hyperelliptic d=8", _hyperelliptic(10, 6)),
        ("method-1 deg_x=8", "3643d8c1465b03d7", "53f56b8105a81fd6"),
    ],
    ("trigonal_hi", 2): [
        ("projection d=8", "4aa1d0096d51bfcb", "a7cfb65a0cbe61f8"),
        ("non-ordinary 5-fold point d=8", CONE),
        ("projection d=10", "c21769b34015a9ce", "1209e320d577be9a"),
        ("method-1 deg_x=7", "1bb5d6ca35712817", "b223a5aa21ec7cc1"),
        ("hyperelliptic d=8", _hyperelliptic(10, 6)),
        ("method-1 deg_x=8", "0cf2320fb2bea65f", "53f56b8105a81fd6"),
    ],
    ("trigonal_hi", 3): [
        ("projection d=8", "c1a3eb0a1798554a", "a7cfb65a0cbe61f8"),
        ("non-ordinary 5-fold point d=8", CONE),
        ("projection d=10", "9e8f8fe319efffe1", "1209e320d577be9a"),
        ("method-1 deg_x=7", "d6fabfee12a7c7df", "b223a5aa21ec7cc1"),
        ("hyperelliptic d=8", _hyperelliptic(10, 6)),
        ("method-1 deg_x=8", "02d7e3f2a0c15f08", "53f56b8105a81fd6"),
    ],
    ("dense_nontrigonal", 1): [
        ("smooth d=6, 5-bit, #1", "813956592866f784", "8f6093c19144a7bb"),
        ("cusp d=6", CONE),
        ("smooth d=6, 5-bit, #2", "2299b280c4d4c80b", "15dc46fa196cea79"),
        ("tacnode d=6", CONE),
        ("one-node sextic, 5-bit", "d13689ab422c11b3", "e7b061273d7a4dea"),
        ("product of two cubics", _residual(9)),
        ("Fermat septic", "50e85cf6f6dfceff", "bbb0437a328dbe9a"),
        ("nodes over Q(sqrt 2) d=6", _residual(2)),
        ("smooth d=5, 5-bit, #1", "fc1aa731cecb4324", "1679ac54c34478e3"),
    ],
    ("dense_nontrigonal", 2): [
        ("smooth d=6, 5-bit, #1", "fe653cc2a266cc78", "c8c7efb34521f976"),
        ("cusp d=6", CONE),
        ("smooth d=6, 5-bit, #2", "ed1313768422f613", "8f6093c19144a7bb"),
        ("tacnode d=6", CONE),
        ("one-node sextic, 5-bit", "cf16eff69156b6eb", "e7b061273d7a4dea"),
        ("product of two cubics", _residual(9)),
        ("Fermat septic", "1bb7c585e586d64a", "bbb0437a328dbe9a"),
        ("nodes over Q(sqrt 2) d=6", _residual(2)),
        ("smooth d=5, 5-bit, #1", "6fea31a936589f3b", "1679ac54c34478e3"),
    ],
    ("dense_nontrigonal", 3): [
        ("smooth d=6, 5-bit, #1", "8f9ead6e9c75eddb", "1e5d8ea60bedc973"),
        ("cusp d=6", CONE),
        ("smooth d=6, 5-bit, #2", "ffb8757c61e20744", "8f6093c19144a7bb"),
        ("tacnode d=6", CONE),
        ("one-node sextic, 5-bit", "f22d7e7014ff3d61", "e7b061273d7a4dea"),
        ("product of two cubics", _residual(9)),
        ("Fermat septic", "f435e45c8783d99e", "bbb0437a328dbe9a"),
        ("nodes over Q(sqrt 2) d=6", _residual(2)),
        ("smooth d=5, 5-bit, #1", "8fccda0a8d0c32c7", "1679ac54c34478e3"),
    ],
    ("small_mixed", 1): [
        ("Klein quartic", "df1dbc69472a2546", "44136fa355b3678a"),
        ("cusp d=5", CONE),
        ("Fermat quartic", "507650d945f24c98", "44136fa355b3678a"),
        ("tacnode d=6", CONE),
        ("two-node quintic", "224792d21198dbbd", "00e475277c15f74b"),
        ("product of two cubics", _residual(9)),
        ("five-nodal sextic", "c4084863584dd7e4", "23b7f4bd80136119"),
        ("nodes over Q(sqrt 2) d=5", _residual(2)),
        ("Fermat quintic", "58b2976b58bdea95", "1679ac54c34478e3"),
        ("three-nodal quartic (genus 0)", "GenusTooSmall: genus 0 < 3"),
        ("projection d=5", "478fb6006e5d5551", "a62ba129b827a7f9"),
        ("hyperelliptic d=5", _hyperelliptic(1, 3)),
        ("projection d=6", "9caefe1dafc095ae", "c1476868704f9ebc"),
        ("hyperelliptic d=6", _hyperelliptic(3, 4)),
        ("method-1 deg_x=3", "a8c005a0bd287517", "00e475277c15f74b"),
        ("hyperelliptic d=7", _hyperelliptic(6, 5)),
        ("method-1 deg_x=4", "eeec450feb8e51b2", "23c2f70945e4ff30"),
        ("method-1 deg_x=5", "ad85208dd8817945", "2ecfe896cf3f0e16"),
    ],
    ("small_mixed", 2): [
        ("Klein quartic", "5055b709621ed35e", "44136fa355b3678a"),
        ("cusp d=5", CONE),
        ("Fermat quartic", "624314927a0c6074", "44136fa355b3678a"),
        ("tacnode d=6", CONE),
        ("two-node quintic", "459937bd45bdb236", "00e475277c15f74b"),
        ("product of two cubics", _residual(9)),
        ("five-nodal sextic", "794e5b31409cfa63", "c4e811513ddb52a3"),
        ("nodes over Q(sqrt 2) d=5", _residual(2)),
        ("Fermat quintic", "a247de2a26763a9e", "1679ac54c34478e3"),
        ("three-nodal quartic (genus 0)", "GenusTooSmall: genus 0 < 3"),
        ("projection d=5", "0709398a4712c16e", "a62ba129b827a7f9"),
        ("hyperelliptic d=5", _hyperelliptic(1, 3)),
        ("projection d=6", "01746fb8e6fb0962", "c1476868704f9ebc"),
        ("hyperelliptic d=6", _hyperelliptic(3, 4)),
        ("method-1 deg_x=3", "550d2c0835b4c9b8", "00e475277c15f74b"),
        ("hyperelliptic d=7", _hyperelliptic(6, 5)),
        ("method-1 deg_x=4", "019a96da5a90a1f6", "23c2f70945e4ff30"),
        ("method-1 deg_x=5", "2f2868f1adfe380e", "2ecfe896cf3f0e16"),
    ],
    ("small_mixed", 3): [
        ("Klein quartic", "4b8a415b83d0bc18", "44136fa355b3678a"),
        ("cusp d=5", CONE),
        ("Fermat quartic", "09617457a4efa341", "44136fa355b3678a"),
        ("tacnode d=6", CONE),
        ("two-node quintic", "17c93e18cdf50a90", "00e475277c15f74b"),
        ("product of two cubics", _residual(9)),
        ("five-nodal sextic", "70c64423d2e24a83", "23b7f4bd80136119"),
        ("nodes over Q(sqrt 2) d=5", _residual(2)),
        ("Fermat quintic", "c0ffaac286c8c230", "1679ac54c34478e3"),
        ("three-nodal quartic (genus 0)", "GenusTooSmall: genus 0 < 3"),
        ("projection d=5", "01e7f684e6673cd8", "a62ba129b827a7f9"),
        ("hyperelliptic d=5", _hyperelliptic(1, 3)),
        ("projection d=6", "37c32cdab9458975", "c1476868704f9ebc"),
        ("hyperelliptic d=6", _hyperelliptic(3, 4)),
        ("method-1 deg_x=3", "d5a05cf25d6f9115", "00e475277c15f74b"),
        ("hyperelliptic d=7", _hyperelliptic(6, 5)),
        ("method-1 deg_x=4", "f964f1a3e32468be", "23c2f70945e4ff30"),
        ("method-1 deg_x=5", "4bb4b6d5ac8373c3", "2ecfe896cf3f0e16"),
    ],
}


# (d, seed) -> (report digest, counters digest) of gen_trigonal_projection(d,
# seed=seed) after 1, 2 and 3 elementary moves x_i -> x_i + lam*x_j, drawn
# from random.Random(f"{d}:{seed}"), decided with that seed
MOVED = {
    (5, 1): [("0125b51e7059abb5", "a62ba129b827a7f9"),
             ("8ac935f388ea4a8e", "a62ba129b827a7f9"),
             ("fa04ca0b0f0ac675", "a62ba129b827a7f9")],
    (5, 2): [("54d1a9eaec9b689f", "a62ba129b827a7f9"),
             ("8651e6ba2a546bad", "67603a426e6b79a0"),
             ("a75b22a8e5257ce3", "a9ab54668244986a")],
    (6, 1): [("869da40c81649ecb", "c1476868704f9ebc"),
             ("650d2c1ec921bdff", "743894fc47d31a32"),
             ("22c89f0aaeba0e99", "743894fc47d31a32")],
    (6, 2): [("18573322fc92c109", "c1476868704f9ebc"),
             ("83556a9f0f3fcbaf", "c1476868704f9ebc"),
             ("e992c0579a15a2da", "c1476868704f9ebc")],
    (7, 1): [("32b361a994d9c154", "931c2d0a5871c443"),
             ("eb136ad4cf70fdd7", "57725cd7a8a91577"),
             ("42669ce017a25c0d", "57725cd7a8a91577")],
    (7, 2): [("3be4020091763607", "f5b75fdd6b11f761"),
             ("e7ab29e7ba68f44c", "b0b74dc94e506b99"),
             ("39352fc10223f193", "b0b74dc94e506b99")],
}


def _digest(obj):
    text = obj if isinstance(obj, str) else json.dumps(obj, sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()[:16]


@cache
def _outcomes(workload, seed):
    """(item, report or None, error or None) for each input of the workload,
    decided with the workload's seed as ``perfbench/run.py`` decides it."""
    out = []
    for item in corpus.build(workload, seed):
        try:
            out.append((item, decide(validate_curve(item.f), seed=seed), None))
        except UnsupportedInput as err:
            out.append((item, None, err))
    return out


def _digests(rep):
    """The report digest, without ``fiber_draws``, and the counters digest."""
    exact = rep.to_dict(with_timings=False)
    del exact["fiber_draws"]
    return _digest(json.dumps(exact, indent=2)), _digest(rep.counters)


def _pinned_form(item, rep, err):
    if err is not None:
        return item.name, f"{type(err).__name__}: {err}"
    return (item.name, *_digests(rep))


def _moved(d, seed):
    """gen_trigonal_projection(d, seed=seed) after each of three elementary
    moves x_i -> x_i + lam*x_j."""
    rng = random.Random(f"{d}:{seed}")
    f = gen_trigonal_projection(d, seed=seed).f
    for _ in range(3):
        i, j = rng.sample(range(3), 2)
        images = [MPoly.variable(3, k) for k in range(3)]
        images[i] = images[i] + images[j] * rng.choice([-2, -1, 1, 2, 3])
        f = f.substitute(images)
        yield f


@pytest.mark.parametrize("workload,seed", sorted(PINNED))
def test_corpus_outcomes_are_pinned(workload, seed):
    got = [_pinned_form(*o) for o in _outcomes(workload, seed)]
    assert got == PINNED[workload, seed]


@pytest.mark.parametrize("workload,seed", sorted(PINNED))
def test_corpus_answers_match_the_known_ones(workload, seed):
    for item, rep, err in _outcomes(workload, seed):
        want = item.expect
        if want.kind == "hyperelliptic":
            assert isinstance(err, HyperellipticInput), item.name
            continue
        if want.kind == "reject":
            assert err is not None, item.name
            continue
        assert err is None, (item.name, err)
        assert (rep.genus, rep.case, rep.trigonal) == (want.genus, want.case,
                                                       want.trigonal), item.name
        if rep.map_available:
            assert rep.verified_degree == 3, item.name
        if rep.genus >= 4:
            assert rep.agreement is True, item.name


@pytest.mark.parametrize("d,seed", sorted(MOVED))
def test_moved_projections_are_pinned(d, seed):
    got = [_digests(decide(validate_curve(f), seed=seed)) for f in _moved(d, seed)]
    assert got == MOVED[d, seed]
