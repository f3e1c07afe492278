"""Smoke test of the benchmark's tracer (``perfbench/tracing.py``), which
``perfbench/run.py --trace 1`` installs around the library's layers."""

import importlib
import importlib.util
from pathlib import Path

from trigonal.pipeline import decide

_SPEC = importlib.util.spec_from_file_location(
    "perfbench_tracing", Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py")
tracing = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(tracing)


def test_the_tracer_spans_each_stage_and_restores_the_library(proj5, two_node_quintic):
    """Installed, the tracer records the stabilizer, the ``classify`` site
    (``liealg.levi``), the fiber check and Petri on a Scroll and a P1xP1
    curve; uninstalled, every library attribute it patched is the original
    again."""
    sites = [(importlib.import_module(mod), attr) for mod, attr, _ in tracing.SITES]
    before = {(mod.__name__, attr): getattr(mod, attr) for mod, attr in sites
              if hasattr(mod, attr)}
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert len(tracer._saved) == len(before)
        reps = [decide(curve, seed=1) for curve in (proj5, two_node_quintic)]
    finally:
        tracer.uninstall()
    assert [rep.case for rep in reps] == ["Scroll", "P1xP1"]
    names = {rec[0] for rec in tracer.spans}
    assert {"liealg.stabilizer_algebra", "liealg.levi", "pipeline.map_degree",
            "canonical.petri_test"} <= names
    assert all(rec[2] is not None for rec in tracer.spans)
    assert {key: getattr(importlib.import_module(key[0]), key[1])
            for key in before} == before


def test_the_tracer_spans_the_genus_3_pencil(klein):
    """A genus-3 ``decide`` under the tracer records the quadric span under
    its degree and the marked-point pencil."""
    tracer = tracing.Tracer()
    tracer.install()
    try:
        rep = decide(klein, seed=1)
    finally:
        tracer.uninstall()
    assert (rep.case, rep.verified_degree) == ("Genus3", 3)
    names = {rec[0] for rec in tracer.spans}
    assert {"pipeline.g3_map", "canonical.forms_through_image.k2"} <= names
