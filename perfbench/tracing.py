"""Spans around the library's layers, recorded from outside the library.

Tracing replaces public functions at the module attribute that their caller
looks them up from (``trigonal.pipeline.map_degree``,
``trigonal.liealg.kernel_basis``, ``trigonal.linalg.mat_det``, which
``poly`` imports inside the function, ...) and restores them afterwards.
Spans stay in memory; the caller writes them out when the run ends.  The
library itself carries no tracing code.
"""

import contextlib
import functools
import importlib
import time

# Each site is (module, attribute, span name).  The span name may instead be
# a function of the call's arguments, for a function whose layer depends on
# them.  A site whose attribute no longer exists is skipped, so the trace
# keeps working when a layer is removed; its metrics then read 0.


def _forms_name(args, kwargs):
    k = kwargs.get("k", args[2] if len(args) > 2 else None)
    return f"canonical.forms_through_image.k{k}"


SITES = [
    ("trigonal.curve", "validate_curve", "curve.validate_curve"),
    ("trigonal.curve", "singular_locus", "curve.singular_locus"),
    ("trigonal.curve", "fp_resultant_keepvar", "modular.fp_resultant_keepvar"),
    ("trigonal.pipeline", "adjoint_basis", "canonical.adjoint_basis"),
    ("trigonal.pipeline", "forms_through_image", _forms_name),
    ("trigonal.pipeline", "petri_test", "canonical.petri_test"),
    ("trigonal.pipeline", "stabilizer_algebra", "liealg.stabilizer_algebra"),
    ("trigonal.pipeline", "radical", "liealg.levi"),
    ("trigonal.pipeline", "levi", "liealg.levi"),
    ("trigonal.pipeline", "classify", "liealg.levi"),
    ("trigonal.pipeline", "split_sl2", "liealg.split_sl2"),
    ("trigonal.liealg", "split_sl2", "liealg.split_sl2"),
    ("trigonal.pipeline", "split_two_ideals", "liealg.split_two_ideals"),
    ("trigonal.liealg", "split_two_ideals", "liealg.split_two_ideals"),
    ("trigonal.pipeline", "weight_chains", "scroll.weight_chains"),
    ("trigonal.scroll", "weight_chains", "scroll.weight_chains"),
    ("trigonal.pipeline", "scroll_matrix", "scroll.scroll_matrix"),
    ("trigonal.scroll", "scroll_matrix", "scroll.scroll_matrix"),
    ("trigonal.pipeline", "ruling_map", "scroll.ruling_map"),
    ("trigonal.scroll", "ruling_map", "scroll.ruling_map"),
    ("trigonal.pipeline", "p1xp1_rulings", "scroll.p1xp1_rulings"),
    ("trigonal.pipeline", "g3_map", "pipeline.g3_map"),
    ("trigonal.pipeline", "map_degree", "pipeline.map_degree"),
    ("trigonal.pipeline", "resultant_bivariate", "poly.resultant_bivariate"),
    ("trigonal.linalg", "mat_det", "linalg.mat_det"),
    ("trigonal.canonical", "kernel_basis", "linalg.kernel_basis"),
    ("trigonal.liealg", "kernel_basis", "linalg.kernel_basis"),
    ("trigonal.scroll", "kernel_basis", "linalg.kernel_basis"),
    ("trigonal.pipeline", "kernel_basis", "linalg.kernel_basis"),
    ("trigonal.linalg", "kernel_basis", "linalg.kernel_basis"),
]

# Report.timings stage that each direct child span of a decide span
# belongs to.
STAGE_OF = {
    "canonical.adjoint_basis": "adjoints",
    "canonical.forms_through_image.k2": "quadrics",
    "canonical.forms_through_image.k3": "cubics",
    "liealg.stabilizer_algebra": "liealg",
    "liealg.levi": "liealg",
    "pipeline.g3_map": "map",
    "pipeline.map_degree": "map",
    "liealg.split_sl2": "map",
    "liealg.split_two_ideals": "map",
    "scroll.weight_chains": "map",
    "scroll.scroll_matrix": "map",
    "scroll.ruling_map": "map",
    "scroll.p1xp1_rulings": "map",
    "canonical.petri_test": "petri",
}

# Layers reported with inclusive time, self time and call count.  The
# scroll helpers and the genus-3 pencil are traced (their spans count
# towards the stage consistency check) but are too small to report; the
# benchmark's own decide span is the end-to-end time, not a layer.
METRIC_SPANS = [
    "curve.validate_curve", "curve.singular_locus",
    "modular.fp_resultant_keepvar", "canonical.adjoint_basis",
    "canonical.forms_through_image.k2", "canonical.forms_through_image.k3",
    "canonical.petri_test", "liealg.stabilizer_algebra", "liealg.levi",
    "liealg.split_sl2", "liealg.split_two_ideals", "scroll.ruling_map",
    "scroll.p1xp1_rulings", "pipeline.map_degree", "poly.resultant_bivariate",
    "linalg.mat_det", "linalg.kernel_basis",
]


def _rows_cols(m):
    rows = getattr(m, "rows", None)
    if isinstance(rows, int):
        return rows, m.cols
    rows = list(m)
    return len(rows), (len(rows[0]) if rows else 0)


def _attrs_kernel(args, kwargs, result):
    r, c = _rows_cols(args[0])
    return {"rows": r, "cols": c}


def _attrs_det(args, kwargs, result):
    return {"n": args[0].rows}


def _attrs_map_degree(args, kwargs, result):
    return {"draws": len(result[1])}


def _attrs_rulings(args, kwargs, result):
    return {"candidates": len(result[0])}


ATTRS = {
    "linalg.kernel_basis": _attrs_kernel,
    "linalg.mat_det": _attrs_det,
    "pipeline.map_degree": _attrs_map_degree,
    "scroll.p1xp1_rulings": _attrs_rulings,
}


class Tracer:
    """Records spans as [name, start, end, parent index, attrs] in a list.

    The library runs on one thread, so a stack of open span indices gives
    each span its parent.
    """

    def __init__(self):
        self.spans = []
        self.counts = {}
        self._stack = []
        self._saved = []

    def open(self, name):
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append([name, time.perf_counter(), None, parent, None])
        self._stack.append(idx)
        return idx

    def close(self, idx, attrs=None):
        rec = self.spans[idx]
        rec[2] = time.perf_counter()
        rec[4] = attrs
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, name):
        idx = self.open(name)
        try:
            yield idx
        finally:
            self.close(idx)

    def _wrap(self, fn, name):
        attrs_of = ATTRS.get(name) if isinstance(name, str) else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = self.open(name(args, kwargs) if callable(name) else name)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                self.close(idx)
                raise
            self.close(idx, attrs_of(args, kwargs, result) if attrs_of else None)
            return result

        return wrapper

    def _count(self, fn, name):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.counts[name] = self.counts.get(name, 0) + 1
            return fn(*args, **kwargs)

        return wrapper

    def _patch(self, owner, attr, new):
        self._saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def install(self):
        for modname, attr, name in SITES:
            mod = importlib.import_module(modname)
            if hasattr(mod, attr):
                self._patch(mod, attr, self._wrap(getattr(mod, attr), name))
        rowspace = getattr(importlib.import_module("trigonal.linalg"), "RowSpace", None)
        if rowspace is not None and hasattr(rowspace, "add"):
            self._patch(rowspace, "add", self._count(rowspace.add, "linalg.RowSpace.add"))

    def uninstall(self):
        while self._saved:
            owner, attr, old = self._saved.pop()
            setattr(owner, attr, old)

def children(spans):
    """Child index lists, one per span."""
    kids = [[] for _ in spans]
    for idx, rec in enumerate(spans):
        if rec[3] is not None:
            kids[rec[3]].append(idx)
    return kids


def self_times(spans, kids):
    """Duration minus the part covered by child spans; children of one span
    never overlap, because the library runs on one thread."""
    return [rec[2] - rec[1] - sum(spans[c][2] - spans[c][1] for c in kids[idx])
            for idx, rec in enumerate(spans)]


def _has_ancestor_named(spans, idx, name):
    parent = spans[idx][3]
    while parent is not None:
        if spans[parent][0] == name:
            return True
        parent = spans[parent][3]
    return False


def layer_totals(spans, counts):
    """Per-layer inclusive time, self time and calls, plus size counters.

    Inclusive time counts only the outermost span of a name, so a layer
    that calls itself is not counted twice.
    """
    kids = children(spans)
    selfs = self_times(spans, kids)
    out = {}
    for name in METRIC_SPANS:
        out[f"{name}.s"] = 0.0
        out[f"{name}.self_s"] = 0.0
        out[f"{name}.calls"] = 0
    extra = {"pipeline.fiber_draws": 0, "linalg.mat_det.max_n": 0,
             "linalg.kernel_basis.entries": 0, "liealg.stabilizer_algebra.eq_rows": 0,
             "scroll.p1xp1_rulings.candidates": 0,
             "linalg.RowSpace.add.calls": counts.get("linalg.RowSpace.add", 0)}
    for idx, (name, start, end, parent, attrs) in enumerate(spans):
        if name not in METRIC_SPANS:
            continue
        out[f"{name}.calls"] += 1
        out[f"{name}.self_s"] += selfs[idx]
        if not _has_ancestor_named(spans, idx, name):
            out[f"{name}.s"] += end - start
        attrs = attrs or {}
        if name == "pipeline.map_degree":
            extra["pipeline.fiber_draws"] += attrs.get("draws", 0)
        elif name == "linalg.mat_det":
            extra["linalg.mat_det.max_n"] = max(extra["linalg.mat_det.max_n"],
                                                attrs.get("n", 0))
        elif name == "linalg.kernel_basis":
            extra["linalg.kernel_basis.entries"] += attrs.get("rows", 0) * attrs.get("cols", 0)
            if parent is not None and spans[parent][0] == "liealg.stabilizer_algebra":
                extra["liealg.stabilizer_algebra.eq_rows"] += attrs.get("rows", 0)
        elif name == "scroll.p1xp1_rulings":
            extra["scroll.p1xp1_rulings.candidates"] += attrs.get("candidates", 0)
    out.update(extra)
    return out


def unit_of(key):
    if key.endswith(".s") or key.endswith("_s"):
        return "s"
    if key.endswith(".max_n") or key.endswith(".eq_rows"):
        return "rows"
    return "count"


def stage_sums(spans, decide_idx, kids):
    """Seconds per Report.timings stage, summed over the direct child spans
    of one decide span."""
    sums = {}
    for c in kids[decide_idx]:
        stage = STAGE_OF.get(spans[c][0])
        if stage is not None:
            sums[stage] = sums.get(stage, 0.0) + spans[c][2] - spans[c][1]
    return sums


def input_spans(spans, kids):
    """(validate span, decide span) per input, None where the input never
    got that far; the inputs are the root spans named "input", in run order."""
    out = []
    for root, rec in enumerate(spans):
        if rec[0] == "input":
            named = {spans[c][0]: c for c in kids[root]}
            out.append((named.get("curve.validate_curve"), named.get("pipeline.decide")))
    return out


def stage_consistency(spans, reports, floor_s=0.05):
    """Compare span sums per stage with Report.timings, one report (or None)
    per input.

    Returns the smallest share of a stage's reported time that its spans
    cover (stages of at least ``floor_s``) and the largest amount by which
    spans exceed their stage.  Spans run inside the stage timers, so that
    excess is 0 unless a span is attributed to the wrong stage.
    """
    kids = children(spans)
    coverage, excess = 1.0, 0.0
    for rep, (_, decide) in zip(reports, input_spans(spans, kids)):
        if rep is None:
            continue
        sums = stage_sums(spans, decide, kids)
        for stage, t in rep.timings.items():
            got = sums.get(stage, 0.0)
            excess = max(excess, got - t)
            if t >= floor_s:
                coverage = min(coverage, got / t)
    return coverage, excess
