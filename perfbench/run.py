"""Benchmark of the trigonality decision: time to verdict, end to end and
per layer.

Run from the repository root:

    python3 perfbench/run.py --workload trigonal_hi --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --table roadmap

One process and one thread drive the library as a closed loop with a single
caller: each input goes through ``validate_curve`` and ``decide``, and the
next input starts when the previous one has its verdict.  The first pass
hands every input of the workload over once; later passes hand over each
input whose last time still fits in what is left of ``--seconds``, so that a
workload whose pass nearly fills the window still times its quicker inputs
several times.  Each input's time is the median of its own runs; ``total_s``
sums them.  With ``--trace 1``, untraced and traced full passes alternate
while another one fits, at least one of each.  Set-up (import plus building the inputs from ``--seed``) runs
three times and is reported as its median; a traced run, which does not
report it, sets up once.

End-to-end times are wall seconds at reference host speed: a speed probe
(``speed.py``) samples how fast the shared host runs the measuring thread
while each input runs, and scales the input's wall time by it, so that a
stretch of slow host does not read as a slow program.  Per-layer times are
plain wall seconds of a traced pass, which runs without the probe.

Every outcome is checked against the answer known from how the input was
built, and the report digest of each input must repeat across its runs (an
input too slow to run twice untraced repeats in the traced run, which always
makes two full passes).

The last line of standard output is one JSON object: ``correct``,
``attempted``, ``failed`` and ``metrics`` (end-to-end metrics with
``--trace 0``, per-layer metrics with ``--trace 1``).  A fuller record, with
run metadata and one entry per input, goes to ``perfbench/out/``, and a
traced run writes its spans there as JSON lines.

``--table NAME`` runs one traced pass over a workload, or over the curves of
the ROADMAP baseline table with ``roadmap``, and prints the per-input table:
curve, genus, case, validate, decide and the biggest stages.
"""

import argparse
import contextlib
import dataclasses
import hashlib
import importlib
import json
import os
import platform
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

import corpus
import speed
import tracing

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = BENCH_DIR / "out"
SETUP_REPEATS = 3


class SetupError(Exception):
    pass


# --- set-up -------------------------------------------------------------------


@dataclasses.dataclass
class Library:
    """The library modules the benchmark calls, looked up at call time so
    that tracing wrappers installed on them take effect."""
    curve: object
    pipeline: object
    errors: object
    scalars: object
    poly: object


def fresh_import():
    if not (SRC / "trigonal" / "__init__.py").is_file():
        raise SetupError(f"no library sources under {SRC}")
    if sys.path[:1] != [str(SRC)]:
        sys.path.insert(0, str(SRC))
    for name in [m for m in sys.modules if m == "trigonal" or m.startswith("trigonal.")]:
        del sys.modules[name]
    pkg = importlib.import_module("trigonal")
    if Path(pkg.__file__).resolve().parent != (SRC / "trigonal").resolve():
        raise SetupError(f"imported trigonal from {pkg.__file__}, not from {SRC}")
    return Library(*(importlib.import_module(f"trigonal.{m}")
                     for m in ("curve", "pipeline", "errors", "scalars", "poly")))


def setup(name, seed, repeats):
    """Import the library afresh and build the inputs, ``repeats`` times;
    returns the last library and inputs with every set-up time, in seconds
    at reference host speed."""
    times = []
    for _ in range(repeats):
        with speed.Probe() as probe:
            t0 = time.perf_counter()
            lib = fresh_import()
            items = corpus.build(name, seed)
            t1 = time.perf_counter()
        times.append(probe.seconds(t0, t1))
    return lib, items, times


# --- one input ------------------------------------------------------------------


@dataclasses.dataclass
class Result:
    start: float
    wall_s: float
    seconds: float = None      # wall_s less probe ticks, at reference host speed
    validate_s: float = None
    decide_s: float = None
    report: object = None      # kept by traced runs only
    outcome: str = None        # the error, or the case decided
    error: str = None          # exception class name, None when decided
    detail: str = None         # traceback of an unexpected exception
    problem: str = None        # why the outcome does not match the known answer
    digest: str = None


def run_one(item, seed, lib, tracer):
    """validate_curve + decide on one input, timed; never raises."""
    outcome = None
    t0 = time.perf_counter()
    res = Result(start=t0, wall_s=0.0)
    try:
        with _span(tracer, "input"):
            curve = lib.curve.validate_curve(item.f)
            t1 = time.perf_counter()
            res.validate_s = t1 - t0
            with _span(tracer, "pipeline.decide"):
                res.report = lib.pipeline.decide(curve, seed=seed)
            res.decide_s = time.perf_counter() - t1
    except lib.errors.UnsupportedInput as e:
        res.error, outcome = type(e).__name__, f"{type(e).__name__}: {e}"
    except Exception as e:  # the oracle counts it; the run goes on
        res.error = f"unexpected {type(e).__name__}"
        res.detail = outcome = traceback.format_exc()
    res.wall_s = time.perf_counter() - t0
    res.digest = _digest(outcome if res.report is None
                         else res.report.to_json(with_timings=False))
    res.problem = check(item.expect, res)
    res.outcome = res.error or res.report.case
    if tracer is None:
        res.report = None      # so that peak memory does not grow with the runs
    return res


def check(expect, res):
    """None when the outcome matches the known answer, else the mismatch.

    A rejection other than hyperellipticity only has to be a typed
    ``UnsupportedInput``: which check fires first is not part of the answer.
    """
    if res.error is not None and res.error.startswith("unexpected"):
        return res.error
    if expect.kind == "hyperelliptic":
        if res.error == "HyperellipticInput":
            return None
        return f"expected HyperellipticInput, got {res.error or 'a verdict'}"
    if expect.kind == "reject":
        return None if res.error is not None else "expected a typed rejection, got a verdict"
    if res.error is not None:
        return f"expected a verdict, got {res.error}"
    rep = res.report
    got = (rep.genus, rep.case, rep.trigonal)
    want = (expect.genus, expect.case, expect.trigonal)
    if got != want:
        return f"expected genus/case/trigonal {want}, got {got}"
    if rep.map_available and rep.verified_degree != 3:
        return f"emitted map verified at degree {rep.verified_degree}"
    if rep.genus >= 4 and rep.agreement is not True:
        return f"Lie and quadric-generation verdicts disagree ({rep.agreement})"
    return None


def _digest(text):
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def _span(tracer, name):
    return tracer.span(name) if tracer else contextlib.nullcontext()


@dataclasses.dataclass
class Pass:
    traced: bool
    wall_s: float              # the whole pass, probe ticks included
    busy_s: float              # wall_s less probe ticks
    results: list              # one per input; None for an input left out
    tracer: object = None


def run_pass(items, seed, lib, traced, deadline=None, last=None):
    """One input after another; with a deadline, only the inputs whose
    ``last`` wall time still fits before it.  An untraced pass runs under the
    speed probe and times each input at reference host speed; a traced pass
    runs without it, so that no tick lands inside a span, and keeps wall
    times."""
    tracer = tracing.Tracer() if traced else None
    probe = None if traced else speed.Probe()
    if tracer:
        tracer.install()
    try:
        with probe or contextlib.nullcontext():
            t0 = time.perf_counter()
            results = [run_one(it, seed, lib, tracer)
                       if deadline is None or time.perf_counter() + last[i] <= deadline
                       else None for i, it in enumerate(items)]
            t1 = time.perf_counter()
    finally:
        if tracer:
            tracer.uninstall()
    for r in _ran(results):
        r.seconds = probe.seconds(r.start, r.start + r.wall_s) if probe else r.wall_s
    busy = t1 - t0 - (probe.own_s(t0, t1) if probe else 0.0)
    return Pass(traced, t1 - t0, busy, results, tracer)


def _ran(results):
    return [r for r in results if r is not None]


def measure(items, seed, lib, seconds, trace):
    """Untraced: a full pass, then passes over the inputs that still fit in
    ``seconds``, until one fits no more.  Traced: untraced and traced full
    passes alternate, starting untraced, until the next would overrun."""
    deadline = time.perf_counter() + seconds
    passes = []
    if trace:
        while True:
            passes.append(run_pass(items, seed, lib, traced=len(passes) % 2 == 1))
            if len(passes) >= 2 and time.perf_counter() + passes[-1].wall_s > deadline:
                return passes
    passes.append(run_pass(items, seed, lib, traced=False))
    last = [r.wall_s for r in passes[0].results]
    while True:
        p = run_pass(items, seed, lib, traced=False, deadline=deadline, last=last)
        if not _ran(p.results):
            return passes
        passes.append(p)
        last = [r.wall_s if r else w for r, w in zip(p.results, last)]


# --- metrics ----------------------------------------------------------------------


def end_to_end(items, passes, setup_times):
    plain = [p for p in passes if not p.traced]
    per_input = [statistics.median(r.seconds for r in _ran(p.results[i] for p in plain))
                 for i in range(len(items))]
    rejected = [i for i, it in enumerate(items) if it.expect.kind != "accept"]
    attempted = count_attempted(passes)
    failed = count_failed(passes)
    return {
        "total_s": (sum(per_input), "s"),
        "slowest_s": (max(per_input), "s"),
        "reject_s": (sum(per_input[i] for i in rejected), "s"),
        "ok_rate": ((attempted - failed) / attempted, "ratio"),
        "setup_s": (statistics.median(setup_times), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }


def per_layer(passes):
    traced = [p for p in passes if p.traced]
    plain = [p for p in passes if not p.traced]
    layers = [tracing.layer_totals(p.tracer.spans, p.tracer.counts) for p in traced]
    out = {}
    for key in layers[0]:
        out[key] = (statistics.median(layer[key] for layer in layers), tracing.unit_of(key))
    overhead = (statistics.median(p.busy_s for p in traced)
                / statistics.median(p.busy_s for p in plain))
    out["trace.overhead"] = (overhead, "ratio")
    checks = [tracing.stage_consistency(p.tracer.spans, [r.report for r in p.results])
              for p in traced]
    out["trace.stage_coverage"] = (min(c for c, _ in checks), "ratio")
    out["trace.stage_excess_s"] = (max(e for _, e in checks), "s")
    return out


def count_attempted(passes):
    return sum(len(_ran(p.results)) for p in passes)


def count_failed(passes):
    return sum(r.problem is not None for p in passes for r in _ran(p.results))


def repeat_mismatches(items, passes):
    """Inputs whose outcome digest differs between their runs."""
    return [it.name for i, it in enumerate(items)
            if len({r.digest for r in _ran(p.results[i] for p in passes)}) > 1]


# --- metadata and output ---------------------------------------------------------


def git_sha():
    """HEAD of the checkout, read from .git without running git; None when
    the checkout is not a git repository."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        ref = ref[5:]
        loose = ROOT / ".git" / ref
        if loose.is_file():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def metadata(args, lib, items):
    r = type(lib.scalars.rat(0))
    return {
        "workload": args.workload or args.table,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "scalar_backend": f"{r.__module__}.{r.__qualname__}",
        "python": platform.python_version(),
        "git_sha": git_sha(),
        "nproc": os.cpu_count(),
        "inputs": [{"name": it.name,
                    "fingerprint": _digest(lib.poly.poly_str(it.f)),
                    "expect": dataclasses.asdict(it.expect)} for it in items],
    }


def input_records(items, passes):
    out = []
    for i, it in enumerate(items):
        ran = [p for p in passes if p.results[i] is not None]
        rs = [p.results[i] for p in ran]
        out.append({
            "name": it.name,
            "outcome": rs[0].outcome,
            "digest": [r.digest for r in rs],
            "wall_s": [r.wall_s for r in rs],
            "seconds": [r.seconds for r in rs],
            "validate_s": [r.validate_s for r in rs],
            "decide_s": [r.decide_s for r in rs],
            "traced": [p.traced for p in ran],
            "problems": sorted({r.problem for r in rs if r.problem}),
            "details": sorted({r.detail for r in rs if r.detail}),
        })
    return out


def write_spans(path, passes):
    with open(path, "w", encoding="utf-8") as fh:
        for k, p in enumerate(passes):
            if p.traced:
                for idx, (name, start, end, parent, attrs) in enumerate(p.tracer.spans):
                    fh.write(json.dumps({"pass": k, "id": idx, "name": name,
                                         "start": start, "end": end,
                                         "parent": parent, "attrs": attrs}) + "\n")


# --- table mode ------------------------------------------------------------------------


def table(items, p, meta):
    spans = p.tracer.spans
    kids = tracing.children(spans)
    lines = ["| curve | genus | case | validate | decide | biggest stages |",
             "|---|---|---|---|---|---|"]
    for it, res, (validate, decide) in zip(items, p.results, tracing.input_spans(spans, kids)):
        stages = tracing.stage_sums(spans, decide, kids) if decide is not None else {}
        top = sorted(stages.items(), key=lambda kv: -kv[1])[:3]
        rep = res.report
        lines.append("| {} | {} | {} | {} | {} | {} |".format(
            it.name,
            rep.genus if rep else it.expect.genus or "-",
            rep.case if rep else res.error,
            _secs(spans, validate), _secs(spans, decide),
            ", ".join(f"{k} {v:.2f}" for k, v in top if v >= 0.005) or "-"))
    lines.append("")
    lines.append(f"One traced pass; {meta['scalar_backend']} backend, Python "
                 f"{meta['python']}, {meta['nproc']} CPUs, git {meta['git_sha']}. "
                 f"Validate excludes building the curve.")
    return "\n".join(lines)


def _secs(spans, idx):
    return "-" if idx is None else f"{spans[idx][2] - spans[idx][1]:.2f} s"


# --- main --------------------------------------------------------------------------------


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=corpus.WORKLOADS)
    ap.add_argument("--table", choices=corpus.TABLES)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if (args.workload is None) == (args.table is None):
        ap.error("give exactly one of --workload and --table")
    return args


def main(argv=None):
    args = parse_args(argv)
    repeats = SETUP_REPEATS if args.workload and not args.trace else 1
    try:
        lib, items, setup_times = setup(args.workload or args.table, args.seed, repeats)
    except SetupError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    meta = metadata(args, lib, items)
    OUT_DIR.mkdir(exist_ok=True)
    stem = OUT_DIR / f"{meta['workload']}-seed{args.seed}"

    if args.table:
        p = run_pass(items, args.seed, lib, traced=True)
        write_spans(f"{stem}.spans.jsonl", [p])
        print(table(items, p, meta))
        return 0 if all(r.problem is None for r in p.results) else 1

    passes = measure(items, args.seed, lib, args.seconds, bool(args.trace))
    metrics = per_layer(passes) if args.trace else end_to_end(items, passes, setup_times)
    mismatched = repeat_mismatches(items, passes)
    records = input_records(items, passes)
    failed = count_failed(passes)
    correct = failed == 0 and not mismatched

    for rec in records:
        status = "ok" if not rec["problems"] else "; ".join(rec["problems"])
        print(f"{rec['name']:32s} {statistics.median(rec['seconds']):8.3f} s  "
              f"{rec['outcome']:24s} {status}")
    if mismatched:
        print(f"outcome digests differ between passes: {', '.join(mismatched)}")
    if args.trace:
        write_spans(f"{stem}.spans.jsonl", passes)
    with open(f"{stem}-trace{args.trace}.json", "w", encoding="utf-8") as fh:
        json.dump({"meta": meta, "setup_s": setup_times,
                   "passes": [{"traced": p.traced, "wall_s": p.wall_s, "busy_s": p.busy_s,
                               "inputs": len(_ran(p.results))} for p in passes],
                   "metrics": {k: v for k, (v, _) in metrics.items()},
                   "repeat_mismatches": mismatched, "inputs": records}, fh, indent=1)
    print(json.dumps({"meta": {k: v for k, v in meta.items() if k != "inputs"}}))
    print(json.dumps({
        "correct": correct,
        "attempted": count_attempted(passes),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
