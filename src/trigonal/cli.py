"""Command-line surface: decide a curve file, generate corpus curves, and a
seeded benchmark harness emitting one CSV row per sample.

Exit codes: 0 = decided (either verdict), 2 = unsupported or invalid input,
3 = internal invariant failure.
"""

import argparse
import csv
import sys
import time

from .curve import (derived_rng, gen_method1, gen_method1_candidate,
                    gen_trigonal_projection, gen_trigonal_projection_candidate,
                    parse_curve_file, parse_point, validate_curve,
                    write_curve_file)
from .errors import (InternalInvariantError, ParseError, TrigonalError,
                     UnsupportedInput)
from .pipeline import decide
from .scalars import rat

EXIT_OK = 0
EXIT_UNSUPPORTED = 2
EXIT_INTERNAL = 3

BENCH_HEADER = ["generator", "params", "bit_height", "genus", "deg",
                "seconds", "accepted", "trigonal", "agreement"]


def bit_height(f):
    """Largest bit length among numerators/denominators of the coefficients."""
    h = 0
    for c in f.terms.values():
        c = rat(c)
        h = max(h, int(abs(c.numerator)).bit_length(),
                int(c.denominator).bit_length())
    return h


def _read_text(path):
    """The contents of a UTF-8 input file; ParseError if it is not UTF-8."""
    with open(path, "rb") as fh:
        raw = fh.read()
    try:
        return raw.decode("utf-8")
    except UnicodeDecodeError as e:
        raise ParseError(f"not UTF-8: {e.reason}",
                         raw.count(b"\n", 0, e.start) + 1) from None


def cmd_decide(args):
    data = parse_curve_file(_read_text(args.path))
    point = parse_point(args.point) if args.point else data["point"]
    curve = validate_curve(data["f"], declared_sings=data["sings"] or None,
                           base_point=point, fld=data["field"])
    rep = decide(curve, seed=args.seed)
    text = rep.to_json()
    print(text)
    if args.json_out:
        with open(args.json_out, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    return EXIT_OK


def cmd_generate(args):
    if args.method == "projection":
        curve = gen_trigonal_projection(args.degree, args.height, args.seed)
    else:
        curve = gen_method1(args.deg_x, args.height, args.seed)
    text = write_curve_file(curve)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return EXIT_OK


# The fields of a bench job, and the one params key of each method.
_BENCH_FIELDS = ("method", "n", "height", "params")
_BENCH_PARAMS = {"projection": "d", "m1": "deg_x"}


def _parse_bench_spec(text):
    """Bench jobs, one a line: ``method=... n=... [height=...]
    [params=key=int,...]``; every field but the method is an integer.  An
    unknown or repeated field or params key is a ParseError, as in a
    curve file."""
    jobs = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        fields = _spec_fields(line.split(), _BENCH_FIELDS, "field", lineno)
        for req in ("method", "n"):
            if req not in fields:
                raise ParseError(f"missing {req}= in bench job", lineno)
        method = fields["method"]
        if method not in _BENCH_PARAMS:
            raise ParseError(f"unknown method {method!r}", lineno)
        params = _spec_fields(filter(None, fields.get("params", "").split(",")),
                              (_BENCH_PARAMS[method],), "params key", lineno)
        jobs.append({
            "method": method,
            "params": {k: _spec_int(k, v, lineno) for k, v in params.items()},
            "n": _spec_int("n", fields["n"], lineno),
            "height": _spec_int("height", fields.get("height", "5"), lineno),
        })
    return jobs


def _spec_fields(tokens, known, what, lineno):
    """The ``key=value`` tokens as a dict, refusing a key outside ``known``
    or one that comes twice."""
    fields = {}
    for token in tokens:
        key, eq, value = token.partition("=")
        if not eq:
            raise ParseError(f"bad token {token!r}", lineno)
        if key not in known:
            raise ParseError(f"unknown {what} {key!r}", lineno)
        if key in fields:
            raise ParseError(f"a second {what} {key!r}", lineno)
        fields[key] = value
    return fields


def _spec_int(key, value, lineno):
    try:
        return int(value)
    except ValueError:
        raise ParseError(f"{key}={value!r} is not an integer", lineno) from None


def _bench_candidate(job, rng):
    method = job["method"]
    params = job["params"]
    if method == "projection":
        d = params.get("d", 5)
        return gen_trigonal_projection_candidate(d, job["height"], rng), f"d={d}"
    deg_x = params.get("deg_x", 3)
    return gen_method1_candidate(deg_x, job["height"], rng), f"deg_x={deg_x}"


def cmd_bench(args):
    jobs = _parse_bench_spec(_read_text(args.spec))
    rows = []
    for jidx, job in enumerate(jobs):
        for i in range(job["n"]):
            rng = derived_rng(args.seed, f"bench:{jidx}:{i}")
            t0 = time.perf_counter()
            accepted = False
            genus = ""
            trig = ""
            agree = ""
            cand, params = _bench_candidate(job, rng)
            deg = cand.total_degree()
            height = bit_height(cand)
            try:
                curve = validate_curve(cand)
                accepted = True
                genus = curve.genus
                rep = decide(curve, seed=args.seed)
                trig = rep.trigonal
                if rep.agreement is not None:
                    agree = rep.agreement
            except UnsupportedInput:
                pass
            seconds = time.perf_counter() - t0
            rows.append([job["method"], params, height, genus, deg,
                         f"{seconds:.3f}", accepted, trig, agree])
    out = open(args.out, "w", newline="", encoding="utf-8") if args.out else sys.stdout
    try:
        writer = csv.writer(out)
        writer.writerow(BENCH_HEADER)
        writer.writerows(rows)
    finally:
        if args.out:
            out.close()
    return EXIT_OK


def build_parser():
    ap = argparse.ArgumentParser(
        prog="trigonal",
        description="Decide whether a plane curve of genus >= 3 carries a "
                    "degree-3 map to the projective line, and construct one "
                    "when it does.")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("decide", help="decide trigonality of a curve file")
    p.add_argument("path")
    p.add_argument("--point", help="marked point a:b:c for the genus-3 branch")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--json-out", help="also write the report to this file")
    p.set_defaults(func=cmd_decide)

    p = sub.add_parser("generate", help="generate a validated curve file")
    gsub = p.add_subparsers(dest="method", required=True)
    gp = gsub.add_parser("projection")
    gp.add_argument("--degree", type=int, required=True)
    gm1 = gsub.add_parser("m1")
    gm1.add_argument("--deg-x", dest="deg_x", type=int, required=True)
    for q in (gp, gm1):
        q.add_argument("--height", type=int, default=5)
        q.add_argument("--seed", type=int, default=0)
        q.add_argument("--out")
        q.set_defaults(func=cmd_generate)

    p = sub.add_parser("bench", help="run the seeded benchmark harness")
    p.add_argument("spec")
    p.add_argument("--out", help="CSV output path (default stdout)")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_bench)
    return ap


def main(argv=None):
    ap = build_parser()
    args = ap.parse_args(argv)
    try:
        return args.func(args)
    except UnsupportedInput as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_UNSUPPORTED
    except InternalInvariantError as e:
        print(f"internal error: {e}", file=sys.stderr)
        return EXIT_INTERNAL
    except TrigonalError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_UNSUPPORTED
    except OSError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_UNSUPPORTED


if __name__ == "__main__":
    sys.exit(main())
