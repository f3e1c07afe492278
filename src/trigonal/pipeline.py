"""Top-level decision procedure and its certificates.

decide() runs one ordered table of stages: adjoints, quadrics (refused at
the hyperelliptic count (g-1)(g-2)/2, the other count that
``forms_through_image`` lets through), the stabilizer algebra with the one
call ``liealg.classify`` that reads its Levi type, case and sl2 summands,
the map, and the quadric-generation test.  The map stage runs one candidate
loop for every trigonal case: the genus-3 pencil through the curve's
validated base point, or ``scroll.rulings`` on the sl2 summands (one for a
scroll, two for P1xP1), each candidate checked by its fiber degree.  A
ruling (p : q) is a reduced pencil (a : b) times a fixed part A (on every
corpus curve, a pencil of lines times a form of degree deg p - 1), and each
fiber draw divides A out mod its prime: Res_y(F, p - t*q) is Res_y(F, A) *
Res_y(F, a - t*b) up to a constant, and the factor Res_y(F, A), common to
every t, drops out of the fiber count.  The last stage is
an independent oracle whose agreement is recorded.  It compares the span of
the products x_i * q against the cubic count that Max Noether's theorem
fixes, so no cubic space is built.  Each stage's wall time lands in the
report under the stage name, and its errors carry that name as a label.
The liealg stage records the counters of its certified kernel (equation rows,
the trace among them; nullity, the Lie algebra's dimension; primes; the
echelon's nonzeros) and the petri stage its span (rows, rank, expected rank)
under their names; like the timings, they are left out of
``to_json(with_timings=False)``.
"""

import time
from dataclasses import dataclass, field as dc_field
from itertools import repeat, zip_longest
from math import comb

from .canonical import (PetriResult, adjoint_basis, adjoint_combination,
                        forms_through_image, petri_test)
from .curve import derived_rng
from .errors import (CurveUnsupported, DegenerateFiber, HyperellipticInput,
                     InvalidInput, PointNotOnCurve, TrigonalError, UnsupportedInput,
                     stage)
from .liealg import Case, classify, stabilizer_algebra
from .linalg import kernel_basis
from .modular import (PRIME_WALK_START, FpEchelon, clear_denominators, fp_bivariate_table,
                      fp_divmod, fp_gcd, fp_reduce, fp_resultant_keepvar, fp_sqrt,
                      fp_squarefree, fp_sub, fp_trim, primes_below)
from .poly import poly_str
from .scalars import PrimeField, QuadraticField
from .scroll import PencilMap, rulings

__all__ = ["Report", "decide", "map_degree", "g3_map"]


@dataclass
class Report:
    """Full decision record; serializes to stable-ordered JSON."""
    input_f: str
    input_sings: list
    input_field: str
    input_point: str
    seed: int
    genus: int
    adjoint_dim: int
    quadric_dim: int
    lie_dim: int = None
    levi_type: str = None
    case: str = None
    trigonal: bool = None
    map_available: bool = False
    map_p: str = None
    map_q: str = None
    map_field: str = None
    verified_degree: int = None
    fiber_draws: list = dc_field(default_factory=list)
    petri: str = None
    agreement: bool = None
    notes: list = dc_field(default_factory=list)
    timings: dict = dc_field(default_factory=dict)
    counters: dict = dc_field(default_factory=dict)
    extras: dict = dc_field(default_factory=dict, repr=False)

    def to_dict(self, with_timings=True):
        """The report as a dict; timings and counters, which vary between
        runs or describe the work rather than its result, come only with
        ``with_timings``."""
        out = {
            "input": {
                "f": self.input_f,
                "sings": self.input_sings,
                "field": self.input_field,
                "point": self.input_point,
            },
            "seed": self.seed,
            "genus": self.genus,
            "adjoint_dim": self.adjoint_dim,
            "quadric_dim": self.quadric_dim,
            "lie_dim": self.lie_dim,
            "levi_type": self.levi_type,
            "case": self.case,
            "trigonal": self.trigonal,
            "map": ({"p": self.map_p, "q": self.map_q, "field": self.map_field}
                    if self.map_available else None),
            "verified_degree": self.verified_degree,
            "fiber_draws": self.fiber_draws,
            "petri": self.petri,
            "agreement": self.agreement,
            "notes": self.notes,
        }
        if with_timings:
            out["timings"] = {k: round(v, 6) for k, v in self.timings.items()}
            out["counters"] = self.counters
        return out

    def to_json(self, with_timings=True):
        import json
        return json.dumps(self.to_dict(with_timings=with_timings), indent=2)


# --- fiber counting -----------------------------------------------------------

# Draws the fiber check makes at most.  It returns the first degree that a
# second draw repeats, so two agreeing draws end it.
FIBER_DRAWS = 6


def _shear(table, lam, p):
    """The table of u(x + lam*y, y) mod p from the table of u(x, y), an int
    list in x per y-power as ``fp_bivariate_table`` lays it out, with no
    trailing zero row: its length is one more than the y-degree mod p."""
    width = max(map(len, table))
    out = [[0] * width for _ in range(len(table) + width)]
    for j, row in enumerate(table):
        for i, c in enumerate(row):
            for r in range(i + 1 if lam else 1):    # c x^i y^j -> c (x + lam y)^i y^j
                out[j + r][i - r] += c * comb(i, r) * lam ** r
    return _trim_rows([[c % p for c in row] for row in out])


def _trim_rows(table):
    """``table`` with its rows trimmed and no trailing zero row."""
    table = [fp_trim(row) for row in table]
    while table and not table[-1]:
        table.pop()
    return table


def _fiber_primes(fld):
    """Moduli of successive fiber draws, each with the image of sqrt(delta),
    the smaller square root of delta mod p (None outside Q(sqrt delta)).
    Over F_q the modulus is q itself, ``FIBER_DRAWS`` times, one per draw;
    over Q and Q(sqrt delta) they are the package's one prime walk, down from
    ``PRIME_WALK_START`` = 2^30, keeping only primes where delta is a nonzero
    square: each residue is one 30-bit digit of a CPython int."""
    if isinstance(fld, PrimeField):
        return repeat((fld.p, None), FIBER_DRAWS)
    walk = primes_below(PRIME_WALK_START)
    if isinstance(fld, QuadraticField):
        return ((p, fp_sqrt(fld.delta, p)) for p in walk
                if pow(fld.delta % p, (p - 1) // 2, p) == 1)
    return ((p, None) for p in walk)


def _reduce_draw(primes, forms, lam, d):
    """The next admissible modulus p from ``primes`` with the tables of the
    ternary ``forms`` (f, P, Q) at z = 1, reduced mod p and sheared by
    x -> x + lam*y there.  p is admissible when no denominator vanishes
    mod p and the sheared f keeps its y-degree d, so it stays monic in y."""
    for p, root in primes:
        tables = [fp_bivariate_table(u, p, root) for u in forms]
        if None not in tables:
            tables = [_shear(t, lam, p) for t in tables]
            if len(tables[0]) == d + 1:
                return p, tables
    raise DegenerateFiber("no admissible prime for the fiber check")


def _divide_fixed_part(pt, qt, e, p):
    """The tables of a pencil (a : b) with P = A*a and Q = A*b mod p and
    gcd(a, b) = 1, for the tables pt, qt of forms P and Q of degree e at
    z = 1.  deg a is the least e' >= 1 at which P*b = Q*a has a nonzero
    solution; each e' tried is one echelon mod p whose columns are the
    coefficients of a and b at the monomials x^i y^j, i + j <= e'.  With no
    solution below e, (pt, qt) itself.

    A divides P and Q on the line y = z as well, so deg A is at most the
    degree of their gcd there as binary forms: the affine gcd times the
    power of z that both share.  The search starts at e minus that degree,
    which on a coprime pencil is generically e: no echelon at all."""
    pl, ql = (fp_trim([sum(col) % p for col in zip_longest(*t, fillvalue=0)])
              for t in (pt, qt))
    on_line = len(fp_gcd(pl, ql, p)) + e - max(len(pl), len(ql))
    terms = [[(i, j, c) for j, row in enumerate(t) for i, c in enumerate(row) if c]
             for t in (pt, qt)]
    for k in range(max(1, e - on_line), e):
        monos = [(i, j) for j in range(k + 1) for i in range(k + 1 - j)]
        n = len(monos)
        rows = {}
        for col, (i, j) in enumerate(monos):
            # column col holds a's coefficient at x^i y^j, n + col b's
            for u, v, c in terms[0]:
                rows.setdefault((u + i, v + j), {})[n + col] = c
            for u, v, c in terms[1]:
                rows.setdefault((u + i, v + j), {})[col] = p - c
        ech = FpEchelon(2 * n, p)
        for row in rows.values():
            ech.add(row)
            if ech.rank == 2 * n:
                break
        else:
            vec = iter(ech.kernel()[0])     # a's coefficients, then b's, as in monos
            return [_trim_rows([[next(vec) for _ in range(k + 1 - j)] for j in range(k + 1)])
                    for _ in range(2)]
    return pt, qt


def map_degree(curve, pencil, seed=0):
    """Fiber degree of the pencil (p : q) on the curve.

    For random parameters t1, t2: R_t(x) = Res_y(F, p - t*q) in a sheared
    chart where the curve is monic in y; gcd(R_t1, R_t2) captures the base
    locus, and the degree of the square-free part of R_t1 / gcd counts the
    fiber.  Each draw works modulo its own prime (recorded as "prime"),
    below 2^30 over Q and Q(sqrt delta), so a draw is Monte Carlo in its
    shear, its t-values and its prime; over F_q it works mod q, exactly.
    Each draw picks its prime, reduces and shears f, p and q there
    (``_reduce_draw``) and divides out their fixed part there: p = A*a and
    q = A*b with gcd(a, b) = 1 (``_divide_fixed_part``).  As F is monic in
    y, Res_y(F, p - t*q) = c * Res_y(F, A) * Res_y(F, a - t*b) for a nonzero
    constant c; the factor Res_y(F, A) is common to both t-values, so
    R_t1 / gcd(R_t1, R_t2) is the same polynomial with or without it, and
    the draw forms h = a - t*b, of Bezout degree d*deg(a) instead of d*e
    for a pencil of degree e.  It draws again a t whose h has no y-term mod
    the prime.  The reported pencil stays (p : q).  A pencil coefficient
    outside the ground field is ``InvalidInput``.  Draws with distinct
    shears go on, at most ``FIBER_DRAWS`` of them, until one degree has come
    out twice; that degree, the first value seen twice, is returned.
    """
    f = curve.f
    p0, q0 = pencil.p, pencil.q
    if not p0 or not q0:
        raise InvalidInput("pencil components must be nonzero")
    if not (p0.is_homogeneous() and q0.is_homogeneous()
            and p0.total_degree() == q0.total_degree()):
        raise InvalidInput("pencil components must be forms of one degree")
    fld = curve.field
    if isinstance(pencil.field, QuadraticField):
        fld = pencil.field
    forms = (f, p0.map_coeffs(fld.coerce), q0.map_coeffs(fld.coerce))
    e = p0.total_degree()
    rng = derived_rng(seed, f"map_degree:{poly_str(p0)}:{poly_str(q0)}")
    primes = _fiber_primes(fld)
    draws = []
    seen = set()
    lam_iter = iter([0, 1, -1, 2, -2, 3, -3, 4, -4, 5, -5, 6, -6, 7, -7, 8, -8, 9, -9, 10])
    # the leading y-coefficient after the shear x -> x + lam*y is f(lam, 1, 0),
    # read off the z-free coefficients of f as ints (residues mod q over F_q)
    q = curve.field.p if isinstance(curve.field, PrimeField) else 0
    lead = {i: c for (i, _j, k), c in f.terms.items() if not k}
    lead = {i: fp_reduce(c, q) for i, c in lead.items()} if q else clear_denominators(lead)[0]

    def next_lambda():
        for lam in lam_iter:
            # monic-in-y requirement
            v = sum(c * lam ** i for i, c in lead.items())
            if v % q if q else v:
                return lam
        raise DegenerateFiber("no shear makes the curve monic in y")

    for _ in range(FIBER_DRAWS):
        lam = next_lambda()
        p, (ft, pt, qt) = _reduce_draw(primes, forms, lam, f.total_degree())
        at, bt = _divide_fixed_part(pt, qt, e, p)
        ts, hts = [], []
        for _ in range(40):
            k = rng.randint(-10000, 10000)
            t = fld.coerce(k)
            ht = [fp_sub(a, [k * c for c in b], p) for a, b in zip_longest(at, bt, fillvalue=[])]
            if any(ht[1:]) and t not in ts:
                ts.append(t)
                hts.append(ht)
                if len(ts) == 2:
                    break
        else:       # fewer than two t-values whose h involves y
            continue
        rs = [fp_resultant_keepvar(ft, ht, p) for ht in hts]
        if not all(rs):
            continue
        base = fp_gcd(rs[0], rs[1], p)
        moving = fp_squarefree(fp_divmod(rs[0], base, p)[0], p)
        deg = len(moving) - 1
        draws.append({"shear": lam, "t": [str(t) for t in ts], "degree": deg,
                      "prime": p})
        if deg in seen:
            return deg, draws
        seen.add(deg)
    raise DegenerateFiber("fiber-degree draws never agreed: "
                          f"{[d['degree'] for d in draws]}")


def g3_map(curve, cm):
    """Pencil of hyperplanes through the canonical image of the curve's base
    point, for genus-3 input: two independent adjoint combinations that
    vanish at the point.  ``validate_curve`` has normalized the point and
    checked that it is a smooth point of the curve.  The values and the
    forms are taken in the field's scalar form, over F_q reduced mod q."""
    if curve.genus != 3:
        raise InvalidInput("the marked-point pencil applies to genus 3 only")
    if curve.base_point is None:
        raise PointNotOnCurve("no base point provided")
    fld = curve.field
    vals = [fld.coerce(w.evaluate(list(curve.base_point))) for w in cm.forms]
    if not any(vals):
        raise CurveUnsupported("all canonical forms vanish at the base point")
    combos = kernel_basis([vals], fld.char)
    if len(combos) != 2:
        raise CurveUnsupported("hyperplanes through the point do not form a pencil")
    p, q = (adjoint_combination(c, cm).map_coeffs(fld.coerce) for c in combos)
    return PencilMap(p=p, q=q, field=fld)


# --- decide ---------------------------------------------------------------------


# Each stage is fn(curve, rep).  It reads what earlier stages left in
# rep.extras ("cm", "qspace", "lie", and "summands", the sl2 summands of
# ``classify``) and fills in its report fields.  The map stage leaves the
# verified candidates (summand index, sl2 triple, pencil; the first two None
# in genus 3), the failures (summand index, error) and the emitted "pencil".


def _adjoints(curve, rep):
    cm = rep.extras["cm"] = adjoint_basis(curve)
    rep.adjoint_dim = cm.genus


def _quadrics(curve, rep):
    qspace = rep.extras["qspace"] = forms_through_image(curve, rep.extras["cm"], 2)
    rep.quadric_dim = qspace.dim
    if qspace.dim == (rep.genus - 1) * (rep.genus - 2) // 2:
        raise HyperellipticInput(
            f"quadric dimension {qspace.dim} shows a 2:1 canonical image "
            f"(genus {rep.genus}); trigonality is undefined here")


def _liealg(curve, rep):
    """The stabilizer algebra and ``classify``'s Levi type, case and sl2
    summands.  Over a prime field only a trivial stabilizer gets this far:
    ``stabilizer_algebra`` refuses any other, since the Levi machinery
    needs characteristic zero."""
    x = rep.extras
    alg = x["lie"] = stabilizer_algebra(x["qspace"],
                                        counters=rep.counters.setdefault("liealg", {}))
    rep.lie_dim = alg.dim
    rep.levi_type, case, x["summands"] = classify(alg)
    rep.case = case.value


def _map(curve, rep):
    """The trigonal pencil of the case.  Each candidate (the genus-3 pencil,
    or one ruling per sl2 summand of ``classify``: the scroll's one, the
    quadric's two; a ruling is the first nondegenerate column of
    ``scroll.ruling_columns``) is a (summand index, triple, pencil) tuple
    and goes through the fiber check; the first verified at degree 3 is the
    map, and every draw is recorded.  With none verified, the first input
    error among the failures is raised, else the first failure."""
    x = rep.extras
    case = Case(rep.case)
    if case in (Case.CurveCutByQuadrics, Case.Veronese):
        rep.trigonal = False
        return
    if case == Case.Genus3:
        if curve.base_point is None:
            rep.notes.append("no base point provided; the pencil of lines "
                             "through a point needs one (trigonal verdict "
                             "stands, map omitted)")
            return
        what, failures = "marked-point pencil", []
        cands = [(None, None, g3_map(curve, x["cm"]))]
    else:
        what = "scroll ruling" if case == Case.Scroll else "ruling of the quadric"
        cands, failures = rulings(x["summands"], x["cm"])
    verified, all_draws = [], []
    for cand in cands:
        try:
            deg, draws = map_degree(curve, cand[-1], seed=rep.seed)
        except DegenerateFiber as err:
            failures.append((cand[0], err))
            continue
        all_draws.extend(draws)
        if deg == 3:
            verified.append(cand)
        else:
            failures.append((cand[0], CurveUnsupported(
                f"{what} verified at degree {deg}, not 3")))
    x["verified"], x["failures"] = verified, failures
    if not verified:
        raise next((err for _, err in failures if isinstance(err, UnsupportedInput)),
                   failures[0][1])
    pm = x["pencil"] = verified[0][-1]
    rep.trigonal = rep.map_available = True
    rep.map_p, rep.map_q = poly_str(pm.p), poly_str(pm.q)
    rep.map_field = pm.field.name
    rep.verified_degree, rep.fiber_draws = 3, all_draws
    if case == Case.P1xP1:
        rep.notes.append(f"{len(verified)} of {len(cands)} candidate rulings "
                         f"verified at degree 3")


def _petri(curve, rep):
    petri = petri_test(rep.extras["qspace"],
                       counters=rep.counters.setdefault("petri", {}))
    rep.petri = petri.value
    rep.agreement = ((petri == PetriResult.QuadricsInsufficient)
                     == (Case(rep.case) in (Case.Scroll, Case.P1xP1, Case.Veronese)))


# (timing key and error label, stage, lowest genus it runs at).  Genus 3 is
# trigonal outright: the Lie algebra and the quadric-generation test need
# genus >= 4.
_STAGES = (
    ("adjoints", _adjoints, 3),
    ("quadrics", _quadrics, 3),
    ("liealg", _liealg, 4),
    ("map", _map, 3),
    ("petri", _petri, 4),
)


def _run_stage(name, fn, curve, rep):
    """Run one stage, timing it into rep.timings[name] and labelling any
    TrigonalError it raises with the stage name."""
    t0 = time.perf_counter()
    try:
        fn(curve, rep)
    except TrigonalError as e:
        raise stage(name, e)
    rep.timings[name] = time.perf_counter() - t0


def decide(curve, seed=0):
    """Full trigonality decision with certificates; see the module doc.  The
    marked point, if any, is the base point that validation normalized."""
    if not curve.validated:
        raise InvalidInput("decide requires a validated curve")
    g = curve.genus
    rep = Report(
        input_f=poly_str(curve.f),
        input_sings=[{"point": ":".join(str(c) for c in s.coords),
                      "mult": s.multiplicity} for s in curve.sings],
        input_field=curve.field.name,
        input_point=(":".join(str(c) for c in curve.base_point)
                     if curve.base_point is not None else None),
        seed=seed, genus=g, adjoint_dim=None, quadric_dim=None,
    )
    if g == 3:
        rep.case = Case.Genus3.value
        rep.trigonal = True
    for name, fn, min_genus in _STAGES:
        if g >= min_genus:
            _run_stage(name, fn, curve, rep)
    return rep
