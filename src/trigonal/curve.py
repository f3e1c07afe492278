"""Plane projective curves with ordinary rational singularities.

Covers the input model (curve files), singular-locus discovery and
validation, the genus formula, and the test-curve generators: a cubic
cover of the x-line (y-degree 3), a projection from an ordinary
multiplicity-(d-3) point, so every degree has trigonal test curves, and a
curve with assigned ordinary singular points.

Curves are taken over Q or a prime field F_q, and one scan serves both.  It
runs on an int form of f: its primitive integer multiple over Q, its
residues in [0, q) over F_q.  Singular points on the line z=0 and at
(1:0:0) are found by exact univariate gcds on int lists: fraction-free over
Z (``modular.zz_gcd``) over Q, mod q over F_q.  The affine chart is scanned
with resultant nets reduced mod q itself over F_q, and over Q mod the head p
of the prime walk in ``modular``, below 2^30, so that every residue is one
CPython digit; a reduction that is degenerate there moves the scan to the
next walk prime.  The third net is computed only when the first two leave a
candidate x-value outside F_p.  Over Q a candidate root mod p is taken to
Q by rational reconstruction, which reaches about sqrt(p/2).  Each root is
settled in one pass: where reconstruction fails, or where the points mod p
above the root are more than the points found above its reconstruction
(two rational points whose x agree mod p), each singular point mod p left
over is lifted p-adically there and then, x and y together, by Newton's
iteration on two partials of f, or, at a cusp or tacnode mod p, where no
two partials have an invertible Jacobian, found among the rational roots
of a net taken over Z by CRT; each x so proposed is checked.  Each
candidate is verified exactly over the ground field, so a reported point is
never wrong: the fiber above it is cut out by an exact univariate gcd of
the same kind, on b^D F(a/b, y) over Q.  The roots of these gcds are taken
mod q over F_q, and over Q by ``modular.rational_roots``, which lifts roots
mod a prime p-adically; no step factors an integer.  Whatever part of a
candidate locus does not split into ground-field points counts into the
residual budget and leads to a typed rejection.  Over Q a residual that
rests on p alone (candidates with no root in F_p, points whose lift
failed) is confirmed first: the first two nets are taken at the next walk
prime, and unless their gcd still has more roots than the x-values found,
the scan runs again there, on those nets.  Also over Q, every singular
point of f mod p on z=0 that is not the reduction of a point found counts
into the residual: the affine scan mod p cannot see a point whose z reduces
to 0.  And over Q a point found that is ordinary but whose tangent cone
vanishes or has a repeated factor mod p may be where another singular
point meets it mod p, so the scan then runs again at the next walk prime.
The same scan rejects a repeated component on both fields, since its whole
support is singular.
Each singular point's multiplicity and ordinarity are read off the Taylor
pieces of the curve at an int representative of the point, built by
``poly.taylor_rows`` in increasing degree up to the first nonzero one; the
tangent cone is tested by the same gcds.
"""

import hashlib
import random
from collections import namedtuple
from itertools import combinations, islice
from math import gcd, isqrt, perm
from dataclasses import dataclass, field as dc_field
from functools import cache

from .errors import (CurveUnsupported, GenerationFailed, GenusTooSmall, UnsupportedInput,
                     InternalInvariantError, InvalidInput, IrrationalSingularLocus,
                     NonOrdinarySingularity, ParseError, PointNotOnCurve,
                     ReducibleSuspected)
from .modular import (PRIME_WALK_START, clear_denominators, fp_bivariate_table, fp_eval,
                      fp_gcd, fp_reduce, fp_resultant_keepvar, fp_roots, fp_squarefree,
                      fp_trim, primes_below, rational_reconstruct, rational_roots, recon_bound,
                      zz_gcd, zz_squarefree)
from .poly import MPoly, binary_form_squarefree, parse_poly, poly_str, taylor_rows
from .scalars import QQ, PrimeField, RationalField, rat, sdiv

__all__ = ["SingularPoint", "PlaneCurve", "genus", "singular_locus",
           "validate_curve", "gen_trigonal_projection", "gen_method1",
           "gen_singular_model", "parse_curve_file", "parse_point",
           "write_curve_file", "derived_rng", "normalize_point"]


def derived_rng(seed, label):
    """Deterministic child generator for (seed, label)."""
    digest = hashlib.sha256(f"{seed}:{label}".encode()).digest()
    return random.Random(int.from_bytes(digest[:8], "big"))


def normalize_point(coords, fld=QQ):
    coords = [fld.coerce(c) for c in coords]
    if len(coords) != 3 or not any(coords):
        raise InvalidInput("a projective point needs a nonzero coordinate triple")
    piv = max(i for i in range(3) if coords[i])
    s = coords[piv]
    return tuple(fld.coerce(sdiv(c, s)) for c in coords)


@dataclass(frozen=True)
class SingularPoint:
    coords: tuple
    multiplicity: int
    ordinary: bool      # the tangent cone has no repeated factor

    def key(self):
        return tuple(str(c) for c in self.coords)


@dataclass
class PlaneCurve:
    f: MPoly
    degree: int
    sings: tuple
    genus: int
    field: object = dc_field(default_factory=lambda: QQ)
    base_point: tuple = None
    validated: bool = False
    provenance: dict = None

    def __repr__(self):
        return (f"PlaneCurve(deg={self.degree}, genus={self.genus}, "
                f"sings={len(self.sings)}, f={poly_str(self.f)})")


def genus(d, multiplicities):
    """(d-1)(d-2)/2 - sum m(m-1)/2 over ordinary singular points."""
    if d < 3:
        raise InvalidInput("degree must be at least 3")
    g = (d - 1) * (d - 2) // 2
    for m in multiplicities:
        if m < 2:
            raise InvalidInput("singular multiplicities must be at least 2")
        g -= m * (m - 1) // 2
    if g < 0:
        raise InvalidInput("inconsistent singularity data: negative genus")
    return g


# --- restriction helpers -------------------------------------------------------


def _restrict_line_z0(g):
    """g(t, 1, 0) as an int list in t (g with int coefficients)."""
    coeffs = [0] * (g.degree_in(0) + 1)
    for (i, _j, k), c in g.terms.items():
        if k == 0:
            coeffs[i] += c
    return fp_trim(coeffs)


def _specialize_x(F, x0):
    """b^D F(a/b, y, 1) as an int list in y, for a ternary form F with int
    coefficients, x0 = a/b in lowest terms (b = 1 for an int) and
    D = deg_x F: a nonzero multiple of F(x0, y, 1) with no denominator."""
    a, b, top = x0.numerator, x0.denominator, F.degree_in(0)
    pa, pb = [1], [1]
    for _ in range(top):
        pa.append(pa[-1] * a)
        pb.append(pb[-1] * b)
    coeffs = [0] * (F.degree_in(1) + 1)
    for (i, j, *_), c in F.terms.items():
        coeffs[j] += c * pa[i] * pb[top - i]
    return fp_trim(coeffs)


def _fiber(polys, ground):
    """The fiber step of both scans: the ground-field roots of the gcd of
    the int lists ``polys``, each taken into the ground field by
    ``ground.mod`` (identically-zero ones impose no condition), and the
    degree of the rest of its square-free part; None when every one
    vanishes.  The gcd and the square-free part are the ground field's:
    primitive over Z on Q, monic mod q over F_q."""
    g = []
    for u in polys:
        u = fp_trim(ground.mod(u))
        if u and len(g) != 1:       # a constant gcd stays constant
            g = ground.gcd(g, u)
    if not g:
        return None
    sf = ground.squarefree(g)
    roots = ground.roots(sf)
    return roots, len(sf) - 1 - len(roots)


# --- singular locus -------------------------------------------------------------

# Walk primes the scan over Q tries before a reduction that is degenerate at
# each of them is reported as the error it raises at the last; a residual
# that rests on one of them alone is confirmed at the next, and at the last
# it stands.
SCAN_PRIMES = 3

_Ground = namedtuple("_Ground", "primes lift ints mod gcd squarefree roots")


def _primitive(values):
    """The primitive integer multiple of rationals not all 0, as ints."""
    row = list(clear_denominators(dict(enumerate(values)))[0].values())
    content = gcd(*row)
    return [c // content for c in row]


def _ground(fld):
    """What the scan needs of its ground field, as a ``_Ground``: the moduli
    p its resultant nets may be reduced at, in the order they are tried; the
    lift ``lift(r, p)`` of a root mod p to a ground-field candidate (None
    when there is none); ``ints``, an int representative of a sequence of
    ground-field values; ``mod``, which takes an int list into the ground
    field; and the gcd, square-free part and distinct ground-field roots of
    such lists.  The exact half of the scan runs on these int lists.

    Over F_q, p = q only, every root is a candidate, values are represented
    by their residues in [0, q), and the gcd, square-free part and roots are
    ``fp_gcd``, ``fp_squarefree`` and ``fp_roots`` mod q.  Over Q, p runs
    over the first ``SCAN_PRIMES`` primes of the walk, below 2^30, the next
    prime taken only when the reduction mod the last one is degenerate or a
    residual that rests on it alone is not confirmed at the next (the scan
    reduces f with int coefficients, its primitive integer multiple, so no
    denominator vanishes); a root lifts by rational reconstruction mod p,
    which reaches numerators and denominators up to about sqrt(p/2), and
    ``_affine_scan`` lifts the points above the roots it misses p-adically;
    values are represented by their primitive integer multiple and lists
    are left as they are; the gcd and square-free part are ``zz_gcd`` and
    ``zz_squarefree``, fraction-free over Z; and the roots are
    ``rational_roots``: roots mod a prime of their own, lifted p-adically
    and checked exactly, with no integer factoring."""
    if isinstance(fld, PrimeField):
        q = fld.p
        return _Ground((q,), lambda r, p: r, lambda vals: [fp_reduce(c, q) for c in vals],
                       lambda u: [c % q for c in u], lambda a, b: fp_gcd(a, b, q),
                       lambda a: fp_squarefree(a, q), lambda a: fp_roots(a, q))
    return _Ground(tuple(islice(primes_below(PRIME_WALK_START), SCAN_PRIMES)),
                   rational_reconstruct, _primitive, lambda u: u, zz_gcd, zz_squarefree,
                   rational_roots)


_Nets = namedtuple("_Nets", "tabs g first rest")


def _first_nets(polys, p):
    """The first resultant nets of ``polys`` = (F, F_x, F_y) mod p, as a
    ``_Nets``: the tables of ``polys`` mod p; g, the square-free gcd of the
    first two nets that do not vanish identically (the first alone when it
    is constant or the only one; None when every net vanishes); the pair of
    polynomials of the first such net; and the pairs whose nets are left.
    The nets Res_y are taken on the pairs of nonzero polynomials of which
    one involves y, in the order (F_x, F_y), (F, F_x), (F, F_y)."""
    pairs = [(i, j) for i, j in ((1, 2), (0, 1), (0, 2)) if polys[i] and polys[j]
             and (polys[i].degree_in(1) or polys[j].degree_in(1))]
    tabs = [fp_bivariate_table(P, p) for P in polys]
    g = first = None
    n = len(pairs)
    for k, (i, j) in enumerate(pairs, 1):
        r = fp_resultant_keepvar(tabs[i], tabs[j], p)
        if not r:
            continue
        if g is None:
            g, first = r, (polys[i], polys[j])
            if len(g) > 1:
                continue
        else:
            g = fp_gcd(g, r, p)
        n = k
        break
    if g is not None and len(g) > 1:
        g = fp_squarefree(g, p)
    return _Nets(tabs, g, first, pairs[n:])


def _net_bound(a, b):
    """A bound on the coefficients in x of Res_y(a, b) for ternary int forms
    read at z = 1, and so on the numerator and denominator of its rational
    roots: the Hadamard bound of its Sylvester matrix with each entry, a
    polynomial in x, replaced by its 1-norm.  On |x| = 1 no entry exceeds
    its 1-norm, so the resultant does not exceed the bound there, nor, by
    Parseval, does any of its coefficients."""
    norms = []
    for u in (a, b):
        row = [0] * (u.degree_in(1) + 1)
        for (_i, j, _k), c in u.terms.items():
            row[j] += abs(c)
        norms.append(sum(c * c for c in row))
    return isqrt(norms[0] ** b.degree_in(1) * norms[1] ** a.degree_in(1)) + 1


def _net_roots(a, b, bound):
    """The distinct rational roots of Res_y(a, b), for ternary int forms a, b
    read at z = 1 whose net is not 0 and has coefficients of absolute value
    at most ``bound``.  The net is taken over Z by CRT over the walk primes
    at which neither leading row in y vanishes, until their product exceeds
    2 * bound, and its roots by ``rational_roots`` of its square-free part."""
    net, m = [], 1
    for q in primes_below(PRIME_WALK_START):
        ta, tb = fp_bivariate_table(a, q), fp_bivariate_table(b, q)
        if not (ta[-1] and tb[-1]):
            continue
        r = fp_resultant_keepvar(ta, tb, q)
        n = max(len(net), len(r))
        net, r = net + [0] * (n - len(net)), r + [0] * (n - len(r))
        inv = pow(m, -1, q)
        net = [c + m * ((v - c) * inv % q) for c, v in zip(net, r)]
        m *= q
        if m > 2 * bound:
            break
    return rational_roots(zz_squarefree(fp_trim([c - m if 2 * c > m else c for c in net])))


def _lift_point(f, r, s, p, bound, net_roots, accept):
    """Whether the singular point (r, s) of F mod p, F the int form f read at
    z = 1, lifts p-adically to a rational x that ``accept(x, s)`` takes.

    Its multiplicity mod p is the lowest order m of a partial of F that does
    not vanish there.  Two partials of order m - 1 with an invertible
    Jacobian mod p are lifted together by Newton's iteration mod p^(2^k)
    (Hensel lifting; von zur Gathen and Gerhard, Modern Computer Algebra,
    ch. 15).  Their Jacobians are the 2 x 2 minors of the catalecticant of
    the tangent cone, of rank 2 at an ordinary m-fold point.  x is
    reconstructed at each precision and offered to ``accept`` when two
    successive precisions agree, and at the last one, where recon_bound
    passes ``bound()`` and a rational x below it is sure to come out; False
    then.  When no pair has an invertible Jacobian (a cusp or a tacnode mod
    p, where the cone is a power of a line), the x offered are those of
    ``net_roots()`` that are r mod p."""
    top = max(i + j for i, j, _k in f.terms)

    def partial(a, b):
        # f is a form, so (i, j) fixes k and no two terms of F share (i, j)
        return [(i - a, j - b, c * perm(i, a) * perm(j, b))
                for (i, j, _k), c in f.terms.items() if i >= a and j >= b]

    def at(polys, x, y, m):
        xp, yp = [1], [1]
        for _ in range(top):
            xp.append(xp[-1] * x % m)
            yp.append(yp[-1] * y % m)
        return [sum(c * xp[i] * yp[j] for i, j, c in u) % m for u in polys]

    for m in range(1, top + 1):
        cone = at([partial(a, m - a) for a in range(m + 1)], r, s, p)
        if any(cone):
            break
    # G_a = d^(m-1) F / dx^a dy^(m-1-a) has the gradient (cone[a + 1], cone[a])
    pair = next(((a, b) for a, b in combinations(range(m), 2)
                 if (cone[a + 1] * cone[b] - cone[a] * cone[b + 1]) % p), None)
    if pair is None:
        return any(accept(x0, s) for x0 in net_roots() if fp_reduce(x0, p) == r)
    polys = [partial(a + da, m - 1 - a + db) for a in pair
             for da, db in ((0, 0), (1, 0), (0, 1))]
    x, y, mod, prev, limit = r, s, p, None, bound()
    while True:
        mod *= mod
        u, ux, uy, v, vx, vy = at(polys, x, y, mod)
        inv = pow(ux * vy - uy * vx, -1, mod)
        x, y = (x - (vy * u - uy * v) * inv) % mod, (y - (ux * v - vx * u) * inv) % mod
        cand = rational_reconstruct(x, mod)
        last = recon_bound(mod) >= limit
        if cand is not None and (cand == prev or last) and accept(cand, s):
            return True
        if last:
            return False
        prev = cand


def _affine_scan(f, parts, p, ground, nets=None):
    """Ground-field singular points in the chart z=1, a residual budget for
    candidates that are not ground-field points, and the part of that budget
    that rests on p alone; None when every resultant net vanishes
    identically mod p.

    The candidate x-values mod p are the roots of the gcd of the resultant
    nets Res_y(F_x, F_y), Res_y(F, F_x) and Res_y(F, F_y), taken in that
    order by ``_first_nets`` (or given, as ``nets``, at p).  The square-free
    gcd of the first two is split into its F_p roots once.  When every one
    of its roots lies in F_p the last net is not computed: each root is
    checked below against all of F, F_x and F_y, exactly after the lift or
    by the mod-p gcd, and a root the last net would have dropped has
    Res_y(F, F_y) != 0 there, so that check drops it too.  Otherwise the
    last net cuts the gcd, and the F_p roots are the old roots at which the
    new gcd vanishes.  F, F_x and F_y are f and its ``parts`` (taken once,
    by the caller) read at z = 1.

    Each root r is settled in one pass.  It is checked exactly at
    ``ground.lift(r, p)``: over F_q r itself, over Q its rational
    reconstruction mod p, which reaches only about sqrt(p/2).  The singular
    points of F mod p above r, the roots of the fiber gcd mod p there, are
    then compared with the points found: two rational points whose x agree
    mod p share r, and so do phantoms, points of F mod p that lift to none
    of F.  Over F_q the exact fiber is the fiber mod q, so every such point
    is one found.  Each F_p root s of the fiber that no point found reduces
    to is lifted as a point by ``_lift_point``, with ``_net_bound`` of the
    first net as its bound, and with the rational roots of that net over Z
    (``_net_roots``) where the Jacobian of the lift is singular; both are
    built at the first lift that needs them.  Each x it proposes is checked
    exactly, and taken when a point above it reduces to (r, s).  The root
    counts into the residual when a lift fails or its fiber has a root
    outside F_p.  What rests on p alone is the part of the gcd without F_p
    roots and the roots whose lift failed.  When the first part is positive
    the verdict is already a rejection or a rescan, so no root is lifted,
    and a root left unlifted counts as failed: the residual is then an upper
    bound on the degree of the non-rational locus."""
    polys = (f, *parts[:2])
    if not polys[1] and not polys[2]:
        raise ReducibleSuspected("both affine partials vanish identically")
    tabs, g, first, rest = nets or _first_nets(polys, p)
    if g is None:
        return None
    if len(g) == 1:
        return [], 0, 0
    roots = fp_roots(g, p)
    for i, j in rest:
        if len(roots) == len(g) - 1:
            break       # every candidate is in F_p
        r = fp_resultant_keepvar(tabs[i], tabs[j], p)
        if r:
            g = fp_gcd(g, r, p)
            roots = [x for x in roots if not fp_eval(g, x, p)]
            if len(g) == 1:
                return [], 0, 0
    points, fibers, residual, net_roots = [], {}, 0, None

    def fiber_at(x0):
        """The residues mod p of the y of the points above x0, and the degree
        of the rest of the fiber; each point found is recorded, and the rest
        counted."""
        nonlocal residual
        if x0 not in fibers:
            # the gcd of the nonzero ones is exactly the singular fiber above x0
            fiber = _fiber([_specialize_x(P, x0) for P in polys], ground)
            if fiber is None:
                raise ReducibleSuspected("a vertical line lies on the curve")
            yroots, more = fiber
            points.extend((x0, y0) for y0 in yroots)
            residual += more
            fibers[x0] = {fp_reduce(y0, p) for y0 in yroots} - {None}, more
        return fibers[x0]

    def accept(x0, s):
        """Whether a singular point above x0 has a y that is s mod p."""
        ys, more = fiber_at(x0)
        return s in ys or more > 0

    # distinct candidate x-values over the closure that do not even reduce
    # into F_p are not ground-field points: straight into the residual budget
    lost = (len(g) - 1) - len(roots)
    failed = 0
    for r in roots:
        cand = ground.lift(r, p)
        ys, more = fiber_at(cand) if cand is not None else ((), 0)
        if more:
            continue
        gp = []
        for t in tabs:
            s = fp_trim([fp_eval(row, r, p) for row in t])
            if s:
                gp = fp_gcd(gp, s, p) if gp else s
        sf = fp_squarefree(gp, p)       # [] for a vertical line mod p
        if len(sf) - 1 == len(ys):
            continue        # each point mod p above r reduces from one found
        if lost or not sf:
            failed += 1     # left unlifted, or a vertical line mod p
            continue
        ss = fp_roots(sf, p)
        if net_roots is None:       # made where a lift may first run, not per scan
            bound = cache(lambda: _net_bound(*first))
            net_roots = cache(lambda: _net_roots(*first, bound()))
        if len(ss) < len(sf) - 1 or not all(
                _lift_point(f, r, s, p, bound, net_roots, accept) for s in ss if s not in ys):
            failed += 1
    return points, residual + lost + failed, lost + failed


def _infinity_scan(f, parts, ground):
    """Ground-field singular points on the line z=0, exactly, and the
    restrictions (t, 1, 0) of the partials ``parts`` that cut them out.  The
    point (1:0:0) is singular when no partial has an x^(d-1) term, d = deg
    f: that term is its value there."""
    restr = [_restrict_line_z0(g) for g in parts]
    # the gcd of the nonzero ones cuts out exactly the singular points with
    # y != 0 on the line
    fiber = _fiber(restr, ground)
    if fiber is None:
        raise ReducibleSuspected("the gradient vanishes on the whole line z=0")
    roots, residual = fiber
    points = [(t0, 1, 0) for t0 in roots]
    top = (f.total_degree() - 1, 0, 0)
    if not any(g.terms.get(top) for g in parts):
        points.append((1, 0, 0))
    return points, residual, restr


def _missed_on_z0(restr, d, p, reps):
    """The count of singular points of f mod p on z=0 that reduce from no
    point with primitive integer coordinates in ``reps``; f has degree d,
    integer coefficients and partials that restrict to ``restr`` on z=0.
    The affine scan mod p misses them.  Mod p they are (t:1:0) for the roots
    t of the gcd of the reduced ``restr``, and (1:0:0) when each of those
    lacks its t^(d-1) term.  None when the gradient mod p vanishes on the
    whole line, so that there is no count."""
    rs = [fp_trim([c % p for c in r]) for r in restr]
    g = []
    for r in filter(None, rs):
        g = fp_gcd(g, r, p)
    if not g:
        return None
    reduced = set()
    for a, b, c in reps:
        if not c % p:
            reduced.add(a * pow(b, -1, p) % p if b % p else None)
    return len(fp_squarefree(g, p)) - 1 + all(len(r) < d for r in rs) - len(reduced)


def singular_locus(f, fld=QQ):
    """All singular points with coordinates in the ground field (Q or F_q),
    plus the residual budget: the degree of the candidate loci that are not
    ground-field points, and over Q, when that is 0, the count of
    ``_missed_on_z0`` at the last scan prime.  The same two scans run over
    both fields; only ``_ground`` tells them apart.  They run on an int form
    of f, its primitive integer multiple over Q and its residues over F_q,
    so its partials, restrictions, fibers and reductions mod p make no
    Fraction or field element.  When its reduction mod p is degenerate
    (every affine net vanishes identically, or the gradient vanishes on
    z=0), or over Q a residual that rests on p alone is not confirmed by the
    first two nets at the next walk prime, or ``_missed_on_z0`` counts a
    point on z=0 mod p that no point found reduces to, or an ordinary point
    found has a tangent cone that vanishes or has a repeated factor mod p,
    the affine scan and the count run again at the next prime (on those
    nets, after a confirm), up to ``SCAN_PRIMES`` of them.  At each point,
    taken by its int representative, the Taylor pieces of f of degree 0,
    1, ... are taken until one is nonzero: its degree is the multiplicity m
    and, as the tangent cone, it tells whether the point is ordinary.  No
    piece above m is built.  The points reported are normalized ground-field
    elements.  Over Q, when part of the residual rests on p, it may count
    F_p roots left unlifted, rational or not: it is then an upper bound on
    the degree of the singular points outside Q."""
    if not f or not f.is_homogeneous():
        raise InvalidInput("expected a nonzero homogeneous form")
    d = f.total_degree()
    if d < 3:
        raise InvalidInput("degree must be at least 3")
    over_q = not isinstance(fld, PrimeField)
    ground = _ground(fld)
    f = MPoly(3, dict(zip(f.terms, ground.ints(f.terms.values()))))
    parts = [f.derivative(i) for i in range(3)]
    inf_pts, res_inf, restr = _infinity_scan(f, parts, ground)
    monos, coeffs = list(f.terms), list(f.terms.values())

    def singular(pt, rep):
        """The ``SingularPoint`` pt, rep its int form, with its tangent cone
        as ints; None off the curve."""
        for m in range(d + 1):
            piece = ground.mod([sum(c * r for c, r in zip(coeffs, row) if r)
                                for row in taylor_rows(monos, rep, m)])
            if any(piece):
                break
        if m:       # m = 0 off the curve: the degree-0 piece is f at the point
            return SingularPoint(pt, m, binary_form_squarefree(piece, ground.gcd)), piece
        return None

    primes, nets = ground.primes, None
    for n, p in enumerate(primes, 1):
        scan = _affine_scan(f, parts, p, ground, nets)
        nets = sings = None
        if scan is None:
            error = ReducibleSuspected("all affine resultant nets vanish identically")
            continue
        aff_pts, res_aff, unsure = scan
        residual = res_inf + res_aff
        # a residual that rests on p alone stands only if the first two nets
        # at the next scan prime have more roots than the x-values found;
        # otherwise the scan runs again there, on those nets
        if residual and residual == unsure and n < len(primes):
            nets = _first_nets((f, *parts[:2]), primes[n])
            if nets.g is None or len(nets.g) - 1 <= len({x0 for x0, _ in aff_pts}):
                continue
        pts = [normalize_point(c, fld) for c in inf_pts + [(x0, y0, 1) for x0, y0 in aff_pts]]
        reps = [ground.ints(pt) for pt in pts]
        if residual or not over_q:
            break
        # over Q every candidate lies on the curve, one on z=0 by Euler's
        # formula, so these are the coordinates of the points returned
        residual = _missed_on_z0(restr, d, p, reps)
        if residual is None:
            error = CurveUnsupported(f"the gradient mod {p} vanishes on the whole line z=0")
            continue
        if residual:
            if n < len(primes):
                continue        # points mod p alone may reduce onto z=0
            break
        # two singular points that meet mod p are one point of f mod p, with
        # a delta invariant above that of each; an ordinary m-fold point whose
        # cone stays nonzero and square-free mod p keeps its delta there, so
        # no other one meets it
        sings = [s for s in map(singular, pts, reps) if s]
        if not all(s.ordinary for s, _ in sings) or all(
                any(u) and binary_form_squarefree(u, lambda a, b: fp_gcd(a, b, p))
                for u in ([c % p for c in piece] for _, piece in sings)):
            break
        error = CurveUnsupported(f"singular points found may meet others mod {p}")
    else:
        raise error
    if sings is None:
        sings = [s for s in map(singular, pts, reps) if s]
    out = [s for s, _ in sings]
    out.sort(key=lambda s: s.key())
    return out, residual


def validate_curve(f, declared_sings=None, base_point=None, fld=QQ):
    """Validate a homogeneous input form and return a PlaneCurve.

    Checks: degree >= 3; every singular point lies over the ground field
    (Q or F_q, scanned alike) and is ordinary; the declared singular list
    (when given) matches the discovered one; genus >= 3.  The base point,
    when given, must be a smooth point on the curve.  Over F_q the prime
    must exceed 4 d^2, so that square-free parts taken by derivatives are
    correct in characteristic q.

    A repeated component is singular along its whole support, and the one
    singular-locus scan rejects it on both fields: the affine resultant
    nets all vanish identically, a fibre holds a vertical line, the
    gradient vanishes on z=0, or the residual is nonzero.  The last is how
    a doubled component made of vertical lines x = a z with a outside the
    ground field (x^2 + z^2, say) is caught: its lines do not lift, so it
    is rejected as IrrationalSingularLocus, not ReducibleSuspected.
    """
    if not isinstance(fld, (RationalField, PrimeField)):
        raise InvalidInput(f"curves are supported over Q or F_p, not {fld}")
    if not isinstance(f, MPoly) or f.nvars != 3:
        raise InvalidInput("curve must be a polynomial in x, y, z")
    f = f.map_coeffs(fld.coerce)
    if not f:
        raise InvalidInput("curve polynomial is zero")
    if not f.is_homogeneous():
        raise InvalidInput("curve polynomial is not homogeneous")
    d = f.total_degree()
    if d < 3:
        raise GenusTooSmall(f"degree {d} < 3 cannot have genus >= 3")
    if len(f.terms) == 1:
        raise ReducibleSuspected("monomial input is a product of lines")
    if any(f.degree_in(v) == 0 for v in range(3)):
        raise ReducibleSuspected("a binary form of degree >= 3 is reducible")
    if isinstance(fld, PrimeField) and fld.p <= 4 * d * d:
        raise CurveUnsupported("prime field too small for this degree")

    sings, residual = singular_locus(f, fld)
    if residual > 0:
        raise IrrationalSingularLocus(
            f"singular locus has a non-rational residual of degree {residual}")
    for s in sings:
        if s.multiplicity < 2:
            raise InternalInvariantError("a smooth point was reported singular")
        if not s.ordinary:
            raise NonOrdinarySingularity(
                f"tangent cone at ({':'.join(str(c) for c in s.coords)}) has a repeated factor")

    if declared_sings is not None:
        declared = {(normalize_point(c, fld), int(m)) for c, m in declared_sings}
        found = {(s.coords, s.multiplicity) for s in sings}
        declared_keys = {(tuple(str(x) for x in c), m) for c, m in declared}
        found_keys = {(tuple(str(x) for x in c), m) for c, m in found}
        if declared_keys != found_keys:
            raise InvalidInput(
                f"declared singular points {sorted(declared_keys)} do not match "
                f"the discovered ones {sorted(found_keys)}")

    try:
        g = genus(d, [s.multiplicity for s in sings])
    except InvalidInput as e:
        # d >= 3 and every multiplicity >= 2 here, so the discovered points
        # drop the genus below 0, which no irreducible curve allows
        raise ReducibleSuspected(
            "the singular points found give a negative genus") from e
    if g < 3:
        raise GenusTooSmall(f"genus {g} < 3")

    bp = None
    if base_point is not None:
        bp = normalize_point(base_point, fld)
        if fld.coerce(f.evaluate(list(bp))):
            raise PointNotOnCurve(f"({':'.join(str(c) for c in bp)}) is not on the curve")
        if all(not fld.coerce(f.derivative(i).evaluate(list(bp))) for i in range(3)):
            raise InvalidInput("the marked base point must be a smooth point")

    return PlaneCurve(f=f, degree=d, sings=tuple(sings), genus=g, field=fld,
                      base_point=bp, validated=True)


# --- generators -----------------------------------------------------------------

# Candidates each generator draws before it raises ``GenerationFailed``.
PROJECTION_TRIES = 50
METHOD1_TRIES = 50
SINGULAR_MODEL_TRIES = 200


def _first_valid(tries, draw, base_point, wanted, provenance, failure):
    """The first of ``tries`` candidates ``draw()`` that is not None,
    validates over Q with ``base_point`` and is a curve ``wanted`` takes,
    with ``provenance`` and its attempt number recorded;
    ``GenerationFailed(failure)`` when there is none."""
    for attempt in range(1, tries + 1):
        f = draw()
        if f is None:
            continue
        try:
            curve = validate_curve(f, base_point=base_point, fld=QQ)
        except UnsupportedInput:
            continue
        if wanted(curve):
            curve.provenance = {**provenance, "attempts": attempt}
            return curve
    raise GenerationFailed(failure)


def _rand_coeff(rng, height):
    """A uniform integer of at most ``height`` bits; every generator draws
    its coefficients here."""
    if height < 1:
        raise InvalidInput(f"coefficient height must be at least 1, got {height}")
    bound = (1 << height) - 1
    return rng.randint(-bound, bound)


def gen_trigonal_projection_candidate(d, coeff_height, rng):
    """Random degree-d form with z-exponent at most 3 everywhere, so the
    point (0:0:1) has multiplicity d-3 and projecting from it is 3:1."""
    terms = {}
    for i in range(d + 1):
        for j in range(d + 1 - i):
            k = d - i - j
            if k <= 3:
                c = _rand_coeff(rng, coeff_height)
                if c:
                    terms[(i, j, k)] = rat(c)
    return MPoly(3, terms)


def gen_trigonal_projection(d, coeff_height=5, seed=0):
    """Validated trigonal curve of degree d with an ordinary multiplicity
    (d-3) point at (0:0:1); genus 2d-5.  For d=4 the point is smooth and is
    recorded as the marked base point."""
    if d < 4:
        raise InvalidInput("projection generator needs degree >= 4")
    rng = derived_rng(seed, f"projection:{d}:{coeff_height}")
    m = d - 3
    expected = [] if d == 4 else [((rat(0), rat(0), rat(1)), m)]

    def draw():
        f = gen_trigonal_projection_candidate(d, coeff_height, rng)
        cone = [int(f.terms.get((i, m - i, 3), 0)) for i in range(m + 1)]
        return f if any(cone) and binary_form_squarefree(cone, zz_gcd) else None

    return _first_valid(
        PROJECTION_TRIES, draw, (0, 0, 1) if d == 4 else None,
        lambda c: [(s.coords, s.multiplicity) for s in c.sings] == expected
        and c.genus == 2 * d - 5,
        {"generator": "projection", "d": d, "height": coeff_height, "seed": seed},
        f"no valid projection curve of degree {d} within {PROJECTION_TRIES} tries")


def gen_method1_candidate(deg_x, coeff_height, rng):
    """Random affine polynomial with y-degree exactly 3 and x-degree exactly
    deg_x, homogenized."""
    terms = {}
    for i in range(deg_x + 1):
        for j in range(4):
            c = _rand_coeff(rng, coeff_height)
            if c:
                terms[(i, j)] = c
    while not terms.get((deg_x, 3)):
        c = _rand_coeff(rng, coeff_height)
        if c:
            terms[(deg_x, 3)] = c
    d = deg_x + 3
    return MPoly(3, {(i, j, d - i - j): rat(c) for (i, j), c in terms.items()})


def gen_method1(deg_x, coeff_height=5, seed=0):
    """Validated curve with deg_y = 3 whose projection (x:y:z) -> (x:z) is
    3:1; accepted samples have genus 2(deg_x - 1)."""
    if deg_x < 2:
        raise InvalidInput("method-1 generator needs deg_x >= 2")
    rng = derived_rng(seed, f"m1:{deg_x}:{coeff_height}")
    return _first_valid(
        METHOD1_TRIES, lambda: gen_method1_candidate(deg_x, coeff_height, rng), None,
        lambda c: c.genus == 2 * (deg_x - 1),
        {"generator": "m1", "deg_x": deg_x, "height": coeff_height, "seed": seed},
        f"no valid method-1 curve with deg_x={deg_x} within {METHOD1_TRIES} tries")


def gen_singular_model(d, assigned, coeff_height=3, seed=0):
    """Random degree-d curve with exactly the assigned ordinary singular
    points: ``assigned`` is a list of ((a, b, c), multiplicity) pairs.  The
    candidates are the kernel of the ``taylor_rows`` of degree < m at each
    assigned m-fold point."""
    pts = [(normalize_point(coords, QQ), m) for coords, m in assigned]
    for pt, m in pts:
        if m < 2:
            raise InvalidInput(f"an assigned singular point needs multiplicity "
                               f"at least 2, got {m}")
    if len({pt for pt, _ in pts}) < len(pts):
        raise InvalidInput("a point is assigned twice")
    # an accepted curve has exactly the assigned points, so this is its
    # genus, and validation rejects every curve of genus < 3
    g = (d - 1) * (d - 2) // 2 - sum(m * (m - 1) // 2 for _, m in pts)
    if g < 3:
        raise GenerationFailed(f"the assigned singularities give genus {g} < 3")
    # Bezout: a line through points whose multiplicities sum past d is a
    # component of every curve with them, and validation rejects those
    for (a, _), (b, _) in combinations(pts, 2):
        line = (a[1] * b[2] - a[2] * b[1], a[2] * b[0] - a[0] * b[2],
                a[0] * b[1] - a[1] * b[0])
        on = sum(m for pt, m in pts if not sum(l * x for l, x in zip(line, pt)))
        if on > d:
            raise GenerationFailed(
                f"assigned points on one line have multiplicities summing to "
                f"{on} > {d}, so the line is a component")
    from .linalg import kernel_basis
    monos = [(i, j, d - i - j) for i in range(d + 1) for j in range(d + 1 - i)]
    # conditions: all Taylor pieces of degree < m vanish at each point
    # (a zero row, when no point is assigned, imposes no condition)
    rows = [row for pt, m in pts for k in range(m) for row in taylor_rows(monos, pt, k)]
    kern = kernel_basis(rows or [[0] * len(monos)])
    if not kern:
        raise GenerationFailed("no curve satisfies the assigned singularities")
    rng = derived_rng(seed, f"singmodel:{d}:{assigned!r}:{coeff_height}")

    def draw():
        # the kernel vectors are independent, so only an all-zero draw gives 0
        combo = [_rand_coeff(rng, coeff_height) for _ in kern]
        coeffs = (sum(c * v[i] for c, v in zip(combo, kern)) for i in range(len(monos)))
        return MPoly(3, {mono: rat(c) if isinstance(c, int) else c
                         for mono, c in zip(monos, coeffs) if c}) or None

    return _first_valid(
        SINGULAR_MODEL_TRIES, draw, None,
        lambda c: {(s.coords, s.multiplicity) for s in c.sings} == set(pts),
        {"generator": "singular_model", "d": d, "assigned": assigned,
         "height": coeff_height, "seed": seed},
        "no valid curve with the assigned singularities")


# --- curve file format ------------------------------------------------------------


def parse_point(text, lineno=None):
    """A point a:b:c, parentheses optional; each coordinate an integer or a
    fraction n/d with d nonzero."""
    text = text.strip()
    if text.startswith("(") and text.endswith(")"):
        text = text[1:-1]
    parts = text.split(":")
    if len(parts) != 3:
        raise ParseError(f"a point needs three coordinates, got {text!r}", lineno)
    vals = []
    for part in parts:
        part = part.strip()
        num, slash, den = part.partition("/")
        try:
            vals.append(rat(int(num), int(den) if slash else 1))
        except (ValueError, ZeroDivisionError):
            raise ParseError(f"bad coordinate {part!r}", lineno) from None
    return tuple(vals)


def parse_curve_file(text):
    """Parse the line-oriented curve format; returns a dict with keys
    f, sings, point, field.  Only "sing" lines may repeat."""
    f = None
    sings = []
    point = None
    fld = QQ
    seen = set()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ParseError("expected 'key = value'", lineno)
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if key in seen:
            raise ParseError(f"a second {key!r} line", lineno)
        if key != "sing":
            seen.add(key)
        if key == "f":
            try:
                f = parse_poly(value)
            except InvalidInput as e:
                raise ParseError(f"bad polynomial: {e}", lineno)
        elif key == "sing":
            if " mult " not in value:
                raise ParseError("expected 'sing = (a:b:c) mult m'", lineno)
            ptext, _, mtext = value.partition(" mult ")
            coords = parse_point(ptext, lineno)
            try:
                m = int(mtext.strip())
            except ValueError:
                raise ParseError(f"bad multiplicity {mtext!r}", lineno)
            sings.append((coords, m))
        elif key == "point":
            point = parse_point(value, lineno)
        elif key == "field":
            if value == "Q":
                fld = QQ
            elif value.startswith("Fp"):
                try:
                    fld = PrimeField(int(value[2:].strip()))
                except (ValueError, InvalidInput) as e:
                    raise ParseError(f"bad prime field: {e}", lineno)
            else:
                raise ParseError(f"unknown field {value!r}", lineno)
        else:
            raise ParseError(f"unknown key {key!r}", lineno)
    if f is None:
        raise ParseError("missing 'f = <polynomial>' line", 0)
    return {"f": f, "sings": sings, "point": point, "field": fld}


def write_curve_file(curve, comments=()):
    lines = [f"# {c}" for c in comments]
    if curve.provenance:
        prov = curve.provenance
        lines.append(f"# generator = {prov.get('generator')}")
        lines.append(f"# seed = {prov.get('seed')}")
        lines.append(f"# attempts = {prov.get('attempts')}")
    lines.append(f"# genus = {curve.genus}")
    lines.append(f"f = {poly_str(curve.f)}")
    for s in curve.sings:
        coords = ":".join(str(c) for c in s.coords)
        lines.append(f"sing = ({coords}) mult {s.multiplicity}")
    if curve.base_point is not None:
        coords = ":".join(str(c) for c in curve.base_point)
        lines.append(f"point = ({coords})")
    lines.append(f"field = {curve.field.name}")
    return "\n".join(lines) + "\n"
