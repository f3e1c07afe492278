"""Modular helpers, the package's one resultant engine and its one
elimination engine: the singular-locus scan, the fiber-degree check, the
certified kernels of the stabilizer algebra and the sparse echelon form
``FpEchelon``.

Polynomials mod p are plain int lists, lowest degree first, and so are the
polynomials over Z of the exact half of the scan over Q: ``zz_gcd`` and
``zz_squarefree`` take their gcd and square-free part fraction-free, by
primitive pseudo-remainders.  The scan and
the fiber check reduce exact forms, read at z = 1, with
``fp_bivariate_table`` and eliminate a variable with
``fp_resultant_keepvar``.  It evaluates at the consecutive nodes 0, 1, ...,
runs the Euclidean resultants of all nodes in lockstep with one batched
inverse per remainder step, and interpolates by forward differences.
``fp_roots`` solves a quadratic by ``fp_sqrt`` (Tonelli-Shanks) and splits a
larger polynomial by Cantor-Zassenhaus: the power x^((p-1)/2) parts its
linear factors by quadratic character, and the powers at shifts far apart
split what is left down to quadratics.  ``fp_powmod_linear`` squares by one
product of packed big integers.  ``rational_roots``, the scan's one root
finder over Q, lifts the roots mod a walk prime p-adically and checks each
exactly.  ``certified_kernel`` solves a linear system mod p with
``FpEchelon`` and lifts the kernel with ``rational_reconstruct`` and CRT
(``_crt_vectors``).  ``FpEchelon`` stores sparse ``{column: value}`` rows,
since the systems here have a handful of nonzeros per row.  Its modulus is
the characteristic of the ground field: mod q over F_q, and with modulus 0
exactly, on primitive integer rows over Q and on ``QuadExt`` rows over
Q(sqrt delta).  Every kernel, rank, span, membership, solution and inverse
over the ground field is taken on it, kernels of dense rows through
``linalg.kernel_basis``.  The primes come from one fixed deterministic
walk, so runs are reproducible: the scan, its root finder, the certified
kernels and the fiber check walk down from 2^30, and the walk is kept as it
grows.  The scan only discovers candidates mod p; every point it reports is
verified exactly over the ground field by the caller.
The fiber check is Monte Carlo in its prime and records the prime of each
draw.  A certified kernel is exact: every lifted vector is verified over
the ground field, and the nullity mod p bounds the true nullity from above.
The nullity of the rows reduced so far bounds it too, so over Q the lift is
tried whenever the rank mod p has not grown for as many rows as there are
unknowns, and an accepted try ends the elimination before the rows run out.
"""

from bisect import insort
from itertools import islice
from math import gcd, isqrt, lcm
from operator import attrgetter

from .errors import (CurveUnsupported, InternalInvariantError, InvalidInput,
                     LiftingFailed)
from .intutil import is_prime
from .scalars import QQ, PrimeField, QuadExt, is_rational, rat, sdiv, sinv

_DENOMINATOR = attrgetter("denominator")


# The primes walked so far from each bound, largest first.
_PRIME_WALKS = {}


def primes_below(bound):
    """Odd primes below ``bound``, largest first.  Each bound's walk is kept
    as it grows, so a later walk from the same bound reads its head instead
    of testing it again."""
    walk = _PRIME_WALKS.setdefault(bound, [])
    i = 0
    while True:
        if i == len(walk):
            n = walk[-1] - 2 if walk else (bound - 1 if bound % 2 == 0 else bound - 2)
            while n > 2 and not is_prime(n):
                n -= 2
            if n <= 2:
                return
            walk.append(n)
        yield walk[i]
        i += 1


# Start of the package's one prime walk: 2^30, so that every residue mod a
# walk prime is one 30-bit digit of a CPython int and every product of two
# is two.  The singular scan, its root finder, the certified kernels and the
# fiber check all take primes from its head.  Rational reconstruction mod one
# walk prime p reaches numerators and denominators up to recon_bound(p), about
# 2^14.5; past that the scan and the root finder lift p-adically and the
# certified kernels combine primes by CRT.
PRIME_WALK_START = 1 << 30


# --- F_p[x] as int lists -----------------------------------------------------

def fp_trim(a):
    while a and a[-1] == 0:
        a.pop()
    return a


def fp_sub(a, b, p):
    out = list(a) + [0] * max(0, len(b) - len(a))
    for i, c in enumerate(b):
        out[i] = (out[i] - c) % p
    return fp_trim(out)


def fp_mul(a, b, p):
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    nb = len(b)
    for i, x in enumerate(a):
        if x:
            out[i:i + nb] = [c + x * y for c, y in zip(out[i:i + nb], b)]
    return fp_trim([c % p for c in out])


def fp_divmod(a, b, p):
    if not b:
        raise ZeroDivisionError("mod-p division by zero polynomial")
    r = list(a)
    d = len(b) - 1
    inv = pow(b[-1], -1, p)
    q = [0] * max(0, len(r) - d)
    for pos in range(len(q) - 1, -1, -1):
        f = q[pos] = r[pos + d] % p * inv % p
        if f:
            r[pos:pos + d] = [c - f * y for c, y in zip(r[pos:pos + d], b)]
    return fp_trim(q), fp_trim([c % p for c in r[:d]])


def fp_monic(a, p):
    if not a:
        return a
    inv = pow(a[-1], -1, p)
    return [x * inv % p for x in a]


def fp_gcd(a, b, p):
    a, b = list(a), list(b)
    while b:
        a, b = b, fp_divmod(a, b, p)[1]
    return fp_monic(a, p)


def fp_derivative(a, p):
    return fp_trim([i * c % p for i, c in enumerate(a)][1:])


def fp_squarefree(a, p):
    """Square-free part of a mod p (p larger than the degree)."""
    if not a:
        return a
    d = fp_derivative(a, p)
    if not d:
        return [1]
    g = fp_gcd(a, d, p)
    if len(g) == 1:
        return fp_monic(a, p)
    return fp_monic(fp_divmod(a, g, p)[0], p)


def _zz_primitive(a):
    """a over its content, with a positive leading coefficient."""
    c = gcd(*a)
    if a[-1] < 0:
        c = -c
    return [x // c for x in a] if c != 1 else a


def _zz_remainder(a, b):
    """An integer multiple of the remainder of a by b over Q: each step
    scales the rest by lc(b) over its gcd with the top coefficient, so that
    the top cancels on integers (a pseudo-remainder)."""
    r = list(a)
    d = len(b) - 1
    lead = b[-1]
    for pos in range(len(r) - 1 - d, -1, -1):
        top = r.pop()
        if top:
            g = gcd(lead, top)
            s, t = lead // g, top // g
            if s != 1:
                r = [s * x for x in r]
            r[pos:] = [x - t * y for x, y in zip(r[pos:], b)]
    return fp_trim(r)


def zz_gcd(a, b):
    """The primitive gcd, with positive leading coefficient, of two int
    lists over Z (lowest degree first, [] for zero), by primitive
    pseudo-remainder sequences (Collins, J. ACM 14, 1967; Brown, J. ACM 18,
    1971): [1] when they are coprime over Q."""
    while b:
        b = _zz_primitive(b)
        a, b = b, _zz_remainder(a, b)
    return _zz_primitive(a) if a else a


def zz_squarefree(a):
    """The primitive square-free part over Z of the int list a: a over its
    gcd with a', divided exactly (Gauss's lemma keeps it integral)."""
    if not a:
        return a
    g = zz_gcd(a, [i * c for i, c in enumerate(a)][1:])
    a = _zz_primitive(a)
    if len(g) == 1:
        return a
    d, lead = len(g) - 1, g[-1]
    r, q = list(a), [0] * (len(a) - d)
    for pos in range(len(q) - 1, -1, -1):
        f = q[pos] = r.pop() // lead
        r[pos:] = [x - f * y for x, y in zip(r[pos:], g)]
    return q


def fp_eval(a, x, p):
    total = 0
    for c in reversed(a):
        total = (total * x + c) % p
    return total


def _pack(r, w):
    """The integer r(2^w) of the coefficient list r."""
    x = 0
    for c in reversed(r):
        x = x << w | c
    return x


def _unpack(x, n, w):
    """The n coefficients of x in base 2^w, lowest first."""
    mask = (1 << w) - 1
    return [x >> w * i & mask for i in range(n)]


def fp_powmod_linear(s, e, g, p):
    """(x + s)^e modulo the monic polynomial g, coefficients mod p.  The
    exponent is read from its top bit down.  Each squaring is one product of
    big integers: the remainder r, of degree below d = deg g, is packed into
    r(2^w), with w bits per coefficient enough for the square's digits
    (Kronecker substitution; Harvey, J. Symb. Comput. 44, 2009), and the
    digits of degree d + j in the square are folded back with the packed
    x^(d+j) mod g, computed beforehand.  A one bit multiplies by the linear
    base: a shift, a scaled add and one reduction step."""
    d = len(g) - 1
    w = ((2 * d - 1) * (p - 1) ** 2).bit_length()
    table, t = [], [(-c) % p for c in g[:d]]       # x^d mod g, then x^(d+1), ...
    for _ in range(d - 1):
        table.append(_pack(t, w))
        t = [(u - t[-1] * c) % p for u, c in zip([0] + t[:-1], g)]
    low = (1 << w * d) - 1
    r = [1] + [0] * (d - 1)
    for bit in bin(e)[2:]:
        sq = _pack(r, w) ** 2
        acc = sq & low
        for h, x in zip(_unpack(sq >> w * d, d - 1, w), table):
            acc += h % p * x
        r = [c % p for c in _unpack(acc, d, w)]
        if bit == "1":
            top = r[-1]
            r = [(u + s * v - top * c) % p for u, v, c in zip([0] + r[:-1], r, g)]
    return fp_trim(r)


def fp_sqrt(a, p):
    """The smaller square root of a mod the prime p, or None when a is not a
    square: Tonelli-Shanks, with the nonresidue taken by trial from 2 up."""
    a %= p
    if pow(a, (p - 1) // 2, p) > 1:
        return None
    q, e = p - 1, 0
    while not q & 1:
        q, e = q >> 1, e + 1
    r, t = pow(a, (q + 1) // 2, p), pow(a, q, p)
    if t > 1:
        z = 2
        while pow(z, (p - 1) // 2, p) == 1:
            z += 1
        c = pow(z, q, p)
        while t != 1:
            i, u = 0, t
            while u != 1:
                u, i = u * u % p, i + 1
            b = pow(c, 1 << (e - i - 1), p)
            e, c, t, r = i, b * b % p, t * b * b % p, r * b % p
    return min(r, p - r)


# Shifts tried by the root splitting before it gives up.
ROOT_SPLIT_TRIES = 64

# Step of the splitting shifts s_k = k * ROOT_SHIFT_STEP mod p: a prime just
# below 2^64 / phi, so that the shifts lie far apart (Knuth's multiplicative
# hashing), unlike s = 1, 2, 3, ..., which on small consecutive roots r give
# each try nearly the values r + s of the last.
ROOT_SHIFT_STEP = 0x9E3779B97F4A7BB9


def fp_roots(a, p):
    """Distinct roots of a in F_p, p odd, ascending.  A quadratic is solved
    by the formula with ``fp_sqrt``, and a linear piece read off.  Above
    degree 2, h = x^((p-1)/2) mod a parts the distinct linear factors of a
    into gcd(a, x), gcd(a, h - 1) and gcd(a, h + 1): the root 0, the nonzero
    squares and the non-squares.  A part of degree 3 or more is split by
    gcd(g, (x + s)^((p-1)/2) - 1) at the shifts s_k of ``ROOT_SHIFT_STEP``
    (Cantor-Zassenhaus, Math. Comp. 36, 1981) until no piece is larger than
    a quadratic."""
    a = fp_monic(list(a), p)
    if not a:
        raise InvalidInput("roots of the zero polynomial")
    half = (p - 1) // 2
    stack = [a]
    if len(a) > 3:
        h = fp_powmod_linear(0, half, a, p)
        stack = [fp_gcd(a, fp_sub(h, [1], p), p), fp_gcd(a, fp_sub(h, [p - 1], p), p)]
        if not a[0]:
            stack.append([0, 1])
    roots, tries = [], 0
    while stack:
        g = stack.pop()
        if len(g) == 2:
            roots.append((-g[0]) % p)
        elif len(g) == 3:       # (-b +- sqrt(b^2 - 4c)) / 2, with 1/2 = half + 1
            r = fp_sqrt(g[1] * g[1] - 4 * g[0], p)
            if r is not None:
                roots += {(r - g[1]) * (half + 1) % p, (-r - g[1]) * (half + 1) % p}
        elif len(g) > 3:
            tries += 1
            if tries > ROOT_SPLIT_TRIES:
                raise InvalidInput("root splitting did not converge")
            h = fp_powmod_linear(tries * ROOT_SHIFT_STEP % p, half, g, p)
            d = fp_gcd(g, fp_sub(h, [1], p), p)
            stack += [d, fp_divmod(g, d, p)[0]] if 0 < len(d) - 1 < len(g) - 1 else [g]
    return sorted(roots)


def recon_bound(m):
    """Largest B with 2*B^2 < m: numerators and denominators up to B are
    recovered uniquely from their residue mod m (Wang)."""
    return isqrt((m - 1) // 2)


def rational_reconstruct(r, m):
    """num/den == r (mod m) with |num|, den <= recon_bound(m), or None."""
    bound = recon_bound(m)
    r0, r1 = m, r % m
    t0, t1 = 0, 1
    while r1 > bound:
        q = r0 // r1
        r0, r1 = r1, r0 - q * r1
        t0, t1 = t1, t0 - q * t1
    if t1 == 0 or abs(t1) > bound:
        return None
    num, den = (r1, t1) if t1 > 0 else (-r1, -t1)
    if gcd(num, den) != 1:
        return None
    return rat(num, den)


# Walk primes tried for one that keeps a polynomial square-free before
# ``rational_roots`` gives up.
ROOT_PRIMES = 16


def rational_roots(coeffs):
    """Distinct rational roots, ascending, of the square-free polynomial
    over Q with these coefficients (lowest degree first), by p-adic lifting
    (Loos, SIAM J. Comput. 12, 1983).  Denominators and content are cleared
    and the factor x split off.  The roots of the rest mod the first walk
    prime p that divides neither its leading coefficient nor its
    discriminant are lifted by Newton's iteration mod p^(2^k), until
    ``rational_reconstruct`` recovers every a/b with |a| <= |c_0| and
    b <= |c_n|, the extreme coefficients of the rest: every rational root
    is such an a/b.  A lift is kept only if it is an exact root.  CurveUnsupported when none of the first ROOT_PRIMES
    primes is admissible, as for a repeated root, where every prime divides
    the discriminant."""
    if not any(coeffs):
        raise InvalidInput("rational roots of the zero polynomial")
    k = next(i for i, c in enumerate(coeffs) if c)
    den = lcm(*map(_DENOMINATOR, coeffs))
    ints = [c.numerator * (den // c.denominator) for c in coeffs[k:]]
    content = gcd(*ints)
    ints = [c // content for c in ints]
    roots = [rat(0)] if k else []
    n = len(ints) - 1
    if not n:
        return roots
    for p in islice(primes_below(PRIME_WALK_START), ROOT_PRIMES):
        a = [c % p for c in ints]
        if a[-1] and len(fp_gcd(a, fp_derivative(a, p), p)) == 1:
            break
    else:
        raise CurveUnsupported(
            f"no prime among the first {ROOT_PRIMES} keeps the polynomial square-free")
    deriv = [i * c for i, c in enumerate(ints)][1:]
    bound = max(abs(ints[0]), abs(ints[-1]))
    lifts, m = fp_roots(a, p), p
    while recon_bound(m) < bound:
        m *= m
        lifts = [(r - fp_eval(ints, r, m) * pow(fp_eval(deriv, r, m), -1, m)) % m
                 for r in lifts]
    for r in lifts:
        q = rational_reconstruct(r, m)
        if q is not None and not sum(c * q.numerator ** i * q.denominator ** (n - i)
                                     for i, c in enumerate(ints)):
            roots.append(q)
    return sorted(roots)


# --- reductions of exact polynomials ----------------------------------------

def fp_reduce(c, p, root=None):
    """A scalar of Q or Q(sqrt delta), or a residue, reduced mod p;
    sqrt(delta) maps to ``root``.  None when a denominator vanishes mod p."""
    if type(c) is int:
        return c % p
    if isinstance(c, QuadExt):
        a = fp_reduce(c.a, p)
        if not c.b or a is None:
            return a
        if root is None:
            raise InvalidInput("reducing sqrt(delta) mod p needs a root of delta")
        b = fp_reduce(c.b, p)
        return None if b is None else (a + b * root) % p
    if not is_rational(c):
        raise InvalidInput(f"cannot reduce {c!r} mod p")
    num, den = c.numerator, c.denominator
    if den % p == 0:
        return None
    return num * pow(den, -1, p) % p


def fp_bivariate_table(F, p, root=None):
    """Coefficient lists of a bivariate F, or of F(x, y, 1) for a ternary
    form F, over the y-power, one per power up to its y-degree; each entry
    is an int list in x mod p.  Q(sqrt delta) coefficients need ``root``, a
    square root of delta mod p.  None when a denominator vanishes mod p."""
    x_deg = F.degree_in(0)
    table = [[0] * (x_deg + 1) for _ in range(F.degree_in(1) + 1)]
    for (i, j, *_), c in F.terms.items():
        v = fp_reduce(c, p, root)
        if v is None:
            return None
        table[j][i] = v
    return [fp_trim(row) for row in table]


# --- resultants and interpolation -------------------------------------------

def fp_resultant(a, b, p):
    """Res(a, b) mod p for int lists, b with a nonzero leading coefficient,
    by the Euclidean remainder sequence in O(deg a * deg b):
    Res(a, b) = (-1)^(mn) lc(b)^(m - deg r) Res(b, r) with r = a mod b.
    The degree m of a is its formal one, len(a) - 1, whose leading
    coefficient may vanish: Res(b, a) = lc(b)^m times the product of a over
    the roots of b holds for a of degree below m too."""
    m, n = len(a) - 1, len(b) - 1
    if m < 0 or n < 0:
        raise InvalidInput("resultant of a zero polynomial")
    a, b = list(a), list(b)
    res = 1
    while n > 0:
        inv = pow(b[-1], -1, p)
        for top in range(m, n - 1, -1):
            f = a[top] * inv % p
            if f:
                s = top - n
                for i in range(n):
                    a[s + i] = (a[s + i] - f * b[i]) % p
        del a[n:]
        fp_trim(a)
        if not a:
            return 0
        k = len(a) - 1
        if m & n & 1:
            res = -res
        res = res * pow(b[-1], m - k, p) % p
        a, b, m, n = b, a, n, k
    return res * pow(b[0], m, p) % p


def fp_interpolate(ys, p):
    """The polynomial of degree below len(ys) that takes the value ys[x] at
    x = 0, 1, ...: Newton's forward form, sum_k D^k y_0 / k! * x(x-1)...(x-k+1).
    The differences D^k y_0 take subtractions only, and 1/k! one inverse for
    all k; p must exceed len(ys) - 1.  Values are reduced mod p only where
    they would otherwise keep growing."""
    c = list(ys)
    n = len(c)
    for k in range(1, n):
        c[k:] = [u - v for u, v in zip(c[k:], c[k - 1:])]
    fact = 1
    for k in range(2, n):
        fact = fact * k % p
    inv = pow(fact, -1, p)
    for k in range(n - 1, 1, -1):
        c[k] = c[k] * inv % p
        inv = inv * k % p
    poly = c[-1:]
    for i in range(n - 2, -1, -1):
        # poly <- poly * (x - i) + c[i], reduced every eighth step
        poly = [u - i * v for u, v in zip([c[i]] + poly, poly + [0])]
        if i % 8 == 0:
            poly = [u % p for u in poly]
    return fp_trim(poly)


def _batch_inverse(xs, p):
    """Inverses mod p of the nonzero xs with one ``pow``: Montgomery's
    simultaneous inversion (Math. Comp. 48, 1987)."""
    prefix = [1]
    for x in xs:
        prefix.append(prefix[-1] * x % p)
    inv = pow(prefix[-1], -1, p)
    out = [0] * len(xs)
    for i in range(len(xs) - 1, -1, -1):
        out[i] = prefix[i] * inv % p
        inv = inv * xs[i] % p
    return out


def _lockstep_resultants(a, b, p):
    """Res(a, b) mod p under the formal degrees m = len(a) - 1 and
    n = len(b) - 1 at every point, for coefficient columns: a[k][x] is the
    coefficient of degree k at point x, and likewise b.

    The Euclidean formula of ``fp_resultant`` needs only the divisor's
    leading coefficient to survive.  At a point where b_n vanishes,
    Res(a, b) = (-1)^(mn) Res(b, a) and a is the divisor, and where a_m
    vanishes too the value is 0.  The other points run the remainder
    sequence together, one step at a time, with their divisors' leading
    coefficients inverted in one batch.  After each step the remainders
    share the largest degree any of them has; a point whose remainder falls
    below it leaves the sequence and is finished by ``fp_resultant``."""
    m, n = len(a) - 1, len(b) - 1
    out = [0] * len(a[0])
    live = []
    for x, (u, v) in enumerate(zip(a[m], b[n])):
        if v:
            live.append(x)
        elif u:
            swapped = fp_resultant([c[x] for c in b], [c[x] for c in a], p)
            out[x] = -swapped % p if m & n & 1 else swapped
    if len(live) < len(out):
        a = [[c[x] for x in live] for c in a]
        b = [[c[x] for x in live] for c in b]
    res = [1] * len(live)
    while n > 0 and live:
        inv = _batch_inverse(b[n], p)
        for top in range(m, n - 1, -1):
            f = [u % p * v % p for u, v in zip(a[top], inv)]
            s = top - n
            for i in range(n):
                a[s + i] = [u - v * w for u, v, w in zip(a[s + i], f, b[i])]
        a = [[u % p for u in c] for c in a[:n]]
        k = len(a) - 1
        while k >= 0 and not any(a[k]):
            k -= 1
        sign = -1 if m & n & 1 else 1
        if k < 0 or not all(a[k]):
            keep = []
            for j, x in enumerate(live):
                if k >= 0 and a[k][j]:
                    keep.append(j)
                    continue
                r = fp_trim([c[j] for c in a])
                if r:
                    lead = pow(b[n][j], m - len(r) + 1, p)
                    out[x] = sign * res[j] * lead * fp_resultant([c[j] for c in b], r, p) % p
            live = [live[j] for j in keep]
            res = [res[j] for j in keep]
            a = [[c[j] for j in keep] for c in a[:k + 1]]
            b = [[c[j] for j in keep] for c in b]
        res = [sign * u * pow(v, m - k, p) % p for u, v in zip(res, b[n])]
        a, b, m, n = b, a[:k + 1], n, k
    if live:
        for x, u, v in zip(live, res, b[0]):
            out[x] = u * pow(v, m, p) % p
    return out


def _eval_nodes(c, npts, p):
    """Values of the int list c at x = 0, 1, ..., npts - 1, by Horner."""
    vals = [0] * npts
    for coef in reversed(c):
        vals = [v * x + coef for x, v in enumerate(vals)]
    return [v % p for v in vals]


def _x_degree(table):
    return max(max(len(row) for row in table) - 1, 0)


def _total_degree(table):
    """Total degree of a table whose row i is the coefficient of y^i."""
    return max(len(row) - 1 + i for i, row in enumerate(table) if row)


def fp_resultant_keepvar(a_coeffs, b_coeffs, p):
    """Resultant in the eliminated variable of two bivariate polynomials.

    a_coeffs/b_coeffs: lists over the eliminated-variable power, each entry
    an int list in the kept variable (mod p); their lengths fix the formal
    degrees m, n of the Sylvester layout.  Returns the resultant as an int
    list in the kept variable.

    A leading row that vanishes identically is peeled off first, by
    Res_{m,n} = (-1)^n b_n Res_{m-1,n} when a_m = 0 and
    Res_{m,n} = a_m Res_{m,n-1} when b_n = 0.  The rest has degree in the
    kept variable at most

        bound = min(n * X_a + m * X_b, n * D_a + m * D_b - m * n),

    where X is the largest kept-variable degree of a row and D the total
    degree of the table (the largest deg(row_i) + i).  The second term holds
    because entry (r, c) of the a-block of the Sylvester matrix has degree
    at most D_a - m + c - r (and likewise for b), and the sum over any
    permutation is n * D_a + m * D_b - m * n; for a monic in the eliminated
    variable (m = D_a) it is the Bezout number D_a * D_b.  The rest is
    evaluated under its formal degrees at the consecutive nodes
    x = 0, 1, ..., bound, where the specialized Sylvester determinant is its
    value.  The nodes run their Euclidean remainder sequences in lockstep,
    with one inverse per step for all of them (``_lockstep_resultants``),
    and ``fp_interpolate`` reads the result off the values by forward
    differences.  Raises CurveUnsupported when p is too small to supply the
    nodes.
    """
    a_coeffs = [fp_trim(list(row)) for row in a_coeffs]
    b_coeffs = [fp_trim(list(row)) for row in b_coeffs]
    m = len(a_coeffs) - 1
    n = len(b_coeffs) - 1
    if m <= 0 and n <= 0:
        raise InvalidInput("both inputs constant in the eliminated variable")
    scale = [1]
    while m > 0 and n > 0 and not (a_coeffs[m] and b_coeffs[n]):
        if a_coeffs[m]:
            scale = fp_mul(scale, a_coeffs[m], p)
            b_coeffs.pop()
            n -= 1
        elif b_coeffs[n]:
            lead = b_coeffs[n] if n % 2 == 0 else [(-c) % p for c in b_coeffs[n]]
            scale = fp_mul(scale, lead, p)
            a_coeffs.pop()
            m -= 1
        else:
            return []
    if m <= 0 or n <= 0:
        base, e = (a_coeffs, n) if m <= 0 else (b_coeffs, m)
        base = base[0] if base else []
        out = scale
        for _ in range(e):
            out = fp_mul(out, base, p)
        return out
    deg_bound = min(n * _x_degree(a_coeffs) + m * _x_degree(b_coeffs),
                    n * _total_degree(a_coeffs) + m * _total_degree(b_coeffs) - m * n)
    if p <= deg_bound:
        raise CurveUnsupported(
            f"modulus {p} is too small for {deg_bound + 1} evaluation points")
    ys = _lockstep_resultants([_eval_nodes(c, deg_bound + 1, p) for c in a_coeffs],
                              [_eval_nodes(c, deg_bound + 1, p) for c in b_coeffs], p)
    return fp_mul(scale, fp_interpolate(ys, p), p)


# --- linear algebra mod p ----------------------------------------------------

def clear_denominators(row):
    """The rational sparse row ``row`` times the lcm of its denominators, as
    Python ints (``int`` of each product, whatever integer type the parts
    of a rational have), and that lcm."""
    den = lcm(*map(_DENOMINATOR, row.values()))
    return {j: int(x.numerator * (den // x.denominator)) for j, x in row.items()}, den


def _divide_content(row):
    """Divide an integer row by the gcd of its entries, in place; returns
    that gcd (1 for an empty row)."""
    c = gcd(*row.values())
    if c > 1:
        for j in row:
            row[j] //= c
        return c
    return 1


def _cross_sub(row, other, lead):
    """row <- a*row - b*other in place, with other[lead] and row[lead] over
    their gcd as a and b, which clears column ``lead`` on integers; returns
    a."""
    a, b = other[lead], row[lead]
    g = gcd(a, b)
    a, b = a // g, b // g
    if a != 1:
        for j in row:
            row[j] *= a
    get = row.get
    for j, y in other.items():
        v = get(j, 0) - b * y
        if v:
            row[j] = v
        else:
            del row[j]
    return a


class FpEchelon:
    """Row echelon form, grown one row at a time: mod ``p``, or exactly when
    ``p`` is 0.  A caller passes its field's ``char``, so an F_q
    elimination is mod q: an exact echelon fed residues would eliminate
    over Q, since every int is rational.

    Rows are sparse ``{column: value}`` dicts that hold their nonzero entries
    only; ``add``, ``contains`` and ``residue`` also take dense lists.  The
    lowest column of a stored row is its pivot.  A new row is reduced only
    until its lowest column is not a pivot, so a stored row may keep entries
    at later pivot columns; ``reduced`` clears them.  The pivot columns of
    an echelon basis depend only on the row space, so they are the same
    whatever order the rows come in.

    Rows are stored in one of three ways:

    * mod p, as ints in [0, p) with pivot 1;
    * exactly, when the first nonzero row the echelon sees has every entry
      in Q (an int or a ``rat``), as integer rows: the denominators of a
      row are cleared once and it is kept primitive (its entries have gcd
      1) with a positive pivot, not normalized to 1.  A row with lead b at
      a stored row's pivot a is reduced as row <- (a/g)*row - (b/g)*other,
      g = gcd(a, b), and divided by its content: fraction-free elimination
      (Bareiss, Math. Comp. 22, 1968), with primitive rows in place of his
      exact division by the previous pivot.
      ``add``, ``contains`` and ``rank`` make no rational; ``residue``
      carries one rational scale and multiplies it out on return, and
      ``reduced`` and ``kernel`` divide only at the end, with ``sdiv``, so
      every value a caller reads equals that of the elimination with pivots
      1, an int where it is integral and a ``rat`` otherwise.  A row
      with an entry outside Q raises ``InternalInvariantError`` here;
    * exactly otherwise, for Q(sqrt delta) only (a ``QuadExt`` entry), with
      the pivot normalized to 1 by ``sinv``; rational entries are elements
      of that field.
    """

    def __init__(self, ncols, p=0):
        self.ncols = ncols
        self.p = p
        self.pivots = []        # increasing
        self.rows = {}          # pivot column -> row
        self.integral = None    # exactly: integer rows?  None until a row comes

    @property
    def rank(self):
        return len(self.pivots)

    def nnz(self):
        """Nonzero entries held by the stored rows."""
        return sum(map(len, self.rows.values()))

    def _sub(self, row, f, other):
        """row -= f * other, in place, for pivot-1 rows.  Exactly, the
        entries that vanish are dropped; mod p the entries are left
        unreduced, and ``_clean`` or the lead test of ``_reduce`` reduces
        them."""
        get = row.get
        if self.p:
            for j, y in other.items():
                row[j] = get(j, 0) - f * y
        else:
            for j, y in other.items():
                v = get(j, 0) - f * y
                if v:
                    row[j] = v
                else:
                    row.pop(j, None)

    def _clean(self, row):
        """``row`` with its entries reduced mod p and the zeros dropped."""
        p = self.p
        return {j: x % p for j, x in row.items() if x % p} if p else row

    def _reduce(self, row):
        """``row`` reduced against the stored rows until it is empty or its
        lowest column is not a pivot, as (rest, num, den): the residue is
        rest * num / den, and num = den = 1 unless the rows are integral.
        Mod p only the lowest entry of rest is reduced."""
        row = {j: x for j, x in (row.items() if isinstance(row, dict)
                                 else enumerate(row)) if x}
        p = self.p
        if not p and row:
            if self.integral is None:
                self.integral = all(map(is_rational, row.values()))
            if self.integral:
                return self._reduce_integral(row)
        while row:
            lead = min(row)
            f = row[lead] % p if p else row[lead]
            if not f:
                del row[lead]
                continue
            other = self.rows.get(lead)
            if other is None:
                break
            self._sub(row, f, other)
            row.pop(lead, None)
        return row, 1, 1

    def _reduce_integral(self, row):
        """``_reduce`` on integer rows: the denominators of ``row`` are
        cleared, and the rest is primitive."""
        den = 1
        for x in row.values():
            if type(x) is not int:
                try:
                    row, den = clear_denominators(row)
                except AttributeError:
                    raise InternalInvariantError(f"row {row!r} outside Q") from None
                break
        num = _divide_content(row)
        rows = self.rows
        while row:
            lead = min(row)
            other = rows.get(lead)
            if other is None:
                break
            den *= _cross_sub(row, other, lead)
            num *= _divide_content(row)
        return row, num, den

    def residue(self, row):
        """``row`` as a sparse row, reduced against the stored rows until it
        is empty or its lowest column is not a pivot; mod p only that lowest
        entry is reduced.  On integer rows an integral entry is an int."""
        rest, num, den = self._reduce(row)
        if num == den == 1:
            return rest
        return {j: sdiv(x * num, den) for j, x in rest.items()}

    def contains(self, row):
        return not self._reduce(row)[0]

    def add(self, row):
        """Reduce ``row`` against the stored rows and keep what is left when
        it is nonzero; returns True when the rank grew."""
        row = self._reduce(row)[0]
        if not row:
            return False
        lead = min(row)
        p = self.p
        if p:
            inv = pow(row[lead], -1, p)
            row = self._clean({j: x * inv for j, x in row.items()})
        elif self.integral:
            if row[lead] < 0:
                row = {j: -x for j, x in row.items()}
        else:
            inv = sinv(row[lead])
            row = {j: x * inv for j, x in row.items()}
        self.rows[lead] = row
        insort(self.pivots, lead)
        return True

    def reduced(self):
        """The stored rows in reduced echelon form with pivot 1, in pivot
        order.  On integer rows each entry is the stored one over the pivot
        by ``sdiv``: an int where the pivot divides it."""
        integral = self.integral
        done = {}
        for c in reversed(self.pivots):
            row = dict(self.rows[c])
            # the rows in done are 0 at every pivot but their own
            for c2 in [j for j in row if j != c and j in done]:
                if integral:
                    _cross_sub(row, done[c2], c2)
                else:
                    self._sub(row, row[c2], done[c2])
            if integral:
                _divide_content(row)
            done[c] = self._clean(row)
        if integral:
            return [{j: sdiv(x, done[c][c]) for j, x in done[c].items()}
                    for c in self.pivots]
        return [done[c] for c in self.pivots]

    def kernel(self):
        """Kernel basis as dense lists, read off the reduced rows: one vector
        per free column, 1 there and 0 at the other free columns."""
        p = self.p
        reduced = list(zip(self.pivots, self.reduced()))
        basis = []
        for f in range(self.ncols):
            if f in self.rows:
                continue
            v = [0] * self.ncols
            v[f] = 1
            for c, row in reduced:
                x = row.get(f)
                if x:
                    v[c] = (-x) % p if p else -x
            basis.append(v)
        return basis

    def reduced_kernel(self, width):
        """The span of the kernel vectors cut to their first ``width``
        entries, as its reduced rows: the canonical basis of that span.  The
        kernel lies over the field of the rows, so the span is taken the way
        the rows were, on integer rows when they are and with pivot 1
        otherwise, which is also the way for the identity kernel of an
        echelon that has seen no row."""
        span = FpEchelon(width, self.p)
        span.integral = bool(self.integral)
        for v in self.kernel():
            span.add(v[:width])
        return span.reduced()


# A certified kernel that needs more primes than this has entries far larger
# than any system here produces; it is reported as a failed lift.  32 walk
# primes of 30 bits give the CRT about 960 bits, so reconstruction reaches
# entries of about 480 bits.
KERNEL_PRIMES = 32


def certified_kernel(ncols, system, certify, fld=QQ, counters=None):
    """Basis over ``fld`` (Q or F_q) of the kernel of a linear system that is
    given through its reductions.

    ``system(p)`` returns the rows of the system mod p as sparse
    ``{column: int}`` dicts or int lists (any iterable, consumed lazily), or
    None when p is inadmissible.  Its kernel mod p must contain the
    reduction of every solution over ``fld`` whose denominators are prime to
    p.  ``certify(vectors)`` checks exactly over Q that every vector solves
    the system.

    The kernel mod p then has at least the true nullity.  Once the rank mod
    p is full the kernel is zero and the rest of the rows is skipped.  Over
    F_q every row is reduced and the kernel mod q, in residues, is the
    answer.  Over Q the kernel mod p, taken on the prime walk, is lifted
    entry by entry with ``rational_reconstruct``, combining by CRT the
    primes that share its pivot columns; a prime with a smaller nullity
    (or, at equal nullity, earlier pivots) starts the lift afresh, one with
    a larger one is skipped.  The lift is returned once ``certify`` accepts
    it: it is as many independent solutions (1 at its own free column, 0 at
    the others) as the nullity mod p, so it spans the kernel.

    Over Q the lift is also tried before the rows run out, each time
    ``ncols`` rows in a row leave the rank mod p where it was: the kernel of
    the rows reduced so far is lifted mod p alone and given to ``certify``.
    That kernel has at least the nullity of the whole system mod p, which
    has at least the true nullity, so an accepted try is the kernel, and it
    is the one the whole system mod p would lift to.  A refused try costs
    one lift and elimination goes on.

    ``counters``, when given, receives "eq_rows" (rows reduced mod the last
    prime before its kernel was taken, so fewer than the system has when a
    try is accepted early), "nullity" (of the kernel returned), "primes"
    ({"tried": ..., "used": ...}: every prime taken from the walk, and those
    whose residues make the result) and "stored_nnz" (the nonzeros the
    echelon mod the last prime holds when elimination stops).
    """
    if isinstance(fld, PrimeField):
        primes = [fld.p]
    elif fld == QQ:
        primes = islice(primes_below(PRIME_WALK_START), KERNEL_PRIMES)
    else:
        raise InvalidInput(f"certified kernels work over Q or F_q, not {fld}")
    tried, used = [], []
    best = modulus = residues = None     # the lift under way

    def done(result, used, ech, eq_rows):
        if counters is not None:
            counters.update(eq_rows=eq_rows, nullity=len(result),
                            primes={"tried": tried, "used": used},
                            stored_nnz=ech.nnz())
        return result

    for p in primes:
        tried.append(p)
        rows = system(p)
        if rows is None:
            continue
        ech, eq_rows, stall = FpEchelon(ncols, p), 0, 0
        for row in rows:
            eq_rows += 1
            if ech.add(row):
                if ech.rank == ncols:
                    break
                stall = 0
            elif fld == QQ and (stall := stall + 1) == ncols:
                stall = 0
                early = _reconstruct(ech.kernel(), p)
                if early is not None and certify(early):
                    return done(early, [p], ech, eq_rows)
        if ech.rank == ncols:
            result, used = [], [p]
        elif fld != QQ:
            result, used = ech.kernel(), [p]
        else:
            key = (ncols - ech.rank, ech.pivots)
            if best is None or key < best:
                best, modulus, residues, used = key, p, ech.kernel(), [p]
            elif key == best:
                modulus, residues = _crt_vectors(modulus, residues, p, ech.kernel())
                used = used + [p]
            else:
                continue
            result = _reconstruct(residues, modulus)
            if result is None or not certify(result):
                continue
        return done(result, used, ech, eq_rows)
    if fld != QQ:
        raise InvalidInput(f"the system does not reduce mod {fld.p}")
    raise LiftingFailed(f"no certified kernel after {len(tried)} primes")


def _reconstruct(residues, m):
    """The residue vectors mod m lifted entry by entry with
    ``rational_reconstruct``, or None at the first entry that fails.  A
    zero residue lifts to 0 without the call: most entries of a kernel
    vector are zero."""
    zero = rat(0)
    out = []
    for v in residues:
        w = []
        for x in v:
            r = rational_reconstruct(x, m) if x else zero
            if r is None:
                return None
            w.append(r)
        out.append(w)
    return out


def _crt_vectors(m, vecs, p, more):
    """(m*p, vectors): the residues ``vecs`` mod m and ``more`` mod p
    combined into residues mod m*p."""
    inv = pow(m, -1, p)
    return m * p, [[x + m * ((y - x) * inv % p) for x, y in zip(v, w)]
                for v, w in zip(vecs, more)]
