"""Integer helpers: primality, factorization, square-free split.

``factorize`` serves only ``squarefree_split``, which names Q(sqrt delta)
canonically; no step of curve validation factors an integer.

Deterministic: Miller-Rabin to the bases 2-41 is exact below psi_13, and a
strong Lucas test completes Baillie-PSW (Baillie and Wagstaff, Math. Comp.
35, 1980) above; perfect powers are split by exact roots, and Brent-Pollard
rho uses a fixed parameter sequence and gives up, with ``CurveUnsupported``,
after ``RHO_STEPS`` steps.
"""

import math
from itertools import count

from .errors import CurveUnsupported, InvalidInput

_SMALL_PRIMES = [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47]

# Miller-Rabin witnesses, deterministic below psi_13 = _MR_BOUND, the least
# strong pseudoprime to all of them.
_MR_WITNESSES = [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41]
_MR_BOUND = 3317044064679887385961981

# Steps of rho over all its seeds: a prime factor p takes about sqrt(p)
# steps, so the factors rho finds are up to about 2^38.
RHO_STEPS = 1 << 19


def is_prime(n):
    if n < 2:
        return False
    for p in _SMALL_PRIMES:
        if n % p == 0:
            return n == p
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in _MR_WITNESSES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return n < _MR_BOUND or _strong_lucas(n)


def _jacobi(a, n):
    """The Jacobi symbol (a/n) for odd n > 0."""
    a, out = a % n, 1
    while a:
        while a % 2 == 0:
            a //= 2
            out *= -1 if n % 8 in (3, 5) else 1
        out *= -1 if a % 4 == n % 4 == 3 else 1
        a, n = n % a, a
    return out if n == 1 else 0


def _strong_lucas(n):
    """Strong Lucas probable-prime test of an odd n with no prime factor
    below 53, with Selfridge's parameters: D the first of 5, -7, 9, -11, ...
    with (D/n) = -1, P = 1 and Q = (1 - D)/4."""
    if math.isqrt(n) ** 2 == n:
        return False        # no D has (D/n) = -1
    D = 5
    while (j := _jacobi(D, n)) == 1:
        D = -D - 2 if D > 0 else 2 - D
    # U_k, V_k and Q^k mod n along the bits of n + 1 = d * 2^s, d odd
    s = ((n + 1) & -(n + 1)).bit_length() - 1
    Q, half = (1 - D) // 4, (n + 1) // 2
    U, V, Qk = 1, 1, Q
    for bit in bin((n + 1) >> s)[3:]:
        U, V, Qk = U * V % n, (V * V - 2 * Qk) % n, Qk * Qk % n
        if bit == "1":
            U, V, Qk = (U + V) * half % n, (D * U + V) * half % n, Qk * Q % n
    found = U == 0
    for _ in range(s):
        found |= V == 0
        V, Qk = (V * V - 2 * Qk) % n, Qk * Qk % n
    return j == -1 and found


def _brent_rho(n):
    """A proper factor of the odd composite n, by Brent's cycle variant of
    Pollard rho with a deterministic seed sweep, within ``RHO_STEPS``
    steps."""
    steps = RHO_STEPS
    for c in count(1):
        y, m, g, r, q = 2, 128, 1, 1, 1
        x = ys = y
        while g == 1:
            steps -= 2 * r
            if steps < 0:
                raise CurveUnsupported(f"factorization failed for {n}")
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            k = 0
            while k < r and g == 1:
                ys = y
                for _ in range(min(m, r - k)):
                    y = (y * y + c) % n
                    q = q * abs(x - y) % n
                k += m
                g = math.gcd(q, n)
            r *= 2
        if g == n:
            g = 1
            while g == 1:
                ys = (ys * ys + c) % n
                g = math.gcd(abs(x - ys), n)
        if g != n:
            return g


def _perfect_power(n):
    """(r, k) with n = r^k and k > 1, or None, for n with no prime factor
    below 53 (so k < log_53 n); r is Newton's k-th root from above."""
    k = 2
    while 53 ** k <= n:
        r = 1 << -(-n.bit_length() // k)
        while (s := ((k - 1) * r + n // r ** (k - 1)) // k) < r:
            r = s
        if r ** k == n:
            return r, k
        k += 1
    return None


def factorize(n):
    """Return the prime factorization of |n| as a dict prime -> exponent."""
    n = abs(n)
    if n == 0:
        raise InvalidInput("cannot factor 0")
    out = {}
    for p in _SMALL_PRIMES:
        while n % p == 0:
            out[p] = out.get(p, 0) + 1
            n //= p
    stack = [n] if n > 1 else []
    while stack:
        m = stack.pop()
        if is_prime(m):
            out[m] = out.get(m, 0) + 1
            continue
        power = _perfect_power(m)
        if power is not None:
            stack += [power[0]] * power[1]
        else:
            d = _brent_rho(m)
            stack += [d, m // d]
    return out


_SPLITS = {}    # |n| -> (s, d) for every n split, and d -> (1, d)


def squarefree_split(n):
    """Write |n| = s^2 * d with d square-free; return (s, d).  Each split is
    kept with (1, d) for d, so Q(sqrt d), once named, is built unfactored."""
    n = abs(n)
    if n not in _SPLITS:
        fac = factorize(n).items()
        d = math.prod(p for p, e in fac if e % 2)
        _SPLITS[n], _SPLITS[d] = (math.prod(p ** (e // 2) for p, e in fac), d), (1, d)
    return _SPLITS[n]

