"""Integer helpers: primality, factorization, square-free split.

``factorize`` serves only ``squarefree_split``, which names Q(sqrt delta)
canonically; no step of curve validation factors an integer.

Deterministic: Miller-Rabin uses a fixed witness set (sound for < 3.3e24,
falls back to many fixed witnesses above), perfect powers are split by exact
roots, and Brent-Pollard rho uses a fixed parameter sequence and gives up,
with ``InvalidInput``, after ``RHO_STEPS`` steps.
"""

import math
from itertools import count

from .errors import InvalidInput

_SMALL_PRIMES = [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47]

# Deterministic Miller-Rabin witnesses, sufficient for n < 3.3 * 10^24.
_MR_WITNESSES = [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37]

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
    return True


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
                raise InvalidInput(f"factorization failed for {n}")
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


def squarefree_split(n):
    """Write |n| = s^2 * d with d square-free; return (s, d)."""
    fac = factorize(n)
    s = 1
    d = 1
    for p, e in fac.items():
        s *= p ** (e // 2)
        if e % 2:
            d *= p
    return s, d

