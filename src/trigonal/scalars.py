"""Exact field scalars.

Each field has one scalar form, the one its descriptor's ``coerce`` gives:

* over Q, a Python int when the value is integral, else a
  ``fractions.Fraction`` (``rat``) in lowest terms with positive
  denominator; ``sdiv`` keeps that form;
* over Q(sqrt delta), a ``QuadExt`` a + b*sqrt(delta), ``delta`` a fixed
  square-free integer that is not a perfect square;
* over F_p, p an odd prime, the residue, an int in [0, p).  Arithmetic on
  residues is that of ints, so a caller reduces what it computes mod p
  (``coerce`` again, or an ``FpEchelon`` mod p).

The field descriptor of each variant centralizes coercion into its field,
gives its characteristic ``char`` (0 for Q and Q(sqrt delta)), the modulus
of every elimination over it, and owns its ``name``, the one spelling that
reports and curve files use: "Q", "Q(sqrt(delta))" and "Fp p".
"""

from fractions import Fraction
from math import isqrt

from .errors import InvalidInput
from .intutil import is_prime, squarefree_split

rat = Fraction
_RAT_TYPES = (int, Fraction)


def is_rational(x):
    return isinstance(x, _RAT_TYPES)


def int_if_integral(x):
    """x as an int when it is a ``Fraction`` with denominator 1, else x
    itself.  The int has the same str, == and hash, and its arithmetic makes
    no ``Fraction``."""
    if type(x) is Fraction and x.denominator == 1:
        return x.numerator
    return x


def sinv(b):
    """Exact scalar inverse that never produces floats: bare ints are
    interpreted as rational integers."""
    if isinstance(b, int):
        if b == 1:
            return 1
        if b == -1:
            return -1
        return rat(1, b)
    if isinstance(b, QuadExt):
        return b.inverse()
    return 1 / b


def sdiv(a, b):
    """Exact scalar division (see sinv); a rational quotient is an int when
    it is integral, a ``rat`` otherwise."""
    if type(a) is int and type(b) is int:
        q, r = divmod(a, b)
        return rat(a, b) if r else q
    return int_if_integral(a * sinv(b))


def sqrt_rational(q):
    """Exact square root of a rational, or None if q is not a square."""
    q = rat(q)
    if q < 0:
        return None
    n, d = int(q.numerator), int(q.denominator)
    r = isqrt(n * d)
    if r * r != n * d:
        return None
    return rat(r, d)


def rational_square_split(q):
    """Write a nonzero rational q = s^2 * delta with delta a square-free
    integer; return (s, delta)."""
    q = rat(q)
    if not q:
        raise InvalidInput("cannot square-split 0")
    sign = 1 if q > 0 else -1
    n, d = int(abs(q).numerator), int(abs(q).denominator)
    r, delta0 = squarefree_split(n * d)
    return rat(r, d), sign * delta0


class QuadExt:
    """Element a + b*sqrt(delta) of a real or imaginary quadratic field."""

    __slots__ = ("a", "b", "delta")

    def __init__(self, a, b, delta):
        self.a = rat(a)
        self.b = rat(b)
        self.delta = int(delta)

    def _lift(self, other):
        if isinstance(other, QuadExt):
            if other.delta == self.delta or not other.b:
                return QuadExt(other.a, other.b, self.delta)
            if not self.b:
                return None  # handled by caller re-lifting self
            raise InvalidInput(
                f"mixed quadratic extensions sqrt({self.delta}) vs sqrt({other.delta})")
        if is_rational(other):
            return QuadExt(other, 0, self.delta)
        return None

    def __add__(self, other):
        o = self._lift(other)
        if o is None:
            return NotImplemented
        return QuadExt(self.a + o.a, self.b + o.b, self.delta)

    __radd__ = __add__

    def __neg__(self):
        return QuadExt(-self.a, -self.b, self.delta)

    def __sub__(self, other):
        o = self._lift(other)
        if o is None:
            return NotImplemented
        return QuadExt(self.a - o.a, self.b - o.b, self.delta)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        o = self._lift(other)
        if o is None:
            return NotImplemented
        return QuadExt(self.a * o.a + self.delta * self.b * o.b,
                       self.a * o.b + self.b * o.a, self.delta)

    __rmul__ = __mul__

    def conjugate(self):
        return QuadExt(self.a, -self.b, self.delta)

    def norm(self):
        return self.a * self.a - self.delta * self.b * self.b

    def inverse(self):
        n = self.norm()
        if not n:
            raise ZeroDivisionError("QuadExt division by zero")
        return QuadExt(self.a / n, -self.b / n, self.delta)

    def __truediv__(self, other):
        o = self._lift(other)
        if o is None:
            return NotImplemented
        return self * o.inverse()

    def __rtruediv__(self, other):
        if is_rational(other):
            return QuadExt(other, 0, self.delta) * self.inverse()
        return NotImplemented

    def __pow__(self, n):
        if not isinstance(n, int) or n < 0:
            raise InvalidInput("QuadExt power requires a non-negative int")
        out = QuadExt(1, 0, self.delta)
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    def __bool__(self):
        return bool(self.a) or bool(self.b)

    def __eq__(self, other):
        if isinstance(other, QuadExt):
            if other.delta != self.delta and self.b and other.b:
                return False
            return self.a == other.a and self.b == other.b
        if is_rational(other):
            return not self.b and self.a == other
        return NotImplemented

    def __hash__(self):
        if not self.b:
            return hash(self.a)
        return hash((self.a, self.b, self.delta))

    def __str__(self):
        if not self.b:
            return str(self.a)
        root = f"sqrt({self.delta})"
        bpart = root if self.b == 1 else (f"-{root}" if self.b == -1
                                          else f"{self.b}*{root}")
        if not self.a:
            return bpart
        sign = "+" if self.b > 0 else ""
        return f"{self.a}{sign}{bpart}"

    __repr__ = __str__


# --- field descriptors -------------------------------------------------------

class RationalField:
    name = "Q"
    char = 0

    def coerce(self, x):
        """x as an int when it is integral, else as a ``rat``."""
        if isinstance(x, QuadExt) and not x.b:
            x = x.a
        if type(x) is Fraction:
            return int_if_integral(x)
        if isinstance(x, int):
            return int(x)
        raise InvalidInput(f"cannot coerce {x!r} into Q")

    def __eq__(self, other):
        return isinstance(other, RationalField)

    def __hash__(self):
        return hash("Q")

    def __repr__(self):
        return "Q"


class QuadraticField:
    char = 0

    def __init__(self, delta):
        delta = int(delta)
        if delta in (0, 1):
            raise InvalidInput("delta must not be 0 or 1")
        if squarefree_split(delta)[1] != abs(delta):
            raise InvalidInput(f"delta={delta} is not square-free")
        self.delta = delta
        self.name = f"Q(sqrt({delta}))"

    def coerce(self, x):
        if is_rational(x):
            return QuadExt(x, 0, self.delta)
        if isinstance(x, QuadExt):
            if x.delta == self.delta or not x.b:
                return QuadExt(x.a, x.b, self.delta)
        raise InvalidInput(f"cannot coerce {x!r} into {self.name}")

    def __eq__(self, other):
        return isinstance(other, QuadraticField) and other.delta == self.delta

    def __hash__(self):
        return hash(("quad", self.delta))

    def __repr__(self):
        return self.name


class PrimeField:
    def __init__(self, p):
        if p == 2 or not is_prime(p):
            raise InvalidInput(f"{p} is not an odd prime")
        self.p = p
        self.char = p
        self.name = f"Fp {p}"

    def coerce(self, x):
        """x as its residue, an int in [0, p)."""
        if isinstance(x, int):
            return x % self.p
        if is_rational(x):
            if x.denominator % self.p == 0:
                raise InvalidInput(f"denominator of {x} vanishes mod {self.p}")
            return x.numerator * pow(x.denominator, -1, self.p) % self.p
        raise InvalidInput(f"cannot coerce {x!r} into F{self.p}")

    def __eq__(self, other):
        return isinstance(other, PrimeField) and other.p == self.p

    def __hash__(self):
        return hash(("fp", self.p))

    def __repr__(self):
        return self.name


QQ = RationalField()
