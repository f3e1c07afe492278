"""Sparse multivariate and dense univariate polynomial arithmetic.

MPoly is a dict from exponent tuples to nonzero coefficients; UPoly is a
dense coefficient list, lowest degree first.  Both work over any of the
scalar variants.  Canonical printing order is graded lexicographic, which
keeps CLI output byte-stable.
"""

from math import comb, gcd, isqrt

from .errors import InvalidInput
from .intutil import divisors
from .scalars import is_rational, rat, sdiv

__all__ = ["MPoly", "UPoly", "parse_poly", "poly_str", "taylor_rows",
           "binary_form_squarefree"]


def _grlex_key(exps):
    return (sum(exps), exps)


class MPoly:
    """Sparse multivariate polynomial."""

    __slots__ = ("nvars", "terms")

    def __init__(self, nvars, terms=None):
        self.nvars = nvars
        self.terms = {}
        if terms:
            for e, c in (terms.items() if isinstance(terms, dict) else terms):
                if c:
                    e = tuple(e)
                    if len(e) != nvars:
                        raise InvalidInput("exponent tuple has wrong length")
                    nc = self.terms.get(e, 0) + c
                    if nc:
                        self.terms[e] = nc
                    else:
                        self.terms.pop(e, None)

    # --- constructors ---

    @classmethod
    def const(cls, nvars, c):
        p = cls(nvars)
        if c:
            p.terms[(0,) * nvars] = c
        return p

    @classmethod
    def variable(cls, nvars, i):
        e = [0] * nvars
        e[i] = 1
        return cls(nvars, {tuple(e): 1})

    @classmethod
    def monomial(cls, nvars, exps, c=1):
        return cls(nvars, {tuple(exps): c})

    # --- basic structure ---

    def __bool__(self):
        return bool(self.terms)

    def __eq__(self, other):
        if isinstance(other, MPoly):
            if self.nvars != other.nvars or len(self.terms) != len(other.terms):
                return False
            for e, c in self.terms.items():
                if e not in other.terms or other.terms[e] != c:
                    return False
            return True
        return NotImplemented

    def __hash__(self):
        return hash((self.nvars, frozenset((e, str(c)) for e, c in self.terms.items())))

    def total_degree(self):
        if not self.terms:
            return -1
        return max(sum(e) for e in self.terms)

    def degree_in(self, var):
        if not self.terms:
            return -1
        return max(e[var] for e in self.terms)

    def is_homogeneous(self):
        if not self.terms:
            return True
        degs = {sum(e) for e in self.terms}
        return len(degs) == 1

    def terms_sorted(self):
        """Terms in graded-lex descending order."""
        return sorted(self.terms.items(), key=lambda kv: _grlex_key(kv[0]),
                      reverse=True)

    def leading_term(self):
        if not self.terms:
            raise InvalidInput("leading term of the zero polynomial")
        e = max(self.terms, key=_grlex_key)
        return e, self.terms[e]

    # --- arithmetic ---

    def __add__(self, other):
        if not isinstance(other, MPoly):
            other = MPoly.const(self.nvars, other)
        if other.nvars != self.nvars:
            raise InvalidInput("variable count mismatch")
        out = dict(self.terms)
        for e, c in other.terms.items():
            nc = out.get(e, 0) + c
            if nc:
                out[e] = nc
            else:
                out.pop(e, None)
        p = MPoly(self.nvars)
        p.terms = out
        return p

    __radd__ = __add__

    def __neg__(self):
        p = MPoly(self.nvars)
        p.terms = {e: -c for e, c in self.terms.items()}
        return p

    def __sub__(self, other):
        if not isinstance(other, MPoly):
            other = MPoly.const(self.nvars, other)
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if not isinstance(other, MPoly):
            if not other:
                return MPoly(self.nvars)
            p = MPoly(self.nvars)
            p.terms = {e: c * other for e, c in self.terms.items()}
            return p
        if other.nvars != self.nvars:
            raise InvalidInput("variable count mismatch")
        out = {}
        n = self.nvars
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = tuple(e1[i] + e2[i] for i in range(n))
                nc = out.get(e, 0) + c1 * c2
                if nc:
                    out[e] = nc
                else:
                    out.pop(e, None)
        p = MPoly(self.nvars)
        p.terms = out
        return p

    def __rmul__(self, other):
        return self.__mul__(other)

    def __pow__(self, k):
        if not isinstance(k, int) or k < 0:
            raise InvalidInput("polynomial power requires a non-negative int")
        out = MPoly.const(self.nvars, 1)
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

    def map_coeffs(self, fn):
        p = MPoly(self.nvars)
        for e, c in self.terms.items():
            nc = fn(c)
            if nc:
                p.terms[e] = nc
        return p

    def derivative(self, var):
        out = {}
        for e, c in self.terms.items():
            k = e[var]
            if k:
                ne = list(e)
                ne[var] = k - 1
                out[tuple(ne)] = k * c
        p = MPoly(self.nvars)
        p.terms = {e: c for e, c in out.items() if c}
        return p

    def substitute(self, images):
        """Substitute images[i] (MPoly or scalar) for variable i."""
        if len(images) != self.nvars:
            raise InvalidInput("one image per variable required")
        target = None
        for im in images:
            if isinstance(im, MPoly):
                if target is None:
                    target = im.nvars
                elif im.nvars != target:
                    raise InvalidInput("images have mixed variable counts")
        if target is None:
            return self.evaluate(images)
        lifted = [im if isinstance(im, MPoly) else MPoly.const(target, im)
                  for im in images]
        caches = [{0: MPoly.const(target, 1)} for _ in range(self.nvars)]

        def power(i, k):
            cache = caches[i]
            if k not in cache:
                cache[k] = power(i, k - 1) * lifted[i]
            return cache[k]

        total = MPoly(target)
        for e, c in self.terms.items():
            prod = MPoly.const(target, c)
            for i, k in enumerate(e):
                if k:
                    prod = prod * power(i, k)
            total = total + prod
        return total

    def evaluate(self, point):
        if len(point) != self.nvars:
            raise InvalidInput("one value per variable required")
        caches = [{0: 1} for _ in range(self.nvars)]

        def power(i, k):
            cache = caches[i]
            if k not in cache:
                cache[k] = power(i, k - 1) * point[i]
            return cache[k]

        total = 0
        for e, c in self.terms.items():
            v = c
            for i, k in enumerate(e):
                if k:
                    v = v * power(i, k)
            total = total + v
        return total

    # --- division ---

    def divmod_single(self, divisor):
        """Division by one divisor in graded-lex order: self = q*divisor + r,
        no term of r divisible by the leading term of divisor."""
        if not divisor:
            raise ZeroDivisionError("division by the zero polynomial")
        dl, dc = divisor.leading_term()
        n = self.nvars
        rem = dict(self.terms)
        q = {}
        r = {}
        while rem:
            e = max(rem, key=_grlex_key)
            c = rem.pop(e)
            diff = tuple(e[i] - dl[i] for i in range(n))
            if any(x < 0 for x in diff):
                r[e] = c
                continue
            f = sdiv(c, dc)
            nq = q.get(diff, 0) + f
            if nq:
                q[diff] = nq
            else:
                q.pop(diff, None)
            for de, dcf in divisor.terms.items():
                if de == dl:
                    continue  # cancels against the popped leading term
                ne = tuple(de[i] + diff[i] for i in range(n))
                nc = rem.get(ne, 0) - f * dcf
                if nc:
                    rem[ne] = nc
                else:
                    rem.pop(ne, None)
        qp = MPoly(n)
        qp.terms = q
        rp = MPoly(n)
        rp.terms = r
        return qp, rp

    def exact_div(self, divisor):
        q, r = self.divmod_single(divisor)
        if r:
            raise InvalidInput("exact division has a nonzero remainder")
        return q

    def divisible_by(self, divisor):
        if not self:
            return True
        _, r = self.divmod_single(divisor)
        return not r

    def __repr__(self):
        return f"MPoly({poly_str(self)})"


# --- univariate polynomials --------------------------------------------------


class UPoly:
    """Dense univariate polynomial, coefficients lowest degree first."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=()):
        cs = list(coeffs)
        while cs and not cs[-1]:
            cs.pop()
        self.coeffs = cs

    def degree(self):
        return len(self.coeffs) - 1

    def __bool__(self):
        return bool(self.coeffs)

    def __eq__(self, other):
        if isinstance(other, UPoly):
            return (len(self.coeffs) == len(other.coeffs)
                    and all(a == b for a, b in zip(self.coeffs, other.coeffs)))
        return NotImplemented

    def __hash__(self):
        return hash(tuple(str(c) for c in self.coeffs))

    def lc(self):
        if not self.coeffs:
            raise InvalidInput("leading coefficient of the zero polynomial")
        return self.coeffs[-1]

    def __add__(self, other):
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] = out[i] + c
        return UPoly(out)

    def __neg__(self):
        return UPoly([-c for c in self.coeffs])

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if not isinstance(other, UPoly):
            if not other:
                return UPoly()
            return UPoly([c * other for c in self.coeffs])
        if not self.coeffs or not other.coeffs:
            return UPoly()
        out = [0] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a:
                for j, b in enumerate(other.coeffs):
                    if b:
                        out[i + j] = out[i + j] + a * b
        return UPoly(out)

    __rmul__ = __mul__

    def divmod(self, other):
        if not other:
            raise ZeroDivisionError("division by the zero polynomial")
        r = list(self.coeffs)
        d = other.degree()
        lc = other.lc()
        q = [0] * max(0, len(r) - d)
        while len(r) - 1 >= d and r:
            if not r[-1]:
                r.pop()
                continue
            f = sdiv(r[-1], lc)
            pos = len(r) - 1 - d
            q[pos] = f
            for i, c in enumerate(other.coeffs):
                r[pos + i] = r[pos + i] - f * c
            r.pop()
        return UPoly(q), UPoly(r)

    def __mod__(self, other):
        return self.divmod(other)[1]

    def __floordiv__(self, other):
        return self.divmod(other)[0]

    def monic(self):
        if not self.coeffs:
            return self
        lc = self.lc()
        if lc == 1:
            return self
        return UPoly([sdiv(c, lc) for c in self.coeffs])

    def derivative(self):
        return UPoly([i * c for i, c in enumerate(self.coeffs)][1:])

    def gcd(self, other):
        a, b = self, other
        while b:
            a, b = b, (a % b)
            if b:
                b = b.monic()
        return a.monic()

    def __repr__(self):
        return f"UPoly({self.coeffs})"



def squarefree_part(u):
    """u / gcd(u, u'), normalized monic.  Exposed on UPoly callers."""
    if not u:
        raise InvalidInput("square-free part of the zero polynomial")
    g = u.gcd(u.derivative())
    if g.degree() <= 0:
        return u.monic()
    return (u // g).monic()


UPoly.squarefree_part = squarefree_part


def rational_roots(u):
    """All rational roots of u with multiplicity (repeats), ascending.

    After the factor x^k, a polynomial of degree 1 gives its root directly,
    and one of degree 2 gives its roots through ``isqrt`` of the
    discriminant, with no factoring.  Otherwise the candidates are the
    divisor quotients of the extreme coefficients after clearing
    denominators; every candidate is verified and deflated exactly.
    """
    if not u:
        raise InvalidInput("rational roots of the zero polynomial")
    for c in u.coeffs:
        if not is_rational(c):
            raise InvalidInput("rational_roots requires rational coefficients")
    denlcm = 1
    for c in u.coeffs:
        d = int(rat(c).denominator)
        denlcm = denlcm * d // gcd(denlcm, d)
    ints = [int(rat(c) * denlcm) for c in u.coeffs]
    roots = []
    # factor out x^k
    k = 0
    while k < len(ints) and ints[k] == 0:
        k += 1
    roots.extend([rat(0)] * k)
    ints = ints[k:]
    if len(ints) <= 1:
        return roots
    g = 0
    for c in ints:
        g = gcd(g, abs(c))
    ints = [c // g for c in ints]
    if len(ints) == 2:
        return sorted(roots + [rat(-ints[0], ints[1])])
    if len(ints) == 3:
        c, b, a = ints
        disc = b * b - 4 * a * c
        s = isqrt(disc) if disc >= 0 else -1
        if s * s == disc:
            roots += [rat(-b - s, 2 * a), rat(-b + s, 2 * a)]
        return sorted(roots)
    cur = UPoly([rat(c) for c in ints])
    an_divisors = divisors(abs(ints[-1]))
    found = []
    for p in divisors(abs(ints[0])):
        for q in an_divisors:
            if gcd(p, q) != 1:
                continue
            for cand in (rat(p, q), rat(-p, q)):
                if cur.degree() < 1:
                    break
                mult = 0
                while True:
                    quo, rem = cur.divmod(UPoly([-cand, rat(1)]))
                    if rem:
                        break
                    cur = quo
                    mult += 1
                if mult:
                    found.extend([cand] * mult)
    roots.extend(found)
    return sorted(roots)


# --- Taylor rows ------------------------------------------------------------------


def taylor_rows(monos, point, k):
    """The degree-k Taylor piece at a projective point of the forms over the
    exponent tuples ``monos``, as k+1 rows with one entry per monomial.

    Each monomial is dehomogenized in the chart of the point's last nonzero
    coordinate and translated to the point; u and v are the other two
    coordinates in order, at values p_u and p_v.  Row a holds the
    coefficients of u^a v^(k-a): the entry of x^e is
    C(e_u, a) p_u^(e_u-a) C(e_v, k-a) p_v^(e_v-k+a).  Nonzero entries are
    built from powers of the coordinates, so they lie in the point's field;
    zero entries are the int 0."""
    if len(point) != 3 or not any(point):
        raise InvalidInput("(0,0,0) is not a projective point")
    point = [rat(x) if isinstance(x, int) else x for x in point]
    chart = max(i for i in range(3) if point[i])
    iu, iv = [i for i in range(3) if i != chart]
    top = max(map(sum, monos), default=0)
    pu, pv = ([x ** t for t in range(top + 1)]
              for x in (point[iu] / point[chart], point[iv] / point[chart]))
    rows = []
    for a in range(k + 1):
        b = k - a
        row = []
        for e in monos:
            eu, ev = e[iu], e[iv]
            if eu < a or ev < b or not (pu[eu - a] and pv[ev - b]):
                row.append(0)
            else:
                row.append(comb(eu, a) * comb(ev, b) * pu[eu - a] * pv[ev - b])
        rows.append(row)
    return rows


def binary_form_squarefree(piece):
    """Whether a nonzero homogeneous binary form has distinct linear factors
    over the algebraic closure."""
    if not piece:
        raise InvalidInput("zero binary form")
    if piece.nvars != 2 or not piece.is_homogeneous():
        raise InvalidInput("expected a homogeneous binary form")
    kv = min(e[1] for e in piece.terms)
    if kv > 1:
        return False
    deg = piece.total_degree()
    coeffs = [0] * (deg + 1)
    for e, c in piece.terms.items():
        coeffs[e[0]] = c
    b = UPoly(coeffs)
    g = b.gcd(b.derivative())
    return g.degree() <= 0


# --- text grammar -----------------------------------------------------------------

DEFAULT_NAMES = ("x", "y", "z")


def _coeff_str(c):
    s = str(c)
    if ("+" in s[1:]) or ("-" in s[1:]):
        return f"({s})"
    return s


def poly_str(p, names=None):
    """Canonical text form: graded-lex descending terms."""
    if names is None:
        names = DEFAULT_NAMES if p.nvars == 3 else tuple(f"x{i}" for i in range(p.nvars))
    if not p.terms:
        return "0"
    parts = []
    for e, c in p.terms_sorted():
        factors = []
        for i, k in enumerate(e):
            if k == 1:
                factors.append(names[i])
            elif k > 1:
                factors.append(f"{names[i]}^{k}")
        mono = "*".join(factors)
        cs = _coeff_str(c)
        if not mono:
            term = cs
        elif cs == "1":
            term = mono
        elif cs == "-1":
            term = f"-{mono}"
        else:
            term = f"{cs}*{mono}"
        parts.append(term)
    out = parts[0]
    for t in parts[1:]:
        if t.startswith("-"):
            out += " - " + t[1:]
        else:
            out += " + " + t
    return out


class _Tokens:
    def __init__(self, text):
        self.text = text
        self.pos = 0

    def error(self, msg):
        raise InvalidInput(f"{msg} at position {self.pos}: {self.text!r}")

    def peek(self):
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1
        if self.pos >= len(self.text):
            return None
        return self.text[self.pos]

    def take_int(self):
        ch = self.peek()
        if ch is None or not ch.isdigit():
            self.error("expected an integer")
        start = self.pos
        while self.pos < len(self.text) and self.text[self.pos].isdigit():
            self.pos += 1
        return int(self.text[start:self.pos])

    def take_name(self):
        ch = self.peek()
        start = self.pos
        while (self.pos < len(self.text)
               and (self.text[self.pos].isalnum() or self.text[self.pos] == "_")):
            self.pos += 1
        if self.pos == start:
            self.error("expected a variable name")
        return self.text[start:self.pos]


def parse_poly(text, names=DEFAULT_NAMES):
    """Parse the canonical grammar: rational coefficients, named variables,
    operators + - * ^, no implicit multiplication."""
    toks = _Tokens(text)
    nvars = len(names)
    index = {n: i for i, n in enumerate(names)}
    total = MPoly(nvars)

    def parse_factor():
        ch = toks.peek()
        if ch is None:
            toks.error("unexpected end of input")
        if ch.isdigit():
            num = toks.take_int()
            if toks.peek() == "/":
                toks.pos += 1
                den = toks.take_int()
                if den == 0:
                    toks.error("zero denominator")
                return (rat(num, den), None)
            return (rat(num), None)
        if ch.isalpha():
            name = toks.take_name()
            if name not in index:
                toks.error(f"unknown variable {name!r}")
            k = 1
            if toks.peek() == "^":
                toks.pos += 1
                k = toks.take_int()
            return (None, (index[name], k))
        toks.error(f"unexpected character {ch!r}")

    while True:
        sign = 1
        ch = toks.peek()
        if ch == "+":
            toks.pos += 1
        elif ch == "-":
            sign = -1
            toks.pos += 1
        coeff = rat(sign)
        exps = [0] * nvars
        while True:
            c, v = parse_factor()
            if c is not None:
                coeff = coeff * c
            else:
                exps[v[0]] += v[1]
            if toks.peek() == "*":
                toks.pos += 1
                continue
            break
        total = total + MPoly.monomial(nvars, exps, coeff)
        ch = toks.peek()
        if ch is None:
            break
        if ch not in "+-":
            toks.error(f"unexpected character {ch!r}")
    return total
