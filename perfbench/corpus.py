"""Seeded inputs and their known answers for the benchmark workloads.

Every input is a plane curve handed to the library as a bare polynomial.
Library generators run here, during set-up, so their cost shows in
``setup_s`` and never in the timed region.  The known answer of each input
follows from how it was built, not from running the decision procedure:

* a projection curve has an ordinary (d-3)-fold point, so it is trigonal of
  odd genus 2d-5 and its canonical image lies on an unbalanced scroll;
* a method-1 curve is 3:1 onto a line, has even genus 2(deg_x-1), and for
  random coefficients lies on a balanced scroll, the P1xP1 case;
* a smooth plane curve of degree d >= 6 has gonality d-1, and a nodal sextic
  has gonality 4, so neither is trigonal; a smooth quintic is the Veronese
  case and every plane quartic is the genus-3 case;
* a curve with a (d-2)-fold point is hyperelliptic;
* a cusp, a tacnode, a multiple point with a repeated tangent, a product of
  cubics, a pair of nodes conjugate over Q(sqrt 2) and a rational nodal
  quartic lie outside the supported class.

The generic answers (P1xP1 for method-1 and for the two-node quintic, a
trivial stabilizer for the random sextics) fail only on a measure-zero set
of coefficients.
"""

import random
from dataclasses import dataclass

WORKLOADS = ("trigonal_hi", "dense_nontrigonal", "small_mixed")
# The curves of the ROADMAP baseline table; used by the table mode only.
TABLES = WORKLOADS + ("roadmap",)

FIVE_NODES = [((1, 0, 0), 2), ((0, 1, 0), 2), ((0, 0, 1), 2),
              ((1, 1, 1), 2), ((1, 2, 3), 2)]
TWO_NODES = [((1, 0, 0), 2), ((0, 1, 0), 2)]


@dataclass(frozen=True)
class Expect:
    """Known answer: ``kind`` is "accept", "hyperelliptic" or "reject"."""
    kind: str
    genus: int = None
    case: str = None
    trigonal: bool = None


@dataclass
class Item:
    name: str
    f: object          # trigonal.poly.MPoly, the only thing the library sees
    expect: Expect


def _accept(genus, case, trigonal):
    return Expect("accept", genus, case, trigonal)


HYPERELLIPTIC = Expect("hyperelliptic")
REJECT = Expect("reject")


class _Builder:
    """Makes the inputs of one workload from its seed.

    Imports the library on construction, so that a fresh import made during
    set-up is the one whose generators run.
    """

    def __init__(self, seed):
        from trigonal import curve, poly, scalars
        self.seed = seed
        self.curve = curve
        self.MPoly = poly.MPoly
        self.parse = poly.parse_poly
        self.rat = scalars.rat

    def rng(self, label):
        return random.Random(f"perfbench:{self.seed}:{label}")

    # --- accepted inputs -------------------------------------------------

    def projection(self, d):
        c = self.curve.gen_trigonal_projection(d, seed=self.seed)
        return Item(f"projection d={d}", c.f, _accept(2 * d - 5, "Scroll", True))

    def method1(self, deg_x):
        c = self.curve.gen_method1(deg_x, seed=self.seed)
        return Item(f"method-1 deg_x={deg_x}", c.f,
                    _accept(2 * (deg_x - 1), "P1xP1", True))

    def smooth(self, d, height, k=0):
        """The k-th smooth curve of degree d with ``height``-bit coefficients."""
        c = self.curve.gen_singular_model(d, [], coeff_height=height,
                                          seed=2 * self.seed + k)
        g = (d - 1) * (d - 2) // 2
        case = {4: "Genus3", 5: "Veronese"}.get(d, "CurveCutByQuadrics")
        return Item(f"smooth d={d}, {height}-bit, #{k + 1}", c.f,
                    _accept(g, case, d == 4))

    def nodal_sextic(self, height):
        c = self.curve.gen_singular_model(6, [((0, 0, 1), 2)],
                                          coeff_height=height, seed=self.seed)
        return Item(f"one-node sextic, {height}-bit", c.f,
                    _accept(9, "CurveCutByQuadrics", False))

    def five_nodal_sextic(self):
        c = self.curve.gen_singular_model(6, FIVE_NODES, seed=self.seed)
        return Item("five-nodal sextic", c.f, _accept(5, "CurveCutByQuadrics", False))

    def two_node_quintic(self):
        c = self.curve.gen_singular_model(5, TWO_NODES, seed=self.seed)
        return Item("two-node quintic", c.f, _accept(4, "P1xP1", True))

    def fixed(self, name, text, expect):
        return Item(name, self.parse(text), expect)

    # --- rejected inputs -------------------------------------------------

    def hyperelliptic(self, d):
        c = self.curve.gen_singular_model(d, [((0, 0, 1), d - 2)], seed=self.seed)
        return Item(f"hyperelliptic d={d}", c.f, HYPERELLIPTIC)

    def _form(self, d, bound, rng, keep=lambda i, j, k: True):
        """Random degree-d form with coefficients in [-bound, bound] over the
        monomials that ``keep`` admits."""
        terms = {}
        for i in range(d + 1):
            for j in range(d + 1 - i):
                k = d - i - j
                c = rng.randint(-bound, bound)
                if c and keep(i, j, k):
                    terms[(i, j, k)] = self.rat(c)
        return self.MPoly(3, terms)

    def cusp(self, d, bound):
        """y^2 z^(d-2) plus terms of order >= 3 at (0:0:1), x^3 among them."""
        rng = self.rng(f"cusp:{d}:{bound}")
        f = self._form(d, bound, rng, keep=lambda i, j, k: i + j >= 3)
        f.terms[(3, 0, d - 3)] = self.rat(rng.choice([-2, -1, 1, 2]))
        f.terms[(0, 2, d - 2)] = self.rat(1)
        return Item(f"cusp d={d}", f, REJECT)

    def tacnode(self, d, bound):
        """y^2 z^(d-2) plus terms of order >= 3 at (0:0:1) without x^3 or
        x^2 y, and with x^4: the local equation is y^2 + c x^4 + ..."""
        rng = self.rng(f"tacnode:{d}:{bound}")
        f = self._form(d, bound, rng, keep=lambda i, j, k: i + j >= 3
                       and (i, j) not in ((3, 0), (2, 1)))
        f.terms[(4, 0, d - 4)] = self.rat(rng.choice([-2, -1, 1, 2]))
        f.terms[(0, 2, d - 2)] = self.rat(1)
        return Item(f"tacnode d={d}", f, REJECT)

    def projection_tangent(self, d):
        """A projection candidate whose tangent cone at the (d-3)-fold point
        (0:0:1) has the repeated factor x^2, so the point is not ordinary."""
        rng = self.rng(f"projection-tangent:{d}")
        low = self._form(d, 31, rng, keep=lambda i, j, k: k <= 2)
        cone = self._form(d - 5, 31, rng, keep=lambda i, j, k: k == 0)
        x = self.MPoly.variable(3, 0)
        z3 = self.MPoly.monomial(3, (0, 0, 3), self.rat(1))
        return Item(f"non-ordinary {d - 3}-fold point d={d}", low + x * x * cone * z3,
                    REJECT)

    def cubic_product(self, bound):
        rng = self.rng(f"cubic-product:{bound}")
        f = self._form(3, bound, rng) * self._form(3, bound, rng)
        return Item("product of two cubics", f, REJECT)

    def sqrt2_nodes(self, d, bound):
        """Singular at (+-sqrt 2 : 0 : 1): a member of (y, x^2 - 2 z^2)^2."""
        rng = self.rng(f"sqrt2:{d}:{bound}")
        y = self.MPoly.variable(3, 1)
        q = self.parse("x^2 - 2*z^2")
        f = (y * y * self._form(d - 2, bound, rng)
             + y * q * self._form(d - 3, bound, rng)
             + q * q * self._form(d - 4, bound, rng))
        return Item(f"nodes over Q(sqrt 2) d={d}", f, REJECT)

    def rational_quartic(self):
        """Three nodes at the coordinate points: genus 0."""
        rng = self.rng("rational-quartic")
        f = self._form(4, 7, rng, keep=lambda i, j, k: max(i, j, k) <= 2)
        for e in ((2, 2, 0), (2, 0, 2), (0, 2, 2)):
            f.terms[e] = self.rat(rng.choice([-3, -2, -1, 1, 2, 3]))
        return Item("three-nodal quartic (genus 0)", f, REJECT)


def build(name, seed):
    """Inputs of the named workload (or table) for this seed, in run order.

    Rejected inputs are interleaved with accepted ones, so that ``reject_s``
    samples the whole pass rather than one stretch of it.
    """
    b = _Builder(seed)
    if name == "trigonal_hi":
        return [b.projection(8), b.projection_tangent(8), b.projection(10),
                b.method1(7), b.hyperelliptic(8), b.method1(8)]
    if name == "dense_nontrigonal":
        return [b.smooth(6, 5, 0), b.cusp(6, 31), b.smooth(6, 5, 1), b.tacnode(6, 31),
                b.nodal_sextic(5), b.cubic_product(31),
                b.fixed("Fermat septic", "x^7 + y^7 + z^7",
                        _accept(15, "CurveCutByQuadrics", False)),
                b.sqrt2_nodes(6, 31), b.smooth(5, 5)]
    if name == "small_mixed":
        genus3 = _accept(3, "Genus3", True)
        return [b.fixed("Klein quartic", "x^3*y + y^3*z + z^3*x", genus3),
                b.cusp(5, 7),
                b.fixed("Fermat quartic", "x^4 + y^4 + z^4", genus3),
                b.tacnode(6, 7), b.two_node_quintic(), b.cubic_product(7),
                b.five_nodal_sextic(), b.sqrt2_nodes(5, 7),
                b.fixed("Fermat quintic", "x^5 + y^5 + z^5",
                        _accept(6, "Veronese", False)),
                b.rational_quartic(), b.projection(5), b.hyperelliptic(5),
                b.projection(6), b.hyperelliptic(6), b.method1(3), b.hyperelliptic(7),
                b.method1(4), b.method1(5)]
    if name == "roadmap":
        return _roadmap_items(b)
    raise ValueError(f"unknown workload {name!r}")


def _roadmap_items(b):
    """The fixed curves of the ROADMAP baseline table (seed ignored)."""
    c = b.curve
    rows = [("projection d=7, seed 11", c.gen_trigonal_projection(7, seed=11).f,
             _accept(9, "Scroll", True)),
            ("method-1 deg_x=6, seed 3", c.gen_method1(6, seed=3).f,
             _accept(10, "P1xP1", True)),
            ("projection d=8, seed 1", c.gen_trigonal_projection(8, seed=1).f,
             _accept(11, "Scroll", True)),
            ("Fermat x^7+y^7+z^7", b.parse("x^7 + y^7 + z^7"),
             _accept(15, "CurveCutByQuadrics", False)),
            ("projection d=10, seed 1", c.gen_trigonal_projection(10, seed=1).f,
             _accept(15, "Scroll", True)),
            ("method-1 deg_x=8, seed 1", c.gen_method1(8, seed=1).f,
             _accept(14, "P1xP1", True))]
    return [Item(name, f, expect) for name, f, expect in rows]
