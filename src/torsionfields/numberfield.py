"""Exact arithmetic in the number fields used by the torsion classifiers.

Three shapes of field are enough for every tower that appears: the rationals,
a depressed cubic field Q[t]/(t^3 + a t + b), and towers built by repeatedly
adjoining a square root to one of those.  The central service is deciding
whether a given element is a square in its field, exactly and at any height:

* rationals: integer square roots of numerator and denominator;
* cubic fields: a rational element is a square iff it is one in Q (the
  degree is odd); any other element theta generates the field, and a square
  root alpha would have a characteristic polynomial g with
  g(X) g(-X) = -chi_theta(X^2).  That leaves finitely many candidates for
  alpha, read off the rational roots of one quartic (`square_test_cubic`),
  and each is checked exactly;
* towers: the classical descent x = a + b*sqrt(D), which reduces a square
  test at one level to square tests in the level below.

`rational_roots` finds the rational roots of a monic rational polynomial by
exact integer bisection.  Numeric values appear only where a complex value
is wanted (`cubic_roots`, `embed`); no square test uses them.  Their one
working precision, `working_bits(A, B)`, is set here from the height of the
curve's coefficients: `PRECISION_BITS` while that keeps the classifiers'
residuals within `RESIDUAL_BOUND`, and eight bits more per bit of height
beyond.

Representation.  A cubic field keeps t^3 + a t + b as integers ai, bi over
one positive denominator e.  A cubic element is (n0 + n1 t + n2 t^2) / d
with integers in normal form: d > 0 and gcd(n0, n1, n2, d) = 1, reached
once per operation, so a product costs a few integer multiplies and one
gcd, and equal elements have equal integers.  Norm, inverse and the
characteristic polynomial come from one integer adjugate of the
multiplication matrix.  A tower element is a pair (u, v) meaning
u + v*sqrt(D), with u, v in the floor below: a Fraction over Q, a cubic
element, or another tower element.  `lift` carries a rational or a
lower-floor element up into a field, and `to_mpf` turns a rational into an
mpmath number.

``multiquadratic_reduce`` implements the subset trick: theta is a square in
base(sqrt(d_1), ..., sqrt(d_k)) iff theta * prod_{i in S} d_i is a square in
the base for some subset S.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import combinations

import mpmath

from .curve import discriminant

SQUARE = "square"
NOT_SQUARE = "not_square"

#: least working precision of the classifiers' numeric values
PRECISION_BITS = 256
#: largest numeric residual the classifiers accept in their self-checks
RESIDUAL_BOUND = 1e-9


class ClassificationDefect(RuntimeError):
    """Flag combination or tower shape that the degree table proves
    impossible, or a numeric self-check that failed.  Raised instead of
    guessing: it means either a bug or a genuinely unexplained curve."""


# ---------------------------------------------------------------------------
# rationals
# ---------------------------------------------------------------------------

def rational_sqrt(q: Fraction) -> Fraction | None:
    """Exact square root in Q, or None."""
    q = Fraction(q)
    if q < 0:
        return None
    if q == 0:
        return Fraction(0)
    rn = math.isqrt(q.numerator)
    rd = math.isqrt(q.denominator)
    if rn * rn == q.numerator and rd * rd == q.denominator:
        return Fraction(rn, rd)
    return None


def is_rational_square(q: Fraction) -> bool:
    return rational_sqrt(q) is not None


def _icbrt(n: int) -> int:
    """Integer cube root of n >= 0 (floor)."""
    if n == 0:
        return 0
    x = 1 << ((n.bit_length() + 2) // 3)
    while True:
        y = (2 * x + n // (x * x)) // 3
        if y >= x:
            return x
        x = y


def rational_cbrt(q: Fraction) -> Fraction | None:
    """Exact cube root in Q, or None.  Zero and negatives handled."""
    q = Fraction(q)
    sign = 1
    if q < 0:
        sign, q = -1, -q
    rn = _icbrt(q.numerator)
    rd = _icbrt(q.denominator)
    if rn ** 3 == q.numerator and rd ** 3 == q.denominator:
        return sign * Fraction(rn, rd)
    return None


def is_rational_cube(q: Fraction) -> bool:
    """Whether q is the cube of a rational (0 counts)."""
    return rational_cbrt(q) is not None


def _height(*values) -> int:
    """The largest bit length of a numerator or denominator of the rationals."""
    return max(max(q.numerator.bit_length(), q.denominator.bit_length())
               for q in map(Fraction, values))


def working_bits(*values) -> int:
    """The working precision for numbers computed from the rationals
    `values`: PRECISION_BITS, or 64 bits plus eight per bit of their height
    h when that is more.  The residuals are checked in absolute terms, on
    terms up to A^2 ~ 2^(2h), and the radical c = (-cbrt(disc) - 4A) / 3 of
    `radical_roots3` is about 3B^2 / A^2 when small, so computing it
    cancels up to log2 |A^3 / B^2| <= 5h bits: 7h in all.  PRECISION_BITS
    covers every coefficient of up to 24 bits."""
    return max(PRECISION_BITS, 8 * _height(*values) + 64)


def rational_roots(coeffs) -> list[Fraction]:
    """The distinct rational roots, ascending, of the monic polynomial
    sum_i coeffs[i] x^i with rational coefficients, found exactly.

    With D the lcm of the denominators, D^n p(y / D) is a monic integer
    polynomial in y, so its rational roots are integers.
    """
    cs = [Fraction(c) for c in coeffs]
    if cs[-1] != 1:
        raise ValueError("rational_roots needs a monic polynomial")
    n = len(cs) - 1
    D = math.lcm(*(c.denominator for c in cs))
    p = [c.numerator * D ** (n - i) // c.denominator for i, c in enumerate(cs)]
    return [Fraction(r, D) for r in sorted(_integer_roots(p)[0])]


def _eval(p, x: int) -> int:
    v = 0
    for c in reversed(p):
        v = v * x + c
    return v


def _integer_roots(p):
    """(roots, points) for an integer polynomial p, coefficients from the
    constant up, with a positive leading one: the set of its integer roots,
    and a sorted list of integers such that every real root of p is one of
    them or lies strictly between two of them that differ by 1.

    The points of the derivative split the line into pieces on which p is
    strictly monotone; a sign change over a piece longer than 1 is narrowed
    by exact bisection.  The outer points come from Fujiwara's bound
    |z| <= 2 max_i |p[n-i] / p[n]|^(1/i) on the roots z.
    """
    n = len(p) - 1
    if n == 0:
        return set(), []
    crit = _integer_roots([i * c for i, c in enumerate(p)][1:])[1]
    bound = 2 << max(-(-abs(c).bit_length() // (n - i))
                     for i, c in enumerate(p[:-1]))
    pts = sorted(set(crit) | {-bound, bound})
    vals = [_eval(p, x) for x in pts]
    roots = {x for x, v in zip(pts, vals) if v == 0}
    found = []
    for lo, hi, vlo, vhi in zip(pts, pts[1:], vals, vals[1:]):
        if hi - lo > 1 and (vlo < 0 < vhi or vhi < 0 < vlo):
            while hi - lo > 1:
                mid = (lo + hi) // 2
                vm = _eval(p, mid)
                if vm == 0:
                    roots.add(mid)
                    lo = hi = mid
                elif (vm < 0) == (vlo < 0):
                    lo = mid
                else:
                    hi = mid
            found += (lo, hi)
    return roots, sorted(set(pts).union(found))


# ---------------------------------------------------------------------------
# depressed cubic fields
# ---------------------------------------------------------------------------

class CubicField:
    """Q[t]/(t^3 + a*t + b), assumed irreducible over Q.

    a and b are kept as Fractions and as integers (ai, bi) over one positive
    denominator e, which is what element arithmetic uses.
    """

    def __init__(self, a: Fraction, b: Fraction):
        self.a = Fraction(a)
        self.b = Fraction(b)
        self.e = math.lcm(self.a.denominator, self.b.denominator)
        self.ai = self.a.numerator * (self.e // self.a.denominator)
        self.bi = self.b.numerator * (self.e // self.b.denominator)

    def elt(self, c0, c1=0, c2=0) -> "CubicElement":
        c0, c1, c2 = Fraction(c0), Fraction(c1), Fraction(c2)
        d = math.lcm(c0.denominator, c1.denominator, c2.denominator)
        return _cubic(self, c0.numerator * (d // c0.denominator),
                      c1.numerator * (d // c1.denominator),
                      c2.numerator * (d // c2.denominator), d)

    def from_rational(self, q) -> "CubicElement":
        q = Fraction(q)
        return CubicElement(self, q.numerator, 0, 0, q.denominator)

    def gen(self) -> "CubicElement":
        return CubicElement(self, 0, 1, 0, 1)

    def zero(self):
        return CubicElement(self, 0, 0, 0, 1)

    def one(self):
        return CubicElement(self, 1, 0, 0, 1)

    def __eq__(self, other):
        return isinstance(other, CubicField) and other.a == self.a and other.b == self.b

    def __hash__(self):
        return hash(("CubicField", self.a, self.b))

    def __repr__(self):
        return f"Q[t]/(t^3 + {self.a}*t + {self.b})"


def to_mpf(q):
    """A rational (Fraction or int) at the working precision."""
    return mpmath.mpf(q.numerator) / q.denominator


def embed(field, x, gens=None):
    """The value of x under the distinguished embedding of `field` (None
    meaning Q), at the working precision: the largest real root of a cubic
    floor, principal square roots above.  `gens` caches, per floor, that
    cubic root (from `cubic_roots`) or the square root of its radicand, so
    one dict serves one working precision."""
    if field is None:
        return to_mpf(x)
    gens = {} if gens is None else gens
    if id(field) not in gens:
        if isinstance(field, CubicField):
            g = max(r for r in cubic_roots(field.a, field.b)
                    if isinstance(r, mpmath.mpf))
        else:
            g = mpmath.sqrt(mpmath.mpc(embed(field.base, field.radicand, gens)))
        gens[id(field)] = (field, g)     # holding field keeps its id unique
    g = gens[id(field)][1]
    if isinstance(field, CubicField):
        return mpmath.mpc(to_mpf(x.c0) + to_mpf(x.c1) * g + to_mpf(x.c2) * g * g)
    return embed(field.base, x.u, gens) + embed(field.base, x.v, gens) * g


def cubic_roots(a, b):
    """Roots of t^3 + a t + b (irreducible over Q) at the working precision,
    in closed form: the real roots first, ascending, as mpf, then any
    complex pair.

    Three real roots (discriminant > 0) come from the trigonometric form,
    one from Cardano's formula with the cube root taken on the side that
    avoids cancellation.  A nearly repeated root or a root much smaller than
    the coefficients loses at most a few bits per bit of their height, so
    the work runs with 120 bits plus four bits per bit of height to spare,
    and is rounded at the end.
    """
    a, b = Fraction(a), Fraction(b)
    disc = discriminant(a, b)
    with mpmath.extraprec(120 + 4 * _height(a, b)):
        am, bm = to_mpf(a), to_mpf(b)
        if disc > 0:
            r = 2 * mpmath.sqrt(-am / 3)
            phi = mpmath.acos(3 * bm / (am * r))
            roots = sorted(r * mpmath.cos((phi - 2 * k * mpmath.pi) / 3)
                           for k in range(3))
        else:
            s = mpmath.sqrt(to_mpf(-disc / 1728))
            u = -mpmath.cbrt(bm / 2 + s) if b > 0 else mpmath.cbrt(s - bm / 2)
            v = -am / (3 * u)
            re, im = -(u + v) / 2, mpmath.sqrt(3) * (u - v) / 2
            roots = [u + v, mpmath.mpc(re, im), mpmath.mpc(re, -im)]
    return [+r for r in roots]


def _cubic(field, n0, n1, n2, d):
    """The element (n0 + n1 t + n2 t^2) / d, brought to normal form."""
    g = math.gcd(n0, n1, n2, d)
    if d < 0:
        g = -g
    if g != 1:
        n0, n1, n2, d = n0 // g, n1 // g, n2 // g, d // g
    return CubicElement(field, n0, n1, n2, d)


class CubicElement:
    """(n0 + n1 t + n2 t^2) / d with integers n0, n1, n2 and d > 0 in normal
    form, gcd(n0, n1, n2, d) = 1, so equal elements have equal integers.
    c0, c1, c2 are the coordinates on the basis 1, t, t^2 as Fractions."""

    __slots__ = ("field", "n0", "n1", "n2", "d")

    def __init__(self, field: CubicField, n0: int, n1: int, n2: int, d: int):
        self.field = field
        self.n0, self.n1, self.n2, self.d = n0, n1, n2, d

    c0 = property(lambda self: Fraction(self.n0, self.d))
    c1 = property(lambda self: Fraction(self.n1, self.d))
    c2 = property(lambda self: Fraction(self.n2, self.d))

    def coords(self):
        return (self.c0, self.c1, self.c2)

    def __add__(self, other):
        y = self._coerce(other)
        if self.d == y.d:
            return _cubic(self.field, self.n0 + y.n0, self.n1 + y.n1,
                          self.n2 + y.n2, self.d)
        dx, dy = self.d, y.d
        return _cubic(self.field, self.n0 * dy + y.n0 * dx, self.n1 * dy + y.n1 * dx,
                      self.n2 * dy + y.n2 * dx, dx * dy)

    __radd__ = __add__

    def __sub__(self, other):
        return self + -self._coerce(other)

    def __rsub__(self, other):
        return self._coerce(other) - self

    def __neg__(self):
        return CubicElement(self.field, -self.n0, -self.n1, -self.n2, self.d)

    def _coerce(self, other):
        return lift(self.field, other)

    def __mul__(self, other):
        if not isinstance(other, CubicElement):
            q = Fraction(other)
            k = q.numerator
            return _cubic(self.field, self.n0 * k, self.n1 * k, self.n2 * k,
                          self.d * q.denominator)
        F = self.field
        e, a, b = F.e, F.ai, F.bi
        x0, x1, x2 = self.n0, self.n1, self.n2
        y0, y1, y2 = other.n0, other.n1, other.n2
        # product coefficients up to t^4, reduced by e t^3 = -a t - b and
        # e t^4 = -a t^2 - b t
        z3 = x1 * y2 + x2 * y1
        z4 = x2 * y2
        return _cubic(F, e * x0 * y0 - b * z3,
                      e * (x0 * y1 + x1 * y0) - a * z3 - b * z4,
                      e * (x0 * y2 + x1 * y1 + x2 * y0) - a * z4,
                      e * self.d * other.d)

    __rmul__ = __mul__

    def _adjugate(self):
        """(C0, C1, C2, det M) for the integer matrix M of multiplication by
        e*d*self on the basis 1, t, t^2: C is the first column of adj(M)."""
        F = self.field
        e, a, b = F.e, F.ai, F.bi
        n0, n1, n2 = self.n0, self.n1, self.n2
        m11, m12 = e * n0 - a * n2, -a * n1 - b * n2
        m20, m21 = e * n2, e * n1
        c0 = m11 * m11 - m12 * m21          # m22 = m11
        c1 = m12 * m20 - m21 * m11          # m10 = m21
        c2 = m21 * m21 - m11 * m20
        return c0, c1, c2, e * n0 * c0 - b * (n2 * c1 + n1 * c2)

    def _charpoly(self):
        """(trace, sum of principal 2x2 minors, det) of the integer matrix M
        of multiplication by e*d*self, whose characteristic polynomial
        Z^3 - trace Z^2 + minors Z - det has integer coefficients."""
        F = self.field
        c0, _, _, det = self._adjugate()
        m00, m11 = F.e * self.n0, F.e * self.n0 - F.ai * self.n2   # m22 = m11
        # the minors besides c0: m00 (m11 + m22) - m01 m10 - m02 m20
        return (m00 + 2 * m11,
                c0 + 2 * (m00 * m11 + F.e * F.bi * self.n1 * self.n2), det)

    def norm(self) -> Fraction:
        *_, det = self._adjugate()
        return Fraction(det, (self.field.e * self.d) ** 3)

    def inverse(self) -> "CubicElement":
        c0, c1, c2, det = self._adjugate()
        if not det:
            raise ZeroDivisionError("not invertible")
        s = self.field.e * self.d
        return _cubic(self.field, c0 * s, c1 * s, c2 * s, det)

    def __truediv__(self, other):
        return self * self._coerce(other).inverse()

    def __rtruediv__(self, other):
        return self._coerce(other) * self.inverse()

    def __eq__(self, other):
        if not isinstance(other, CubicElement):
            try:
                other = self._coerce(other)
            except (TypeError, ValueError):
                return NotImplemented
        return (self.n0 == other.n0 and self.n1 == other.n1 and self.n2 == other.n2
                and self.d == other.d and self.field == other.field)

    def __bool__(self):
        return bool(self.n0 or self.n1 or self.n2)

    def __hash__(self):
        return hash((self.field, self.n0, self.n1, self.n2, self.d))

    def __repr__(self):
        return f"({self.c0}) + ({self.c1})*t + ({self.c2})*t^2"


# ---------------------------------------------------------------------------
# the square test in a cubic field
# ---------------------------------------------------------------------------

def square_test_cubic(theta: CubicElement):
    """Decide whether theta is a square in its cubic field K, exactly.

    Returns (status, root) with status in {square, not_square}.  A rational
    theta is a square in K iff it is one in Q, since [K:Q] = 3 is odd.  Any
    other theta generates K.  With k = e*d, the element k*theta is integral
    (its multiplication matrix is an integer matrix), and theta is a square
    iff psi = k^2 theta is.  Let chi(Z) = Z^3 + s1 Z^2 + s2 Z + s3 be the
    characteristic polynomial of psi, in Z[Z].  If psi = alpha^2, the
    characteristic polynomial g = X^3 + g1 X^2 + g2 X + c of alpha satisfies
    g(X) g(-X) = -chi(X^2): so c^2 = N(psi) = -s3, g2 = (g1^2 + s1) / 2, and
    g1 is a rational root of (g1^2 + s1)^2 - 8 c g1 - 4 s2.  One sign of c
    suffices, since -alpha has the other.  From g(alpha) = 0 and
    alpha^2 = psi, alpha = -(g1 psi + c) / (psi + g2); psi is a square iff
    one of these candidates squares to it, which is checked exactly.
    """
    F = theta.field
    if not (theta.n1 or theta.n2):
        r = rational_sqrt(theta.c0)
        return (SQUARE, F.from_rational(r)) if r is not None else (NOT_SQUARE, None)
    k = F.e * theta.d
    tr, minors, det = theta._charpoly()
    c = rational_sqrt(k ** 3 * det)
    if c is None:
        return NOT_SQUARE, None
    s1, s2 = -k * tr, k * k * minors
    psi = theta * (k * k)
    for g1 in rational_roots([s1 * s1 - 4 * s2, -8 * c, 2 * s1, 0, 1]):
        alpha = -(psi * g1 + c) / (psi + (g1 * g1 + s1) / 2)
        if alpha * alpha == psi:
            return SQUARE, alpha * Fraction(1, k)
    return NOT_SQUARE, None


# ---------------------------------------------------------------------------
# square-root towers
# ---------------------------------------------------------------------------

class QuadTower:
    """base(sqrt(D)) where base is None (meaning Q), a CubicField, or another
    QuadTower, and D is a base element that is not a square there.

    Elements are pairs (u, v) representing u + v*sqrt(D).
    """

    def __init__(self, base, radicand):
        self.base = base  # None | CubicField | QuadTower
        self.radicand = lift(base, radicand)

    def elt(self, u, v=0) -> "TowerElement":
        return TowerElement(self, lift(self.base, u), lift(self.base, v))

    def gen(self) -> "TowerElement":
        """sqrt(D) itself."""
        return self.elt(0, 1)

    def zero(self):
        return self.elt(0, 0)

    def one(self):
        return self.elt(1, 0)

    def __eq__(self, other):
        return (
            isinstance(other, QuadTower)
            and other.base == self.base
            and other.radicand == self.radicand
        )

    def __hash__(self):
        return hash(("QuadTower", self.base, self.radicand))

    def __repr__(self):
        return f"({self.base!r})(sqrt({self.radicand!r}))"


def lift(field, x):
    """x, a rational or an element of a lower floor, as an element of
    `field` (None meaning Q)."""
    if field is None:
        return x if isinstance(x, Fraction) else Fraction(x)
    if isinstance(field, CubicField):
        return x if isinstance(x, CubicElement) else field.from_rational(x)
    if isinstance(x, TowerElement) and (x.field is field or x.field == field):
        return x
    return TowerElement(field, lift(field.base, x), lift(field.base, 0))


class TowerElement:
    __slots__ = ("field", "u", "v")

    def __init__(self, field: QuadTower, u, v):
        self.field = field
        self.u, self.v = u, v

    def _coerce(self, other):
        return lift(self.field, other)

    def __add__(self, other):
        other = self._coerce(other)
        return TowerElement(self.field, self.u + other.u, self.v + other.v)

    __radd__ = __add__

    def __sub__(self, other):
        other = self._coerce(other)
        return TowerElement(self.field, self.u - other.u, self.v - other.v)

    def __rsub__(self, other):
        return self._coerce(other) - self

    def __neg__(self):
        return TowerElement(self.field, -self.u, -self.v)

    def __mul__(self, other):
        if not isinstance(other, TowerElement):
            return TowerElement(self.field, self.u * other, self.v * other)
        d = self.field.radicand
        return TowerElement(
            self.field,
            self.u * other.u + (self.v * other.v) * d,
            self.u * other.v + self.v * other.u,
        )

    __rmul__ = __mul__

    def inverse(self):
        d = self.field.radicand
        n = self.u * self.u - (self.v * self.v) * d
        if not n:
            raise ZeroDivisionError("tower built over a square radicand")
        ninv = 1 / n if isinstance(n, Fraction) else n.inverse()
        return TowerElement(self.field, self.u * ninv, -(self.v * ninv))

    def __truediv__(self, other):
        return self * self._coerce(other).inverse()

    def __rtruediv__(self, other):
        return self._coerce(other) * self.inverse()

    def __eq__(self, other):
        if not isinstance(other, TowerElement):
            try:
                other = self._coerce(other)
            except (TypeError, ValueError):
                return NotImplemented
        return self.u == other.u and self.v == other.v

    def __bool__(self):
        return bool(self.u) or bool(self.v)

    def __hash__(self):
        return hash((self.u, self.v))

    def __repr__(self):
        return f"({self.u!r}) + ({self.v!r})*sqrt(D)"


# ---------------------------------------------------------------------------
# square testing across all shapes
# ---------------------------------------------------------------------------

def sqrt_in(field, x):
    """(status, root) for x interpreted in `field` (None meaning Q)."""
    if field is None:
        r = rational_sqrt(x)
        return (SQUARE, r) if r is not None else (NOT_SQUARE, None)
    if isinstance(field, CubicField):
        return square_test_cubic(lift(field, x))
    if isinstance(field, QuadTower):
        return square_test_tower(lift(field, x))
    raise TypeError(f"bad field {field!r}")


def square_test_tower(x: TowerElement):
    """The quadratic descent: decide x = (a + b*sqrt(D))^2 solvability."""
    T = x.field
    base, d = T.base, T.radicand
    if not x:
        return SQUARE, T.zero()
    if not x.v:
        st, r = sqrt_in(base, x.u)
        if st == SQUARE:
            return SQUARE, T.elt(r, 0)
        st, r = sqrt_in(base, x.u * d)
        if st == SQUARE:
            # sqrt(u) = (sqrt(u*d)/d) * sqrt(d)
            return SQUARE, T.elt(0, r / d)
        return NOT_SQUARE, None
    # v != 0: need w with w^2 = u^2 - v^2 d in the base
    st, w = sqrt_in(base, x.u * x.u - (x.v * x.v) * d)
    if st == NOT_SQUARE:
        return NOT_SQUARE, None
    for ww in (w, -w):
        st, a = sqrt_in(base, (x.u + ww) / 2)
        if st == SQUARE and a:
            root = T.elt(a, x.v / (a * 2))
            if root * root != x:
                raise ClassificationDefect("tower root does not square back")
            return SQUARE, root
    return NOT_SQUARE, None


def multiquadratic_reduce(base, radicands, theta):
    """Is theta a square in base(sqrt(d_1), ..., sqrt(d_k))?

    Everything lives in `base`.  Returns (status, subset) where subset is the
    tuple of indices S certifying theta * prod_S d_i is a base square (empty
    tuple for a plain base square), or None.
    """
    radicands = list(radicands)
    for size in range(len(radicands) + 1):
        for S in combinations(range(len(radicands)), size):
            cand = theta
            for i in S:
                cand = cand * radicands[i]
            if sqrt_in(base, cand)[0] == SQUARE:
                return SQUARE, S
    return NOT_SQUARE, None
