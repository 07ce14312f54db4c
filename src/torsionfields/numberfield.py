"""Exact arithmetic in the number fields used by the torsion classifiers.

Three shapes of field are enough for every tower that appears: the rationals,
a depressed cubic field Q[t]/(t^3 + a t + b), and towers built by repeatedly
adjoining a square root to one of those.  The central service is deciding
whether a given element is a square in its field:

* rationals: exact (integer square roots of numerator and denominator);
* cubic fields: a three-stage procedure — norm obstruction, numeric
  reconstruction of a candidate root (verified exactly), and residue
  witnesses at degree-one primes, which give an exact "no" whenever the
  element is a unit at the witness prime;
* towers: the classical descent x = a + b*sqrt(D), which reduces a square
  test at one level to square tests in the level below.

A test can come back inconclusive (reconstruction failed and no witness was
found); callers downgrade their confidence instead of guessing.

Representation.  A cubic field keeps t^3 + a t + b as integers ai, bi over
one positive denominator e.  A cubic element is (n0 + n1 t + n2 t^2) / d
with integers in normal form: d > 0 and gcd(n0, n1, n2, d) = 1, reached
once per operation, so a product costs a few integer multiplies and one
gcd, and equal elements have equal integers.  Norm and inverse come from
one integer adjugate of the multiplication matrix.  A tower element is a
pair (u, v) meaning u + v*sqrt(D), with u, v in the floor below: a Fraction
over Q, a cubic element, or another tower element.  `lift` carries a
rational or a lower-floor element up into a field, and `to_mpf` turns a
rational into an mpmath number.

``multiquadratic_reduce`` implements the subset trick: theta is a square in
base(sqrt(d_1), ..., sqrt(d_k)) iff theta * prod_{i in S} d_i is a square in
the base for some subset S.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import combinations

import mpmath
from mpmath.libmp import NoConvergence

from .finitefield import is_prime, poly_roots

import numpy as np

SQUARE = "square"
NOT_SQUARE = "not_square"
INCONCLUSIVE = "inconclusive"

#: reconstruction denominator bound, working precision, witness budget
RATIONALIZE_HEIGHT = 10 ** 6
PRECISION_BITS = 256
WITNESS_PRIMES = 50
#: largest numeric residual the classifiers accept in their self-checks
RESIDUAL_BOUND = 1e-9


class ClassificationDefect(RuntimeError):
    """Flag combination or tower shape that the degree table proves
    impossible, or a numeric step that did not converge.  Raised instead of
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
        self._roots = None

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

    def discriminant(self) -> Fraction:
        return -4 * self.a ** 3 - 27 * self.b ** 2

    def embeddings(self):
        """The three roots of t^3 + a t + b as mpmath complex numbers."""
        if self._roots is None:
            with mpmath.workprec(PRECISION_BITS):
                roots = cubic_roots(self.a, self.b, extraprec=120)
                self._roots = [mpmath.mpc(r) for r in roots]
        return self._roots

    def __eq__(self, other):
        return isinstance(other, CubicField) and other.a == self.a and other.b == self.b

    def __hash__(self):
        return hash(("CubicField", self.a, self.b))

    def __repr__(self):
        return f"Q[t]/(t^3 + {self.a}*t + {self.b})"


def to_mpf(q):
    """A rational (Fraction or int) at the working precision."""
    return mpmath.mpf(q.numerator) / q.denominator


def cubic_roots(a, b, extraprec: int):
    """Roots of t^3 + a t + b at the working precision.  Root finding that
    does not converge raises ClassificationDefect."""
    try:
        return mpmath.polyroots([1, 0, to_mpf(a), to_mpf(b)],
                                maxsteps=200, extraprec=extraprec)
    except NoConvergence as exc:
        raise ClassificationDefect(f"cubic roots did not converge: {exc}") from None


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

    def embed(self, i: int):
        """Value under the i-th embedding, at the working precision."""
        r = self.field.embeddings()[i]
        return to_mpf(self.c0) + to_mpf(self.c1) * r + to_mpf(self.c2) * r * r

    def __repr__(self):
        return f"({self.c0}) + ({self.c1})*t + ({self.c2})*t^2"


# ---------------------------------------------------------------------------
# the three-stage square test in a cubic field
# ---------------------------------------------------------------------------

def square_test_cubic(theta: CubicElement):
    """Decide whether theta is a square in its cubic field.

    Returns (status, root) with status in {square, not_square, inconclusive}.
    Stage 1: the norm of a square is a rational square (exact obstruction).
    Stage 2: reconstruct a candidate root from the embeddings and verify it
             exactly (exact certificate).
    Stage 3: quadratic-residue witnesses at degree-one primes where theta is
             a unit (exact refutation).
    """
    F = theta.field
    if not theta:
        return SQUARE, F.zero()
    if not is_rational_square(theta.norm()):
        return NOT_SQUARE, None

    cand = _reconstruct_sqrt_cubic(theta)
    if cand is not None:
        return SQUARE, cand

    verdict = _witness_disprove_cubic(theta)
    if verdict:
        return NOT_SQUARE, None
    return INCONCLUSIVE, None


def _reconstruct_sqrt_cubic(theta: CubicElement):
    F = theta.field
    with mpmath.workprec(PRECISION_BITS):
        roots = F.embeddings()
        vals = [theta.embed(i) for i in range(3)]
        sqrts = [mpmath.sqrt(v) for v in vals]
        vander = mpmath.matrix([[1, r, r * r] for r in roots])
        for signs in range(8):
            rhs = mpmath.matrix([sqrts[i] * (1 if (signs >> i) & 1 == 0 else -1) for i in range(3)])
            try:
                sol = mpmath.lu_solve(vander, rhs)
            except ZeroDivisionError:
                continue
            coords = []
            ok = True
            for i in range(3):
                x = sol[i]
                if abs(mpmath.im(x)) > mpmath.mpf(2) ** (-(PRECISION_BITS // 3)):
                    ok = False
                    break
                q = _rationalize(mpmath.re(x))
                if q is None:
                    ok = False
                    break
                coords.append(q)
            if not ok:
                continue
            cand = F.elt(*coords)
            if cand * cand == theta:
                return cand
    return None


def _rationalize(x) -> Fraction | None:
    """Best rational approximation with denominator <= the height bound,
    accepted only if it matches x to far better than the bound would allow
    by accident."""
    sign, man, exp, _ = mpmath.mpf(x)._mpf_
    if man == 0:
        return Fraction(0)
    frac = Fraction(man, 1) * Fraction(2) ** exp
    if sign:
        frac = -frac
    cand = frac.limit_denominator(RATIONALIZE_HEIGHT)
    err = abs(frac - cand)
    if err < Fraction(1, RATIONALIZE_HEIGHT ** 3):
        return cand
    return None


def _witness_disprove_cubic(theta: CubicElement) -> bool:
    """True if a degree-one residue witness proves theta is not a square."""
    F = theta.field
    disc = F.discriminant()
    bad = {2, 3}
    tested = 0
    ell = 3
    while tested < WITNESS_PRIMES and ell < 10 ** 5:
        ell = _next_prime(ell)
        if ell in bad:
            continue
        if any(q.denominator % ell == 0 for q in (F.a, F.b, theta.c0, theta.c1, theta.c2)):
            continue
        if disc.numerator % ell == 0 or disc.denominator % ell == 0:
            continue
        poly = np.array(
            [_frac_mod(F.b, ell), _frac_mod(F.a, ell), 0, 1], dtype=np.int64)
        for r in poly_roots(poly, ell):
            v = (_frac_mod(theta.c0, ell)
                 + _frac_mod(theta.c1, ell) * r
                 + _frac_mod(theta.c2, ell) * r * r) % ell
            if v == 0:
                continue  # not a unit at this prime; witness invalid
            tested += 1
            if pow(v, (ell - 1) // 2, ell) == ell - 1:
                return True
            if tested >= WITNESS_PRIMES:
                break
    return False


def _frac_mod(q: Fraction, ell: int) -> int:
    return q.numerator * pow(q.denominator, ell - 2, ell) % ell


def _next_prime(n: int) -> int:
    n += 1
    while not is_prime(n):
        n += 1
    return n


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

    def from_rational(self, q):
        return self.elt(q, 0)

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
        st2, r2 = sqrt_in(base, x.u * d)
        if st2 == SQUARE:
            # sqrt(u) = (sqrt(u*d)/d) * sqrt(d)
            return SQUARE, T.elt(0, r2 / d)
        if INCONCLUSIVE in (st, st2):
            return INCONCLUSIVE, None
        return NOT_SQUARE, None
    # v != 0: need w with w^2 = u^2 - v^2 d in the base
    st_w, w = sqrt_in(base, x.u * x.u - (x.v * x.v) * d)
    if st_w == NOT_SQUARE:
        return NOT_SQUARE, None
    if st_w == INCONCLUSIVE:
        return INCONCLUSIVE, None
    saw_unknown = False
    for ww in (w, -w):
        half = (x.u + ww) / 2
        st_a, a = sqrt_in(base, half)
        if st_a == SQUARE and a:
            b = x.v / (a * 2)
            root = T.elt(a, b)
            assert root * root == x
            return SQUARE, root
        if st_a == INCONCLUSIVE:
            saw_unknown = True
    return (INCONCLUSIVE, None) if saw_unknown else (NOT_SQUARE, None)


def multiquadratic_reduce(base, radicands, theta):
    """Is theta a square in base(sqrt(d_1), ..., sqrt(d_k))?

    Everything lives in `base`.  Returns (status, subset) where subset is the
    tuple of indices S certifying theta * prod_S d_i is a base square (empty
    tuple for a plain base square), or None.
    """
    radicands = list(radicands)
    saw_unknown = False
    for size in range(len(radicands) + 1):
        for S in combinations(range(len(radicands)), size):
            cand = theta
            for i in S:
                cand = cand * radicands[i]
            st, _ = sqrt_in(base, cand)
            if st == SQUARE:
                return SQUARE, S
            if st == INCONCLUSIVE:
                saw_unknown = True
    return (INCONCLUSIVE, None) if saw_unknown else (NOT_SQUARE, None)
