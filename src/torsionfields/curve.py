"""Short Weierstrass curves y^2 = x^3 + A*x + B and their division polynomials.

The group law is written against the duck typed element protocol (+, -, *,
/, ==), so the same code serves prime fields, extensions, quadratic lifts,
and exact rationals.  Points are (x, y) tuples, with None for the point at
infinity — nothing projective is needed here.
``EllipticCurve.chord`` is the one chord-and-tangent step: it returns the sum
and the slope of its line, which ``add`` drops and the Miller loop evaluates.

Division polynomials live in their classical y-stripped form over F_p: for odd
index the polynomial is in x alone, for even index the stored polynomial is
the cofactor of y (so the 2-torsion cubic carries the remaining roots).
"""

from __future__ import annotations

import numpy as np

from .finitefield import poly_make_monic, poly_mul, poly_sub, poly_trim


class SingularCurveError(ValueError):
    pass


def discriminant(A, B):
    """-16(4A^3 + 27B^2), computed in whatever ring A and B live in."""
    return -16 * (4 * A ** 3 + 27 * B ** 2)


# ---------------------------------------------------------------------------
# group law (generic coordinates)
# ---------------------------------------------------------------------------

class EllipticCurve:
    """y^2 = x^3 + A x + B with A, B in a common field object."""

    def __init__(self, field, A, B):
        self.field = field
        self.A = A
        self.B = B
        d = (A * A * A) * field.from_int(64) + (B * B) * field.from_int(432)
        if not d:
            raise SingularCurveError("discriminant is zero")

    def f(self, x):
        """Right-hand side x^3 + A x + B."""
        return x * x * x + self.A * x + self.B

    def neg(self, P):
        if P is None:
            return None
        return (P[0], -P[1])

    def chord(self, P, Q):
        """(P + Q, slope of the line through P and Q, the tangent if P == Q).

        The slope is None when the line is vertical or a point is O."""
        if P is None:
            return Q, None
        if Q is None:
            return P, None
        x1, y1 = P
        x2, y2 = Q
        if x1 == x2:
            if y1 == -y2:
                return None, None
            lam = ((x1 * x1 + x1 * x1 + x1 * x1) + self.A) / (y1 + y1)
        else:
            lam = (y2 - y1) / (x2 - x1)
        x3 = lam * lam - x1 - x2
        return (x3, lam * (x1 - x3) - y1), lam

    def add(self, P, Q):
        return self.chord(P, Q)[0]

    def double(self, P):
        return self.add(P, P)

    def mul(self, P, k: int):
        if k < 0:
            return self.mul(self.neg(P), -k)
        R = None
        Q = P
        while k:
            if k & 1:
                R = self.add(R, Q)
            Q = self.add(Q, Q)
            k >>= 1
        return R


# ---------------------------------------------------------------------------
# F_p point counting
# ---------------------------------------------------------------------------

#: x values per numpy pass of count_points_prime: a smaller p is one pass
COUNT_CHUNK = 1 << 16


def count_points_prime(p: int, A: int, B: int) -> int:
    """|E(F_p)| including infinity, by quadratic-character table.

    The table of squares takes one byte per element of F_p; the int64 work
    runs over COUNT_CHUNK values of x at a time, so it does not grow with p."""
    chunk = COUNT_CHUNK
    sq = np.zeros(p, dtype=bool)
    half = p // 2 + 1                   # x and -x have the same square
    for lo in range(0, half, chunk):
        xs = np.arange(lo, min(lo + chunk, half), dtype=np.int64)
        sq[xs * xs % p] = True
    zero = on = 0
    for lo in range(0, p, chunk):
        xs = np.arange(lo, min(lo + chunk, p), dtype=np.int64)
        fx = (xs * xs % p * xs + A * xs + B) % p
        zero += int((fx == 0).sum())
        on += int((sq[fx] & (fx != 0)).sum())
    return 1 + zero + 2 * on


# ---------------------------------------------------------------------------
# division polynomials over F_p
# ---------------------------------------------------------------------------

class DivisionPolynomials:
    """y-stripped division polynomials of y^2 = x^3 + Ax + B over F_p.

    self[m] is the polynomial in x: for odd m the full m-th division
    polynomial, for even m its cofactor after removing the factor 2y... more
    precisely the classical sequence with psi_2 = 2y stored as the constant 2.
    Indexing follows the usual recurrences with f(x)^2 patched in wherever a
    y^4 appeared.
    """

    def __init__(self, p: int, A: int, B: int):
        self.p = p
        self.A = A % p
        self.B = B % p
        f = np.array([self.B, self.A, 0, 1], dtype=np.int64)
        self.curve_poly = f
        self.f_sq = poly_mul(f, f, p)
        A2 = self.A * self.A % p
        psi3 = np.array([(-A2) % p, 12 * self.B % p, 6 * self.A % p, 0, 3], dtype=np.int64)
        psi4 = (4 * np.array(
            [
                (-8 * self.B * self.B - self.A * A2) % p,
                (-4 * self.A * self.B) % p,
                (-5 * A2) % p,
                (20 * self.B) % p,
                (5 * self.A) % p,
                0,
                1,
            ],
            dtype=np.int64,
        )) % p
        self._cache: dict[int, np.ndarray] = {
            -1: np.array([p - 1], dtype=np.int64),
            0: np.array([0], dtype=np.int64),
            1: np.array([1], dtype=np.int64),
            2: np.array([2], dtype=np.int64),
            3: psi3,
            4: psi4,
        }

    def __getitem__(self, m: int) -> np.ndarray:
        if m in self._cache:
            return self._cache[m]
        p = self.p
        k = m // 2
        if m % 2 == 1:
            t1 = poly_mul(self[k + 2], poly_mul(self[k], poly_mul(self[k], self[k], p), p), p)
            t2 = poly_mul(self[k - 1], poly_mul(self[k + 1], poly_mul(self[k + 1], self[k + 1], p), p), p)
            if k % 2 == 0:
                t1 = poly_mul(t1, self.f_sq, p)
            else:
                t2 = poly_mul(t2, self.f_sq, p)
            out = poly_sub(t1, t2, p)
        else:
            a = poly_mul(self[k + 2], poly_mul(self[k - 1], self[k - 1], p), p)
            b = poly_mul(self[k - 2], poly_mul(self[k + 1], self[k + 1], p), p)
            out = poly_mul(self[k], poly_sub(a, b, p), p) * pow(2, p - 2, p) % p
        out = poly_trim(out)
        self._cache[m] = out
        return out

    def torsion_x_polynomial(self, m: int):
        """The monic x-polynomial of E[m] for m >= 2.

        For m >= 3 its roots are the abscissas of the m-torsion points P
        with 2P != O; for even m the abscissas of the 2-torsion points —
        the roots of the curve cubic, which m = 2 returns — complete the
        picture.
        """
        if m < 2:
            raise ValueError(f"m must be at least 2, got {m}")
        return poly_make_monic(self.curve_poly if m == 2 else self[m], self.p)
