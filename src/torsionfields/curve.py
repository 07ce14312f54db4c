"""Short Weierstrass curves y^2 = x^3 + A*x + B and their division polynomials.

The group law is written against the duck typed element protocol (+, -, *,
/, ==), so the same code serves prime fields, extensions, quadratic lifts,
and exact rationals.  Points are (x, y) tuples, with None for the point at
infinity — nothing projective is needed here.
``EllipticCurve.chord`` is the one chord-and-tangent step: it returns the sum
and the slope of its line, which ``add`` drops and the Miller loop evaluates.
Scalar multiples are a binary ladder (``mul``) or, for scalars of many times
log2 q bits, a Frobenius expansion (``frobenius_mul``).

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
            xx = x1 * x1
            lam = (xx + xx + xx + self.A) / (y1 + y1)
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
            k >>= 1
            if k:
                Q = self.add(Q, Q)
        return R

    def frobenius_mul(self, P, k: int, trace: int):
        """k P by the Frobenius expansion, for P in E(F) with E defined over
        the prime field F_q and trace = q + 1 - |E(F_q)|.

        The q-power Frobenius pi satisfies pi^2 = trace pi - q on E, so
        k = sum c_i pi^i (``frobenius_digits``), and pi^n = 1 on E(F) for
        n = [F : F_q] folds digit i onto i mod n.  The n folded digits, each
        about q in size, are evaluated together on the conjugates pi^i(P)
        from their signed binary digits: about log2 q doublings and
        n log2(q) / 3 additions, where ``mul`` takes n log2 q doublings.
        """
        F = self.field
        folded = [0] * F.degree
        for i, c in enumerate(frobenius_digits(k, F.p, trace)):
            folded[i % F.degree] += c
        while folded and not folded[-1]:
            folded.pop()
        if P is None or not folded:
            return None
        adds = [[] for _ in range(max(abs(c) for c in folded).bit_length() + 1)]
        R = P
        for i, c in enumerate(folded):
            if i:
                R = (F.frobenius_power(R[0], 1), F.frobenius_power(R[1], 1))
            for bit, d in enumerate(_naf(c)):
                if d:
                    adds[bit].append(R if d > 0 else self.neg(R))
        acc = None
        for points in reversed(adds):
            acc = self.add(acc, acc)
            for T in points:
                acc = self.add(acc, T)
        return acc


def frobenius_digits(k: int, q: int, trace: int) -> list[int]:
    """Digits c_0, c_1, ... with k = sum c_i pi^i in Z[pi], pi^2 = trace pi - q.

    One division by pi: u + v pi = c + pi ((v + trace w) - w pi), where c is
    the symmetric remainder of u mod q and w = (u - c) / q, since
    q = pi (trace - pi).  It runs while the norm u^2 + trace uv + q v^2 is at
    least q^2, which it divides by at least q / 2.25; the remainder u + v pi
    then gives the last two digits.  Dividing on to u = v = 0 would cycle
    for (q, trace) = (5, +-4) and (7, +-5).  The norm is positive definite,
    so the loop ends, only for trace^2 < 4q, which Hasse's bound gives.
    """
    if trace * trace >= 4 * q:
        raise ValueError(f"trace {trace} breaks the Hasse bound for q = {q}")
    u, v, digits = k, 0, []
    while u * u + trace * u * v + q * v * v >= q * q:
        c = (u + q // 2) % q - q // 2
        w = (u - c) // q
        digits.append(c)
        u, v = v + trace * w, -w
    return digits + [u, v]


def _naf(k: int) -> list[int]:
    """Signed binary digits of k in {-1, 0, 1}, least significant first,
    no two adjacent ones nonzero."""
    digits = []
    while k:
        d = 2 - (k & 3) if k & 1 else 0
        digits.append(d)
        k = (k - d) >> 1
    return digits


# ---------------------------------------------------------------------------
# F_p point counting
# ---------------------------------------------------------------------------

#: x values per numpy pass of count_points_prime: a smaller p is one pass
COUNT_CHUNK = 1 << 16


def count_points_prime(p: int, A: int, B: int) -> int:
    """|E(F_p)| including infinity, by quadratic-character table.

    The table of squares takes one byte per element of F_p; the int64 work
    runs over COUNT_CHUNK values of x at a time, so it does not grow with p.
    A and B are reduced mod p first: numpy would wrap or reject larger ints."""
    A, B, chunk = A % p, B % p, COUNT_CHUNK
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
