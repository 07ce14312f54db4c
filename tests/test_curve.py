import math
import os
import random
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import torsionfields
from torsionfields import curve
from torsionfields.curve import (
    DivisionPolynomials,
    EllipticCurve,
    SingularCurveError,
    count_points_prime,
    discriminant,
    frobenius_digits,
)
from torsionfields.finitefield import PrimeField, QuadExt, is_prime, poly_deg, primes_in_range
from torsionfields.gl2 import legendre
from torsionfields.torsion import MAX_Q, _group_order_over_ext, torsion_data

from polyhelpers import enumerate_points, is_on_curve, poly_eval, x_of_double


def test_discriminant_values():
    assert discriminant(0, 1) == -432
    assert discriminant(-1, 0) == 64
    assert discriminant(-3, 2) == 0  # (x-1)^2(x+2): singular


def test_singular_rejected():
    F = PrimeField(5)
    with pytest.raises(SingularCurveError):
        EllipticCurve(F, F.from_int(-3), F.from_int(2))


def test_six_points_on_mordell_curve_mod_5():
    F = PrimeField(5)
    E = EllipticCurve(F, F.zero(), F.one())
    pts = enumerate_points(E)
    assert len(pts) == 6
    assert count_points_prime(5, 0, 1) == 6
    for P in pts:
        assert is_on_curve(E, P)


def test_group_law_small_field():
    # brute force: point set is closed under addition and the law is
    # associative/commutative on every triple of a 6-element group
    F = PrimeField(5)
    E = EllipticCurve(F, F.zero(), F.one())
    pts = enumerate_points(E)

    def key(P):
        return None if P is None else (P[0].encode(), P[1].encode())

    keys = {key(P) for P in pts}
    for P in pts:
        for Q in pts:
            assert key(E.add(P, Q)) in keys
            assert key(E.add(P, Q)) == key(E.add(Q, P))
    for P in pts:
        assert E.add(P, E.neg(P)) is None
        assert key(E.mul(P, 6)) is None  # group order kills everything


def test_double_of_2_3_lands_on_x_zero():
    F = PrimeField(103)
    E = EllipticCurve(F, F.zero(), F.one())
    P = (F.from_int(2), F.from_int(3))
    assert is_on_curve(E, P)
    x2 = x_of_double(E, P[0])
    assert x2 == F.zero()
    assert E.double(P)[0] == F.zero()


def test_x_of_double_rejects_two_torsion():
    F = PrimeField(7)
    E = EllipticCurve(F, F.zero(), F.one())
    with pytest.raises(ValueError):
        x_of_double(E, F.from_int(-1))  # (-1, 0) has order 2


def test_x_of_double_matches_group_law():
    F = PrimeField(101)
    E = EllipticCurve(F, F.from_int(3), F.from_int(8))
    for P in enumerate_points(E):
        if P is None or not P[1]:
            continue
        D = E.double(P)
        assert x_of_double(E, P[0]) == D[0]


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10 ** 6), st.integers(0, 10 ** 6), st.integers(0, 10 ** 6))
def test_chord_identity(i, j, k):
    # y1*y2 == (x(P-Q) - x(P+Q)) * (x1 - x2)^2 / 4 for generic P, Q
    F = PrimeField(197)
    E = EllipticCurve(F, F.from_int(5), F.from_int(3))
    pts = [P for P in enumerate_points(E) if P is not None]
    P = pts[i % len(pts)]
    Q = pts[j % len(pts)]
    # the slope: -(P + Q) lies on the line through P (and Q) with that slope
    S, lam = E.chord(P, Q)
    if S is None:
        assert lam is None and P[0] == Q[0]
    else:
        assert S == E.add(P, Q)
        x3, y3 = S
        assert -y3 - P[1] == lam * (x3 - P[0])
        assert P == Q or Q[1] - P[1] == lam * (Q[0] - P[0])
    assert E.chord(P, E.neg(P)) == (None, None)
    assert E.chord(None, Q) == (Q, None)
    assert E.chord(Q, None) == (Q, None)
    if P[0] == Q[0]:
        return
    S = E.add(P, Q)
    D = E.add(P, E.neg(Q))
    if S is None or D is None:
        return
    lhs = P[1] * Q[1] * F.from_int(4)
    diff = P[0] - Q[0]
    rhs = (D[0] - S[0]) * diff * diff
    assert lhs == rhs


def test_hasse_bound_across_primes():
    for p in (5, 7, 11, 13, 17, 101, 199):
        for A, B in ((0, 1), (1, 1), (2, 3), (6, 5)):
            if (4 * A ** 3 + 27 * B ** 2) % p == 0:
                continue
            n = count_points_prime(p, A, B)
            assert (n - p - 1) ** 2 <= 4 * p


def test_count_matches_enumeration():
    for p in (5, 13, 37):
        F = PrimeField(p)
        for A, B in ((1, 3), (0, 2), (4, 4)):
            if (4 * A ** 3 + 27 * B ** 2) % p == 0:
                continue
            E = EllipticCurve(F, F.from_int(A), F.from_int(B))
            assert len(enumerate_points(E)) == count_points_prime(p, A, B)


def _naive_count(p, A, B):
    # 1 + sum over x of (1 + Legendre symbol of x^3 + A x + B)
    return 1 + sum(1 + legendre(x ** 3 + A * x + B, p) for x in range(p))


# p = 1009 squares x < 505 and counts x < 1009: chunks 64 and 72 end both
# ranges inside a pass, 505 fills the squares in exactly one pass, and 1008
# leaves a single x for the last one
@pytest.mark.parametrize("p, chunk", [(1009, 64), (1009, 72), (1009, 505),
                                      (1009, 1008), (97, 7), (9973, 1000)])
def test_count_across_chunk_boundaries(monkeypatch, p, chunk):
    monkeypatch.setattr(curve, "COUNT_CHUNK", chunk)
    for A, B in ((1, 1), (0, 3), (5, 0), (p - 1, 2)):
        assert count_points_prime(p, A, B) == _naive_count(p, A, B)


def test_count_memory_stays_bounded_at_large_q():
    # the int64 work runs in chunks: only the one-byte table grows with q
    script = ("import resource\n"
              "from torsionfields.curve import count_points_prime\n"
              "n = count_points_prime(10000019, 1, 1)\n"
              "print(n, resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)\n")
    src = os.path.dirname(os.path.dirname(torsionfields.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-c", script], env=env, check=True,
                         capture_output=True, text=True).stdout.split()
    n, peak_kb = int(out[0]), int(out[1])
    assert (n - 10000020) ** 2 <= 4 * 10000019
    assert peak_kb < 120 * 1024


# -- division polynomials ----------------------------------------------------


def test_psi_small_indices_frozen():
    D = DivisionPolynomials(101, 3, 7)
    assert list(D[0]) == [0]
    assert list(D[1]) == [1]
    assert list(D[2]) == [2]
    # 3x^4 + 6Ax^2 + 12Bx - A^2 with A=3, B=7
    assert list(D[3]) == [(-9) % 101, 84, 18, 0, 3]
    assert poly_deg(D[4]) == 6


def test_psi_degrees():
    D = DivisionPolynomials(199, 11, 17)
    for m in range(2, 14):
        want = (m * m - 1) // 2 if m % 2 else (m * m - 4) // 2
        assert poly_deg(D[m]) == want, m


def test_torsion_x_polynomial_monic_and_m5_degree():
    D = DivisionPolynomials(199, 11, 17)
    g = D.torsion_x_polynomial(5)
    assert poly_deg(g) == 12
    assert g[-1] == 1
    assert poly_deg(D.torsion_x_polynomial(2)) == 3
    assert poly_deg(D.torsion_x_polynomial(4)) == 6


def test_psi_divisibility():
    # psi_d divides psi_m whenever d | m (shared torsion abscissas)
    from torsionfields.finitefield import poly_divmod, poly_make_monic

    D = DivisionPolynomials(101, 3, 7)
    for m, d in ((6, 3), (8, 4), (9, 3), (10, 5), (12, 4), (12, 6)):
        top = poly_make_monic(D[m], 101)
        bot = poly_make_monic(D[d], 101)
        _, r = poly_divmod(top, bot, 101)
        assert not r.any()


def test_psi_roots_are_torsion_abscissas():
    # every root x0 of the m-th x-polynomial lifts to a point of order
    # dividing m (and not 2), checked through the group law
    p = 103
    F = PrimeField(p)
    A, B = 2, 5
    E = EllipticCurve(F, F.from_int(A), F.from_int(B))
    D = DivisionPolynomials(p, A, B)
    for m in (3, 4, 5, 7):
        g = D.torsion_x_polynomial(m)
        for x0 in range(p):
            if poly_eval(g, x0, p) != 0:
                continue
            x = F.from_int(x0)
            fx = E.f(x)
            # abscissa may only lift over an extension; here test F_p lifts
            y = F.sqrt(fx)
            if y is None:
                continue
            P = (x, y)
            assert E.mul(P, m) is None
            assert E.double(P) is not None


def test_psi_matches_multiplication_orders():
    # on a curve with known rational m-torsion the x-polynomial vanishes at
    # the torsion abscissa: y^2 = x^3 + 1 has (2,3) of order 6, (0,1) of 3
    p = 1009
    D = DivisionPolynomials(p, 0, 1)
    g3 = D.torsion_x_polynomial(3)
    assert poly_eval(g3, 0, p) == 0
    g6 = D.torsion_x_polynomial(6)
    assert poly_eval(g6, 2, p) == 0
    assert poly_eval(g3, 2, p) != 0


# ---------------------------------------------------------------------------
# scalar multiples by the Frobenius expansion
# ---------------------------------------------------------------------------

def _trace(q, A, B):
    return q + 1 - count_points_prime(q, A, B)


def _random_point(E, rng):
    F = E.field
    while True:
        x = F.nth_element(rng.randrange(F.order()))
        y = F.sqrt(E.f(x))
        if y is not None:
            return x, y


def test_frobenius_digits_sum_back_to_the_scalar():
    # sum c_i pi^i = k in Z[pi], pi^2 = t pi - q, for every trace of every
    # q < 200, the cycling pairs (5, +-4) and (7, +-5) among them
    rng = random.Random(3)
    for q in primes_in_range(5, 200):
        for t in range(-math.isqrt(4 * q), math.isqrt(4 * q) + 1):
            for k in [0, 1, -1, q - 1, q * q, rng.getrandbits(80), -rng.getrandbits(40)]:
                u = v = 0
                for c in reversed(frobenius_digits(k, q, t)):
                    u, v = c - q * v, u + t * v
                assert (u, v) == (k, 0), (q, t, k)
    with pytest.raises(ValueError):
        frobenius_digits(5, 5, 5)       # 25 >= 4 * 5: no Frobenius trace


@pytest.mark.parametrize("q, A, B, m, t", [
    (7, 0, 2, 3, -1),                   # PrimeField: E[3] is rational
    (5, 4, 0, 4, -2),                   # ExtField
    (13, 1, 1, 4, -4),                  # QuadExt
    (47, 1, 0, 5, 0),                   # trace 0, a benchmark slot
    # (q, t) where plain division by pi cycles
    (5, 2, 0, 3, 4), (5, 3, 0, 3, -4), (7, 0, 4, 4, 5), (7, 0, 3, 3, -5),
])
def test_frobenius_mul_matches_the_ladder(q, A, B, m, t):
    assert _trace(q, A, B) == t
    td = torsion_data(q, A, B, m)
    E, n = td.curve, td.n
    N = _group_order_over_ext(q, t, n)
    M = N
    while math.gcd(M, m) > 1:
        M //= math.gcd(M, m)
    rng = random.Random(q * 100 + m)
    scalars = [0, 1, N - 1, N, M] + [rng.getrandbits(80) for _ in range(4)]
    assert any(len(frobenius_digits(k, q, t)) > n for k in scalars)  # a fold
    for _ in range(3):
        P = _random_point(E, rng)
        assert E.mul(P, N) is None
        for k in scalars:
            assert E.frobenius_mul(P, k, t) == E.mul(P, k), k
    assert E.frobenius_mul(None, 5, t) is None


def test_frobenius_mul_near_the_largest_q():
    # y^2 = x^3 - x at the largest q = 1 mod 4 that torsion_data accepts:
    # q = a^2 + b^2 with a odd, and the trace is one of +-2a, +-2b
    q = next(p for p in range(MAX_Q, 0, -1) if p % 4 == 1 and is_prime(p))
    a = next(a for a in range(1, math.isqrt(q) + 1, 2) if math.isqrt(q - a * a) ** 2 == q - a * a)
    b = math.isqrt(q - a * a)
    F = PrimeField(q)
    E = EllipticCurve(F, F.from_int(-1), F.zero())
    rng = random.Random(8)
    pts = [_random_point(E, rng) for _ in range(3)]
    t, = (t for t in (2 * a, -2 * a, 2 * b, -2 * b) if all(E.mul(P, q + 1 - t) is None for P in pts))
    nonsquare = next(F.elt(v) for v in range(2, q) if pow(v, (q - 1) // 2, q) == q - 1)
    K = QuadExt(F, nonsquare)
    for curve in (E, EllipticCurve(K, K.from_int(-1), K.zero())):
        for _ in range(2):
            P = _random_point(curve, rng)
            for k in (q - 1, q * q + 1, rng.getrandbits(80)):
                assert curve.frobenius_mul(P, k, t) == curve.mul(P, k), k
