"""Output checks for the benchmark, computed apart from the package.

Every function here takes the program's output for one operation and either
returns normally or raises CheckError.  The arithmetic they rely on (point
counts, Frobenius traces over extensions, matrix orders mod m, residuals at
256 bits) is written out again below with plain Python integers and mpmath,
so a fault in the package's kernels cannot hide itself.  The checks run
outside the timed region and outside the trace.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction
from functools import lru_cache

import mpmath


class CheckError(AssertionError):
    """An output of the program contradicts an independent computation."""


def require(cond: bool, message: str) -> None:
    if not cond:
        raise CheckError(message)


# ---------------------------------------------------------------------------
# integers, point counts, matrices mod m
# ---------------------------------------------------------------------------

def is_prime(n: int) -> bool:
    if n < 2:
        return False
    return all(n % d for d in range(2, math.isqrt(n) + 1))


def frac_mod(x: Fraction, p: int) -> int:
    return x.numerator * pow(x.denominator, -1, p) % p


@lru_cache(maxsize=None)
def _squares(p: int) -> frozenset:
    return frozenset(x * x % p for x in range(1, p))


def count_points(p: int, a: int, b: int) -> int:
    """#E(F_p) for y^2 = x^3 + a x + b, one x at a time."""
    squares = _squares(p)
    total = 1
    for x in range(p):
        f = (x * x * x + a * x + b) % p
        total += 1 if f == 0 else (2 if f in squares else 0)
    return total


def cubic_root_count(p: int, a: int, b: int) -> int:
    return sum(1 for x in range(p) if (x * x * x + a * x + b) % p == 0)


def count_points_ext(q: int, t: int, n: int) -> int:
    """#E(F_{q^n}) from the trace t over F_q: s_k = t s_{k-1} - q s_{k-2}."""
    s_prev, s = 2, t
    for _ in range(n - 1):
        s_prev, s = s, t * s - q * s_prev
    return q ** n + 1 - s


def mult_order(x: int, m: int) -> int:
    x %= m
    k, y = 1, x
    while y != 1:
        y = y * x % m
        k += 1
    return k


def mat_mul(M, N, m: int):
    a, b, c, d = M
    e, f, g, h = N
    return ((a * e + b * g) % m, (a * f + b * h) % m,
            (c * e + d * g) % m, (c * f + d * h) % m)


def mat_order(M, m: int) -> int:
    ident = (1 % m, 0, 0, 1 % m)
    M = tuple(x % m for x in M)
    P, k = M, 1
    while P != ident:
        P = mat_mul(P, M, m)
        k += 1
        require(k <= m ** 4, f"matrix {M} is not invertible mod {m}")
    return k


@lru_cache(maxsize=None)
def orders_by_class(m: int) -> dict:
    """(trace, det) mod m -> set of orders of GL2(Z/m) elements with them."""
    out: dict = {}
    for a in range(m):
        for b in range(m):
            for c in range(m):
                for d in range(m):
                    det = (a * d - b * c) % m
                    if math.gcd(det, m) != 1:
                        continue
                    key = ((a + d) % m, det)
                    out.setdefault(key, set()).add(mat_order((a, b, c, d), m))
    return out


def frobenius_order_divisor(m: int, p: int, a: int, b: int) -> int:
    """A number that must divide the order of Frobenius at p on E[m].

    For prime m it is the least order over every matrix with the Frobenius
    characteristic polynomial, read off the naive trace.  For m = 4 it is the
    lcm of the order on E[2] (from the roots of the cubic) and ord_4(p).
    """
    if m == 4:
        n2 = {3: 1, 1: 2, 0: 3}[cubic_root_count(p, a, b)]
        return math.lcm(n2, mult_order(p, 4))
    tr = (p + 1 - count_points(p, a, b)) % m
    return min(orders_by_class(m)[(tr, p % m)])


# ---------------------------------------------------------------------------
# suite: one TorsionData instance and its reports
# ---------------------------------------------------------------------------

def _power(x, e: int, one):
    out = one
    while e:
        if e & 1:
            out = out * x
        x = x * x
        e >>= 1
    return out


def check_suite_instance(td, inputs, reports, rng: random.Random) -> None:
    """Every report passes and the instance obeys what F_q already fixes."""
    q, A, B, m = inputs
    require((td.q, td.A, td.B, td.m) == (q, A, B, m), "instance is not the requested curve")
    for rep in reports:
        require(rep.verdict == "pass", f"check {rep.theorem} failed on {inputs}")
    t = q + 1 - count_points(q, A, B)
    a, b, c, d = td.frobenius
    require((a + d - t) % m == 0, f"trace of Frobenius {td.frobenius} != {t} mod {m}")
    require((a * d - b * c - q) % m == 0, f"det of Frobenius {td.frobenius} != q mod {m}")
    require(td.n == mat_order(td.frobenius, m), f"n = {td.n} is not the order of {td.frobenius}")
    require(td.n % mult_order(q, m) == 0, f"ord_{m}({q}) does not divide n = {td.n}")
    require(count_points_ext(q, t, td.n) % (m * m) == 0,
            f"m^2 does not divide #E(F_q^{td.n})")

    one = td.field.one()
    require(_power(td.zeta, m, one) == one, "zeta is not an m-th root of unity")
    for ell in (p for p in range(2, m + 1) if m % p == 0 and is_prime(p)):
        require(_power(td.zeta, m // ell, one) != one, "zeta is not primitive")
    i, j = rng.randrange(m), rng.randrange(m)
    k, l = rng.randrange(m), rng.randrange(m)
    if (i, j) != (0, 0) and (k, l) != (0, 0):
        e = td.weil(td.point(i, j), td.point(k, l))
        require(e == _power(td.zeta, (i * l - j * k) % m, one),
                "pairing is not bilinear on the table")
    P = td.point(rng.randrange(1, m), rng.randrange(m))
    require(td.weil(P, P) == one, "pairing is not alternating")


# ---------------------------------------------------------------------------
# survey: one OracleEstimate
# ---------------------------------------------------------------------------

def is_good_prime(ell: int, A: Fraction, B: Fraction, m: int) -> bool:
    den = A.denominator * B.denominator
    disc = 4 * A ** 3 + 27 * B ** 2
    return (ell >= 5 and is_prime(ell) and m % ell and den % ell
            and disc.numerator % ell)


GL2_ORDER = {5: 480}


def check_survey(est, A: Fraction, B: Fraction, m: int, budget: int,
                 exact_degree: int | None, fingerprint) -> None:
    """The estimate agrees with naive counts and with the exact degree.

    `exact_degree` is the classifier's degree for m in {3, 4} and None for
    m = 5, where only |GL2(F_5)| bounds it.  `fingerprint(ell)` returns the
    package's (a_ell, n_ell, ...) at one prime; it is called at two primes of
    the survey to compare a_ell directly.
    """
    bound = GL2_ORDER[m] if exact_degree is None else exact_degree
    require(len(est.primes) == budget, f"survey used {len(est.primes)} primes, not {budget}")
    require(list(est.primes) == sorted(set(est.primes)), "primes are not increasing")
    require(len(est.orders) == len(est.primes), "one order per prime")
    running = 1
    for ell, n, lcm in zip(est.primes, est.orders, est.lcms):
        require(is_good_prime(ell, A, B, m), f"{ell} is not a good prime")
        a_red, b_red = frac_mod(A, ell), frac_mod(B, ell)
        a_ell = ell + 1 - count_points(ell, a_red, b_red)
        require(n in orders_by_class(m)[(a_ell % m, ell % m)],
                f"n_{ell} = {n} does not fit trace {a_ell} mod {m}")
        if m == 4:
            require(n % frobenius_order_divisor(4, ell, a_red, b_red) == 0,
                    f"n_{ell} = {n} misses the order on E[2]")
        require(n % mult_order(ell, m) == 0, f"ord_{m}({ell}) does not divide n_{ell}")
        require(bound % n == 0, f"n_{ell} = {n} does not divide the degree {bound}")
        running = math.lcm(running, n)
        require(lcm == running, "running lcm is wrong")
    for ell in (est.primes[0], est.primes[len(est.primes) // 2]):
        a_red, b_red = frac_mod(A, ell), frac_mod(B, ell)
        a_ell = ell + 1 - count_points(ell, a_red, b_red)
        require(fingerprint(ell)[0] == a_ell, f"a_{ell} differs from the naive count")
    if exact_degree is None:
        want = bound if est.method == "full-image" else est.lcm
        require(est.estimate == want, f"estimate {est.estimate} != {want} ({est.method})")
    elif est.stabilized:
        require(est.estimate == exact_degree,
                f"stabilized estimate {est.estimate} != exact degree {exact_degree}")


# ---------------------------------------------------------------------------
# classify: reports, radicals and 4-torsion points of one curve
# ---------------------------------------------------------------------------

RESIDUAL = mpmath.mpf("1e-9")
SMALL_PRIMES = (5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def _small(value, *terms) -> bool:
    return abs(value) <= RESIDUAL * (1 + sum(abs(t) for t in terms))


def check_classification(A: Fraction, B: Fraction, rep3, rep4, radicals, points4) -> None:
    """Degrees in range and divisible by small Frobenius orders; residuals."""
    for rep, top, m in ((rep3, 48, 3), (rep4, 96, 4)):
        require(rep.degree % 2 == 0 and top % rep.degree == 0,
                f"degree {rep.degree} of Q(E[{m}]) is not an even divisor of {top}")
        for ell in SMALL_PRIMES:
            if not is_good_prime(ell, A, B, m):
                continue
            div = frobenius_order_divisor(m, ell, frac_mod(A, ell), frac_mod(B, ell))
            require(rep.degree % div == 0,
                    f"Frobenius at {ell} has order divisible by {div}, "
                    f"which does not divide the degree {rep.degree} of Q(E[{m}])")
    require(rep4.structure["order"] == rep4.degree, "structure order != degree")

    xs, ys, _ = radicals
    require(len(xs) == 4 and len(ys) == 4, "radical_roots3 must give four points")
    with mpmath.workprec(256):
        a, b = mpmath.mpf(A.numerator) / A.denominator, mpmath.mpf(B.numerator) / B.denominator
        for x, y in zip(xs, ys):
            x, y = mpmath.mpc(x), mpmath.mpc(y)
            terms = (3 * x ** 4, 6 * a * x ** 2, 12 * b * x, a * a)
            require(_small(terms[0] + terms[1] + terms[2] - terms[3], *terms),
                    "radical abscissa is not a root of the 3-division polynomial")
            terms = (y * y, x ** 3, a * x, b)
            require(_small(terms[0] - terms[1] - terms[2] - terms[3], *terms),
                    "radical point is not on the curve")
        require(len(points4) == 6, "four_torsion_points must give six points")
        for pt in points4:
            x, y = mpmath.mpc(pt.x_num), mpmath.mpc(pt.y_num)
            terms = (y * y, x ** 3, a * x, b)
            fx = terms[1] + terms[2] + terms[3]
            require(_small(terms[0] - fx, *terms), "4-torsion point is not on the curve")
            num = (x * x - a) ** 2 - 8 * b * x
            # 2P must be a 2-torsion point: x(2P) is a root of the cubic
            dx = num / (4 * fx)
            terms = (dx ** 3, a * dx, b)
            require(_small(sum(terms), *terms), "2P is not a 2-torsion point")
            require(abs(fx) > 0, "a 4-torsion point has y = 0")


def twist_matches(base, twist) -> bool:
    """Isomorphic curves must classify alike: degree, group and structure."""
    (b3, b4), (t3, t4) = base, twist
    return (b3.degree, b3.group, b4.degree, b4.structure) == \
        (t3.degree, t3.group, t4.degree, t4.structure)
