"""Degree estimation for torsion fields from reduction data alone.

Everything here looks at a curve over Q only through its reductions mod
good primes ell: the trace of Frobenius, and, where the trace leaves a
choice, how the torsion abscissa polynomial factors over F_ell.  That is
enough to recover, prime by prime, the order n_ell of Frobenius acting on
the m-torsion — without ever building the torsion field of the reduction —
and from the stream of those local fingerprints to estimate the degree of
the m-th torsion field of the original curve.

Three estimation regimes, picked by m:

* m in {2, 3, 4}: match the observed fingerprints against the catalog of
  det-surjective subgroups of GL2(Z/m).  A fingerprint is a conjugation
  invariant of a single matrix, so the true mod-m image is always
  compatible; among compatible classes we keep the one whose fingerprint
  *frequencies* best explain the sample (two nested classes can share a
  fingerprint support, but never its equidistribution statistics).
* m prime, m >= 5: the trace/determinant surjectivity certificate; when
  it fires, the image is all of GL2(F_m) and the degree is |GL2(F_m)|.
* anything else: the lcm of the observed Frobenius orders, which is a
  lower bound (it divides the image's exponent) and is reported as such.

A fingerprint is ``matrix_fingerprint`` of the Frobenius matrix on E[m],
and the reduction fixes most of that matrix's class.  On E[m] Frobenius
has trace a_ell and determinant ell mod m; for even m its action on E[2]
is read off the factor degrees of the curve cubic, which need no
factoring: the cubic has a root iff |E(F_ell)| is even, and then splits
completely iff its discriminant -4A^3 - 27B^2 is a square (Stickelberger).
For prime m, (trace, det) fix the GL2(F_m) class except at a repeated
eigenvalue lambda = a/2, where Frobenius is lambda*I or a Jordan block
(Duke & Toth, Experiment. Math. 11, 2002; Sutherland, Forum Math. Sigma
4, 2016).  It is lambda*I iff x^{ell^k} = x modulo the m-division
polynomial, k the order of lambda in F_m^x/{+-1}: (lambda*I)^k = +-I fixes
every abscissa, while a Jordan block to the k-th power, k < m, moves one.

Where the key (trace, det, cubic degrees) still leaves a choice — for
m = 4 when Frobenius is the identity on E[2], and for m in {6, 8, 9, 10,
12} always — the fingerprint comes from a field-of-definition count: an
irreducible degree-d factor g of the abscissa polynomial carries 2d
torsion vectors; Frobenius^d fixes each abscissa, and fixes the points
themselves exactly when the curve cubic is a square in F_ell[x]/(g).  So
each factor contributes orbits of size d, d (square) or 2d (not), the
2-torsion cubic contributes its own factor degrees, and n_ell is the lcm
of all orbit sizes.  The factors themselves are never computed: the
distinct-degree blocks P_d of the abscissa polynomial (P_d the product of
its degree-d factors) give the factor degrees, and each block counts its
square factors as deg gcd(P_d, f^{(ell^d - 1)/2} - 1) / d, with f the
curve cubic.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import numpy as np

from .curve import DivisionPolynomials, count_points_prime, discriminant
from .finitefield import ModRing, distinct_degree_blocks, is_prime, poly_deg
from .gl2 import (
    ALL_WITNESSES,
    gl2_order,
    legendre,
    mat_det,
    mat_order,
    mat_trace,
    subgroup_catalog,
    surjectivity_heuristic,
    surjectivity_witnesses,
)

CATALOG_MODULI = (2, 3, 4)
HEURISTIC_MODULI = (5, 7, 11, 13)
DEFAULT_BUDGET = 120
DEFAULT_WINDOW = 15
_PRIME_SCAN_CAP = 10**7


def _mod(q: Fraction, p: int) -> int:
    return q.numerator * pow(q.denominator, -1, p) % p


def good_primes(A: Fraction, B: Fraction, m: int):
    """Primes of good reduction usable for mod-m Frobenius sampling.

    Skips 2 and 3, divisors of m, divisors of either denominator, and
    divisors of the discriminant numerator.
    """
    den = A.denominator * B.denominator
    disc_num = abs(discriminant(A, B).numerator)
    ell = 5
    while ell < _PRIME_SCAN_CAP:
        if (
            is_prime(ell)
            and m % ell != 0
            and den % ell != 0
            and disc_num % ell != 0
        ):
            yield ell
        ell += 2


# ---------------------------------------------------------------------------
# per-prime fingerprints
# ---------------------------------------------------------------------------


def frobenius_fingerprint(ell: int, A: Fraction, B: Fraction, m: int):
    """(trace a_ell, order n_ell, fingerprint tuple) of Frobenius mod ell.

    The fingerprint is (a mod m, ell mod m, n_ell, sorted factor degrees of
    the exact-order abscissa polynomial, sorted torsion-vector orbit sizes,
    sorted 2-torsion cubic factor degrees), with empty tuples for the parts
    that do not apply (no abscissa part for m = 2, no cubic part for odd m):
    ``matrix_fingerprint`` of the Frobenius matrix on E[m].  It is looked up
    by (a mod m, ell mod m, cubic degrees); the division polynomial is read
    only when that key leaves a choice (see the module docstring).
    """
    a_red, b_red = _mod(A, ell), _mod(B, ell)
    n_pts = count_points_prime(ell, a_red, b_red)
    a = ell + 1 - n_pts
    cub = _cubic_degrees(ell, a_red, b_red, n_pts) if m % 2 == 0 else ()

    fps = _key_fingerprints(m, a % m, ell % m, cub)
    if len(fps) == 1:
        fp = fps[0]
    elif len(fps) == 2 and is_prime(m):
        # a repeated eigenvalue: lambda*I has order prime to m, a Jordan block not
        scalar = _frobenius_is_scalar(ell, a_red, b_red, m, a)
        fp = next(f for f in fps if (f[2] % m != 0) == scalar)
    else:
        fp = _block_fingerprint(ell, a_red, b_red, m, a, cub)
    return a, fp[2], fp


def _cubic_degrees(ell: int, a_red: int, b_red: int, n_pts: int) -> tuple[int, ...]:
    """Factor degrees of x^3 + Ax + B over F_ell, ascending: it has a root iff
    |E(F_ell)| is even, and then three iff its discriminant is a square (a
    squarefree polynomial of degree n with r irreducible factors has square
    discriminant iff n - r is even: Stickelberger)."""
    if n_pts % 2:
        return (3,)
    if legendre(-4 * a_red**3 - 27 * b_red**2, ell) == 1:
        return (1, 1, 1)
    return (1, 2)


def _key_fingerprints(m: int, tr: int, det: int, cub: tuple[int, ...]) -> tuple:
    """Every fingerprint of a matrix in GL2(Z/m) with this trace, determinant
    and action on E[2]; empty where no table is kept."""
    if m in CATALOG_MODULI:
        return _catalog_table(m).get((tr, det, cub), ())
    if is_prime(m):
        return _companion_fingerprints(m, tr, det)
    return ()


@lru_cache(maxsize=None)
def _catalog_table(m: int) -> dict:
    """The full group's fingerprints by (trace, det, cubic degrees)."""
    full = next(mult for order, mult in _catalog_fingerprints(m) if order == gl2_order(m))
    table: dict = {}
    for fp in sorted(full):
        key = (fp[0], fp[1], fp[5])
        table[key] = table.get(key, ()) + (fp,)
    return table


@lru_cache(maxsize=None)
def _companion_fingerprints(m: int, tr: int, det: int) -> tuple:
    """For prime m: the companion matrix of T^2 - tr T + det is conjugate to
    every matrix with that characteristic polynomial except lambda*I at a
    repeated eigenvalue lambda = tr/2 (where it is the Jordan block)."""
    fps = {matrix_fingerprint((0, -det % m, 1, tr), m)}
    if (tr * tr - 4 * det) % m == 0:
        lam = tr * (m + 1) // 2 % m
        fps.add(matrix_fingerprint((lam, 0, 0, lam), m))
    return tuple(sorted(fps))


def _frobenius_is_scalar(ell: int, a_red: int, b_red: int, m: int, a: int) -> bool:
    """Is Frobenius lambda*I on E[m], lambda = a/2 and m an odd prime?  Iff
    x^{ell^k} = x modulo the m-division polynomial, k the order of lambda in
    F_m^x/{+-1}."""
    lam = a * (m + 1) // 2 % m
    k, lam_k = 1, lam
    while lam_k not in (1, m - 1):
        k, lam_k = k + 1, lam_k * lam % m
    poly = DivisionPolynomials(ell, a_red, b_red).torsion_x_polynomial(m)
    ring = ModRing(poly, ell)
    h = np.array([0, 1], dtype=np.int64)
    for _ in range(k):
        h = ring.pow(h, ell)
    return h.tolist() == [0, 1]


def _block_fingerprint(ell: int, a_red: int, b_red: int, m: int, a: int,
                       cub: tuple[int, ...]):
    """The fingerprint by the field-of-definition count over the
    distinct-degree blocks of the abscissa polynomial, for m >= 3."""
    dp = DivisionPolynomials(ell, a_red, b_red)
    poly = dp.torsion_x_polynomial(m)
    main_degs: list[int] = []
    vec_degs: list[int] = []
    for d, part, squares in distinct_degree_blocks(poly, ell, dp.curve_poly):
        count, on_squares = poly_deg(part) // d, poly_deg(squares) // d
        main_degs.extend([d] * count)
        vec_degs.extend([d] * (2 * on_squares) + [2 * d] * (count - on_squares))
    n = math.lcm(1, *vec_degs, *cub)
    return (a % m, ell % m, n, tuple(sorted(main_degs)), tuple(sorted(vec_degs)), cub)


# ---------------------------------------------------------------------------
# catalog signatures (the same invariants, computed from a matrix)
# ---------------------------------------------------------------------------


def _act(M, v, m):
    return ((M[0] * v[0] + M[1] * v[1]) % m, (M[2] * v[0] + M[3] * v[1]) % m)


@lru_cache(maxsize=None)
def _exact_vectors(m: int):
    return tuple(
        (v1, v2)
        for v1 in range(m)
        for v2 in range(m)
        if math.gcd(math.gcd(v1, v2), m) == 1
    )


@lru_cache(maxsize=None)
def _abscissa_classes(m: int):
    seen: set = set()
    reps = []
    for v in _exact_vectors(m):
        key = min(v, ((-v[0]) % m, (-v[1]) % m))
        if key not in seen:
            seen.add(key)
            reps.append(key)
    return tuple(reps)


def _orbit_sizes(step, points):
    seen: set = set()
    sizes = []
    for v in points:
        if v in seen:
            continue
        w, n = v, 0
        while w not in seen:
            seen.add(w)
            n += 1
            w = step(w)
        sizes.append(n)
    return tuple(sorted(sizes))


def matrix_fingerprint(M, m: int):
    """The fingerprint a Frobenius equal to M (column action) would produce."""
    if m == 2:
        main: tuple[int, ...] = ()
        vec: tuple[int, ...] = ()
    else:
        main = _orbit_sizes(
            lambda v: min(_act(M, v, m), _act(M, ((-v[0]) % m, (-v[1]) % m), m)),
            _abscissa_classes(m),
        )
        vec = _orbit_sizes(lambda v: _act(M, v, m), _exact_vectors(m))
    if m % 2 == 0:
        N = tuple(x % 2 for x in M)
        cub = _orbit_sizes(lambda v: _act(N, v, 2), ((0, 1), (1, 0), (1, 1)))
    else:
        cub = ()
    return (mat_trace(M, m), mat_det(M, m), mat_order(M, m), main, vec, cub)


@lru_cache(maxsize=None)
def _catalog_fingerprints(m: int):
    return tuple(
        (order, dict(Counter(matrix_fingerprint(M, m) for M in sub)))
        for order, sub in subgroup_catalog(m)
    )


@lru_cache(maxsize=None)
def _catalog_log_terms(m: int):
    """Per catalog class: (order, {fingerprint: log(multiplicity) - log(order)})."""
    return tuple(
        (order, {fp: math.log(k) - math.log(order) for fp, k in mult.items()})
        for order, mult in _catalog_fingerprints(m)
    )


def _catalog_estimate(classes, observed: Counter) -> int:
    """The order of the class of best likelihood, the smaller on a tie, among
    `classes`: the entries of ``_catalog_log_terms`` whose support holds
    every observed fingerprint."""
    best = None
    for order, terms in classes:
        loglik = sum(cnt * terms[fp] for fp, cnt in observed.items())
        key = (-loglik, order)
        if best is None or key < best:
            best = key
    if best is None:
        raise ArithmeticError("no catalog class fits; the full group always does")
    return best[1]


# ---------------------------------------------------------------------------
# degree estimation
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class OracleEstimate:
    """Outcome of a Frobenius-order survey for one curve and one m."""

    A: Fraction
    B: Fraction
    m: int
    budget: int
    window: int
    primes: tuple[int, ...]
    orders: tuple[int, ...]
    lcms: tuple[int, ...]
    estimate: int
    stabilized: bool
    method: str

    @property
    def lcm(self) -> int:
        return self.lcms[-1] if self.lcms else 1

    def to_json(self) -> dict:
        return {
            "schema": "1",
            "A": str(self.A),
            "B": str(self.B),
            "m": self.m,
            "budget": self.budget,
            "window": self.window,
            "primes": list(self.primes),
            "orders": list(self.orders),
            "lcm": self.lcm,
            "estimate": self.estimate,
            "stabilized": self.stabilized,
            "method": self.method,
        }


def chebotarev_degree(
    A,
    B,
    m: int,
    budget: int = DEFAULT_BUDGET,
    window: int = DEFAULT_WINDOW,
) -> OracleEstimate:
    """Estimate [Q(E[m]) : Q] from Frobenius data at `budget` good primes.

    Deterministic in its arguments.  `stabilized` records whether the
    estimate was unchanged over the final `window` primes; for m in
    {2, 3, 4} a stabilized estimate is the degree the exact classifiers
    compute.  The running lcm of the n_ell is monotone and divides
    |GL2(Z/m)| whatever the method.
    """
    A, B = Fraction(A), Fraction(B)
    if not 2 <= m <= 13:
        raise ValueError(f"m must be between 2 and 13, got {m}")
    if budget < 1:
        raise ValueError("budget must be positive")
    if window < 1:
        raise ValueError("window must be positive")
    if discriminant(A, B) == 0:
        raise ValueError("singular curve")

    use_catalog = m in CATALOG_MODULI
    use_heuristic = m in HEURISTIC_MODULI

    observed: Counter = Counter()
    classes = _catalog_log_terms(m) if use_catalog else ()
    witnesses = 0  # surjectivity_heuristic's witnesses, one sample at a time
    primes: list[int] = []
    orders: list[int] = []
    lcms: list[int] = []
    history: list[int] = []
    running = 1
    method = "lcm"

    for ell in good_primes(A, B, m):
        if len(primes) >= budget:
            break
        a, n, fp = frobenius_fingerprint(ell, A, B, m)
        primes.append(ell)
        orders.append(n)
        running = math.lcm(running, n)
        lcms.append(running)

        if use_catalog:
            observed[fp] += 1
            classes = [c for c in classes if fp in c[1]]
            estimate = _catalog_estimate(classes, observed)
            method = "catalog"
        elif use_heuristic:
            witnesses |= surjectivity_witnesses(a, ell, m)
            if witnesses == ALL_WITNESSES:
                estimate = gl2_order(m)
                method = "full-image"
            else:
                estimate = running
                method = "lcm"
        else:
            estimate = running
        history.append(estimate)

    if not primes:
        raise ValueError("no good primes available for this curve")

    stabilized = len(history) > window and all(
        h == history[-1] for h in history[-window - 1 :]
    )
    return OracleEstimate(
        A=A,
        B=B,
        m=m,
        budget=budget,
        window=window,
        primes=tuple(primes),
        orders=tuple(orders),
        lcms=tuple(lcms),
        estimate=history[-1],
        stabilized=stabilized,
        method=method,
    )


# ---------------------------------------------------------------------------
# mod-p image surjectivity from traces
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ImageReport:
    """Verdict of the trace/determinant surjectivity certificate."""

    A: Fraction
    B: Fraction
    p: int
    samples: int
    used: int
    verdict: str

    def to_json(self) -> dict:
        return {
            "schema": "1",
            "A": str(self.A),
            "B": str(self.B),
            "p": self.p,
            "samples": self.samples,
            "used": self.used,
            "verdict": self.verdict,
        }


def image_report(A, B, p: int, samples: int = 40) -> ImageReport:
    """Try to certify that the mod-p image is all of GL2(F_p).

    Streams (a_ell, ell) pairs from good primes into the surjectivity
    certificate.  "Full" is proof; "Undecided" is abstention — CM curves,
    small images, and empty samples all land there.
    """
    A, B = Fraction(A), Fraction(B)
    if p < 5 or not is_prime(p):
        raise ValueError("p must be a prime >= 5")
    if samples < 0:
        raise ValueError("samples must be nonnegative")
    if discriminant(A, B) == 0:
        raise ValueError("singular curve")

    pairs: list[tuple[int, int]] = []
    for ell in good_primes(A, B, p):
        if len(pairs) >= samples:
            break
        a_red, b_red = _mod(A, ell), _mod(B, ell)
        a = ell + 1 - count_points_prime(ell, a_red, b_red)
        pairs.append((a, ell))

    verdict = "Full" if surjectivity_heuristic(pairs, p) == "Full" else "Undecided"
    return ImageReport(A=A, B=B, p=p, samples=samples, used=len(pairs), verdict=verdict)
