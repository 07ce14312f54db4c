"""Reference helpers that only the tests use: polynomials over F_p, points
on curves over F_p, field arithmetic by the textbook formulas, and the
seeded torsion instances whose construction records the tests pin
(``scripts/construction_hash.py`` hashes them too)."""

import random

import numpy as np

from torsionfields.curve import discriminant
from torsionfields.finitefield import (
    poly_deg,
    poly_is_irreducible,
    poly_pow_mod,
    pow_elt,
    primes_in_range,
)
from torsionfields.torsion import _encode_point


def poly_eval(a: np.ndarray, x: int, p: int) -> int:
    acc = 0
    for c in a[::-1]:
        acc = (acc * x + int(c)) % p
    return acc


def find_irreducible(p: int, k: int) -> np.ndarray:
    """First monic irreducible of degree k over F_p in lexicographic order.

    Coefficient tuples (c_{k-1}, ..., c_0) are scanned in ascending order, so
    find_irreducible(5, 2) is x^2 + 2.
    """
    if k < 1:
        raise ValueError("degree must be at least 1")
    if k == 1:
        return np.array([0, 1], dtype=np.int64)
    for idx in range(p ** k):
        coeffs = np.zeros(k + 1, dtype=np.int64)
        coeffs[k] = 1
        rem = idx
        for pos in range(k):  # constant term varies fastest
            coeffs[pos] = rem % p
            rem //= p
        if poly_is_irreducible(coeffs, p):
            return coeffs
    raise RuntimeError("no irreducible found (unreachable)")


def is_square_mod(t: np.ndarray, g: np.ndarray, p: int) -> bool:
    """Is t a nonzero square in the field F_p[x]/(g), g monic irreducible?"""
    s = poly_pow_mod(t, (p ** poly_deg(g) - 1) // 2, g, p)
    return len(s) == 1 and int(s[0]) == 1


# ---------------------------------------------------------------------------
# field elements
# ---------------------------------------------------------------------------

def quad_mul_reference(t, a, b, c, d):
    """(a + bY)(c + dY) with Y^2 = t by five base-field products."""
    return a * c + (b * d) * t, a * d + b * c


def is_square_euler(x) -> bool:
    """Euler criterion: x = 0 or x^{(q-1)/2} = 1 in x's field of order q."""
    if not x:
        return True
    return pow_elt(x, (x.field.order() - 1) // 2) == x.field.one()


def ts_sqrt_reference(field, a):
    """Tonelli-Shanks with three exponentiations a call (z^m0, a^m0 and
    a^((m0 + 1)/2), q - 1 = 2^s m0) and the first nonresidue z scanned
    afresh; the canonical root (smaller encode()) or None."""
    if not a:
        return field.zero()
    if not is_square_euler(a):
        return None
    q, one = field.order(), field.one()
    if q % 4 == 3:
        r = pow_elt(a, (q + 1) // 4)
    else:
        m0, s = q - 1, 0
        while m0 % 2 == 0:
            m0 //= 2
            s += 1
        i = field.p if q != field.p else 2
        while is_square_euler(field.nth_element(i)):
            i += 1
        z = field.nth_element(i)
        m, c, t, r = s, pow_elt(z, m0), pow_elt(a, m0), pow_elt(a, (m0 + 1) // 2)
        while t != one:
            i, tt = 0, t
            while tt != one:
                tt = tt * tt
                i += 1
            b = pow_elt(c, 1 << (m - i - 1))
            m, c = i, b * b
            t, r = t * c, r * b
    assert r * r == a
    return r if r.encode() <= (-r).encode() else -r


# ---------------------------------------------------------------------------
# points of E: y^2 = x^3 + Ax + B
# ---------------------------------------------------------------------------

ENUMERATION_CAP = 10 ** 6


def is_on_curve(E, P) -> bool:
    if P is None:
        return True
    x, y = P
    return y * y == E.f(x)


def x_of_double(E, x):
    """x(2P) from x(P): (x^4 - 2A x^2 - 8B x + A^2) / (4(x^3 + A x + B)).

    Raises ValueError on 2-torsion abscissas (where 2P is at infinity).
    """
    den = E.f(x)
    if not den:
        raise ValueError("x is a 2-torsion abscissa; 2P is at infinity")
    sq = x * x - E.A
    num = sq * sq - (E.B * x) * E.field.from_int(8)
    return num / (den * E.field.from_int(4))


def enumerate_points(curve):
    """All points of a curve over a PrimeField (None for infinity first).

    Refuses fields larger than the enumeration cap.
    """
    F = curve.field
    p = F.order()
    if p > ENUMERATION_CAP:
        raise ValueError("field too large to enumerate")
    pts = [None]
    for xv in range(p):
        x = F.from_int(xv)
        fx = curve.f(x)
        if not fx:
            pts.append((x, F.zero()))
            continue
        r = F.sqrt(fx)
        if r is not None:
            pts.append((x, r))
            pts.append((x, -r))
    return pts


# ---------------------------------------------------------------------------
# seeded torsion instances
# ---------------------------------------------------------------------------

def seeded_curves(count, seed=14, low_m=3):
    """(q, A, B, m) with q < 150 prime, low_m <= m <= 13, q not dividing m
    and E nonsingular mod q, drawn from random.Random(seed)."""
    rng = random.Random(seed)
    primes = primes_in_range(5, 150)
    while count:
        m, q = rng.randrange(low_m, 14), rng.choice(primes)
        A, B = rng.randrange(q), rng.randrange(q)
        if m % q and discriminant(A, B) % q:
            count -= 1
            yield q, A, B, m


def construction_record(td):
    """n, Frobenius, pairing root, table and decomposition, as one string."""
    table = [_encode_point(td.table[key]) for key in sorted(td.table)]
    decomp = sorted((key, code) for code, key in td._decomp.items())
    return repr((td.n, td.frobenius, td.zeta.encode(), table, decomp))
