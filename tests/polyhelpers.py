"""Reference helpers that only the tests use: polynomials over F_p, points
on curves over F_p, and field arithmetic by the textbook formulas."""

import numpy as np

from torsionfields.finitefield import poly_deg, poly_is_irreducible, poly_pow_mod, pow_elt


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
