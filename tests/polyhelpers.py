"""Polynomial helpers over F_p that only the tests use."""

import numpy as np

from torsionfields.finitefield import poly_deg, poly_is_irreducible, poly_pow_mod


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
