"""Order-3 coordinate-field classification over Q.

The frozen expectations were derived by hand from the radical formulas
(and the well-known small curves: y^2 = x^3 + 16 has a rational 3-point,
y^2 = x^3 + 1 generates Q(cbrt2, zeta3), ...).  A finite-field consistency
oracle cross-checks every frozen row: the Frobenius order at a good prime
must be an element order of the claimed Galois group, and their lcm over
many primes must reach the group exponent.
"""

import math
from fractions import Fraction

import mpmath
import pytest
from hypothesis import given, settings, strategies as st

from torsionfields.classify3 import (
    GROUP_ORDERS,
    Classification3Report,
    ClassificationDefect,
    classify3,
    conditions3,
    degree3,
    galois_group3,
    radical_roots3,
)
from torsionfields.finitefield import is_prime
from torsionfields.torsion import torsion_data


# ---------------------------------------------------------------------------
# numeric oracle for the radical formulas
# ---------------------------------------------------------------------------

def _quartic_roots(A, B, prec=256):
    """Roots of x^4 + 2A x^2 + 4B x - A^2/3 straight from mpmath.polyroots."""
    with mpmath.workprec(prec):
        A, B = Fraction(A), Fraction(B)
        coeffs = [mpmath.mpf(1), 0,
                  2 * mpmath.mpf(A.numerator) / A.denominator,
                  4 * mpmath.mpf(B.numerator) / B.denominator,
                  -mpmath.mpf(A.numerator ** 2) / (3 * A.denominator ** 2)]
        return mpmath.polyroots(coeffs, maxsteps=200, extraprec=120)


def _match_multisets(xs, ys, tol):
    with mpmath.workprec(300):
        ys = list(ys)
        for x in xs:
            best = min(range(len(ys)),
                       key=lambda i: abs(mpmath.mpc(x) - ys[i]))
            assert abs(mpmath.mpc(x) - ys[best]) < tol, (x, ys)
            ys.pop(best)


@pytest.mark.parametrize("A,B", [
    (0, 1), (0, 2), (0, -7), (-1, 0), (2, 14), (1, 1), (-2, 3),
    (Fraction(1, 2), Fraction(-1, 3)), (-15, 22), (0, 16),
])
def test_radical_abscissas_match_polyroots(A, B):
    xs, ys, _ = radical_roots3(A, B)
    _match_multisets(xs, _quartic_roots(A, B), mpmath.mpf(10) ** -25)
    # matching ordinates really sit on the curve (checked again externally)
    with mpmath.workprec(256):
        for x, y in zip(xs, ys):
            x = mpmath.mpc(x)
            lhs = y * y - (x ** 3 + mpmath.mpf(Fraction(A).numerator) /
                           Fraction(A).denominator * x +
                           mpmath.mpf(Fraction(B).numerator) /
                           Fraction(B).denominator)
            assert abs(lhs) < 1e-20


def test_radical_roots_trivial_factor():
    # A = 0: the quartic is x(x^3 + 4B); x = 0 must appear
    with mpmath.workprec(300):
        xs, _, data = radical_roots3(0, 1)
        assert min(abs(mpmath.mpc(x)) for x in xs) < 1e-30
        assert any(abs(mpmath.mpc(x) + mpmath.cbrt(4)) < 1e-30 for x in xs)
    assert data.branch == "Bnz"
    assert data.disc == -432


def test_radical_roots_vieta():
    with mpmath.workprec(300):
        for A, B in [(3, 4), (-5, 2), (7, -9), (0, 5), (-2, 0)]:
            xs, _, _ = radical_roots3(A, B)
            xs = [mpmath.mpc(x) for x in xs]
            assert abs(sum(xs)) < 1e-30
            pair = sum(xs[i] * xs[j]
                       for i in range(4) for j in range(i + 1, 4))
            assert abs(pair - 2 * A) < 1e-28


def test_radical_roots_residual_sweep():
    # the function self-checks residuals and raises on failure
    import random
    rng = random.Random(7)
    seen = 0
    while seen < 50:
        A, B = rng.randint(-60, 60), rng.randint(-60, 60)
        if 4 * A ** 3 + 27 * B ** 2 == 0:
            continue
        radical_roots3(A, B)
        seen += 1


def test_singular_rejected():
    with pytest.raises(ValueError):
        radical_roots3(-3, 2)
    with pytest.raises(ValueError):
        classify3(0, 0)


# ---------------------------------------------------------------------------
# cube-root condition (checked against integer arithmetic, not the
# number-field helpers the classifier itself uses)
# ---------------------------------------------------------------------------

def _int_is_cube(n: int) -> bool:
    if n < 0:
        return _int_is_cube(-n)
    r = round(n ** (1 / 3))
    return any((r + d) ** 3 == n for d in (-1, 0, 1))


@pytest.mark.parametrize("A,B,expect", [
    (0, -1, True),    # disc = -432, not a cube
    (0, 1, True),
    (2, 14, False),   # disc = (-44)^3
    (0, 16, False),   # disc = (-48)^3
    (1, 1, True),
])
def test_cube_root_condition(A, B, expect):
    disc = -432 * B * B - 64 * A ** 3
    # the flag is off exactly when the (signed) discriminant is an integer cube
    assert _int_is_cube(disc) == (not expect)
    flags, conf = conditions3(A, B)
    assert conf == "exact"
    assert flags["cube_root"] is expect


# ---------------------------------------------------------------------------
# frozen classifications
# ---------------------------------------------------------------------------

# (A, B) -> (flags that hold, degree, group)
FROZEN = {
    (0, 1): ({"cube_root", "sqrt_delta"}, 6, "S3"),
    (0, 2): ({"sqrt_delta", "ordinate"}, 4, "Z2xZ2"),
    (0, -7): ({"cube_root", "sqrt_delta", "ordinate"}, 12, "D6"),
    (0, -1): ({"cube_root", "sqrt_delta", "ordinate"}, 12, "D6"),
    (0, 16): ({"sqrt_delta"}, 2, "Z2"),
    (2, 14): ({"sqrt_c", "sqrt_delta", "ordinate", "zeta"}, 16, "SD8"),
    (-1, 0): ({"sqrt3", "abscissa", "ordinate", "zeta"}, 16, "SD8"),
    (1, 0): ({"sqrt3", "abscissa", "ordinate", "zeta"}, 16, "SD8"),
    (3, 0): ({"sqrt3", "abscissa", "ordinate", "zeta"}, 16, "SD8"),
    (1, 1): ({"cube_root", "sqrt_c", "sqrt_delta", "ordinate", "zeta"},
             48, "GL2_3"),
    (-2, 1): ({"cube_root", "sqrt_c", "sqrt_delta", "ordinate", "zeta"},
              48, "GL2_3"),
    (-15, 22): ({"cube_root", "sqrt_delta"}, 6, "S3"),
}

#: element orders of each group the classifier can report
ELEMENT_ORDERS = {
    "1": {1}, "Z2": {1, 2}, "Z3": {1, 3}, "Z4": {1, 2, 4},
    "Z2xZ2": {1, 2}, "S3": {1, 2, 3}, "Z6": {1, 2, 3, 6},
    "D4": {1, 2, 4}, "Q8": {1, 2, 4}, "D6": {1, 2, 3, 6},
    "SD8": {1, 2, 4, 8}, "SL2_3": {1, 2, 3, 4, 6},
    "GL2_3": {1, 2, 3, 4, 6, 8},
}


@pytest.mark.parametrize("A,B", sorted(FROZEN))
def test_frozen_classifications(A, B):
    flags, degree, group = FROZEN[(A, B)]
    rep = classify3(A, B)
    assert {k for k, v in rep.flags.items() if v} == flags
    assert rep.degree == degree
    assert rep.group == group
    assert rep.confidence == "exact"
    assert rep.delta == -16 * (4 * A ** 3 + 27 * B ** 2)


@pytest.mark.parametrize("A,B", sorted(FROZEN))
def test_frozen_rows_against_finite_fields(A, B):
    """Frobenius orders at good primes must realize exactly element orders
    of the claimed group, and their lcm must climb to the group exponent."""
    _, degree, group = FROZEN[(A, B)]
    allowed = ELEMENT_ORDERS[group]
    target = math.lcm(*allowed)
    disc = 4 * A ** 3 + 27 * B ** 2
    running = 1
    for q in range(5, 500):
        if not is_prime(q) or q == 3 or disc % q == 0:
            continue
        n = torsion_data(q, A % q, B % q, 3).n
        assert n in allowed, (q, n, group)
        running = math.lcm(running, n)
    assert running == target, (group, running)
    assert degree % running == 0


# ---------------------------------------------------------------------------
# degree table: complete enumeration of the valid flag rows
# ---------------------------------------------------------------------------

def _bnz_rows():
    rows = []
    for cb in (False, True):
        for sc in (False, True):
            for sd in (False, True):
                for o in (False, True):
                    for z in (False, True):
                        if z and not (sd and o):
                            continue
                        rows.append({"cube_root": cb, "sqrt_c": sc,
                                     "sqrt_delta": sd, "ordinate": o,
                                     "zeta": z})
    return rows


def _b0_rows():
    rows = []
    for s3 in (False, True):
        for ab in (False, True):
            for o in (False, True):
                for z in (False, True):
                    if ab and not o:
                        continue
                    if z and not ab:
                        continue
                    if s3 and ab and not z:
                        continue
                    rows.append({"sqrt3": s3, "abscissa": ab,
                                 "ordinate": o, "zeta": z})
    return rows


def test_degree_table_complete():
    rows = _bnz_rows()
    assert len(rows) == 20
    for r in rows:
        d = degree3(r)
        expect = (3 if r["cube_root"] else 1) * 2 ** sum(
            r[k] for k in ("sqrt_c", "sqrt_delta", "ordinate", "zeta"))
        assert d == expect
    rows0 = _b0_rows()
    assert len(rows0) == 7
    for r in rows0:
        assert degree3(r) == 2 ** sum(r.values())
    assert sorted(degree3(r) for r in rows0) == [1, 2, 2, 4, 4, 8, 16]


def test_degree_table_rejects_off_table_rows():
    bad_bnz = [
        {"cube_root": True, "sqrt_c": False, "sqrt_delta": False,
         "ordinate": False, "zeta": True},
        {"cube_root": False, "sqrt_c": True, "sqrt_delta": True,
         "ordinate": False, "zeta": True},
    ]
    for r in bad_bnz:
        with pytest.raises(ClassificationDefect):
            degree3(r)
    bad_b0 = [
        {"sqrt3": False, "abscissa": True, "ordinate": False, "zeta": False},
        {"sqrt3": True, "abscissa": False, "ordinate": False, "zeta": True},
        {"sqrt3": True, "abscissa": True, "ordinate": True, "zeta": False},
    ]
    for r in bad_b0:
        with pytest.raises(ClassificationDefect):
            degree3(r)


def test_group_for_every_row():
    for r in _bnz_rows():
        d = degree3(r)
        if d == 4:
            for shape, want in (("cyclic", "Z4"), ("biquadratic", "Z2xZ2")):
                g = galois_group3(r, d, quartic=shape)
                assert g == want
        else:
            g = galois_group3(r, d)
            assert GROUP_ORDERS[g] == d
            if d == 8:
                assert g == ("D4" if r["zeta"] else "Q8")
            if d == 6:
                assert g == "S3"
                assert galois_group3(r, d, zeta3_in_base=True) == "Z6"
    for r in _b0_rows():
        d = degree3(r)
        g = galois_group3(r, d)
        assert GROUP_ORDERS[g] == d
        if d == 4:
            assert g == ("Z4" if r["sqrt3"] else "Z2xZ2")


def test_degree4_needs_quartic_shape():
    row = {"cube_root": False, "sqrt_c": True, "sqrt_delta": True,
           "ordinate": False, "zeta": False}
    with pytest.raises(ValueError):
        galois_group3(row, 4)


# ---------------------------------------------------------------------------
# whole-classifier properties
# ---------------------------------------------------------------------------

@settings(max_examples=60, deadline=None)
@given(st.integers(-40, 40), st.integers(-40, 40))
def test_classify3_properties(A, B):
    if 4 * A ** 3 + 27 * B ** 2 == 0:
        return
    rep = classify3(A, B)
    assert 48 % rep.degree == 0
    assert rep.degree % 2 == 0          # zeta3 always enters over Q
    assert GROUP_ORDERS[rep.group] == rep.degree
    assert rep.confidence == "exact"
    if B == 0:
        assert rep.degree == 16 and rep.group == "SD8"
    # a second call is deterministic
    rep2 = classify3(A, B)
    assert rep2.flags == rep.flags and rep2.group == rep.group


@settings(max_examples=25, deadline=None)
@given(st.fractions(min_value=-12, max_value=12),
       st.fractions(min_value=-12, max_value=12))
def test_classify3_rational_coefficients(A, B):
    if 4 * A ** 3 + 27 * B ** 2 == 0:
        return
    rep = classify3(A, B)
    assert rep.degree in {2, 4, 6, 8, 12, 16, 24, 48}


def test_report_json_shape():
    rep = classify3(0, 2)
    js = rep.to_json()
    assert list(js) == ["schema", "A", "B", "delta", "branch", "flags",
                        "degree", "group", "confidence"]
    assert js["schema"] == "1"
    assert js["A"] == "0" and js["B"] == "2"
    assert js["branch"] == "Bnz"
    assert js["degree"] == 4 and js["group"] == "Z2xZ2"
    assert isinstance(rep, Classification3Report)
