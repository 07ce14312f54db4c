"""Exact number-field layer: square/cube tests, cubic fields, towers."""

import math
import os
import random
import subprocess
import sys
import textwrap
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import torsionfields
from torsionfields.numberfield import (
    NOT_SQUARE,
    SQUARE,
    CubicField,
    QuadTower,
    is_rational_cube,
    is_rational_square,
    multiquadratic_reduce,
    rational_cbrt,
    rational_roots,
    rational_sqrt,
    sqrt_in,
    square_test_cubic,
    square_test_tower,
)


# ---------------------------------------------------------------------------
# rationals
# ---------------------------------------------------------------------------

def test_rational_sqrt():
    assert rational_sqrt(Fraction(9, 4)) == Fraction(3, 2)
    assert rational_sqrt(Fraction(0)) == 0
    assert rational_sqrt(Fraction(2)) is None
    assert rational_sqrt(Fraction(-4)) is None


def test_rational_cube_detection():
    assert is_rational_cube(Fraction(0)) is True
    assert is_rational_cube(Fraction(-27, 8)) is True
    assert rational_cbrt(Fraction(-27, 8)) == Fraction(-3, 2)
    assert is_rational_cube(Fraction(-432)) is False  # -432 = -16*27
    assert is_rational_cube(Fraction(2)) is False


@given(st.fractions(min_value=-50, max_value=50))
@settings(max_examples=80, deadline=None)
def test_rational_roundtrips(q):
    assert rational_sqrt(q * q) == abs(q)
    assert rational_cbrt(q ** 3) == q


def _poly_mul(f, g):
    out = [Fraction(0)] * (len(f) + len(g) - 1)
    for i, x in enumerate(f):
        for j, y in enumerate(g):
            out[i + j] += x * y
    return out


# monic factors, constant term first, with no rational root
NO_RATIONAL_ROOT = [
    [1],
    [-2, 0, 1],
    [1, 0, 1],
    [-2, 0, 0, 1],
    [10**60 + 1, 1, 1],                  # no real root
    [10**90 + 7, 3, 0, 1],               # one real root, in (-10^30, -10^30 + 1)
    [Fraction(1, 3), 0, Fraction(-7, 10**40), 0, 1],
]


@settings(max_examples=120, deadline=None)
@given(st.lists(st.fractions(min_value=-10**60, max_value=10**60,
                             max_denominator=10**30), max_size=3),
       st.integers(0, 2), st.sampled_from(NO_RATIONAL_ROOT))
def test_rational_roots_of_products(roots, repeats, rest):
    # prod (x - r_i) times a factor without rational roots, with a root
    # repeated up to twice more: coefficients reach beyond 10^180
    poly = [Fraction(c) for c in rest]
    for r in roots + roots[:1] * repeats:
        poly = _poly_mul(poly, [-r, 1])
    assert rational_roots(poly) == sorted(set(roots))


# ---------------------------------------------------------------------------
# cubic fields
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def k_cbrt2():
    return CubicField(Fraction(0), Fraction(-2))  # t^3 = 2


def test_cubic_relation_and_inverse(k_cbrt2):
    t = k_cbrt2.gen()
    assert t * t * t == k_cbrt2.elt(2)
    a = k_cbrt2.elt(1, 2, 3)
    assert a * a.inverse() == k_cbrt2.one()
    assert (a / a) == k_cbrt2.one()


def test_cubic_norm_values(k_cbrt2):
    # N(t) = 2 and N(u + t) = u^3 + 2 for t^3 = 2
    t = k_cbrt2.gen()
    assert t.norm() == 2
    for u in (0, 1, -1, 5, Fraction(1, 2)):
        assert (k_cbrt2.elt(u) + t).norm() == Fraction(u) ** 3 + 2


@settings(max_examples=40, deadline=None)
@given(
    st.tuples(*[st.integers(-9, 9)] * 3),
    st.tuples(*[st.integers(-9, 9)] * 3),
)
def test_cubic_norm_multiplicative(xs, ys):
    F = CubicField(Fraction(-1), Fraction(3))
    a, b = F.elt(*xs), F.elt(*ys)
    assert (a * b).norm() == a.norm() * b.norm()


# Reference arithmetic: coordinate triples of Fractions, schoolbook product
# reduced by t^4 = -a t^2 - b t and t^3 = -a t - b.
def _ref_mul(F, x, y):
    z = [Fraction(0)] * 5
    for i in range(3):
        for j in range(3):
            z[i + j] += x[i] * y[j]
    z[2] -= F.a * z[4]
    z[1] -= F.b * z[4] + F.a * z[3]
    z[0] -= F.b * z[3]
    return tuple(z[:3])


def _ref_norm(F, x):
    cols = [_ref_mul(F, x, e) for e in ((1, 0, 0), (0, 1, 0), (0, 0, 1))]
    m = [[cols[j][i] for j in range(3)] for i in range(3)]
    return (m[0][0] * (m[1][1] * m[2][2] - m[1][2] * m[2][1])
            - m[0][1] * (m[1][0] * m[2][2] - m[1][2] * m[2][0])
            + m[0][2] * (m[1][0] * m[2][1] - m[1][1] * m[2][0]))


def _assert_normal(x):
    assert x.d > 0
    assert math.gcd(x.n0, x.n1, x.n2, x.d) == 1


REFERENCE_FIELDS = [
    CubicField(Fraction(-15), Fraction(22)),
    CubicField(Fraction(-481, 3), Fraction(9758, 27)),   # splits over Q
    CubicField(Fraction(0), Fraction(-2)),
    CubicField(Fraction(10**40 + 7, 3**20), Fraction(-5, 2**40)),
]

_height = st.fractions(min_value=-10**40, max_value=10**40,
                       max_denominator=10**40)
_coords = st.tuples(_height, _height, _height)


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(REFERENCE_FIELDS), _coords, _coords,
       st.integers(-10**6, 10**6), _height)
def test_cubic_arithmetic_matches_fraction_reference(F, xs, ys, n, q):
    x, y = F.elt(*xs), F.elt(*ys)
    _assert_normal(x)
    _assert_normal(y)
    assert x.coords() == xs and y.coords() == ys
    cases = [
        (x + y, tuple(a + b for a, b in zip(xs, ys))),
        (x - y, tuple(a - b for a, b in zip(xs, ys))),
        (-x, tuple(-a for a in xs)),
        (x * y, _ref_mul(F, xs, ys)),
        (x * n, tuple(a * n for a in xs)),
        (q * x, tuple(q * a for a in xs)),
        (x + q, (xs[0] + q, xs[1], xs[2])),
    ]
    for got, want in cases:
        _assert_normal(got)
        assert got.coords() == want
        assert got == F.elt(*want) and hash(got) == hash(F.elt(*want))
    assert x.norm() == _ref_norm(F, xs)
    if x.norm():
        inv = x.inverse()
        _assert_normal(inv)
        assert _ref_mul(F, inv.coords(), xs) == (1, 0, 0)
        assert x * inv == F.one() and x / x == F.one()
    else:
        with pytest.raises(ZeroDivisionError):
            x.inverse()
    # equal elements built different ways compare and hash equal
    for other in ((x + y) - y, x * (y + 1) - y * x,
                  F.elt(*xs) * 1, x * F.one()):
        assert other == x and hash(other) == hash(x)
    assert (x == y) == (xs == ys)


def test_cubic_zero_divisor_has_no_inverse():
    # t^3 - 481/3 t + 9758/27 has the root 34/3, so t - 34/3 has norm 0
    F = REFERENCE_FIELDS[1]
    x = F.gen() - Fraction(34, 3)
    assert x and x.norm() == 0
    with pytest.raises(ZeroDivisionError):
        x.inverse()


def test_square_test_cubic_recovers_squares():
    rng = random.Random(20240817)
    fields = [
        CubicField(Fraction(0), Fraction(-2)),
        CubicField(Fraction(-1), Fraction(3)),
        CubicField(Fraction(5), Fraction(-7)),
    ]
    t = fields[0].gen()
    # a root with denominator 1234567, and roots with denominators to 10^12
    roots = [fields[0].elt(1, Fraction(2, 1234567), -3),
             (t + 1) / 1234567, fields[0].from_rational(Fraction(5, 1234567))]
    while len(roots) < 200:
        F = fields[len(roots) % len(fields)]
        height = 20 if len(roots) < 100 else 10**12
        roots.append(F.elt(*(Fraction(rng.randint(-height, height),
                                      rng.randint(1, height)) for _ in range(3))))
    for theta in roots:
        status, root = square_test_cubic(theta * theta)
        assert status == SQUARE
        assert root in (theta, -theta)


def test_square_test_cubic_norm_obstruction(k_cbrt2):
    # N(t) = 2, not a rational square -> immediate refusal
    assert square_test_cubic(k_cbrt2.gen()) == (NOT_SQUARE, None)


def test_square_test_cubic_witness_refutation(k_cbrt2):
    # t - 1 has norm 1, a square, but is not a square; nor is alpha^2 (t - 1)
    t = k_cbrt2.gen()
    alpha = k_cbrt2.elt(Fraction(3, 1234567), -2, Fraction(1, 10**12))
    for theta in (t - 1, alpha * alpha * (t - 1)):
        assert is_rational_square(theta.norm())
        assert square_test_cubic(theta) == (NOT_SQUARE, None)


# ---------------------------------------------------------------------------
# towers
# ---------------------------------------------------------------------------

def test_tower_sqrt2_descent():
    T = QuadTower(None, 2)
    s = T.gen()
    one = T.one()
    x = (one + s) * (one + s)  # 3 + 2*sqrt(2)
    assert x == T.elt(3, 2)
    status, root = square_test_tower(x)
    assert status == SQUARE and root in (one + s, -(one + s))
    assert square_test_tower(T.elt(3, -2))[0] == SQUARE  # (sqrt(2)-1)^2
    assert square_test_tower(s) == (NOT_SQUARE, None)
    assert square_test_tower(T.elt(-1, 0)) == (NOT_SQUARE, None)


def test_tower_v_zero_branch_through_radicand():
    # u itself is not a base square but u*D is: sqrt lands on the generator line
    T = QuadTower(None, 2)
    status, root = square_test_tower(T.elt(0, 1) * T.elt(0, 1) * T.elt(Fraction(1, 2)))
    # that element is 1 = (sqrt(2)*sqrt(1/2))^2; sanity only
    assert status == SQUARE
    base = QuadTower(None, 2)
    level2 = QuadTower(base, base.elt(1, 1))  # adjoin sqrt(1 + sqrt(2))
    theta = level2.elt(base.elt(1, 1), base.zero())
    status, root = square_test_tower(theta)
    assert status == SQUARE
    assert root * root == theta


def test_tower_root_check_survives_python_optimize():
    # under python -O every bare assert is gone; the root check is not: a
    # base square root that is off by one must not come back as a root
    script = textwrap.dedent("""
        from torsionfields import numberfield as nf
        assert False, "asserts must be off under -O"
        exact = nf.sqrt_in
        def off_by_one(field, x):
            status, r = exact(field, x)
            return status, (r + 1 if status == nf.SQUARE and x == 1 else r)
        nf.sqrt_in = off_by_one
        T = nf.QuadTower(None, 2)
        try:
            nf.square_test_tower(T.elt(9, 4))  # (1 + 2 sqrt 2)^2, a = 1
        except nf.ClassificationDefect as exc:
            print(exc)
    """)
    src = os.path.dirname(os.path.dirname(torsionfields.__file__))
    out = subprocess.run([sys.executable, "-O", "-c", script], check=True,
                         env=dict(os.environ, PYTHONPATH=src),
                         capture_output=True, text=True).stdout
    assert out.splitlines() == ["tower root does not square back"]


def test_tower_over_cubic_field():
    F = CubicField(Fraction(0), Fraction(-2))  # contains cbrt(2)
    t = F.gen()
    T = QuadTower(F, t)  # adjoin 2^(1/6)... as sqrt(cbrt(2))
    s = T.gen()
    theta = s * s
    assert theta == T.elt(t, F.zero())
    # t^3 = 2 IS a square here: sqrt(2) = (t * s)  since (t*s)^2 = t^2 * t = 2
    status, root = square_test_tower(T.elt(t * t, F.zero()) * T.elt(t, F.zero()))
    assert status == SQUARE and root * root == T.elt(F.elt(2), F.zero())
    # but 3 is not a square in Q(2^(1/6))
    assert square_test_tower(T.elt(F.elt(3), F.zero())) == (NOT_SQUARE, None)
    sq = (T.elt(F.elt(1), F.elt(1)) * T.elt(F.elt(1), F.elt(1)))
    status, root = square_test_tower(sq)
    assert status == SQUARE and root * root == sq


def test_multiquadratic_reduce_subsets():
    status, subset = multiquadratic_reduce(None, [Fraction(2), Fraction(3)], Fraction(6))
    assert status == SQUARE and subset == (0, 1)
    status, subset = multiquadratic_reduce(None, [Fraction(2), Fraction(3)], Fraction(4))
    assert status == SQUARE and subset == ()
    status, subset = multiquadratic_reduce(None, [Fraction(2), Fraction(3)], Fraction(5))
    assert status == NOT_SQUARE and subset is None


@settings(max_examples=30, deadline=None)
@given(
    st.integers(-30, 30).filter(lambda n: n != 0),
    st.lists(st.integers(2, 30), min_size=0, max_size=3),
    st.integers(2, 30),
)
def test_multiquadratic_monotone(theta, rads, extra):
    """Adding radicands never turns a square into a nonsquare."""
    rads_f = [Fraction(r) for r in rads]
    st1, _ = multiquadratic_reduce(None, rads_f, Fraction(theta))
    st2, _ = multiquadratic_reduce(None, rads_f + [Fraction(extra)], Fraction(theta))
    if st1 == SQUARE:
        assert st2 == SQUARE


def test_sqrt_in_dispatch():
    assert sqrt_in(None, Fraction(49))[0] == SQUARE
    F = CubicField(Fraction(0), Fraction(-2))
    assert sqrt_in(F, F.gen() * F.gen())[0] == SQUARE
    T = QuadTower(None, 5)
    assert sqrt_in(T, T.elt(5, 0))[0] == SQUARE  # 5 = sqrt(5)^2
