"""Tests for the finite-field layer.

Expected values that admit an independent derivation are frozen here first:
the lexicographically-first irreducible over F_5 of degree 2, root sets of
small polynomials, and subfield fixing behaviour, all cross-checked by direct
enumeration rather than by the code under test.
"""

import os
import random
import subprocess
import sys
import textwrap
import time

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

import torsionfields
from torsionfields.finitefield import (
    ExtField,
    ModRing,
    PrimeField,
    QuadExt,
    distinct_degree_blocks,
    factor_squarefree,
    is_prime,
    is_square_elt,
    poly_deg,
    poly_divmod,
    poly_gcd,
    poly_is_irreducible,
    poly_make_monic,
    poly_mul,
    poly_pow_mod,
    poly_roots,
    pow_elt,
    primes_in_range,
    ts_sqrt,
)
from torsionfields.torsion import MAX_Q, torsion_data

from polyhelpers import (
    find_irreducible,
    is_square_euler,
    is_square_mod,
    poly_eval,
    quad_mul_reference,
)

_X = np.array([0, 1], dtype=np.int64)


# ---------------------------------------------------------------------------
# integer helpers
# ---------------------------------------------------------------------------

def test_is_prime_small():
    want = {2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47}
    got = {n for n in range(50) if is_prime(n)}
    assert got == want


def test_primes_in_range_matches_enumeration():
    assert primes_in_range(5, 200) == [n for n in range(5, 201) if is_prime(n)]


@pytest.mark.parametrize("p", [5, 13, 17, 97, 193])
def test_sqrt_int_roundtrip(p):
    # PrimeField.sqrt, checked against every square of F_p
    F = PrimeField(p)
    for a in range(p):
        r = F.sqrt(F.elt(a))
        if r is None:
            assert all(x * x % p != a for x in range(p))
        else:
            assert r.v * r.v % p == a
            assert r.v <= p - r.v  # canonical representative


@settings(max_examples=60, deadline=None)
@given(st.sampled_from([65537, 331363919]), st.integers(0, 2**40))
def test_prime_field_sqrt_large_primes(p, k):
    # 65537 - 1 = 2^16 runs the whole Tonelli-Shanks loop; 331363919 is the
    # largest q that torsion_data accepts
    F = PrimeField(p)
    a = k % p
    r = F.sqrt(F.elt(a))
    if r is None:
        assert pow(a, (p - 1) // 2, p) == p - 1
    else:
        assert r.v * r.v % p == a
        assert r.v <= p - r.v


# ---------------------------------------------------------------------------
# polynomial layer: frozen expected values
# ---------------------------------------------------------------------------

def test_find_irreducible_5_2_frozen():
    # enumeration oracle: x^2 and x^2+1 have roots mod 5, x^2+2 does not
    assert [x for x in range(5) if (x * x + 2) % 5 == 0] == []
    f = find_irreducible(5, 2)
    assert f.tolist() == [2, 0, 1]  # x^2 + 2


def test_find_irreducible_is_first_in_lex_order():
    p, k = 7, 3
    f = find_irreducible(p, k)
    idx_found = sum(int(f[i]) * p ** i for i in range(k))
    for idx in range(idx_found):
        g = np.zeros(k + 1, dtype=np.int64)
        g[k] = 1
        rem = idx
        for pos in range(k):
            g[pos] = rem % p
            rem //= p
        assert not poly_is_irreducible(g, p)
    assert poly_is_irreducible(f, p)


def test_poly_roots_against_eval():
    p = 31
    g = np.array([5, 0, 1, 1], dtype=np.int64)  # x^3 + x^2 + 5
    want = [x for x in range(p) if poly_eval(g, x, p) == 0]
    assert poly_roots(g, p) == want


def test_factor_squarefree_recombines():
    rng = random.Random(7)
    p = 19
    for _ in range(25):
        deg = rng.randrange(2, 12)
        g = np.array([rng.randrange(p) for _ in range(deg)] + [1], dtype=np.int64)
        if poly_deg(poly_gcd(g, _derivative(g, p), p)) != 0:
            continue  # not squarefree; irrelevant here
        factors = factor_squarefree(g, p, random.Random(1))
        prod = np.ones(1, dtype=np.int64)
        for f in factors:
            assert poly_is_irreducible(f, p)
            prod = poly_mul(prod, f, p)
        assert poly_make_monic(prod, p).tolist() == g.tolist()


def _derivative(g, p):
    d = (g[1:] * np.arange(1, len(g), dtype=np.int64)) % p
    return d


def test_factorization_deterministic_despite_rng():
    p = 13
    g = np.array([1, 0, 0, 0, 0, 0, 1], dtype=np.int64)  # x^6 + 1
    f1 = factor_squarefree(g, p, random.Random(1))
    f2 = factor_squarefree(g, p, random.Random(99))
    assert [f.tolist() for f in f1] == [f.tolist() for f in f2]


# ---------------------------------------------------------------------------
# field objects
# ---------------------------------------------------------------------------

def test_prime_field_rejects_2_and_3():
    with pytest.raises(ValueError):
        PrimeField(3)
    with pytest.raises(ValueError):
        PrimeField(9)


@pytest.fixture(scope="module")
def f5_2():
    return ExtField(5, find_irreducible(5, 2), check_irreducible=True)


def test_ext_field_basic_identities(f5_2):
    F = f5_2
    x = F.gen()
    assert x * x == F.from_int(-2)  # x^2 = -2 in F_5[x]/(x^2+2)
    assert (x + F.one()) * (x - F.one()) == x * x - F.one()
    inv = x.inverse()
    assert x * inv == F.one()


def test_ext_field_frobenius_is_pth_power(f5_2):
    F = f5_2
    for i in range(F.order()):
        a = F.nth_element(i)
        assert F.frobenius_power(a, 1) == pow_elt(a, 5) if a else True
        for k in (0, 2, 4):
            assert F.frobenius_power(a, k) == a  # a^(q^n) = a
            assert F.fixed_by(a, k)


def test_ext_field_fixed_by_detects_prime_subfield(f5_2):
    F = f5_2
    assert F.fixed_by(F.from_int(3), 1)
    assert not F.fixed_by(F.gen(), 1)
    assert not F.fixed_by(F.gen(), 3)


def test_ext_field_elements_compare_by_their_int64_residues():
    # == and fixed_by compare bytes, so every operation must hand back a
    # length-n int64 residue; equality is then np.array_equal on all pairs
    F = ExtField(7, find_irreducible(7, 4))
    rng = random.Random(3)
    elts = [F.nth_element(rng.randrange(F.order())) for _ in range(12)]
    elts += [F.zero(), F.one(), F.gen(), F.from_int(-1)]
    made = []
    for a, b in zip(elts, elts[1:] + elts[:1]):
        made += [a + b, a - b, -a, a * b, F.frobenius_power(a, 1), F.sqrt(a * a)]
        made += list(F.quadratic_product(F.gen())(a, b, b, a))
        if a:
            made += [a.inverse(), a / a]
    for e in elts + made:
        assert e.c.dtype == np.int64 and e.c.shape == (4,)
    for a in elts + made:
        for b in elts + made:
            assert (a == b) == np.array_equal(a.c, b.c)
        for k in range(4):
            assert F.fixed_by(a, k) == np.array_equal(F.frobenius_power(a, k).c, a.c)
    assert F.one() == F.gen() * F.gen().inverse()


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 13 ** 3 - 1), st.integers(0, 13 ** 3 - 1), st.integers(0, 13 ** 3 - 1))
def test_ext_field_ring_axioms(i, j, k):
    F = _F13_3
    a, b, c = F.nth_element(i), F.nth_element(j), F.nth_element(k)
    assert (a + b) * c == a * c + b * c
    assert a * (b * c) == (a * b) * c
    assert a + b == b + a and a * b == b * a


_F13_3 = ExtField(13, find_irreducible(13, 3))


def test_ext_field_frobenius_is_automorphism():
    F = _F13_3
    rng = random.Random(5)
    for _ in range(30):
        a = F.nth_element(rng.randrange(F.order()))
        b = F.nth_element(rng.randrange(F.order()))
        fa, fb = F.frobenius_power(a, 1), F.frobenius_power(b, 1)
        assert F.frobenius_power(a + b, 1) == fa + fb
        assert F.frobenius_power(a * b, 1) == fa * fb


def test_ts_sqrt_ext_field():
    F = _F13_3
    rng = random.Random(11)
    squares = 0
    for _ in range(40):
        a = F.nth_element(rng.randrange(1, F.order()))
        r = ts_sqrt(F, a)
        if r is not None:
            squares += 1
            assert r * r == a
        else:
            assert not is_square_elt(a)
    assert squares > 5  # about half should be squares


def test_quad_ext_arithmetic_and_frobenius():
    F = PrimeField(7)
    t = F.elt(3)  # 3 is a nonsquare mod 7
    assert not is_square_elt(t)
    Q = QuadExt(F, t)
    y = Q.gen()
    assert y * y == Q.elt(t, F.zero())
    a = Q.elt(F.elt(2), F.elt(5))
    assert a * a.inverse() == Q.one()
    # Frobenius has order 2 here and must be the conjugation a - b*Y
    fa = Q.frobenius_power(a, 1)
    assert fa == Q.elt(F.elt(2), F.elt(-5))
    for k in (0, 2, 4):
        assert Q.frobenius_power(a, k) == a
        assert Q.fixed_by(a, k)
    assert not Q.fixed_by(a, 1)


def test_quad_ext_over_ext_field_frobenius(f5_2):
    # over F_25, Frobenius^2 fixes the base but sends Y to -Y, so it fixes
    # no element with b != 0 although 2 is a multiple of the base degree
    F = f5_2
    t = next(F.nth_element(i) for i in range(1, 25) if not is_square_elt(F.nth_element(i)))
    Q = QuadExt(F, t)
    assert Q.degree == 4
    rng = random.Random(4)
    for _ in range(10):
        a = Q.elt(F.nth_element(rng.randrange(25)), F.nth_element(rng.randrange(1, 25)))
        assert Q.frobenius_power(a, 1) == pow_elt(a, 5)
        assert Q.frobenius_power(a, 2) == pow_elt(a, 25) == Q.elt(a.a, -a.b)
        assert not Q.fixed_by(a, 2) and not Q.fixed_by(a, 6)
        for k in (0, 4, 8):
            assert Q.frobenius_power(a, k) == a == pow_elt(a, 5 ** k)
            assert Q.fixed_by(a, k)


def test_quad_ext_sqrt():
    F = PrimeField(11)
    t = next(F.elt(v) for v in range(2, 11) if not is_square_elt(F.elt(v)))
    Q = QuadExt(F, t)
    # every base-field element becomes a square in the quadratic extension
    for v in range(1, 11):
        a = Q.elt(F.elt(v), F.zero())
        r = ts_sqrt(Q, a)
        assert r is not None and r * r == a


def test_pow_mod_agrees_with_int_pow():
    p = 13
    g = find_irreducible(p, 2)
    x = np.array([0, 1], dtype=np.int64)
    h = poly_pow_mod(x, 169, g, p)
    assert h.tolist() == [0, 1]  # x^(p^2) = x mod irreducible of degree 2


# ---------------------------------------------------------------------------
# the modular-ring kernel against schoolbook arithmetic on Python ints
# ---------------------------------------------------------------------------

def _ref_trim(a):
    a = list(a)
    while len(a) > 1 and a[-1] == 0:
        a.pop()
    return a or [0]


def _ref_mul(a, b, p):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] = (out[i + j] + x * y) % p
    return out


def _ref_divmod(a, g, p):
    """Long division by monic g, one coefficient at a time."""
    a, n = [c % p for c in a], len(g) - 1
    q = [0] * max(len(a) - n, 1)
    for d in range(len(a) - 1, n - 1, -1):
        c = a[d]
        q[d - n] = c
        for i in range(n + 1):
            a[d - n + i] = (a[d - n + i] - c * g[i]) % p
    return _ref_trim(q), _ref_trim(a[:n])


def _ref_powmod(a, e, g, p):
    result, base = [1], _ref_divmod(a, g, p)[1]
    while e:
        if e & 1:
            result = _ref_divmod(_ref_mul(result, base, p), g, p)[1]
        base = _ref_divmod(_ref_mul(base, base, p), g, p)[1]
        e >>= 1
    return _ref_trim(result)


def _prime_at_most(n):
    while not is_prime(n):
        n -= 1
    return n


_TOP_PRIME = _prime_at_most(MAX_Q)
_PRIMES = st.one_of(
    st.sampled_from([5, 7, 1000003, 10000019, _TOP_PRIME]),
    st.integers(5, MAX_Q).map(_prime_at_most),
)


@st.composite
def _ring_case(draw, max_deg=84):
    p = draw(_PRIMES)
    n = draw(st.integers(1, max_deg))
    coeff = st.integers(0, p - 1)
    g = draw(st.lists(coeff, min_size=n, max_size=n)) + [1]
    a = draw(st.lists(coeff, min_size=1, max_size=2 * n + 1))
    b = draw(st.lists(coeff, min_size=1, max_size=n))
    return p, g, a, b


def _arr(c):
    return np.array(c, dtype=np.int64)


def _padded(c, n):
    return c + [0] * (n - len(c))


@settings(max_examples=30, deadline=None)
@given(_ring_case(), st.integers(0, 2**16))
@example((_TOP_PRIME, [_TOP_PRIME - 1] * 84 + [1], [_TOP_PRIME - 1] * 84,
          [_TOP_PRIME - 1] * 84), 2**16 - 1)
def test_modring_matches_schoolbook(case, e):
    p, g, a, b = case
    n = len(g) - 1
    ring = ModRing(_arr(g), p)
    ra, rb = ring.reduce(_arr(a)), ring.reduce(_arr(b))
    assert ra.tolist() == _padded(_ref_divmod(a, g, p)[1], n)
    want = _ref_divmod(_ref_mul(ra.tolist(), rb.tolist(), p), g, p)[1]
    assert ring.mul(ra, rb).tolist() == _padded(want, n)
    assert ring.pow(_arr(a), e).tolist() == _ref_powmod(a, e, g, p)
    assert poly_pow_mod(_arr(b), e, _arr(g), p).tolist() == _ref_powmod(b, e, g, p)


@settings(max_examples=30, deadline=None)
@given(_ring_case())
def test_poly_divmod_matches_schoolbook(case):
    p, g, a, _ = case
    q, r = poly_divmod(_arr(a), _arr(g), p)
    want_q, want_r = _ref_divmod(_ref_trim(a), g, p)
    assert (q.tolist(), r.tolist()) == (want_q, want_r)


def _ref_monic(a, p):
    inv = pow(a[-1], p - 2, p)
    return [c * inv % p for c in a]


def _ref_gcd(a, b, p):
    """Euclid by long division against the monic form of each remainder."""
    a, b = _ref_trim([c % p for c in a]), _ref_trim([c % p for c in b])
    while b != [0]:
        a, b = b, _ref_divmod(a, _ref_monic(b, p), p)[1]
    return a if a == [0] else _ref_monic(a, p)


@st.composite
def _gcd_case(draw):
    """(p, a, b) with a common factor w: unreduced and non-monic
    coefficients, trailing zeros, and zero or constant inputs."""
    p = draw(_PRIMES)
    poly = lambda k: draw(st.lists(st.integers(-p, 2 * p - 1), min_size=1, max_size=k))
    w = poly(6)
    a, b = _ref_mul(poly(8), w, p), _ref_mul(poly(8), w, p)
    # each input is the product itself, zero, or a nonzero constant
    a, b = (draw(st.sampled_from([c, [0], [draw(st.integers(1, p - 1))]])) for c in (a, b))
    pad = st.lists(st.just(0), max_size=3)
    return p, a + draw(pad), b + draw(pad)


def _assert_normal(c, p, monic):
    """An int64 vector over F_p, trimmed; monic unless it is [0]."""
    assert c.dtype == np.int64 and c.ndim == 1
    coeffs = c.tolist()
    assert all(0 <= x < p for x in coeffs)
    if coeffs != [0]:
        assert coeffs[-1] == 1 if monic else coeffs[-1] != 0


@settings(max_examples=60, deadline=None)
@given(_gcd_case())
@example((7, [0], [0]))                                  # gcd(0, 0) = 0
@example((7, [0, 0], [3]))                               # gcd(0, 3) = 1
@example((_TOP_PRIME, [5, 0, 0], [0, 0, -2, 0]))         # gcd(5, -2x^2) = 1
@example((13, [0, 3, 3, 0], [0, 0, 5]))                  # gcd(3x^2+3x, 5x^2) = x
@example((101, [1, 1], [2, 1, 0]))                       # coprime: gcd = 1
def test_poly_gcd_matches_schoolbook(case):
    p, a, b = case
    g = poly_gcd(_arr(a), _arr(b), p)
    assert g.tolist() == _ref_gcd(a, b, p)
    _assert_normal(g, p, monic=True)
    _assert_normal(poly_make_monic(_arr(a), p), p, monic=True)
    if g.tolist() != [0]:
        for c in (a, b):
            q, r = poly_divmod(_arr(c), g, p)
            assert r.tolist() == [0]
            _assert_normal(q, p, monic=False)


@settings(max_examples=30, deadline=None)
@given(_ring_case(max_deg=4))
def test_is_square_mod_matches_euler_criterion(case):
    p, g, t, _ = case
    assume(poly_is_irreducible(_arr(g), p))
    n = len(g) - 1
    s = _ref_powmod(t, (p ** n - 1) // 2, g, p)
    assert is_square_mod(_arr(t), _arr(g), p) == (s == [1])


def test_modring_refuses_moduli_that_overflow_int64():
    g = np.zeros(86, dtype=np.int64)
    g[85] = 1
    ModRing(g[1:], _TOP_PRIME)  # degree 84: n (p - 1)^2 < 2^63
    with pytest.raises(OverflowError):
        ModRing(g, _TOP_PRIME)


def test_modring_frobenius_matrix_columns_are_pth_powers():
    rng = random.Random(3)
    for p in (5, 1000003, _TOP_PRIME):
        for n in (1, 2, 5, 12):
            g = _arr([rng.randrange(p) for _ in range(n)] + [1])
            ring = ModRing(g, p)
            Q = ring.frobenius_matrix()
            for j in range(n):
                xj = _arr([0] * j + [1])
                assert Q[:, j].tolist() == _padded(ring.pow(xj, p).tolist(), n), (p, n, j)


# ---------------------------------------------------------------------------
# ExtField inverses (Itoh-Tsujii) against Fermat powers on Python ints
# ---------------------------------------------------------------------------

@st.composite
def _field_case(draw):
    p = draw(st.one_of(st.sampled_from([5, 7, 13]), _PRIMES))
    n = draw(st.integers(2, 12))
    rng = random.Random(draw(st.integers(0, 2**32)))
    while True:
        g = [rng.randrange(p) for _ in range(n)] + [1]
        if poly_is_irreducible(_arr(g), p):
            break
    a = draw(st.lists(st.integers(0, p - 1), min_size=n, max_size=n))
    assume(any(a))
    return p, g, a


@settings(max_examples=40, deadline=None)
@given(_field_case())
@example((5, [2, 0, 1], [0, 1]))
@example((_TOP_PRIME, [1, 0, 1], [_TOP_PRIME - 1, _TOP_PRIME - 1]))  # p = 3 mod 4
def test_ext_field_inverse_is_the_fermat_power(case):
    p, g, a = case
    n = len(g) - 1
    inv = ExtField(p, _arr(g)).elt(a).inverse().c.tolist()
    assert _ref_divmod(_ref_mul(a, inv, p), g, p)[1] == [1]
    assert _ref_trim(inv) == _ref_powmod(a, p ** n - 2, g, p)


def test_inverses_in_a_torsion_field_of_degree_110():
    # E[11] of y^2 = x^3 + 2x + 14 over F_37 lives in a QuadExt over F_{37^55}
    F = torsion_data(37, 2, 14, 11).field
    base = F.base
    assert isinstance(base, ExtField) and base.degree == 55
    rng = random.Random(11)
    for _ in range(3):
        a = base.nth_element(rng.randrange(base.order()))
        assert a * a.inverse() == base.one()
        assert a.inverse() == pow_elt(a, base.order() - 2)
    x = F.nth_element(rng.randrange(F.order()))
    assert x * x.inverse() == F.one()
    assert x.inverse() == pow_elt(x, F.order() - 2)
    for zero in (base.zero(), F.zero()):
        with pytest.raises(ZeroDivisionError):
            zero.inverse()


def test_inverse_modulo_a_reducible_polynomial_is_never_wrong():
    # (x + 1)(x^2 + 2) over F_5: a unit may invert, a zero divisor must raise
    p, g = 5, poly_mul(_arr([1, 1]), _arr([2, 0, 1]), 5)
    R = ExtField(p, g)
    zero_divisors = 0
    for i in range(1, p ** 3):
        a = R.nth_element(i)
        unit = poly_deg(poly_gcd(a.c, g, p)) == 0
        zero_divisors += not unit
        try:
            b = a.inverse()
        except ZeroDivisionError:
            continue
        assert unit and a * b == R.one()
    assert zero_divisors == 4 + 24  # nonzero multiples of x^2 + 2 and of x + 1


# ---------------------------------------------------------------------------
# quadratic lifts: one kernel call per product, square tests by norm
# ---------------------------------------------------------------------------

@st.composite
def _quad_case(draw):
    """(p, g, a, b, c, d, t): a monic g of degree n and five residues."""
    p = draw(_PRIMES)
    n = draw(st.integers(1, 84))
    vec = st.lists(st.integers(0, p - 1), min_size=n, max_size=n)
    return (p, draw(vec) + [1], *(draw(vec) for _ in range(5)))


_WORST = [_TOP_PRIME - 1] * 84


@settings(max_examples=30, deadline=None)
@given(_quad_case())
@example((_TOP_PRIME, _WORST + [1], _WORST, _WORST, _WORST, _WORST, _WORST))
def test_quad_mul_matches_schoolbook(case):
    # every coefficient p - 1 at the top prime and degree 84 is the int64
    # worst case: n (p - 1)^2 plus one reduced term
    p, g, a, b, c, d, t = case
    n = len(g) - 1
    ring = ModRing(_arr(g), p)

    def mulmod(x, y):
        return _padded(_ref_divmod(_ref_mul(x, y, p), g, p)[1], n)

    def add(x, y):
        return [(u + v) % p for u, v in zip(x, y)]

    got = ring.quad_mul(*map(_arr, (a, b, c, d)), ring.times_matrix(_arr(t)))
    want = add(mulmod(a, c), mulmod(t, mulmod(b, d))), add(mulmod(a, d), mulmod(b, c))
    assert tuple(x.tolist() for x in got) == want


def _irreducible(p, n, seed):
    rng = random.Random(seed)
    while True:
        g = _arr([rng.randrange(p) for _ in range(n)] + [1])
        if poly_is_irreducible(g, p):
            return g


def _base_field(p, n):
    return PrimeField(p) if n == 1 else ExtField(p, _irreducible(p, n, seed=n))


def _nonsquare(F, rng):
    while True:
        t = F.nth_element(rng.randrange(1, F.order()))
        if not is_square_euler(t):
            return t


@pytest.mark.parametrize("p, n", [(7, 1), (_TOP_PRIME, 1), (5, 2), (13, 4), (101, 28),
                                  (37, 55), (109, 84)])
def test_quad_ext_products_inverses_and_norms(p, n):
    # against the five base products a c + t b d, a d + b c
    F = _base_field(p, n)
    rng = random.Random(p + n)
    t = _nonsquare(F, rng)
    Q = QuadExt(F, t)
    draws = [F.nth_element(rng.randrange(1, F.order())) for _ in range(8)] + [F.zero()]
    for i in range(4):
        x, y = Q.elt(draws[2 * i], draws[2 * i + 1]), Q.elt(draws[8 - i], draws[i])
        xy = x * y
        assert (xy.a, xy.b) == quad_mul_reference(t, x.a, x.b, y.a, y.b)
        norm = quad_mul_reference(t, x.a, x.b, x.a, -x.b)[0]
        assert Q.norm(x) == norm
        ninv = norm.inverse()
        inv = x.inverse()
        assert (inv.a, inv.b) == (x.a * ninv, -(x.b * ninv))
        assert x * inv == Q.one()


@pytest.mark.parametrize("p, n", [(5, 1), (_TOP_PRIME, 1), (5, 2), (13, 3), (1000003, 4),
                                  (_TOP_PRIME, 7), (37, 12)])
def test_is_square_elt_is_the_euler_criterion(p, n):
    # on F, on F(sqrt t), and, for F = F_{p^n}, its norm against the Fermat power
    rng = random.Random(p * n)
    F = _base_field(p, n)
    Q = QuadExt(F, _nonsquare(F, rng))
    for field in (F, Q):
        seen = set()
        for _ in range(12):
            x = field.nth_element(rng.randrange(1, field.order()))
            seen.add(is_square_elt(x))
            assert is_square_elt(x) == is_square_euler(x)
            if isinstance(field, ExtField):
                assert F.elt([F.norm(x)]) == pow_elt(x, (F.order() - 1) // (p - 1))
        assert seen == {True, False}
        assert is_square_elt(field.zero())


# ---------------------------------------------------------------------------
# distinct-degree blocks
# ---------------------------------------------------------------------------

@st.composite
def _block_case(draw):
    p = draw(st.one_of(st.sampled_from([5, 7, 13]), _PRIMES))
    n = draw(st.integers(1, 12))
    coeff = st.integers(0, p - 1)
    g = draw(st.lists(coeff, min_size=n, max_size=n)) + [1]
    t = draw(st.lists(coeff, min_size=1, max_size=n + 2))
    return p, g, t


def _minus_x(h):
    c = _padded(h.tolist(), max(len(h), 2))
    c[1] -= 1
    return _arr(c)


@settings(max_examples=40, deadline=None)
@given(_block_case())
@example((7, [6, 0, 0, 0, 0, 0, 1], [3, 0, 1]))  # x^6 - 1 splits over F_7
@example((5, [1, 1, 0, 1], [4, 1, 0, 1]))  # t = g + 3: zero on no factor
@example((13, [0, 1, 1], [0, 1]))  # t = x vanishes on the factor x
def test_distinct_degree_blocks_against_definition(case):
    p, g, t = case
    g = _arr(g)
    assume(poly_deg(poly_gcd(g, _derivative(g, p), p)) == 0)
    blocks = list(distinct_degree_blocks(g, p, _arr(t)))
    assert [d for d, _, _ in blocks] == sorted({d for d, _, _ in blocks})
    assert _product([part for _, part, _ in blocks], p).tolist() == g.tolist()
    factors = factor_squarefree(g, p, random.Random(0))
    for d, part, squares in blocks:
        ring = ModRing(part, p)
        assert poly_deg(poly_gcd(_minus_x(ring.pow(_X, p ** d)), part, p)) == poly_deg(part)
        for e in range(1, d):
            assert poly_deg(poly_gcd(_minus_x(ring.pow(_X, p ** e)), part, p)) == 0
        block_factors = [f for f in factors if poly_deg(f) == d]
        assert poly_deg(part) == d * len(block_factors)
        on_squares = [f for f in block_factors if is_square_mod(_arr(t), f, p)]
        assert squares.tolist() == _product(on_squares, p).tolist()
    assert [s for _, _, s in distinct_degree_blocks(g, p)] == [None] * len(blocks)
    # irreducible exactly when g is its own first block; a square never is
    assert poly_is_irreducible(g, p) == (len(factors) == 1)
    assert not poly_is_irreducible(poly_mul(factors[0], factors[0], p), p)


def _product(factors, p):
    out = np.ones(1, dtype=np.int64)
    for f in factors:
        out = poly_mul(out, f, p)
    return out


def _shifted(f, c, p):
    """f(x + c), irreducible with f."""
    out = np.zeros(1, dtype=np.int64)
    for coeff in f[::-1]:
        out = poly_mul(out, _arr([c, 1]), p)
        out[0] = (out[0] + coeff) % p
    return np.trim_zeros(out, "b")


# factor degrees of products of degree 40-84 on both sides of the interval
# edges: the width is floor(sqrt(deg / 2)), 4 at degree 44, 5 at 51 and 70, 6 at 84
@pytest.mark.parametrize("degrees", [
    (1, 2, 3, 4, 6, 7, 28),     # 51: 4 and 7 end their intervals with deg G < 2d
    (1, 1, 2, 6, 6, 28),        # 44: two factors of degree 1 and two of degree 6
    (3, 4, 7, 28, 28),          # 70: two factors of degree 28, in the interval [26, 28]
    (28, 28, 28),               # 84: one block found by the interval [25, 30]
])
def test_distinct_degree_blocks_at_division_polynomial_degrees(degrees):
    p = 101
    factors, seen = [], {}
    for k in degrees:
        factors.append(_shifted(find_irreducible(p, k), seen.get(k, 0), p))
        seen[k] = seen.get(k, 0) + 1
    g = _product(factors, p)
    assert 40 <= poly_deg(g) <= 84
    t = _arr([5, 2, 0, 1])
    want = []
    for d in sorted(set(degrees)):
        block = [f for f in factors if poly_deg(f) == d]
        on_squares = [f for f in block if is_square_mod(t, f, p)]
        want.append((d, _product(block, p).tolist(), _product(on_squares, p).tolist()))
    got = [(d, part.tolist(), squares.tolist())
           for d, part, squares in distinct_degree_blocks(g, p, t)]
    assert got == want


@pytest.mark.parametrize("k", [1, 2, 3, 4, 6, 7, 28])
def test_irreducible_but_not_its_square(k):
    p = 101
    f = _shifted(find_irreducible(p, k), 3, p)
    assert poly_is_irreducible(f, p)
    assert not poly_is_irreducible(poly_mul(f, f, p), p)


def test_distinct_degree_blocks_take_one_gcd_per_interval(monkeypatch):
    """E[13] over F_109 on y^2 = x^3 + 25x + 86: the primitive abscissa
    polynomial (degree 84) is one block of three degree-28 factors.  The
    degrees up to 42 fall in intervals of width 6, one gcd each, with one
    gcd to refine the hit and one for the squares; a gcd per degree took 29."""
    from torsionfields import finitefield
    from torsionfields.curve import DivisionPolynomials
    from torsionfields.torsion import _primitive_x_poly

    q, A, B, m = 109, 25, 86, 13
    D = DivisionPolynomials(q, A, B)
    prim = _primitive_x_poly(D, m)
    calls = []
    monkeypatch.setattr(finitefield, "poly_gcd",
                        lambda *args: calls.append(1) or poly_gcd(*args))
    blocks = [(d, poly_deg(part)) for d, part, _ in
              distinct_degree_blocks(prim, q, D.curve_poly)]
    assert blocks == [(28, 84)]
    assert len(calls) <= 12


def test_poly_roots_of_a_split_cubic_at_the_largest_prime():
    p = _TOP_PRIME
    roots = [3, p // 2, p - 7]
    g = np.ones(1, dtype=np.int64)
    for r in roots:
        g = poly_mul(g, _arr([-r % p, 1]), p)
    g = poly_mul(g, _arr([1, 0, 1]), p)  # x^2 + 1 has no root: p = 3 mod 4
    assert p % 4 == 3
    start = time.process_time()
    assert poly_roots(g, p) == sorted(roots)
    assert time.process_time() - start < 1.0


def test_input_checks_survive_python_optimize():
    # under python -O every bare assert is gone; these checks are not
    script = textwrap.dedent("""
        import numpy as np
        from torsionfields.finitefield import ExtField, poly_divmod
        assert False, "asserts must be off under -O"
        for call in (lambda: poly_divmod(np.array([1, 2, 3]), np.array([1, 2]), 5),
                     lambda: ExtField(5, np.array([4, 0, 1]), check_irreducible=True)):
            try:
                call()
            except ValueError as exc:
                print(exc)
    """)
    src = os.path.dirname(os.path.dirname(torsionfields.__file__))
    out = subprocess.run([sys.executable, "-O", "-c", script], check=True,
                         env=dict(os.environ, PYTHONPATH=src),
                         capture_output=True, text=True).stdout
    assert out.splitlines() == ["divisor must be monic", "modulus must be irreducible"]
