import math
import os
import random
import subprocess
import sys
import textwrap

import pytest

import torsionfields
from torsionfields.curve import DivisionPolynomials, discriminant
from torsionfields.finitefield import (
    ExtField,
    PrimeField,
    QuadExt,
    factor_squarefree,
    is_prime,
    poly_deg,
    pow_elt,
    primes_in_range,
)
from torsionfields.gl2 import factor_int
from torsionfields.torsion import (
    MAX_Q,
    TorsionConstructionError,
    _construct_via_division_poly,
    _finalize,
    _group_order_over_ext,
    _independent,
    _primitive_x_poly,
    _torsion_points,
    torsion_data,
    weil_pairing,
)

from polyhelpers import is_square_mod, x_of_double

# a small spread of instances touching every field shape; (q, A, B, m)
SPREAD = [
    (13, 1, 1, 3),
    (11, 2, 5, 3),
    (13, 1, 1, 4),
    (19, 3, 2, 4),
    (23, 1, 7, 5),
    (11, 2, 5, 5),
    (19, 3, 2, 7),
    (5, 1, 1, 8),
    (7, 1, 3, 9),
    (7, 2, 3, 12),
]


def _mult_order(q, m):
    k, t = 1, q % m
    while t != 1:
        t = t * q % m
        k += 1
    return k


def _data(q, A, B, m, _cache={}):
    key = (q, A, B, m)
    if key not in _cache:
        _cache[key] = torsion_data(q, A, B, m)
    return _cache[key]


def test_rejects_bad_inputs():
    with pytest.raises(TorsionConstructionError):
        torsion_data(9, 1, 1, 3)  # not prime
    with pytest.raises(TorsionConstructionError):
        torsion_data(5, 1, 1, 10)  # q | m
    with pytest.raises(TorsionConstructionError):
        torsion_data(5, 2, 3, 3)  # 4A^3+27B^2 = 275 = 0 mod 5
    with pytest.raises(TorsionConstructionError):
        torsion_data(5, 1, 1, 14)  # out of range
    assert is_prime(331363937) and MAX_Q < 331363937
    with pytest.raises(TorsionConstructionError):
        torsion_data(331363937, 1, 1, 5)  # first prime above the int64 bound


@pytest.mark.parametrize("q, A, B, m, n", [
    # q near 10^6 and 10^7, where an unreduced int64 contraction used to wrap
    (1000003, 1, 1, 5, 24),
    (10000019, 1, 1, 5, 20),
    (1813667, 522301, 1360998, 3, 8),
    (1167359, 150851, 291016, 5, 12),
    # an l-part Z/l^a x Z/l^b of E(F) with a > b: a cofactor-only sampler
    # stays in one cyclic subgroup and never completes the basis
    (19, 12, 8, 12, 6),
    (29, 28, 17, 6, 2),
    (137, 20, 115, 10, 4),
    (173, 78, 54, 10, 24),
])
def test_construction_is_exact(q, A, B, m, n):
    td = torsion_data(q, A, B, m)
    assert td.n == n
    a, b, c, d = td.frobenius
    assert (a * d - b * c - q) % m == 0
    power, order = (a % m, b % m, c % m, d % m), 1
    while power != (1, 0, 0, 1):
        w, x, y, z = power
        power = ((w * a + x * c) % m, (w * b + x * d) % m,
                 (y * a + z * c) % m, (y * b + z * d) % m)
        order += 1
    assert order == n
    assert _group_order_over_ext(q, A, B, n) % (m * m) == 0


@pytest.mark.parametrize("q, A, B, m", [(19, 12, 8, 12), (7, 0, 2, 3)])
def test_torsion_points_spread_over_the_torsion(q, A, B, m):
    # uniform points of E[m] reach all l + 1 cyclic subgroups of each E[l];
    # at (19, 12, 8) the 3-part of E(F_19^6) is Z/3^4 x Z/3, where a
    # cofactor-only sampler puts nearly every point on one line
    E, n, _ = _construct_via_division_poly(q, A, B, m, random.Random(0))
    sampler = _torsion_points(E, q, A, B, m, n, random.Random(1))
    points = [next(sampler) for _ in range(40)]
    assert all(E.mul(P, m) is None for P in points)
    for ell in factor_int(m):
        lines = set()
        for P in points:
            T = E.mul(P, m // ell)
            if T is not None:
                lines.add(frozenset(E.mul(T, j)[0].encode() for j in range(1, ell)))
        assert len(lines) == ell + 1, ell


def test_construction_checks_survive_python_optimize():
    # under python -O every bare assert is gone; the construction checks are not
    script = textwrap.dedent("""
        import random
        from torsionfields.torsion import (
            TorsionConstructionError, _construct_via_division_poly, _finalize)
        assert False, "asserts must be off under -O"
        E, n, P1 = _construct_via_division_poly(11, 2, 5, 5, random.Random(0))
        try:
            _finalize(11, 2, 5, 5, n, E, P1, E.mul(P1, 2))
        except TorsionConstructionError as exc:
            print(exc)
    """)
    src = os.path.dirname(os.path.dirname(torsionfields.__file__))
    out = subprocess.run([sys.executable, "-O", "-c", script], check=True,
                         env=dict(os.environ, PYTHONPATH=src),
                         capture_output=True, text=True).stdout
    assert out.splitlines() == ["basis multiples share an abscissa"]


def _reference_field_choice(q, A, B, m):
    """(n, g*, model) by the full factorization: each irreducible factor g of
    the primitive abscissa polynomial has exponent deg g, or 2 deg g where
    f(x) is not a square mod g; n is their lcm and g* the first factor of
    exponent n in (degree, coefficients) order."""
    D = DivisionPolynomials(q, A, B)
    facs = factor_squarefree(_primitive_x_poly(D, m), q, random.Random(0))
    exps = [poly_deg(g) * (1 if is_square_mod(D.curve_poly, g, q) else 2) for g in facs]
    n = math.lcm(*exps)
    g_star = facs[exps.index(n)]
    if poly_deg(g_star) < n:
        return n, g_star.tolist(), QuadExt
    return n, g_star.tolist(), PrimeField if n == 1 else ExtField


def _seeded_curves(count):
    rng = random.Random(14)
    primes = primes_in_range(5, 150)
    while count:
        m, q = rng.randrange(3, 14), rng.choice(primes)
        A, B = rng.randrange(q), rng.randrange(q)
        if m % q and discriminant(A, B) % q:
            count -= 1
            yield q, A, B, m


def test_field_choice_matches_the_full_factorization():
    # E[m] is rational over F_q on the first four, so F_q itself is the field
    rational = [(7, 0, 2, 3), (29, 4, 7, 4), (41, 6, 0, 5), (113, 5, 0, 7)]
    models = set()
    for i, (q, A, B, m) in enumerate(rational + list(_seeded_curves(200))):
        E, n, (x1, _) = _construct_via_division_poly(q, A, B, m, random.Random(i))
        F = E.field
        base = F.base if isinstance(F, QuadExt) else F
        xb = x1.a if isinstance(F, QuadExt) else x1
        g_star = base.modulus.tolist() if isinstance(base, ExtField) else [-xb.v % q, 1]
        assert (n, g_star, type(F)) == _reference_field_choice(q, A, B, m), (q, A, B, m)
        models.add((type(F), type(base)))
    assert models == {(PrimeField, PrimeField), (ExtField, ExtField),
                      (QuadExt, PrimeField), (QuadExt, ExtField)}


def test_two_torsion_frozen_example():
    # x^3 + 1 = (x+1)(x^2 - x + 1) mod 5 and the quadratic is irreducible,
    # so the 2-torsion field is F_25
    td = _data(5, 0, 1, 2)
    assert td.n == 2
    assert td.zeta == -td.field.one()
    for key in ((0, 1), (1, 0), (1, 1)):
        P = td.point(*key)
        assert not P[1]
        assert td.curve.double(P) is None


def test_basis_has_exact_order():
    for q, A, B, m in SPREAD:
        td = _data(q, A, B, m)
        E = td.curve
        for P in (td.P1, td.P2):
            assert E.mul(P, m) is None
            for ell in {p for p in (2, 3, 5, 7, 11, 13) if m % p == 0}:
                assert E.mul(P, m // ell) is not None


@pytest.mark.parametrize("q, A, B, m, ell", [
    (13, 1, 1, 4, 2), (23, 1, 7, 5, 5), (7, 1, 3, 9, 3), (7, 2, 3, 12, 2), (7, 2, 3, 12, 3),
])
def test_finalize_rejects_a_basis_point_of_lower_order(q, A, B, m, ell):
    # a basis point of order m/l must fail the checks of _finalize
    td = _data(q, A, B, m)
    E = td.curve
    for P1, P2 in ((E.mul(td.P1, ell), td.P2), (td.P1, E.mul(td.P2, ell))):
        with pytest.raises(TorsionConstructionError):
            _finalize(q, A, B, m, td.n, E, P1, P2)


def test_zeta_field_degree_matches_cyclotomic_order():
    # [F_q(zeta_m) : F_q] is the multiplicative order of q mod m
    for q, A, B, m in SPREAD:
        td = _data(q, A, B, m)
        assert td.subfield_degree([td.zeta]) == _mult_order(q, m)


def test_frobenius_determinant_and_order():
    for q, A, B, m in SPREAD:
        td = _data(q, A, B, m)
        a, b, c, d = td.frobenius
        assert (a * d - b * c - q) % m == 0
        mat = (a, b, c, d)
        cur, k = mat, 1
        while cur != (1, 0, 0, 1):
            cur = ((cur[0] * a + cur[1] * c) % m, (cur[0] * b + cur[1] * d) % m,
                   (cur[2] * a + cur[3] * c) % m, (cur[2] * b + cur[3] * d) % m)
            k += 1
        assert k == td.n


# (q, A, B, m, field model): odd m, even m, and m = 2, where (1, 1) = -(1, 1)
TABLE_CASES = [
    (5, 1, 0, 2, "PrimeField"),
    (5, 0, 1, 2, "ExtField"),
    (13, 1, 1, 4, "QuadExt"),
    (13, 0, 5, 4, "PrimeField"),
    (5, 4, 0, 4, "ExtField"),
    (5, 0, 1, 6, "QuadExt"),
    (31, 0, 1, 6, "PrimeField"),
    (7, 0, 1, 9, "ExtField"),
    (5, 0, 1, 13, "QuadExt"),
]


def test_table_is_the_group():
    # every entry against i P1 + j P2 from scalar multiples, and the symmetry
    # -(i P1 + j P2) = (-i) P1 + (-j) P2 the table is built from
    for q, A, B, m, model in TABLE_CASES:
        td = _data(q, A, B, m)
        assert type(td.field).__name__ == model
        E = td.curve
        for i in range(m):
            for j in range(m):
                P = td.point(i, j)
                assert _same(P, E.add(E.mul(td.P1, i), E.mul(td.P2, j))), (q, A, B, m, i, j)
                assert _same(td.point(-i, -j), E.neg(P)), (q, A, B, m, i, j)
        for i1, j1, i2, j2 in [(1, 0, 0, 1), (1, 2, 3, 1), (2, 3, 2, 1), (3, 3, 1, 3)]:
            S = E.add(td.point(i1, j1), td.point(i2, j2))
            assert _same(S, td.point(i1 + i2, j1 + j2))


@pytest.mark.parametrize("q, A, B, m", [(7, 1, 1, 5), (7, 0, 1, 9), (5, 0, 1, 12)])
def test_independent_is_the_determinant_test(q, A, B, m):
    # a P1 + c P2 and b P1 + d P2 form a basis iff ad - bc is a unit mod m
    td = _data(q, A, B, m)
    rng = random.Random(m)
    seen = set()
    for _ in range(80):
        a, b, c, d = (rng.randrange(m) for _ in range(4))
        want = math.gcd(a * d - b * c, m) == 1
        assert _independent(td.curve, td.point(a, c), td.point(b, d), m) == want
        seen.add(want)
    assert seen == {True, False}


def test_decompose_roundtrip():
    td = _data(11, 2, 5, 5)
    for i in range(5):
        for j in range(5):
            assert td.decompose(td.point(i, j)) == (i, j)


def test_frobenius_matrix_acts_on_the_table():
    for q, A, B, m in [(13, 1, 1, 3), (19, 3, 2, 4), (11, 2, 5, 5), (7, 1, 3, 9)]:
        td = _data(q, A, B, m)
        a, b, c, d = td.frobenius
        for i, j in [(1, 0), (0, 1), (1, 1), (2, 1), (1, 2)]:
            img = td.frobenius_point(td.point(i, j))
            assert td.decompose(img) == ((a * i + b * j) % m, (c * i + d * j) % m)


def _same(P, Q):
    if P is None or Q is None:
        return P is None and Q is None
    return P[0] == Q[0] and P[1] == Q[1]


def test_full_coordinate_set_generates_everything():
    for q, A, B, m in SPREAD:
        td = _data(q, A, B, m)
        gens = [td.x1, td.y1, td.x2, td.y2]
        assert td.subfield_degree(gens) == td.n


def test_subfield_degree_monotone_under_lcm():
    td = _data(19, 3, 2, 7)
    k1 = td.subfield_degree([td.x1])
    k2 = td.subfield_degree([td.x2])
    k12 = td.subfield_degree([td.x1, td.x2])
    assert k12 == math.lcm(k1, k2) or k12 % math.lcm(k1, k2) == 0
    assert td.subfield_degree([td.x1, td.y1, td.x2, td.y2]) % k12 == 0


def test_pairing_properties():
    for q, A, B, m in [(13, 1, 1, 3), (19, 3, 2, 4), (11, 2, 5, 5)]:
        td = _data(q, A, B, m)
        E, F = td.curve, td.field
        P, Q = td.P1, td.P2
        zeta = td.zeta
        # alternating and skew-symmetric
        assert weil_pairing(E, P, P, m) == F.one()
        assert weil_pairing(E, Q, Q, m) == F.one()
        assert weil_pairing(E, P, Q, m) * weil_pairing(E, Q, P, m) == F.one()
        # bilinearity against the decomposition: e(iP+jQ, kP+lQ) = zeta^(il-jk)
        for i, j, k, l in [(1, 1, 0, 1), (2, 1, 1, 2), (0, 2, 1, 1), (1, 2, 2, 1)]:
            got = weil_pairing(E, td.point(i, j), td.point(k, l), m)
            assert got == pow_elt(zeta, (i * l - j * k) % m)


@pytest.mark.parametrize("q, A, B, m", [(5, 1, 0, 2), (7, 0, 2, 3)])
def test_pairing_when_the_curve_is_its_torsion(q, A, B, m):
    # E(F_q) = E[m]: no rational point lies off the torsion, and the
    # pairing is still bilinear, alternating and primitive on a basis
    td = _data(q, A, B, m)
    assert td.n == 1 and len(td.table) == m * m
    E, one = td.curve, td.field.one()
    assert all(pow_elt(td.zeta, m // ell) != one for ell in factor_int(m))
    keys = [(i, j) for i in range(m) for j in range(m)]
    for i, j in keys:
        for k, l in keys:
            got = weil_pairing(E, td.point(i, j), td.point(k, l), m)
            assert got == pow_elt(td.zeta, (i * l - j * k) % m)


def test_pairing_galois_equivariance():
    for q, A, B, m in [(13, 1, 1, 3), (11, 2, 5, 5), (5, 1, 1, 8)]:
        td = _data(q, A, B, m)
        E = td.curve
        lhs = weil_pairing(E, td.frobenius_point(td.P1), td.frobenius_point(td.P2), m)
        assert lhs == pow_elt(td.zeta, q % m)


def test_two_torsion_pairing_sign_table():
    # e_2(aP1 + bP2, cP1 + dP2) = (-1)^(ad - bc), all sixteen combinations
    td = _data(5, 0, 1, 2)
    E, F = td.curve, td.field
    one, mone = F.one(), -F.one()
    for a in range(2):
        for b in range(2):
            for c in range(2):
                for d in range(2):
                    got = weil_pairing(E, td.point(a, b), td.point(c, d), 2)
                    want = mone if (a * d - b * c) % 2 else one
                    assert got == want


def test_rational_torsion_forces_random_completion():
    # y^2 = x^3 + 2 over F_7 has its full 3-torsion rational: the Frobenius
    # image of P1 is P1 itself, so the second generator must come from the
    # random-point search
    td = _data(7, 0, 2, 3)
    assert td.n == 1
    assert td.frobenius == (1, 0, 0, 1)
    assert td.subfield_degree([td.zeta]) == 1
    assert len({k for k in td.table}) == 9


def test_even_composites_match_their_parts():
    td6 = _data(5, 0, 1, 6)
    td2 = _data(5, 0, 1, 2)
    td3 = _data(5, 0, 1, 3)
    assert td6.n == math.lcm(td2.n, td3.n)
    assert td6.subfield_degree([td6.x1, td6.y1, td6.x2, td6.y2]) == td6.n
    assert pow_elt(td6.zeta, 6) == td6.field.one()
    assert pow_elt(td6.zeta, 3) != td6.field.one()
    assert pow_elt(td6.zeta, 2) != td6.field.one()

    td10 = _data(7, 2, 3, 10)
    assert td10.n == math.lcm(_data(7, 2, 3, 2).n, _data(7, 2, 3, 5).n)
    a, b, c, d = td10.frobenius
    assert (a * d - b * c - 7) % 10 == 0


def test_zeta_d_orders():
    td = _data(7, 2, 3, 12)
    for dd in (3, 4, 6, 12):
        z = td.zeta_d(dd)
        assert pow_elt(z, dd) == td.field.one()
        for ell in (2, 3):
            if dd % ell == 0:
                assert pow_elt(z, dd // ell) != td.field.one()
    # zeta_d is zeta^(m/d), which the compatibility of the pairings makes
    # e_d((m/d) P1, (m/d) P2): the Miller loop at level d agrees
    for q, A, B, m in SPREAD + [(5, 0, 1, 6), (7, 2, 3, 10)]:
        td = _data(q, A, B, m)
        for dd in range(2, m + 1):
            if m % dd == 0:
                k = m // dd
                want = weil_pairing(td.curve, td.point(k, 0), td.point(0, k), dd)
                assert td.zeta_d(dd) == want, (q, A, B, m, dd)


def test_construction_is_deterministic():
    a = torsion_data(13, 1, 1, 4)
    b = torsion_data(13, 1, 1, 4)
    assert a.frobenius == b.frobenius
    assert a.x1.encode() == b.x1.encode()
    assert a.y2.encode() == b.y2.encode()
    assert a.zeta.encode() == b.zeta.encode()


def test_x_of_double_consistent_with_table():
    td = _data(19, 3, 2, 7)
    E = td.curve
    for i, j in [(1, 0), (1, 1), (2, 3)]:
        P = td.point(i, j)
        assert x_of_double(E, P[0]) == td.point(2 * i, 2 * j)[0]


def test_thirteen_torsion_heavyweight():
    td = _data(5, 1, 2, 13)
    assert td.subfield_degree([td.zeta]) == _mult_order(5, 13)
    a, b, c, d = td.frobenius
    assert (a * d - b * c - 5) % 13 == 0
    assert td.subfield_degree([td.x1, td.y1, td.x2, td.y2]) == td.n
