"""Order-4 coordinate-field classification over Q.

The two worked example curves anchor everything: the fully split one with
root differences 9, 25, 16 (all squares, so only sqrt(-1) is missing and
the field is Q(i)), and the degree-32 one with 2-torsion field Q(sqrt 13).
A finite-field oracle (Frobenius orders at good primes) cross-checks the
frozen degrees.  Note: the fully split curve is y^2 = x^3 - 481/3 x +
9758/27 — reconstructed exactly from its roots 34/3, 7/3, -41/3; see the
companion regression for the near-miss coefficient 9658/27, which gives an
irreducible cubic and degree 96 instead.
"""

import dataclasses
import hashlib
import math
import os
import subprocess
import sys
import textwrap
from fractions import Fraction

import mpmath
import pytest
from hypothesis import given, settings, strategies as st

import torsionfields
from torsionfields.classify3 import ClassificationDefect, classify3, radical_roots3
from torsionfields.classify4 import (
    FLAG_KEYS_4,
    Classification4Report,
    classify4,
    conditions4,
    d96_criterion,
    degree4,
    four_torsion_points,
    galois_structure4,
    special_cases4,
    two_torsion_split,
)
from torsionfields.finitefield import is_prime
from torsionfields.numberfield import RESIDUAL_BOUND, embed, to_mpf, working_bits
from torsionfields.torsion import torsion_data

SPLIT_A, SPLIT_B = Fraction(-481, 3), Fraction(9758, 27)   # roots 34/3, 7/3, -41/3
MISPRINT_B = Fraction(9658, 27)                            # not that curve


# ---------------------------------------------------------------------------
# two_torsion_split
# ---------------------------------------------------------------------------

def test_split_three_rational():
    sp = two_torsion_split(SPLIT_A, SPLIT_B)
    assert sp.shape == "three-rational" and sp.dprime == 1
    assert (sp.alpha, sp.beta, sp.gamma) == \
        (Fraction(34, 3), Fraction(7, 3), Fraction(-41, 3))
    assert sp.diffs() == (9, 25, 16)


def test_split_one_rational():
    sp = two_torsion_split(-22, -15)
    assert sp.shape == "one-rational" and sp.dprime == 2
    # cubic = (x - 5)(x^2 + 5x + 3), so K2 = Q(sqrt 13)
    assert sp.field.radicand == 13
    assert sp.alpha == sp.field.elt(Fraction(5), Fraction(0))
    assert sp.beta + sp.gamma == sp.field.elt(Fraction(-5), Fraction(0))
    assert sp.beta * sp.gamma == sp.field.elt(Fraction(3), Fraction(0))


def test_split_rational_root_is_alpha_even_when_smallest():
    # (x + 4)(x^2 - 4x + 1): rational root -4 below the conjugate pair
    sp = two_torsion_split(-15, 4)
    assert sp.shape == "one-rational"
    assert sp.alpha == sp.field.elt(Fraction(-4), Fraction(0))


def test_split_cyclic_cubic():
    # x^3 - 3x + 1 has discriminant 81: Galois cubic
    sp = two_torsion_split(-3, 1)
    assert sp.shape == "irreducible" and sp.dprime == 3
    assert sp.disc_cubic == 81
    assert type(sp.field).__name__ == "CubicField"


def test_split_generic_cubic():
    sp = two_torsion_split(-4, 1)
    assert sp.shape == "irreducible" and sp.dprime == 6
    assert sp.disc_cubic == 229
    sp2 = two_torsion_split(0, 2)
    assert sp2.dprime == 6 and sp2.disc_cubic == -108


def test_split_high_denominator_roots():
    # roots 1/7, 2/7, -3/7
    sp = two_torsion_split(Fraction(-1, 7), Fraction(6, 343))
    assert sp.shape == "three-rational"
    assert sp.alpha == Fraction(2, 7) and sp.gamma == Fraction(-3, 7)


def test_split_singular_rejected():
    with pytest.raises(ValueError):
        two_torsion_split(-3, 2)
    with pytest.raises(ValueError):
        two_torsion_split(0, 0)


@settings(max_examples=40, deadline=None)
@given(st.integers(-30, 30), st.integers(-30, 30))
def test_split_properties(A, B):
    if 4 * A ** 3 + 27 * B ** 2 == 0:
        return
    sp = two_torsion_split(A, B)     # Vieta identities checked inside
    assert sp.dprime in (1, 2, 3, 6)
    assert sp.disc_cubic == -4 * A ** 3 - 27 * B ** 2
    if sp.dprime == 3:
        d = int(sp.disc_cubic)
        assert math.isqrt(d) ** 2 == d


# ---------------------------------------------------------------------------
# order-4 points
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("A,B", [
    (SPLIT_A, SPLIT_B), (-22, -15), (-3, 1), (-4, 1), (0, 2), (1, 0), (0, 1),
])
def test_four_torsion_points_verify(A, B):
    # the exact Vieta check and the numeric residual and duplication
    # checks all run inside
    pts = four_torsion_points(two_torsion_split(A, B))
    assert len(pts) == 6
    assert sorted(p.halves for p in pts) == \
        ["alpha", "alpha", "beta", "beta", "gamma", "gamma"]


# The A = 0 and B = 0 families for coefficients -6..6, and the two worked
# curves: 26 curves, 156 points.
SPECIAL_CURVES = (
    [(Fraction(0), Fraction(b)) for b in range(-6, 7) if b]
    + [(Fraction(a), Fraction(0)) for a in range(-6, 7) if a]
    + [(Fraction(-15), Fraction(22)), (SPLIT_A, SPLIT_B)]
)
FOUR_TORSION_SHA256 = \
    "2668f24f58667f592a3702d458790838b18484a8aa13de96d87af2feae246c4f"


def test_four_torsion_points_exact_coordinates_pinned():
    # the exact tower coordinates and their 256-bit values, as strings, are
    # frozen: a change of representation must not change any of them
    h = hashlib.sha256()
    count = 0
    for A, B in SPECIAL_CURVES:
        for pt in four_torsion_points(two_torsion_split(A, B)):
            with mpmath.workprec(256):
                h.update(f"{A} {B} {pt.halves} {pt.x!r} {pt.y!r} "
                         f"{pt.x_num} {pt.y_num}\n".encode())
            count += 1
    assert count == 156
    assert h.hexdigest() == FOUR_TORSION_SHA256


# one curve per shape of K2: Q, Q(sqrt 13), cyclic cubic, cubic plus sqrt,
# with the ids pytest gives these (A, B) pairs
CORRUPTIBLE = [(SPLIT_A, SPLIT_B), (-22, -15), (-3, 1), (-4, 1)]
CORRUPTIBLE_IDS = ["A0-B0", "-22--15", "-3-1", "-4-1"]
# (beta, gamma) shifts: gamma + 1 moves alpha + beta + gamma; (beta + 1,
# gamma - 1) keeps it, so only the second and third Vieta identities see it
CORRUPTIONS = [pytest.param(A, B, (0, 1), id=i)
               for (A, B), i in zip(CORRUPTIBLE, CORRUPTIBLE_IDS)] + \
              [pytest.param(A, B, (1, -1), id=f"{i}-trace-kept")
               for (A, B), i in zip(CORRUPTIBLE, CORRUPTIBLE_IDS)]


def _corrupted_split(A, B, shift):
    split = two_torsion_split(A, B)
    return dataclasses.replace(split, beta=split.beta + shift[0],
                               gamma=split.gamma + shift[1])


@pytest.mark.parametrize("A,B,shift", CORRUPTIONS)
def test_four_torsion_points_rejects_a_corrupted_split(A, B, shift):
    # the exact Vieta check fails before any numeric check runs
    with pytest.raises(ClassificationDefect, match="curve identity"):
        four_torsion_points(_corrupted_split(A, B, shift))


def test_exact_checks_survive_python_optimize():
    # under python -O every bare assert is gone; the exact checks are not
    script = textwrap.dedent(f"""
        import dataclasses
        from fractions import Fraction
        from torsionfields.classify4 import four_torsion_points, two_torsion_split
        from torsionfields.numberfield import ClassificationDefect
        assert False, "asserts must be off under -O"
        for A, B in {[(str(A), str(B)) for A, B in CORRUPTIBLE]!r}:
            split = two_torsion_split(Fraction(A), Fraction(B))
            split = dataclasses.replace(split, gamma=split.gamma + 1)
            try:
                four_torsion_points(split)
            except ClassificationDefect as exc:
                print(exc)
    """)
    src = os.path.dirname(os.path.dirname(torsionfields.__file__))
    out = subprocess.run([sys.executable, "-O", "-c", script], check=True,
                         env=dict(os.environ, PYTHONPATH=src),
                         capture_output=True, text=True).stdout
    assert out.splitlines() == ["curve identity fails in the tower"] * 4


def test_four_torsion_split_curve_lands_in_gaussian_rationals():
    # root differences 9, 25, 16: all radicals rational, so the order-4
    # points have coordinates in Q(i); the first halves (34/3, 0)
    pts = four_torsion_points(two_torsion_split(SPLIT_A, SPLIT_B))
    with mpmath.workprec(250):
        p1 = pts[0]
        assert abs(p1.x_num - (Fraction(34, 3) + 15)) < 1e-40
        assert abs(p1.y_num - 120) < 1e-40
        for p in pts:
            # x and y are Gaussian rationals: imaginary parts are exact
            # multiples of 1, real parts rational — residual test only
            assert abs((p.y_num ** 2) -
                       (p.x_num ** 3 + mpmath.mpf(-481) / 3 * p.x_num +
                        mpmath.mpf(9758) / 27)) < 1e-30


# ---------------------------------------------------------------------------
# conditions and degrees
# ---------------------------------------------------------------------------

def test_conditions_split_example():
    flags, conf = conditions4(two_torsion_split(SPLIT_A, SPLIT_B))
    assert conf == "exact"
    assert flags == {"alpha_beta": False, "alpha_gamma": False,
                     "beta_gamma": False, "minus_one": True}


def test_conditions_degree32_example():
    flags, conf = conditions4(two_torsion_split(-22, -15))
    assert conf == "exact"
    assert all(flags.values())


def test_conditions_frozen_small_curves():
    # y^2 = x^3 + 1: K2 = Q(sqrt-3); the first two differences are
    # independent, beta - gamma = sqrt(-3) and -1 then come for free
    flags, _ = conditions4(two_torsion_split(0, 1))
    assert flags == {"alpha_beta": True, "alpha_gamma": True,
                     "beta_gamma": False, "minus_one": False}
    # y^2 = x^3 + x: K2 = Q(i); only the first difference is new
    flags, _ = conditions4(two_torsion_split(1, 0))
    assert flags == {"alpha_beta": True, "alpha_gamma": False,
                     "beta_gamma": False, "minus_one": False}


def test_degree_table_enumeration():
    rows = 0
    for dprime in (1, 2, 3, 6):
        for i in range(5):
            flags = {k: j < i for j, k in enumerate(FLAG_KEYS_4)}
            if dprime == 1 and i == 0:
                with pytest.raises(ClassificationDefect):
                    degree4(flags, dprime)
                continue
            d = degree4(flags, dprime)
            assert d == dprime * 2 ** i
            assert 96 % d == 0
            rows += 1
    assert rows == 19
    with pytest.raises(ValueError):
        degree4({k: False for k in FLAG_KEYS_4}, 4)


def test_galois_structure():
    all_on = {k: True for k in FLAG_KEYS_4}
    s = galois_structure4(all_on, 6)
    assert s == {"quotient": "S3", "kernel_rank": 4, "order": 96,
                 "descriptor": "(Z/2)^4 : S3"}
    s = galois_structure4(all_on, 2)
    assert s["descriptor"] == "(Z/2)^4 : Z2" and s["order"] == 32
    none_on = {k: False for k in FLAG_KEYS_4}
    assert galois_structure4(none_on, 6)["descriptor"] == "S3"
    one_on = dict(none_on, minus_one=True)
    assert galois_structure4(one_on, 1)["descriptor"] == "(Z/2)^1"


# ---------------------------------------------------------------------------
# the d = 96 criterion
# ---------------------------------------------------------------------------

def test_d96_criterion():
    assert d96_criterion(-4, 1) is True
    assert classify4(-4, 1).degree == 96
    assert d96_criterion(SPLIT_A, SPLIT_B) is False      # reducible
    assert d96_criterion(-22, -15) is False              # reducible
    assert d96_criterion(0, 2) is False                  # negative disc
    assert d96_criterion(-3, 1) is False                 # square disc
    assert d96_criterion(0, 0) is False                  # singular


def test_misprint_neighbour_curve_is_a_d96_witness():
    """One digit away from the fully split curve sits an irreducible cubic
    with positive nonsquare discriminant — a genuine degree-96 curve.
    Pinned so the two nearby curves are never conflated."""
    assert d96_criterion(SPLIT_A, MISPRINT_B) is True
    rep = classify4(SPLIT_A, MISPRINT_B)
    assert rep.dprime == 6 and rep.degree == 96


# ---------------------------------------------------------------------------
# one-parameter families
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("A,B,expect", [
    (0, 1, 8), (0, 2, 24), (0, -1, 8), (0, 8, 8), (0, -8, 8), (0, 3, 24),
    (0, Fraction(27, 8), 8),
    (1, 0, 4), (-1, 0, 4), (4, 0, 4), (-4, 0, 4), (16, 0, 4), (64, 0, 4),
    (Fraction(1, 4), 0, 4),
    (2, 0, 8), (-2, 0, 8), (8, 0, 8), (-8, 0, 8), (9, 0, 8), (-9, 0, 8),
    (18, 0, 8),
    (5, 0, 16), (12, 0, 16), (-5, 0, 16), (7, 0, 16),
])
def test_special_cases_list(A, B, expect):
    assert special_cases4(A, B) == expect


def test_special_cases_rejects_wrong_family():
    with pytest.raises(ValueError):
        special_cases4(0, 0)
    with pytest.raises(ValueError):
        special_cases4(1, 1)


def test_special_cases_agree_with_pipeline():
    import random
    rng = random.Random(20250825)
    checked = 0
    while checked < 50:
        B = rng.randint(-60, 60)
        if B == 0:
            continue
        assert special_cases4(0, B) == classify4(0, B).degree, (0, B)
        checked += 1
    checked = 0
    while checked < 50:
        A = rng.randint(-60, 60)
        if A == 0:
            continue
        assert special_cases4(A, 0) == classify4(A, 0).degree, (A, 0)
        checked += 1


# ---------------------------------------------------------------------------
# whole classifier
# ---------------------------------------------------------------------------

def test_classify4_examples():
    rep = classify4(SPLIT_A, SPLIT_B)
    assert (rep.shape, rep.dprime, rep.degree) == ("three-rational", 1, 2)
    assert rep.structure["descriptor"] == "(Z/2)^1"      # Gal = Z/2, K4 = Q(i)
    rep2 = classify4(-22, -15)
    assert (rep2.dprime, rep2.degree) == (2, 32)
    assert rep2.structure == {"quotient": "Z2", "kernel_rank": 4,
                              "order": 32, "descriptor": "(Z/2)^4 : Z2"}
    assert rep.confidence == rep2.confidence == "exact"


def _mod(q: Fraction, p: int) -> int:
    return q.numerator * pow(q.denominator, -1, p) % p


@pytest.mark.parametrize("A,B,d", [
    (SPLIT_A, SPLIT_B, 2), (-22, -15, 32), (SPLIT_A, MISPRINT_B, 96),
])
def test_degrees_against_finite_fields(A, B, d):
    """Frobenius orders at good primes are element orders of Gal(K4/Q):
    they divide d, and their lcm is a reasonable fraction of it."""
    A, B = Fraction(A), Fraction(B)
    disc = 4 * A ** 3 + 27 * B ** 2
    running = 1
    for q in range(5, 260):
        if not is_prime(q) or math.gcd(q, 6) > 1:
            continue
        if disc.numerator % q == 0 or disc.denominator % q == 0 or \
                A.denominator % q == 0 or B.denominator % q == 0:
            continue
        n = torsion_data(q, _mod(A, q), _mod(B, q), 4).n
        assert d % n == 0, (q, n)
        running = math.lcm(running, n)
    assert running > 1
    if d == 2:
        assert running == 2


@settings(max_examples=40, deadline=None)
@given(st.integers(-25, 25), st.integers(-25, 25))
def test_classify4_properties(A, B):
    if 4 * A ** 3 + 27 * B ** 2 == 0:
        return
    rep = classify4(A, B)
    i = sum(rep.flags.values())
    assert rep.degree == rep.dprime * 2 ** i
    assert 96 % rep.degree == 0
    assert rep.structure["order"] == rep.degree
    assert rep.confidence == "exact"
    assert list(rep.flags) == list(FLAG_KEYS_4)


TWIST_FACTORS = pytest.mark.parametrize(
    "u", [997, 10**5 + 3, Fraction(10**9 + 7, 13), 10**30 + 57],
    ids=["997", "100003", "1000000007_over_13", "1e30+57"])
TWIST_BASES = SPECIAL_CURVES + [(Fraction(1), Fraction(1)),
                                (Fraction(2), Fraction(14))]


@TWIST_FACTORS
def test_twists_classify_like_their_base(u):
    # (u^4 A, u^6 B) is isomorphic to (A, B) over Q: same fields, same answer
    for A, B in TWIST_BASES:
        for classify in (classify3, classify4):
            base = classify(A, B).to_json()
            twist = classify(A * u ** 4, B * u ** 6).to_json()
            assert twist["confidence"] == "exact"
            for key in ("flags", "degree", "group", "structure", "confidence"):
                assert twist.get(key) == base.get(key), (A, B, key)


@TWIST_FACTORS
def test_twists_pass_the_numeric_checks(u):
    # the radicals and the order-4 points of a twist meet RESIDUAL_BOUND at
    # the precision the calls work at, however large u^4 A and u^6 B are
    for A0, B0 in TWIST_BASES:
        A, B = A0 * u ** 4, B0 * u ** 6
        xs, ys, _ = radical_roots3(A, B)
        split = two_torsion_split(A, B)
        points = four_torsion_points(split)
        assert len(xs) == 4 and len(points) == 6
        with mpmath.workprec(working_bits(A, B)):
            a, b, gens = to_mpf(A), to_mpf(B), {}
            for x, y in zip(xs, ys):
                x = mpmath.mpc(x)
                assert abs(x ** 4 + 2 * a * x * x + 4 * b * x - a * a / 3) \
                    <= RESIDUAL_BOUND, (A0, B0)
                assert abs(y * y - (x ** 3 + a * x + b)) <= RESIDUAL_BOUND, (A0, B0)
            for pt in points:
                x, y = pt.x_num, pt.y_num
                fx = x ** 3 + a * x + b
                assert abs(y * y - fx) <= RESIDUAL_BOUND, (A0, B0, pt.halves)
                r0 = embed(split.field, getattr(split, pt.halves), gens)
                double_x = ((x * x - a) ** 2 - 8 * b * x) / (4 * fx)
                assert abs(double_x - r0) <= RESIDUAL_BOUND, (A0, B0, pt.halves)


def test_report_json_shape():
    js = classify4(-22, -15).to_json()
    assert list(js) == ["schema", "A", "B", "dprime", "flags", "degree",
                       "structure", "confidence"]
    assert js["schema"] == "1"
    assert js["A"] == "-22" and js["B"] == "-15"
    assert js["dprime"] == 2 and js["degree"] == 32
    assert isinstance(classify4(0, 1), Classification4Report)
