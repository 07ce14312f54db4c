"""Acceptance gate: one test per criterion, pinned values and budgets.

Each criterion is a single test function, so a `pytest -v` run shows one
pass/fail line per criterion.  Tolerances are pinned where the criterion
is numeric (1e-9 residuals) and zero elsewhere; wall-clock budgets are
asserted inside the tests that carry one.
"""

import hashlib
import io
import math
import random
import time
from collections import Counter
from fractions import Fraction
from itertools import product

import mpmath

from torsionfields.classify3 import (
    classify3,
    degree3,
    galois_group3,
    radical_roots3,
)
from torsionfields.classify4 import (
    classify4,
    d96_criterion,
    degree4,
    four_torsion_points,
    galois_structure4,
    special_cases4,
    two_torsion_split,
)
from torsionfields.curve import discriminant
from torsionfields.finitefield import pow_elt
from torsionfields.generators import failures, generate_instances, run_suite, write_jsonl
from torsionfields.gl2 import (
    eta_power,
    gl2_elements,
    gl2_order,
    h42_kernel,
    lift_gl2f2,
    mat_mul,
    mat_order,
)
from torsionfields.oracle import chebotarev_degree
from torsionfields.torsion import weil_pairing

EX1 = (Fraction(-481, 3), Fraction(9758, 27))
EX2 = (Fraction(-22), Fraction(-15))


def test_criterion_1_example_curves_exact():
    t0 = time.monotonic()
    rep1 = classify4(*EX1)
    t1 = time.monotonic()
    rep2 = classify4(*EX2)
    t2 = time.monotonic()

    assert rep1.degree == 2
    assert rep1.dprime == 1
    # K4 = Q(sqrt(-1)): the one surviving quadratic is the minus_one flag
    assert rep1.flags == {
        "alpha_beta": False, "alpha_gamma": False,
        "beta_gamma": False, "minus_one": True,
    }
    assert rep1.structure == {
        "quotient": "1", "kernel_rank": 1, "order": 2, "descriptor": "(Z/2)^1",
    }

    assert rep2.dprime == 2
    assert rep2.degree == 32
    assert rep2.structure["order"] == 32
    assert rep2.structure["kernel_rank"] == 4

    assert t1 - t0 < 1.0
    assert t2 - t1 < 1.0


def test_criterion_2_special_families():
    t0 = time.monotonic()
    expected = {
        (0, 1): 8,
        (0, 2): 24,
        (1, 0): 4,
        (2, 0): 8,
        (5, 0): 16,
    }
    for (a, b), want in expected.items():
        A, B = Fraction(a), Fraction(b)
        assert special_cases4(A, B) == want, (a, b)
        assert classify4(A, B).degree == want, (a, b)
    assert time.monotonic() - t0 < 1.0


# every valid flag row of the two degree tables, transcribed
BNZ_ROWS = [
    # (cube_root, sqrt_c, sqrt_delta, ordinate, zeta) -> degree
    ((0, 0, 0, 0, 0), 1),
    ((0, 0, 0, 1, 0), 2),
    ((0, 0, 1, 0, 0), 2),
    ((0, 0, 1, 1, 0), 4),
    ((0, 0, 1, 1, 1), 8),
    ((0, 1, 0, 0, 0), 2),
    ((0, 1, 0, 1, 0), 4),
    ((0, 1, 1, 0, 0), 4),
    ((0, 1, 1, 1, 0), 8),
    ((0, 1, 1, 1, 1), 16),
    ((1, 0, 0, 0, 0), 3),
    ((1, 0, 0, 1, 0), 6),
    ((1, 0, 1, 0, 0), 6),
    ((1, 0, 1, 1, 0), 12),
    ((1, 0, 1, 1, 1), 24),
    ((1, 1, 0, 0, 0), 6),
    ((1, 1, 0, 1, 0), 12),
    ((1, 1, 1, 0, 0), 12),
    ((1, 1, 1, 1, 0), 24),
    ((1, 1, 1, 1, 1), 48),
]

B0_ROWS = [
    # (sqrt3, abscissa, ordinate, zeta) -> degree
    ((0, 0, 0, 0), 1),
    ((0, 0, 1, 0), 2),
    ((1, 0, 0, 0), 2),
    ((1, 0, 1, 0), 4),
    ((0, 1, 1, 0), 4),
    ((0, 1, 1, 1), 8),
    ((1, 1, 1, 1), 16),
]

M4_ROWS = [
    (dprime, i, dprime * 2**i)
    for dprime in (1, 2, 3, 6)
    for i in range(5)
    if not (dprime == 1 and i == 0)
]


def test_criterion_3_degree_tables_row_for_row():
    assert len(BNZ_ROWS) == 20 and len(B0_ROWS) == 7
    for bits, want in BNZ_ROWS:
        flags = dict(zip(("cube_root", "sqrt_c", "sqrt_delta", "ordinate", "zeta"),
                         map(bool, bits)))
        assert degree3(flags) == want, flags
        if want == 8:
            assert galois_group3(flags, 8) == ("D4" if flags["zeta"] else "Q8")
        elif want == 6:
            assert galois_group3(flags, 6) == "S3"
            assert galois_group3(flags, 6, zeta3_in_base=True) == "Z6"
        elif want == 4:
            assert galois_group3(flags, 4, quartic="biquadratic") == "Z2xZ2"
            assert galois_group3(flags, 4, quartic="cyclic") == "Z4"
        else:
            fixed = {1: "1", 2: "Z2", 3: "Z3", 12: "D6", 16: "SD8",
                     24: "SL2_3", 48: "GL2_3"}
            assert galois_group3(flags, want) == fixed[want]
    for bits, want in B0_ROWS:
        flags = dict(zip(("sqrt3", "abscissa", "ordinate", "zeta"), map(bool, bits)))
        assert degree3(flags) == want, flags
    # everything off the 27 rows is rejected
    valid_bnz = {bits for bits, _ in BNZ_ROWS}
    for bits in product((0, 1), repeat=5):
        if bits not in valid_bnz:
            flags = dict(zip(("cube_root", "sqrt_c", "sqrt_delta", "ordinate", "zeta"),
                             map(bool, bits)))
            try:
                degree3(flags)
                raise AssertionError(f"accepted off-table row {bits}")
            except Exception:
                pass

    assert len(M4_ROWS) == 19
    keys = ("alpha_beta", "alpha_gamma", "beta_gamma", "minus_one")
    for dprime, i, want in M4_ROWS:
        flags = {k: idx < i for idx, k in enumerate(keys)}
        assert degree4(flags, dprime) == want
        structure = galois_structure4(flags, dprime)
        assert structure["order"] == want
        assert structure["kernel_rank"] == i


def test_criterion_4_theorem_suite():
    t0 = time.monotonic()
    reports = run_suite(seed=0)
    elapsed = time.monotonic() - t0
    per_check = Counter(r.theorem for r in reports)
    named = [
        "zetam", "zeta_vs_y1y2", "casi1", "dihedral", "ordinates1",
        "odd_index", "ordinates1plus", "ordinates1pp", "reynolds",
        "ext_ord_2p", "borel_cartan",
    ]
    for name in named:
        assert per_check[name] >= 200, (name, per_check[name])
    assert not failures(reports)
    ms = {r.m for r in reports}
    assert ms == {3, 4, 5, 7, 8, 9, 11, 12, 13}
    assert elapsed < 300.0
    # the seed-0 regression run is byte-identical (8060 JSONL reports)
    out = io.StringIO()
    write_jsonl(reports, out)
    assert len(reports) == 8060
    assert hashlib.sha256(out.getvalue().encode()).hexdigest() == (
        "ea1ee8dd72812cb147e6a8c28a13baf345c829520a414c9803d4b091d5a03b24"
    )


def test_criterion_5_pairing_properties():
    rng = random.Random(55)
    instances = 0
    for m, count in ((3, 30), (4, 30), (5, 20), (7, 20)):
        for td in generate_instances(m, count, seed=20):
            one = pow_elt(td.zeta, 0)
            # bilinearity + alternation against the basis pairing
            i, j = rng.randrange(m), rng.randrange(m)
            k, l = rng.randrange(m), rng.randrange(m)
            if (i, j) != (0, 0) and (k, l) != (0, 0):
                lhs = weil_pairing(td.curve, td.point(i, j), td.point(k, l), m)
                assert lhs == pow_elt(td.zeta, (i * l - j * k) % m)
            P = td.point(rng.randrange(1, m), rng.randrange(m))
            assert weil_pairing(td.curve, P, P, m) == one
            # Galois equivariance: sigma(zeta) = zeta^{det sigma}, det = q
            lhs = weil_pairing(
                td.curve, td.frobenius_point(td.P1), td.frobenius_point(td.P2), m
            )
            assert lhs == pow_elt(td.zeta, td.q % m)
            # primitivity
            for p in (2, 3, 5, 7, 11, 13):
                if m % p == 0:
                    assert pow_elt(td.zeta, m // p) != one
            instances += 1
    assert instances >= 100


def test_criterion_6_group_theory_facts():
    for m, want in ((3, 48), (4, 96)):
        brute = sum(
            1
            for a, b, c, d in product(range(m), repeat=4)
            if math.gcd((a * d - b * c) % m, m) == 1
        )
        assert brute == want == gl2_order(m) == len(gl2_elements(m))

    for p in (5, 7, 11, 13):
        eta = eta_power(1, p)
        assert mat_order(eta, p) == 2 * p

    kernel = h42_kernel()
    assert len(kernel) == 16
    ident = (1, 0, 0, 1)
    for M in kernel:
        assert tuple(x % 2 for x in M) == (1, 0, 0, 1)
        assert mat_mul(M, M, 4) == ident
    for M in kernel:
        for N in kernel:
            assert mat_mul(M, N, 4) in kernel
            assert mat_mul(M, N, 4) == mat_mul(N, M, 4)
    # order 16, exponent 2, abelian: that is (Z/2)^4.  Splitting section:
    gl2f2 = [M for M in product(range(2), repeat=4) if (M[0] * M[3] - M[1] * M[2]) % 2]
    assert len(gl2f2) == 6
    for M2 in gl2f2:
        assert tuple(x % 2 for x in lift_gl2f2(M2)) == M2
        for N2 in gl2f2:
            prod2 = tuple(x % 2 for x in mat_mul(M2, N2, 2))
            assert mat_mul(lift_gl2f2(M2), lift_gl2f2(N2), 4) == lift_gl2f2(prod2)
    assert lift_gl2f2((1, 0, 0, 1)) == ident


def test_criterion_7_radical_residuals():
    t0 = time.monotonic()
    rng = random.Random(77)
    bound = mpmath.mpf("1e-9")

    done = 0
    while done < 400:
        A, B = Fraction(rng.randint(-80, 80)), Fraction(rng.randint(-80, 80))
        if discriminant(A, B) == 0:
            continue
        xs, ys, _ = radical_roots3(A, B)
        with mpmath.workprec(256):
            for x, y in zip(xs, ys):
                phi3 = 3 * x**4 + 6 * int(A) * x**2 + 12 * int(B) * x - int(A) ** 2
                assert abs(phi3) < bound
                assert abs(y * y - (x**3 + int(A) * x + int(B))) < bound
        done += 1

    done = 0
    while done < 100:
        A, B = Fraction(rng.randint(-30, 30)), Fraction(rng.randint(-30, 30))
        if discriminant(A, B) == 0:
            continue
        for pt in four_torsion_points(two_torsion_split(A, B)):
            with mpmath.workprec(256):
                res = abs(pt.y_num**2 - (pt.x_num**3 + int(A) * pt.x_num + int(B)))
                assert res < bound
        done += 1

    assert time.monotonic() - t0 < 30.0


def test_criterion_8_oracle_concordance():
    t0 = time.monotonic()
    est1 = chebotarev_degree(*EX1, 4, budget=200)
    assert est1.stabilized and est1.estimate == 2
    est2 = chebotarev_degree(*EX2, 4, budget=200)
    assert est2.stabilized and est2.estimate == 32

    rng = random.Random(2024)
    seen = set()
    while len(seen) < 100:
        A = Fraction(rng.randint(-50, 50), rng.choice([1, 1, 1, 2, 3]))
        B = Fraction(rng.randint(-50, 50), rng.choice([1, 1, 1, 2, 3]))
        if discriminant(A, B) == 0 or (A, B) in seen:
            continue
        seen.add((A, B))
        est3 = chebotarev_degree(A, B, 3, budget=60)
        if est3.stabilized:
            assert est3.estimate == classify3(A, B).degree, (A, B)
        est4 = chebotarev_degree(A, B, 4, budget=60)
        if est4.stabilized:
            assert est4.estimate == classify4(A, B).degree, (A, B)
    assert time.monotonic() - t0 < 120.0


def test_criterion_9_d96_witness():
    t0 = time.monotonic()
    witnesses = []
    for a in range(-6, 7):
        for b in range(-6, 7):
            A, B = Fraction(a), Fraction(b)
            if discriminant(A, B) == 0:
                continue
            if d96_criterion(A, B):
                witnesses.append((A, B))
    assert witnesses, "no witness in the scan box"
    A, B = witnesses[0]
    assert classify4(A, B).degree == 96
    est = chebotarev_degree(A, B, 4, budget=200)
    assert est.stabilized and est.estimate == 96
    assert time.monotonic() - t0 < 120.0
