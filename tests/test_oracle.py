"""Frobenius-survey oracle: frozen estimates, cross-checks, invariants.

The per-prime order n_ell is validated against the torsion-field
construction (which computes the Frobenius matrix outright), and the
degree estimates against the exact m=3 / m=4 classifiers.  Expected
values below were frozen from hand-checked classifications.
"""

import functools
import math
import random
import time
from collections import Counter
from fractions import Fraction
from itertools import islice, product

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from torsionfields.classify3 import classify3
from torsionfields.classify4 import classify4
from torsionfields.curve import DivisionPolynomials, count_points_prime, discriminant
from torsionfields.finitefield import (
    distinct_degree_blocks,
    factor_squarefree,
    is_prime,
    poly_deg,
    poly_roots,
)
from torsionfields.gl2 import (
    gl2_order,
    mat_det,
    subgroup_catalog,
    surjectivity_heuristic,
    surjectivity_witnesses,
)
from torsionfields import oracle
from torsionfields.oracle import (
    chebotarev_degree,
    frobenius_fingerprint,
    good_primes,
    image_report,
    matrix_fingerprint,
    _catalog_fingerprints,
    _mod,
)
from torsionfields.torsion import torsion_data

from polyhelpers import is_square_mod


# (A, B, m) -> (degree, method); all stabilize within 200 good primes.
FROZEN_ESTIMATES = {
    (Fraction(-481, 3), Fraction(9758, 27), 4): (2, "catalog"),
    (Fraction(-22), Fraction(-15), 4): (32, "catalog"),
    (Fraction(-481, 3), Fraction(9658, 27), 4): (96, "catalog"),
    (Fraction(0), Fraction(2), 4): (24, "catalog"),
    (Fraction(1), Fraction(0), 4): (4, "catalog"),
    (Fraction(0), Fraction(1), 3): (6, "catalog"),
    (Fraction(2), Fraction(14), 3): (16, "catalog"),
    (Fraction(1), Fraction(1), 3): (48, "catalog"),
    (Fraction(0), Fraction(16), 3): (2, "catalog"),
    (Fraction(-1), Fraction(0), 2): (1, "catalog"),
    (Fraction(0), Fraction(2), 2): (6, "catalog"),
}


@pytest.mark.parametrize("A,B,m", sorted(FROZEN_ESTIMATES, key=str))
def test_frozen_degree_estimates(A, B, m):
    want_degree, want_method = FROZEN_ESTIMATES[(A, B, m)]
    est = chebotarev_degree(A, B, m, budget=200)
    assert est.estimate == want_degree
    assert est.stabilized
    assert est.method == want_method


def test_split_torsion_rank3_vs_rank2():
    # Both curves have all 2-torsion rational and the same fingerprint
    # *support*; only the frequency statistics separate degree 8 from 4.
    est8 = chebotarev_degree(Fraction(-31), Fraction(-30), 4, budget=200)
    est4 = chebotarev_degree(Fraction(-7), Fraction(-6), 4, budget=200)
    assert (est8.estimate, est8.stabilized) == (8, True)
    assert (est4.estimate, est4.stabilized) == (4, True)
    assert classify4(Fraction(-31), Fraction(-30)).degree == 8
    assert classify4(Fraction(-7), Fraction(-6)).degree == 4


def test_lcm_sequence_monotone_and_divides_group_order():
    for (A, B, m) in FROZEN_ESTIMATES:
        est = chebotarev_degree(A, B, m, budget=60)
        order = gl2_order(m)
        prev = 1
        for n, run in zip(est.orders, est.lcms):
            assert run % prev == 0
            assert run % n == 0
            assert order % run == 0
            prev = run
        assert est.lcm == est.lcms[-1]
        assert est.estimate % est.lcm == 0
        assert order % est.estimate == 0


def test_deterministic():
    a = chebotarev_degree(Fraction(-2), Fraction(5), 4, budget=50)
    b = chebotarev_degree(Fraction(-2), Fraction(5), 4, budget=50)
    assert a == b


def test_estimate_matches_exact_classifiers_on_corpus():
    rng = random.Random(1105)
    done = 0
    while done < 30:
        A = Fraction(rng.randint(-40, 40), rng.choice([1, 1, 2, 3]))
        B = Fraction(rng.randint(-40, 40), rng.choice([1, 1, 2, 3]))
        if discriminant(A, B) == 0:
            continue
        done += 1
        est3 = chebotarev_degree(A, B, 3, budget=60)
        if est3.stabilized:
            assert est3.estimate == classify3(A, B).degree, (A, B)
        est4 = chebotarev_degree(A, B, 4, budget=60)
        if est4.stabilized:
            assert est4.estimate == classify4(A, B).degree, (A, B)


def test_order_agrees_with_torsion_field_construction():
    rng = random.Random(31)
    checked = 0
    for _ in range(25):
        m = rng.choice([2, 3, 4, 5, 6, 7, 8])
        A, B = Fraction(rng.randint(-15, 15)), Fraction(rng.randint(-15, 15))
        if discriminant(A, B) == 0:
            continue
        for ell in good_primes(A, B, m):
            if ell > 40:
                break
            _, n, _ = frobenius_fingerprint(ell, A, B, m)
            td = torsion_data(ell, int(A) % ell, int(B) % ell, m)
            assert n == td.n, (m, A, B, ell)
            checked += 1
    assert checked > 200


def test_fingerprint_matches_frobenius_matrix():
    # torsion_data hands back the actual Frobenius matrix; the reduction-only
    # fingerprint must coincide with the one computed from that matrix.
    rng = random.Random(90)
    checked = 0
    for _ in range(20):
        m = rng.choice([2, 3, 4])
        A, B = Fraction(rng.randint(-12, 12)), Fraction(rng.randint(-12, 12))
        if discriminant(A, B) == 0:
            continue
        for ell in good_primes(A, B, m):
            if ell > 60:
                break
            _, _, fp = frobenius_fingerprint(ell, A, B, m)
            td = torsion_data(ell, int(A) % ell, int(B) % ell, m)
            assert fp == matrix_fingerprint(td.frobenius, m), (m, A, B, ell)
            checked += 1
    assert checked > 100


def _factor_fingerprint(ell, A, B, m):
    """The fingerprint from the irreducible factors themselves: each factor
    of degree d is one abscissa orbit, two vector orbits of size d when the
    curve cubic is a square on it, one of size 2d when not."""
    dp = DivisionPolynomials(ell, _mod(A, ell), _mod(B, ell))
    poly, has_two_part = dp.torsion_x_polynomial(m), m % 2 == 0
    main, vec = [], []
    if m != 2:
        for g in factor_squarefree(poly, ell, random.Random(0)):
            d = poly_deg(g)
            main.append(d)
            vec.extend((d, d) if is_square_mod(dp.curve_poly, g, ell) else (2 * d,))
    cub = ()
    if has_two_part:
        cub = {3: (1, 1, 1), 1: (1, 2), 0: (3,)}[len(poly_roots(dp.curve_poly, ell))]
    n = math.lcm(1, *vec, *cub)
    return n, (n, tuple(sorted(main)), tuple(sorted(vec)), cub)


def _ddf_fingerprint(ell, A, B, m):
    """(a, n, fingerprint) by the distinct-degree blocks of the abscissa
    polynomial and of the curve cubic at every prime, whatever the trace."""
    a_red, b_red = _mod(A, ell), _mod(B, ell)
    a = ell + 1 - count_points_prime(ell, a_red, b_red)
    dp = DivisionPolynomials(ell, a_red, b_red)
    poly, has_two_part = dp.torsion_x_polynomial(m), m % 2 == 0
    main, vec = [], []
    if m == 2:
        cubic = poly
    else:
        cubic = dp.curve_poly if has_two_part else None
        for d, part, squares in distinct_degree_blocks(poly, ell, dp.curve_poly):
            count, on_squares = poly_deg(part) // d, poly_deg(squares) // d
            main.extend([d] * count)
            vec.extend([d] * (2 * on_squares) + [2 * d] * (count - on_squares))
    cub = ()
    if cubic is not None:
        cub = tuple(d for d, part, _ in distinct_degree_blocks(cubic, ell)
                    for _ in range(poly_deg(part) // d))
    n = math.lcm(1, *vec, *cub)
    return a, n, (a % m, ell % m, n, tuple(sorted(main)), tuple(sorted(vec)), cub)


def _fingerprint_corpus():
    """(A, B, m, ell): every seventh of the first 42 good primes of random
    curves, m in {2, 3, 4, 5, 7}, over 600 samples."""
    rng = random.Random(2024)
    checked = 0
    while checked < 600:
        A = Fraction(rng.randint(-50, 50), rng.choice([1, 1, 2, 3]))
        B = Fraction(rng.randint(-50, 50), rng.choice([1, 1, 2, 3]))
        if discriminant(A, B) == 0:
            continue
        for m in (2, 3, 4, 5, 7):
            for i, ell in enumerate(good_primes(A, B, m)):
                if i == 42:
                    break
                if i % 7:
                    continue
                yield A, B, m, ell
                checked += 1


@pytest.mark.parametrize("m", [3, 4, 5, 7])
def test_trace_key_fixes_the_fingerprint_off_the_ambiguous_keys(m):
    # every matrix of GL2(Z/m), by (trace, det, action on the 2-torsion)
    by_key = {}
    for M in product(range(m), repeat=4):
        if math.gcd(mat_det(M, m), m) == 1:
            fp = matrix_fingerprint(M, m)
            by_key.setdefault((fp[0], fp[1], fp[5]), set()).add(fp)
    ambiguous = {key for key, fps in by_key.items() if len(fps) > 1}
    if m == 4:
        # Frobenius = I on E[2], trace and det (2, 1) or (0, 3) mod 4
        assert len(by_key) == 10
        assert ambiguous == {(2, 1, (1, 1, 1)), (0, 3, (1, 1, 1))}
    else:
        assert ambiguous == {key for key in by_key if (key[0] ** 2 - 4 * key[1]) % m == 0}
        for key in ambiguous:
            # lambda*I, of order prime to m, or a Jordan block
            assert sorted(fp[2] % m == 0 for fp in by_key[key]) == [False, True]
    for (tr, det, cub), fps in by_key.items():
        assert oracle._key_fingerprints(m, tr, det, cub) == tuple(sorted(fps))


def test_stickelberger_cubic_degrees_match_ddf():
    rng = random.Random(7)
    seen = set()
    for _ in range(300):
        ell = rng.choice([p for p in range(5, 400) if is_prime(p)])
        a, b = rng.randrange(ell), rng.randrange(ell)
        if (4 * a ** 3 + 27 * b * b) % ell == 0:
            continue
        cubic = np.array([b, a, 0, 1], dtype=np.int64)
        want = tuple(d for d, part, _ in distinct_degree_blocks(cubic, ell)
                     for _ in range(poly_deg(part) // d))
        got = oracle._cubic_degrees(ell, a, b, count_points_prime(ell, a, b))
        assert got == want, (ell, a, b)
        seen.add(got)
    assert seen == {(1, 1, 1), (1, 2), (3,)}


def test_block_fingerprint_matches_factor_fingerprint():
    for A, B, m, ell in _fingerprint_corpus():
        _, n, fp = _ddf_fingerprint(ell, A, B, m)
        assert (n, fp[2:]) == _factor_fingerprint(ell, A, B, m), (A, B, m, ell)


def test_trace_fingerprint_matches_ddf_fingerprint():
    # (m, ambiguous key, order prime to m) -> primes: the corpus reaches both
    # answers of the scalar test at m = 3 and the ambiguous m = 4 keys
    seen = Counter()
    for A, B, m, ell in _fingerprint_corpus():
        got = frobenius_fingerprint(ell, A, B, m)
        assert got == _ddf_fingerprint(ell, A, B, m), (A, B, m, ell)
        fp = got[2]
        ambiguous = len(oracle._key_fingerprints(m, fp[0], fp[1], fp[5])) > 1
        seen[m, ambiguous, math.gcd(got[1], m) == 1] += 1
    assert seen[3, True, True] and seen[3, True, False]
    assert seen[5, True, False] and seen[7, True, False] and seen[4, True, False]
    assert not seen[2, True, True] + seen[2, True, False]
    # larger and composite m, at a few primes each
    rng = random.Random(13)
    for m in (6, 8, 9, 11, 13):
        done = 0
        while done < 12:
            A, B = Fraction(rng.randint(-30, 30)), Fraction(rng.randint(-30, 30))
            if discriminant(A, B) == 0:
                continue
            for ell in islice(good_primes(A, B, m), 0, 12, 4):
                got = frobenius_fingerprint(ell, A, B, m)
                assert got == _ddf_fingerprint(ell, A, B, m), (A, B, m, ell)
                done += 1


# (ell, A, B, m, n_ell) with Frobenius lambda*I on E[m]; the order k of
# lambda in F_m^x/{+-1}, the number of ell-th powers taken, is 1, 2, 3 or 6
SCALAR_FROBENIUS = [
    (31, 0, 11, 5, 1), (19, 0, 4, 5, 4), (43, 0, 3, 7, 1), (37, 0, 3, 7, 6),
    (53, 2, 0, 7, 3), (331, 0, 4, 11, 1), (157, 0, 15, 13, 1),
    (139, 0, 3, 13, 6), (127, 0, 3, 13, 12),
]


@pytest.mark.parametrize("ell,A,B,m,n", SCALAR_FROBENIUS)
def test_scalar_frobenius_found_by_the_abscissa_test(ell, A, B, m, n):
    got = frobenius_fingerprint(ell, Fraction(A), Fraction(B), m)
    assert got[1] == n
    assert got == _ddf_fingerprint(ell, Fraction(A), Fraction(B), m)


def test_catalog_fingerprints_cover_full_group():
    for m in (2, 3, 4):
        sigsets = _catalog_fingerprints(m)
        orders = [order for order, _ in sigsets]
        assert max(orders) == gl2_order(m)
        # the full-group entry's fingerprint multiset counts every element
        full_mult = next(mult for order, mult in sigsets if order == gl2_order(m))
        assert sum(full_mult.values()) == gl2_order(m)
        # every other class's support is contained in the full group's
        for _, mult in sigsets:
            assert set(mult) <= set(full_mult)


def _full_likelihood_estimate(m, observed):
    """The catalog fit with every class's likelihood summed afresh."""
    best = None
    for order, mult in _catalog_fingerprints(m):
        if any(fp not in mult for fp in observed):
            continue
        loglik = sum(cnt * (math.log(mult[fp]) - math.log(order))
                     for fp, cnt in observed.items())
        key = (-loglik, order)
        if best is None or key < best:
            best = key
    return best[1]


def test_catalog_estimate_matches_full_likelihood():
    # fingerprint streams drawn from each catalog class, fitted after every
    # sample as chebotarev_degree does: classes dropped once out of support
    rng = random.Random(5)
    for m in (3, 4):
        for _, sub in subgroup_catalog(m):
            elements = sorted(sub)
            observed = Counter()
            classes = oracle._catalog_log_terms(m)
            for _ in range(30):
                fp = matrix_fingerprint(rng.choice(elements), m)
                observed[fp] += 1
                classes = [c for c in classes if fp in c[1]]
                assert (oracle._catalog_estimate(classes, observed)
                        == _full_likelihood_estimate(m, observed))


def test_heuristic_path_prime_m():
    est = chebotarev_degree(Fraction(1), Fraction(1), 5, budget=40)
    assert est.estimate == gl2_order(5) == 480
    assert est.method == "full-image"
    assert est.stabilized


def test_cm_curve_never_full_mod_7():
    est = chebotarev_degree(Fraction(0), Fraction(-1), 7, budget=60)
    assert est.method == "lcm"
    assert est.estimate == est.lcm
    assert est.estimate < gl2_order(7)


def test_running_witnesses_match_whole_list_verdict(monkeypatch):
    # chebotarev_degree folds each prime's (trace, ell) into running witness
    # flags; after every prime its verdict must be the one
    # surjectivity_heuristic gives on the whole list of samples so far
    fingerprint = functools.lru_cache(maxsize=None)(oracle.frobenius_fingerprint)
    monkeypatch.setattr(oracle, "frobenius_fingerprint", fingerprint)
    rng = random.Random(20)
    curves = [(Fraction(0), Fraction(-1))]  # CM: never "Full"
    while len(curves) < 4:
        A, B = Fraction(rng.randint(-30, 30)), Fraction(rng.randint(-30, 30))
        if discriminant(A, B) != 0:
            curves.append((A, B))
    flips = 0
    for A, B in curves:
        for m in (5, 7):
            full_before = False
            for budget in range(1, 13):
                est = chebotarev_degree(A, B, m, budget=budget)
                samples = [(fingerprint(ell, A, B, m)[0], ell) for ell in est.primes]
                full = surjectivity_heuristic(samples, m) == "Full"
                assert (est.method == "full-image") == full, (A, B, m, budget)
                assert est.estimate == (gl2_order(m) if full else est.lcms[-1])
                flips += full and not full_before
                full_before = full
    assert flips >= 4  # the verdict turns to "Full" within the run


def test_running_witnesses_wait_for_all_three(monkeypatch):
    # a made-up trace at each of the first three good primes for y^2 = x^3 +
    # x + 1 at m = 5 (7, 11, 13) shows the witnesses as bits 2, then 1, then
    # 1 | 4: only the third prime completes them
    A, B, m = Fraction(1), Fraction(1), 5
    wanted = dict(zip(islice(good_primes(A, B, m), 3), (2, 1, 5)))
    traces = {ell: next(t for t in range(m) if surjectivity_witnesses(t, ell, m) == w)
              for ell, w in wanted.items()}
    monkeypatch.setattr(oracle, "frobenius_fingerprint",
                        lambda ell, A, B, m: (traces[ell], 1, None))
    for budget in (1, 2, 3):
        est = chebotarev_degree(A, B, m, budget=budget)
        full = surjectivity_heuristic([(traces[ell], ell) for ell in est.primes], m)
        assert full == ("Full" if budget == 3 else "Unknown")
        assert est.method == ("full-image" if budget == 3 else "lcm")


def test_lcm_path_composite_m():
    est = chebotarev_degree(Fraction(1), Fraction(1), 9, budget=30)
    assert est.method == "lcm"
    assert est.estimate == est.lcm
    assert gl2_order(9) % est.estimate == 0


def test_short_run_not_stabilized():
    est = chebotarev_degree(Fraction(1), Fraction(1), 4, budget=5, window=15)
    assert not est.stabilized
    assert len(est.primes) == 5


def test_good_primes_skip_rules():
    ells = []
    for ell in good_primes(Fraction(1, 5), Fraction(11), 7):
        if len(ells) >= 12:
            break
        ells.append(ell)
    disc_num = abs(discriminant(Fraction(1, 5), Fraction(11)).numerator)
    for ell in ells:
        assert ell not in (2, 3, 5, 7)
        assert disc_num % ell != 0


def test_validation_errors():
    with pytest.raises(ValueError):
        chebotarev_degree(Fraction(1), Fraction(1), 14)
    with pytest.raises(ValueError):
        chebotarev_degree(Fraction(1), Fraction(1), 4, budget=0)
    with pytest.raises(ValueError):
        chebotarev_degree(Fraction(1), Fraction(1), 4, window=0)
    with pytest.raises(ValueError):
        chebotarev_degree(Fraction(0), Fraction(0), 4)
    with pytest.raises(ValueError):
        image_report(Fraction(1), Fraction(1), 4)
    with pytest.raises(ValueError):
        image_report(Fraction(1), Fraction(1), 9)
    with pytest.raises(ValueError):
        image_report(Fraction(1), Fraction(1), 5, samples=-1)
    with pytest.raises(ValueError):
        image_report(Fraction(0), Fraction(0), 5)


def test_image_report_generic_curve_full():
    rep = image_report(Fraction(1), Fraction(1), 5, samples=40)
    assert rep.verdict == "Full"
    assert rep.used == 40


def test_image_report_cm_curve_undecided():
    rep = image_report(Fraction(0), Fraction(-1), 7, samples=60)
    assert rep.verdict == "Undecided"


@pytest.mark.parametrize("p, verdict", [
    (10**6 + 3, "Full"),
    (10**7 + 19, "Undecided"),
    (10**8 + 7, "Full"),
])
def test_image_report_large_p_verdicts(p, verdict):
    # the projective-order witness needs only the first five powers of the
    # eigenvalue ratio, so the cost does not grow with p
    t0 = time.process_time()
    rep = image_report(Fraction(1), Fraction(1), p, samples=2)
    assert rep.verdict == verdict
    assert rep.used == 2
    assert time.process_time() - t0 < 5.0


def test_image_report_zero_samples_undecided():
    rep = image_report(Fraction(1), Fraction(1), 5, samples=0)
    assert rep.verdict == "Undecided"
    assert rep.used == 0


def test_estimate_json_shape():
    est = chebotarev_degree(Fraction(-22), Fraction(-15), 4, budget=30)
    doc = est.to_json()
    assert list(doc) == [
        "schema", "A", "B", "m", "budget", "window",
        "primes", "orders", "lcm", "estimate", "stabilized", "method",
    ]
    assert doc["schema"] == "1"
    assert doc["A"] == "-22"
    assert len(doc["primes"]) == len(doc["orders"]) == 30


def test_image_json_shape():
    rep = image_report(Fraction(1), Fraction(1), 5, samples=10)
    doc = rep.to_json()
    assert list(doc) == ["schema", "A", "B", "p", "samples", "used", "verdict"]
    assert doc["schema"] == "1"


@settings(max_examples=25, deadline=None)
@given(
    a=st.integers(min_value=-25, max_value=25),
    b=st.integers(min_value=-25, max_value=25),
    m=st.sampled_from([2, 3, 4]),
)
def test_estimate_invariants(a, b, m):
    A, B = Fraction(a), Fraction(b)
    if discriminant(A, B) == 0:
        return
    est = chebotarev_degree(A, B, m, budget=25)
    assert est.estimate >= est.lcm
    assert est.estimate % est.lcm == 0
    assert gl2_order(m) % est.estimate == 0
    assert list(est.lcms) == sorted(est.lcms)
