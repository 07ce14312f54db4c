import hashlib
import random
from math import gcd

import pytest

from torsionfields.gl2 import (
    ETA,
    I2,
    divisors,
    eta_power,
    factor_int,
    gl2_elements,
    gl2_order,
    h42_kernel,
    legendre,
    lift_gl2f2,
    mat_det,
    mat_mul,
    mat_order,
    mat_pow,
    mat_trace,
    projective_order_semisimple,
    subgroup_catalog,
    surjectivity_heuristic,
)


def test_integer_helpers():
    assert factor_int(360) == {2: 3, 3: 2, 5: 1}
    assert divisors(12) == [1, 2, 3, 4, 6, 12]
    assert legendre(2, 7) == 1 and legendre(3, 7) == -1 and legendre(14, 7) == 0


def test_gl2_order_formula_matches_enumeration():
    for m in (2, 3, 4, 5, 6):
        assert gl2_order(m) == len(gl2_elements(m))
    assert gl2_order(3) == 48
    assert gl2_order(4) == 96
    assert gl2_order(5) == 480


def test_eta_power_closed_form():
    for m in (4, 5, 7, 9, 11, 13):
        for k in range(26):
            assert eta_power(k, m) == mat_pow(ETA, k, m)


def test_eta_order_is_2p():
    for p in (5, 7, 11, 13):
        assert mat_order(ETA, p) == 2 * p
    # odd prime powers too: the unipotent square has full additive order
    assert mat_order(ETA, 9) == 18


def test_mat_order_rejects_a_singular_matrix():
    # a bound that holds under python -O, not an endless loop
    with pytest.raises(ValueError):
        mat_order((1, 0, 0, 0), 5)
    with pytest.raises(ValueError):
        mat_order((2, 0, 0, 1), 4)


def test_reduction_kernel_4_to_2():
    K = h42_kernel()
    assert len(K) == 16
    for M in K:
        assert tuple(x % 2 for x in M) == (1, 0, 0, 1)
        assert mat_mul(M, M, 4) == I2  # exponent 2
    for M in K:
        for N in K:
            assert mat_mul(M, N, 4) == mat_mul(N, M, 4)
    # order 16, abelian, exponent 2: elementary abelian of rank 4


def test_section_gl2f2_into_gl2z4():
    for M in gl2_elements(2):
        assert tuple(x % 2 for x in lift_gl2f2(M)) == M
    # kernel * section-image sweeps the whole group exactly once
    K = h42_kernel()
    hits = {mat_mul(h, lift_gl2f2(M), 4) for h in K for M in gl2_elements(2)}
    assert len(hits) == 96


def _brute_projective_order(M, p):
    cur = M
    for k in range(1, 2 * p * p):
        if cur[1] == 0 and cur[2] == 0 and cur[0] == cur[3]:
            return k
        cur = mat_mul(cur, M, p)
    raise AssertionError


def test_projective_order_from_charpoly():
    rng = random.Random(411)
    for p in (5, 7, 13):
        done = 0
        while done < 25:
            M = tuple(rng.randrange(p) for _ in range(4))
            tr, det = mat_trace(M, p), mat_det(M, p)
            if det == 0 or (tr * tr - 4 * det) % p == 0:
                continue
            assert projective_order_semisimple(tr, det, p) == _brute_projective_order(M, p)
            done += 1


def test_surjectivity_heuristic_accepts_full_group():
    # every (trace, det != 0) pair occurs in GL_2(F_p), via companion matrices
    for p in (5, 7, 13):
        samples = [(t, d) for t in range(p) for d in range(1, p)]
        assert surjectivity_heuristic(samples, p) == "Full"


def test_surjectivity_heuristic_never_fooled_by_maximal_subgroups():
    for p in (5, 7, 13):
        borel = [(a, b, 0, d) for a in range(1, p) for d in range(1, p)
                 for b in range(p)]
        diag = [(a, 0, 0, d) for a in range(1, p) for d in range(1, p)]
        anti = [(0, b, c, 0) for b in range(1, p) for c in range(1, p)]
        u = next(x for x in range(2, p) if legendre(x, p) == -1)
        cns = [(x, u * y % p, y, x) for x in range(p) for y in range(p)
               if (x * x - u * y * y) % p != 0]
        w = (1, 0, 0, p - 1)
        ncns = cns + [mat_mul(M, w, p) for M in cns]
        for H in (borel, diag + anti, ncns):
            # sanity: actually closed under multiplication
            hs = set(H)
            assert all(mat_mul(A, B, p) in hs
                       for A in random.Random(p).sample(H, 10) for B in H)
            samples = [(mat_trace(M, p), mat_det(M, p)) for M in H]
            assert surjectivity_heuristic(samples, p) == "Unknown"


def test_surjectivity_heuristic_needs_large_projective_order():
    # craft samples covering both discriminant classes with nonzero trace but
    # projective order <= 5 throughout: must stay Unknown (exceptional shapes)
    p = 5
    small = []
    for t in range(p):
        for d in range(1, p):
            disc = (t * t - 4 * d) % p
            if disc == 0 or t == 0:
                continue
            if projective_order_semisimple(t, d, p) <= 5:
                small.append((t, d))
    kinds = {legendre((t * t - 4 * d) % p, p) for t, d in small}
    assert kinds == {1, -1}  # both witnesses present, yet:
    assert surjectivity_heuristic(small, p) == "Unknown"


def _check_catalog(m, catalog):
    units = {d for d in range(1, m) if gcd(d, m) == 1}
    for order, H in catalog:
        assert len(H) == order
        assert I2 in H
        assert {mat_det(M, m) for M in H} == units
        for A in list(H)[:8]:
            for B in H:
                assert mat_mul(A, B, m) in H
        assert gl2_order(m) % order == 0


def test_subgroup_catalog_mod3():
    catalog = subgroup_catalog(3)
    _check_catalog(3, catalog)
    sizes = sorted({s for s, _ in catalog})
    assert sizes[0] == 2      # e.g. generated by diag(1, -1)
    assert sizes[-1] == 48    # the full group
    assert 16 in sizes and 48 in sizes


def test_subgroup_catalog_mod4():
    catalog = subgroup_catalog(4)
    _check_catalog(4, catalog)
    sizes = sorted({s for s, _ in catalog})
    assert sizes[0] == 2
    assert sizes[-1] == 96
    assert 32 in sizes  # index-3 subgroups exist at level 4


# the catalog's orders, and sha256 of repr([sorted(sub) for _, sub in catalog])
CATALOG_PINS = {
    3: ([2, 4, 6, 6, 8, 8, 12, 16, 48],
        "0c895a38900bbf5205f5dfbcb5d4ffe195be02009a4f6c4110117693846060cd"),
    4: ([2] * 3 + [4] * 11 + [6] * 2 + [8] * 12 + [12] * 2 + [16] * 6 + [24] * 3
        + [32, 48, 48, 96],
        "f333e541ea4748fbc0037d7ff393e49cd4379eb4bba691199d5747ab74323bd3"),
}


@pytest.mark.parametrize("m", sorted(CATALOG_PINS))
def test_subgroup_catalog_pinned(m):
    catalog = subgroup_catalog(m)
    orders, digest = CATALOG_PINS[m]
    assert [order for order, _ in catalog] == orders
    blob = repr([sorted(sub) for _, sub in catalog]).encode()
    assert hashlib.sha256(blob).hexdigest() == digest


def test_input_checks_raise_value_error():
    with pytest.raises(ValueError):
        gl2_elements(7)
    with pytest.raises(ValueError):
        projective_order_semisimple(2, 1, 5)  # (T - 1)^2: one eigenvalue
    with pytest.raises(ValueError):
        surjectivity_heuristic([(1, 1)], 3)
