import json

import pytest

from torsionfields.gl2 import mat_pow
from torsionfields.generators import (
    CHECKS,
    TheoremReport,
    applicable_checks,
    check_casi1,
    check_zetam,
    failures,
    generate_instances,
    run_check,
    run_suite,
)
from torsionfields.finitefield import pow_elt
from torsionfields.torsion import rebase, torsion_data

SMOKE_COUNTS = {3: 6, 4: 6, 5: 6, 7: 4, 8: 3, 9: 3, 11: 2, 12: 3, 13: 2}


def _data(q, A, B, m, _cache={}):
    key = (q, A, B, m)
    if key not in _cache:
        _cache[key] = torsion_data(q, A, B, m)
    return _cache[key]


def test_suite_smoke_all_checks_pass():
    reports = run_suite(seed=0, m_counts=SMOKE_COUNTS)
    assert failures(reports) == []
    seen = {r.theorem for r in reports}
    assert seen == set(CHECKS)
    # every applicable check ran on every instance of its level
    for m, count in SMOKE_COUNTS.items():
        for name in applicable_checks(m):
            assert sum(1 for r in reports if r.m == m and r.theorem == name) == count


def test_applicability_table():
    assert applicable_checks(2) == ["zetam", "zeta_vs_y1y2", "casi1"]
    assert "dihedral" in applicable_checks(3)
    assert "ordinates1" not in applicable_checks(3)
    # ordinates1plus wants a prime that is 2 mod 3
    assert "ordinates1plus" in applicable_checks(5)
    assert "ordinates1plus" not in applicable_checks(7)
    for name in ("odd_index", "ext_ord_2p", "borel_cartan", "galgl"):
        assert name in applicable_checks(13)
        assert name not in applicable_checks(9)


def test_level_two_is_always_case_one():
    # K_2 = K(x1, x2) without exception, so casi1 must put m=2 in case 1
    td = _data(5, 0, 4, 2)
    ok, deg, _ = check_casi1(td)
    assert ok and deg["case"] == 1
    ok, deg, _ = check_zetam(td)
    assert ok and deg["k"] == td.n == 2


def test_symmetric_functions_insufficient_at_level_two():
    # y^2 = x^3 + 4 over F_5: one 2-torsion abscissa is rational, the other
    # two are conjugate.  In the basis made of the two conjugate points the
    # symmetric functions x1+x2 and x1*x2 (and zeta_2 = -1, and the zero
    # ordinates) are all rational although K_2 = F_25 -- which is exactly why
    # the dihedral-style generating set is only claimed for m >= 3.
    td = rebase(_data(5, 0, 4, 2), (1, 1, 0, 1))
    assert td.n == 2
    assert td.subfield_degree([td.x1]) == 2
    assert td.subfield_degree([td.x2]) == 2
    s, pr = td.x1 + td.x2, td.x1 * td.x2
    assert td.subfield_degree([s, pr, td.zeta, td.y1]) == 1 < td.n


def test_rebase_identity_and_relabelling():
    td = _data(11, 2, 5, 5)
    same = rebase(td, (1, 0, 0, 1))
    assert same.frobenius == td.frobenius
    assert same.x1 == td.x1 and same.y2 == td.y2

    U = (2, 1, 1, 1)  # det 1
    tdb = rebase(td, U)
    a, b, c, d = U
    for i in range(5):
        for j in range(5):
            assert tdb.point(i, j) == td.point(a * i + b * j, c * i + d * j)
            assert tdb.decompose(tdb.point(i, j)) == (i, j)


def test_rebase_transforms_frobenius_and_zeta():
    for q, A, B, m, U in [
        (13, 1, 1, 3, (1, 1, 0, 1)),
        (19, 3, 2, 4, (0, 1, 1, 0)),
        (11, 2, 5, 5, (2, 1, 1, 1)),
    ]:
        td = _data(q, A, B, m)
        tdb = rebase(td, U)
        det = (U[0] * U[3] - U[1] * U[2]) % m
        assert tdb.zeta == pow_elt(td.zeta, det)
        # conjugation preserves order and determinant
        assert mat_pow(tdb.frobenius, td.n, m) == (1, 0, 0, 1)
        a, b, c, d = tdb.frobenius
        assert (a * d - b * c - q) % m == 0
        # and the matrix acts correctly on the relabelled table
        img = tdb.frobenius_point(tdb.P2)
        assert tdb.decompose(img) == (b % m, d % m)


def test_rebase_rejects_singular_change_of_basis():
    td = _data(19, 3, 2, 4)
    with pytest.raises(ValueError):
        rebase(td, (2, 0, 0, 1))  # det 2 is not a unit mod 4


def test_verdicts_are_basis_covariant():
    # the generator statements quantify over all bases, so every check must
    # return the same verdict after an invertible change of basis
    bases = [(1, 1, 0, 1), (0, 1, 1, 0), (2, 1, 1, 1)]
    for q, A, B, m in [(13, 1, 1, 3), (19, 3, 2, 4), (11, 2, 5, 5), (5, 1, 1, 8)]:
        td = _data(q, A, B, m)
        for U in bases:
            tdb = rebase(td, U)
            for name in applicable_checks(m):
                assert run_check(name, td).verdict == "pass"
                assert run_check(name, tdb).verdict == "pass", (name, q, A, B, m, U)


def test_nonsplit_cartan_index_three_witness():
    # j = 0 curve whose mod-11 Frobenius is nonsplit semisimple and where
    # [K_11 : K(zeta, y2)] = 3 although 11 = 2 mod 3: the order-3 defect
    # exists because the cube roots of unity live in F_{11^2}.  The check
    # must pass and flag the residue in its note.
    td = _data(31, 0, 1, 11)
    assert td.n == 60
    rep = run_check("borel_cartan", td)
    assert rep.verdict == "pass"
    assert rep.degrees["disc"] == 2
    assert rep.degrees["k_nonsplit"] == 20
    assert "nonsplit_idx3_m_not_1_mod_3" in rep.note


def test_report_json_shape():
    rep = TheoremReport(theorem="zetam", q=13, A=1, B=1, m=3,
                        degrees={"n": 4, "k": 4}, verdict="pass")
    pairs = json.loads(rep.to_json(), object_pairs_hook=list)
    assert [k for k, _ in pairs] == ["theorem", "q", "A", "B", "m", "degrees", "verdict"]
    rep.note = "branch=y2"
    pairs = json.loads(rep.to_json(), object_pairs_hook=list)
    assert [k for k, _ in pairs][-1] == "note"


def test_generate_instances_deterministic():
    first = [(td.q, td.A, td.B) for td in generate_instances(5, 4, seed=7)]
    second = [(td.q, td.A, td.B) for td in generate_instances(5, 4, seed=7)]
    assert first == second
    other = [(td.q, td.A, td.B) for td in generate_instances(5, 4, seed=8)]
    assert first != other


def test_run_suite_rejects_unknown_theorem():
    with pytest.raises(ValueError):
        run_suite(m_counts={3: 1}, theorems=["zetam", "nonsense"])


def test_failures_helper():
    good = TheoremReport("zetam", 13, 1, 1, 3, {}, "pass")
    bad = TheoremReport("zetam", 13, 1, 1, 3, {}, "fail")
    assert failures([good, bad, good]) == [bad]
