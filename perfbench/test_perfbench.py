"""Tests of the benchmark itself: its checks reject corrupted outputs, and
the traced run sees every call it claims to count."""

import dataclasses
import random
import shutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import bench_checks as chk  # noqa: E402
import bench_reference  # noqa: E402
import bench_workloads as wl  # noqa: E402
from bench_tracing import TRACED, Tracer, per_layer_names  # noqa: E402

from torsionfields import classify4 as c4  # noqa: E402
from torsionfields import generators as gen  # noqa: E402
from torsionfields import oracle  # noqa: E402
from torsionfields import torsion  # noqa: E402


def test_naive_counts_agree_with_known_values():
    # y^2 = x^3 + x + 1 over F_5 has 9 points; over F_25, 5^2 + 1 - (t^2 - 10)
    assert chk.count_points(5, 1, 1) == 9
    assert chk.count_points_ext(5, -3, 2) == 25 + 1 - (9 - 10)
    assert chk.mat_order((0, 4, 1, 0), 5) == 4
    assert chk.mult_order(2, 5) == 4


# ---------------------------------------------------------------------------
# suite
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def suite_instance():
    q, A, B, m = 13, 2, 3, 5
    td = torsion.torsion_data(q, A, B, m)
    reports = [gen.run_check(name, td) for name in gen.applicable_checks(m)]
    return td, (q, A, B, m), reports


def test_suite_check_accepts_the_program_output(suite_instance):
    td, inputs, reports = suite_instance
    chk.check_suite_instance(td, inputs, reports, random.Random(0))


@pytest.mark.parametrize("corrupt", [
    lambda td: dataclasses.replace(td, frobenius=(td.frobenius[0] + 1,) + td.frobenius[1:]),
    # same trace, determinant moved off q
    lambda td: dataclasses.replace(td, frobenius=(td.frobenius[0] + 1, *td.frobenius[1:3],
                                                  td.frobenius[3] - 1)),
    lambda td: dataclasses.replace(td, n=2 * td.n),
    lambda td: dataclasses.replace(td, zeta=td.field.one()),
    lambda td: dataclasses.replace(td, B=td.B + 1),
], ids=["trace", "det", "n-doubled", "zeta", "curve"])
def test_suite_check_rejects_corrupted_instance(suite_instance, corrupt):
    td, inputs, reports = suite_instance
    with pytest.raises(chk.CheckError):
        chk.check_suite_instance(corrupt(td), inputs, reports, random.Random(0))


def test_suite_check_rejects_failed_report(suite_instance):
    td, inputs, reports = suite_instance
    bad = [dataclasses.replace(reports[0], verdict="fail")] + reports[1:]
    with pytest.raises(chk.CheckError):
        chk.check_suite_instance(td, inputs, bad, random.Random(0))


def test_suite_slots_are_drawable():
    rng = random.Random(1)
    for m, q, t in wl.SUITE_ROUND:
        assert 5 <= q <= 200 and m % q and abs(t) <= 2 * q ** 0.5
        A, B = wl._curve_with_trace(rng, q, t)
        assert q + 1 - chk.count_points(q, A, B) == t


# ---------------------------------------------------------------------------
# survey
# ---------------------------------------------------------------------------

EX2 = (Fraction(-22), Fraction(-15))


@pytest.fixture(scope="module")
def survey_output():
    A, B = EX2
    est = oracle.chebotarev_degree(A, B, 4, 40, 15)
    return est, c4.classify4(A, B).degree


def _fingerprint(ell, shift=0):
    a, n, fp = oracle.frobenius_fingerprint(ell, *EX2, 4)
    return a + shift, n, fp


def test_survey_check_accepts_the_program_output(survey_output):
    est, degree = survey_output
    assert est.stabilized and degree == 32
    chk.check_survey(est, *EX2, 4, 40, degree, _fingerprint)


@pytest.mark.parametrize("corrupt", [
    lambda est: dataclasses.replace(est, estimate=2 * est.estimate),
    lambda est: dataclasses.replace(est, orders=(2 * est.orders[0],) + est.orders[1:]),
    lambda est: dataclasses.replace(est, primes=est.primes[:-1] + (est.primes[-1] + 2,)),
    lambda est: dataclasses.replace(est, primes=est.primes[1:], orders=est.orders[1:],
                                    lcms=est.lcms[1:]),
], ids=["estimate-doubled", "order-doubled", "bad-prime", "short"])
def test_survey_check_rejects_corrupted_estimate(survey_output, corrupt):
    est, degree = survey_output
    with pytest.raises(chk.CheckError):
        chk.check_survey(corrupt(est), *EX2, 4, 40, degree, _fingerprint)


def test_survey_check_rejects_wrong_trace_and_wrong_degree(survey_output):
    est, degree = survey_output
    with pytest.raises(chk.CheckError):
        chk.check_survey(est, *EX2, 4, 40, degree, lambda ell: _fingerprint(ell, shift=1))
    with pytest.raises(chk.CheckError):
        chk.check_survey(est, *EX2, 4, 40, 2 * degree, _fingerprint)


# ---------------------------------------------------------------------------
# classify
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def classify_outputs():
    return {AB: wl._classify_op(*AB) for AB in ((Fraction(1), Fraction(1)),
                                                (Fraction(-15), Fraction(22)))}


def test_classify_check_accepts_the_program_output(classify_outputs):
    for AB, out in classify_outputs.items():
        chk.check_classification(*AB, *out)


@pytest.mark.parametrize("curve,corrupt", [
    ((1, 1), lambda o: (dataclasses.replace(o[0], degree=2 * o[0].degree),) + o[1:]),
    ((1, 1), lambda o: (o[0], dataclasses.replace(o[1], degree=2 * o[1].degree)) + o[2:]),
    ((-15, 22), lambda o: (dataclasses.replace(o[0], degree=o[0].degree // 2),) + o[1:]),
    ((1, 1), lambda o: o[:2] + (([x + 1 for x in o[2][0]],) + o[2][1:],) + o[3:]),
    ((1, 1), lambda o: o[:3] + (o[3][1:],)),
    ((1, 1), lambda o: o[:3] + ([dataclasses.replace(p, y_num=2 * p.y_num) for p in o[3]],)),
], ids=["deg3-doubled", "deg4-doubled", "deg3-halved", "radical", "points-missing",
        "point-off-curve"])
def test_classify_check_rejects_corrupted_output(classify_outputs, curve, corrupt):
    AB = tuple(Fraction(c) for c in curve)
    with pytest.raises(chk.CheckError):
        chk.check_classification(*AB, *corrupt(classify_outputs[AB]))


def test_twist_mismatch_is_detected(classify_outputs):
    out = classify_outputs[(Fraction(-15), Fraction(22))]
    assert chk.twist_matches(out[:2], out[:2])
    wrong = (dataclasses.replace(out[0], degree=48, group="GL2_3"), out[1])
    assert not chk.twist_matches(out[:2], wrong)


# ---------------------------------------------------------------------------
# tracing
# ---------------------------------------------------------------------------

def test_traced_survey_sees_every_fingerprint_call(monkeypatch):
    monkeypatch.setattr(wl, "MIN_OPERATIONS", 1)
    originals = {(mod, qual): getattr(sys.modules[f"torsionfields.{mod}"], qual.split(".")[0])
                 for mod, qual in TRACED if "." not in qual}
    with Tracer() as tracer:
        assert oracle.frobenius_fingerprint is not originals[("oracle", "frobenius_fingerprint")]
        run = wl.Run(0.5, tracer)
        info = wl.run_survey(5, run)
    assert not run.errors and run.failed == 0
    metrics = tracer.metrics()
    assert metrics["oracle.frobenius_fingerprint.calls"]["value"] == info["survey_primes"] > 0
    assert metrics["oracle.chebotarev_degree.calls"]["value"] == len(run.durations)
    assert [name for name, _, _ in per_layer_names()] == list(metrics)
    # self time never exceeds the span, and the wrappers are gone afterwards
    for name, (calls, total, self_s) in tracer.stats.items():
        assert self_s <= total + 1e-9, name
    for (mod, qual), fn in originals.items():
        assert getattr(sys.modules[f"torsionfields.{mod}"], qual) is fn
    assert torsion.factor_squarefree is originals[("finitefield", "factor_squarefree")]


def test_run_stops_on_scaled_cpu_time_or_wall_limit():
    quiet = [bench_reference.REFERENCE_S]
    run = wl.Run(10.0)
    run.reference = quiet
    run.durations = [0.01] * wl.MIN_OPERATIONS          # 1 s of CPU time
    assert run.more()
    run.durations = [0.1] * wl.MIN_OPERATIONS           # 10 s: the target is met
    assert not run.more()
    slow = wl.Run(10.0)
    slow.reference = [2 * bench_reference.REFERENCE_S]  # the machine at half speed
    slow.durations = [0.1] * wl.MIN_OPERATIONS          # 10 s, worth 5 s when quiet
    assert slow.more()
    crowded = wl.Run(10.0)
    crowded.reference = quiet
    crowded.durations = [0.01] * wl.MIN_OPERATIONS
    crowded.wall_start -= 15.0        # 15 s of wall time for 1 s of CPU time
    assert not crowded.more()
    few = wl.Run(10.0)
    few.reference = quiet
    few.wall_start -= 100.0
    assert few.more()                 # too few operations for a p90 yet


def test_speed_scales_by_the_reference_work():
    # the same work every time, so its time can only change with the machine
    assert bench_reference.reference_work() == bench_reference.reference_work()
    run = wl.Run(10.0)
    run.call("noop", lambda: None)
    assert len(run.reference) == 1
    run.reference = [bench_reference.REFERENCE_S * 2, bench_reference.REFERENCE_S * 2]
    assert run.speed() == pytest.approx(0.5)


def test_run_refuses_a_tree_without_the_package(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "suite", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert proc.stdout == ""
