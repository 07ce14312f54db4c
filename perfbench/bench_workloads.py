"""The three workloads: inputs from the seed, timed operations, checks.

Each workload is a closed loop of whole rounds: the next operation starts
when the last one returns, and a run stops after the round that brings the
timed total nearest to the requested seconds.  Operations are timed in CPU
time of the process, scaled to the speed of a quiet machine; a run also
stops early, still after a whole round, if its wall time would pass
WALL_LIMIT times the requested seconds, which keeps a run on a slow or
crowded host within its time.  Only the calls into the
package are timed; drawing inputs and checking outputs happen between them,
with tracing switched off.  The package is reached through its module
objects, so that the tracer's wrappers see every call.
"""

from __future__ import annotations

import random
import sys
import time
import traceback
from fractions import Fraction

import bench_checks as chk
from bench_reference import REFERENCE_S, time_reference

from torsionfields import classify3 as c3
from torsionfields import classify4 as c4
from torsionfields import generators as gen
from torsionfields import oracle
from torsionfields import torsion

# One suite round: slots (m, q, t) of level, prime q in [5, 200] and trace of
# Frobenius t.  Fixing q and t fixes the Frobenius characteristic polynomial,
# and with it (almost) the degree n of F_q(E[m]), which sets the cost of an
# instance; every round repeats the slots and the seed draws a new curve for
# each.  Sorted by cost, the 25 slots put the median inside the five m = 8
# slots and p90 inside the two m = 11 slots, so neither quantile sits on the
# border between two unlike slots.  m in {11, 13} take about 70 % of the time.
SUITE_ROUND = (
    (3, 71, 15), (3, 107, -9), (3, 97, 12), (3, 11, 2),
    (4, 179, -21), (4, 173, -8), (4, 179, -21),
    (5, 47, 0), (5, 11, -2), (5, 191, 24),
    (8, 173, 26), (8, 173, 26), (8, 173, 26), (8, 173, 26), (8, 173, 26),
    (7, 71, 16), (7, 167, 6), (7, 71, 16),
    (9, 97, 12), (9, 97, 12),
    (12, 173, -26),
    (11, 37, -7), (11, 37, -7),
    (13, 109, 16), (13, 109, 16),
)

SURVEY_BUDGETS = ((3, 60), (4, 40), (5, 20))   # (m, primes surveyed)
SURVEY_WINDOW = 15

SPECIAL_CURVES = (
    [(Fraction(0), Fraction(b)) for b in range(-6, 7) if b]
    + [(Fraction(a), Fraction(0)) for a in range(-6, 7) if a]
    + [(Fraction(-15), Fraction(22)), (Fraction(-481, 3), Fraction(9758, 27))]
)
TWIST_FACTORS = (997, 10**5 + 3)
# 78 special-family operations a round (26 curves, each with two twists), 48
# of them cheap; 50 corpus curves put the median well inside the dear ones
CLASSIFY_CORPUS_PER_ROUND = 50
# p90 needs ten operations beyond it
MIN_OPERATIONS = 100
# wall time of a run's rounds, as a multiple of the requested (CPU) seconds
WALL_LIMIT = 2.0
# CPU seconds of operations between two timings of the reference work
REFERENCE_EVERY = 0.25


class Run:
    """Durations, failures and correctness of one run."""

    def __init__(self, seconds: float, tracer=None):
        self.seconds = seconds
        self.tracer = tracer
        self.durations: list[float] = []       # CPU seconds per operation
        self.wall_durations: list[float] = []
        self.wall_start = time.perf_counter()
        self.reference: list[float] = []       # CPU seconds per reference_work()
        self._since_reference = REFERENCE_EVERY
        self.failed = 0
        self.errors: list[str] = []
        self.rounds = 0

    def call(self, label, fn, *args):
        """Time one operation; an exception counts it as failed."""
        if self._since_reference >= REFERENCE_EVERY:
            self.reference.append(time_reference())
            self._since_reference = 0.0
        w0, t0 = time.perf_counter(), time.process_time()
        try:
            out = fn(*args)
        except Exception:
            out = None
            self.failed += 1
            print(f"operation {label} failed:\n{traceback.format_exc()}", file=sys.stderr)
        t1, w1 = time.process_time(), time.perf_counter()
        self.durations.append(t1 - t0)
        self.wall_durations.append(w1 - w0)
        self._since_reference += t1 - t0
        if self.tracer is not None:
            self.tracer.op_span(len(self.durations), label, t0, t1)
        return out

    def speed(self) -> float:
        """The machine's speed during the run against a quiet one: the
        reference work's quiet time over its mean time in this run."""
        return REFERENCE_S / (sum(self.reference) / len(self.reference))

    def untraced(self, fn, *args):
        """Call fn with tracing off: checks are not part of the measurement."""
        if self.tracer is None:
            return fn(*args)
        self.tracer.enabled = False
        try:
            return fn(*args)
        finally:
            self.tracer.enabled = True

    def check(self, fn, *args) -> None:
        """Run an output check untraced; a failed check marks the run wrong."""
        try:
            self.untraced(fn, *args)
        except chk.CheckError as exc:
            self.errors.append(str(exc))
            print(f"check failed: {exc}", file=sys.stderr)

    def more(self) -> bool:
        """Whether another round ends nearer the requested time (scaled CPU
        time) than stopping and within the wall limit, or the run still has
        too few operations for a p90."""
        self.rounds += 1
        elapsed = sum(self.durations) * self.speed()
        wall = time.perf_counter() - self.wall_start
        return ((elapsed + elapsed / self.rounds / 2 < self.seconds
                 and wall + wall / self.rounds < WALL_LIMIT * self.seconds)
                or len(self.durations) < MIN_OPERATIONS)


# ---------------------------------------------------------------------------
# set-up: import plus one call of every entry point on fixed small inputs
# ---------------------------------------------------------------------------

def setup() -> int:
    """Warm every entry point once; returns the primes its surveys used."""
    import torsionfields.cli  # noqa: F401  (its import cost belongs here)

    td = torsion.torsion_data(13, 2, 3, 5)
    for name in gen.applicable_checks(5):
        gen.run_check(name, td)
    A, B = Fraction(-1), Fraction(0)
    primes = 0
    for m, _ in SURVEY_BUDGETS:
        primes += len(oracle.chebotarev_degree(A, B, m, budget=20).primes)
    _classify_op(A, B)
    return primes


# ---------------------------------------------------------------------------
# suite
# ---------------------------------------------------------------------------

def _nonsingular(rng, q):
    while True:
        A, B = rng.randrange(q), rng.randrange(q)
        if (4 * A ** 3 + 27 * B * B) % q:
            return A, B


def _curve_with_trace(rng, q, t):
    while True:
        A, B = _nonsingular(rng, q)
        if q + 1 - chk.count_points(q, A, B) == t:
            return A, B


def _suite_op(q, A, B, m):
    td = torsion.torsion_data(q, A, B, m)
    return td, [gen.run_check(name, td) for name in gen.applicable_checks(m)]


def run_suite(seed: int, run: Run) -> dict:
    rng = random.Random(f"perfbench-suite-{seed}")
    check_rng = random.Random(f"perfbench-suite-check-{seed}")
    while True:
        for m, q, t in SUITE_ROUND:
            A, B = _curve_with_trace(rng, q, t)
            out = run.call(f"suite m={m} q={q} A={A} B={B}", _suite_op, q, A, B, m)
            if out is not None:
                run.check(chk.check_suite_instance, out[0], (q, A, B, m), out[1], check_rng)
        if not run.more():
            return {}


# ---------------------------------------------------------------------------
# survey
# ---------------------------------------------------------------------------

def corpus(rng, bound=50):
    """Distinct nonsingular rational curves, drawn as scripts/oracle_corpus.py does."""
    seen = set()
    while True:
        A = Fraction(rng.randint(-bound, bound), rng.choice([1, 1, 1, 2, 3]))
        B = Fraction(rng.randint(-bound, bound), rng.choice([1, 1, 1, 2, 3]))
        if 4 * A ** 3 + 27 * B ** 2 == 0 or (A, B) in seen:
            continue
        seen.add((A, B))
        yield A, B


def _exact_degrees(A, B):
    return {3: c3.classify3(A, B).degree, 4: c4.classify4(A, B).degree, 5: None}


def run_survey(seed: int, run: Run) -> dict:
    curves = corpus(random.Random(f"perfbench-survey-{seed}"))
    primes = 0
    while True:
        A, B = next(curves)
        degrees = None
        for m, budget in SURVEY_BUDGETS:
            est = run.call(f"survey m={m} A={A} B={B}", oracle.chebotarev_degree,
                           A, B, m, budget, SURVEY_WINDOW)
            if est is None:
                continue
            primes += len(est.primes)
            if degrees is None:
                degrees = run.untraced(_exact_degrees, A, B)
            fingerprint = lambda ell, m=m: oracle.frobenius_fingerprint(ell, A, B, m)
            run.check(chk.check_survey, est, A, B, m, budget, degrees[m], fingerprint)
        if not run.more():
            return {"survey_primes": primes}


# ---------------------------------------------------------------------------
# classify
# ---------------------------------------------------------------------------

def _classify_op(A, B):
    return (c3.classify3(A, B), c4.classify4(A, B), c3.radical_roots3(A, B),
            c4.four_torsion_points(c4.two_torsion_split(A, B)))


def _classify_checked(run: Run, A, B):
    out = run.call(f"classify A={A} B={B}", _classify_op, A, B)
    if out is not None:
        run.check(chk.check_classification, A, B, *out)
    return out


def run_classify(seed: int, run: Run) -> dict:
    curves = corpus(random.Random(f"perfbench-classify-{seed}"))
    while True:
        for A, B in SPECIAL_CURVES:
            base = _classify_checked(run, A, B)
            for u in TWIST_FACTORS:
                twist = _classify_checked(run, A * u ** 4, B * u ** 6)
                # a twist that classifies unlike its base is a failed operation
                if base is not None and twist is not None \
                        and not chk.twist_matches(base[:2], twist[:2]):
                    run.failed += 1
        for _ in range(CLASSIFY_CORPUS_PER_ROUND):
            _classify_checked(run, *next(curves))
        if not run.more():
            return {}


WORKLOADS = {"suite": run_suite, "survey": run_survey, "classify": run_classify}
