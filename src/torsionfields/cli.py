"""Command-line front end.

Every subcommand writes JSON to stdout (schema version "1", fixed key
order) and signals through the exit code: 0 for success, 2 when the
computation ran but the verdict is negative (a failed verification run,
a classification defect, a torsion construction that gave up), 1 for
usage errors.  `verify` streams JSON lines — a header, one line per
theorem report, and a summary — so long runs can be consumed as they
happen.

Curve coefficients are rationals written as "num/den" or plain integer
strings.  The `pairing` subcommand works over F_{p^k} but takes its
coefficients in the prime subfield only (integer strings); torsion data
is computed once over F_p and the Frobenius matrix raised to the k-th
power, which is what the k-power Frobenius acts by on the same basis.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from fractions import Fraction

from .classify3 import ClassificationDefect, classify3
from .classify4 import classify4
from .finitefield import is_prime, pow_elt
from .generators import CHECKS, SUITE_M_COUNTS, failures, run_suite
from .gl2 import factor_int, mat_order, mat_pow
from .oracle import chebotarev_degree, image_report
from .torsion import MAX_M, TorsionConstructionError, torsion_data


class _Parser(argparse.ArgumentParser):
    """argparse exits with 2 on bad usage; the contract here says 1."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # accept negative rationals like -481/3 as option values
        self._negative_number_matcher = re.compile(r"^-\d+(/\d+)?$|^-\d*\.\d+$")

    def error(self, message):
        self.exit(1, f"{self.prog}: error: {message}\n")


def _rational(text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise argparse.ArgumentTypeError(f"not a rational: {text!r}")


def _positive_int(text: str) -> int:
    if not text.isdigit() or int(text) < 1:
        raise argparse.ArgumentTypeError(f"not a positive integer: {text!r}")
    return int(text)


def _m_list(text: str) -> list[int]:
    try:
        ms = [int(tok) for tok in text.split(",") if tok]
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a comma-separated integer list: {text!r}")
    bad = [m for m in ms if m not in SUITE_M_COUNTS]
    if bad or not ms:
        raise argparse.ArgumentTypeError(
            f"m values must be among {sorted(SUITE_M_COUNTS)}, got {text!r}"
        )
    return ms


def _emit(doc: dict) -> None:
    print(json.dumps(doc))


def _cmd_classify3(args) -> int:
    try:
        report = classify3(args.a, args.b)
    except ClassificationDefect as exc:
        _emit({"schema": "1", "error": "classification-defect", "detail": str(exc)})
        return 2
    _emit(report.to_json())
    return 0


def _cmd_classify4(args) -> int:
    try:
        report = classify4(args.a, args.b)
    except ClassificationDefect as exc:
        _emit({"schema": "1", "error": "classification-defect", "detail": str(exc)})
        return 2
    _emit(report.to_json())
    return 0


def _cmd_verify(args) -> int:
    theorems = None if args.theorem == "all" else [args.theorem]
    ms = args.m_list if args.m_list else sorted(SUITE_M_COUNTS)
    _emit(
        {
            "schema": "1",
            "mode": "verify",
            "theorem": args.theorem,
            "trials": args.trials,
            "seed": args.seed,
            "m_list": ms,
        }
    )
    reports = run_suite(
        seed=args.seed,
        m_counts={m: args.trials for m in ms},
        theorems=theorems,
    )
    for rep in reports:
        print(rep.to_json())
    failed = failures(reports)
    _emit(
        {
            "schema": "1",
            "reports": len(reports),
            "failures": len(failed),
            "verdict": "fail" if failed else "pass",
        }
    )
    return 2 if failed else 0


def _cmd_pairing(args) -> int:
    p, k, m = args.p, args.k, args.m
    if p < 5 or not is_prime(p):
        raise ValueError("p must be a prime >= 5")
    if k < 1:
        raise ValueError("k must be positive")
    if not 2 <= m <= MAX_M:
        raise ValueError(f"m must be between 2 and {MAX_M}")
    try:
        td = torsion_data(p, args.a % p, args.b % p, m)
    except TorsionConstructionError as exc:
        _emit({"schema": "1", "error": "construction-failed", "detail": str(exc)})
        return 2
    frob = mat_pow(td.frobenius, k, m)
    one = pow_elt(td.zeta, 0)
    primitive = all(pow_elt(td.zeta, m // pf) != one for pf in factor_int(m))
    _emit(
        {
            "schema": "1",
            "p": p,
            "k": k,
            "a": args.a % p,
            "b": args.b % p,
            "m": m,
            "n": mat_order(frob, m),
            "frobenius": list(frob),
            "zeta": list(td.zeta.encode()),
            "primitive": primitive,
        }
    )
    return 0


def _cmd_oracle(args) -> int:
    est = chebotarev_degree(args.a, args.b, args.m, budget=args.primes, window=args.window)
    _emit(est.to_json())
    return 0


def _cmd_image(args) -> int:
    rep = image_report(args.a, args.b, args.p, samples=args.samples)
    _emit(rep.to_json())
    return 0


def build_parser() -> _Parser:
    parser = _Parser(
        prog="torsionfields",
        description="Torsion-field degrees, Frobenius images, and Weil pairing data.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p3 = sub.add_parser("classify3", help="exact [Q(E[3]):Q] and Galois group")
    p3.add_argument("--a", type=_rational, required=True)
    p3.add_argument("--b", type=_rational, required=True)
    p3.set_defaults(func=_cmd_classify3)

    p4 = sub.add_parser("classify4", help="exact [Q(E[4]):Q] and structure")
    p4.add_argument("--a", type=_rational, required=True)
    p4.add_argument("--b", type=_rational, required=True)
    p4.set_defaults(func=_cmd_classify4)

    pv = sub.add_parser("verify", help="run the finite-field theorem suite")
    pv.add_argument("--theorem", required=True,
                    choices=sorted(CHECKS) + ["all"], metavar="ID",
                    help=f"one of {', '.join(sorted(CHECKS))}, or all")
    pv.add_argument("--trials", type=_positive_int, required=True)
    pv.add_argument("--seed", type=int, required=True)
    pv.add_argument("--m-list", type=_m_list, default=None, dest="m_list")
    pv.set_defaults(func=_cmd_verify)

    pp = sub.add_parser("pairing", help="torsion basis pairing data over F_{p^k}")
    pp.add_argument("--p", type=int, required=True)
    pp.add_argument("--k", type=int, required=True)
    pp.add_argument("--a", type=int, required=True,
                    help="curve coefficient in the prime subfield")
    pp.add_argument("--b", type=int, required=True,
                    help="curve coefficient in the prime subfield")
    pp.add_argument("--m", type=int, required=True)
    pp.set_defaults(func=_cmd_pairing)

    po = sub.add_parser("oracle", help="degree estimate from Frobenius orders")
    po.add_argument("--a", type=_rational, required=True)
    po.add_argument("--b", type=_rational, required=True)
    po.add_argument("--m", type=int, required=True)
    po.add_argument("--primes", type=int, required=True)
    po.add_argument("--window", type=int, required=True)
    po.set_defaults(func=_cmd_oracle)

    pi = sub.add_parser("image", help="mod-p surjectivity certificate from traces")
    pi.add_argument("--a", type=_rational, required=True)
    pi.add_argument("--b", type=_rational, required=True)
    pi.add_argument("--p", type=int, required=True)
    pi.add_argument("--samples", type=int, required=True)
    pi.set_defaults(func=_cmd_image)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ValueError as exc:
        print(f"torsionfields: error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
