#!/usr/bin/env python3
"""Run the finite-field theorem suite and dump the reports as JSON lines.

Defaults reproduce the seed-0 regression run (8060 reports, all passing).
The sha256 of the JSONL goes to stderr with the summary, so the seed-0 run
can be compared byte for byte with one command.
"""

import argparse
import hashlib
import io
import sys
import time

from torsionfields.generators import (
    CHECKS,
    SUITE_M_COUNTS,
    failures,
    run_suite,
    write_jsonl,
)


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--trials", type=int, default=None,
                    help="instances per m (default: the tuned per-m counts)")
    ap.add_argument("--theorem", default=None, choices=sorted(CHECKS),
                    help="restrict to one check")
    ap.add_argument("--out", default="-", help="JSONL destination ('-' = stdout)")
    args = ap.parse_args()

    m_counts = None if args.trials is None else {m: args.trials for m in SUITE_M_COUNTS}
    theorems = None if args.theorem is None else [args.theorem]

    t0 = time.time()
    reports = run_suite(seed=args.seed, m_counts=m_counts, theorems=theorems)
    bad = failures(reports)

    buf = io.StringIO()
    write_jsonl(reports, buf)
    text = buf.getvalue()
    if args.out == "-":
        sys.stdout.write(text)
    else:
        with open(args.out, "w") as fh:
            fh.write(text)

    print(
        f"{len(reports)} reports, {len(bad)} failures, {time.time() - t0:.1f}s",
        file=sys.stderr,
    )
    print(f"sha256 {hashlib.sha256(text.encode()).hexdigest()}", file=sys.stderr)
    for rep in bad:
        print(f"FAIL {rep.theorem} q={rep.q} A={rep.A} B={rep.B} m={rep.m}: {rep.note}",
              file=sys.stderr)
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
