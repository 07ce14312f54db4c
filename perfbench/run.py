#!/usr/bin/env python3
"""Benchmark of the torsionfields package: one workload per run.

    python3 perfbench/run.py --workload suite|survey|classify \
        --seed N --seconds S --trace 0|1

Run from the root of a source tree.  The package is imported from ./src, so
the tree is measured as it stands; nothing is installed.  The last line of
standard output is one JSON object with keys correct, attempted, failed and
metrics: the end-to-end metrics with --trace 0, the per-layer metrics with
--trace 1.  Result and trace files go to .perfbench-out/.

Every time reported is CPU time of this process (time.process_time), not
wall time, scaled to the speed of a quiet machine: the package is
single-threaded and does no I/O, CPU time leaves out the time the process
waits for a processor, and the scaling (bench_reference.py) takes out the
host's slow spells.  The result file keeps the unscaled times.
"""

import argparse
import json
import os
import resource
import statistics
import sys
import time
from pathlib import Path

# single-threaded numeric libraries, fixed before numpy is first imported
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench-out"
WORKLOAD_NAMES = ("suite", "survey", "classify")


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def end_to_end(run, setup_s: float, speed: float) -> dict:
    ds = [d * speed for d in run.durations]
    return {
        "setup_s": {"value": setup_s * speed, "unit": "s"},
        "ops_per_s": {"value": len(ds) / sum(ds), "unit": "1/s"},
        "op_p50_ms": {"value": 1e3 * statistics.median(ds), "unit": "ms"},
        "op_p90_ms": {"value": 1e3 * statistics.quantiles(ds, n=10)[8], "unit": "ms"},
        "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                        "unit": "MB"},
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "torsionfields" / "__init__.py").is_file():
        print(f"no package source under {ROOT / 'src'}; run from a source tree",
              file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]

    from bench_tracing import Tracer
    tracer = Tracer().install() if args.trace else None
    import bench_workloads as wl

    setup_primes = wl.setup()
    # CPU time since the process started: interpreter start, imports, warm calls
    setup_s = time.process_time()

    run = wl.Run(args.seconds, tracer)
    info = wl.WORKLOADS[args.workload](args.seed, run)
    correct = not run.errors
    # every time is scaled to the speed of a quiet machine (bench_reference.py)
    speed = run.speed()
    ops_per_s = len(run.durations) / (sum(run.durations) * speed)

    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if tracer is not None:
        tracer.uninstall()
        metrics = tracer.metrics()
        if "survey_primes" in info:
            # the wrappers must have seen every per-prime call the surveys made
            seen = metrics["oracle.frobenius_fingerprint.calls"]["value"]
            if seen != info["survey_primes"] + setup_primes:
                print(f"trace saw {seen} fingerprint calls, surveys used "
                      f"{info['survey_primes'] + setup_primes} primes", file=sys.stderr)
                correct = False
        tracer.write(OUT / f"trace-{tag}.json",
                     {"workload": args.workload, "seed": args.seed,
                      "ops_per_s_traced": ops_per_s, "setup_s_traced": setup_s * speed,
                      "speed": speed})
    else:
        metrics = end_to_end(run, setup_s, speed)

    result = {"correct": correct, "attempted": len(run.durations),
              "failed": run.failed, "metrics": metrics}
    OUT.mkdir(exist_ok=True)
    (OUT / f"result-{tag}.json").write_text(
        json.dumps({**result, "rounds": run.rounds, "errors": run.errors[:20],
                    "speed": speed, "setup_cpu_s": setup_s,
                    "durations": run.durations, "wall_durations": run.wall_durations,
                    "reference": run.reference},
                   indent=1) + "\n")
    print(f"{args.workload}: {len(run.durations)} operations in {run.rounds} rounds, "
          f"{sum(run.durations):.1f} s CPU timed ({sum(run.wall_durations):.1f} s wall), "
          f"{run.failed} failed", file=sys.stderr)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
