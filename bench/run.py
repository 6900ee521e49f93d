"""Benchmark of the diracspec CLI.

Usage, from the root of a source checkout:

    python3 bench/run.py --workload dominant_certify --seed 1 --seconds 20 --trace 0

Runs passes of the named workload for --seconds and prints, as the last
line of stdout, one JSON object with the keys correct, attempted, failed
and metrics: the end-to-end metrics with --trace 0, the per-layer metrics
with --trace 1.  The line before it is the run record (versions, nproc,
source digest, seed, sample counts, failures).  See bench/README.md.
"""

import argparse
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
BLAS_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                    "MKL_NUM_THREADS", "BLIS_NUM_THREADS")


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    src = ROOT / "src"
    if not (src / "diracspec" / "cli.py").is_file():
        print(f"bench: no diracspec sources under {src}", file=sys.stderr)
        return 2
    # one BLAS thread: the load comes from this process and the scan pool
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"
    sys.path[:0] = [str(src), str(Path(__file__).resolve().parent)]

    import harness
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"bench: unknown workload {args.workload!r}; choose from "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    result, record = harness.measure(args.workload, args.seed, args.seconds,
                                     bool(args.trace), ROOT)
    harness.emit(result, record)
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
