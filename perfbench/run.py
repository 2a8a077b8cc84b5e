"""Benchmark entry point.

    python3 perfbench/run.py --workload ridge-redraw --seed 1 --seconds 25 --trace 0

Run it from the root of a repository checkout: it imports stabcp from the
checkout's ``src`` directory, never from an installed copy, and fails before
printing a result when that directory is missing.

BLAS is pinned to one thread before numpy loads: the one client thread does
all the work, so every set is timed on one CPU.  On a 2-vCPU VM this gave
run-to-run spreads of 4-6% on ridge-batch where a two-thread pool gave 7-14%.
"""

import os
import sys
import time

STARTED = time.perf_counter()
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BLAS_THREADS = "1"


def main() -> int:
    if not os.path.isfile(os.path.join(ROOT, "src", "stabcp", "__init__.py")):
        print(f"perfbench: {ROOT} has no src/stabcp; run from a repository checkout",
              file=sys.stderr)
        return 2
    for variable in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[variable] = BLAS_THREADS
    # the script's own directory would shadow top-level modules; use the checkout
    sys.path[0:1] = [os.path.join(ROOT, "src"), ROOT]
    from pathlib import Path

    from perfbench.bench import run

    return run(sys.argv[1:], STARTED, Path(ROOT))


if __name__ == "__main__":
    sys.exit(main())
