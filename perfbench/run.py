"""Entry point of the benchmark: ``python3 perfbench/run.py --workload NAME
--seed N --seconds S --trace 0|1``, run from the repository root.

The process environment is pinned before numpy loads: one BLAS/OpenMP
thread (per-iteration solver time varied by about 15% between repeats with
two threads on a two-core machine) and no ``MODKIT_THREADS``. The package
is imported from ``src/`` beside this directory; without it the run stops
with exit code 2 and prints no result.
"""

import os
import sys
from pathlib import Path

if __name__ == "__main__":
    os.environ.pop("MODKIT_THREADS", None)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    src = Path(__file__).resolve().parent.parent / "src"
    if not (src / "modkit" / "__init__.py").is_file():
        print(f"perfbench: no modkit package under {src}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(src))
    import bench
    sys.exit(bench.main(sys.argv[1:]))
