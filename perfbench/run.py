"""Benchmark entry point: run one workload of rmquant and print its metrics.

    python3 perfbench/run.py --workload paper_grids --seed 1 --seconds 20 --trace 0

Run it from the root of a source checkout.  It imports rmquant from
``src/`` (nothing is installed or built) and exits with code 2, printing
no result, when that source tree is absent.  Before numpy is loaded it
pins the BLAS/OpenMP thread count to one through the environment, which
the import probes it starts inherit; the last line of standard output is
the JSON result.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import os
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMBA_NUM_THREADS")
# The numpy path's BLAS calls are matrix-vector products that gain nothing
# from more threads, while idle OpenBLAS workers spin on the other cores
# and make timings noisier.
PINNED_THREADS = 1


def pin_environment():
    for var in THREAD_VARS:
        os.environ[var] = str(PINNED_THREADS)
    os.environ["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p)
    os.environ["PYTHONDONTWRITEBYTECODE"] = "1"
    sys.dont_write_bytecode = True
    sys.path.insert(0, str(SRC))


if __name__ == "__main__":
    pin_environment()
    import bench  # loads numpy, so only after the pinning
    sys.exit(bench.main())
