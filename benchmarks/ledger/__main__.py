"""Entry point: pin BLAS, find ``src/``, hand over to the CLI.

The pins must be in the environment before NumPy is first imported, so
this file imports nothing of the benchmark until they are set.
"""

import os
import sys
import time

_T_START = time.perf_counter()
_BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

if "--default-blas" not in sys.argv:
    # One BLAS thread: with the HTTP daemon thread that is at most two busy
    # threads on a 2-vCPU host.  Only the `fit-only --default-blas` child,
    # which measures what the unpinned default costs, skips this.
    for _var in _BLAS_VARS:
        os.environ[_var] = "1"

_SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__)))), "src")
if not os.path.isdir(os.path.join(_SRC, "repro")):
    sys.exit(f"benchmarks.ledger: the program under test is missing "
             f"({_SRC}/repro); run from a full checkout")
sys.path.insert(0, _SRC)

from .cli import main  # noqa: E402  (after the pins, on purpose)

if __name__ == "__main__":
    sys.exit(main(sys.argv[1:], t_start=_T_START))
