"""Test-session settings.

BLAS is pinned to one thread here, before any test module imports numpy.
Several tests bound their wall time, and BLAS threads that oversubscribe
the cores, when another CPU-bound process shares the host, multiply it.  A
thread count already set in the environment is kept.
"""

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")
