"""Root pytest configuration: pin BLAS to one thread before NumPy loads.

Pytest loads this file before any test module imports NumPy.  BLAS picks
its own thread count otherwise, and multi-threaded LAPACK makes the speed
ratios of the benchmark gates (dense ``eigvalsh`` against mostly
single-threaded Lanczos) depend on the host and its load.  One thread gives
the same arithmetic and the same ratios on every run.  A value already set
in the environment wins, so the pin suites can also run with more threads.
"""

import os

for _variable in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_variable, "1")
