"""Random toric surface fans.

Exact integer geometry of primitive-ray fans in the plane (enumeration,
completion, singularity spectra, single-ray blowdowns) together with a
seeded, reproducible Monte Carlo harness for the random model that keeps
each ray of sup-norm <= h independently with probability p.

The package exports the names below; everything else is imported from its
submodule (randfan.lattice, .fans, .blowdown, .sampling, .experiments).
"""

import os
import sys

# numpy's OpenBLAS starts a thread pool when it loads, and an idle pool
# thread spins for about 2**28 cycles before it sleeps; randfan makes no
# BLAS call.  OpenBLAS reads OPENBLAS_THREAD_TIMEOUT once, at load, so load
# numpy with the shortest spin (2**4 cycles), keeping the pool for a
# caller's own BLAS calls.  A value the user set, or numpy loaded first,
# wins, and os.environ ends as it was, so no child process inherits it.
if "numpy" not in sys.modules and "OPENBLAS_THREAD_TIMEOUT" not in os.environ:
    os.environ["OPENBLAS_THREAD_TIMEOUT"] = "4"
    try:
        import numpy  # noqa: F401
    finally:
        del os.environ["OPENBLAS_THREAD_TIMEOUT"]

from .blowdown import blowdown_table, conjectured_ratio
from .errors import InvariantError, ValidationError
from .experiments import (
    ExperimentSpec,
    PowerSchedule,
    emit,
    run_density_sweep,
    run_threshold_sweep,
    space_report,
    sweep_columns,
    sweep_rows_as_dicts,
)
from .fans import complete_fan, delta_k, is_smooth
from .lattice import enumerate_rays
from .sampling import SampleConfig, prob_complete, sample_fan

__version__ = "0.1.0"

__all__ = [
    "ExperimentSpec",
    "InvariantError",
    "PowerSchedule",
    "SampleConfig",
    "ValidationError",
    "blowdown_table",
    "complete_fan",
    "conjectured_ratio",
    "delta_k",
    "emit",
    "enumerate_rays",
    "is_smooth",
    "prob_complete",
    "run_density_sweep",
    "run_threshold_sweep",
    "sample_fan",
    "space_report",
    "sweep_columns",
    "sweep_rows_as_dicts",
]
