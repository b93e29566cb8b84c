"""Random toric surface fans.

Exact integer geometry of primitive-ray fans in the plane (enumeration,
completion, singularity spectra, single-ray blowdowns) together with a
seeded, reproducible Monte Carlo harness for the random model that keeps
each ray of sup-norm <= h independently with probability p.

The package exports the names below; everything else is imported from its
submodule (randfan.lattice, .fans, .blowdown, .sampling, .experiments,
.emission).
"""

import importlib
import os
import sys

# numpy's OpenBLAS starts a thread pool when it loads, and an idle pool
# thread spins for about 2**28 cycles before it sleeps; randfan makes no
# BLAS call.  OpenBLAS reads OPENBLAS_THREAD_TIMEOUT once, at load, so load
# numpy with the shortest spin (2**4 cycles), keeping the pool for a
# caller's own BLAS calls.  A value the user set, or numpy loaded first,
# wins, and os.environ ends as it was, so no child process inherits it.
# numpy is loaded here either way, as every submodule needs it.
if "numpy" not in sys.modules and "OPENBLAS_THREAD_TIMEOUT" not in os.environ:
    os.environ["OPENBLAS_THREAD_TIMEOUT"] = "4"
    try:
        import numpy  # noqa: F401
    finally:
        del os.environ["OPENBLAS_THREAD_TIMEOUT"]
else:
    import numpy  # noqa: F401

__version__ = "0.1.0"

#: The module that defines each exported name.  A name is imported from it
#: on first use (PEP 562), so `import randfan` loads no submodule.
_SOURCES = {
    "ExperimentSpec": "experiments",
    "InvariantError": "errors",
    "PowerSchedule": "experiments",
    "SampleConfig": "sampling",
    "ValidationError": "errors",
    "blowdown_table": "blowdown",
    "complete_fan": "fans",
    "conjectured_ratio": "blowdown",
    "delta_k": "fans",
    "emit": "emission",
    "enumerate_rays": "lattice",
    "is_smooth": "fans",
    "prob_complete": "sampling",
    "run_density_sweep": "experiments",
    "run_threshold_sweep": "experiments",
    "sample_fan": "sampling",
    "space_report": "blowdown",
    "sweep_columns": "experiments",
    "sweep_rows_as_dicts": "experiments",
}

__all__ = list(_SOURCES)


def __getattr__(name):
    if name not in _SOURCES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(importlib.import_module(f".{_SOURCES[name]}", __name__), name)
    return value


def __dir__():
    return sorted({*globals(), *__all__})
