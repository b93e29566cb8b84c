"""Random toric surface fans.

Exact integer geometry of primitive-ray fans in the plane (enumeration,
completion, singularity spectra, single-ray blowdowns) together with a
seeded, reproducible Monte Carlo harness for the random model that keeps
each ray of sup-norm <= h independently with probability p.

The package exports the names below; everything else is imported from its
submodule (randfan.counting, .lattice, .fans, .blowdown, .sampling,
.experiments, .emission).
"""

import importlib

__version__ = "0.1.0"

#: The module that defines each exported name.  A name is imported from it
#: on first use (PEP 562), so `import randfan` loads no submodule (and no
#: numpy, which randfan._numpy loads for the modules that use arrays).
_SOURCES = {
    "ExperimentSpec": "experiments",
    "InvariantError": "errors",
    "PowerSchedule": "experiments",
    "SampleConfig": "sampling",
    "ValidationError": "errors",
    "blowdown_table": "blowdown",
    "complete_fan": "fans",
    "conjectured_ratio": "counting",
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
