"""Random toric surface fans.

Exact integer geometry of primitive-ray fans in the plane (enumeration,
completion, singularity spectra, single-ray blowdowns) together with a
seeded, reproducible Monte Carlo harness for the random model that keeps
each ray of sup-norm <= h independently with probability p.

The package exports the names below; everything else is imported from its
submodule (randfan.lattice, .fans, .blowdown, .sampling, .experiments).
"""

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
