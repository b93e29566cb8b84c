"""The README's library tour runs, and names only what the package exports."""

import re
from fractions import Fraction
from pathlib import Path

import randfan

README = Path(__file__).resolve().parent.parent / "README.md"

EXPORTS = {
    # reached through `rf.` by the acceptance criteria
    "ExperimentSpec", "PowerSchedule", "run_threshold_sweep", "run_density_sweep",
    "complete_fan", "is_smooth", "prob_complete", "conjectured_ratio", "emit",
    "space_report", "sweep_columns", "sweep_rows_as_dicts",
    # used by the README tour
    "enumerate_rays", "blowdown_table", "SampleConfig", "sample_fan", "delta_k",
    # the errors callers catch
    "ValidationError", "InvariantError",
}


def _tour() -> str:
    text = README.read_text(encoding="utf-8")
    section = text.split("## Library tour", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def test_all_is_exactly_the_public_surface():
    assert len(randfan.__all__) == len(set(randfan.__all__)) == 19
    assert set(randfan.__all__) == EXPORTS
    for name in randfan.__all__:
        assert hasattr(randfan, name), name


def test_readme_names_only_exported_names():
    names = set(re.findall(r"\brf\.(\w+)", README.read_text(encoding="utf-8")))
    assert names and names <= set(randfan.__all__), names - set(randfan.__all__)


def test_library_tour_runs_as_written():
    scope: dict = {}
    exec(compile(_tour(), str(README), "exec"), scope)
    assert len(scope["u"]) == 80
    assert scope["fan"].n_cones == 80
    assert scope["t"][(1, 1)] == 9
    assert scope["t"].ratio_geq(2) == Fraction(3, 5)
    assert len(scope["rows"]) == 1


def test_readme_states_the_workers_bound():
    from randfan.experiments import MAX_WORKERS

    assert f"MAX_WORKERS = {MAX_WORKERS}`" in README.read_text(encoding="utf-8")


def test_readme_states_the_memory_estimate():
    from randfan.lattice import _universe_bytes

    per_h2 = round(_universe_bytes([2000]) / 2000**2)
    assert f"about `{per_h2} * h^2`" in README.read_text(encoding="utf-8")
