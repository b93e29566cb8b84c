"""Trials classified from their dropped runs, against the Fan-building oracle."""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import fan_trial
from randfan import (
    ExperimentSpec,
    InvariantError,
    RayUniverse,
    enumerate_rays,
    run_threshold_sweep,
    run_trial,
    wedge,
)
from randfan import experiments, sampling
from randfan.sampling import UINT64_MAX

SEED = 20260816


@settings(max_examples=400, deadline=None)
@given(
    h=st.integers(1, 40),
    q=st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0)),
    seed=st.integers(0, UINT64_MAX),
    trial=st.integers(0, UINT64_MAX),
    ks=st.lists(st.integers(1, 12), max_size=4),
)
def test_trial_matches_fan_oracle(h, q, seed, trial, ks):
    k_list = [1, *ks]
    assert run_trial(h, q, seed, trial, k_list) == fan_trial(h, q, seed, trial, k_list)


@pytest.mark.parametrize("trial", [0, 1, 2])
def test_sparse_drop_trial_at_height_1000_matches_fan_oracle(trial):
    rec = run_trial(1000, 1e-4, SEED, trial, [1, 2, 3])
    assert rec == fan_trial(1000, 1e-4, SEED, trial, [1, 2, 3])
    assert rec.n_rays_drawn < len(enumerate_rays(1000))


H = 3  # 32 rays: (1, 0) at 0, (0, 1) at 8, (-1, 0) at 16, (0, -1) at 24
K_LIST = [1, 2, 3]


def _forced_trial(monkeypatch, kept_positions):
    """run_trial on a draw that keeps exactly the given positions, checked
    against the oracle on the same draw."""
    keep = np.zeros(len(enumerate_rays(H)), dtype=bool)
    keep[list(kept_positions)] = True

    def forced(cfg, universe):
        return keep.copy()

    monkeypatch.setattr(sampling, "_keep_mask", forced)
    monkeypatch.setattr(experiments, "_keep_mask", forced)
    rec = run_trial(H, 0.5, 0, 0, K_LIST)
    assert rec == fan_trial(H, 0.5, 0, 0, K_LIST)
    assert rec.n_rays_drawn == len(kept_positions)
    return rec


def _cones(rec):
    return rec.n_cones, rec.max_index, rec.delta_k


def test_no_kept_ray_gives_no_cone(monkeypatch):
    assert _cones(_forced_trial(monkeypatch, [])) == (0, 0, dict.fromkeys(K_LIST))


def test_one_kept_ray_gives_no_cone(monkeypatch):
    assert _cones(_forced_trial(monkeypatch, [5])) == (0, 0, dict.fromkeys(K_LIST))


def test_two_kept_rays(monkeypatch):
    # antipodes: both gaps are half turns
    assert _cones(_forced_trial(monkeypatch, [0, 16])) == (0, 0, dict.fromkeys(K_LIST))
    # (1, 0) and (0, 1): a quarter-turn cone of index 1, no cone across 3/4 turn
    assert _cones(_forced_trial(monkeypatch, [0, 8])) == (1, 1, {1: 1, 2: 0, 3: 0})
    # (3, 1) and (0, 1) span a cone of index 3
    assert _cones(_forced_trial(monkeypatch, [1, 8])) == (1, 3, {1: 1, 2: 1, 3: 1})


def test_no_dropped_ray_gives_the_full_fan(monkeypatch):
    rec = _forced_trial(monkeypatch, range(32))
    assert _cones(rec) == (32, 1, {1: 1, 2: 0, 3: 0})


def test_run_through_the_seam_counts_once(monkeypatch):
    # drops 30, 31, 0 and 1: one gap, from (3, -2) at 29 to (2, 1) at 2
    rec = _forced_trial(monkeypatch, range(2, 30))
    assert wedge((3, -2), (2, 1)) == 7
    assert _cones(rec) == (28, 7, {1: 1, 2: Fraction(1, 28), 3: Fraction(1, 28)})


@pytest.mark.parametrize("last", [8, 16])
def test_gap_of_at_least_a_half_turn_gives_no_cone(monkeypatch, last):
    # keep the arc from (1, 0) to (0, 1) or to (-1, 0): unit cones along it,
    # and the closing gap of 3/4 or exactly 1/2 turn spans nothing
    rec = _forced_trial(monkeypatch, range(last + 1))
    assert _cones(rec) == (last, 1, {1: 1, 2: 0, 3: 0})


def test_tampered_universe_is_refused(monkeypatch):
    c = enumerate_rays(4).coords.copy()
    c[[5, 6]] = c[[6, 5]]
    first = next(i for i in range(len(c)) if wedge(c[i], c[(i + 1) % len(c)]) != 1)
    u, v = tuple(c[first].tolist()), tuple(c[first + 1].tolist())
    monkeypatch.setattr(experiments, "enumerate_rays", lambda h: RayUniverse(h, c))
    experiments._smooth_universe.cache_clear()
    try:
        with pytest.raises(InvariantError) as exc:
            run_trial(4, 0.1, 0, 0, [2])
        message = str(exc.value)
        assert "height 4" in message
        assert f"{u} at position {first}" in message
        assert f"{v} at position {first + 1}" in message
        assert f"wedge {wedge(u, v)}" in message
        spec = ExperimentSpec(h_values=[4], q_schedule=[0.1], trials=4)
        with pytest.raises(InvariantError):
            run_threshold_sweep(spec, workers=2)
    finally:
        experiments._smooth_universe.cache_clear()
