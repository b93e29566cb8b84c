"""Seeded sampling: determinism, stream independence, golden draws."""

import math

import numpy as np
import pytest

from randfan import sampling
from randfan.errors import ValidationError
from randfan.fans import complete_fan
from randfan.lattice import MAX_H, RayVec, angular_compare, enumerate_rays
from randfan.sampling import SampleConfig, prob_complete, sample_fan

SEED = 20260816


def sample_rays(cfg: SampleConfig) -> set[RayVec]:
    """The draw's kept rays as a set of RayVec (primitivity checked by RayVec)."""
    return {RayVec(x, y) for x, y in sample_fan(cfg).coords.tolist()}

# frozen draw: h=3, p=0.5, master_seed=SEED, trial 0 (reseeding contract;
# changes only with a deliberate, documented generator revision)
GOLDEN_H3 = [
    (3, 1), (2, 1), (2, 3), (1, 2), (1, 3), (0, 1), (-1, 2), (-2, 3),
    (-1, 1), (-3, 2), (-1, 0), (-3, -1), (-2, -1),
]
GOLDEN_H3_INDICES = [1, 4, 1, 1, 1, 1, 1, 1, 1, 2, 1, 1, 1]


def test_golden_draw_is_stable():
    fan = sample_fan(SampleConfig(h=3, p=0.5, master_seed=SEED, trial_index=0))
    assert [tuple(map(int, r)) for r in fan.coords] == GOLDEN_H3
    assert list(map(int, fan.cone_indices)) == GOLDEN_H3_INDICES


def test_same_config_same_fan():
    cfg = SampleConfig(h=50, p=0.5, master_seed=123, trial_index=9)
    a, b = sample_fan(cfg), sample_fan(cfg)
    assert np.array_equal(a.coords, b.coords)
    assert sample_rays(cfg) == sample_rays(cfg)


def test_distinct_trials_and_seeds_give_distinct_draws():
    base = SampleConfig(h=40, p=0.5, master_seed=5, trial_index=0)
    other_trial = SampleConfig(h=40, p=0.5, master_seed=5, trial_index=1)
    other_seed = SampleConfig(h=40, p=0.5, master_seed=6, trial_index=0)
    a = sample_rays(base)
    assert a != sample_rays(other_trial)
    assert a != sample_rays(other_seed)


def test_trial_streams_do_not_depend_on_call_order():
    cfgs = [SampleConfig(h=20, p=0.3, master_seed=77, trial_index=t) for t in range(4)]
    forward = [sample_rays(c) for c in cfgs]
    backward = [sample_rays(c) for c in reversed(cfgs)]
    assert forward == backward[::-1]


def test_extreme_probabilities():
    full = sample_fan(SampleConfig(h=4, p=1.0, master_seed=1, trial_index=0))
    assert np.array_equal(full.coords, enumerate_rays(4).coords)
    empty = sample_fan(SampleConfig(h=4, p=0.0, master_seed=1, trial_index=0))
    assert empty.n_rays == 0
    assert sample_rays(SampleConfig(h=4, p=0.0, master_seed=1, trial_index=0)) == set()


def test_sampled_fan_equals_completed_sample():
    cfg = SampleConfig(h=12, p=0.4, master_seed=99, trial_index=3)
    direct = sample_fan(cfg)
    recompleted = complete_fan(sample_rays(cfg))
    assert np.array_equal(direct.coords, recompleted.coords)
    assert direct.cones == recompleted.cones


def test_sample_is_subset_in_canonical_order():
    cfg = SampleConfig(h=15, p=0.6, master_seed=4, trial_index=8)
    fan = sample_fan(cfg)
    universe = enumerate_rays(15)
    assert {tuple(map(int, r)) for r in fan.coords} <= {
        tuple(map(int, r)) for r in universe.coords
    }
    pairs = list(zip(fan.coords[:-1], fan.coords[1:]))
    assert all(angular_compare(u, v) == -1 for u, v in pairs)


def test_kept_fraction_tracks_p():
    cfg = SampleConfig(h=60, p=0.5, master_seed=SEED, trial_index=1)
    frac = len(sample_rays(cfg)) / len(enumerate_rays(60))
    assert abs(frac - 0.5) < 0.05


def test_config_validation():
    bad = [
        dict(h=0, p=0.5),
        dict(h=2.5, p=0.5),
        dict(h=5, p=-0.1),
        dict(h=5, p=1.5),
        dict(h=5, p=float("nan")),
        dict(h=5, p=0.5, master_seed=-1),
        dict(h=5, p=0.5, master_seed=2**64),
        dict(h=5, p=0.5, trial_index=-2),
        dict(h=5, p=0.5, trial_index=2**64),
        dict(h=True, p=0.5),
        dict(h=5, p=True),
        dict(h=5, p=0.5, master_seed=True),
    ]
    for kwargs in bad:
        with pytest.raises(ValidationError):
            SampleConfig(**kwargs)
    assert SampleConfig(h=5, p=0.25).q == 0.75


def test_prob_complete_matches_direct_power():
    for h, q in [(1, 0.125), (3, 0.01), (5, 0.5)]:
        n = len(enumerate_rays(h))
        exact, approx = prob_complete(h, q)
        assert exact == pytest.approx((1.0 - q) ** n, rel=1e-12)
        assert approx == pytest.approx(math.exp(-n * q), rel=1e-12)


def test_prob_complete_edges_and_validation():
    assert prob_complete(2, 0.0) == (1.0, 1.0)
    exact, approx = prob_complete(2, 1.0)
    assert exact == 0.0 and approx > 0.0
    for q in [-0.01, 1.01, float("nan")]:
        with pytest.raises(ValidationError):
            prob_complete(2, q)


def test_prob_complete_limit_regime():
    # with q = c/n the exact value approaches exp(-c) from below as n grows
    n = len(enumerate_rays(200))
    for c in (0.5, 2.0):
        exact, approx = prob_complete(200, c / n)
        assert approx == pytest.approx(math.exp(-c), rel=1e-12)
        assert abs(exact - approx) / approx < 1e-3


def test_prob_complete_counts_the_rays_instead_of_enumerating(monkeypatch):
    want = {h: len(enumerate_rays(h)) for h in (1, 3, 5, 30, 200)}

    def refuse(h):
        raise AssertionError(f"prob_complete enumerated height {h}")

    monkeypatch.setattr(sampling, "enumerate_rays", refuse)
    for h, n in want.items():
        assert prob_complete(h, 1e-3) == (math.exp(n * math.log1p(-1e-3)), math.exp(-n * 1e-3))
    n = 2_431_708_419_136  # at h = MAX_H
    assert prob_complete(MAX_H, 1e-13) == (math.exp(n * math.log1p(-1e-13)), math.exp(-n * 1e-13))


def test_sample_rays_returns_rayvecs():
    kept = sample_rays(SampleConfig(h=3, p=0.7, master_seed=2, trial_index=0))
    assert all(isinstance(r, RayVec) for r in kept)


def test_mean_inclusion_over_many_trials():
    universe = enumerate_rays(20)
    n, trials, p = len(universe), 1000, 0.3
    total = sum(
        len(sample_rays(SampleConfig(h=20, p=p, master_seed=SEED, trial_index=t)))
        for t in range(trials)
    )
    stderr = math.sqrt(p * (1 - p) / (trials * n))
    assert abs(total / (trials * n) - p) < 4 * stderr
