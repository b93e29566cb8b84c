"""Blowdown indices, norm bands, ratio tables, smooth partners."""

import math
from fractions import Fraction

import numpy as np
import pytest

from randfan import blowdown
from randfan.blowdown import (
    band_bounds,
    blowdown_index,
    blowdown_table,
    conjectured_ratio,
    epsilon_of,
    neighbors,
    smooth_partners,
    triangular,
)
from randfan.errors import InvariantError, ValidationError
from randfan.fans import complete_fan, spectrum
from randfan.lattice import MAX_H, RayUniverse, enumerate_rays, sup_norm, wedge

from oracles import brute_blowdown, brute_epsilon, brute_rays, division_blowdown


def test_neighbors_at_unit_height():
    tau, omega = neighbors(1, (1, 0))
    assert (tuple(tau), tuple(omega)) == ((1, -1), (1, 1))


def test_neighbors_wrap_around_the_angular_seam():
    u = enumerate_rays(5)
    tau, omega = neighbors(5, u[0])
    assert tau == u[len(u) - 1]
    assert omega == u[1]


def test_neighbors_rejects_outsiders():
    with pytest.raises(ValidationError):
        neighbors(5, (6, 1))
    with pytest.raises(ValidationError):
        neighbors(5, (2, 4))
    with pytest.raises(ValidationError):
        blowdown_index(3, (1.9, 0))


def test_unit_height_indices():
    t = blowdown_table(1)
    for axis in [(1, 0), (0, 1), (-1, 0), (0, -1)]:
        assert t[axis] == 2
    for diag in [(1, 1), (-1, 1), (-1, -1), (1, -1)]:
        assert t[diag] == 1


def test_height_five_landmarks():
    t = blowdown_table(5)
    assert t[(1, 1)] == 9
    assert t[(1, 0)] == 10
    assert t[(2, 1)] == 5
    assert t[(5, 4)] == 1


@pytest.mark.parametrize("h", [1, 2, 3, 4, 5, 8])
def test_table_matches_remove_and_recomplete_oracle(h):
    t = blowdown_table(h)
    for ray in brute_rays(h):
        assert t[ray] == brute_blowdown(h, ray), (h, ray)


@pytest.mark.parametrize("h", [1, 3, 7, 20, 60, 257, 1100])
def test_scalar_and_bulk_paths_agree(h):
    t = blowdown_table(h)
    universe = enumerate_rays(h)
    stride = max(1, len(universe) // 50)
    for ray in universe.coords[::stride].tolist():
        assert blowdown_index(h, ray) == t[ray]


@pytest.mark.parametrize("h", [2, 6, 17])
def test_neighbor_sum_identity_holds_everywhere(h):
    t = blowdown_table(h)
    for ray in enumerate_rays(h):
        tau, omega = neighbors(h, ray)
        k = t[ray]
        assert (k * ray.x, k * ray.y) == (tau.x + omega.x, tau.y + omega.y)
        assert k == abs(wedge(tau, omega))


def test_removal_spectrum_is_one_merged_cone():
    # dropping any single ray leaves every other cone unimodular and one
    # merged cone carrying exactly the blowdown index
    for h in range(1, 7):
        t = blowdown_table(h)
        full = enumerate_rays(h)
        for ray in full:
            fan = complete_fan(set(full) - {ray})
            counts = spectrum(fan).counts
            k = t[ray]
            expected = {1: fan.n_cones - 1, k: 1} if k > 1 else {1: fan.n_cones}
            assert counts == expected, (h, tuple(ray))


def test_mapping_interface():
    t = blowdown_table(4)
    assert len(t) == len(enumerate_rays(4)) == 48
    assert [t[ray] for ray in brute_rays(4)] == [int(k) for k in t.k_values]
    assert (1, 1) in t
    assert (5, 1) not in t
    assert (2, 2) not in t
    with pytest.raises(KeyError):
        t[(5, 1)]


def test_table_is_cached_and_frozen():
    t = blowdown_table(9)
    assert t is blowdown_table(9)
    with pytest.raises(ValueError):
        t.k_values[0] = 5


def test_count_and_ratio_are_exact():
    t = blowdown_table(5)
    assert t.ratio_geq(2) == Fraction(t.count_geq(2), 80)
    assert t.ratio_geq(1) == 1
    brute = sum(1 for ray in brute_rays(5) if brute_blowdown(5, ray) >= 2)
    assert t.count_geq(2) == brute
    for k in range(1, 12):
        assert t.count_geq(k) >= t.count_geq(k + 1)
    with pytest.raises(ValidationError):
        t.count_geq(0)
    with pytest.raises(ValidationError):
        t.ratio_geq(-1)


def test_epsilon_matches_brute_force():
    for h in [*range(1, 61), 97, 200]:
        assert epsilon_of(h) == pytest.approx(brute_epsilon(h), abs=1e-12)
    assert epsilon_of(1) == pytest.approx(1.0)
    assert epsilon_of(5) == pytest.approx(0.2)


def test_epsilon_shrinks_with_height():
    # the gap bound: positive, and no larger than 2/h
    for h in [1, 2, 4, 8, 16, 32, 64]:
        eps = epsilon_of(h)
        assert 0.0 < eps <= 2.0 / h + 1e-12


@pytest.mark.parametrize("h", [20, 60])
def test_band_containment(h):
    t = blowdown_table(h)
    assert t.epsilon == epsilon_of(h)
    c, kv = t.coords, t.k_values
    norms = np.maximum(np.abs(c[:, 0]), np.abs(c[:, 1]))
    assert bool((kv * norms <= 2 * h).all())
    for k in sorted(set(int(v) for v in kv)):
        low, high = band_bounds(h, k)
        sel = kv == k
        assert bool((norms[sel] <= float(high)).all())
        # asymptotic lower bound, with one unit of integer slack
        assert bool((norms[sel] >= low - 1.0).all()), (h, k)


def test_band_bounds_values_and_validation():
    low, high = band_bounds(10, 2)
    assert high == Fraction(20, 2) == 10
    assert low == pytest.approx((2 - 0.1) / 4 * 10)
    with pytest.raises(ValidationError):
        band_bounds(10, 0)
    # the height is checked: eps comes from epsilon_of(h)
    for h in [0, -5, True]:
        with pytest.raises(ValidationError):
            band_bounds(h, 2)


def test_triangular_and_conjectured_limits():
    assert [triangular(k) for k in range(1, 8)] == [1, 3, 6, 10, 15, 21, 28]
    assert conjectured_ratio(2) == Fraction(2, 3)
    assert conjectured_ratio(7) == Fraction(1, 14)
    with pytest.raises(ValidationError):
        conjectured_ratio(1)
    with pytest.raises(ValidationError):
        triangular(0)


def test_smooth_partners_frozen_cases():
    got = {tuple(v) for v in smooth_partners(1, (1, 0))}
    assert got == {(1, 1), (0, 1), (-1, 1), (-1, -1), (0, -1), (1, -1)}
    assert len(smooth_partners(5, (1, 1))) == 20


@pytest.mark.parametrize("h,ray", [(6, (1, 0)), (6, (2, 1)), (9, (-4, 3)), (9, (1, 1))])
def test_smooth_partners_match_direct_filter(h, ray):
    got = {tuple(v) for v in smooth_partners(h, ray)}
    want = {p for p in brute_rays(h) if abs(ray[0] * p[1] - ray[1] * p[0]) == 1}
    assert got == want
    cap = 2 * h // sup_norm(ray) + 1
    assert len(got) <= 2 * cap


def test_smooth_partners_accepts_rays_above_height():
    # the pivot ray itself need not lie in the universe
    got = smooth_partners(2, (5, 2))
    assert {tuple(v) for v in got} == {p for p in brute_rays(2)
                                       if abs(5 * p[1] - 2 * p[0]) == 1}
    with pytest.raises(ValidationError):
        smooth_partners(2, (4, 2))
    with pytest.raises(ValidationError):
        smooth_partners(3, (1.2, 0))
    # beyond [-MAX_H, MAX_H] the wedges would leave int64
    for huge in [(2**70, 1), (2**63 - 1, 1), (1, -(2**63)), (MAX_H + 1, 1)]:
        with pytest.raises(ValidationError):
            smooth_partners(3, huge)
    assert len(smooth_partners(3, (MAX_H, 1))) == 2


@pytest.mark.parametrize("block", [1, 7, 47])
def test_blocked_wedge_pass_matches_the_division_oracle(monkeypatch, block):
    # 48 rays at h = 4: blocks of one row, blocks across the seam, and a
    # last block of one row, whose two neighbours both wrap
    monkeypatch.setattr(blowdown, "_BLOCK", block)
    blowdown_table.cache_clear()
    try:
        t = blowdown_table(4)
        assert np.array_equal(t.k_values, division_blowdown(t.coords))
    finally:
        blowdown_table.cache_clear()


def test_tampered_table_raises_invariant_error():
    from randfan.blowdown import BlowdownTable

    u = enumerate_rays(2)
    bogus = np.full(len(u), 9, dtype=np.int64)
    with pytest.raises(InvariantError, match=r"height 2: ray \(1, 0\) at position 0, "
                       r"between \(2, -1\) and \(2, 1\): index 9 times sup-norm 1 exceeds 2h = 4"):
        BlowdownTable(u, bogus)
    k = blowdown_table(2).k_values.copy()
    k[5] = 4  # (-1, 2), whose index is 1
    with pytest.raises(InvariantError, match=r"ray \(-1, 2\) at position 5, between "
                       r"\(0, 1\) and \(-1, 1\): index 4 times sup-norm 2"):
        BlowdownTable(u, k)
    k = blowdown_table(2).k_values.copy()
    k[5] = 0
    with pytest.raises(InvariantError, match=r"ray \(-1, 2\) at position 5, between "
                       r"\(0, 1\) and \(-1, 1\): index 0 is below 1"):
        BlowdownTable(u, k)
    with pytest.raises(InvariantError, match="height 2: 15 indices for 16 rays"):
        BlowdownTable(u, k[1:])
    # a refused array is left as the caller passed it; an accepted one is frozen
    assert bogus.flags.writeable and k.flags.writeable
    k[5] = 1
    assert not BlowdownTable(u, k).k_values.flags.writeable


def test_neighbors_march_along_lines_parallel_to_the_ray():
    # growing the height shifts each neighbor by a whole multiple of the ray
    for h, taller in [(1, 2), (1, 5), (2, 3), (3, 9), (5, 8)]:
        for ray in enumerate_rays(h):
            x, y = ray
            for (ox, oy), (nx, ny) in zip(neighbors(h, ray), neighbors(taller, ray)):
                dx, dy = nx - ox, ny - oy
                steps = dx // x if x != 0 else dy // y
                assert steps >= 0
                assert (dx, dy) == (steps * x, steps * y)


@pytest.mark.parametrize("h", [100, 500])
def test_small_norm_rays_carry_high_indices(h):
    t = blowdown_table(h)
    norms = np.abs(t.coords).max(axis=1)
    n_h = len(t)
    for k in [2, 3, 5]:
        inner = norms < 2 * h / (k + 2) - 1
        assert int(t.k_values[inner].min()) >= k
        assert int(inner.sum()) / n_h > 0.8 * (2 / (k + 2)) ** 2


def test_epsilon_landmarks():
    assert epsilon_of(500) < 0.05
    assert epsilon_of(50) < epsilon_of(10) < epsilon_of(2)


def test_index_of_names_the_ray_a_tampered_universe_lost():
    u = enumerate_rays(4)
    holed = RayUniverse(4, np.delete(u.coords, 7, axis=0))
    with pytest.raises(InvariantError, match=r"height 4: the sorted universe is missing the ray \(3, 4\)"):
        holed.index_of((3, 4))


def test_smooth_partners_over_capacity_names_height_ray_side_and_cap(monkeypatch):
    # (1, 0) has 2h + 1 = 7 partners with wedge 1 at h = 3; doubling them
    # breaks the per-side line capacity
    u = enumerate_rays(3)
    side = u.coords[u.coords[:, 1] == 1]
    padded = RayUniverse(3, np.concatenate((u.coords, side)))
    monkeypatch.setattr(blowdown, "enumerate_rays", lambda h: padded)
    with pytest.raises(InvariantError, match=r"height 3: ray \(1, 0\) has 14 smooth partners "
                       r"on side 1, more than the line capacity 7"):
        smooth_partners(3, (1, 0))

