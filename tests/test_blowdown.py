"""Blowdown indices, norm bands, ratio tables."""

import math
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest

from randfan import blowdown
from randfan.blowdown import band_bounds, blowdown_table, epsilon_of
from randfan.counting import conjectured_ratio, triangular
from randfan.errors import InvariantError, ValidationError
from randfan.fans import complete_fan
from randfan.lattice import RayUniverse, enumerate_rays

from oracles import brute_blowdown, brute_epsilon, brute_rays, division_blowdown, wedge


def test_neighbors_at_unit_height():
    # (1, 0) sits between (1, -1), last in canonical order, and (1, 1)
    c = enumerate_rays(1).coords.tolist()
    assert (c[-1], c[0], c[1]) == ([1, -1], [1, 0], [1, 1])
    assert blowdown_table(1)[(1, 0)] == wedge(c[-1], c[1]) == 2


def test_neighbors_wrap_around_the_angular_seam():
    # the first and last rays take their neighbours across the seam
    c = enumerate_rays(5).coords.tolist()
    k = blowdown_table(5).k_values
    assert k[0] == wedge(c[-1], c[1])
    assert k[-1] == wedge(c[-2], c[0])


def test_neighbors_rejects_outsiders():
    u, t = enumerate_rays(5), blowdown_table(3)
    for outsider in [(6, 1), (2, 4)]:
        with pytest.raises(ValidationError):
            u.index_of(outsider)
    with pytest.raises(ValidationError):
        (1.9, 0) in t


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
    # a lookup by ray (binary search in the universe) reads the column entry
    t = blowdown_table(h)
    stride = max(1, len(t) // 50)
    for i in range(0, len(t), stride):
        ray = t.coords[i].tolist()
        assert t[ray] == t.k_values[i]
        assert t[tuple(ray)] == wedge(t.coords[i - 1], t.coords[(i + 1) % len(t)])


@pytest.mark.parametrize("h", [2, 6, 17])
def test_neighbor_sum_identity_holds_everywhere(h):
    t = blowdown_table(h)
    c = enumerate_rays(h).coords.astype(np.int64)
    tau, omega = np.roll(c, 1, axis=0), np.roll(c, -1, axis=0)
    for ray, before, after in zip(c.tolist(), tau.tolist(), omega.tolist()):
        k = t[ray]
        assert [k * v for v in ray] == [a + b for a, b in zip(before, after)]
        assert k == abs(wedge(before, after))


def test_removal_spectrum_is_one_merged_cone():
    # dropping any single ray leaves every other cone unimodular and one
    # merged cone carrying exactly the blowdown index
    for h in range(1, 7):
        t = blowdown_table(h)
        full = enumerate_rays(h)
        for ray in full:
            fan = complete_fan(set(full) - {ray})
            counts = Counter(fan.cone_indices.tolist())
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


def test_a_table_is_its_universe_plus_an_index_column():
    from randfan.blowdown import BlowdownTable

    # the rays are the universe's own, inherited, not forwarded
    assert issubclass(BlowdownTable, RayUniverse)
    assert not {"h", "coords", "__len__", "__contains__", "_universe"} & set(vars(BlowdownTable))
    u, t = enumerate_rays(3), blowdown_table(3)
    assert t.coords is u.coords and t.h == 3 and len(t) == t.n_rays == len(u)
    assert list(t) == list(u) and t.index_of((2, 1)) == u.index_of((2, 1))
    assert np.shares_memory(complete_fan(t).coords, u.coords)
    assert [t[r] for r in t] == t.k_values.tolist()


def _neighbours(h):
    """{ray: (predecessor, successor)} over the height-h universe."""
    c = enumerate_rays(h).coords.tolist()
    return dict(zip(map(tuple, c), zip(np.roll(c, 1, axis=0).tolist(), np.roll(c, -1, axis=0).tolist())))


def test_neighbors_march_along_lines_parallel_to_the_ray():
    # growing the height shifts each neighbor by a whole multiple of the ray
    for h, taller in [(1, 2), (1, 5), (2, 3), (3, 9), (5, 8)]:
        low, high = _neighbours(h), _neighbours(taller)
        for ray in enumerate_rays(h):
            x, y = ray
            for (ox, oy), (nx, ny) in zip(low[ray], high[ray]):
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
