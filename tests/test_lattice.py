"""Ray enumeration, exact angular order, and primitive-vector plumbing."""

import math
import tracemalloc
from functools import cmp_to_key

import numpy as np
import pytest

from randfan import lattice
from randfan.blowdown import blowdown_table
from randfan.errors import InvariantError, ValidationError
from randfan.lattice import (
    MAX_H,
    RayVec,
    angular_compare,
    enumerate_rays,
    is_primitive,
    sup_norm,
    wedge,
)
from randfan.cli import main

from oracles import (
    brute_rays, concat_unfold, division_blowdown, farey_pair_count_geq, first_octant, totients,
)

R1_ORDER = [(1, 0), (1, 1), (0, 1), (-1, 1), (-1, 0), (-1, -1), (0, -1), (1, -1)]


def test_primitivity_predicate():
    assert is_primitive(1, 0)
    assert is_primitive(0, -1)
    assert is_primitive(-3, 2)
    assert not is_primitive(0, 0)
    assert not is_primitive(2, 4)
    assert not is_primitive(0, 2)
    assert not is_primitive(-2, -2)


def test_rayvec_rejects_non_primitive():
    for bad in [(0, 0), (2, 4), (0, 2), (-6, -3)]:
        with pytest.raises(ValidationError):
            RayVec(*bad)


def test_rayvec_unpacks_like_a_pair():
    x, y = RayVec(3, -2)
    assert (x, y) == (3, -2)


def test_sup_norm_and_wedge_basics():
    assert sup_norm((3, -5)) == 5
    assert sup_norm(RayVec(1, 0)) == 1
    assert wedge((1, 0), (0, 1)) == 1
    assert wedge((0, 1), (1, 0)) == -1
    assert wedge((2, 1), (4, 2)) == 0
    assert wedge((5, 4), (4, 5)) == 9


def test_unit_universe_exact_order():
    assert [tuple(r) for r in enumerate_rays(1)] == R1_ORDER


@pytest.mark.parametrize("h", [1, 2, 3, 4, 5, 7, 12, 19, 30])
def test_enumeration_matches_brute_force(h):
    got = [tuple(map(int, r)) for r in enumerate_rays(h).coords]
    assert got == brute_rays(h)


def test_counts_match_totient_sums():
    # rays of sup-norm exactly m form 8 primitive boundary arcs: 8 * phi(m)
    phi = totients(300)
    acc = 0
    for h in range(1, 301):
        acc += 8 * phi[h]
        assert len(enumerate_rays(h)) == acc


def test_angular_compare_is_a_total_order():
    pts = brute_rays(3)
    shuffled = pts[::-1]
    assert sorted(shuffled, key=cmp_to_key(angular_compare)) == pts
    for u in pts[::5]:
        assert angular_compare(u, u) == 0
        for v in pts[::7]:
            assert angular_compare(u, v) == -angular_compare(v, u)


def test_angular_compare_distinct_rays_never_tie():
    pts = brute_rays(2)
    for i, u in enumerate(pts):
        for v in pts[i + 1:]:
            assert angular_compare(u, v) != 0


def test_angular_compare_accepts_rayvecs():
    assert angular_compare(RayVec(1, 0), RayVec(0, 1)) == -1
    assert angular_compare((0, 1), RayVec(1, 0)) == 1


def test_enumerate_rays_validation():
    enumerate_rays(np.int64(1))  # True must not hit this cache entry
    for bad in [0, -3, MAX_H + 1, True, "5"]:
        with pytest.raises(ValidationError):
            enumerate_rays(bad)
    with pytest.raises(ValidationError):
        enumerate_rays(2.5)


def test_enumerate_rays_caches_and_freezes():
    u = enumerate_rays(50)
    assert u is enumerate_rays(50)
    assert not u.coords.flags.writeable
    with pytest.raises(ValueError):
        u.coords[0, 0] = 99


def test_universe_membership_and_indexing():
    u = enumerate_rays(7)
    assert (7, -3) in u
    assert (8, 1) not in u
    assert (2, 4) not in u
    for i in range(len(u)):
        assert u.index_of(u[i]) == i
    with pytest.raises(ValidationError):
        u.index_of((8, 1))
    with pytest.raises(ValidationError):
        u.index_of((2, 4))
    # float coordinates are refused, never truncated onto a ray
    u3 = enumerate_rays(3)
    with pytest.raises(ValidationError):
        (1.5, 0) in u3
    with pytest.raises(ValidationError):
        u3.index_of((1.5, 0))


def test_universe_iteration_yields_rayvecs_in_order():
    u = enumerate_rays(2)
    rays = list(u)
    assert all(isinstance(r, RayVec) for r in rays)
    assert [tuple(r) for r in rays] == brute_rays(2)
    assert len(rays) == len(u) == u.n_rays == 16


def test_order_matches_float_angles_at_larger_height():
    # spot-check the exact order against atan2 well beyond the unfold seams
    u = enumerate_rays(101)
    c = u.coords
    ang = np.arctan2(c[:, 1], c[:, 0])
    ang = np.where(ang < 0, ang + 2 * np.pi, ang)
    assert bool((np.diff(ang) > 0).all())


def test_universes_are_nested_by_height():
    prev = {tuple(r) for r in enumerate_rays(1).coords}
    for h in range(2, 31):
        cur = {tuple(r) for r in enumerate_rays(h).coords}
        assert prev <= cur
        prev = cur


def test_quarter_turn_symmetry_and_count_divisibility():
    for h in [1, 2, 3, 7, 25, 64]:
        pts = {tuple(r) for r in enumerate_rays(h).coords}
        assert {(-y, x) for x, y in pts} == pts
        assert len(pts) % 4 == 0


def test_wedge_is_antisymmetric_and_vanishes_on_the_diagonal():
    rng = np.random.default_rng(7)
    pairs = rng.integers(-40, 41, size=(300, 4))
    for a, b, c, d in pairs.tolist():
        assert wedge((a, b), (c, d)) == -wedge((c, d), (a, b))
        assert wedge((a, b), (a, b)) == 0


def test_sup_norm_is_symmetric_in_sign():
    assert sup_norm((-7, 7)) == 7
    assert sup_norm((7, -7)) == 7
    assert sup_norm((0, -9)) == 9


def test_angular_compare_spot_values():
    # (0,1) sits a quarter turn before (-1,0); (1,-1) is in the last octant
    assert angular_compare((0, 1), (-1, 0)) == -1
    assert angular_compare((1, -1), (1, 0)) == 1
    assert angular_compare((1, 0), (1, -1)) == -1


def test_angular_compare_agrees_with_atan2_on_random_pairs():
    rng = np.random.default_rng(20260816)
    raw = rng.integers(-50, 51, size=(300_000, 4))
    checked = 0
    for a, b, c, d in raw.tolist():
        if not (is_primitive(a, b) and is_primitive(c, d)):
            continue
        if (a, b) == (c, d):
            continue
        got = angular_compare((a, b), (c, d))
        lhs = math.atan2(b, a) % (2 * math.pi)
        rhs = math.atan2(d, c) % (2 * math.pi)
        assert got == (-1 if lhs < rhs else 1)
        checked += 1
    assert checked > 100_000


def _walk_matches_oracles(h):
    octant = lattice._farey_walk(h)
    want = first_octant(h)
    assert np.array_equal(octant, want), h
    circle = lattice._unfold_full_circle(octant)
    assert np.array_equal(circle, concat_unfold(want)), h
    assert np.array_equal(blowdown_table(h).k_values, division_blowdown(circle)), h


def test_lane_walk_matches_mediant_walk_below_the_lane_count():
    # every h here has min(1024, h) = h lanes, one lane per slice [i/h, (i+1)/h)
    for h in range(1, 301):
        _walk_matches_oracles(h)


@pytest.mark.parametrize("h", [500, 1000, 1023, 1024, 1025, 2000])
def test_lane_walk_matches_mediant_walk(h):
    _walk_matches_oracles(h)


def test_walk_endpoints_and_lane_seeds():
    for h in [1, 2, 3]:
        octant = lattice._farey_walk(h)
        k = blowdown_table(h).k_values
        assert tuple(octant[0]) == (1, 0) and k[0] == 2 * h
        assert tuple(octant[-1]) == (1, 1) and k[len(octant) - 1] == 2 * h - 1
    assert blowdown_table(2).k_values[:3].tolist() == [4, 1, 3]


def _fresh_height():
    lattice.enumerate_rays.cache_clear()


@pytest.mark.parametrize("available", [10**6, 64 * 2**30])
def test_memory_guard_refuses_before_allocating(monkeypatch, available):
    # the estimate is checked before the walk allocates; never test it by allocating
    monkeypatch.setattr(lattice, "_mem_available", lambda: available)
    _fresh_height()
    try:
        h = 500 if available < 2**30 else MAX_H
        with pytest.raises(ValidationError, match=f"height {h} needs about"):
            enumerate_rays(h)
        assert lattice.enumerate_rays.cache_info().currsize == 0
    finally:
        _fresh_height()


def test_memory_guard_is_an_exit_1_on_the_command_line(monkeypatch, capsys):
    monkeypatch.setattr(lattice, "_mem_available", lambda: 10**6)
    _fresh_height()
    try:
        assert main(["rays", "--h", "300"]) == 1
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("error: height 300 needs about")
    finally:
        _fresh_height()


def test_memory_guard_passes_what_fits_and_skips_without_meminfo(monkeypatch):
    available = lattice._mem_available()
    assert available is None or available > 0
    for available in [2**30, None]:  # None: /proc/meminfo could not be read
        monkeypatch.setattr(lattice, "_mem_available", lambda: available)
        _fresh_height()
        try:
            assert len(enumerate_rays(300)) == 8 * (len(first_octant(300)) - 1)
        finally:
            _fresh_height()


def _traced_peak(build) -> int:
    tracemalloc.start()
    try:
        build()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("h", [300, 1000])
def test_memory_estimate_bounds_the_traced_peak_of_a_cold_build(h):
    # every byte numpy and Python allocate while building, counted by tracemalloc
    def cold():
        enumerate_rays.cache_clear()
        blowdown_table.cache_clear()

    cold()
    try:
        assert _traced_peak(lambda: enumerate_rays(h)) <= lattice._universe_bytes((h,))
        cold()
        assert _traced_peak(lambda: blowdown_table(h)) <= lattice._universe_bytes((h,), table=True)
    finally:
        cold()


@pytest.mark.parametrize("h", [1, 7, 300, 1000])
def test_universe_holds_two_int32_per_ray(h):
    c = enumerate_rays(h).coords
    assert c.dtype == np.int32 and c.shape == (lattice.count_geq(h, 1), 2)
    assert c.nbytes == 8 * lattice.count_geq(h, 1)


@pytest.mark.parametrize("command", ["blowdown", "space"])
def test_table_memory_is_checked_before_the_universe_is_built(monkeypatch, capsys, command):
    # the universe alone fits, the universe with its index column does not
    h = 300
    assert lattice._universe_bytes((h,), table=True) > lattice._universe_bytes((h,))
    monkeypatch.setattr(lattice, "_mem_available", lambda: 2 * lattice._universe_bytes((h,)))
    _fresh_height()
    blowdown_table.cache_clear()
    try:
        assert main([command, "--h", str(h)]) == 1
        out, err = capsys.readouterr()
        assert out == "" and err.startswith(f"error: height {h} needs about")
        assert "to build the blowdown table" in err
        assert lattice.enumerate_rays.cache_info().currsize == 0
        assert main(["rays", "--h", str(h)]) == 0
    finally:
        _fresh_height()


def test_cache_clear_drops_the_walk_with_the_universe(monkeypatch):
    # one cache per height: clearing enumerate_rays must also forget the walk
    walks = []
    walk = lattice._farey_walk

    def counting_walk(h):
        walks.append(h)
        return walk(h)

    monkeypatch.setattr(lattice, "_farey_walk", counting_walk)
    _fresh_height()
    try:
        first = enumerate_rays(300)
        assert enumerate_rays(300) is first and walks == [300]
        enumerate_rays.cache_clear()
        again = enumerate_rays(300)
        assert walks == [300, 300]
        assert np.array_equal(again.coords, first.coords)
    finally:
        _fresh_height()


def test_count_geq_matches_the_farey_pair_oracle():
    for h in range(1, 61):
        for k in range(1, 10):
            assert lattice.count_geq(h, k) == farey_pair_count_geq(h, k), (h, k)


def _count_matches_table(h):
    k_values = blowdown_table(h).k_values
    for k in range(1, 10):
        assert lattice.count_geq(h, k) == np.count_nonzero(k_values >= k), (h, k)


def test_count_geq_matches_the_table_up_to_300():
    for h in range(1, 301):
        _count_matches_table(h)


@pytest.mark.parametrize("h", [500, 1000, 1023, 2000])
def test_count_geq_matches_the_table(h):
    _count_matches_table(h)


def test_count_geq_edges_and_validation():
    assert lattice.count_geq(2000, 1) == 9_732_704
    assert lattice.count_geq(5, 10) == 4  # the axes
    assert lattice.count_geq(5, 9) == 8  # and the diagonals
    assert lattice.count_geq(5, 11) == lattice.count_geq(5, 10**30) == 0
    for h, k in [(0, 1), (MAX_H + 1, 1), (True, 1), (5.0, 1), (5, 0), (5, None)]:
        with pytest.raises(ValidationError):
            lattice.count_geq(h, k)


def test_memory_guard_counts_the_rays_it_would_enumerate(monkeypatch):
    # the estimate is exact in the ray count: 8 B (two int32) per ray of the universe
    counted = []
    count = lattice.count_geq

    def counting(h, k):
        counted.append((h, k))
        return count(h, k)

    monkeypatch.setattr(lattice, "count_geq", counting)
    walk = lattice._universe_bytes([2000]) - 8 * count(2000, 1)
    assert counted == [(2000, 1)]
    assert lattice._universe_bytes([2000, 1000]) == walk + 8 * (count(2000, 1) + count(1000, 1))


def test_walk_overrun_names_a_live_lane_its_step_and_last_ray(monkeypatch):
    # lane 0 of h = 50 stops after (1, 0); lane 1 walks (50, 1), (49, 1), ...
    monkeypatch.setattr(lattice, "_lane_rows", lambda h, lanes: 2)
    with pytest.raises(InvariantError) as info:
        lattice._farey_walk(50)
    assert str(info.value) == (
        "height 50: the octant walk overran its 2 rows per lane; lane 1 is still live "
        "after step 1, where it wrote the ray (49, 1)"
    )
