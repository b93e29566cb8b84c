"""Acceptance gate: the headline guarantees, each with its stated budget.

Every test prints one `[acceptance] ... PASS/FAIL` line (visible with -s or
in captured output) and is named after its criterion, so a plain `pytest -v`
run also yields one pass/fail line per criterion.  Tolerances and time
budgets are asserted, not aspirational; timed criteria clear the library
caches first so they measure cold-path work.
"""

import json
import math
import random
import time
from contextlib import contextmanager
from fractions import Fraction

import numpy as np

import randfan as rf
from randfan.blowdown import blowdown_table
from randfan.lattice import enumerate_rays

from oracles import cone_rays, naive_completion

SEED = 20260816


@contextmanager
def criterion(name):
    try:
        yield
    except BaseException:
        print(f"[acceptance] {name}: FAIL", flush=True)
        raise
    print(f"[acceptance] {name}: PASS", flush=True)


def _cold_caches():
    enumerate_rays.cache_clear()
    blowdown_table.cache_clear()


def test_c01_full_fans_smooth_up_to_200_in_30s():
    with criterion("C01 full fans h=1..200 all smooth, < 30 s"):
        _cold_caches()
        t0 = time.perf_counter()
        for h in range(1, 201):
            fan = rf.complete_fan(enumerate_rays(h))
            assert fan.n_cones == fan.n_rays
            assert rf.is_smooth(fan), h
        elapsed = time.perf_counter() - t0
        assert elapsed < 30.0, elapsed


def test_c02_ray_count_density_at_2000_in_10s():
    with criterion("C02 ray count at h=2000 near asymptotic density, < 10 s"):
        _cold_caches()
        t0 = time.perf_counter()
        n = len(enumerate_rays(2000))
        elapsed = time.perf_counter() - t0
        assert n == 9732704
        assert 2.38 <= n / 2000**2 <= 2.48
        assert elapsed < 10.0, elapsed


def test_c03_first_quadrant_indices_at_5_match_reference_shells():
    with criterion("C03 first-quadrant blowdown indices at h=5, exact reference values"):
        expected = {}
        for pt in [(1, 5), (2, 5), (3, 5), (4, 5), (5, 4), (5, 3), (5, 2), (5, 1)]:
            expected[pt] = 1
        for pt in [(1, 4), (3, 4), (4, 3), (4, 1)]:
            expected[pt] = 2
        for pt in [(1, 3), (2, 3), (3, 2), (3, 1)]:
            expected[pt] = 3
        for pt in [(1, 2), (2, 1)]:
            expected[pt] = 5
        expected[(1, 1)] = 9
        expected[(1, 0)] = 10
        expected[(0, 1)] = 10

        rows = rf.space_report(5)
        assert len(rows) == 21
        assert {(r["x"], r["y"]): r["k"] for r in rows} == expected


def test_c04_ratio_tables_match_reference_rows_in_60s():
    with criterion("C04 index ratios at h=500/1000 match reference rows, < 60 s"):
        reference = {
            500: [0.6666, 0.3334, 0.2000, 0.1334, 0.0952, 0.0714],
            1000: [0.6667, 0.3333, 0.2000, 0.1333, 0.0953, 0.0714],
        }
        _cold_caches()
        t0 = time.perf_counter()
        for h, row in reference.items():
            table = blowdown_table(h)
            for k, want in zip(range(2, 8), row):
                got = float(table.ratio_geq(k))
                assert abs(got - want) <= 0.002, (h, k, got, want)
        table = blowdown_table(1000)
        for k in range(2, 8):
            limit = float(rf.conjectured_ratio(k))
            assert abs(float(table.ratio_geq(k)) - limit) <= 0.001, k
        elapsed = time.perf_counter() - t0
        assert elapsed < 60.0, elapsed


def test_c05_blowdown_index_identities_everywhere_up_to_200():
    with criterion("C05 neighbor-sum and wedge identities for all rays, h <= 200"):
        for h in range(1, 201):
            c = enumerate_rays(h).coords
            k = blowdown_table(h).k_values
            tau = np.roll(c, 1, axis=0)
            omega = np.roll(c, -1, axis=0)
            assert bool((k[:, None] * c == tau + omega).all()), h
            cross = np.abs(tau[:, 0] * omega[:, 1] - tau[:, 1] * omega[:, 0])
            assert bool((cross == k).all()), h


def test_c06_norm_bands_contain_every_ray():
    with criterion("C06 norm bands at h=100 and h=500"):
        for h in (100, 500):
            table = blowdown_table(h)
            eps = table.epsilon
            c, kv = table.coords, table.k_values
            norms = np.maximum(np.abs(c[:, 0]), np.abs(c[:, 1]))
            assert bool((kv * norms <= 2 * h).all()), h
            lower = (2.0 - eps) / (kv.astype(np.float64) + 2.0) * h
            assert bool((norms.astype(np.float64) >= lower - 1.0).all()), h


def test_c07_threshold_transition_at_h60_in_120s():
    with criterion("C07 smooth/singular transition at h=60, 200 trials each"):
        t0 = time.perf_counter()
        h = 60
        spec = rf.ExperimentSpec(
            h_values=[h, h], q_schedule=[h**-3, h**-1],
            regime="q-small", trials=200, master_seed=SEED,
        )
        sparse_drop, heavy_drop = rf.run_threshold_sweep(spec)
        assert sparse_drop.frac_smooth >= 0.95, sparse_drop.frac_smooth
        assert heavy_drop.frac_singular >= 0.95, heavy_drop.frac_singular

        spec_large = rf.ExperimentSpec(
            h_values=[h], q_schedule=[h**-3],
            regime="q-large", trials=200, master_seed=SEED,
        )
        almost_all_dropped = rf.run_threshold_sweep(spec_large)[0]
        assert almost_all_dropped.frac_smooth >= 0.95, almost_all_dropped.frac_smooth
        elapsed = time.perf_counter() - t0
        assert elapsed < 120.0, elapsed


def test_c08_density_at_even_odds_stays_positive_in_60s():
    with criterion("C08 index>=2 cone density exceeds 0.01 at h=60, q=0.5"):
        t0 = time.perf_counter()
        spec = rf.ExperimentSpec(
            h_values=[60], q_schedule=[0.5], regime="q-small",
            trials=200, k_list=[2], c_density=0.01, master_seed=SEED,
        )
        row = rf.run_density_sweep(spec)[0]
        assert row.frac_delta_above_c[2] >= 0.95, row.frac_delta_above_c
        elapsed = time.perf_counter() - t0
        assert elapsed < 60.0, elapsed


def test_c09_completeness_probability_limit_at_h100():
    with criterion("C09 exact vs limit completeness probability at h=100"):
        n = len(enumerate_rays(100))
        for c in (0.1, 1.0, 10.0):
            exact, approx = rf.prob_complete(100, c / n)
            assert abs(exact - approx) / exact < 1e-2, c


def test_c10_completion_agrees_with_float_oracle_at_small_heights():
    with criterion("C10 completion matches float-angle oracle, h <= 2"):
        def check(rays):
            fan = rf.complete_fan(rays)
            pts, cones, indices = naive_completion(rays)
            assert [tuple(map(int, r)) for r in fan.coords] == pts
            assert cone_rays(fan) == cones
            assert list(map(int, fan.cone_indices)) == indices

        r1 = [tuple(r) for r in enumerate_rays(1)]
        for mask in range(1 << 8):
            check([r1[i] for i in range(8) if mask >> i & 1])

        r2 = [tuple(r) for r in enumerate_rays(2)]
        for size in (0, 1, 2, 3):
            if size == 0:
                check([])
                continue
            from itertools import combinations
            for combo in combinations(range(16), size):
                check([r2[i] for i in combo])

        rng = random.Random(SEED)
        for _ in range(500):
            mask = rng.getrandbits(16)
            check([r2[i] for i in range(16) if mask >> i & 1])


def test_c11_sweeps_are_byte_identical_across_runs_and_workers(tmp_path):
    with criterion("C11 sweep output byte-identical across runs and workers"):
        spec = rf.ExperimentSpec(
            h_values=[30, 40], q_schedule=rf.PowerSchedule(1.0, 2.0),
            regime="q-small", trials=50, k_list=[2, 3],
            c_density=0.01, master_seed=SEED,
        )
        cols = rf.sweep_columns(spec.k_list)
        paths = []
        for run, workers in enumerate((1, 3)):
            rows = rf.run_threshold_sweep(spec, workers=workers)
            path = tmp_path / f"sweep{run}.csv"
            rf.emit(rf.sweep_rows_as_dicts(rows, spec.k_list), "csv", path, columns=cols)
            paths.append(path)
        assert paths[0].read_bytes() == paths[1].read_bytes()

        dens_a = rf.run_density_sweep(spec, workers=1)
        dens_b = rf.run_density_sweep(spec, workers=2)
        assert dens_a == dens_b
