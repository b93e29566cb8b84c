"""Sweep machinery: specs, trials, aggregation, deterministic emission."""

import dataclasses
import json
import math
import os
import threading
import time
import tracemalloc
import weakref
from fractions import Fraction

import numpy as np
import pytest

from randfan import blowdown, counting, emission, experiments, lattice
from randfan.blowdown import BLOWDOWN_COLUMNS, SPACE_COLUMNS, blowdown_array, blowdown_table, space_report
from randfan.counting import RATIO_COLUMNS, conjecture_report, conjectured_ratio
from randfan.emission import emit, render
from randfan.errors import ValidationError
from randfan.experiments import (
    ExperimentSpec,
    PowerSchedule,
    run_density_sweep,
    run_threshold_sweep,
    spec_from_dict,
    spec_from_file,
    sweep_columns,
    sweep_rows_as_dicts,
    wilson_interval,
)
from randfan.sampling import SampleConfig, prob_complete, sample_fan

from oracles import TrialRecord, block_trial


def _spec(**overrides):
    base = dict(h_values=[6], q_schedule=[0.5], trials=10, master_seed=7)
    base.update(overrides)
    return ExperimentSpec(**base)


def test_spec_validation_rejects_bad_fields():
    bad = [
        dict(h_values=[]),
        dict(h_values=[0]),
        dict(h_values=[3.5]),
        dict(q_schedule=[0.1, 0.2]),  # length mismatch with one height
        dict(q_schedule=[-0.1]),
        dict(q_schedule=[float("inf")]),
        dict(regime="tiny-q"),
        dict(trials=0),
        dict(k_list=[]),
        dict(k_list=[0]),
        dict(k_list=[2, 3, 2]),  # each k names two columns, which may not repeat
        dict(c_density=0.0),
        dict(c_density=1.0),
        dict(master_seed=-1),
        dict(master_seed=2**64),
        dict(output={"path": "x.csv"}),
        dict(output={"path": "x.csv", "format": "xml"}),
        dict(output={"path": "x.csv", "format": "csv", "extra": 1}),
        dict(h_values=[True]),
        dict(trials=True),
        dict(k_list=[True]),
        dict(master_seed=True),
        dict(q_schedule=[True]),
        dict(q_schedule=["0.5"]),
    ]
    for overrides in bad:
        with pytest.raises(ValidationError):
            _spec(**overrides)


def test_spec_fields_cannot_be_reassigned():
    spec = _spec()
    with pytest.raises(dataclasses.FrozenInstanceError):
        spec.trials = True
    assert spec.trials == 10


def test_power_schedule_validation():
    with pytest.raises(ValidationError):
        _spec(q_schedule=PowerSchedule(0.0, 1.0))
    with pytest.raises(ValidationError):
        _spec(q_schedule=PowerSchedule(-2.0, 1.0))
    with pytest.raises(ValidationError):
        _spec(q_schedule=PowerSchedule(1.0, float("inf")))


def test_q_values_power_law_and_regimes():
    spec = ExperimentSpec(h_values=[10, 100], q_schedule=PowerSchedule(1.0, 1.0),
                          trials=1, master_seed=0)
    assert spec.q_values() == pytest.approx([0.1, 0.01])
    spec = ExperimentSpec(h_values=[10, 100], q_schedule=PowerSchedule(1.0, 1.0),
                          regime="q-large", trials=1, master_seed=0)
    assert spec.q_values() == pytest.approx([0.9, 0.99])


def test_power_schedule_decides_overflowing_powers_in_logs():
    # where h**-alpha is finite the value is the plain float expression
    for c, alpha, h in [(1.0, 3.0, 60), (0.7, -2.5, 9), (5e-324, -300.0, 10), (2.0, 1.5, 1000)]:
        assert PowerSchedule(c, alpha).value(h) == min(1.0, c * float(h) ** -alpha)
    # past the float range: clamped when log c - alpha log h >= 0 ...
    assert PowerSchedule(1.0, -1000.0).value(10) == 1.0
    assert PowerSchedule(5e-324, -1000.0).value(10) == 1.0
    # ... and exp of that sum when it is negative: c = 5e-324 against 10**310
    q = PowerSchedule(5e-324, -310.0).value(10)
    assert q == pytest.approx(math.exp(math.log(5e-324) + 310 * math.log(10)), rel=1e-12)
    assert 0.0 < q < 1e-13


def test_q_values_clamp_to_unit_interval():
    spec = ExperimentSpec(h_values=[2], q_schedule=PowerSchedule(5.0, 1.0),
                          trials=1, master_seed=0)
    assert spec.q_values() == [1.0]
    spec = ExperimentSpec(h_values=[3], q_schedule=[2.0], regime="q-large",
                          trials=1, master_seed=0)
    assert spec.q_values() == [0.0]


def test_spec_from_dict_round_trip():
    doc = {
        "h_values": [5, 10],
        "q_schedule": {"c": 2.0, "alpha": 1.5},
        "regime": "q-large",
        "trials": 7,
        "k_list": [2, 4],
        "c_density": 0.02,
        "master_seed": 99,
        "output": {"path": "out.csv", "format": "csv"},
    }
    spec = spec_from_dict(doc)
    assert spec.h_values == [5, 10]
    assert spec.q_schedule == PowerSchedule(2.0, 1.5)
    assert spec.regime == "q-large"
    assert spec.trials == 7
    assert spec.k_list == [2, 4]
    assert spec.c_density == 0.02
    assert spec.master_seed == 99
    assert spec.output == {"path": "out.csv", "format": "csv"}

    explicit = spec_from_dict({"h_values": [4], "q_schedule": [0.25]})
    assert explicit.q_schedule == [0.25]
    assert explicit.trials == 200  # default


def test_spec_from_dict_rejects_malformed_documents():
    good = {"h_values": [4], "q_schedule": [0.25]}
    with pytest.raises(ValidationError):
        spec_from_dict([good])
    with pytest.raises(ValidationError):
        spec_from_dict({**good, "surprise": 1})
    with pytest.raises(ValidationError):
        spec_from_dict({"h_values": [4]})
    with pytest.raises(ValidationError):
        spec_from_dict({**good, "q_schedule": {"c": 1.0}})
    with pytest.raises(ValidationError):
        spec_from_dict({**good, "q_schedule": {"c": 1.0, "alpha": 1.0, "z": 0}})
    with pytest.raises(ValidationError):
        spec_from_dict({**good, "q_schedule": "power"})
    # numbers are never coerced: no int()/float() of strings, floats or bools
    for overrides in [
        {"h_values": [1.5]},
        {"h_values": ["6"]},
        {"h_values": 6},
        {"h_values": [None]},
        {"q_schedule": [None]},
        {"q_schedule": {"c": "2", "alpha": 1}},
        {"q_schedule": {"c": "x", "alpha": 1}},
        {"k_list": 2},
        {"output": {"path": 5, "format": "csv"}},
    ]:
        with pytest.raises(ValidationError):
            spec_from_dict({**good, **overrides})


def test_spec_from_file(tmp_path):
    path = tmp_path / "spec.json"
    path.write_text(json.dumps({"h_values": [6], "q_schedule": [0.1], "trials": 3}))
    spec = spec_from_file(path)
    assert spec.h_values == [6] and spec.trials == 3

    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(ValidationError):
        spec_from_file(bad)
    with pytest.raises(OSError):
        spec_from_file(tmp_path / "missing.json")


def test_one_row_block_matches_direct_sampling():
    rec = block_trial(5, 0.5, 1, 0, [2])
    fan = sample_fan(SampleConfig(h=5, p=0.5, master_seed=1, trial_index=0))
    assert rec.n_rays_drawn == fan.n_rays
    assert rec.n_cones == fan.n_cones
    assert rec.smooth == (rec.max_index <= 1)
    # frozen regression values for this seed
    assert rec.n_rays_drawn == 47
    assert rec.max_index == 13
    assert rec.delta_k == {2: Fraction(9, 47)}


def test_trial_record_consistency_is_enforced():
    with pytest.raises(ValidationError):
        TrialRecord(h=1, q=0.0, trial_index=0, n_rays_drawn=8, n_cones=8,
                    smooth=True, max_index=5, delta_k={})


def test_degenerate_trial_has_no_cones_and_null_density():
    rec = block_trial(3, 1.0, 0, 0, [2])
    assert rec.n_rays_drawn == 0
    assert rec.n_cones == 0
    assert rec.max_index == 0
    assert rec.smooth
    assert rec.delta_k == {2: None}


def test_wilson_interval_against_quadratic_roots():
    # endpoints solve (1 + z^2/n) p^2 - (2 phat + z^2/n) p + phat^2 = 0
    z = 2.5758293035489004
    for s, n in [(0, 20), (20, 20), (191, 200), (1, 7), (13, 50)]:
        phat = s / n
        lo, hi = wilson_interval(s, n)
        roots = sorted(np.roots([1 + z * z / n, -(2 * phat + z * z / n), phat * phat]).real)
        assert lo == pytest.approx(roots[0], abs=1e-12)
        assert hi == pytest.approx(roots[1], abs=1e-12)


def test_wilson_interval_properties():
    lo, hi = wilson_interval(190, 200)
    assert 0.0 <= lo <= 190 / 200 <= hi <= 1.0
    assert wilson_interval(0, 10)[0] == 0.0
    assert wilson_interval(10, 10)[1] == 1.0
    # symmetry: flipping successes mirrors the interval
    lo2, hi2 = wilson_interval(10, 200)
    flip_lo, flip_hi = wilson_interval(190, 200)
    assert lo2 == pytest.approx(1.0 - flip_hi)
    assert hi2 == pytest.approx(1.0 - flip_lo)
    with pytest.raises(ValidationError):
        wilson_interval(5, 0)
    with pytest.raises(ValidationError):
        wilson_interval(7, 5)


def test_aggregation_matches_manual_recount():
    spec = ExperimentSpec(h_values=[6], q_schedule=[0.6], trials=40,
                          k_list=[2, 5], c_density=0.05, master_seed=11)
    row = run_density_sweep(spec)[0]
    records = [block_trial(6, 0.6, 11, t, [2, 5]) for t in range(40)]

    n_smooth = sum(1 for r in records if r.smooth)
    assert row.trials == 40
    assert row.frac_smooth == n_smooth / 40
    assert row.frac_singular == pytest.approx(1.0 - n_smooth / 40)
    assert row.frac_smooth + row.frac_singular == pytest.approx(1.0)
    assert row.n_no_cones == sum(1 for r in records if r.n_cones == 0)

    by_max = sorted(r.max_index for r in records)
    assert row.max_index_p50 == by_max[math.ceil(0.5 * 40) - 1]
    assert row.max_index_p90 == by_max[math.ceil(0.9 * 40) - 1]

    lo, hi = wilson_interval(n_smooth, 40)
    assert (row.wilson_ci_low, row.wilson_ci_high) == (lo, hi)
    assert lo <= row.frac_smooth <= hi

    for k in (2, 5):
        defined = [r.delta_k[k] for r in records if r.delta_k[k] is not None]
        assert row.mean_delta[k] == pytest.approx(float(sum(defined) / len(defined)))
        above = sum(1 for r in records
                    if r.delta_k[k] is not None and r.delta_k[k] > 0.05)
        assert row.frac_delta_above_c[k] == above / 40


def test_sweep_rows_follow_grid_order():
    spec = ExperimentSpec(h_values=[4, 8], q_schedule=[0.2, 0.3], trials=5, master_seed=2)
    rows = run_threshold_sweep(spec)
    assert [(r.h, r.q) for r in rows] == [(4, 0.2), (8, 0.3)]


def test_worker_count_does_not_change_results():
    spec = ExperimentSpec(h_values=[12, 20], q_schedule=PowerSchedule(1.0, 2.0),
                          trials=30, k_list=[2], master_seed=31)
    serial = run_threshold_sweep(spec, workers=1)
    threaded = run_threshold_sweep(spec, workers=4)
    assert serial == threaded


def test_threaded_sweep_builds_the_universe_once(monkeypatch):
    # pool threads that all miss the universe cache would each walk the octant
    walks = []
    walk = lattice._farey_walk

    def counting_walk(h):
        walks.append(h)
        return walk(h)

    monkeypatch.setattr(lattice, "_farey_walk", counting_walk)
    lattice.enumerate_rays.cache_clear()
    run_threshold_sweep(_spec(h_values=[300], q_schedule=[0.5], trials=4), workers=2)
    assert walks == [300]


def test_sweep_checks_the_memory_of_all_its_heights_together(monkeypatch):
    # the sweep holds every distinct height's octant at once: room for the
    # sweep of each height alone is not room for the spec
    heights = [800, 801, 802, 803]
    alone = [experiments._sweep_plan(_spec(h_values=[h], q_schedule=[0.5], trials=1), 1)[3] for h in heights]
    available = 2 * max(alone)
    monkeypatch.setattr(counting, "_mem_available", lambda: available)
    for h, need in zip(heights, alone):
        counting._check_bytes(need, f"height {h} needs", "to run the sweep")
    walks = []
    monkeypatch.setattr(lattice, "_farey_walk", walks.append)
    lattice.enumerate_rays.cache_clear()
    spec = _spec(h_values=heights + heights[:1], q_schedule=[0.5] * 5, trials=1)
    with pytest.raises(ValidationError, match="^heights 800, 801, 802, 803 need about"):
        run_threshold_sweep(spec)
    assert walks == []


@pytest.mark.parametrize("workers", [1, 2])
def test_sweep_memory_estimate_bounds_the_traced_peak_of_a_cold_dense_sweep(workers):
    # a dropped run at about every fourth ray of 2.43M, one trial per block
    spec = _spec(h_values=[1000], q_schedule=[0.5], trials=4)
    lattice.enumerate_rays.cache_clear()
    tracemalloc.start()
    try:
        run_threshold_sweep(spec, workers=workers)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
        lattice.enumerate_rays.cache_clear()
    assert peak <= experiments._sweep_plan(spec, workers)[3]


@pytest.mark.parametrize("workers", [1, 2])
def test_sweep_memory_estimate_bounds_the_traced_peak_of_a_cold_grid(workers):
    # one draw a trial feeds a bin at h = 40 and two streamed rows, and the
    # thread keeps each cell's bin or run buffers from trial to trial
    spec = _spec(h_values=[40, 300, 1000], q_schedule=[0.5, 0.5, 0.5], trials=3)
    lattice.enumerate_rays.cache_clear()
    tracemalloc.start()
    try:
        run_threshold_sweep(spec, workers=workers)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
        lattice.enumerate_rays.cache_clear()
    assert peak <= experiments._sweep_plan(spec, workers)[3]


def test_sweep_memory_per_thread_does_not_grow_with_the_height():
    # past _BLOCK_RAYS rays a row is streamed through one window, so a
    # thread's bytes are the same at every such height
    def per_thread(h):
        spec = _spec(h_values=[h], q_schedule=[0.5], trials=2)
        return experiments._sweep_plan(spec, 2)[3] - experiments._sweep_plan(spec, 1)[3]

    assert per_thread(300) == per_thread(1000) == per_thread(2000) < 3 * 2**20


def test_sparse_sweep_at_height_1000_is_checked_at_under_20_mib():
    # the octant's 8 B per ray of 304,192, not the circle's 2,433,536
    spec = _spec(h_values=[1000], q_schedule=[1e-4], trials=40)
    assert experiments._sweep_plan(spec, 2)[3] < 20 * 2**20


def test_sweep_of_cells_that_keep_every_ray_builds_no_ray(monkeypatch):
    # a cell at q = 0 reads no word and gets the full fan's counts from n
    # alone: no walk, and no thread buffer in the memory check
    def refuse(h):
        raise AssertionError(f"the walk of height {h} ran")

    monkeypatch.setattr(lattice, "_farey_walk", refuse)
    lattice.enumerate_rays.cache_clear()
    spec = _spec(h_values=[300, 2000, 300], q_schedule=[0.0, 0.0, 0.0], trials=4, k_list=[1, 2])
    assert experiments._sweep_plan(spec, 2)[3] == 16 * (3 + 2) * 4 * 3
    rows = run_threshold_sweep(spec, workers=2)
    for row in rows:
        assert (row.frac_smooth, row.n_no_cones, row.max_index_p90) == (1.0, 0, 1)
        assert row.mean_delta == {1: 1.0, 2: 0.0}
    # a drawing cell at another height sizes only its own lanes and rays
    mixed = _spec(h_values=[300, 40], q_schedule=[0.0, 0.5], trials=4)
    alone = _spec(h_values=[40], q_schedule=[0.5], trials=4)
    counts = 16 * (3 + 1) * 4
    assert experiments._sweep_plan(mixed, 2)[3] - counts == experiments._sweep_plan(alone, 2)[3]


def test_sweep_of_cells_that_drop_every_ray_builds_no_ray(monkeypatch):
    # a cell at q = 1 reads no word and gets the empty draw's counts: no
    # walk, and no thread buffer in the memory check
    walk = lattice._farey_walk

    def refuse(h):
        raise AssertionError(f"the walk of height {h} ran")

    monkeypatch.setattr(lattice, "_farey_walk", refuse)
    lattice.enumerate_rays.cache_clear()
    spec = _spec(h_values=[300, 2000, 300], q_schedule=[1.0, 1.0, 1.0], trials=4, k_list=[1, 2])
    assert experiments._sweep_plan(spec, 2)[3] == 16 * (3 + 2) * 4 * 3
    for row in run_threshold_sweep(spec, workers=2):
        assert (row.frac_smooth, row.n_no_cones, row.max_index_p50, row.max_index_p90) == (1.0, 4, 0, 0)
        assert row.mean_delta == {1: None, 2: None} and row.frac_delta_above_c == {1: 0.0, 2: 0.0}
    # the rows the words give, when every one is read and compared
    monkeypatch.setattr(lattice, "_farey_walk", walk)
    small = _spec(h_values=[40, 300], q_schedule=[1.0, 1.0], trials=3, k_list=[1, 2])
    skipped = run_threshold_sweep(small)
    monkeypatch.setattr(experiments, "_decided", lambda threshold: None)
    assert run_threshold_sweep(small) == skipped


def test_sweep_memory_check_counts_the_blocks_of_every_thread(monkeypatch):
    # room for the universe and one thread's blocks is not room for two threads
    spec = _spec(h_values=[300], q_schedule=[0.5], trials=4)
    one, two = (experiments._sweep_plan(spec, w)[3] for w in (1, 2))
    assert one < two and experiments._sweep_plan(spec, 64)[2:] == experiments._sweep_plan(spec, 4)[2:]  # 4 blocks
    monkeypatch.setattr(counting, "_mem_available", lambda: 2 * one)
    walks = []
    monkeypatch.setattr(lattice, "_farey_walk", walks.append)
    lattice.enumerate_rays.cache_clear()
    with pytest.raises(ValidationError, match=rf"^height 300 needs about {two / 2**20:.0f} MiB to run the sweep"):
        run_threshold_sweep(spec, workers=2)
    assert walks == []
    monkeypatch.undo()
    lattice.enumerate_rays.cache_clear()
    monkeypatch.setattr(counting, "_mem_available", lambda: 2 * one)
    assert len(run_threshold_sweep(spec, workers=1)) == 1


@pytest.mark.parametrize("h", [6, 170])  # one window per trial, and two
def test_a_window_of_words_is_freed_before_the_next_is_drawn(monkeypatch, h):
    # _THREAD_BYTES holds one window of raw words per thread, not two
    draw, held, last = experiments._trial_words, [], lambda: None

    def watched(*args):
        nonlocal last
        windows = draw(*args)
        while True:
            held.append(last() is not None)  # the window drawn before is still alive
            words = next(windows, None)
            if words is None:
                return
            last = weakref.ref(words)
            yield words
            del words

    monkeypatch.setattr(experiments, "_trial_words", watched)
    run_threshold_sweep(_spec(h_values=[h], q_schedule=[0.5], trials=3))
    assert held == [False] * 3 * -(-lattice.count_geq(h, 1) // experiments._BLOCK_RAYS)


@pytest.mark.parametrize("workers", [1, 2])
def test_sweep_memory_estimate_bounds_the_traced_peak_of_many_one_trial_blocks(workers):
    # at h = 170 (70,000 rays) every trial is a block of its own: what the
    # sweep keeps per block must be within the plan's bytes per trial
    spec = _spec(h_values=[170], q_schedule=[0.5], trials=2500)
    lattice.enumerate_rays.cache_clear()
    tracemalloc.start()
    try:
        run_threshold_sweep(spec, workers=workers)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
        lattice.enumerate_rays.cache_clear()
    assert peak <= experiments._sweep_plan(spec, workers)[3]


def test_sweep_of_more_trials_than_fit_is_refused_before_its_blocks_are_made(monkeypatch):
    # a billion one-trial blocks are counted, not listed, before the refusal
    monkeypatch.setattr(counting, "_mem_available", lambda: 8 * 2**30)
    walks = []
    monkeypatch.setattr(lattice, "_farey_walk", walks.append)
    lattice.enumerate_rays.cache_clear()
    spec = _spec(h_values=[1000], q_schedule=[0.5], trials=10**9)
    tracemalloc.start()
    try:
        with pytest.raises(ValidationError, match="^height 1000 needs about .* MiB to run the sweep"):
            run_threshold_sweep(spec)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert walks == [] and peak < 2**20


def test_workers_must_be_positive():
    with pytest.raises(ValidationError):
        run_threshold_sweep(_spec(), workers=0)


def test_workers_above_the_bound_are_refused_before_a_pool_exists(monkeypatch):
    def no_work(*args, **kwargs):
        raise AssertionError("a sweep thread was made or a trial drawn")

    monkeypatch.setattr(threading, "Thread", no_work)
    monkeypatch.setattr(experiments, "_draw_trials", no_work)
    for workers in (experiments.MAX_WORKERS + 1, 10**9):
        with pytest.raises(ValidationError, match="workers"):
            run_threshold_sweep(_spec(), workers=workers)


def test_one_pool_starts_at_most_one_thread_per_work_item(monkeypatch):
    # a trial is a work item, and the calling thread draws trials too
    started, drawing = [], set()
    draw = experiments._draw_trials

    class Counting(threading.Thread):
        def start(self):
            started.append(self)
            super().start()

    def counting_draw(*args):
        drawing.add(threading.get_ident())
        draw(*args)

    def sweep(spec, workers):
        # (threads started, threads that drew trials)
        started.clear()
        drawing.clear()
        run_threshold_sweep(spec, workers=workers)
        return len(started), len(drawing)

    monkeypatch.setattr(threading, "Thread", Counting)
    monkeypatch.setattr(experiments, "_draw_trials", counting_draw)
    monkeypatch.setattr(experiments, "_BLOCK_RAYS", 1)  # every row streamed a word at a time
    bound = experiments.MAX_WORKERS
    assert sweep(_spec(h_values=[3], q_schedule=[0.5], trials=1), bound) == (0, 1)  # one item: no thread started
    assert sweep(_spec(h_values=[3], q_schedule=[0.5], trials=2), bound) == (1, 2)
    # one set of threads serves both cells, a trial at a time
    assert sweep(_spec(h_values=[3, 4], q_schedule=[0.5, 0.5], trials=2), 3) == (1, 2)


def test_a_failure_in_any_sweep_thread_is_raised_once_every_thread_has_ended(monkeypatch):
    calling = threading.get_ident()
    draw = experiments._draw_trials
    ended = []

    def failing(*args):
        try:
            if threading.get_ident() != calling:
                raise RuntimeError("a started thread failed")
            draw(*args)
        finally:
            ended.append(threading.get_ident())

    monkeypatch.setattr(experiments, "_draw_trials", failing)
    alive = threading.active_count()
    with pytest.raises(RuntimeError, match="a started thread failed"):
        run_threshold_sweep(_spec(trials=10), workers=3)
    assert len(ended) == 3 and threading.active_count() == alive
    monkeypatch.undo()
    assert run_threshold_sweep(_spec(trials=10), workers=3) == run_threshold_sweep(_spec(trials=10))


def test_after_a_failure_no_sweep_thread_takes_another_trial(monkeypatch):
    # the calling thread fails at its first trial; each started thread
    # waits until then, and its next request for a trial gets none
    calling = threading.get_ident()
    failing, taken = threading.Event(), []

    def draw(lanes, master_seed, trials, ks, out, first=0):
        for t in trials:
            taken.append(t)
            if threading.get_ident() == calling:
                failing.set()
                raise RuntimeError("the calling thread failed")
            assert failing.wait(timeout=60)
            time.sleep(0.2)  # the failure is recorded meanwhile

    monkeypatch.setattr(experiments, "_draw_trials", draw)
    with pytest.raises(RuntimeError, match="the calling thread failed"):
        run_threshold_sweep(_spec(trials=100), workers=3)
    assert sorted(taken) == [0, 1, 2]


def test_sweep_columns_layout():
    cols = sweep_columns([2, 5])
    assert cols[:3] == ["h", "q", "trials"]
    assert cols[-4:] == ["mean_delta_2", "frac_delta_2_above_c",
                         "mean_delta_5", "frac_delta_5_above_c"]
    spec = _spec(k_list=[2, 5], trials=4)
    dicts = sweep_rows_as_dicts(run_threshold_sweep(spec), [2, 5])
    assert list(dicts[0]) == cols


def _text(table, fmt, columns) -> str:
    return b"".join(render(table, fmt, columns=columns)).decode("utf-8")


def test_csv_rendering_is_canonical():
    rows = [{"a": None, "b": True, "c": False, "d": 7, "e": 1 / 3, "f": Fraction(1, 7)}]
    text = _text(rows, "csv", ["a", "b", "c", "d", "e", "f"])
    assert text == "a,b,c,d,e,f\nnull,true,false,7,0.333333,0.142857\n"
    assert _text([], "csv", ["x", "y"]) == "x,y\n"
    # refused when render is called, before any block is asked for
    with pytest.raises(ValidationError):
        render(rows, "tsv", columns=["a"])
    with pytest.raises(ValidationError, match="differ in length"):
        render({"a": [1, 2], "b": [3]}, "csv", columns=["a"])
    with pytest.raises(ValidationError, match="no column 'y'"):
        render({"x": [1]}, "csv", columns=["y"])
    with pytest.raises(ValidationError, match="no column 'y'"):
        render([{"x": 1}], "json", columns=["y"])


def test_json_rendering_round_trips():
    rows = [{"a": None, "b": True, "d": 7, "e": 0.25, "f": Fraction(1, 4)}]
    text = _text(rows, "json", ["a", "b", "d", "e", "f"])
    assert text.endswith("\n")
    back = json.loads(text)
    assert back == [{"a": None, "b": True, "d": 7, "e": 0.25, "f": 0.25}]
    assert json.loads(_text([], "json", ["x"])) == []


def test_emit_is_byte_stable_and_atomic(tmp_path):
    rows = [{"h": 3, "q": 0.125}, {"h": 4, "q": 2 / 3}]
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    emit(rows, "csv", a, columns=["h", "q"])
    emit(rows, "csv", b, columns=["h", "q"])
    raw = a.read_bytes()
    assert raw == b.read_bytes()
    assert b"\r" not in raw
    assert raw.decode("utf-8") == "h,q\n3,0.125\n4,0.666667\n"
    # overwrite in place
    emit(rows[:1], "csv", a, columns=["h", "q"])
    assert a.read_text() == "h,q\n3,0.125\n"
    # no temp droppings
    assert sorted(p.name for p in tmp_path.iterdir()) == ["a.csv", "b.csv"]


def test_emit_failure_leaves_no_partial_file(tmp_path):
    rows = [{"h": 1}]
    target = tmp_path / "sub" / "out.csv"  # parent directory does not exist
    with pytest.raises(OSError):
        emit(rows, "csv", target, columns=["h"])
    assert not target.exists()
    blocked = tmp_path / "dir.csv"
    blocked.mkdir()
    with pytest.raises(OSError):
        emit(rows, "csv", blocked, columns=["h"])
    assert sorted(p.name for p in tmp_path.iterdir()) == ["dir.csv"]


class _Unprintable:
    def __str__(self):
        raise RuntimeError("cell 2 cannot be rendered")


@pytest.mark.parametrize("existing", [False, True])
def test_emit_failure_in_mid_stream_leaves_no_file(monkeypatch, tmp_path, existing):
    # the first block is on disk in the temp file when the second one fails
    monkeypatch.setattr(emission, "_RENDER_ROWS", 1)
    target = tmp_path / "out.csv"
    if existing:
        target.write_bytes(b"old\n")
    rows = [{"h": 1}, {"h": _Unprintable()}, {"h": 3}]
    with pytest.raises(RuntimeError, match="cell 2"):
        emit(rows, "csv", target, columns=["h"])
    assert sorted(p.name for p in tmp_path.iterdir()) == (["out.csv"] if existing else [])
    assert not existing or target.read_bytes() == b"old\n"


def test_emit_refuses_a_bad_format_before_making_the_temp_file(monkeypatch, tmp_path):
    def no_temp(*args, **kwargs):
        raise AssertionError("a temp file was made")

    monkeypatch.setattr(emission.tempfile, "mkstemp", no_temp)
    with pytest.raises(ValidationError, match="format must be one of"):
        emit([{"h": 1}], "tsv", tmp_path / "out.tsv", columns=["h"])
    with pytest.raises(ValidationError, match="no column 'q'"):
        emit([{"h": 1}], "csv", tmp_path / "out.csv", columns=["q"])
    assert list(tmp_path.iterdir()) == []


def test_blowdown_rows_unit_height():
    t = blowdown_table(1)
    table = blowdown_array(t)
    assert tuple(table) == BLOWDOWN_COLUMNS
    # views of the table, not copies; the norm column is computed per slice
    assert all(np.shares_memory(table[c], t.coords) for c in ("x", "y"))
    assert table["k"] is t.k_values and len(table["norm"]) == len(t)
    columns = [table[c][:].tolist() for c in BLOWDOWN_COLUMNS]
    rows = [dict(zip(BLOWDOWN_COLUMNS, r)) for r in zip(*columns)]
    assert rows == [
        {"x": 1, "y": 0, "norm": 1, "k": 2},
        {"x": 1, "y": 1, "norm": 1, "k": 1},
        {"x": 0, "y": 1, "norm": 1, "k": 2},
        {"x": -1, "y": 1, "norm": 1, "k": 1},
        {"x": -1, "y": 0, "norm": 1, "k": 2},
        {"x": -1, "y": -1, "norm": 1, "k": 1},
        {"x": 0, "y": -1, "norm": 1, "k": 2},
        {"x": 1, "y": -1, "norm": 1, "k": 1},
    ]


def test_conjecture_report_is_consistent_with_tables():
    rows = conjecture_report([5, 10], 4)
    assert [list(r) for r in rows] == [list(RATIO_COLUMNS)] * 6
    for row in rows:
        table = blowdown_table(row["h"])
        assert row["n_h"] == len(table)
        assert row["count_geq"] == table.count_geq(row["k"])
        assert row["ratio"] == pytest.approx(float(table.ratio_geq(row["k"])))
        assert row["conjectured"] == pytest.approx(float(conjectured_ratio(row["k"])))
    with pytest.raises(ValidationError):
        conjecture_report([5], 1)


def test_ratio_table_is_sized_before_its_first_row(monkeypatch):
    # 10**8 - 1 rows of about 400 B: refused before the count or any row
    monkeypatch.setattr(counting, "_mem_available", lambda: 8 * 2**30)
    monkeypatch.setattr(counting, "_mertens", lambda h: pytest.fail("the count ran"))
    with pytest.raises(ValidationError, match=r"^99999999 ratio rows need about 38910 MiB to build "
                       r"the ratio table, more than 50% of the 8192 MiB available$"):
        conjecture_report([5], 10**8)
    monkeypatch.undo()
    monkeypatch.setattr(counting, "_mem_available", lambda: 2 * counting._RATIO_ROW_BYTES * 2000)
    assert len(conjecture_report([5], 2001)) == 2000
    with pytest.raises(ValidationError, match="^2001 ratio rows need"):
        conjecture_report([5], 2002)


def test_ratio_row_estimate_bounds_the_traced_rows():
    conjecture_report([5], 3)  # warm
    tracemalloc.start()
    try:
        rows = conjecture_report([5, 1000], 2001)
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert held <= counting._RATIO_ROW_BYTES * len(rows)


def test_conjecture_report_counts_without_building_a_ray(monkeypatch):
    heights, k_max = [500, 1000, 2000], 7
    want = []
    for h in heights:
        k_values = blowdown_table(h).k_values
        for k in range(2, k_max + 1):
            count = int(np.count_nonzero(k_values >= k))
            want.append({
                "h": h, "k": k, "count_geq": count, "n_h": len(k_values),
                "ratio": float(Fraction(count, len(k_values))),
                "conjectured": float(conjectured_ratio(k)),
            })

    def refuse(*args):
        raise AssertionError(f"conjecture_report built rays: {args}")

    for module, name in [(blowdown, "enumerate_rays"), (blowdown, "blowdown_table"),
                         (lattice, "_farey_walk")]:
        monkeypatch.setattr(module, name, refuse)
    assert conjecture_report(heights, k_max) == want
    for bad in [[0], [counting.MAX_H + 1], [5.0], [True]]:
        with pytest.raises(ValidationError):
            conjecture_report(bad, 3)


def test_space_report_unit_height():
    assert space_report(1) == [
        {"x": 1, "y": 0, "k": 2},
        {"x": 1, "y": 1, "k": 1},
        {"x": 0, "y": 1, "k": 2},
    ]
    assert list(space_report(2)[0]) == list(SPACE_COLUMNS)


def test_delta_is_non_increasing_in_k_within_a_trial():
    for t in range(25):
        rec = block_trial(12, 0.5, 20260816, t, (1, 2, 3, 4, 9))
        values = [rec.delta_k[k] for k in (1, 2, 3, 4, 9)]
        if rec.n_cones == 0:
            assert all(v is None for v in values)
            continue
        assert all(v is not None for v in values)
        assert values[0] == 1
        assert all(a >= b for a, b in zip(values, values[1:]))


def test_density_sweep_with_certain_inclusion_saturates():
    spec = _spec(h_values=[6], q_schedule=[0.0], k_list=[1, 2], trials=8, c_density=0.01)
    (row,) = run_density_sweep(spec)
    assert row.frac_smooth == 1.0
    assert row.n_no_cones == 0
    assert row.frac_delta_above_c[1] == 1.0
    assert row.frac_delta_above_c[2] == 0.0


def test_frac_smooth_tracks_the_analytic_probability():
    h, q, trials = 30, 1e-6, 200
    exact, _ = prob_complete(h, q)
    assert exact >= 0.99
    spec = _spec(h_values=[h], q_schedule=[q], trials=trials, master_seed=20260816)
    (row,) = run_threshold_sweep(spec)
    assert row.frac_smooth >= exact - 5 / math.sqrt(trials)
