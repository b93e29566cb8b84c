"""Sweep trials: the block classifier against the Fan-building oracle, the
integer keep mask against Generator.random, and the array aggregation
against the record-by-record oracle."""

import dataclasses
import functools
import sys
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from oracles import TrialRecord, aggregate_records, block_trial, fan_counts, fan_trial, wedge
from randfan import experiments, lattice, sampling
from randfan.blowdown import blowdown_table
from randfan.emission import render
from randfan.errors import InvariantError
from randfan.experiments import (
    ExperimentSpec,
    _aggregate,
    _classify,
    run_threshold_sweep,
    sweep_columns,
    sweep_rows_as_dicts,
)
from randfan.lattice import enumerate_rays
from randfan.sampling import UINT64_MAX, SampleConfig, sample_fan

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
    assert block_trial(h, q, seed, trial, k_list) == fan_trial(h, q, seed, trial, k_list)


@pytest.mark.parametrize("trial", [0, 1, 2])
def test_sparse_drop_trial_at_height_1000_matches_fan_oracle(trial):
    rec = block_trial(1000, 1e-4, SEED, trial, [1, 2, 3])
    assert rec == fan_trial(1000, 1e-4, SEED, trial, [1, 2, 3])
    assert rec.n_rays_drawn < len(enumerate_rays(1000))


def _layout(dropped):
    """The padded keep layout of a (B, n) drop matrix: a kept sentinel, then
    each row's keep decisions followed by a kept sentinel."""
    b, n = dropped.shape
    keep = np.ones(1 + b * (n + 1), dtype=bool)
    keep[1:].reshape(b, n + 1)[:, :n] = ~dropped
    return keep


def _classified(h, dropped, ks, scratch=None):
    """_classify on the layout of a (B, n) drop matrix, checked row by row
    against the Fan oracle; the rows as (kept, cones, largest index, [cones >= k])."""
    scratch = {} if scratch is None else scratch
    kept, n_cones, max_index, at_least = _classify(enumerate_rays(h).coords, _layout(dropped), ks, scratch)
    rows = list(zip(kept.tolist(), n_cones.tolist(), max_index.tolist(), at_least.tolist()))
    for row, drops in zip(rows, dropped):
        assert row == fan_counts(h, ~drops, ks), np.flatnonzero(~drops)
    return rows


def _only_kept(n, positions):
    row = np.ones(n, dtype=bool)
    row[list(positions)] = False
    return row


@st.composite
def _drop_rows(draw, n):
    """Rows of a drop matrix over n rays, with the special cases drawn often."""
    kind = draw(st.sampled_from(["random", "few kept", "all", "none", "seam", "arc"]))
    if kind == "few kept":  # 0, 1 or 2 kept rays
        return _only_kept(n, draw(st.sets(st.integers(0, n - 1), max_size=2)))
    if kind in ("all", "none"):
        return np.full(n, kind == "all")
    row = np.array(draw(st.lists(st.booleans(), min_size=n, max_size=n)))
    if kind == "seam":  # one run through positions n - 1 and 0
        a = draw(st.integers(1, n - 3))
        b = draw(st.integers(a + 2, n - 1))
        row[:a] = row[b:] = True
        row[a] = row[b - 1] = False
    elif kind == "arc":  # a kept arc of a half turn or more: the gap spans nothing
        start = draw(st.integers(0, n - 1))
        arc = (start + np.arange(draw(st.integers(n // 2 + 1, n - 1)))) % n
        row[:] = True
        row[arc[[0, -1]]] = False
        inside = st.lists(st.booleans(), min_size=len(arc) - 2, max_size=len(arc) - 2)
        row[arc[1:-1]] = np.array(draw(inside), dtype=bool)
    return row


@st.composite
def _blocks(draw):
    h = draw(st.sampled_from([1, 2, 3, 5]))
    n = len(enumerate_rays(h))
    rows = draw(st.lists(_drop_rows(n), min_size=1, max_size=6))
    return h, np.array(rows, dtype=bool)


_INDEX_THRESHOLDS = st.one_of(st.integers(1, 12), st.sampled_from([2**62, 2**63, 2**64 + 5]))


@settings(max_examples=400, deadline=None)
@given(block=_blocks(), ks=st.lists(_INDEX_THRESHOLDS, min_size=1, max_size=4))
def test_block_classifier_matches_fan_oracle_row_by_row(block, ks):
    # one scratch serves the block and then each row alone, as it serves
    # a sweep's blocks: its buffers hold the longer block's values past
    # every row's end
    h, dropped = block
    scratch = {}
    rows = _classified(h, dropped, ks, scratch)
    assert rows == [_classified(h, d[None], ks, scratch)[0] for d in dropped]


def _streamed(lane, keep, column):
    """The answer of the started _stream_row lane, of keep threshold 1, to
    the draw keep sent as trial column's windows of words, 0 where a ray is
    kept and 1 where it is dropped; the lane answers None to every window
    but the last."""
    words = (~keep).astype(np.uint64)
    answers = [lane.send((words[lo : lo + experiments._BLOCK_RAYS], column))
               for lo in range(0, len(keep), experiments._BLOCK_RAYS)]
    assert answers[:-1] == [None] * (len(answers) - 1)
    return answers[-1]


_SMALL = st.sampled_from([1, 2, 3, 5, 8])


@settings(max_examples=400, deadline=None)
@given(block=_blocks(), window=_SMALL, ks=st.lists(_INDEX_THRESHOLDS, min_size=1, max_size=4))
def test_streamed_row_matches_fan_oracle_across_window_edges(block, window, ks):
    # windows of a few positions, so the seam's runs, open runs and full
    # run buffers all fall across window edges; one lane takes every row of
    # the block through send, as a sweep thread's does, and a flush after
    # the last row answers nothing
    h, dropped = block
    with mock.patch.object(experiments, "_BLOCK_RAYS", window):
        lane = experiments._stream_row(lattice._octant(h), np.uint64(1), ks, {})
        next(lane)
        for column, drops in enumerate(dropped):
            columns, (kept, n_cones, max_index, at_least) = _streamed(lane, ~drops, column)
            got = (int(kept[0]), int(n_cones[0]), int(max_index[0]), at_least[0].tolist())
            assert columns == [column]
            assert got == fan_counts(h, ~drops, ks), np.flatnonzero(drops)
        assert lane.send(None) is None


@functools.lru_cache(maxsize=None)
def _octant_and_circle(h):
    octant = lattice._octant(h)
    return octant, lattice._unfold_full_circle(octant)


_GATHER_HEIGHTS = st.one_of(st.integers(1, 60), st.sampled_from([170, 300, 1000]))


@st.composite
def _sorted_runs(draw):
    """A height and the dropped runs (s, e) of one batch, as _stream_row
    hands them over: at least one, disjoint, in row order, many across one
    of the eight sector starts jq, and at times a last run across the seam,
    which ends before it starts."""
    h = draw(_GATHER_HEIGHTS)
    n = lattice.count_geq(h, 1)
    near = st.builds(lambda j, d: j * (n // 8) + d, st.integers(0, 8), st.integers(-2, 2))
    points = sorted({p for p in draw(st.lists(st.one_of(near, st.integers(0, n)), max_size=40)) if 0 <= p <= n})
    s, e = points[0 : len(points) - 1 : 2], points[1::2]
    if draw(st.booleans()) and (not e or e[-1] < n) and (not s or s[0] > 0):
        start = draw(st.integers(e[-1] + 1 if e else 1, n))
        e.append(draw(st.integers(0, s[0] - 1 if s else start - 1)))
        s.append(start)
    assume(s)
    return h, s, e


def _sector_runs(h):
    """A run across each of the eight sector starts, and one across the seam."""
    q = lattice.count_geq(h, 1) // 8
    return h, [j * q - 1 for j in range(1, 8)] + [8 * q - 1], [j * q + 1 for j in range(1, 8)] + [1]


@settings(max_examples=400, deadline=None)
@given(runs=_sorted_runs())
@example(runs=_sector_runs(1000))
@example(runs=_sector_runs(5))
@example(runs=(1, [1, 3, 5], [2, 4, 8]))  # one ray per sector, and a run to the row's end
def test_octant_wedges_match_the_unfolded_circle(runs):
    h, s, e = runs
    octant, circle = _octant_and_circle(h)
    before = np.take(circle, np.array(s, dtype=np.int64) - 1, axis=0, mode="wrap").astype(np.int64)
    after = np.take(circle, np.array(e, dtype=np.int64), axis=0, mode="wrap").astype(np.int64)
    want = before[:, 0] * after[:, 1] - before[:, 1] * after[:, 0]
    got = experiments._octant_wedges(octant, np.array(s, dtype=np.int64), np.array(e, dtype=np.int64), {})
    assert got.tolist() == want.tolist()


def _uniforms(seed, trial, n):
    """The first n uniforms of trial (seed, trial)'s stream, as the
    reproducibility contract defines them."""
    return np.random.Generator(np.random.Philox(key=np.array([seed, trial], dtype=np.uint64))).random(n)


def _drawn(lanes, trials, ks, first=0):
    """_draw_trials' four count arrays for the given trials (columns t -
    first) of the lanes at seed SEED."""
    out = (*np.empty((3, len(lanes), len(trials)), dtype=np.int64),
           np.empty((len(lanes), len(trials), len(ks)), dtype=np.int64))
    experiments._draw_trials(lanes, SEED, trials, ks, out, first)
    return out


@pytest.mark.parametrize("q", [1e-4, 0.5, 0.999])
def test_streamed_row_at_height_300_matches_its_whole_row_layout(q):
    # 219,184 rays: four windows, and at q = 0.5 about 55,000 runs, so the
    # run buffers fill once before the row's end
    coords = enumerate_rays(300).coords
    threshold = sampling._keep_threshold(1.0 - q)
    keep = np.ones(len(coords) + 2, dtype=bool)
    keep[1:-1] = _uniforms(SEED, 5, len(coords)) < 1.0 - q
    want = _classify(coords, keep, [1, 2, 3], {})
    got = _drawn([(len(coords), lattice._octant(300), threshold, 1)], [5], [1, 2, 3], first=5)
    assert all(np.array_equal(a[0], b) for a, b in zip(got, want))


def test_a_whole_block_of_the_paper_sweep_matches_fan_oracle_row_by_row():
    # one full bin at h = 60, q = 0.5, as the paper sweep draws it: every
    # row's runs are turned into columns by that row's own start
    coords = enumerate_rays(60).coords
    n = len(coords)
    rows = experiments._BLOCK_RAYS // n
    assert rows == 7
    ks = [1, 2, 3, 5]
    threshold = sampling._keep_threshold(0.5)
    block = _drawn([(n, coords, threshold, rows)], range(rows), ks)
    keep = np.array([_uniforms(SEED, t, n) < 0.5 for t in range(rows)])
    assert (~keep[:, 0] & ~keep[:, -1]).any()  # some row has a run across its seam
    kept, n_cones, max_index, at_least = (a[0].tolist() for a in block)
    got = list(zip(kept, n_cones, max_index, at_least))
    assert got == [fan_counts(60, row, ks) for row in keep]


H = 3  # 32 rays: (1, 0) at 0, (0, 1) at 8, (-1, 0) at 16, (0, -1) at 24
K_LIST = [1, 2, 3]


def _cones(kept_positions):
    """(cones, largest index, [cones >= k]) of the H draw keeping exactly
    the given positions, checked against the oracle."""
    ((kept, *cones),) = _classified(H, _only_kept(32, kept_positions)[None], K_LIST)
    assert kept == len(kept_positions)
    return tuple(cones)


def test_no_kept_ray_gives_no_cone():
    assert _cones([]) == (0, 0, [0, 0, 0])


def test_one_kept_ray_gives_no_cone():
    assert _cones([5]) == (0, 0, [0, 0, 0])


def test_two_kept_rays():
    # antipodes: both gaps are half turns
    assert _cones([0, 16]) == (0, 0, [0, 0, 0])
    # (1, 0) and (0, 1): a quarter-turn cone of index 1, no cone across 3/4 turn
    assert _cones([0, 8]) == (1, 1, [1, 0, 0])
    # (3, 1) and (0, 1) span a cone of index 3
    assert _cones([1, 8]) == (1, 3, [1, 1, 1])


def test_no_dropped_ray_gives_the_full_fan():
    assert _cones(range(32)) == (32, 1, [32, 0, 0])


def test_run_through_the_seam_counts_once():
    # drops 30, 31, 0 and 1: one gap, from (3, -2) at 29 to (2, 1) at 2
    assert wedge((3, -2), (2, 1)) == 7
    assert _cones(range(2, 30)) == (28, 7, [28, 1, 1])


@pytest.mark.parametrize("last", [8, 16])
def test_gap_of_at_least_a_half_turn_gives_no_cone(last):
    # keep the arc from (1, 0) to (0, 1) or to (-1, 0): unit cones along it,
    # and the closing gap of 3/4 or exactly 1/2 turn spans nothing
    assert _cones(range(last + 1)) == (last, 1, [last, 0, 0])


def test_special_rows_in_one_block_classify_as_alone():
    kept = [[], [5], [0, 16], [0, 8], [1, 8], range(32), range(2, 30), range(9), range(17)]
    dropped = np.array([_only_kept(32, k) for k in kept])
    assert _classified(H, dropped, K_LIST) == [_classified(H, row[None], K_LIST)[0] for row in dropped]


_STEP = 2.0**-53


@st.composite
def _probabilities(draw):
    """p in [0, 1]: the ends, subnormals, and neighbours of multiples of 2**-53."""
    near = draw(st.integers(0, 2**53)) * _STEP
    return draw(st.one_of(
        st.sampled_from([0.0, 1.0, 5e-324, 2.2250738585072014e-308, 1.0 - _STEP, 0.5]),
        st.floats(0.0, 1.0),
        st.floats(0.0, 2.2250738585072014e-308),
        st.sampled_from([near, float(np.nextafter(near, 0.0)), min(1.0, float(np.nextafter(near, 2.0)))]),
    ))


@settings(max_examples=300, deadline=None)
@given(p=_probabilities())
def test_keep_threshold_decides_like_the_uniform(p):
    # Generator.random() is (raw >> 11) * 2**-53; try the raw words next to
    # the threshold and next to the uniforms at p
    t = sampling._keep_threshold(p)
    m = int(p / _STEP)
    raws = {0, UINT64_MAX, t - 1, t, t + 1, t - 2048, t + 2047, (m << 11) - 1, m << 11, (m + 1) << 11}
    for raw in (r for r in raws if 0 <= r <= UINT64_MAX):
        assert ((raw >> 11) * _STEP < p) == (raw < t), raw


@settings(max_examples=200, deadline=None)
@given(
    p=_probabilities(),
    n=st.integers(0, 300),
    chunk=st.sampled_from([1, 7, 64, 1 << 16]),
    seed=st.integers(0, UINT64_MAX),
    trial=st.integers(0, UINT64_MAX),
)
def test_integer_keep_mask_equals_the_uniform_comparison(p, n, chunk, seed, trial):
    threshold = sampling._keep_threshold(p)  # 2**64 at p = 1, past every word
    words = sampling._trial_words(np.random.Philox(0), seed, trial, n, chunk)
    out = np.concatenate([np.empty(0, dtype=bool), *(w < threshold for w in words)])
    assert np.array_equal(out, _uniforms(seed, trial, n) < p)


def test_rekeyed_generator_gives_the_fresh_stream():
    bitgen = np.random.Philox(0)
    # leave a half-used buffer and a spare 32-bit word behind
    np.random.Generator(bitgen).integers(0, 2**31, size=3, dtype=np.int32)
    bitgen.random_raw(5)
    for seed, trial in [(0, 0), (7, UINT64_MAX), (UINT64_MAX, 3)]:
        fresh = np.random.Philox(key=np.array([seed, trial], dtype=np.uint64))
        sampling._rekey(bitgen, seed, trial)
        assert np.array_equal(bitgen.random_raw(9), fresh.random_raw(9))
        small = [np.random.Generator(g).integers(0, 2**32, size=5, dtype=np.uint32) for g in (bitgen, fresh)]
        assert np.array_equal(*small)
        assert np.array_equal(np.random.Generator(bitgen).random(7), np.random.Generator(fresh).random(7))


_K = [1, 2, 3]

#: One trial as (cones, largest index, [cones of index >= k for k in _K]).
_TRIAL_COUNTS = st.integers(0, 8).flatmap(lambda m: st.tuples(
    st.just(m),
    st.integers(1, 20) if m else st.just(0),
    st.lists(st.integers(0, m), min_size=len(_K), max_size=len(_K)),
))


@settings(max_examples=300, deadline=None)
@given(
    trials=st.lists(_TRIAL_COUNTS, min_size=1, max_size=40),
    c_density=st.one_of(
        st.sampled_from([0.5, 0.25, 0.125, 0.375, 1 / 3, 0.2, 5e-324, 1.0 - _STEP]),
        st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
    ),
)
def test_array_aggregation_equals_the_record_oracle(trials, c_density):
    records = [
        TrialRecord(h=3, q=0.5, trial_index=t, n_rays_drawn=m, n_cones=m, smooth=top <= 1, max_index=top,
                    delta_k={k: Fraction(a, m) if m else None for k, a in zip(_K, at_least)})
        for t, (m, top, at_least) in enumerate(trials)
    ]
    n_cones, max_index, at_least = (np.array(column, dtype=np.int64) for column in zip(*trials))
    want = aggregate_records(3, 0.5, records, _K, c_density)
    assert _aggregate(3, 0.5, n_cones, max_index, at_least, _K, c_density) == want


@settings(max_examples=200, deadline=None)
@given(
    fractions=st.lists(st.tuples(st.integers(0, 10**6), st.integers(1, 10**6)), min_size=1, max_size=400),
    count=st.integers(1, 10**4),
)
def test_exact_mean_is_the_fraction_mean_floated_once(fractions, count):
    numerators, denominators = map(list, zip(*fractions))
    want = float(sum(map(Fraction, numerators, denominators), Fraction(0)) / count)
    assert experiments._exact_mean(numerators, denominators, count) == want


def test_sweep_rows_equal_the_record_oracle_with_ties_at_c_density():
    # at h = 1 and 2 most draws have a handful of cones, so delta = 1/2 and
    # 1/4 occur exactly
    for c_density in (0.5, 0.25):
        spec = ExperimentSpec(h_values=[1, 2], q_schedule=[0.4, 0.6], trials=200,
                              k_list=[1, 2, 3], c_density=c_density, master_seed=SEED)
        want, ties = [], 0
        for h, q in zip(spec.h_values, spec.q_values()):
            records = [block_trial(h, q, SEED, t, spec.k_list) for t in range(spec.trials)]
            ties += sum(r.delta_k[k] == c_density for r in records for k in spec.k_list)
            want.append(aggregate_records(h, q, records, spec.k_list, c_density))
        assert ties > 0
        assert run_threshold_sweep(spec) == want


def _sweep_csv(spec, workers=1):
    rows = sweep_rows_as_dicts(run_threshold_sweep(spec, workers=workers), spec.k_list)
    return b"".join(render(rows, "csv", columns=sweep_columns(spec.k_list)))


@pytest.mark.parametrize("budget", [1, 50, 1 << 10, 1 << 20])
def test_sweep_bytes_do_not_depend_on_block_budget_or_workers(monkeypatch, budget):
    # a row longer than the budget is streamed through windows of that many
    # positions, and its runs through buffers of one window's runs
    spec = ExperimentSpec(h_values=[2, 5, 12], q_schedule=[0.3, 0.6, 0.05], trials=23,
                          k_list=[1, 2, 3], c_density=0.25, master_seed=SEED)
    want = _sweep_csv(spec)
    monkeypatch.setattr(experiments, "_BLOCK_RAYS", budget)
    for workers in (1, 2, 3):
        assert _sweep_csv(spec, workers) == want


@pytest.mark.parametrize("workers", [1, 3])
def test_each_row_of_a_grid_equals_the_sweep_of_its_cell_alone(monkeypatch, workers):
    # the cells of a grid share each trial's one draw; with windows of 50
    # words (run buffers of 28), h <= 4 (48 rays) goes into bins and
    # h >= 5 (80 rays) is streamed; h = 5 and h = 12 come twice, and each
    # grid has a cell at q = 0 (no word read) and one at q = 1; the threads
    # switch often, so two taking one trial would show
    monkeypatch.setattr(experiments, "_BLOCK_RAYS", 50)
    grids = [
        ("q-small", [2, 5, 12, 5, 4, 9, 3, 1], [0.3, 0.6, 0.05, 0.01, 0.0, 1.0, 0.5, 0.4]),
        ("q-large", [3, 12, 1, 12, 6], [0.2, 0.9, 0.0, 0.5, 1.0]),
    ]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for regime, heights, schedule in grids:
            spec = ExperimentSpec(h_values=heights, q_schedule=schedule, regime=regime, trials=23,
                                  k_list=[1, 2, 3], c_density=0.25, master_seed=SEED)
            assert {0.0, 1.0} <= set(spec.q_values())
            rows = run_threshold_sweep(spec, workers=workers)
            for h, value, row in zip(heights, schedule, rows):
                alone = dataclasses.replace(spec, h_values=[h], q_schedule=[value])
                assert run_threshold_sweep(alone, workers=workers) == [row], (h, row.q)
    finally:
        sys.setswitchinterval(interval)


def test_a_sweep_thread_makes_one_scan_per_streamed_cell(monkeypatch):
    # h = 170 (70,000 rays) is streamed: each of the two threads makes the
    # cell's one _stream_row and scans its trials with it, not one per trial
    made = []
    stream_row = experiments._stream_row

    def counted(*args):
        made.append(args)
        return stream_row(*args)

    monkeypatch.setattr(experiments, "_stream_row", counted)
    spec = ExperimentSpec(h_values=[170], q_schedule=[0.5], trials=4, k_list=[2, 3], master_seed=SEED)
    run_threshold_sweep(spec, workers=2)
    assert len(made) == 2


def test_a_grid_reads_each_trial_stream_once(monkeypatch):
    # a Philox that counts the words it returns and its re-keys
    drawn = {}
    base = np.random.Philox

    class Philox(base):  # the state setter checks the class name
        def random_raw(self, size=None, output=True):
            words = super().random_raw(size, output)
            drawn["words"] += np.size(words)
            return words

        @property
        def state(self):
            return base.state.__get__(self)

        @state.setter
        def state(self, value):
            drawn["rekeys"] += 1
            base.state.__set__(self, value)

    monkeypatch.setattr(np.random, "Philox", Philox)

    def draws(heights, schedule, trials):
        drawn.update(words=0, rekeys=0)
        run_threshold_sweep(ExperimentSpec(h_values=heights, q_schedule=schedule, trials=trials, k_list=[2, 3]))
        return drawn["words"], drawn["rekeys"]

    # the paper's cells: their longest row, 15,728 rays at h = 80, is read
    # once per trial, not 3,920 + 8,816 + 15,728 = 28,464 words in 3 streams
    assert draws([40, 60, 80], [0.5, 0.5, 0.2], 7) == (7 * 15_728, 7)
    for h, q in [(40, 0.5), (300, 1e-4)]:  # a cell alone reads its own rows
        assert draws([h], [q], 3) == (3 * lattice.count_geq(h, 1), 3)
    # every ray kept, or every ray dropped: nothing read
    assert draws([40, 300], [0.0, 0.0], 3) == draws([80], [1.0], 3) == (0, 0)


@pytest.fixture
def tamper(monkeypatch):
    """tamper(edit) makes every universe built from then on the circle
    unfolded from the octant walk passed through edit; the universe caches
    are empty before and after the test."""
    walk = lattice._farey_walk

    def clear():
        enumerate_rays.cache_clear()
        blowdown_table.cache_clear()

    def tamper(edit):
        monkeypatch.setattr(lattice, "_farey_walk", lambda h: edit(walk(h)))
        clear()

    clear()
    yield tamper
    clear()


def _swapped(c, i):
    c[[i, i + 1]] = c[[i + 1, i]]
    return c


def _first_bad_pair(c):
    n = len(c)
    i = next(i for i in range(n) if wedge(c[i], c[(i + 1) % n]) != 1)
    return i, tuple(c[i].tolist()), tuple(c[(i + 1) % n].tolist())


_CALLERS = [
    lambda: block_trial(4, 0.1, 0, 0, [2]),
    lambda: run_threshold_sweep(ExperimentSpec(h_values=[4], q_schedule=[0.1], trials=4), workers=2),
    lambda: blowdown_table(4),
    lambda: sample_fan(SampleConfig(h=4, p=0.9)),
]


def test_tampered_universe_is_refused(tamper):
    good = lattice._farey_walk(4)  # (1, 0), (4, 1), (3, 1), (2, 1), (3, 2), (4, 3), (1, 1)
    # a swapped pair is named by the wedge check
    first, u, v = _first_bad_pair(_swapped(good.copy(), 3))
    tamper(lambda c: _swapped(c, 3))
    for call in _CALLERS:
        with pytest.raises(InvariantError) as exc:
            call()
        assert str(exc.value) == (f"height 4: neighbouring rays {u} at position {first} and {v} "
                                  f"at position {first + 1} have wedge {wedge(u, v)}, not 1")
    # a dropped ray of index 1 leaves every wedge 1 and drops its 8 images;
    # the count check finds it and names it from the pair around the hole
    tamper(lambda c: np.delete(c, 5, axis=0))
    for call in _CALLERS:
        with pytest.raises(InvariantError) as exc:
            call()
        assert str(exc.value) == (
            "height 4: the walk gave 40 rays, but 48 have sup-norm <= 4; the ray (4, 3) "
            "between (3, 2) at position 4 and (1, 1) at position 5 is missing"
        )


@pytest.mark.parametrize("workers", [1, 2])
def test_tampered_walk_is_named_by_a_streamed_sweep(monkeypatch, workers):
    # a row of h = 170 is streamed from the octant alone, which is checked:
    # two octant rays swapped are named by height, circle position and rays
    walk = lattice._farey_walk
    first, u, v = _first_bad_pair(lattice._unfold_full_circle(_swapped(walk(170), 100)))
    monkeypatch.setattr(lattice, "_farey_walk", lambda h: _swapped(walk(h), 100))
    enumerate_rays.cache_clear()
    with pytest.raises(InvariantError) as exc:
        run_threshold_sweep(ExperimentSpec(h_values=[170], q_schedule=[0.5], trials=2), workers=workers)
    assert str(exc.value) == (f"height 170: neighbouring rays {u} at position {first} and {v} "
                              f"at position {first + 1} have wedge {wedge(u, v)}, not 1")


def test_count_check_in_blocks_names_the_missing_ray(monkeypatch, tamper):
    # the 6 pairs of the octant of h = 4 checked 3 at a time; each octant
    # ray of index 1 can be dropped without breaking a wedge
    good = lattice._farey_walk(4)
    dropped = [i for i in range(1, len(good) - 1) if blowdown_table(4).k_values[i] == 1]
    assert dropped == [1, 5]  # a gap in the first block and one in the last
    monkeypatch.setattr(lattice, "_BLOCK", 3)
    for i in dropped:
        tamper(lambda c, i=i: np.delete(c, i, axis=0))
        u, v = tuple(good[i - 1].tolist()), tuple(good[i + 1].tolist())
        with pytest.raises(InvariantError) as exc:
            enumerate_rays(4)
        assert str(exc.value) == (
            f"height 4: the walk gave 40 rays, but 48 have sup-norm <= 4; the ray "
            f"{tuple(good[i].tolist())} between {u} at position {i - 1} and {v} at position {i} is missing"
        )
    # a ray too many is beyond every gap and named by the counts alone
    tamper(lambda c: np.insert(c, 1, (5, 1), axis=0))
    with pytest.raises(InvariantError, match=r"^height 4: the walk gave 56 rays, but 48 have sup-norm <= 4$"):
        enumerate_rays(4)


@pytest.mark.parametrize("swap", [1, 2, 3, 4])
def test_smoothness_check_in_blocks_names_the_first_bad_pair(monkeypatch, tamper, swap):
    # the 6 pairs of the octant of h = 4 checked 3 at a time: every swap
    # that keeps the ends (1, 0) and (1, 1), whose first bad pair is inside
    # the first block, across its edge or in the last block
    good = lattice._farey_walk(4)
    first, u, v = _first_bad_pair(_swapped(good.copy(), swap))
    monkeypatch.setattr(lattice, "_BLOCK", 3)
    tamper(lambda c: _swapped(c, swap))
    with pytest.raises(InvariantError) as exc:
        enumerate_rays(4)
    assert str(exc.value) == (
        f"height 4: neighbouring rays {u} at position {first} and {v} at "
        f"position {first + 1} have wedge {wedge(u, v)}, not 1"
    )
