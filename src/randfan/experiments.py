"""Monte Carlo sweeps, report tables, and deterministic CSV/JSON emission.

A sweep is a grid of (height, drop-probability) cells; each cell runs a fixed
number of seeded trials (one draw per trial, keyed by master_seed and the
trial index alone) and aggregates them into a single summary row.  A trial is
classified from its dropped runs: the full fan is smooth (enumerate_rays
checks that once per universe), so a draw differs from it only where maximal
runs of consecutive rays were dropped, and no fan is built.  Trials are
drawn straight into one padded keep layout per block and classified a
block at a time, reusing each worker's buffers, and a cell is aggregated
from count arrays.
Trial RNG streams never depend on block size, worker count or scheduling,
and rows are emitted in grid order with a canonical number format, so a
sweep's output is byte-identical across runs and thread pools.

Report builders for the deterministic tables (ray and blowdown exports,
ratio tables, first-quadrant shells) live here too, sharing the same
emission path.  Tables are emitted column-wise and streamed: the large
exports hand render() views of their coordinate and index arrays, with
the sup norm computed per block, and row dicts are transposed onto the
same path.  render() yields each block of rows as bytes: one byte matrix,
a fixed-width field per column with the row's literals between them and
0xFF in every unused byte, with the pad byte deleted; an integer column is
written digit by digit in numpy, with no Python object per cell.
write_blocks() streams the blocks into a temp file that is renamed onto
the target, so nothing the size of the output is held.  The byte format
(canonical cells, LF newlines, atomic write) is the same for every table.
"""

from __future__ import annotations

import json
import math
import os
import tempfile
from collections.abc import Iterator, Mapping
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .blowdown import BlowdownTable, blowdown_table, conjectured_ratio
from .errors import ValidationError, check_int, check_real
from .lattice import (
    RayUniverse, _check_height, _check_memory, _count_geq, _mertens, count_geq, enumerate_rays,
)
from .sampling import _MASK_CHUNK, UINT64_MAX, SampleConfig, _keep_mask, _keep_threshold

FORMATS = ("csv", "json")

#: Two-sided 99% normal quantile, fixed for the Wilson interval columns.
_Z99 = 2.5758293035489004


@dataclass(frozen=True)
class PowerSchedule:
    """Drop-probability schedule value c * h**(-alpha), clamped to [0, 1];
    c is finite and > 0, alpha finite, both stored as floats."""

    c: float
    alpha: float

    def __post_init__(self):
        object.__setattr__(self, "c", check_real(self.c, "schedule coefficient", 0, exclusive=True))
        object.__setattr__(self, "alpha", check_real(self.alpha, "schedule exponent"))

    def value(self, h: int) -> float:
        try:
            return min(1.0, self.c * float(h) ** -self.alpha)
        except OverflowError:
            # h**-alpha is past the float range, but c may be as small as
            # 5e-324: decide in logs
            log_value = math.log(self.c) - self.alpha * math.log(h)
            return 1.0 if log_value >= 0 else math.exp(log_value)


def _nonempty_list(values, name: str) -> list:
    if not isinstance(values, (list, tuple)) or not values:
        raise ValidationError(f"{name} must be a non-empty list, got {values!r}")
    return list(values)


@dataclass(frozen=True)
class ExperimentSpec:
    """Configuration of one seeded sweep.

    q_schedule is either a PowerSchedule or an explicit list of values
    aligned with h_values; values are clamped to [0, 1].  regime selects
    whether the schedule value drives the drop probability q directly
    ("q-small") or its complement 1 - q ("q-large", the almost-everything-
    dropped end).  output, when set, is {"path": ..., "format": "csv"|"json"}.
    Numbers must be of the right kind, never bool or str, and are stored as
    Python int and float; the sequences are stored as lists.  The spec is
    frozen, so no field can skip these checks by a later assignment.
    """

    h_values: list[int]
    q_schedule: "PowerSchedule | list[float]"
    regime: str = "q-small"
    trials: int = 200
    k_list: list[int] = field(default_factory=lambda: [2])
    c_density: float = 0.01
    master_seed: int = 0
    output: dict | None = None

    def __post_init__(self):
        # stored normalised; the dataclass is frozen
        heights = _nonempty_list(self.h_values, "h_values")
        object.__setattr__(self, "h_values", [_check_height(h) for h in heights])
        if not isinstance(self.q_schedule, PowerSchedule):
            values = _nonempty_list(self.q_schedule, "explicit q_schedule")
            if len(values) != len(self.h_values):
                raise ValidationError(
                    f"explicit q_schedule has {len(values)} values for {len(self.h_values)} heights"
                )
            object.__setattr__(self, "q_schedule", [check_real(v, "schedule value", 0) for v in values])
        if self.regime not in ("q-small", "q-large"):
            raise ValidationError(f"regime must be 'q-small' or 'q-large', got {self.regime!r}")
        ks = _nonempty_list(self.k_list, "k_list")
        object.__setattr__(self, "trials", check_int(self.trials, "trials", 1))
        object.__setattr__(self, "k_list", [check_int(k, "k_list entry", 1) for k in ks])
        object.__setattr__(self, "c_density", check_real(self.c_density, "c_density", 0, 1, exclusive=True))
        object.__setattr__(self, "master_seed", check_int(self.master_seed, "master_seed", 0, UINT64_MAX))
        if self.output is not None:
            if (
                not isinstance(self.output, dict)
                or set(self.output) != {"path", "format"}
                or not isinstance(self.output["path"], (str, os.PathLike))
                or self.output["format"] not in FORMATS
            ):
                raise ValidationError("output must be {'path': ..., 'format': 'csv'|'json'}")

    def q_values(self) -> list[float]:
        """Drop probability per height: schedule value or its complement."""
        if isinstance(self.q_schedule, PowerSchedule):
            vals = [self.q_schedule.value(h) for h in self.h_values]
        else:
            vals = [min(1.0, v) for v in self.q_schedule]
        return vals if self.regime == "q-small" else [1.0 - v for v in vals]


_SPEC_FIELDS = (
    "h_values", "q_schedule", "regime", "trials", "k_list",
    "c_density", "master_seed", "output",
)


def spec_from_dict(doc) -> ExperimentSpec:
    """Build a spec from a plain document whose keys match the field names.

    Only the document's shape is checked here; the values go unconverted to
    ExperimentSpec and PowerSchedule, which validate them.
    """
    if not isinstance(doc, dict):
        raise ValidationError("experiment spec must be a mapping")
    unknown = set(doc) - set(_SPEC_FIELDS)
    if unknown:
        raise ValidationError(f"unknown spec fields: {sorted(unknown)}")
    if "h_values" not in doc or "q_schedule" not in doc:
        raise ValidationError("spec needs at least h_values and q_schedule")
    sched = doc["q_schedule"]
    if isinstance(sched, dict):
        if set(sched) != {"c", "alpha"}:
            raise ValidationError("power-law q_schedule must be {'c': ..., 'alpha': ...}")
        sched = PowerSchedule(sched["c"], sched["alpha"])
    elif not isinstance(sched, list):
        raise ValidationError("q_schedule must be a list or {'c', 'alpha'}")
    return ExperimentSpec(**{**doc, "q_schedule": sched})


def spec_from_file(path) -> ExperimentSpec:
    """Load a JSON experiment spec; parse errors become validation errors."""
    with open(path, encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except ValueError as exc:
            raise ValidationError(f"{path} is not valid JSON: {exc}") from exc
    return spec_from_dict(doc)


@dataclass(frozen=True)
class TrialRecord:
    """Outcome of a single seeded draw, before aggregation."""

    h: int
    q: float
    trial_index: int
    n_rays_drawn: int
    n_cones: int
    smooth: bool
    max_index: int  # 0 for a fan with no cones
    delta_k: dict

    def __post_init__(self):
        if self.smooth != (self.max_index <= 1):
            raise ValidationError("smooth flag contradicts max_index")


@dataclass(frozen=True)
class SweepRow:
    """Aggregated summary of all trials of one (h, q) grid cell."""

    h: int
    q: float
    trials: int
    frac_smooth: float
    frac_singular: float
    wilson_ci_low: float
    wilson_ci_high: float
    n_no_cones: int
    max_index_p50: int
    max_index_p90: int
    mean_delta: dict
    frac_delta_above_c: dict


#: Rays per block of work.  A sweep draws and classifies
#: max(1, _BLOCK_RAYS // n) trials at a time, so a block's arrays are
#: bounded by about _BLOCK_RAYS rays while n <= _BLOCK_RAYS.  Above that a
#: block is one trial: its keep layout takes n + 2 bytes (twice, with the
#: mask of where it changes), and its per-run arrays grow with the number
#: of dropped runs, up to n / 2.  _block_bytes bounds both.
_BLOCK_RAYS = 1 << 16

#: Most worker threads a sweep may be asked for.
MAX_WORKERS = 64

#: Wedges are at most 2 * MAX_H**2 < 2**62, so a larger k counts as 2**62
#: and every index comparison stays within int64.
_K_CAP = 1 << 62


def _per_row(ufunc, values: np.ndarray, bounds: np.ndarray) -> np.ndarray:
    """ufunc.reduceat of values over the row segments bounds[i]:bounds[i + 1],
    and 0 for an empty segment.  values has an entry past bounds[-1], so
    every segment starts at an index of it."""
    out = ufunc.reduceat(values, bounds[:-1], dtype=np.int64)
    out[bounds[:-1] == bounds[1:]] = 0
    return out


def _buffer(scratch: dict, name: str, size: int, dtype) -> np.ndarray:
    """The first size entries of the buffer scratch[name], which is made
    anew only when the one held is too short."""
    if len(scratch.get(name, ())) < size:
        scratch.pop(name, None)  # freed before the longer one is made
        scratch[name] = np.empty(size, dtype=dtype)
    return scratch[name][:size]


def _classify(coords: np.ndarray, keep: np.ndarray, ks, scratch: dict) -> tuple[np.ndarray, ...]:
    """Classify a block of B draws over the smooth full fan coords (a
    universe's (n, 2) int32 array) from their padded keep layout.

    keep holds 1 + B * (n + 1) decisions: True (kept) at position 0, then
    each draw's n keep decisions followed by True, so no run of dropped
    rays crosses into the next draw.  Returns, per draw: the kept ray
    count, the cone count, the largest cone index (0 with no cone), and the
    count of cones of index >= k for each k in ks, as a (B, len(ks))
    matrix.  Every cyclic neighbour pair of the full fan spans a cone of
    index 1, so kept neighbours with nothing dropped between them give unit
    cones; across each maximal run of dropped rays the two flanking kept
    rays span one cone of index wedge(before, after), or none when the gap
    is at least a half turn (wedge <= 0).  A draw with fewer than 2 kept
    rays has no cone.

    The per-position and per-run arrays are views of the buffers in
    scratch, which the caller keeps for all of its blocks, so a block
    reuses the memory of the one before; only the run positions are
    allocated per block.  Memory freed after every block can go back to
    the system and be faulted in again by the next.
    """
    n = len(coords)
    p = len(keep) - 1
    b = p // (n + 1)
    # the runs of the whole block start and stop where the layout changes
    edges = np.flatnonzero(np.not_equal(keep[1:], keep[:-1], out=_buffer(scratch, "change", p, bool)))
    r = len(edges) // 2
    # a row starts at a kept sentinel, so the edges before it pair up into runs
    bounds = np.searchsorted(edges, np.arange(b + 1) * (n + 1))
    bounds //= 2
    s = _buffer(scratch, "s", r + 1, np.int64)  # first dropped column of each run
    e = _buffer(scratch, "e", r + 1, np.int64)  # first kept column after it; n at the row's end
    np.remainder(edges[0::2], n + 1, out=s[:r])
    np.remainder(edges[1::2], n + 1, out=e[:r])
    del edges
    s[r] = e[r] = 0  # the entry past the last run, for _per_row
    kept = n - (_per_row(np.add, e, bounds) - _per_row(np.add, s, bounds))
    # a row's last run through position n - 1 and its first run through 0
    # are one run across the seam: the first takes the last's start, and
    # the last gets wedge 0 below, so it spans no cone
    multi = np.flatnonzero(np.diff(bounds) >= 2)
    first, last = bounds[multi], bounds[multi + 1] - 1
    seam = (s[first] == 0) & (e[last] == n)
    s[first[seam]] = s[last[seam]]
    # w = wedge(c[s - 1], c[e]), positions taken cyclically: the flanking
    # rays are taken into int32 rows, and their products are formed in
    # int64 in the index buffers, which are free by then
    s -= 1
    before, after = (np.take(coords, i, axis=0, mode="wrap",
                             out=_buffer(scratch, name, 2 * r + 2, np.int32).reshape(-1, 2))
                     for i, name in ((s, "before"), (e, "after")))
    w = np.multiply(before[:, 0], after[:, 1], dtype=np.int64, out=s)
    w -= np.multiply(before[:, 1], after[:, 0], dtype=np.int64, out=e)
    w[last[seam]] = w[r] = 0
    runs = np.diff(bounds)
    runs[multi[seam]] -= 1
    unit = kept - runs
    at = _buffer(scratch, "at", r + 1, bool)
    n_cones = unit + _per_row(np.add, np.greater_equal(w, 1, out=at), bounds)
    max_index = np.maximum(_per_row(np.maximum, np.maximum(w, 0, out=e), bounds), n_cones > 0)
    at_least = np.empty((b, len(ks)), dtype=np.int64)
    for j, k in enumerate(ks):
        at_or_above = np.greater_equal(w, min(k, _K_CAP), out=at)
        at_least[:, j] = _per_row(np.add, at_or_above, bounds) + (unit if k == 1 else 0)
    few = kept < 2  # nothing kept, or a lone ray whose neighbour is itself
    n_cones[few] = max_index[few] = at_least[few] = 0
    return kept, n_cones, max_index, at_least


def _block_bytes(positions: int, rows: int, n_ks: int) -> int:
    """Most bytes one worker holds for a block of the given keep positions
    (B * (n + 1) for B draws over n rays) and rows (B): 1 B per position
    for the keep layout and 1 B for its change mask; at most every second
    position starts a dropped run, and a run takes 16 B of edges and 33 B
    of buffers (s and e in int64, the int32 rows of its two flanking rays,
    and one bool); one chunk of raw Philox words; 8 B per row for each of
    16 per-row count arrays and n_ks threshold counts; and 64 KiB for the
    array headers and scalars of a block.  A worker's buffers grow to its
    largest block and are kept, so the bound takes the largest positions
    and rows of the sweep."""
    runs = positions // 2
    per_run = 16 * runs + 33 * (runs + 1)
    return 2 * positions + 1 + per_run + 8 * _MASK_CHUNK + 8 * rows * (16 + n_ks) + (1 << 16)


def _draw_block(coords: np.ndarray, threshold: int, master_seed: int, lo: int, hi: int, ks, scratch: dict):
    """Draw trials lo..hi-1 of one cell at the given keep threshold, with
    one Philox re-keyed for each, straight into one padded keep layout
    held in scratch, and _classify them as one block."""
    n = len(coords)
    keep = _buffer(scratch, "keep", 1 + (hi - lo) * (n + 1), bool)
    keep[0] = True
    rows = keep[1:].reshape(hi - lo, n + 1)
    rows[:, n] = True
    bitgen = np.random.Philox(0)
    for row, t in zip(rows, range(lo, hi)):
        _keep_mask(bitgen, master_seed, t, threshold, row[:n])
    return _classify(coords, keep, ks, scratch)


def _draw_blocks(items) -> list:
    """_draw_block of each item in turn, all with one scratch."""
    scratch: dict = {}
    return [_draw_block(*item, scratch) for item in items]


def run_trial(h: int, q: float, master_seed: int, trial_index: int, k_list) -> TrialRecord:
    """One draw at drop probability q, classified from its dropped runs.

    The draw is sample_fan's (the same keep mask), and the record equals
    the one its Fan would give, but no fan is built: this is the sweep's
    classifier on a block of one trial.
    """
    cfg = SampleConfig(h=h, p=1.0 - q, master_seed=master_seed, trial_index=trial_index)
    ks = [check_int(k, "index threshold", 1) for k in k_list]
    coords = enumerate_rays(cfg.h).coords
    block = _draw_block(coords, _keep_threshold(cfg.p), cfg.master_seed, trial_index, trial_index + 1, ks, {})
    kept, m, max_index, at_least = (a[0].tolist() for a in block)
    return TrialRecord(
        h=h, q=q, trial_index=trial_index, n_rays_drawn=kept,
        n_cones=m, smooth=max_index <= 1, max_index=max_index,
        delta_k={k: Fraction(a, m) if m else None for k, a in zip(ks, at_least)},
    )


def wilson_interval(successes: int, trials: int, z: float = _Z99) -> tuple[float, float]:
    """Wilson score interval for a binomial proportion (99% two-sided default)."""
    if trials < 1 or not 0 <= successes <= trials:
        raise ValidationError(f"need 0 <= successes <= trials, got {successes}/{trials}")
    phat = successes / trials
    z2 = z * z
    denom = 1.0 + z2 / trials
    center = (phat + z2 / (2.0 * trials)) / denom
    half = z * math.sqrt(phat * (1.0 - phat) / trials + z2 / (4.0 * trials * trials)) / denom
    return max(0.0, center - half), min(1.0, center + half)


def _nearest_rank(sorted_vals, frac: float):
    return sorted_vals[max(0, math.ceil(frac * len(sorted_vals)) - 1)]


def _aggregate(h, q, n_cones, max_index, at_least, k_list, c_density) -> SweepRow:
    """The row of one cell from its trials' cone counts, largest indices
    and (trials, len(k_list)) counts of cones of index >= k.

    mean_delta is the exact mean of the defined densities at_least / n_cones,
    floated once: the numerators are summed per denominator, and one
    Fraction sum runs over the distinct denominators.  A density is above
    c_density = P/Q exactly when at_least > floor(P * n_cones / Q).
    """
    t = len(n_cones)
    n_smooth = int(np.count_nonzero(max_index <= 1))
    ci_low, ci_high = wilson_interval(n_smooth, t)
    by_max = np.sort(max_index)
    defined = n_cones > 0
    order = np.argsort(n_cones[defined], kind="stable")
    m = n_cones[defined][order]
    a = at_least[defined][order]
    group = np.flatnonzero(np.diff(m, prepend=0))  # m > 0, so row 0 starts a group
    denominators = m[group].tolist()
    num, den = c_density.as_integer_ratio()
    floors = np.repeat([num * d // den for d in denominators], np.diff(group, append=len(m)))
    above = np.count_nonzero(a > floors[:, None], axis=0).tolist()
    sums = np.add.reduceat(a, group, axis=0).T.tolist()
    mean_delta = {}
    frac_above = {}
    for k, numerators, n_above in zip(k_list, sums, above):
        total = sum(map(Fraction, numerators, denominators), Fraction(0))
        mean_delta[k] = float(total / len(m)) if len(m) else None
        frac_above[k] = n_above / t
    frac_smooth = n_smooth / t
    return SweepRow(
        h=h, q=q, trials=t,
        frac_smooth=frac_smooth, frac_singular=1.0 - frac_smooth,
        wilson_ci_low=ci_low, wilson_ci_high=ci_high,
        n_no_cones=t - len(m),
        max_index_p50=int(_nearest_rank(by_max, 0.5)),
        max_index_p90=int(_nearest_rank(by_max, 0.9)),
        mean_delta=mean_delta, frac_delta_above_c=frac_above,
    )


def _per_block(n: int) -> int:
    """Trials per block of work over n rays."""
    return max(1, _BLOCK_RAYS // n)


def _sweep_bytes(spec: ExperimentSpec, workers: int) -> int:
    """Bytes a sweep holds beyond its universes, from the exact ray counts:
    min(workers, items) threads, each with the _block_bytes of the largest
    block, and 16 B per trial for each of the 3 + len(k_list) counts: 8 B
    for the counts every cell keeps until the end, and as much again for
    the copies made while a cell is aggregated."""
    count = {h: count_geq(h, 1) for h in spec.h_values}
    sizes = [count[h] for h in spec.h_values]
    rows = [min(_per_block(n), spec.trials) for n in sizes]
    items = sum(-(-spec.trials // _per_block(n)) for n in sizes)
    block = _block_bytes(max(r * (n + 1) for r, n in zip(rows, sizes)), max(rows), len(spec.k_list))
    return min(workers, items) * block + 16 * (3 + len(spec.k_list)) * spec.trials * len(sizes)


def run_threshold_sweep(spec: ExperimentSpec, *, workers: int = 1) -> list[SweepRow]:
    """Smooth/singular rates and singular-cone densities across the spec's (h, q) grid.

    One row per grid cell, in grid order.  Per cell and per k, the row also
    reports the mean of the defined densities delta_k and the fraction of
    trials whose density exceeds c_density; cone-free trials count as
    failures there and are tallied in n_no_cones.  run_density_sweep is the
    same function.

    Work items are blocks of max(1, _BLOCK_RAYS // n) trials of one cell, in
    grid order.  The universes of all the spec's distinct heights are held at
    once: their memory is checked together with _sweep_bytes, and each is
    built (and checked by enumerate_rays) once, before the first item runs.
    With workers > 1, at most min(workers, items) threads of one pool serve
    all cells: thread i runs items i, i + threads, ... with one scratch
    (blocks are of about one size), and the results are put back in item
    order.  Each trial's stream is keyed by its index alone, so scheduling
    cannot leak into a row.
    """
    workers = check_int(workers, "workers", 1, MAX_WORKERS)
    heights = list(dict.fromkeys(spec.h_values))
    _check_memory(heights, sweep=_sweep_bytes(spec, workers))
    universes = {h: enumerate_rays(h).coords for h in heights}
    cells = [(h, q, universes[h]) for h, q in zip(spec.h_values, spec.q_values())]
    items, blocks_per_cell = [], []
    for h, q, coords in cells:
        per_block = _per_block(len(coords))
        threshold = _keep_threshold(1.0 - q)
        los = range(0, spec.trials, per_block)
        items += [
            (coords, threshold, spec.master_seed, lo, min(lo + per_block, spec.trials), spec.k_list)
            for lo in los
        ]
        blocks_per_cell.append(len(los))
    threads = min(workers, len(items))
    if threads == 1:
        results = _draw_blocks(items)
    else:
        results = [None] * len(items)
        with ThreadPoolExecutor(max_workers=threads) as pool:
            for i, done in enumerate(pool.map(_draw_blocks, [items[i::threads] for i in range(threads)])):
                results[i::threads] = done
    rows = []
    done = 0
    for (h, q, _), count in zip(cells, blocks_per_cell):
        _, n_cones, max_index, at_least = (np.concatenate(a) for a in zip(*results[done : done + count]))
        done += count
        rows.append(_aggregate(h, q, n_cones, max_index, at_least, spec.k_list, spec.c_density))
    return rows


run_density_sweep = run_threshold_sweep


SWEEP_BASE_COLUMNS = (
    "h", "q", "trials", "frac_smooth", "frac_singular",
    "wilson_ci_low", "wilson_ci_high", "n_no_cones",
    "max_index_p50", "max_index_p90",
)


def sweep_columns(k_list) -> list[str]:
    """Column order for sweep emission: base summary, then per-k pairs."""
    cols = list(SWEEP_BASE_COLUMNS)
    for k in k_list:
        cols.append(f"mean_delta_{int(k)}")
        cols.append(f"frac_delta_{int(k)}_above_c")
    return cols


def sweep_rows_as_dicts(rows, k_list) -> list[dict]:
    """Flatten SweepRows into emit()-ready dicts matching sweep_columns()."""
    out = []
    for r in rows:
        d = {c: getattr(r, c) for c in SWEEP_BASE_COLUMNS}
        for k in k_list:
            k = int(k)
            d[f"mean_delta_{k}"] = r.mean_delta[k]
            d[f"frac_delta_{k}_above_c"] = r.frac_delta_above_c[k]
        out.append(d)
    return out


RAY_COLUMNS = ("x", "y")


def ray_array(universe: RayUniverse) -> dict:
    """Ray export: the columns x and y, views of the universe's coordinates
    in canonical order."""
    c = universe.coords
    return {"x": c[:, 0], "y": c[:, 1]}


class _SupNorm:
    """The sup-norm column of an (n, 2) coordinate array, computed for each
    slice that is read, so the whole column is never held."""

    def __init__(self, coords: np.ndarray):
        self.coords = coords

    def __len__(self) -> int:
        return len(self.coords)

    def __getitem__(self, rows: slice) -> np.ndarray:
        c = self.coords[rows]
        return np.maximum(np.abs(c[:, 0]), np.abs(c[:, 1]))


BLOWDOWN_COLUMNS = ("x", "y", "norm", "k")


def blowdown_array(table: BlowdownTable) -> dict:
    """Full blowdown-table export: the columns x, y, norm and k in canonical
    order; x, y and k are views of the table, and norm is computed per
    slice."""
    c = table.coords
    return {"x": c[:, 0], "y": c[:, 1], "norm": _SupNorm(c), "k": table.k_values}


RATIO_COLUMNS = ("h", "k", "count_geq", "n_h", "ratio", "conjectured")


def conjecture_report(h_values, k_max: int) -> list[dict]:
    """Long-form ratio table: measured fraction of rays with blowdown index
    >= k next to the conjectured limit 2/T_k, for k = 2..k_max per height.

    The counts come from lattice.count_geq with one Moebius sieve up to the
    largest height, so no ray is enumerated and any h <= MAX_H takes well
    under a second.  Heights stay capped at MAX_H, the package's one rule
    for a valid height.  The sieve takes 17 bytes per unit of height
    (1.7 GB at h = 10**8), so lifting the cap would take a segmented sieve
    or a sublinear Mertens recursion, not a larger constant.
    """
    k_max = check_int(k_max, "k_max", 2)
    heights = [_check_height(h) for h in h_values]
    mertens = _mertens(max(heights, default=0))
    rows = []
    for h in heights:
        n = _count_geq(h, 1, mertens)
        for k in range(2, k_max + 1):
            count = _count_geq(h, k, mertens)
            rows.append({
                "h": h, "k": k, "count_geq": count, "n_h": n,
                "ratio": float(Fraction(count, n)),
                "conjectured": float(conjectured_ratio(k)),
            })
    return rows


SPACE_COLUMNS = ("x", "y", "k")


def space_array(h: int) -> dict:
    """Blowdown index of every ray in the closed first quadrant, in angular
    order, as the columns x, y and k; the raw material for shell scatter
    plots.  The universe starts at (1, 0) and has the symmetry of the
    square, so the quadrant up to (0, 1) is its first quarter plus one ray,
    and the columns are views of the table."""
    table = blowdown_table(h)
    quadrant = len(table) // 4 + 1
    c, k = table.coords[:quadrant], table.k_values[:quadrant]
    return {"x": c[:, 0], "y": c[:, 1], "k": k}


def space_report(h: int) -> list[dict]:
    """space_array() as one dict per ray."""
    cols = space_array(h)
    return [dict(zip(SPACE_COLUMNS, r)) for r in zip(*(cols[c].tolist() for c in SPACE_COLUMNS))]


def format_cell(value) -> str:
    """Canonical CSV cell: floats at 6 significant digits, lowercase booleans,
    'null' for missing values, integers verbatim."""
    if value is None:
        return "null"
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating, Fraction)):
        return format(float(value), ".6g")
    return str(value)


def _json_value(value):
    if value is None or isinstance(value, (bool, str)):
        return value
    if isinstance(value, np.bool_):
        return bool(value)
    if isinstance(value, (int, np.integer)):
        return int(value)
    if isinstance(value, (float, np.floating, Fraction)):
        return float(value)
    return value


def _json_cell(value) -> str:
    # nested containers are indented as json.dumps(rows, indent=2) would
    # place them, two levels deep
    return json.dumps(_json_value(value), indent=2, ensure_ascii=False).replace("\n", "\n    ")


#: Rows rendered per block; bounds the temporaries alive at once.
_RENDER_ROWS = 1 << 14

#: Filler of every unused byte of a render field.  0xFF never occurs in
#: UTF-8 text, so deleting it from a block leaves exactly the cells and the
#: literals between them, whatever bytes (NUL among them) a cell holds.
_PAD = 0xFF


def _int_field(col: np.ndarray) -> np.ndarray:
    """Decimal text of an integer column as an (m, w) uint8 field: a sign
    byte when any cell is negative, then the digits, right-aligned.

    The magnitudes are read as uint64 from the two's complement, so -2**63
    (whose int64 absolute value wraps to itself) and uint64 values >= 2**63
    come out exact.
    """
    mag = col.astype(np.int64 if col.dtype.kind == "i" else np.uint64)
    neg = mag < 0
    mag = np.abs(mag, out=mag).view(np.uint64)
    sign = int(neg.any())
    digits = len(str(int(mag.max())))
    field = np.full((len(mag), sign + digits), _PAD, dtype=np.uint8)
    if sign:
        field[neg, 0] = ord("-")
    ten = np.uint64(10)
    q = mag
    for j in range(1, digits + 1):
        rest = q // ten
        digit = q - rest * ten
        digit += ord("0")
        if j > 1:
            digit[q == 0] = _PAD  # no leading zeros
        field[:, -j] = digit
        q = rest
    return field


def _text_field(cells) -> np.ndarray:
    """The UTF-8 bytes of each str cell as an (m, w) uint8 field, left-aligned."""
    data = [c.encode("utf-8", "surrogatepass") for c in cells]
    lengths = np.fromiter(map(len, data), dtype=np.intp, count=len(data))
    field = np.full((len(data), lengths.max()), _PAD, dtype=np.uint8)
    field[np.arange(field.shape[1]) < lengths[:, None]] = np.frombuffer(b"".join(data), dtype=np.uint8)
    return field


def render(table, format: str, *, columns) -> Iterator[bytes]:
    """Render a table to canonical UTF-8, one block of bytes at a time: CSV
    (header + LF lines) or a JSON list.

    table is a mapping from column name to column, all of one length, or a
    sequence of row mappings, which is transposed into columns.  A column
    is anything that slicing turns into an array or a list: an array view,
    a list, or a column computed per slice such as a sup norm.  The format
    and the columns are checked when render is called; the blocks are made
    as they are read.  A block of _RENDER_ROWS rows is one padded byte
    matrix: each column becomes an (m, w) uint8 field, an integer array
    digit by digit in numpy, any other column cell by cell (format_cell for
    CSV, plain JSON values for JSON) and UTF-8 encoded.  The row's fixed
    literals (commas and newlines, or the JSON keys) are broadcast between
    the fields, and deleting the pad byte from the matrix leaves the block.
    No Python object is made per integer cell.  Joined, the blocks are
    exactly json.dumps(list_of_row_dicts, indent=2, ensure_ascii=False)
    for JSON.
    """
    if format not in FORMATS:
        raise ValidationError(f"format must be one of {FORMATS}, got {format!r}")
    columns = list(columns)
    if isinstance(table, Mapping):
        cols = [table[c] for c in columns]
        n = len(next(iter(table.values()), ()))
        if any(len(col) != n for col in table.values()):
            raise ValidationError(f"table columns differ in length: {[len(col) for col in table.values()]}")
    else:
        table = list(table)
        cols = [[row[c] for row in table] for c in columns]
        n = len(table)
    # the literal before each column's cell, and the one that ends a row
    if format == "csv":
        leads, end = ["," if j else "" for j in range(len(columns))], "\n"
    else:
        keys = [json.dumps(c, ensure_ascii=False) for c in columns]
        leads = [f"{',' if j else '  {'}\n    {k}: " for j, k in enumerate(keys)]
        end = "\n  },\n" if keys else "  {},\n"
    leads = [np.frombuffer(s.encode("utf-8", "surrogatepass"), dtype=np.uint8) for s in leads]
    end = np.frombuffer(end.encode("utf-8", "surrogatepass"), dtype=np.uint8)
    encode = format_cell if format == "csv" else _json_cell

    def blocks():
        if format == "csv":
            yield (",".join(columns) + "\n").encode("utf-8", "surrogatepass")
        elif n:
            yield b"[\n"
        else:
            yield b"[]\n"
        for lo in range(0, n, _RENDER_ROWS):
            m = min(_RENDER_ROWS, n - lo)
            parts = []
            for col, lead in zip(cols, leads):
                col = col[lo : lo + m]
                parts.append(np.broadcast_to(lead, (m, len(lead))))
                if isinstance(col, np.ndarray) and col.dtype.kind in "iu":
                    parts.append(_int_field(col))
                else:
                    parts.append(_text_field([encode(v) for v in col]))
            parts.append(np.broadcast_to(end, (m, len(end))))
            block = np.concatenate(parts, axis=1).tobytes().translate(None, bytes([_PAD]))
            del parts  # the fields are not held while the block is written
            if format == "json" and lo + m == n:
                block = block[:-2] + b"\n]\n"  # the last row takes no ",\n"
            yield block

    return blocks()


def write_blocks(path, blocks) -> None:
    """Atomic write of byte blocks: a temp file in the target directory,
    written block by block, then renamed onto path.

    A write that fails or is interrupted, an exception raised while the
    blocks are made among them, never leaves a partial file at the target
    path, and the temp file is removed.
    """
    path = os.fspath(path)
    directory = os.path.dirname(os.path.abspath(path)) or "."
    tmp = None
    try:
        fd, tmp = tempfile.mkstemp(dir=directory, prefix=".emit-", suffix=".part")
        with os.fdopen(fd, "wb") as fh:
            for block in blocks:
                fh.write(block)
        os.replace(tmp, path)
        tmp = None
    except OSError as exc:
        raise OSError(f"cannot write {path}: {exc}") from exc
    finally:
        if tmp is not None:
            try:
                os.unlink(tmp)
            except OSError:
                pass


def emit(rows, format: str, path, *, columns) -> None:
    """Render rows and stream the blocks atomically into path.

    Equal inputs produce byte-identical files: fixed column order, canonical
    cell formatting, LF newlines, UTF-8, and a header-only file for an empty
    row list.  A bad format or column is refused before the temp file is
    made.
    """
    write_blocks(path, render(rows, format, columns=columns))
