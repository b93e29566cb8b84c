"""Monte Carlo sweeps: specs, trials, classification and aggregation.

A sweep is a grid of (height, drop-probability) cells, each aggregated from
a fixed number of seeded trials into one SweepRow: run_threshold_sweep
plans it and _draw_trials runs its trials, and README "Sweeps" tells how.
sweep_columns() and sweep_rows_as_dicts() lay the rows out as a table for
randfan.emission, which renders and writes every output.  A sweep builds no
Fan and loads neither randfan.fans nor a thread pool module: its threads
are plain threading.Threads, and the calling thread is the first of them.
"""

from __future__ import annotations

import math
import os
import threading
from collections import Counter
from dataclasses import dataclass, field, fields

import numpy as np

from .emission import FORMATS, _check_path, _read_json
from .errors import ValidationError, brief, check_int, check_real
from .lattice import (
    _check_bytes, _check_height, _circle_ray, _octant, _universe_bytes, _wedge, count_geq, enumerate_rays,
)
from .sampling import _BLOCK_RAYS, UINT64_MAX, _keep_threshold, _trial_words

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
        raise ValidationError(f"{name} must be a non-empty list, got {brief(values)}")
    return list(values)


@dataclass(frozen=True)
class ExperimentSpec:
    """Configuration of one seeded sweep.

    q_schedule is either a PowerSchedule or an explicit list of values
    aligned with h_values; values are clamped to [0, 1].  regime selects
    whether the schedule value drives the drop probability q directly
    ("q-small") or its complement 1 - q ("q-large", the almost-everything-
    dropped end).  output, when set, is {"path": ..., "format": "csv"|"json"},
    the path non-empty and free of NUL bytes.
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
            raise ValidationError(f"regime must be 'q-small' or 'q-large', got {brief(self.regime)}")
        ks = _nonempty_list(self.k_list, "k_list")
        object.__setattr__(self, "trials", check_int(self.trials, "trials", 1))
        object.__setattr__(self, "k_list", [check_int(k, "k_list entry", 1) for k in ks])
        if repeated := [k for k, count in Counter(self.k_list).items() if count > 1]:
            raise ValidationError(f"k_list must name each k once, got {brief(repeated)} more than once")
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
            _check_path(self.output["path"])

    def q_values(self) -> list[float]:
        """Drop probability per height: schedule value or its complement."""
        if isinstance(self.q_schedule, PowerSchedule):
            vals = [self.q_schedule.value(h) for h in self.h_values]
        else:
            vals = [min(1.0, v) for v in self.q_schedule]
        return vals if self.regime == "q-small" else [1.0 - v for v in vals]


def spec_from_dict(doc) -> ExperimentSpec:
    """Build a spec from a plain document whose keys match the field names.

    Only the document's shape is checked here; the values go unconverted to
    ExperimentSpec and PowerSchedule, which validate them.
    """
    if not isinstance(doc, dict):
        raise ValidationError("experiment spec must be a mapping")
    unknown = set(doc) - {f.name for f in fields(ExperimentSpec)}
    if unknown:
        raise ValidationError(f"unknown spec fields: {brief(sorted(unknown))}")
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
    return spec_from_dict(_read_json(path))


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


#: Most worker threads a sweep may be asked for.
MAX_WORKERS = 64

#: Wedges are at most 2 * MAX_H**2 < 2**62, so a larger k counts as 2**62
#: and every index comparison stays within int64.
_K_CAP = 1 << 62


def _per_row(ufunc, values: np.ndarray, bounds: np.ndarray) -> np.ndarray:
    """ufunc.reduceat of values over the row segments bounds[i]:bounds[i + 1],
    and 0 for an empty segment.  values has an entry at every bounds[i] but
    the last, so every segment starts at an index of it."""
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


def _wedges(rays: np.ndarray, s: np.ndarray, e: np.ndarray, scratch: dict) -> np.ndarray:
    """wedge(rays[s], rays[e]) of the positions s and e of the rays flanking
    each dropped run, taken modulo len(rays), written over s; e is
    overwritten too.  The rays are taken into int32 rows of scratch, and
    their products are formed in int64 in the index buffers, which are free
    by then."""
    before, after = (np.take(rays, i, axis=0, mode="wrap",
                             out=_buffer(scratch, name, 2 * len(s), np.int32).reshape(-1, 2))
                     for i, name in ((s, "before"), (e, "after")))
    return _wedge(before, after, out=s, spare=e)


def _octant_wedges(octant: np.ndarray, s: np.ndarray, e: np.ndarray, scratch: dict) -> np.ndarray:
    """wedge(c[s - 1], c[e]) of the dropped runs s..e - 1 over the circle c
    of n = 8q rays unfolded from the checked octant of q + 1 rays
    (lattice._octant), read from the octant: the runs are disjoint and in
    row order, save that the last may be the run across the seam, which
    ends before it starts.

    Sector j of the circle, positions jq to jq + q - 1, is the octant turned
    by j // 2 quarter turns, and in odd sectors first reflected across
    y = x, so that its t-th ray is octant[q - t] (lattice._circle_ray).  One
    searchsorted on e splits the runs by the sector of their end.  A run in
    sector j takes its flanking rays from the octant at t = s - 1 - jq and
    t = e - jq, at q - t in an odd sector, whose reflection (of determinant
    -1) negates the wedge; the turns keep it.  Only the first run of a
    sector can start in an earlier one, and only the seam run wraps: those
    few are mapped ray by ray."""
    q = len(octant) - 1
    s -= 1
    r = len(s)
    m = r - int(r > 0 and e[-1] <= s[-1])  # the runs in row order
    bounds = [*np.searchsorted(e[:m], np.arange(8) * q).tolist(), m]
    # (run, before, after) of the runs across a sector start or the seam
    mapped = [(i, int(s[i]), int(e[i])) for i in range(m, r)]
    for j in range(8):
        a, z = bounds[j], bounds[j + 1]
        if a < z and s[a] < j * q:
            mapped.append((a, int(s[a]), int(e[a])))
        for x in (s[a:z], e[a:z]):
            if j % 2:
                np.subtract((j + 1) * q, x, out=x)
            elif j:
                x -= j * q
    w = _wedges(octant, s, e, scratch)  # only the mapped runs' positions may be out of range
    for j in range(1, 8, 2):
        np.negative(w[bounds[j] : bounds[j + 1]], out=w[bounds[j] : bounds[j + 1]])
    for i, b, f in mapped:
        (ux, uy), (vx, vy) = _circle_ray(octant, b), _circle_ray(octant, f)
        w[i] = ux * vy - uy * vx
    return w


def _wedge_counts(w: np.ndarray, bounds: np.ndarray, ks, scratch: dict) -> tuple[np.ndarray, ...]:
    """Per row segment of the run wedges w (see _per_row): the runs that
    span a cone, the largest wedge (0 with none), and the runs of wedge >= k
    for each k in ks as a (rows, len(ks)) matrix.  A gap of a half turn or
    more (wedge <= 0) spans no cone; w is clamped to 0 in place."""
    np.maximum(w, 0, out=w)
    at = _buffer(scratch, "at", len(w), bool)
    cones = _per_row(np.add, np.greater_equal(w, 1, out=at), bounds)
    top = _per_row(np.maximum, w, bounds)
    at_least = np.empty((len(bounds) - 1, len(ks)), dtype=np.int64)
    for j, k in enumerate(ks):
        at_least[:, j] = _per_row(np.add, np.greater_equal(w, min(k, _K_CAP), out=at), bounds)
    return cones, top, at_least


def _row_counts(n: int, dropped, runs, cones, top, at_least, ks) -> tuple[np.ndarray, ...]:
    """Each draw's (kept, cones, largest index, cones of index >= k) from
    its dropped rays, its cyclic dropped runs and their _wedge_counts.
    Every cyclic neighbour pair of the full fan spans a cone of index 1, so
    the kept - runs kept neighbours with nothing dropped between them give
    unit cones.  A draw with fewer than 2 kept rays has no cone."""
    kept = n - dropped
    unit = kept - runs
    n_cones = unit + cones
    max_index = np.maximum(top, n_cones > 0)
    at_least[:, [k == 1 for k in ks]] += unit[:, None]
    few = kept < 2  # nothing kept, or a lone ray whose neighbour is itself
    n_cones[few] = max_index[few] = at_least[few] = 0
    return kept, n_cones, max_index, at_least


def _classify(coords: np.ndarray, keep: np.ndarray, ks, scratch: dict) -> tuple[np.ndarray, ...]:
    """Classify a block of B draws over the smooth full fan coords (a
    universe's (n, 2) int32 array) from their padded keep layout.

    keep holds 1 + B * (n + 1) decisions: True (kept) at position 0, then
    each draw's n keep decisions followed by True, so no run of dropped
    rays crosses into the next draw.  Returns, per draw: the kept ray
    count, the cone count, the largest cone index (0 with no cone), and the
    count of cones of index >= k for each k in ks, as a (B, len(ks))
    matrix.  Kept neighbours with nothing dropped between them give unit
    cones (_row_counts); across each maximal run of dropped rays the two
    flanking kept rays span one cone of index wedge(before, after), or
    none when the gap is at least a half turn (wedge <= 0).

    The per-position and per-run arrays are views of the buffers in
    scratch, which the caller keeps from block to block (_THREAD_BYTES).
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
    runs = np.diff(bounds)  # dropped runs per row
    # no run crosses a row, so a run's columns are its edges less its row's start
    offset = np.repeat(np.arange(b) * (n + 1), runs)
    s = _buffer(scratch, "s", r + 1, np.int64)  # first dropped column of each run
    e = _buffer(scratch, "e", r + 1, np.int64)  # first kept column after it; n at the row's end
    np.subtract(edges[0::2], offset, out=s[:r])
    np.subtract(edges[1::2], offset, out=e[:r])
    del edges, offset
    s[r] = e[r] = 0  # the entry past the last run, for _per_row
    dropped = _per_row(np.add, e, bounds) - _per_row(np.add, s, bounds)
    # a row's last run through position n - 1 and its first run through 0
    # are one run across the seam: the first takes the last's start, and
    # the last gets wedge 0, so it spans no cone
    multi = np.flatnonzero(runs >= 2)
    first, last = bounds[multi], bounds[multi + 1] - 1
    seam = (s[first] == 0) & (e[last] == n)
    s[first[seam]] = s[last[seam]]
    s -= 1  # the kept ray before each run
    w = _wedges(coords, s, e, scratch)
    w[last[seam]] = w[r] = 0
    runs[multi[seam]] -= 1
    return _row_counts(n, dropped, runs, *_wedge_counts(w, bounds, ks, scratch), ks)


def _bin(coords: np.ndarray, threshold: np.uint64, rows: int, ks, scratch: dict):
    """The lane of a row of at most _BLOCK_RAYS rays over coords (see
    _draw_trials): trials are compared into the given rows of one padded
    keep layout (see _classify), classified together when full or flushed."""
    n = len(coords)
    keep = np.ones(1 + rows * (n + 1), dtype=bool)  # the kept sentinels are set once
    layout = keep[1:].reshape(rows, n + 1)[:, :n]
    columns = np.empty(rows, dtype=np.int64)
    filled, answer = 0, None
    while True:
        item, answer = (yield answer), None
        if item is not None:
            np.less(item[0][:n], threshold, out=layout[filled])
            columns[filled] = item = item[1]  # no lane holds a window past its comparison (_THREAD_BYTES)
            filled += 1
        if filled == rows or (filled and item is None):  # full, or flushed
            answer = columns[:filled], _classify(coords, keep[: 1 + filled * (n + 1)], ks, scratch)
            filled = 0


def _stream_row(octant: np.ndarray, threshold: np.uint64, ks, scratch: dict):
    """The lane of a row of n = 8 * (len(octant) - 1) > _BLOCK_RAYS rays
    (see _draw_trials): each window is compared into the lane's keep window
    and scanned, and the row's counts are answered at its last window.  The
    keep window and the s and e run buffers are made once, the other
    buffers are shared through scratch (_lane_bytes), and the circle
    unfolded from octant is never built: the runs' wedges are read from it
    (_octant_wedges).

    A window holds the previous window's last decision (a kept one before
    column 0), then its own, and at the row's end a kept sentinel at column
    n, as a row of _classify's layout.  Where a window changes are the
    starts and ends of dropped runs, in row columns, appended to s and e,
    which hold a window's runs (at most one per two positions), the run
    still open before it and the seam's run.  When a window's starts would
    not fit, the complete runs held are classified, their counts added to
    the row's, and the open run moves to the front.  The end of the leading
    run through column 0 is kept to the row's end and closed there with the
    trailing run through column n - 1: the one run across the seam that
    _classify forms.
    """
    n = 8 * (len(octant) - 1)
    keep = np.ones(_BLOCK_RAYS + 2, dtype=bool)  # keep[0]: kept before column 0
    s = np.empty(_BLOCK_RAYS // 2 + 3, dtype=np.int64)
    e = np.empty_like(s)

    def classify(r, end):
        # add the complete runs s[:r], e[:r] to the row's counts
        nonlocal dropped, runs, lead
        dropped += int(e[:r].sum() - s[:r].sum())
        first = 0
        if r and s[0] == 0:  # the leading run: closed at the row's end
            lead, first = int(e[0]), 1
        if end:  # the trailing run, or column n - 1, is followed by column lead
            if r > first and e[r - 1] == n:
                e[r - 1] = lead
            elif lead:
                s[r], e[r] = n, lead
                r += 1
        runs += r - first
        if r > first:
            w = _octant_wedges(octant, s[first:r], e[first:r], scratch)
            cones, top, at_least = _wedge_counts(w, np.array([0, r - first]), ks, scratch)
            counts[0] += cones
            np.maximum(counts[1], top, out=counts[1])
            counts[2] += at_least

    lo, answer = 0, None
    while True:
        item, answer = (yield answer), None
        if item is None:  # a flush: no row is open between trials
            continue
        if not lo:  # the row's first window
            counts = [np.zeros(1, dtype=np.int64), np.zeros(1, dtype=np.int64), np.zeros((1, len(ks)), dtype=np.int64)]
            dropped = runs = lead = ns = ne = 0  # ns starts and ne ends in s and e; a run is open when ns > ne
        m = min(_BLOCK_RAYS, n - lo)
        np.less(item[0][:m], threshold, out=keep[1 : m + 1])
        column, item = item[1], None  # no lane holds a window past its comparison (_THREAD_BYTES)
        end = lo + m == n
        keep[m + 1] = True  # the sentinel, read only at the row's end
        change = _buffer(scratch, "change", _BLOCK_RAYS + 1, bool)
        edges = np.flatnonzero(np.not_equal(keep[1 : m + 1 + end], keep[: m + end], out=change[: m + end]))
        edges += lo
        keep[0] = keep[m + end]  # the window's last decision, or the sentinel before the next row
        odd = ns > ne  # the first edge ends the open run
        starts, ends = edges[odd::2], edges[1 - odd :: 2]
        if ns + len(starts) >= len(s):  # one entry stays free for the seam's run
            classify(ne, False)  # the row's last run is never classified here
            s[0] = s[ne]  # the open run's start, if one is
            ns, ne = ns - ne, 0
        s[ns : ns + len(starts)] = starts
        e[ne : ne + len(ends)] = ends
        ns, ne = ns + len(starts), ne + len(ends)
        lo += m
        if end:
            classify(ne, True)
            answer, lo = ([column], _row_counts(n, np.array([dropped]), np.array([runs]), *counts, ks)), 0


def _draw_trials(lanes, master_seed: int, trials, ks, out, first: int = 0) -> None:
    """Draw each trial t that trials yields once, and classify it in every
    lane: lanes holds one (n, rays, keep threshold, bin rows) per cell, the
    rays being the universe's coordinates for a row of at most _BLOCK_RAYS
    rays, its first octant (lattice._octant) for a longer one, and None at
    p = 1, and lane j's counts of trial t (kept, cones, largest index,
    cones of index >= k) go into out[j, t - first] of out's four arrays.

    Every cell's trial t reads the stream keyed (master_seed, t), so one
    Philox, re-keyed once per trial, serves them all: the trial's words are
    read once, in windows of _BLOCK_RAYS up to the longest row of any lane
    with p < 1, and each window goes to every lane whose row reaches it: a
    started generator, a _bin or a _stream_row, whose send((words, column))
    compares its share of the window into its own buffer, scans it and
    answers None, or (columns, counts) once a bin fills or a streamed row
    ends; send(None) flushes a part-filled bin.  A lane at p = 1 reads no
    word: it gets the full fan's counts.
    """
    scratch = {}
    bitgen = np.random.Philox(0)
    full, drawing = [], []
    for j, (n, rays, threshold, rows) in enumerate(lanes):
        if threshold > UINT64_MAX:
            zero = np.zeros(1, dtype=np.int64)
            full.append((j, _row_counts(n, zero, zero, zero, zero, np.zeros((1, len(ks)), np.int64), ks)))
        else:
            lane = (_bin(rays, np.uint64(threshold), rows, ks, scratch) if n <= _BLOCK_RAYS
                    else _stream_row(rays, np.uint64(threshold), ks, scratch))
            next(lane)  # started: its first send is a window
            drawing.append((j, n, lane))
    longest = max((n for _, n, _ in drawing), default=0)

    def put(j, columns, counts):
        for a, c in zip(out, counts):
            a[j, columns] = c

    for t in trials:
        for j, counts in full:
            put(j, [t - first], counts)
        windows = _trial_words(bitgen, master_seed, t, longest, _BLOCK_RAYS)
        for lo, words in zip(range(0, longest, _BLOCK_RAYS), windows):  # none, and no re-key, when no lane draws
            for j, n, lane in drawing:
                if lo < n and (answer := lane.send((words, t - first))):
                    put(j, *answer)
    for j, _, lane in drawing:
        if answer := lane.send(None):
            put(j, *answer)


def wilson_interval(successes: int, trials: int) -> tuple[float, float]:
    """Wilson score interval for a binomial proportion, 99% two-sided."""
    if trials < 1 or not 0 <= successes <= trials:
        raise ValidationError(f"need 0 <= successes <= trials, got {successes}/{trials}")
    phat = successes / trials
    z2 = _Z99 * _Z99
    denom = 1.0 + z2 / trials
    center = (phat + z2 / (2.0 * trials)) / denom
    half = _Z99 * math.sqrt(phat * (1.0 - phat) / trials + z2 / (4.0 * trials * trials)) / denom
    return max(0.0, center - half), min(1.0, center + half)


def _nearest_rank(sorted_vals, frac: float):
    return sorted_vals[max(0, math.ceil(frac * len(sorted_vals)) - 1)]


def _exact_mean(numerators, denominators, count: int) -> float:
    """The sum of the fractions numerators[i] / denominators[i], over count,
    as the float nearest to it: one integer sum over the least common
    multiple of the denominators, and one int / int division, which Python
    rounds correctly."""
    lcm = math.lcm(*denominators)
    return sum(a * (lcm // d) for a, d in zip(numerators, denominators)) / (lcm * count)


def _aggregate(h, q, n_cones, max_index, at_least, k_list, c_density) -> SweepRow:
    """The row of one cell from its trials' cone counts, largest indices
    and (trials, len(k_list)) counts of cones of index >= k.

    mean_delta is the exact mean of the defined densities at_least / n_cones
    (_exact_mean), with the numerators summed per denominator first.  A
    density is above c_density = P/Q exactly when at_least > floor(P *
    n_cones / Q).
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
        mean_delta[k] = _exact_mean(numerators, denominators, len(m)) if len(m) else None
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


#: Bytes a sweep thread holds, past its lanes' (_lane_bytes), for a block of
#: up to _BLOCK_RAYS + 2 keep positions (a streamed row's window, or a bin's
#: layout less its rows' extra positions): per position, 1 B of change mask
#: and 8 B of the edges found at once, and per dropped run (at most one per
#: two positions) 41 B: s and e in int64, 8 B of row offset, the int32 rows
#: of its two flanking rays and one bool; a window of raw Philox words (two
#: while the next is drawn, when no edges are held); 64 KiB of headers.
_THREAD_BYTES = 59 * (_BLOCK_RAYS + 2) // 2 + 8 * _BLOCK_RAYS + (1 << 16)


def _lane_bytes(rows: int, n_ks: int) -> int:
    """Bytes a sweep thread holds, past _THREAD_BYTES, for one lane that
    draws, with the given bin rows and n_ks = len(k_list): its keep layout of
    rows * (n + 1) + 1 <= _BLOCK_RAYS + rows + 1 positions (or a streamed
    row's window of _BLOCK_RAYS + 2), its s and e run buffers of one
    window's runs plus one (_stream_row), and per row, 30 B for the row's
    position past _THREAD_BYTES' block and 8 B for its trial and each of 16
    per-row count arrays and n_ks threshold counts.  A thread keeps its
    buffers from block to block and each lane's bin or _stream_row from
    trial to trial, so _THREAD_BYTES plus the sum over its lanes bounds it;
    no term grows with n once a row is streamed."""
    return _BLOCK_RAYS + rows + 1 + 16 * (_BLOCK_RAYS // 2 + 3) + rows * (30 + 8 * (17 + n_ks))


def _sweep_plan(spec: ExperimentSpec, workers: int) -> tuple[list, list, int, int, dict]:
    """The work of a sweep, by arithmetic on the exact ray counts before any
    ray is built: the cells (h, q) in grid order; their lanes (h, n, keep
    threshold, bin rows) for _draw_trials, with min(trials, max(1,
    _BLOCK_RAYS // n)) rows in a bin; the thread count, min(workers, trials),
    one trial being one work item; the bytes the sweep holds: the rays that
    the lanes that draw read (_universe_bytes of a universe of at most
    _BLOCK_RAYS rays, or of a longer one's octant), each thread's
    _THREAD_BYTES and _lane_bytes, and per trial, at most 16 B for each of
    the 3 + len(k_list) counts of each cell (8 B for the counts, kept to the
    end, and 8 B for the copies made to aggregate a cell); and {h: built as
    an octant?} for the heights that draw."""
    sizes = {h: count_geq(h, 1) for h in spec.h_values}
    cells = list(zip(spec.h_values, spec.q_values()))
    lanes = [(h, sizes[h], _keep_threshold(1.0 - q), min(spec.trials, max(1, _BLOCK_RAYS // sizes[h])))
             for h, q in cells]
    drawing = [(h, rows) for h, _, threshold, rows in lanes if threshold <= UINT64_MAX]
    octant = {h: sizes[h] > _BLOCK_RAYS for h, _ in drawing}
    rays = _universe_bytes([h for h, o in octant.items() if not o], [h for h, o in octant.items() if o])
    per_thread = _THREAD_BYTES + sum(_lane_bytes(rows, len(spec.k_list)) for _, rows in drawing) if drawing else 0
    threads = min(workers, spec.trials)
    counts = 16 * (3 + len(spec.k_list)) * spec.trials * len(cells)
    return cells, lanes, threads, rays + threads * per_thread + counts, octant


def run_threshold_sweep(spec: ExperimentSpec, *, workers: int = 1) -> list[SweepRow]:
    """Smooth/singular rates and singular-cone densities across the spec's (h, q) grid.

    One row per grid cell, in grid order.  Per cell and per k, the row also
    reports the mean of the defined densities delta_k and the fraction of
    trials whose density exceeds c_density; cone-free trials count as
    failures there and are tallied in n_no_cones.  run_density_sweep is the
    same function.

    The plan's bytes (_sweep_plan) are checked before any ray is built.
    Each height's rays are built once, and the plan's threads, the calling
    thread and threads - 1 started ones, run _draw_trials on all cells, a
    trial at a time.  After a failure no thread takes another trial, and
    the first failure is raised once all have ended.  A trial's stream is
    keyed by its index alone, so neither window size, scheduling nor finish
    order can leak into a row.
    """
    workers = check_int(workers, "workers", 1, MAX_WORKERS)
    cells, lanes, threads, plan_bytes, octant = _sweep_plan(spec, workers)
    heights = list(dict.fromkeys(spec.h_values))
    which = f"height {heights[0]} needs" if len(heights) == 1 else f"heights {', '.join(map(str, heights))} need"
    _check_bytes(plan_bytes, which, "to run the sweep")
    rays = {h: _octant(h) if o else enumerate_rays(h).coords for h, o in octant.items()}
    lanes = [(n, rays.get(h), threshold, rows) for h, n, threshold, rows in lanes]
    counts = np.empty((3, len(cells), spec.trials), dtype=np.int64)
    at_least = np.empty((len(cells), spec.trials, len(spec.k_list)), dtype=np.int64)
    trials = iter(range(spec.trials))
    lock = threading.Lock()
    failures, started = [], []

    def next_trial():
        with lock:  # two threads may not advance one iterator at once
            return None if failures else next(trials, None)

    def work():
        try:
            _draw_trials(lanes, spec.master_seed, iter(next_trial, None), spec.k_list, (*counts, at_least))
        except Exception as exc:  # raised on the calling thread once every thread has ended
            failures.append(exc)

    try:
        for _ in range(threads - 1):
            thread = threading.Thread(target=work)
            thread.start()
            started.append(thread)
        work()  # the calling thread is the first worker
    finally:
        for thread in started:
            thread.join()
    if failures:
        raise failures[0]
    _, n_cones, max_index = counts
    return [_aggregate(h, q, n_cones[i], max_index[i], at_least[i], spec.k_list, spec.c_density)
            for i, (h, q) in enumerate(cells)]


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
