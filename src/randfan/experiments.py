"""Monte Carlo sweeps, report tables, and deterministic CSV/JSON emission.

A sweep is a grid of (height, drop-probability) cells; each cell runs a fixed
number of seeded trials (one draw per trial, keyed by master_seed and the
trial index alone) and aggregates them into a single summary row.  A trial is
classified from its dropped runs: the full fan is smooth (enumerate_rays
checks that once per universe), so a draw differs from it only where maximal
runs of consecutive rays were dropped, and no fan is built.  Trials are
drawn and classified in blocks, and a cell is aggregated from count arrays.
Trial RNG streams never depend on block size, worker count or scheduling,
and rows are emitted in grid order with a canonical number format, so a
sweep's output is byte-identical across runs and thread pools.

Report builders for the deterministic tables (ray and blowdown exports,
ratio tables, first-quadrant shells) live here too, sharing the same
emission path.  Tables are emitted column-wise: the large exports hand their
coordinate, norm and index arrays to render() as one structured array, an
integer column is formatted in bulk, and row dicts are transposed onto the
same path.  The byte format (canonical cells, LF newlines, atomic write) is
the same for every table.
"""

from __future__ import annotations

import json
import math
import os
import tempfile
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .blowdown import BlowdownTable, blowdown_table, conjectured_ratio
from .errors import ValidationError, check_int, check_real
from .lattice import RayUniverse, _check_height, _check_memory, _count_geq, _mertens, enumerate_rays
from .sampling import UINT64_MAX, SampleConfig, _keep_mask, _keep_threshold

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
#: max(1, _BLOCK_RAYS // n) trials at a time, so no temporary scales with h.
_BLOCK_RAYS = 1 << 16

#: Most worker threads a sweep may be asked for.
MAX_WORKERS = 64

#: Wedges are at most 2 * MAX_H**2 < 2**62, so a larger k counts as 2**62
#: and every index comparison stays within int64.
_K_CAP = 1 << 62


def _per_row(ufunc, values: np.ndarray, bounds: np.ndarray) -> np.ndarray:
    """ufunc.reduceat of values over the row segments bounds[i]:bounds[i + 1],
    and 0 for an empty segment."""
    out = ufunc.reduceat(np.append(values, 0), bounds[:-1], dtype=np.int64)
    out[bounds[:-1] == bounds[1:]] = 0
    return out


def _classify(coords: np.ndarray, dropped: np.ndarray, ks) -> tuple[np.ndarray, ...]:
    """Classify a block of draws over the smooth full fan coords from their
    (B, n) drop matrix, one draw per row.

    Returns, per row: the kept ray count, the cone count, the largest cone
    index (0 with no cone), and the count of cones of index >= k for each k
    in ks, as a (B, len(ks)) matrix.  Every cyclic neighbour pair of the
    full fan spans a cone of index 1, so kept neighbours with nothing
    dropped between them give unit cones; across each maximal run of
    dropped rays the two flanking kept rays span one cone of index
    wedge(before, after), or none when the gap is at least a half turn
    (wedge <= 0).  A row with fewer than 2 kept rays has no cone.
    """
    b, n = dropped.shape
    # a kept ray before the block and a kept sentinel column after every
    # row, so no run crosses into the next row; the runs of the whole block
    # start and stop where the flat mask changes
    flat = np.zeros(1 + b * (n + 1), dtype=bool)
    flat[1:].reshape(b, n + 1)[:, :n] = dropped
    edges = np.flatnonzero(flat[1:] != flat[:-1])
    bounds = np.searchsorted(edges[0::2], np.arange(b + 1) * (n + 1))
    offset = np.repeat(np.arange(b) * (n + 1), np.diff(bounds))
    s = edges[0::2] - offset  # first dropped column of each run
    e = edges[1::2] - offset  # first kept column after it; n at the row's end
    del flat, edges, offset  # freed before the per-run arrays: they set the sweep's peak memory
    kept = n - _per_row(np.add, e - s, bounds)
    # a row's last run through position n - 1 and its first run through 0
    # are one run across the seam: keep it as the first, from the last's start
    multi = np.flatnonzero(np.diff(bounds) >= 2)
    first, last = bounds[multi], bounds[multi + 1] - 1
    seam = (s[first] == 0) & (e[last] == n)
    s[first[seam]] = s[last[seam]]
    s, e = np.delete(s, last[seam]), np.delete(e, last[seam])
    bounds = bounds - np.searchsorted(last[seam], bounds)
    before = np.take(coords, s - 1, axis=0, mode="wrap")
    after = np.take(coords, e, axis=0, mode="wrap")
    w = before[:, 0] * after[:, 1] - before[:, 1] * after[:, 0]
    unit = kept - np.diff(bounds)
    n_cones = unit + _per_row(np.add, w >= 1, bounds)
    max_index = np.maximum(_per_row(np.maximum, np.maximum(w, 0), bounds), n_cones > 0)
    at_least = np.empty((b, len(ks)), dtype=np.int64)
    for j, k in enumerate(ks):
        at_least[:, j] = _per_row(np.add, w >= min(k, _K_CAP), bounds) + (unit if k == 1 else 0)
    few = kept < 2  # nothing kept, or a lone ray whose neighbour is itself
    n_cones[few] = max_index[few] = at_least[few] = 0
    return kept, n_cones, max_index, at_least


def _draw_block(coords: np.ndarray, threshold: int, master_seed: int, lo: int, hi: int, ks):
    """Draw trials lo..hi-1 of one cell at the given keep threshold, with
    one Philox re-keyed for each, and _classify them as one block."""
    keep = np.empty((hi - lo, len(coords)), dtype=bool)
    bitgen = np.random.Philox(0)
    for row, t in enumerate(range(lo, hi)):
        _keep_mask(bitgen, master_seed, t, threshold, keep[row])
    return _classify(coords, np.logical_not(keep, out=keep), ks)


def run_trial(h: int, q: float, master_seed: int, trial_index: int, k_list) -> TrialRecord:
    """One draw at drop probability q, classified from its dropped runs.

    The draw is sample_fan's (the same keep mask), and the record equals
    the one its Fan would give, but no fan is built: this is the sweep's
    classifier on a block of one trial.
    """
    cfg = SampleConfig(h=h, p=1.0 - q, master_seed=master_seed, trial_index=trial_index)
    ks = [check_int(k, "index threshold", 1) for k in k_list]
    coords = enumerate_rays(cfg.h).coords
    block = _draw_block(coords, _keep_threshold(cfg.p), cfg.master_seed, trial_index, trial_index + 1, ks)
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


def run_threshold_sweep(spec: ExperimentSpec, *, workers: int = 1) -> list[SweepRow]:
    """Smooth/singular rates and singular-cone densities across the spec's (h, q) grid.

    One row per grid cell, in grid order.  Per cell and per k, the row also
    reports the mean of the defined densities delta_k and the fraction of
    trials whose density exceeds c_density; cone-free trials count as
    failures there and are tallied in n_no_cones.  run_density_sweep is the
    same function.

    Work items are blocks of max(1, _BLOCK_RAYS // n) trials of one cell, in
    grid order.  The universes of all the spec's distinct heights are held at
    once: their memory is checked together, and each is built (and checked
    by enumerate_rays) once, before the first item runs.  With workers > 1,
    at most min(workers, items) threads of one pool serve all cells; map()
    keeps the items in order, and each trial's stream is keyed by its index
    alone, so scheduling cannot leak into a row.
    """
    workers = check_int(workers, "workers", 1, MAX_WORKERS)
    heights = list(dict.fromkeys(spec.h_values))
    _check_memory(heights)
    universes = {h: enumerate_rays(h).coords for h in heights}
    cells = [(h, q, universes[h]) for h, q in zip(spec.h_values, spec.q_values())]
    items, blocks_per_cell = [], []
    for h, q, coords in cells:
        per_block = max(1, _BLOCK_RAYS // len(coords))
        threshold = _keep_threshold(1.0 - q)
        los = range(0, spec.trials, per_block)
        items += [
            (coords, threshold, spec.master_seed, lo, min(lo + per_block, spec.trials), spec.k_list)
            for lo in los
        ]
        blocks_per_cell.append(len(los))
    threads = min(workers, len(items))
    if threads == 1:
        results = [_draw_block(*item) for item in items]
    else:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            results = list(pool.map(_draw_block, *zip(*items)))
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


def ray_array(universe: RayUniverse) -> np.ndarray:
    """Ray export: one structured record (x, y) per ray, in canonical order."""
    return np.rec.fromarrays(universe.coords.T, names=RAY_COLUMNS)


BLOWDOWN_COLUMNS = ("x", "y", "norm", "k")


def blowdown_array(table: BlowdownTable) -> np.ndarray:
    """Full blowdown-table export: one structured record (x, y, norm, k) per
    ray, in canonical order."""
    c = table.coords
    norms = np.abs(c).max(axis=1)
    return np.rec.fromarrays([*c.T, norms, table.k_values], names=BLOWDOWN_COLUMNS)


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


def space_array(h: int) -> np.ndarray:
    """Blowdown index of every ray in the closed first quadrant, in angular
    order, as structured records (x, y, k); the raw material for shell
    scatter plots."""
    table = blowdown_table(h)
    c, k = table.coords, table.k_values
    sel = (c[:, 0] >= 0) & (c[:, 1] >= 0)
    return np.rec.fromarrays([*c[sel].T, k[sel]], names=SPACE_COLUMNS)


def space_report(h: int) -> list[dict]:
    """space_array() as one dict per ray."""
    return [dict(zip(SPACE_COLUMNS, r)) for r in space_array(h).tolist()]


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


#: Rows rendered per block; bounds the per-cell objects alive at once.
_RENDER_ROWS = 1 << 14


def render(table, format: str, *, columns) -> str:
    """Render a table to canonical text: CSV (header + LF lines) or a JSON list.

    table is a structured array whose fields include the named columns, or
    a sequence of row mappings, which is transposed into columns.  Either
    way each column is encoded once per block of rows: an integer array in
    bulk, any other column cell by cell (format_cell for CSV, plain JSON
    values for JSON).  The JSON text is exactly json.dumps(list_of_row_dicts,
    indent=2, ensure_ascii=False).
    """
    if format not in FORMATS:
        raise ValidationError(f"format must be one of {FORMATS}, got {format!r}")
    columns = list(columns)
    if isinstance(table, np.ndarray):
        cols = [table[c] for c in columns]
    else:
        table = list(table)
        cols = [[row[c] for row in table] for c in columns]
    n = len(table)
    encode = format_cell if format == "csv" else _json_cell
    # Python ints for %d, encoded strings for %s
    specs = ["%d" if isinstance(col, np.ndarray) and col.dtype.kind in "iu" else "%s" for col in cols]
    if format == "csv":
        row, sep = ",".join(specs) + "\n", ""
    else:
        keys = [json.dumps(c, ensure_ascii=False).replace("%", "%%") for c in columns]
        row = "  {\n" + ",\n".join(f"    {k}: {spec}" for k, spec in zip(keys, specs)) + "\n  }"
        sep = ",\n"
    blocks = []
    for lo in range(0, n, _RENDER_ROWS):
        block = [col[lo : lo + _RENDER_ROWS] for col in cols]
        m = min(_RENDER_ROWS, n - lo)
        # every cell of the block in row-major order, filled one column at a time
        cells = np.empty((m, len(cols)), dtype=object)
        for j, (col, spec) in enumerate(zip(block, specs)):
            cells[:, j] = col if spec == "%d" else [encode(v) for v in col]
        blocks.append(sep.join([row] * m) % tuple(cells.ravel().tolist()))
    if format == "csv":
        return ",".join(columns) + "\n" + "".join(blocks)
    return "[\n" + sep.join(blocks) + "\n]\n" if n else "[]\n"


def write_text(path, text: str) -> None:
    """Atomic UTF-8 write: temp file in the target directory, then rename.

    Interrupted or failed writes never leave a partial file at the target
    path, and the temp file is removed on failure.
    """
    path = os.fspath(path)
    directory = os.path.dirname(os.path.abspath(path)) or "."
    tmp = None
    try:
        fd, tmp = tempfile.mkstemp(dir=directory, prefix=".emit-", suffix=".part")
        with os.fdopen(fd, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
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
    """Render rows and write them atomically.

    Equal inputs produce byte-identical files: fixed column order, canonical
    cell formatting, LF newlines, UTF-8, and a header-only file for an empty
    row list.
    """
    write_text(path, render(rows, format, columns=columns))
