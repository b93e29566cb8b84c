"""The benchmark's workloads: which `randfan` commands run, and how their outputs are checked.

Each workload is a fixed list of CLI commands, run in order by one client
(a closed loop).  Table commands have no random input; sweeps take the
benchmark seed as `--seed`.  Every command writes into a file, and
every file is checked: by a pinned sha256 digest where the inputs are the
pinned ones, and by structural checks that hold for any seed.
"""

from __future__ import annotations

import csv
import io
import math
import os
from dataclasses import dataclass
from typing import Callable

#: The seed whose sweep outputs are pinned by digest in expected.json.
DEFAULT_SEED = 0

#: Exact number of primitive rays of sup-norm <= h (the size of the height-h
#: universe).  Every count the benchmark reports is derived from these, and
#: the traced run asserts that the program reproduces them.
N_RAYS = {
    3: 32, 5: 80, 8: 176, 10: 256, 12: 368, 20: 1024,
    40: 3920, 60: 8816, 80: 15728, 300: 219184,
    500: 608928, 1000: 2433536, 2000: 9732704,
}

#: Highest ru_maxrss (MB) measured for the h=500..2000 `ratios` command on the
#: reference machine; the run refuses to start with less memory available.
RATIO_SCAN_PEAK_MB = 1700

SWEEP_BASE_COLUMNS = [
    "h", "q", "trials", "frac_smooth", "frac_singular",
    "wilson_ci_low", "wilson_ci_high", "n_no_cones",
    "max_index_p50", "max_index_p90",
]


@dataclass(frozen=True)
class Command:
    """One `randfan` invocation; `out` is the file name it writes."""

    argv: tuple[str, ...]
    out: str
    rays: int  # rays tabulated, emitted or drawn by the command
    trials: int  # seeded draws; 0 for a table command
    check: Callable[[bytes], str | None]  # structural check: an error message or None
    workers: int = 1
    pinned: bool = True  # whether expected.json's digest applies to this run

    def full_argv(self, out_dir: str) -> list[str]:
        return [*self.argv, "--out", os.path.join(out_dir, self.out)]


@dataclass(frozen=True)
class Workload:
    """The commands of one workload; why each was chosen is in BENCHMARK.json."""

    name: str
    commands: tuple[Command, ...]
    min_mem_mb: int = 0


def _csv_rows(data: bytes) -> tuple[list[str], list[dict]]:
    reader = csv.DictReader(io.StringIO(data.decode("utf-8")))
    return list(reader.fieldnames or []), list(reader)


def _check_ratios(hs, kmax):
    def check(data: bytes) -> str | None:
        cols, rows = _csv_rows(data)
        if cols != ["h", "k", "count_geq", "n_h", "ratio", "conjectured"]:
            return f"ratios: unexpected columns {cols}"
        want = [(h, k) for h in hs for k in range(2, kmax + 1)]
        if [(int(r["h"]), int(r["k"])) for r in rows] != want:
            return "ratios: rows are not the (h, k) grid asked for"
        for r in rows:
            if int(r["n_h"]) != N_RAYS[int(r["h"])]:
                return f"ratios: n_h {r['n_h']} at h={r['h']}, expected {N_RAYS[int(r['h'])]}"
        return None
    return check


def _check_csv_rows(n_rows: int):
    def check(data: bytes) -> str | None:
        lines = data.count(b"\n") - 1  # the header
        if lines != n_rows:
            return f"expected {n_rows} rows, got {lines}"
        return None
    return check


def _check_json_rays(n_rows: int):
    def check(data: bytes) -> str | None:
        rows = data.count(b'"x":')
        if not data.startswith(b"[") or rows != n_rows:
            return f"expected a JSON list of {n_rows} rays, got {rows}"
        return None
    return check


def _check_sweep(hs, qs, trials, ks):
    cols_want = list(SWEEP_BASE_COLUMNS)
    for k in ks:
        cols_want += [f"mean_delta_{k}", f"frac_delta_{k}_above_c"]

    def check(data: bytes) -> str | None:
        cols, rows = _csv_rows(data)
        if cols != cols_want:
            return f"sweep: unexpected columns {cols}"
        if len(rows) != len(hs):
            return f"sweep: {len(rows)} rows for {len(hs)} grid cells"
        for r, h, q in zip(rows, hs, qs):
            if int(r["h"]) != h or not math.isclose(float(r["q"]), q, rel_tol=1e-5):
                return f"sweep: row ({r['h']}, {r['q']}) where ({h}, {q}) was asked for"
            if int(r["trials"]) != trials:
                return f"sweep: trials {r['trials']}, expected {trials}"
            smooth, singular = float(r["frac_smooth"]), float(r["frac_singular"])
            if abs(smooth + singular - 1.0) > 2e-6:
                return f"sweep: frac_smooth + frac_singular = {smooth + singular} at h={h}"
            if not float(r["wilson_ci_low"]) <= smooth <= float(r["wilson_ci_high"]):
                return f"sweep: Wilson bounds do not bracket frac_smooth at h={h}"
            if not 0 <= int(r["n_no_cones"]) <= trials:
                return f"sweep: n_no_cones {r['n_no_cones']} out of range at h={h}"
        return None
    return check


def ratios_command(hs, kmax) -> Command:
    argv = ["ratios", *[a for h in hs for a in ("--h", str(h))], "--kmax", str(kmax)]
    return Command(tuple(argv), "ratios.csv", rays=sum(N_RAYS[h] for h in hs), trials=0,
                   check=_check_ratios(hs, kmax))


def blowdown_command(h) -> Command:
    return Command(("blowdown", "--h", str(h), "--format", "csv"), "blowdown.csv",
                   rays=N_RAYS[h], trials=0, check=_check_csv_rows(N_RAYS[h]))


def rays_command(h) -> Command:
    return Command(("rays", "--h", str(h), "--format", "json"), "rays.json",
                   rays=N_RAYS[h], trials=0, check=_check_json_rays(N_RAYS[h]))


def sweep_command(sub, hs, qs, trials, ks, workers, seed, out) -> Command:
    argv = [sub]
    for h, q in zip(hs, qs):
        argv += ["--h", str(h), "--q", repr(q)]
    argv += ["--trials", str(trials)]
    for k in ks:
        argv += ["--k", str(k)]
    argv += ["--workers", str(workers), "--seed", str(seed)]
    return Command(
        argv=tuple(argv), out=out,
        rays=trials * sum(N_RAYS[h] for h in hs), trials=trials * len(hs),
        workers=workers, pinned=seed == DEFAULT_SEED,
        check=_check_sweep(hs, qs, trials, ks),
    )


def paper(seed, hs=(500, 1000, 2000), kmax=7,
          sweep_hs=(40, 60, 80), qs=(0.5, 0.5, 0.2), trials=1000, ks=(2, 3)) -> Workload:
    """The paper's two headline computations.  The ratio table (lattice and
    blowdown at h up to 2000, ~1.7 GB peak) and the small-h threshold-regime
    density sweep (fixed per-trial costs; one worker)."""
    return Workload(
        "paper",
        (ratios_command(hs, kmax),
         sweep_command("density", sweep_hs, qs, trials, ks, 1, seed, "density.csv")),
        min_mem_mb=RATIO_SCAN_PEAK_MB if max(hs) >= 2000 else 0,
    )


def bulk(seed, blowdown_h=500, rays_h=300, sweep_h=1000, q=0.0001, trials=40) -> Workload:
    """Data volume.  Whole tables exported (rows built and rendered, CSV next
    to JSON) and a sparse-drop sweep whose draws keep ~2.43M rays each
    (uniforms, compress and Fan build in bulk, on up to two threads)."""
    workers = min(2, os.cpu_count() or 1)
    return Workload(
        "bulk",
        (blowdown_command(blowdown_h), rays_command(rays_h),
         sweep_command("threshold", (sweep_h,), (q,), trials, (2,), workers, seed, "threshold.csv")),
    )


WORKLOAD_NAMES = ("paper", "bulk")


def build(name: str, seed: int) -> Workload:
    """The workload at its benchmark size, with its inputs made from `seed`."""
    if name == "paper":
        return paper(seed)
    if name == "bulk":
        return bulk(seed)
    raise KeyError(name)
