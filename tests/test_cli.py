"""End-to-end command-line behavior, including exit codes and file output."""

import ast
import copy
import csv
import errno
import hashlib
import io
import json
import math
import os
import stat
import subprocess
import sys
import tempfile
import threading
import tracemalloc
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from randfan import cli, emission, experiments, lattice
from randfan.blowdown import blowdown_table, conjectured_ratio
from randfan.errors import ValidationError, check_int
from randfan.emission import emit, open_sink
from randfan.experiments import ExperimentSpec
from randfan.fans import complete_fan
from randfan.lattice import MAX_H, _universe_bytes, enumerate_rays
from randfan.cli import main
from randfan.sampling import UINT64_MAX, SampleConfig, sample_fan

from oracles import dump_json, fan_to_record, spectrum_document

RAYS_H1_CSV = "x,y\n1,0\n1,1\n0,1\n-1,1\n-1,0\n-1,-1\n0,-1\n1,-1\n"


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_rays_csv_golden(capsys):
    code, out, err = run_cli(capsys, "rays", "--h", "1")
    assert code == 0 and err == ""
    assert out == RAYS_H1_CSV


def test_rays_json(capsys):
    code, out, _ = run_cli(capsys, "rays", "--h", "1", "--format", "json")
    assert code == 0
    assert json.loads(out)[0] == {"x": 1, "y": 0}


def test_rays_rejects_bad_height(capsys):
    code, out, err = run_cli(capsys, "rays", "--h", "0")
    assert code == 1
    assert out == ""
    assert "error:" in err


def test_complete_fan_record(capsys):
    code, out, _ = run_cli(capsys, "complete", "--h", "1")
    assert code == 0
    doc = json.loads(out)
    assert doc["h"] == 1
    assert doc["rays"] == [[1, 0], [1, 1], [0, 1], [-1, 1],
                           [-1, 0], [-1, -1], [0, -1], [1, -1]]
    assert "cones" not in doc


def test_sample_is_deterministic_and_matches_library(capsys):
    args = ("sample", "--h", "5", "--p", "0.5", "--seed", "11", "--trial", "2")
    code, out1, _ = run_cli(capsys, *args)
    code2, out2, _ = run_cli(capsys, *args)
    assert code == code2 == 0
    assert out1 == out2
    doc = json.loads(out1)
    assert {"h", "p", "master_seed", "trial_index", "rays"} <= set(doc)
    fan = sample_fan(SampleConfig(h=5, p=0.5, master_seed=11, trial_index=2))
    assert doc["rays"] == [[int(x), int(y)] for x, y in fan.coords]


def test_sample_out_file_equals_stdout(tmp_path, capsys):
    out_file = tmp_path / "fan.json"
    code, stdout, _ = run_cli(capsys, "sample", "--h", "4", "--p", "0.3",
                              "--seed", "7", "--trial", "0")
    code2, silent, _ = run_cli(capsys, "sample", "--h", "4", "--p", "0.3",
                               "--seed", "7", "--trial", "0", "--out", str(out_file))
    assert code == code2 == 0
    assert silent == ""
    assert out_file.read_text() == stdout


def test_sample_rejects_bad_probability(capsys):
    code, _, err = run_cli(capsys, "sample", "--h", "4", "--p", "1.5")
    assert code == 1 and "error:" in err


def test_spectrum_round_trip(tmp_path, capsys):
    record = tmp_path / "fan.json"
    run_cli(capsys, "sample", "--h", "6", "--p", "0.4", "--seed", "3",
            "--trial", "1", "--out", str(record))
    code, out, _ = run_cli(capsys, "spectrum", "--in", str(record))
    assert code == 0
    doc = json.loads(out)
    fan = sample_fan(SampleConfig(h=6, p=0.4, master_seed=3, trial_index=1))
    indices = fan.cone_indices.tolist()
    assert doc["n_rays"] == fan.n_rays
    assert doc["n_cones"] == fan.n_cones
    assert doc["indices"] == indices
    assert doc["counts"] == {str(k): indices.count(k) for k in sorted(set(indices))}
    assert doc["smooth"] == all(i == 1 for i in indices)
    assert out.encode() == dump_json(spectrum_document(fan))


@pytest.mark.parametrize("block_rows", [1, 2, 3])
@pytest.mark.parametrize("h,p,seed", [
    (1, None, 0), (7, None, 0),  # complete
    (20, 0.0, 0), (20, 1e-9, 0), (3, 0.05, 0), (6, 0.5, 2), (3, 0.97, 1),  # 0, 0, 1, some, most rays
])
def test_records_and_spectra_equal_the_json_dumps_oracle(monkeypatch, tmp_path, capsys, h, p, seed, block_rows):
    # complete (p None) and sample stream the bytes of one json.dumps of the
    # whole record, and spectrum of the record those of its document, in
    # blocks of 1, 2 and 3 rows
    monkeypatch.setattr(emission, "_RENDER_ROWS", block_rows)
    if p is None:
        argv, fan, extra = ["complete", "--h", str(h)], complete_fan(enumerate_rays(h)), {}
    else:
        argv = ["sample", "--h", str(h), "--p", repr(p), "--seed", str(seed)]
        fan = sample_fan(SampleConfig(h=h, p=p, master_seed=seed))
        extra = {"p": p, "master_seed": seed, "trial_index": 0}
    record = tmp_path / "fan.json"
    assert main([*argv, "--out", str(record)]) == 0
    assert record.read_bytes() == dump_json(fan_to_record(fan, h=h, extra=extra))
    code, out, err = run_cli(capsys, "spectrum", "--in", str(record))
    assert code == 0 and err == ""
    assert out.encode() == dump_json(spectrum_document(fan))


def test_complete_peak_is_below_the_universe_estimate(tmp_path):
    # the record is streamed from the universe's own array: from a cold
    # cache the traced peak stays within what the memory check counts for
    # the universe alone
    path = tmp_path / "fan.json"
    enumerate_rays.cache_clear()
    tracemalloc.start()
    try:
        assert main(["complete", "--h", "300", "--out", str(path)]) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
        enumerate_rays.cache_clear()
    assert peak <= _universe_bytes([300]), (peak, _universe_bytes([300]))


def test_spectrum_missing_file_is_io_error(tmp_path, capsys):
    code, _, err = run_cli(capsys, "spectrum", "--in", str(tmp_path / "nope.json"))
    assert code == 2 and "i/o error:" in err


def test_spectrum_malformed_json_is_validation_error(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{oops")
    code, _, err = run_cli(capsys, "spectrum", "--in", str(bad))
    assert code == 1 and "error:" in err
    bad.write_text('{"rays": [[2, 4]]}')
    code, _, _ = run_cli(capsys, "spectrum", "--in", str(bad))
    assert code == 1
    # coordinates must be JSON integers (no truncation, no booleans) in
    # [-MAX_H, MAX_H], where every wedge fits in int64
    for rays in ('[[1.5, 2], [0, 1]]', '[["a", 2], [0, 1]]', '[[true, 0], [0, 1]]',
                 '[[1099511627776, 1], [1, 1099511627776], [-1, -1]]',
                 '[[9223372036854775808, 1], [0, 1]]'):
        bad.write_text('{"rays": %s}' % rays)
        code, out, err = run_cli(capsys, "spectrum", "--in", str(bad))
        assert code == 1 and out == "" and "error:" in err, rays
    bad.write_text('{"rays": [[1, 0], [0, 1, 2]]}')
    code, out, err = run_cli(capsys, "spectrum", "--in", str(bad))
    assert (code, out, err) == (1, "", "error: malformed ray entry [0, 1, 2]; expected [x, y]\n")


@pytest.mark.parametrize("command,flag,key", [("spectrum", "--in", "rays"), ("density", "--spec", "h_values")])
def test_deeply_nested_json_is_one_error_line(tmp_path, command, flag, key):
    # deeper than the JSON parser recurses: the file is refused, not a traceback
    deep = tmp_path / "deep.json"
    depth = 200_000
    deep.write_text('{"%s": %s%s}' % (key, "[" * depth, "]" * depth))
    proc = subprocess.run([sys.executable, "-m", "randfan.cli", command, flag, str(deep)],
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 1 and proc.stdout == ""
    assert proc.stderr == f"error: {deep} is nested too deeply to read\n"


def test_blowdown_csv_golden(capsys):
    code, out, _ = run_cli(capsys, "blowdown", "--h", "1")
    assert code == 0
    assert out == (
        "x,y,norm,k\n"
        "1,0,1,2\n1,1,1,1\n0,1,1,2\n-1,1,1,1\n"
        "-1,0,1,2\n-1,-1,1,1\n0,-1,1,2\n1,-1,1,1\n"
    )


def test_ratios_table(capsys):
    code, out, _ = run_cli(capsys, "ratios", "--h", "5", "--h", "10", "--kmax", "3")
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "h,k,count_geq,n_h,ratio,conjectured"
    assert len(lines) == 5
    t5 = blowdown_table(5)
    assert lines[1] == f"5,2,{t5.count_geq(2)},80,0.6,0.666667"
    code, _, err = run_cli(capsys, "ratios", "--h", "5", "--kmax", "1")
    assert code == 1 and "error:" in err


def test_ratios_at_the_height_cap(capsys):
    # counted, not enumerated: 2.4 * 10**12 rays at h = 10**6
    code, out, _ = run_cli(capsys, "ratios", "--h", "1000000", "--kmax", "7")
    assert code == 0
    rows = list(csv.DictReader(io.StringIO(out)))
    assert [int(r["k"]) for r in rows] == list(range(2, 8))
    for r in rows:
        n, count = int(r["n_h"]), int(r["count_geq"])
        assert n == 2_431_708_419_136
        gap = Fraction(count, n) - conjectured_ratio(int(r["k"]))
        assert 10**6 * abs(gap) <= Fraction(1, 1000), r


def test_space_report(capsys):
    code, out, _ = run_cli(capsys, "space", "--h", "5")
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "x,y,k"
    assert len(lines) == 22  # 21 first-quadrant rays at h=5
    assert lines[1] == "1,0,10"
    assert lines[-1] == "0,1,10"


def test_threshold_inline_flags_deterministic(capsys):
    args = ("threshold", "--h", "10", "--q", "0.05", "--trials", "20", "--seed", "5")
    code, out1, _ = run_cli(capsys, *args)
    code2, out2, _ = run_cli(capsys, *args)
    assert code == code2 == 0
    assert out1 == out2
    header = out1.split("\n", 1)[0].split(",")
    assert header[:5] == ["h", "q", "trials", "frac_smooth", "frac_singular"]
    assert "mean_delta_2" in header


def test_threshold_worker_count_invisible_in_output(capsys):
    base = ("threshold", "--h", "12", "--c", "1.0", "--alpha", "2.0",
            "--trials", "16", "--seed", "9")
    _, serial, _ = run_cli(capsys, *base, "--workers", "1")
    _, threaded, _ = run_cli(capsys, *base, "--workers", "3")
    assert serial == threaded


def test_threshold_spec_file_with_output(tmp_path, capsys):
    out_path = tmp_path / "sweep.csv"
    spec = {
        "h_values": [8],
        "q_schedule": {"c": 1.0, "alpha": 3.0},
        "trials": 10,
        "master_seed": 3,
        "output": {"path": str(out_path), "format": "csv"},
    }
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps(spec))
    code, out, _ = run_cli(capsys, "threshold", "--spec", str(spec_path))
    assert code == 0 and out == ""
    text = out_path.read_text()
    assert text.startswith("h,q,trials,")
    assert text.count("\n") == 2

    override = tmp_path / "override.json"
    code, _, _ = run_cli(capsys, "threshold", "--spec", str(spec_path),
                         "--out", str(override), "--format", "json")
    assert code == 0
    assert json.loads(override.read_text())[0]["h"] == 8


def test_sweep_flag_validation(capsys):
    cases = [
        ("threshold",),  # nothing given
        ("threshold", "--q", "0.5"),  # schedule without heights
        ("threshold", "--h", "5"),  # heights without schedule
        ("threshold", "--h", "5", "--c", "1.0"),  # power law missing alpha
        ("threshold", "--h", "5", "--q", "0.1", "--q", "0.2"),  # length mismatch
        ("threshold", "--h", "5", "--q", "0.1", "--c", "1.0", "--alpha", "1.0"),
        ("density", "--h", "5", "--q", "0.1", "--spec", "whatever.json"),
        ("density", "--h", "5", "--q", "0.1", "--trials", "0"),
        ("density", "--h", "5", "--q", "0.1", "--workers", "0"),
        ("density", "--h", "5", "--q", "0.1", "--workers", "65"),  # above MAX_WORKERS
    ]
    for argv in cases:
        code, _, err = run_cli(capsys, *argv)
        assert code == 1, argv
        assert "error:" in err


def test_overflowing_power_law_schedule_drops_every_ray(capsys):
    # 10**1000 is past the float range; the schedule clamps to q = 1
    code, out, err = run_cli(capsys, "threshold", "--h", "10", "--c", "1", "--alpha", "-1000", "--trials", "2")
    assert code == 0 and err == ""
    (row,) = csv.DictReader(io.StringIO(out))
    assert row["h"] == "10" and row["q"] == "1"
    assert row["n_no_cones"] == "2"


#: sha256 of outputs at fixed arguments: the density sweep of the paper's
#: small heights, a sparse-drop threshold sweep at h = 1000, and the
#: blowdown, ray and ratio tables.  Any change to the rays, the indices, the
#: counts, the draws, the classification, the aggregation or the number
#: format changes these bytes.
GOLDEN_OUTPUTS = [
    (("density", "--h", "40", "--q", "0.5", "--h", "60", "--q", "0.5", "--h", "80", "--q", "0.2",
      "--trials", "1000", "--k", "2", "--k", "3", "--seed", "0"),
     "b7cca0cf6ed37500fb0db006d71704a8c7d324aae90767a612cff7d96208fdaa"),
    (("threshold", "--h", "1000", "--q", "0.0001", "--trials", "40", "--k", "2", "--seed", "0",
      "--workers", "2"),
     "9564475e86805058848405a424774075577077a03e7d0de8e894e9873a200a0b"),
    (("blowdown", "--h", "500", "--format", "csv"),
     "9deeeacaee54d4f7fe3065d5678cceffeb9ee0a4c5b802ee7f2e5421b8347902"),
    (("rays", "--h", "300", "--format", "json"),
     "fe7b2f5c6f6e6004367fd4f06ff9e47a297d506a4ca1eac9bb77821f8c73b0b1"),
    (("ratios", "--h", "500", "--h", "1000", "--h", "2000", "--kmax", "7"),
     "a466d60b615e07f28f829beeb4668a07e74632cb05b1f34d4ca93bcfa6ab2e7f"),
]


@pytest.mark.parametrize("argv, digest", GOLDEN_OUTPUTS,
                         ids=["density", "threshold", "blowdown", "rays", "ratios"])
def test_sweep_output_bytes_are_pinned(tmp_path, capsys, argv, digest):
    out = tmp_path / "sweep.csv"
    code, _, err = run_cli(capsys, *argv, "--out", str(out))
    assert code == 0 and err == ""
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest


@pytest.mark.parametrize("workers", ["1", "2"])
def test_streamed_sweep_gives_the_pinned_bytes_without_its_circle(tmp_path, capsys, monkeypatch, workers):
    # every row at h = 1000 (2,433,536 rays) is streamed, so the sweep reads
    # its checked first octant and never unfolds the circle
    def refuse(octant):
        raise AssertionError("a streamed sweep unfolded its circle")

    argv, digest = GOLDEN_OUTPUTS[1]
    assert argv[-2:] == ("--workers", "2")
    monkeypatch.setattr(lattice, "_unfold_full_circle", refuse)
    enumerate_rays.cache_clear()
    out = tmp_path / "threshold.csv"
    code, _, err = run_cli(capsys, *argv[:-1], workers, "--out", str(out))
    assert code == 0 and err == ""
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest


def test_blocks_finishing_out_of_order_give_the_pinned_bytes(tmp_path, capsys, monkeypatch):
    # in each group of three trials, every trial but the last waits until the
    # next one has been drawn, so at 3 workers each group finishes in reverse
    # (three threads are never all waiting: one of them holds a group's last)
    argv, digest = GOLDEN_OUTPUTS[0]
    spec = ExperimentSpec(h_values=[40, 60, 80], q_schedule=[0.5, 0.5, 0.2], trials=1000, k_list=[2, 3])
    assert experiments._sweep_plan(spec, 3)[2] == 3
    finished = [threading.Event() for _ in range(spec.trials)]
    order = []
    draw = experiments._draw_trials

    def out_of_order(lanes, master_seed, trials, ks, out, first=0):
        def paced():
            for t in trials:
                if t % 3 != 2 and t + 1 < len(finished):
                    assert finished[t + 1].wait(timeout=60)
                yield t  # the thread asks for its next trial once t is drawn
                order.append(t)
                finished[t].set()

        draw(lanes, master_seed, paced(), ks, out, first)

    monkeypatch.setattr(experiments, "_draw_trials", out_of_order)
    out = tmp_path / "three.csv"
    code, _, err = run_cli(capsys, *argv, "--workers", "3", "--out", str(out))
    assert code == 0 and err == ""
    assert sorted(order) == list(range(spec.trials)) and order != sorted(order)
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest
    monkeypatch.undo()
    one = tmp_path / "one.csv"
    assert run_cli(capsys, *argv, "--workers", "1", "--out", str(one))[0] == 0
    assert one.read_bytes() == out.read_bytes()


def test_inline_flags_and_spec_file_give_identical_output(tmp_path, capsys):
    cases = [
        (["--h", "6", "--q", "0.3", "--h", "9", "--q", "0.1", "--k", "2", "--k", "3",
          "--regime", "q-large", "--c-density", "0.05"],
         {"h_values": [6, 9], "q_schedule": [0.3, 0.1], "k_list": [2, 3],
          "regime": "q-large", "c_density": 0.05}),
        (["--h", "7", "--c", "2", "--alpha", "1.5"],
         {"h_values": [7], "q_schedule": {"c": 2, "alpha": 1.5}}),
    ]
    spec_path = tmp_path / "spec.json"
    for flags, doc in cases:
        spec_path.write_text(json.dumps({**doc, "trials": 6, "master_seed": 4}))
        for fmt in ("csv", "json"):
            code, inline, _ = run_cli(capsys, "density", *flags, "--trials", "6",
                                      "--seed", "4", "--format", fmt)
            code2, from_spec, _ = run_cli(capsys, "density", "--spec", str(spec_path),
                                          "--format", fmt)
            assert code == code2 == 0
            assert inline == from_spec, (flags, fmt)


def test_density_reports_requested_thresholds(capsys):
    code, out, _ = run_cli(capsys, "density", "--h", "8", "--q", "0.5",
                           "--trials", "10", "--k", "2", "--k", "3",
                           "--seed", "1", "--format", "json")
    assert code == 0
    row = json.loads(out)[0]
    assert {"mean_delta_2", "frac_delta_2_above_c",
            "mean_delta_3", "frac_delta_3_above_c"} <= set(row)
    assert row["trials"] == 10


def test_table_out_file_byte_stable(tmp_path, capsys):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    run_cli(capsys, "blowdown", "--h", "6", "--out", str(a))
    run_cli(capsys, "blowdown", "--h", "6", "--out", str(b))
    assert a.read_bytes() == b.read_bytes()
    assert b"\r" not in a.read_bytes()


@pytest.mark.parametrize("command", ["rays", "blowdown"])
def test_table_export_peak_is_below_the_file_size(tmp_path, capsys, command):
    # streamed block by block: from cold caches, nothing the size of the
    # output is held, so the traced peak is set by the universe and table
    path = tmp_path / "out.json"
    enumerate_rays.cache_clear()
    blowdown_table.cache_clear()
    tracemalloc.start()
    try:
        assert main([command, "--h", "300", "--format", "json", "--out", str(path)]) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
        enumerate_rays.cache_clear()
        blowdown_table.cache_clear()
    assert peak < path.stat().st_size, (peak, path.stat().st_size)


def test_printed_table_follows_text_already_written(monkeypatch):
    # the table's bytes bypass the text layer, which may still hold text
    raw = io.BytesIO()
    stdout = io.TextIOWrapper(raw, encoding="utf-8")
    monkeypatch.setattr(sys, "stdout", stdout)
    print("before")
    assert main(["rays", "--h", "1"]) == 0
    stdout.flush()
    assert raw.getvalue() == b"before\n" + RAYS_H1_CSV.encode()


def test_unknown_subcommand_is_validation_error(capsys):
    code, _, err = run_cli(capsys, "untangle")
    assert code == 1 and "error:" in err


def test_help_exits_zero(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--help"])
    assert exc.value.code == 0
    out = capsys.readouterr().out
    for name in ("rays", "complete", "sample", "spectrum", "blowdown",
                 "ratios", "space", "threshold", "density"):
        assert name in out


def test_installed_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "randfan.cli", "rays", "--h", "1"],
        capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0
    assert proc.stdout == RAYS_H1_CSV


# --- malformed input at the CLI boundary --------------------------------------

#: Values no numeric field takes: strings, booleans, null and nested lists.
JUNK = st.one_of(
    st.text(max_size=4),
    st.booleans(),
    st.none(),
    st.lists(st.integers(-2, 2), max_size=2).map(lambda v: [v]),
)
ANY_FLOAT = st.floats()  # integral floats such as 2.0, and nan and infinities
#: nan, the infinities, and integers beyond the range of a float.
NON_FINITE = st.sampled_from([math.nan, math.inf, -math.inf, 2**1024, -(2**1024)])
NOT_A_LIST = JUNK.filter(lambda v: not isinstance(v, list)) | ANY_FLOAT | st.integers() | st.just([])


def bad_int(lo, hi=None):
    out_of_range = st.integers(max_value=lo - 1)
    if hi is not None:
        out_of_range |= st.integers(min_value=hi + 1)
    return JUNK | ANY_FLOAT | out_of_range


SPEC = {"h_values": [3, 8], "q_schedule": [0.2, 0.5], "regime": "q-small", "trials": 3,
        "k_list": [2, 3], "c_density": 0.01, "master_seed": 1}
POWER_SPEC = {"h_values": [4], "q_schedule": {"c": 1.0, "alpha": 1.0}, "trials": 2}


def _edit(base, path, values):
    return st.tuples(st.just(base), st.just(path), values)


SPEC_EDITS = st.one_of(
    _edit(SPEC, ("h_values",), NOT_A_LIST),
    _edit(SPEC, ("h_values", 1), bad_int(1, MAX_H)),
    _edit(SPEC, ("q_schedule",), JUNK | ANY_FLOAT | st.integers()),
    _edit(SPEC, ("q_schedule", 0), JUNK | NON_FINITE | st.floats(max_value=-1e-9) | st.integers(max_value=-1)),
    _edit(POWER_SPEC, ("q_schedule", "c"), JUNK | NON_FINITE | st.floats(max_value=0) | st.integers(max_value=0)),
    _edit(POWER_SPEC, ("q_schedule", "alpha"), JUNK | NON_FINITE),
    _edit(SPEC, ("regime",), JUNK | ANY_FLOAT | st.integers()),
    _edit(SPEC, ("trials",), bad_int(1)),
    _edit(SPEC, ("k_list",), NOT_A_LIST),
    _edit(SPEC, ("k_list", 0), bad_int(1)),
    _edit(SPEC, ("k_list", 0), st.just(3)),  # k_list [3, 3]: a repeated k
    _edit(SPEC, ("c_density",), JUNK | NON_FINITE | st.floats(max_value=0) | st.floats(min_value=1) | st.integers()),
    _edit(SPEC, ("master_seed",), bad_int(0, UINT64_MAX)),
    _edit(SPEC, ("output",), JUNK.filter(lambda v: v is not None) | st.fixed_dictionaries(
        {"path": JUNK.filter(lambda v: not isinstance(v, str)) | ANY_FLOAT | st.integers(),
         "format": st.just("csv")})),
    _edit(SPEC, ("output",), st.fixed_dictionaries(
        {"path": st.just("no-such-dir/never-written.csv"),
         "format": JUNK.filter(lambda v: v not in ("csv", "json")) | ANY_FLOAT})),
)

RECORD = {"rays": [[1, 0], [0, 1], [-1, -1], [2, 1]]}
RECORD_EDITS = st.one_of(
    _edit(RECORD, ("rays", 2), JUNK | ANY_FLOAT | st.integers()),
    _edit(RECORD, ("rays", 3, 0), JUNK | ANY_FLOAT
          | st.integers(min_value=MAX_H + 1) | st.integers(max_value=-MAX_H - 1)),
)


def _apply(base, path, value):
    doc = copy.deepcopy(base)
    target = doc
    for key in path[:-1]:
        target = target[key]
    target[path[-1]] = value
    return doc


@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(edit=st.one_of(
    st.tuples(st.just("density"), SPEC_EDITS),
    st.tuples(st.just("spectrum"), RECORD_EDITS),
))
def test_malformed_specs_and_records_exit_1(edit, capsys):
    # main() is called in-process: one malformed field or coordinate in an
    # otherwise small valid spec or fan record must give exit 1 and an
    # error line, never a traceback and never output
    command, (base, path, value) = edit
    with tempfile.TemporaryDirectory() as tmp:
        doc_path = Path(tmp) / "doc.json"
        doc_path.write_text(json.dumps(_apply(base, path, value)))
        flag = "--spec" if command == "density" else "--in"
        code = main([command, flag, str(doc_path)])
    captured = capsys.readouterr()
    assert code == 1, (path, value)
    assert captured.out == ""
    assert captured.err.startswith("error:")


@pytest.mark.parametrize("where", ["flag", "spec"])
def test_a_repeated_k_is_refused_before_any_ray_is_built(tmp_path, capsys, monkeypatch, where):
    # a repeated k would repeat its two columns in the header and its keys
    # in each JSON object; a repeated height is a repeated cell and stays
    walks = []
    monkeypatch.setattr(lattice, "_farey_walk", walks.append)
    lattice.enumerate_rays.cache_clear()
    argv = ["threshold", "--h", "5", "--q", "0.5", "--trials", "3", "--k", "2", "--k", "3", "--k", "2"]
    if where == "spec":
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({**SPEC, "k_list": [2, 3, 2]}))
        argv = ["threshold", "--spec", str(spec)]
    code, out, err = run_cli(capsys, *argv)
    assert (code, out, err) == (1, "", "error: k_list must name each k once, got [2] more than once\n")
    assert walks == []
    monkeypatch.undo()
    code, out, _ = run_cli(capsys, "threshold", "--h", "5", "--q", "0.5", "--h", "5", "--q", "0.5", "--trials", "3")
    assert code == 0 and len(out.splitlines()) == 3


def test_negative_zero_is_read_as_zero(capsys):
    # the numeric rule returns -0.0 as 0.0, so no output shows a -0
    code, out, _ = run_cli(capsys, "threshold", "--h", "5", "--q", "-0.0", "--trials", "2")
    header = ",".join(experiments.sweep_columns([2]))
    assert (code, out) == (0, f"{header}\n5,0,2,1,0,0.231618,1,0,1,1,0,0\n")
    code, out, _ = run_cli(capsys, "sample", "--h", "2", "--p", "-0.0")
    assert (code, out) == (0, '{"h": 2, "p": 0.0, "master_seed": 0, "trial_index": 0, "rays": []}\n')


# --- bounded error lines and output paths --------------------------------------

LONG = "x" * 100_000


@pytest.mark.parametrize("command, flag, doc", [
    ("density", "--spec", {"h_values": [LONG], "q_schedule": [0.5]}),
    ("density", "--spec", {"h_values": LONG, "q_schedule": [0.5]}),
    ("density", "--spec", {"h_values": [3], "q_schedule": [0.5], "regime": LONG}),
    ("density", "--spec", {"h_values": [3], "q_schedule": [0.5], LONG: 1}),
    ("density", "--spec", '{"h_values": [%s], "q_schedule": [0.5]}' % ("9" * 5000)),
    ("spectrum", "--in", {"rays": [[1, 0], LONG]}),
    ("threshold", "--regime", None),
], ids=["h-entry", "h-values", "regime", "field", "huge-h", "ray-entry", "regime-flag"])
def test_error_line_is_bounded_whatever_the_input(tmp_path, capsys, command, flag, doc):
    # the offending value is shown cut short, so the one error line stays small
    if doc is None:
        argv = [command, flag, LONG, "--h", "3", "--q", "0.5"]
    else:
        path = tmp_path / "doc.json"
        path.write_text(doc if isinstance(doc, str) else json.dumps(doc))
        argv = [command, flag, str(path)]
    code, out, err = run_cli(capsys, *argv)
    assert code == 1 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1 and len(err.encode()) < 1024


def test_an_integer_too_long_to_print_is_a_validation_error():
    with pytest.raises(ValidationError, match=r"^height bound must be an integer in \[1, 1000000\], got <int of"):
        check_int(10**5000, "height bound", 1, MAX_H)
    with pytest.raises(ValidationError, match="must be an integer, got"):
        check_int([10**5000], "height bound", 1, MAX_H)


@pytest.mark.parametrize("path", ["", "a\x00b.csv"], ids=["empty", "nul"])
def test_a_spec_output_path_no_file_can_have_is_refused_before_the_sweep(tmp_path, capsys, monkeypatch, path):
    runs = []
    monkeypatch.setattr(experiments, "run_threshold_sweep", lambda *args, **kwargs: runs.append(args))
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({**SPEC, "output": {"path": path, "format": "csv"}}))
    code, out, err = run_cli(capsys, "density", "--spec", str(spec))
    assert code == 1 and out == "" and err.startswith("error: output path must be non-empty")
    assert runs == []
    with pytest.raises(ValidationError, match="output path"):
        ExperimentSpec(h_values=[3], q_schedule=[0.5], output={"path": path, "format": "csv"})


@pytest.mark.parametrize("path", ["", "a\x00b.csv"], ids=["empty", "nul"])
def test_an_out_flag_no_file_can_have_is_refused_before_any_work(capsys, monkeypatch, path):
    runs = []
    monkeypatch.setattr(experiments, "run_threshold_sweep", lambda *args, **kwargs: runs.append(args))
    monkeypatch.setattr(cli, "enumerate_rays", lambda *args: runs.append(args))
    for argv in (["rays", "--h", "1"], ["threshold", "--h", "3", "--q", "0.5"]):
        code, out, err = run_cli(capsys, *argv, "--out", path)
        assert code == 1 and out == "" and err.startswith("error: output path must be non-empty"), argv
    assert runs == []


@pytest.mark.parametrize("path", ["", "a\x00b.csv", b"", b"a\x00b.csv"], ids=["empty", "nul", "empty-bytes", "nul-bytes"])
def test_write_blocks_refuses_a_path_no_file_can_have(tmp_path, monkeypatch, path):
    monkeypatch.chdir(tmp_path)
    with pytest.raises(ValidationError, match="output path"), open_sink(path) as write:
        write([b"x\n"])
    with pytest.raises(ValidationError, match="output path"):
        emit([{"a": 1}], "csv", path, columns=["a"])
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("where", ["flag", "spec"])
@pytest.mark.parametrize("target", ["directory", "missing-parent"])
def test_an_output_that_cannot_be_opened_is_refused_before_the_sweep(tmp_path, capsys, monkeypatch, where, target):
    runs = []
    monkeypatch.setattr(experiments, "run_threshold_sweep", lambda *args, **kwargs: runs.append(args))
    out = tmp_path if target == "directory" else tmp_path / "missing" / "sweep.csv"
    argv = ["threshold", "--h", "200", "--q", "0.5", "--trials", "300", "--out", str(out)]
    if where == "spec":
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({**SPEC, "output": {"path": str(out), "format": "csv"}}))
        argv = ["threshold", "--spec", str(spec)]
    code, stdout, err = run_cli(capsys, *argv)
    assert (code, stdout, runs) == (2, "", [])
    assert err.startswith(f"i/o error: cannot write {out}") and err.count("\n") == 1
    assert [p.name for p in tmp_path.iterdir()] == (["spec.json"] if where == "spec" else [])


def test_a_refused_command_leaves_an_existing_output_as_it_was(tmp_path, capsys):
    # the temp file is made before the work, and removed when the work fails
    out = tmp_path / "rays.csv"
    out.write_text("old\n")
    code, _, err = run_cli(capsys, "rays", "--h", "0", "--out", str(out))
    assert code == 1 and err.startswith("error: height bound")
    assert [p.name for p in tmp_path.iterdir()] == ["rays.csv"] and out.read_text() == "old\n"


# --- the process entry: `cli.run` ends the process without teardown ----------

THRESHOLD_3 = ["threshold", "--h", "20", "--q", "0.5", "--trials", "3", "--seed", "7"]

#: Runs the command line in sys.argv through `cli.run` after {setup}, with an
#: exit handler that says whether the interpreter's teardown ran.
WRAPPER = """
import atexit, sys, threading, time
from randfan import cli
atexit.register(print, "exit handler ran", file=sys.stderr)
{setup}
sys.exit(cli.run())
"""


def run_process(*argv, wrapper=None, unbuffered=True, **kwargs):
    # a fresh `python -m randfan.cli` (or a -c wrapper) with stdout and stderr
    # as bytes, unless kwargs redirect stdout; unbuffered=False drops
    # PYTHONUNBUFFERED, so stdout holds what it could not write
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    entry = ["-c", wrapper] if wrapper is not None else ["-m", "randfan.cli"]
    kwargs.setdefault("stdout", subprocess.PIPE)
    return subprocess.run([sys.executable, *entry, *argv], stderr=subprocess.PIPE, env=env, timeout=60, **kwargs)


@pytest.mark.parametrize("argv", [["rays", "--h", "5"], ["rays", "--h", "5", "--format", "json"], THRESHOLD_3],
                         ids=["rays-csv", "rays-json", "threshold"])
def test_a_process_writes_the_bytes_of_main(tmp_path, capsysbinary, argv):
    assert main(argv) == 0
    want = capsysbinary.readouterr().out
    assert main([*argv, "--out", str(tmp_path / "main.out")]) == 0
    for unbuffered in (True, False):
        proc = run_process(*argv, unbuffered=unbuffered)
        assert (proc.returncode, proc.stdout, proc.stderr) == (0, want, b"")
        proc = run_process(*argv, "--out", str(tmp_path / "process.out"), unbuffered=unbuffered)
        assert (proc.returncode, proc.stdout, proc.stderr) == (0, b"", b"")
        assert (tmp_path / "process.out").read_bytes() == (tmp_path / "main.out").read_bytes() == want


def test_process_exit_codes(tmp_path):
    proc = run_process("rays", "--h", "5", "--bogus")
    assert proc.returncode == 1 and proc.stdout == b""
    assert proc.stderr == b"error: unrecognized arguments: --bogus\n"
    proc = run_process("rays", "--h", "5", "--out", str(tmp_path))
    assert proc.returncode == 2 and proc.stdout == b""
    assert proc.stderr.startswith(b"i/o error: cannot write") and proc.stderr.count(b"\n") == 1
    proc = run_process("--help")
    assert proc.returncode == 0 and proc.stdout.startswith(b"usage: randfan") and proc.stderr == b""
    # with no stdout at all (sys.stdout is None), a refused command is still exit 1
    proc = run_process("rays", "--h", "0", stdout=None, preexec_fn=lambda: os.close(1))
    assert proc.returncode == 1 and proc.stderr.startswith(b"error: height bound") and proc.stderr.count(b"\n") == 1


def test_a_closed_stdout_is_one_io_error_line():
    proc = run_process("rays", "--h", "1", stdout=None, preexec_fn=lambda: os.close(1))
    assert (proc.returncode, proc.stderr) == (2, b"i/o error: standard output is closed\n")


def _sink(kind, tmp_path):
    # the --out argument of a sink of the given kind under tmp_path (None:
    # standard output, closed), and a check of what it received, given the
    # bytes of a successful run
    target = tmp_path / "target.csv"
    out = tmp_path / "out.csv"
    if kind == "new-file":
        return out, lambda want: out.read_bytes() == want
    if kind == "existing-file":
        out.write_bytes(b"old\n")
        return out, lambda want: out.read_bytes() == want
    if kind == "directory":
        out.mkdir()
        return out, lambda want: list(out.iterdir()) == []
    if kind == "missing-parent":
        return tmp_path / "missing" / "out.csv", lambda want: not (tmp_path / "missing").exists()
    if kind == "fifo":
        os.mkfifo(out)
        got = []
        reader = threading.Thread(target=lambda: got.append(out.read_bytes()), daemon=True)
        reader.start()
        return out, lambda want: (reader.join(30), got) == (None, [want])
    if kind in ("symlink", "dangling-symlink"):
        if kind == "symlink":
            target.write_bytes(b"old\n")
        out.symlink_to(target.name)
        return out, lambda want: os.readlink(out) == target.name and target.read_bytes() == want
    return None, lambda want: True


SINKS = {  # kind: the exit code of `rays --h 1` into it
    "new-file": 0, "existing-file": 0, "directory": 2, "missing-parent": 2,
    "fifo": 0, "symlink": 0, "dangling-symlink": 0, "closed-stdout": 2,
}


@pytest.mark.parametrize("kind", list(SINKS))
def test_every_sink_gets_the_bytes_or_one_error_line(tmp_path, kind):
    # a non-regular target is written in place and keeps its file type; a
    # regular one is replaced atomically, through a symlink too, and no
    # temp file is left behind
    out, received = _sink(kind, tmp_path)
    modes = {p: stat.S_IFMT(os.lstat(p).st_mode) for p in tmp_path.iterdir()}
    if out is None:
        proc = run_process("rays", "--h", "1", stdout=None, preexec_fn=lambda: os.close(1))
    else:
        proc = run_process("rays", "--h", "1", "--out", str(out))
    assert proc.returncode == SINKS[kind] and proc.returncode in (0, 1, 2)
    assert proc.stderr.count(b"\n") == (proc.returncode != 0) and b"Traceback" not in proc.stderr
    assert received(RAYS_H1_CSV.encode())
    assert not [p for p in tmp_path.rglob(".emit-*.part")]
    assert {p: stat.S_IFMT(os.lstat(p).st_mode) for p in modes} == modes


@pytest.mark.parametrize("kind", ["new-file", "existing-file", "symlink"])
def test_a_written_file_keeps_its_mode_or_gets_the_umask_default(tmp_path, kind):
    # the temp file is made 0600; what replaces a file gets that file's
    # mode, through a symlink too, and a new file 0666 less the umask
    target = tmp_path / "target.csv"
    out = tmp_path / "out.csv" if kind == "symlink" else target
    if kind != "new-file":
        target.write_bytes(b"old\n")
        target.chmod(0o640)
    if kind == "symlink":
        out.symlink_to(target.name)
    umask = os.umask(0o022)
    try:
        emit([{"a": 1}], "csv", out, columns=["a"])
    finally:
        os.umask(umask)
    assert target.read_bytes() == b"a\n1\n" and out.is_symlink() == (kind == "symlink")
    assert stat.S_IMODE(target.stat().st_mode) == (0o644 if kind == "new-file" else 0o640)


def test_a_tampered_walk_in_a_process_is_exit_3():
    tamper = "from randfan import lattice; walk = lattice._farey_walk; lattice._farey_walk = lambda h: walk(h)[::-1]"
    proc = run_process("rays", "--h", "5", wrapper=WRAPPER.format(setup=tamper))
    assert proc.returncode == 3 and proc.stdout == b""
    assert proc.stderr.startswith(b"internal error: height 5") and proc.stderr.count(b"\n") == 1


@pytest.mark.parametrize("traced", [False, True], ids=["module", "traced"])
@pytest.mark.parametrize("unbuffered", [True, False], ids=["unbuffered", "buffered"])
@pytest.mark.parametrize("sink", ["closed-pipe", "dev-full"])
def test_stdout_that_cannot_be_written_is_one_io_error_line(traced, unbuffered, sink):
    # buffered, stdout keeps the bytes it could not write: the process ends
    # with exit 2 and main's one line, also after a normal exit's own flush
    if sink == "dev-full":
        if not os.path.exists("/dev/full"):
            pytest.skip("no /dev/full")
        fd = os.open("/dev/full", os.O_WRONLY)
    else:
        read, fd = os.pipe()
        os.close(read)
    wrapper = WRAPPER.format(setup="sys.settrace(lambda *args: None)") if traced else None
    try:
        proc = run_process("rays", "--h", "5", wrapper=wrapper, unbuffered=unbuffered, stdout=fd)
    finally:
        os.close(fd)
    first, *rest = proc.stderr.splitlines()
    assert proc.returncode == 2 and first.startswith(b"i/o error: [Errno "), proc.stderr
    assert rest == ([b"exit handler ran"] if traced else []), proc.stderr


@pytest.mark.parametrize("argv,code", [(["rays", "--h", "1"], 0), (["rays", "--h", "0"], 1)], ids=["ok", "bad"])
@pytest.mark.parametrize("setup", ["sys.setprofile(lambda *args: None)", "sys.settrace(lambda *args: None)"],
                         ids=["profiler", "tracer"])
def test_a_tracer_or_profiler_gets_a_normal_exit(setup, argv, code):
    proc = run_process(*argv, wrapper=WRAPPER.format(setup=setup))
    assert proc.returncode == code and proc.stderr.endswith(b"exit handler ran\n")
    assert proc.stdout == (RAYS_H1_CSV.encode() if code == 0 else b"")


def test_a_running_thread_gets_a_normal_exit(tmp_path):
    done = tmp_path / "done"
    setup = (f"threading.Thread(target=lambda: (time.sleep(0.5), open({str(done)!r}, 'w').write('x'))).start()")
    proc = run_process("rays", "--h", "1", wrapper=WRAPPER.format(setup=setup))
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, RAYS_H1_CSV.encode(), b"exit handler ran\n")
    assert done.read_text() == "x"


def test_without_a_tracer_profiler_or_thread_the_process_skips_teardown(capsysbinary):
    # the sweep's pool is joined by the time main returns, so no exit handler runs
    argv = [*THRESHOLD_3, "--workers", "2"]
    assert main(argv) == 0
    proc = run_process(*argv, wrapper=WRAPPER.format(setup=""))
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, capsysbinary.readouterr().out, b"")


def test_the_console_script_is_the_function_the_main_block_calls():
    tomllib = pytest.importorskip("tomllib")
    root = Path(__file__).resolve().parent.parent
    entry = tomllib.loads((root / "pyproject.toml").read_text())["project"]["scripts"]["randfan"]
    module, func = entry.split(":")
    assert module == cli.__name__
    tree = ast.parse(Path(cli.__file__).read_text())
    block, = [node for node in tree.body if isinstance(node, ast.If) and ast.unparse(node.test) == "__name__ == '__main__'"]
    called = {node.func.id for node in ast.walk(block) if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)}
    assert called == {func} and callable(getattr(cli, func))


class _Exited(Exception):
    """Raised in place of os._exit, so the test process goes on."""


@pytest.fixture
def no_exit(monkeypatch):
    # cli.run() on `rays --h 0`, which main refuses with exit 1
    def exit_(code):
        raise _Exited(code)
    monkeypatch.setattr(os, "_exit", exit_)
    monkeypatch.setattr(sys, "argv", ["randfan", "rays", "--h", "0"])


@pytest.mark.parametrize("condition", ["tracer", "profiler", "monitoring", "thread"])
def test_run_returns_the_code_when_teardown_is_needed(no_exit, monkeypatch, capsys, condition):
    # so that the console script's sys.exit(run()) exits with it
    stop = threading.Event()
    thread = threading.Thread(target=stop.wait, args=(60,))
    if condition == "monitoring":
        monkeypatch.setattr(sys, "monitoring", SimpleNamespace(get_tool=lambda i: "cov" if i == 1 else None),
                            raising=False)
    elif condition == "thread":
        thread.start()
    hook = {"tracer": sys.settrace, "profiler": sys.setprofile}.get(condition)
    if hook is not None:
        hook(lambda *args: None)
    try:
        assert cli.run() == 1
    finally:
        if hook is not None:
            hook(None)
        stop.set()
        if thread.is_alive():
            thread.join(60)
    assert not thread.is_alive()
    assert capsys.readouterr().err.startswith("error: height bound")


def test_a_final_flush_that_fails_is_one_io_error_line(no_exit, monkeypatch, capsys, tmp_path):
    # main wrote nothing to stdout and reported its own error; the failed flush
    # makes the exit code 2 and adds the one i/o error line
    sink = os.open(tmp_path / "sink", os.O_WRONLY | os.O_CREAT)

    class Full(io.StringIO):
        def flush(self):
            raise OSError(errno.ENOSPC, "No space left on device")

        def fileno(self):
            return sink

    monkeypatch.setattr(sys, "stdout", Full())
    try:
        code = cli.run()  # returned if a thread of the test process needs the teardown
    except _Exited as exc:
        code, = exc.args
    finally:
        os.close(sink)
    assert code == 2
    assert capsys.readouterr().err.splitlines()[1:] == ["i/o error: [Errno 28] No space left on device"]
