"""End-to-end command-line behavior, including exit codes and file output."""

import copy
import csv
import hashlib
import io
import json
import math
import subprocess
import sys
import tempfile
import threading
import tracemalloc
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from randfan import cli, experiments, lattice
from randfan.blowdown import blowdown_table, conjectured_ratio
from randfan.errors import ValidationError, check_int
from randfan.experiments import ExperimentSpec, emit, write_blocks
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
    monkeypatch.setattr(experiments, "_RENDER_ROWS", block_rows)
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
    monkeypatch.setattr(cli, "run_threshold_sweep", lambda *args, **kwargs: runs.append(args))
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
    monkeypatch.setattr(cli, "run_threshold_sweep", lambda *args, **kwargs: runs.append(args))
    monkeypatch.setattr(cli, "enumerate_rays", lambda *args: runs.append(args))
    for argv in (["rays", "--h", "1"], ["threshold", "--h", "3", "--q", "0.5"]):
        code, out, err = run_cli(capsys, *argv, "--out", path)
        assert code == 1 and out == "" and err.startswith("error: output path must be non-empty"), argv
    assert runs == []


@pytest.mark.parametrize("path", ["", "a\x00b.csv", b"", b"a\x00b.csv"], ids=["empty", "nul", "empty-bytes", "nul-bytes"])
def test_write_blocks_refuses_a_path_no_file_can_have(tmp_path, monkeypatch, path):
    monkeypatch.chdir(tmp_path)
    with pytest.raises(ValidationError, match="output path"):
        write_blocks(path, [b"x\n"])
    with pytest.raises(ValidationError, match="output path"):
        emit([{"a": 1}], "csv", path, columns=["a"])
    assert list(tmp_path.iterdir()) == []
