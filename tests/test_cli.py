"""End-to-end command-line behavior, including exit codes and file output."""

import json
import subprocess
import sys

import pytest

from randfan import blowdown_table, complete_fan, sample_fan, spectrum
from randfan.cli import main
from randfan.sampling import SampleConfig

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
    sp = spectrum(fan)
    assert doc["n_rays"] == fan.n_rays
    assert doc["n_cones"] == fan.n_cones
    assert doc["indices"] == sp.indices
    assert doc["counts"] == {str(k): v for k, v in sp.counts.items()}
    assert doc["smooth"] == all(i == 1 for i in sp.indices)


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
    # coordinates must be JSON integers: no truncation, no booleans
    for rays in ('[[1.5, 2], [0, 1]]', '[["a", 2], [0, 1]]', '[[true, 0], [0, 1]]'):
        bad.write_text('{"rays": %s}' % rays)
        code, out, err = run_cli(capsys, "spectrum", "--in", str(bad))
        assert code == 1 and out == "" and "error:" in err, rays


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
    ]
    for argv in cases:
        code, _, err = run_cli(capsys, *argv)
        assert code == 1, argv
        assert "error:" in err


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
