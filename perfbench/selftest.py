"""Self-test of the benchmark harness at toy sizes (about 30 s).

    python3 perfbench/selftest.py

Runs every workload shape with tiny heights and checks the harness itself:
that each metric BENCHMARK.json declares is reported and printed with its
unit, that the times are scaled by the host-speed probe, that a wrong pinned
digest or a broken output is counted as a failed command, that no workload
asks for more threads than the machine has, and that the benchmark refuses
to run where there is no program to measure.
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import io
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import unittest

import run
import workloads as wl

#: A seed other than the default, whose sweep outputs are not pinned.
TOY_SEED = 7919

# Named apart from the real workloads, so their records do not replace real ones.
TOY = {
    "paper": lambda seed: dataclasses.replace(
        wl.paper(seed, hs=(5, 8), kmax=3, sweep_hs=(10, 12), qs=(0.5, 0.2), trials=20), name="toy-paper"),
    "bulk": lambda seed: dataclasses.replace(
        wl.bulk(seed, blowdown_h=20, rays_h=12, sweep_h=20, q=0.01, trials=12), name="toy-bulk"),
}

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def record_digests(workload: wl.Workload) -> dict:
    """Digests of the toy outputs as the program writes them now."""
    tmp = run.new_tmp()
    try:
        digests = {}
        for cmd in workload.commands:
            *_, code, stderr = run.spawn(["-m", "randfan.cli", *cmd.full_argv(str(tmp))], tmp)
            assert code == 0, stderr
            digests[cmd.out] = hashlib.sha256((tmp / cmd.out).read_bytes()).hexdigest()
        return digests
    finally:
        shutil.rmtree(tmp, ignore_errors=True)


def toy_run(name: str, traced: bool, digests: dict, seed: int = TOY_SEED) -> tuple[dict, str]:
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        result = run.run(name, seed, 0, traced, digests=digests, workload=TOY[name](seed))
    return result, err.getvalue()


class HarnessSelfTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.digests = {name: record_digests(make(wl.DEFAULT_SEED)) for name, make in TOY.items()}

    def test_every_declared_metric_is_reported_with_its_unit(self):
        for name in TOY:
            for traced, key in ((False, "end_to_end"), (True, "per_layer")):
                with self.subTest(workload=name, traced=traced):
                    result, report = toy_run(name, traced, self.digests[name], seed=wl.DEFAULT_SEED)
                    json.loads(json.dumps(result))
                    self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
                    self.assertTrue(result["correct"], report)
                    self.assertGreaterEqual(result["attempted"], 1)
                    declared = SPEC[key]
                    self.assertEqual(list(result["metrics"]), [m["name"] for m in declared])
                    for m in declared:
                        got = result["metrics"][m["name"]]
                        self.assertEqual(got["unit"], m["unit"])
                        self.assertIsInstance(got["value"], (int, float))
                        self.assertTrue(math.isfinite(got["value"]))
                        self.assertRegex(report, rf"(?m)^{m['name']}\s+\S+ {m['unit']}$")

    def test_end_to_end_metrics_are_never_zero_on_a_correct_run(self):
        for name in TOY:
            with self.subTest(workload=name):
                result, _ = toy_run(name, False, self.digests[name])
                for key, m in result["metrics"].items():
                    self.assertGreater(m["value"], 0, key)

    def test_times_are_scaled_by_the_host_probe(self):
        result, report = toy_run("paper", False, self.digests["paper"])
        record = json.loads((run.OUT / "results" / f"toy-paper-seed{TOY_SEED}-trace0.json").read_text())
        raw = record["samples"]
        self.assertEqual(len(raw["probe_s"]), result["attempted"])  # one probe before each command
        self.assertAlmostEqual(raw["host_slowdown"], statistics.fmean(raw["probe_s"]) / run.PROBE_REF_S)
        self.assertAlmostEqual(result["metrics"]["wall_s"]["value"],
                               statistics.fmean(raw["pass_wall_s"]) / raw["host_slowdown"])
        self.assertIn("host slowdown", report)

    def test_wrong_pinned_digest_counts_as_a_failure(self):
        digests = dict(self.digests["bulk"])
        digests["rays.json"] = "0" * 64
        result, report = toy_run("bulk", False, digests)
        self.assertFalse(result["correct"])
        self.assertEqual(result["failed"], result["attempted"] // 3)
        self.assertLess(result["metrics"]["ok_rate"]["value"], 1.0)
        self.assertIn("differs from the pinned", report)

    def test_sweep_digest_applies_only_to_the_default_seed(self):
        wrong = {**self.digests["paper"], "density.csv": "0" * 64}
        result, _ = toy_run("paper", False, wrong, seed=wl.DEFAULT_SEED)
        self.assertEqual(result["failed"], result["attempted"] // 2)
        result, _ = toy_run("paper", False, wrong, seed=TOY_SEED)
        self.assertEqual(result["failed"], 0)

    def test_structural_sweep_check_rejects_inconsistent_rows(self):
        cmd = TOY["paper"](TOY_SEED).commands[1]
        tmp = run.new_tmp()
        try:
            *_, code, stderr = run.spawn(["-m", "randfan.cli", *cmd.full_argv(str(tmp))], tmp)
            self.assertEqual(code, 0, stderr)
            data = (tmp / cmd.out).read_bytes()
        finally:
            shutil.rmtree(tmp, ignore_errors=True)
        self.assertIsNone(cmd.check(data))
        header, first, *rest = data.decode().splitlines()
        cells = first.split(",")
        cells[4] = "0.5"  # frac_singular no longer complements frac_smooth
        broken = "\n".join([header, ",".join(cells), *rest]) + "\n"
        self.assertIn("frac_smooth + frac_singular", cmd.check(broken.encode()))
        self.assertIn("rows for", cmd.check("\n".join([header, *rest]).encode() + b"\n"))

    def test_no_workload_asks_for_more_threads_than_nproc(self):
        nproc = os.cpu_count() or 1
        for name in wl.WORKLOAD_NAMES:
            for cmd in wl.build(name, wl.DEFAULT_SEED).commands:
                self.assertLessEqual(cmd.workers, nproc)
                if "--workers" in cmd.argv:
                    self.assertEqual(int(cmd.argv[cmd.argv.index("--workers") + 1]), cmd.workers)

    def test_refuses_to_run_without_the_program(self):
        tmp = run.new_tmp()
        try:
            shutil.copy(run.ROOT / "BENCHMARK.json", tmp)
            shutil.copytree(run.HERE, tmp / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
            proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "paper",
                                   "--seed", "1", "--seconds", "1", "--trace", "0"],
                                  cwd=tmp, capture_output=True, text=True, timeout=120)
        finally:
            shutil.rmtree(tmp, ignore_errors=True)
        self.assertNotEqual(proc.returncode, 0)
        self.assertEqual(proc.stdout, "")
        self.assertIn("no randfan source", proc.stderr)


if __name__ == "__main__":
    unittest.main()
