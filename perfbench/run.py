#!/usr/bin/env python3
"""Benchmark of the `randfan` command line.

    python3 perfbench/run.py --workload paper --seed 0 --seconds 55 --trace 0

Run from the root of a randfan source checkout; the program is imported
from `src/`.  One client runs the workload's commands in a closed loop, each
as a fresh `python -m randfan.cli ...` process writing into a temporary
directory under `perfbench/out/`, and starts the next command only when the
previous one has exited.  Whole passes over the workload repeat until the
next one would overrun `--seconds`.

With `--trace 0` the run reports the end-to-end metrics named in
BENCHMARK.json.  With `--trace 1` it reports the per-layer metrics instead:
each pass then runs the commands once as processes, and three times
in-process through `randfan.cli.main`: untraced, with spans around the calls
between layers (see spans.py), and untraced again.  The spans are written to
`perfbench/out/spans/`.

The machine this runs on is a few cores of a shared host.  Each core flips
between a fast and a slow state every few seconds, and the share of slow
time drifts over minutes with the other tenants' load.  So a fixed probe job
runs in a fresh interpreter before every command, and the end-to-end times
are reported at the host speed at which the probe takes PROBE_REF_S: each
measured time is divided by (mean probe time / PROBE_REF_S) of the same run.
The times as measured and the probe times go to the record.

Every output file is checked (workloads.py); a command that exits nonzero or
writes a wrong file counts as failed.  The last line of standard output is
the result as one JSON object; the provenance of the run and a readable
report go to standard error and to `perfbench/out/results/`.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import gc
import hashlib
import importlib.metadata
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

import spans
import workloads as wl

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
# the traced passes import the program under test in this process
sys.path.insert(1, str(SRC))

#: Fresh-interpreter imports timed per run; setup_s is the median of them scaled by their probes.
SETUP_SAMPLES = 9
#: The host-speed probe: a command in miniature (interpreter start, numpy
#: import, a Python loop, numpy work on freshly faulted memory).  It never
#: touches the program, so a change to the program leaves it as it is.
PROBE = """\
import numpy as np
a = np.ones(2_000_000)
s = 0
for i in range(100000):
    s += i * i
np.sort(a[::-1])
"""
#: The probe's wall time at the reference host speed (s); the end-to-end
#: times are reported at that speed.
PROBE_REF_S = 0.2
#: A command still running after this long is killed and counted as failed.
COMMAND_TIMEOUT_S = 150


class SetupError(Exception):
    """The run cannot start: no program to measure, or too little memory."""


@dataclasses.dataclass
class PassResult:
    wall: float = 0.0
    cpu: float = 0.0
    peak_rss_mb: float = 0.0
    attempted: int = 0
    failed: int = 0
    errors: list = dataclasses.field(default_factory=list)
    probes: list = dataclasses.field(default_factory=list)  # probe wall times (s)

    def record(self, cmd: wl.Command, error: str | None) -> None:
        self.attempted += 1
        if error:
            self.failed += 1
            self.errors.append(f"{cmd.argv[0]} -> {cmd.out}: {error}")


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    return env


def spawn(argv: list[str], cwd: Path) -> tuple[float, float, float, int, str]:
    """Run `python argv...`; return wall s, user+sys CPU s, max RSS MB, exit code, stderr."""
    err_path = cwd / "stderr.txt"
    with open(err_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen([sys.executable, *argv], cwd=cwd, env=child_env(),
                                stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL, stderr=err)
        timer = threading.Timer(COMMAND_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    stderr = err_path.read_text(encoding="utf-8", errors="replace")
    return wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024, proc.returncode, stderr


def time_probe(cwd: Path) -> float:
    """Wall time of one run of PROBE in a fresh interpreter."""
    start = time.perf_counter()
    proc = subprocess.run([sys.executable, "-c", PROBE], cwd=cwd, stdin=subprocess.DEVNULL,
                          capture_output=True, text=True, timeout=COMMAND_TIMEOUT_S)
    elapsed = time.perf_counter() - start
    if proc.returncode:
        raise SetupError(f"the host-speed probe failed: {proc.stderr.strip()[-300:]}")
    return elapsed


def check_output(cmd: wl.Command, path: Path, digests: dict) -> str | None:
    try:
        data = path.read_bytes()
    except OSError as exc:
        return f"no output: {exc}"
    error = cmd.check(data)
    if error or not cmd.pinned:
        return error
    want = digests.get(cmd.out)
    got = hashlib.sha256(data).hexdigest()
    if got != want:
        return f"sha256 {got[:16]}... differs from the pinned {str(want)[:16]}..."
    return None


def new_tmp() -> Path:
    (OUT / "tmp").mkdir(parents=True, exist_ok=True)
    return Path(tempfile.mkdtemp(dir=OUT / "tmp"))


def run_pass(workload: wl.Workload, digests: dict, probe: bool = False) -> PassResult:
    """Each command of the workload as its own process, one after another;
    with `probe`, the host-speed probe runs before each command."""
    res = PassResult()
    tmp = new_tmp()
    try:
        for cmd in workload.commands:
            if probe:
                res.probes.append(time_probe(tmp))
            wall, cpu, rss, code, stderr = spawn(["-m", "randfan.cli", *cmd.full_argv(str(tmp))], tmp)
            res.wall += wall
            res.cpu += cpu
            res.peak_rss_mb = max(res.peak_rss_mb, rss)
            error = f"exit {code}: {stderr.strip()[-300:]}" if code else check_output(cmd, tmp / cmd.out, digests)
            res.record(cmd, error)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    return res


def run_pass_in_process(commands, digests: dict, tracer=None) -> PassResult:
    """The same commands through `randfan.cli.main` in this process, starting
    each from empty caches as a fresh process would; with spans if traced."""
    import randfan.cli

    res = PassResult()
    tmp = new_tmp()
    try:
        with spans.patched(tracer) if tracer else contextlib.nullcontext():
            for i, cmd in enumerate(commands):
                spans.clear_caches()
                gc.collect()
                if tracer:
                    tracer.command = i
                start = time.perf_counter()
                try:
                    with tracer.span("cli.main") if tracer else contextlib.nullcontext():
                        code = randfan.cli.main(cmd.full_argv(str(tmp)))
                except Exception as exc:  # a crash is a failed command, not a crashed benchmark
                    code, error = None, f"raised {exc!r}"
                res.wall += time.perf_counter() - start
                if code is not None:
                    error = f"exit {code}" if code else check_output(cmd, tmp / cmd.out, digests)
                res.record(cmd, error)
    finally:
        spans.clear_caches()
        gc.collect()
        shutil.rmtree(tmp, ignore_errors=True)
    return res


def sequential(cmd: wl.Command) -> wl.Command:
    argv = list(cmd.argv)
    if "--workers" in argv:
        argv[argv.index("--workers") + 1] = "1"
    return dataclasses.replace(cmd, argv=tuple(argv), workers=1)


def time_setup() -> tuple[list[float], list[float]]:
    """Wall times of fresh interpreters importing the CLI, after one warm-up
    import that compiles the byte code, each followed by a timed probe."""
    times, probes = [], []
    for i in range(SETUP_SAMPLES + 1):
        start = time.perf_counter()
        proc = subprocess.run([sys.executable, "-c", "import randfan.cli"], cwd=ROOT, env=child_env(),
                              stdin=subprocess.DEVNULL, capture_output=True, text=True,
                              timeout=COMMAND_TIMEOUT_S)
        elapsed = time.perf_counter() - start
        if proc.returncode:
            raise SetupError(f"cannot import randfan.cli from {SRC}: {proc.stderr.strip()[-300:]}")
        if i:
            times.append(elapsed)
            probes.append(time_probe(ROOT))
    return times, probes


def repeat(seconds: float, one_pass) -> list:
    """Whole passes until the next one, at the mean pass time, would overrun."""
    passes = []
    start = time.perf_counter()
    while True:
        passes.append(one_pass())
        elapsed = time.perf_counter() - start
        if elapsed + elapsed / len(passes) > seconds:
            return passes


def end_to_end(workload: wl.Workload, seconds: float, digests: dict) -> tuple[dict, list, dict]:
    """Times at the reference host speed.  Pass times are averaged, not taken
    at their median, because the host's speed flips between a fast and a slow
    state every few seconds: the mean over the run weighs those states as the
    mean probe time does, where the median of a two-state sample jumps
    between them.  Each set-up sample is scaled by the probe that follows it."""
    setup, setup_probes = time_setup()
    passes = repeat(seconds, lambda: run_pass(workload, digests, probe=True))
    probes = [t for p in passes for t in p.probes]
    slowdown = statistics.fmean(probes) / PROBE_REF_S
    wall = statistics.fmean(p.wall for p in passes) / slowdown
    attempted = sum(p.attempted for p in passes)
    failed = sum(p.failed for p in passes)
    metrics = {
        "setup_s": statistics.median(s / p * PROBE_REF_S for s, p in zip(setup, setup_probes)),
        "wall_s": wall,
        "cpu_s": statistics.fmean(p.cpu for p in passes) / slowdown,
        "peak_rss_mb": max(p.peak_rss_mb for p in passes),
        "rays_per_s": sum(c.rays for c in workload.commands) / wall,
        "trials_per_s": sum(c.trials for c in workload.commands) / wall,
        "ok_rate": 1.0 - failed / attempted,
    }
    raw = {"host_slowdown": slowdown, "probe_s": probes, "setup_s": setup, "setup_probe_s": setup_probes,
           "pass_wall_s": [p.wall for p in passes], "pass_cpu_s": [p.cpu for p in passes]}
    return metrics, passes, raw


def per_layer(workload: wl.Workload, seconds: float, digests: dict, spans_path: Path) -> tuple[dict, list, dict]:
    import randfan

    if not Path(randfan.__file__).resolve().is_relative_to(SRC.resolve()):
        raise SetupError(f"randfan was imported from {randfan.__file__}, not from {SRC}")
    parallel = [i for i, c in enumerate(workload.commands) if c.workers > 1]
    one_worker = set(range(len(workload.commands))) - set(parallel)
    passes, per_pass, tracers = [], [], []

    def one_pass():
        n = len(per_pass)
        proc = run_pass(workload, digests)
        # untraced passes on both sides of the traced one, so that a process
        # warming up over the run does not show as tracing overhead
        plain = run_pass_in_process(workload.commands, digests)
        tracer = spans.Tracer()
        traced = run_pass_in_process(workload.commands, digests, tracer)
        plain_after = run_pass_in_process(workload.commands, digests)
        untraced_wall = (plain.wall + plain_after.wall) / 2
        metrics = spans.layer_metrics(tracer.spans)
        tracers.append((tracer, {"pass": n, "mode": "workload"}))
        for span in tracer.spans:
            if span.name == "lattice.enumerate_rays" and span.attrs.get("cold"):
                h, got = span.attrs["h"], span.attrs["n_rays"]
                if got != wl.N_RAYS.get(h, got):
                    traced.failed += 1
                    traced.errors.append(f"n_rays at h={h} is {got}, expected {wl.N_RAYS[h]}")
        overhead = spans.sweep_overhead(tracer.spans, one_worker)
        if parallel:
            # sweep overhead is read from one-worker runs of the parallel sweeps
            seq_tracer = spans.Tracer()
            seq = run_pass_in_process([sequential(workload.commands[i]) for i in parallel], digests, seq_tracer)
            tracers.append((seq_tracer, {"pass": n, "mode": "sequential"}))
            overhead += spans.sweep_overhead(seq_tracer.spans, range(len(parallel)))
            passes.append(seq)
        metrics["experiments.sweep.overhead_s"] = overhead
        metrics["cli.main.s"] = untraced_wall
        metrics["cli.process_overhead_s"] = proc.wall - untraced_wall
        metrics["trace_overhead_s"] = traced.wall - untraced_wall
        passes.extend([proc, plain, traced, plain_after])
        per_pass.append(metrics)
        return metrics

    repeat(seconds, one_pass)
    spans_path.parent.mkdir(parents=True, exist_ok=True)
    with open(spans_path, "w", encoding="utf-8") as fh:
        for tracer, extra in tracers:
            for doc in tracer.span_docs(extra):
                fh.write(json.dumps(doc) + "\n")
    metrics = {k: statistics.median(m[k] for m in per_pass) for k in per_pass[0]}
    return metrics, passes, {"per_pass": per_pass}


def _read_first(path: str, default=None):
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read().strip()
    except OSError:
        return default


def provenance() -> dict:
    """What the figures were measured on, recorded with every result."""
    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                text=True, timeout=30).stdout.strip() or None
    except OSError:
        commit = None
    src = hashlib.sha256()
    for path in sorted((SRC / "randfan").rglob("*.py")):
        src.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    cpu_model = None
    for line in (_read_first("/proc/cpuinfo", "") or "").splitlines():
        if line.startswith("model name"):
            cpu_model = line.split(":", 1)[1].strip()
            break
    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        level, kind = _read_first(index / "level"), _read_first(index / "type")
        caches[f"L{level} {kind}"] = _read_first(index / "size")
    try:
        numpy_version = importlib.metadata.version("numpy")
    except importlib.metadata.PackageNotFoundError:
        numpy_version = None
    return {
        "git_commit": commit,
        "src_sha256": src.hexdigest(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "cpu_model": cpu_model,
        "cpu_caches": caches,
        "mem_available_mb": mem_available_mb(),
    }


def mem_available_mb() -> float | None:
    for line in (_read_first("/proc/meminfo", "") or "").splitlines():
        if line.startswith("MemAvailable:"):
            return int(line.split()[1]) / 1024
    return None


def run(name: str, seed: int, seconds: float, traced: bool, digests: dict | None = None,
        workload: wl.Workload | None = None) -> dict:
    """Measure one workload; returns the result object printed on the last line."""
    if not (SRC / "randfan" / "cli.py").is_file():
        raise SetupError(f"no randfan source at {SRC}: run from the root of a randfan checkout")
    workload = workload or wl.build(name, seed)
    if digests is None:
        digests = json.loads((HERE / "expected.json").read_text(encoding="utf-8")).get(name, {})
    avail = mem_available_mb()
    if workload.min_mem_mb and avail is not None and avail < workload.min_mem_mb:
        raise SetupError(f"refusing to run {name}: MemAvailable is {avail:.0f} MB, below its "
                         f"measured peak of {workload.min_mem_mb} MB; free memory or pick another workload")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    declared = spec["per_layer" if traced else "end_to_end"]
    prov = provenance()
    if traced:
        spans_path = OUT / "spans" / f"{workload.name}-seed{seed}.jsonl"
        values, passes, raw = per_layer(workload, seconds, digests, spans_path)
    else:
        values, passes, raw = end_to_end(workload, seconds, digests)
    if set(values) != {m["name"] for m in declared}:
        raise SetupError(f"measured {sorted(values)} but BENCHMARK.json declares {[m['name'] for m in declared]}")
    attempted = sum(p.attempted for p in passes)
    failed = sum(p.failed for p in passes)
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared},
    }
    errors = [e for p in passes for e in p.errors]
    record = {"workload": workload.name, "seed": seed, "seconds": seconds, "trace": int(traced),
              "pass_results": len(passes), "provenance": prov, "errors": errors[:20], "result": result,
              "samples": raw}
    (OUT / "results").mkdir(parents=True, exist_ok=True)
    (OUT / "results" / f"{workload.name}-seed{seed}-trace{int(traced)}.json").write_text(
        json.dumps(record, indent=2) + "\n", encoding="utf-8")
    print(f"# {name} seed={seed} trace={int(traced)} pass_results={len(passes)} "
          f"attempted={attempted} failed={failed}", file=sys.stderr)
    print("# " + json.dumps(prov), file=sys.stderr)
    for error in errors[:20]:
        print(f"# FAILED {error}", file=sys.stderr)
    if not traced:
        print(f"# host slowdown {raw['host_slowdown']:.3f} (mean probe / {PROBE_REF_S} s); as measured: "
              f"wall {statistics.fmean(raw['pass_wall_s']):.4g} s, setup {statistics.median(raw['setup_s']):.4g} s",
              file=sys.stderr)
    for key, metric in result["metrics"].items():
        print(f"{key:40s} {metric['value']:>16.6g} {metric['unit']}", file=sys.stderr)
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=(*wl.WORKLOAD_NAMES, "all"))
    parser.add_argument("--seed", type=int, default=wl.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=55)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    names = wl.WORKLOAD_NAMES if args.workload == "all" else (args.workload,)
    for name in names:
        try:
            result = run(name, args.seed, args.seconds, bool(args.trace))
        except SetupError as exc:
            print(f"perfbench: {exc}", file=sys.stderr)
            return 2
        print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
