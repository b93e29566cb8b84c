"""Command-line front end: ray universes, fans, blowdown reports, seeded sweeps.

Exit codes: 0 success, 1 input validation failure (including bad arguments),
2 I/O failure, 3 internal invariant violation.

A command loads only the modules it runs: the table commands need the
modules imported here, and sample, spectrum and the sweeps import sampling,
fans and experiments in their own bodies.
"""

from __future__ import annotations

import argparse
import os
import sys
import threading
from contextlib import nullcontext

import numpy as np

from .blowdown import (
    BLOWDOWN_COLUMNS, RATIO_COLUMNS, SPACE_COLUMNS, blowdown_array, blowdown_table, conjecture_report, space_array,
)
from .emission import FORMATS, _read_json, open_sink, render, render_document
from .errors import InvariantError, ValidationError
from .lattice import RAY_COLUMNS, enumerate_rays, ray_array

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_IO = 2
EXIT_INTERNAL = 3


class _Parser(argparse.ArgumentParser):
    # route argument errors through the normal validation exit path; argparse
    # echoes an offending argument whole, so a long message keeps its ends
    def error(self, message):
        raise ValidationError(message if len(message) <= 400 else f"{message[:200]}...{message[-200:]}")


def _write_stdout(blocks) -> None:
    # text already printed first; a closed standard output is an i/o error
    if sys.stdout is None:
        raise OSError("standard output is closed")
    sys.stdout.flush()
    for block in blocks:
        sys.stdout.buffer.write(block)
        del block  # freed before the next block is made
    sys.stdout.buffer.flush()


def _record(doc, coords):
    # a fan record: doc, then the rays as [x, y] pairs
    return render_document(doc, "rays", [coords[:, 0], coords[:, 1]])


def _cmd_rays(args):
    return render(ray_array(enumerate_rays(args.h)), args.format, columns=RAY_COLUMNS)


def _cmd_complete(args):
    # the universe is the full fan's ray list, checked and in fan order
    return _record({"h": args.h}, enumerate_rays(args.h).coords)


def _cmd_sample(args):
    from .sampling import SampleConfig, sample_fan

    cfg = SampleConfig(h=args.h, p=args.p, master_seed=args.seed, trial_index=args.trial)
    doc = {"h": args.h, "p": cfg.p, "master_seed": cfg.master_seed, "trial_index": cfg.trial_index}
    return _record(doc, sample_fan(cfg).coords)


def _cmd_spectrum(args):
    from .fans import fan_from_record, is_smooth

    fan = fan_from_record(_read_json(args.infile))
    values, counts = np.unique(fan.cone_indices, return_counts=True)
    doc = {
        "n_rays": fan.n_rays,
        "n_cones": fan.n_cones,
        "smooth": is_smooth(fan),
        "max_index": int(fan.cone_indices.max(initial=0)),
        "counts": dict(zip(map(str, values.tolist()), counts.tolist())),
    }
    return render_document(doc, "indices", [fan.cone_indices])


def _cmd_blowdown(args):
    return render(blowdown_array(blowdown_table(args.h)), args.format, columns=BLOWDOWN_COLUMNS)


def _cmd_ratios(args):
    return render(conjecture_report(args.h, args.kmax), args.format, columns=RATIO_COLUMNS)


def _cmd_space(args):
    return render(space_array(args.h), args.format, columns=SPACE_COLUMNS)


def _spec_from_args(args):
    from .experiments import spec_from_dict, spec_from_file

    inline = args.h or args.q or args.c is not None or args.alpha is not None
    if args.spec:
        if inline:
            raise ValidationError("give either --spec or inline flags, not both")
        return spec_from_file(args.spec)
    if not args.h:
        raise ValidationError("--h is required when no --spec file is given")
    if args.q:
        if args.c is not None or args.alpha is not None:
            raise ValidationError("give either --q values or --c/--alpha, not both")
        schedule = args.q
    elif args.c is not None and args.alpha is not None:
        schedule = {"c": args.c, "alpha": args.alpha}
    else:
        raise ValidationError("give one --q per --h, or both --c and --alpha")
    doc = {
        "h_values": args.h,
        "q_schedule": schedule,
        "regime": args.regime,
        "trials": args.trials,
        "c_density": args.c_density,
        "master_seed": args.seed,
        "k_list": args.k or [2],
    }
    return spec_from_dict(doc)


def _read_sweep(args) -> None:
    # the sweep's spec, read before the output is opened: it may name the
    # output and its format, which the --out and --format flags override
    args.experiment = _spec_from_args(args)
    output = args.experiment.output or {}
    args.out = args.out if args.out is not None else output.get("path")
    args.format = args.format or output.get("format") or "csv"


def _cmd_sweep(args):
    from .experiments import run_threshold_sweep, sweep_columns, sweep_rows_as_dicts

    spec = args.experiment
    rows = sweep_rows_as_dicts(run_threshold_sweep(spec, workers=args.workers), spec.k_list)
    return render(rows, args.format, columns=sweep_columns(spec.k_list))


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="randfan", description="Random toric surface fans: exact geometry and seeded experiments.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("rays", help="all primitive rays of sup-norm <= h, in angular order")
    p.add_argument("--h", type=int, required=True)
    p.add_argument("--format", choices=FORMATS, default="csv")
    p.set_defaults(func=_cmd_rays)

    p = sub.add_parser("complete", help="the full fan at height h, as a JSON fan record")
    p.add_argument("--h", type=int, required=True)
    p.set_defaults(func=_cmd_complete)

    p = sub.add_parser("sample", help="one seeded random fan, as a JSON fan record")
    p.add_argument("--h", type=int, required=True)
    p.add_argument("--p", type=float, required=True, help="per-ray inclusion probability")
    p.add_argument("--seed", type=int, default=0, help="master seed (unsigned 64-bit)")
    p.add_argument("--trial", type=int, default=0, help="trial index (stream selector)")
    p.set_defaults(func=_cmd_sample)

    p = sub.add_parser("spectrum", help="singularity spectrum of a stored fan record")
    p.add_argument("--in", dest="infile", required=True, help="JSON fan record to read")
    p.set_defaults(func=_cmd_spectrum)

    p = sub.add_parser("blowdown", help="blowdown index of every ray at height h")
    p.add_argument("--h", type=int, required=True)
    p.add_argument("--format", choices=FORMATS, default="csv")
    p.set_defaults(func=_cmd_blowdown)

    p = sub.add_parser("ratios", help="measured vs conjectured blowdown-index ratios")
    p.add_argument("--h", type=int, action="append", required=True, help="height; repeatable")
    p.add_argument("--kmax", type=int, required=True, help="largest index threshold (>= 2)")
    p.add_argument("--format", choices=FORMATS, default="csv")
    p.set_defaults(func=_cmd_ratios)

    p = sub.add_parser("space", help="first-quadrant blowdown indices at height h")
    p.add_argument("--h", type=int, required=True)
    p.add_argument("--format", choices=FORMATS, default="csv")
    p.set_defaults(func=_cmd_space)

    for name, blurb in (
        ("threshold", "smooth/singular rates over an (h, q) grid"),
        ("density", "singular-cone density statistics over an (h, q) grid"),
    ):
        p = sub.add_parser(name, help=blurb)
        p.add_argument("--spec", help="JSON experiment spec file")
        p.add_argument("--h", type=int, action="append", help="height; repeatable")
        p.add_argument("--q", type=float, action="append", help="explicit schedule value; one per --h")
        p.add_argument("--c", type=float, help="power-law schedule coefficient")
        p.add_argument("--alpha", type=float, help="power-law schedule exponent")
        p.add_argument("--regime", choices=("q-small", "q-large"), default="q-small")
        p.add_argument("--trials", type=int, default=200)
        p.add_argument("--k", type=int, action="append", help="density threshold; repeatable")
        p.add_argument("--c-density", dest="c_density", type=float, default=0.01)
        p.add_argument("--seed", type=int, default=0, help="master seed (unsigned 64-bit)")
        p.add_argument("--workers", type=int, default=1)
        p.add_argument("--format", choices=FORMATS, default=None)
        p.set_defaults(func=_cmd_sweep)

    for p in sub.choices.values():
        p.add_argument("--out", help="write here instead of stdout (a regular file atomically)")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if args.func is _cmd_sweep:
            _read_sweep(args)
        # every command has --out; its file is opened before any work
        with nullcontext(_write_stdout) if args.out is None else open_sink(args.out) as write:
            write(args.func(args))
        return EXIT_OK
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO
    except InvariantError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


def run() -> int:
    """The process entry of `python -m randfan.cli` and the `randfan` script:
    `main` on sys.argv, then stdout and stderr flushed, then os._exit, which
    skips the interpreter's teardown (it reads and writes nothing).  With a
    tracer, profiler or monitoring tool attached (trace, coverage, cProfile
    report at exit) or a second thread running (a normal exit joins it), it
    returns the code instead, for a normal exit."""
    code = main()
    try:
        for stream in filter(None, (sys.stdout, sys.stderr)):
            stream.flush()
    except OSError as exc:
        # the bytes still buffered cannot be written, and a normal exit would try again
        os.dup2(os.open(os.devnull, os.O_WRONLY), stream.fileno())
        if code != EXIT_IO:  # main reported no failure of this stream
            print(f"i/o error: {exc}", file=sys.stderr)
        code = EXIT_IO
    monitoring = getattr(sys, "monitoring", None)  # Python 3.12+, tool ids 0-5
    if (sys.gettrace() is None and sys.getprofile() is None and threading.active_count() == 1
            and (monitoring is None or all(monitoring.get_tool(i) is None for i in range(6)))):
        os._exit(code)
    return code


if __name__ == "__main__":
    sys.exit(run())
