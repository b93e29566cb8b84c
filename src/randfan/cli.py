"""Command-line front end: ray universes, fans, blowdown reports, seeded sweeps.

Exit codes: 0 success, 1 input validation failure (including bad arguments),
2 I/O failure, 3 internal invariant violation.
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

from .blowdown import blowdown_table
from .errors import InvariantError, ValidationError
from .experiments import (
    BLOWDOWN_COLUMNS,
    RATIO_COLUMNS,
    RAY_COLUMNS,
    SPACE_COLUMNS,
    ExperimentSpec,
    _check_path,
    _read_json,
    blowdown_array,
    conjecture_report,
    ray_array,
    render,
    render_document,
    run_threshold_sweep,
    space_array,
    spec_from_dict,
    spec_from_file,
    sweep_columns,
    sweep_rows_as_dicts,
    write_blocks,
)
from .fans import fan_from_record, is_smooth
from .lattice import enumerate_rays
from .sampling import SampleConfig, sample_fan

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_IO = 2
EXIT_INTERNAL = 3


class _Parser(argparse.ArgumentParser):
    # route argument errors through the normal validation exit path; argparse
    # echoes an offending argument whole, so a long message keeps its ends
    def error(self, message):
        raise ValidationError(message if len(message) <= 400 else f"{message[:200]}...{message[-200:]}")


def _write(out, blocks) -> None:
    # blocks of bytes into the file out, atomically, or to standard output
    if out is not None:
        write_blocks(out, blocks)
        return
    sys.stdout.flush()
    for block in blocks:
        sys.stdout.buffer.write(block)
    sys.stdout.buffer.flush()


def _emit_rows(args, table, columns) -> None:
    _write(args.out, render(table, args.format, columns=columns))


def _emit_record(args, doc, coords) -> None:
    # a fan record: doc, then the rays as [x, y] pairs
    _write(args.out, render_document(doc, "rays", [coords[:, 0], coords[:, 1]]))


def _cmd_rays(args) -> None:
    _emit_rows(args, ray_array(enumerate_rays(args.h)), RAY_COLUMNS)


def _cmd_complete(args) -> None:
    # the universe is the full fan's ray list, checked and in fan order
    _emit_record(args, {"h": args.h}, enumerate_rays(args.h).coords)


def _cmd_sample(args) -> None:
    cfg = SampleConfig(h=args.h, p=args.p, master_seed=args.seed, trial_index=args.trial)
    doc = {"h": args.h, "p": cfg.p, "master_seed": cfg.master_seed, "trial_index": cfg.trial_index}
    _emit_record(args, doc, sample_fan(cfg).coords)


def _cmd_spectrum(args) -> None:
    fan = fan_from_record(_read_json(args.infile))
    values, counts = np.unique(fan.cone_indices, return_counts=True)
    doc = {
        "n_rays": fan.n_rays,
        "n_cones": fan.n_cones,
        "smooth": is_smooth(fan),
        "max_index": int(fan.cone_indices.max(initial=0)),
        "counts": dict(zip(map(str, values.tolist()), counts.tolist())),
    }
    _write(args.out, render_document(doc, "indices", [fan.cone_indices]))


def _cmd_blowdown(args) -> None:
    _emit_rows(args, blowdown_array(blowdown_table(args.h)), BLOWDOWN_COLUMNS)


def _cmd_ratios(args) -> None:
    _emit_rows(args, conjecture_report(args.h, args.kmax), RATIO_COLUMNS)


def _cmd_space(args) -> None:
    _emit_rows(args, space_array(args.h), SPACE_COLUMNS)


def _spec_from_args(args) -> ExperimentSpec:
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


def _cmd_sweep(args) -> None:
    spec = _spec_from_args(args)
    rows = sweep_rows_as_dicts(run_threshold_sweep(spec, workers=args.workers), spec.k_list)
    cols = sweep_columns(spec.k_list)
    out = args.out if args.out is not None else (spec.output or {}).get("path")
    fmt = args.format or (spec.output or {}).get("format") or "csv"
    _write(out, render(rows, fmt, columns=cols))


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="randfan", description="Random toric surface fans: exact geometry and seeded experiments.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("rays", help="all primitive rays of sup-norm <= h, in angular order")
    p.add_argument("--h", type=int, required=True)
    p.add_argument("--format", choices=("csv", "json"), default="csv")
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
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.set_defaults(func=_cmd_blowdown)

    p = sub.add_parser("ratios", help="measured vs conjectured blowdown-index ratios")
    p.add_argument("--h", type=int, action="append", required=True, help="height; repeatable")
    p.add_argument("--kmax", type=int, required=True, help="largest index threshold (>= 2)")
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.set_defaults(func=_cmd_ratios)

    p = sub.add_parser("space", help="first-quadrant blowdown indices at height h")
    p.add_argument("--h", type=int, required=True)
    p.add_argument("--format", choices=("csv", "json"), default="csv")
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
        p.add_argument("--format", choices=("csv", "json"), default=None)
        p.set_defaults(func=_cmd_sweep)

    for p in sub.choices.values():
        p.add_argument("--out", help="write here (atomically) instead of stdout")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if args.out is not None:  # every command has --out; refused before any work
            _check_path(args.out)
        args.func(args)
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


if __name__ == "__main__":
    sys.exit(main())
