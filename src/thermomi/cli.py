"""Command-line frontend: single points, sweeps, the six reference CSVs,
and the random bound explorer.

Exit codes: 0 success, 2 usage error (including any argument the library
rejects), 3 numerical validation failure (including a result that is not
finite) or a model too large to allocate, 4 I/O failure, 5 bound violation
found by the explorer.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import re
import sys

import numpy as np

from .models import XYParams, xy_ground_state
from .sweep import (
    DEFAULT_COUPLING_GRID,
    DEFAULT_TEMPERATURE_GRID,
    Spacing,
    SweepMode,
    SweepRecord,
    SweepSpec,
    evaluate_xy_point,
    explore_bound,
    fig1_suite,
    run_sweep,
)
from .operator_core import OperatorError

__all__ = ["CSV_HEADER", "main"]

CSV_HEADER = ",".join(SweepRecord._fields)
# 15 significant digits: the serialization contract for every number.
_CSV_ROW = ",".join(["%.15g"] * len(SweepRecord._fields))

# Library parameters set by a flag of another name; a rejected argument's
# message names the flag that was typed.
_FLAGS = {"axis_min": "--min", "axis_max": "--max", "interaction_scale": "--scale", "seed": "--seed"}
_PARAMETER = re.compile(r"\b(" + "|".join(_FLAGS) + r")\b")


def _json_value(v) -> str:
    if isinstance(v, int):
        return str(v)
    if isinstance(v, float):
        if math.isinf(v):
            return "Infinity" if v > 0 else "-Infinity"
        return "%.15g" % v
    if isinstance(v, str):
        return json.dumps(v)
    if isinstance(v, (list, tuple)):
        return "[" + ", ".join(_json_value(x) for x in v) + "]"
    raise TypeError(f"cannot serialize {type(v)!r}")


def _json_object(items, indent: str = "") -> str:
    body = ",\n".join(f'{indent}  "{k}": {_json_value(v)}' for k, v in items)
    return f"{indent}{{\n{body}\n{indent}}}"


def _records_csv(records) -> str:
    return "\n".join([CSV_HEADER, *(_CSV_ROW % rec for rec in records)]) + "\n"


def _records_json(records) -> str:
    objs = [_json_object(zip(rec._fields, rec), indent="  ") for rec in records]
    return "[\n" + ",\n".join(objs) + "\n]\n"


def _write_text(path: str | None, text: str) -> None:
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w", newline="") as fh:
            fh.write(text)


def _add_field_args(sub, with_g: bool) -> None:
    sub.add_argument("--b1", type=float, required=True, help="field on spin A")
    sub.add_argument("--b2", type=float, required=True, help="field on spin B")
    if with_g:
        sub.add_argument("--g", type=float, required=True, help="XY coupling constant")


def _add_beta_args(sub) -> None:
    group = sub.add_mutually_exclusive_group(required=True)
    group.add_argument("--beta", type=float, help="inverse temperature")
    group.add_argument("--beta-inv", type=float, help="temperature (reciprocal of beta)")


def _add_grid_args(sub, default) -> None:
    lo, hi, points = default
    sub.add_argument("--min", type=float, default=lo, help="axis lower endpoint")
    sub.add_argument("--max", type=float, default=hi, help="axis upper endpoint")
    sub.add_argument("--points", type=int, default=points, help="number of grid points")
    sub.add_argument(
        "--spacing", choices=["linear", "log"], default=None, help="grid spacing"
    )


def _add_output_args(sub, formats=("csv", "json")) -> None:
    sub.add_argument("--out", default=None, help="output path (stdout if omitted)")
    sub.add_argument("--format", choices=list(formats), default=formats[0])


def _resolve_beta(parser, args) -> tuple[float, float]:
    """(beta, beta_inv) from whichever flag was supplied."""
    if args.beta is not None:
        beta = args.beta
        beta_inv = math.inf if beta == 0.0 else 1.0 / beta
    else:
        # The library checks beta but never sees beta_inv, so it is checked here.
        if not math.isfinite(args.beta_inv) or args.beta_inv <= 0.0:
            parser.error(f"--beta-inv must be finite and > 0, got {args.beta_inv}")
        beta_inv = args.beta_inv
        beta = 1.0 / beta_inv
    return beta, beta_inv


def _parse_dims(parser, text: str) -> tuple[int, int]:
    match = re.fullmatch(r"(\d+)[xX](\d+)", text)
    if not match:
        parser.error(f"--dims must look like 2x3, got {text!r}")
    return int(match.group(1)), int(match.group(2))


def _parse_beta_list(parser, text: str) -> list[float]:
    try:
        return [float(tok) for tok in text.split(",") if tok.strip()]
    except ValueError:
        parser.error(f"--beta-list must be comma-separated numbers, got {text!r}")


def cmd_point(parser, args) -> int:
    beta, beta_inv = _resolve_beta(parser, args)
    params = XYParams(b1=args.b1, b2=args.b2, g=args.g)
    rec = evaluate_xy_point(params, beta, beta_inv=beta_inv)
    if args.format == "csv":
        _write_text(args.out, _records_csv([rec]))
    else:
        ground_state = xy_ground_state(params).classification.value
        items = [*zip(rec._fields, rec), ("beta", beta), ("ground_state", ground_state)]
        _write_text(args.out, _json_object(items) + "\n")
    return 0


def _cmd_sweep(parser, args, mode: SweepMode) -> int:
    if mode is SweepMode.TEMPERATURE:
        params = XYParams(b1=args.b1, b2=args.b2, g=args.g)
        beta_inv = 1.0
        default_spacing = Spacing.LOG
    else:
        params = XYParams(b1=args.b1, b2=args.b2, g=0.0)
        _, beta_inv = _resolve_beta(parser, args)
        default_spacing = Spacing.LINEAR
    spacing = Spacing(args.spacing) if args.spacing else default_spacing
    spec = SweepSpec(
        mode=mode,
        params=params,
        axis_min=args.min,
        axis_max=args.max,
        points=args.points,
        spacing=spacing,
        beta_inv=beta_inv,
    )
    records = run_sweep(spec)
    render = _records_csv if args.format == "csv" else _records_json
    _write_text(args.out, render(records))
    return 0


def cmd_fig1(parser, args) -> int:
    os.makedirs(args.out, exist_ok=True)
    for label, records in fig1_suite().items():
        path = os.path.join(args.out, f"fig1_{label}.csv")
        _write_text(path, _records_csv(records))
        print(path)
    return 0


def cmd_explore(parser, args) -> int:
    d_a, d_b = _parse_dims(parser, args.dims)
    betas = _parse_beta_list(parser, args.beta_list)
    summary = explore_bound(
        d_a=d_a,
        d_b=d_b,
        samples=args.samples,
        beta_list=betas,
        interaction_scale=args.scale,
        seed=args.seed,
    )
    # The first two fields, d_a and d_b, are written as one "dims".
    items = [("dims", f"{summary.d_a}x{summary.d_b}"), *zip(summary._fields[2:], summary[2:])]
    _write_text(args.out, _json_object(items) + "\n")
    return 5 if summary.violations else 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="thermomi",
        description=(
            "Thermal states of bipartite quantum systems: mutual information "
            "and its interaction-energy upper bound (all entropies in nats)."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    point = sub.add_parser("point", help="evaluate a single XY-model point")
    _add_field_args(point, with_g=True)
    _add_beta_args(point)
    _add_output_args(point, formats=("json", "csv"))
    point.set_defaults(handler=cmd_point)

    temp = sub.add_parser("sweep-temperature", help="sweep beta^-1 at fixed coupling")
    _add_field_args(temp, with_g=True)
    _add_grid_args(temp, DEFAULT_TEMPERATURE_GRID)
    _add_output_args(temp)
    temp.set_defaults(handler=lambda p, a: _cmd_sweep(p, a, SweepMode.TEMPERATURE))

    coup = sub.add_parser("sweep-coupling", help="sweep the coupling at fixed temperature")
    _add_field_args(coup, with_g=False)
    _add_beta_args(coup)
    _add_grid_args(coup, DEFAULT_COUPLING_GRID)
    _add_output_args(coup)
    coup.set_defaults(handler=lambda p, a: _cmd_sweep(p, a, SweepMode.COUPLING))

    fig1 = sub.add_parser("fig1", help="write the six reference sweeps as CSV files")
    fig1.add_argument("--out", default=".", help="output directory")
    fig1.set_defaults(handler=cmd_fig1)

    explore = sub.add_parser("explore", help="stress the bound on random models")
    explore.add_argument("--dims", required=True, help="subsystem dimensions, e.g. 2x3")
    explore.add_argument("--samples", type=int, default=200)
    explore.add_argument("--scale", type=float, default=1.0, help="interaction scale")
    explore.add_argument("--seed", type=int, default=0)
    explore.add_argument(
        "--beta-list",
        "--beta",
        dest="beta_list",
        default="0.1,1,10",
        help="comma-separated inverse temperatures",
    )
    explore.add_argument("--out", default=None, help="output path (stdout if omitted)")
    explore.set_defaults(handler=cmd_explore)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        # The library reports an overflow as an error of its own, so numpy's
        # warnings would only add lines to stderr.
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            return args.handler(parser, args)
    except SystemExit as exc:
        if exc.code is None:
            return 0
        return exc.code if isinstance(exc.code, int) else 2
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 4
    except OperatorError as exc:
        print(f"numerical validation error: {exc}", file=sys.stderr)
        return 3
    except MemoryError as exc:
        print(f"out of memory: {exc}", file=sys.stderr)
        return 3
    except ValueError as exc:
        # The library raises plain ValueError for a bad argument, before any work.
        message = _PARAMETER.sub(lambda match: _FLAGS[match[0]], str(exc))
        print(f"{parser.prog}: error: {message}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
