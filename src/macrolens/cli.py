"""Command-line front end.

    macrolens figure <1-8|alias> [--out PATH] [--format csv|json] [--steps N]
    macrolens compute --family css|psv|dfs (--alpha X | --r X) [--m N]
                      --detector homodyne|pnrd [--angle PHI] --sigma S
                      [--sign plus|minus] [--out PATH] [--format csv|json]
    macrolens sweep --config FILE [--out PATH]

The homodyne angle PHI defaults to 0, the x quadrature.

All domain errors exit with status 1 and a single-line diagnostic of the
form ``macrolens-error code=<kind> detail=<message>`` on stderr.
"""

from __future__ import annotations

import argparse
import functools
import sys

from ._version import __version__
from .catalog import FAMILIES, PARAM_NAMES
from .errors import InvalidArgumentError, MacrolensError
from .figures import (
    FIGURE_ALIASES,
    ResultTable,
    compute,
    parse_sweep_config,
    run_figure,
    sweep,
)


@functools.cache  # one parser per process: parse_args keeps no state in it
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="macrolens",
        description="Macroscopicity of quantum optical states: fluctuation "
        "photons, branch distinguishability, and their product.",
    )
    parser.add_argument("--version", action="version", version=f"macrolens {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    fig = sub.add_parser("figure", help="reproduce a reference figure as a data table")
    fig.add_argument(
        "id",
        help=f"figure number 1-8 or alias ({', '.join(sorted(FIGURE_ALIASES))})",
    )
    fig.add_argument("--out", default=None, help="output path (default: stdout)")
    fig.add_argument("--format", choices=("csv", "json"), default="csv")
    fig.add_argument("--steps", type=int, default=None, help="override the sweep density")

    comp = sub.add_parser("compute", help="single (state, detector) macroscopicity point")
    comp.add_argument("--family", required=True, choices=FAMILIES)
    comp.add_argument("--alpha", type=float, default=None)
    comp.add_argument("--r", type=float, default=None)
    comp.add_argument("--m", type=int, default=1)
    comp.add_argument("--detector", required=True, choices=("homodyne", "pnrd"))
    comp.add_argument("--angle", type=float, default=None,
                      help="homodyne angle (default: 0, the x quadrature)")
    comp.add_argument("--sigma", type=float, required=True)
    comp.add_argument("--sign", choices=("plus", "minus"), default="minus",
                      help="which superposition carries the macroscopicity")
    comp.add_argument("--out", default=None)
    comp.add_argument("--format", choices=("csv", "json"), default="csv")

    swp = sub.add_parser("sweep", help="run a sweep described by a config file")
    swp.add_argument("--config", required=True)
    swp.add_argument("--out", default=None, help="overrides the config's output path")
    return parser


def _emit(table: ResultTable, fmt: str, out: str | None) -> None:
    text = table.render(fmt)
    if out is None or out == "-":
        sys.stdout.write(text)
    else:
        with open(out, "w", encoding="utf-8") as handle:
            handle.write(text)


def _compute_params(args) -> dict:
    param = PARAM_NAMES[args.family]
    if getattr(args, param) is None:
        raise InvalidArgumentError(f"--family {args.family} requires --{param}")
    return {param: getattr(args, param), "m": args.m}


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "figure":
            _emit(run_figure(args.id, steps=args.steps), args.format, args.out)
        elif args.command == "compute":
            table = compute(
                args.family,
                _compute_params(args),
                args.detector,
                args.sigma,
                angle=args.angle,
                sign=+1 if args.sign == "plus" else -1,
            )
            _emit(table, args.format, args.out)
        else:
            try:
                with open(args.config, "r", encoding="utf-8") as handle:
                    text = handle.read()
            except UnicodeDecodeError as exc:
                raise InvalidArgumentError(f"config {args.config} is not UTF-8: {exc}") from None
            spec = parse_sweep_config(text)
            _emit(sweep(spec), spec.fmt, args.out or spec.out)
    except MacrolensError as exc:
        print(f"macrolens-error code={exc.code} detail={exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"macrolens-error code=io detail={exc}", file=sys.stderr)
        return 1
    except MemoryError as exc:
        print(f"macrolens-error code=unsupported-range detail=out of memory: {exc}",
              file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
