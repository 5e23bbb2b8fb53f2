"""Command-line front end.

Exit codes: 0 success, 2 usage error (a malformed or out-of-range input),
3 divergent or unresolved (an integral that diverges, or a proxy or
quadrature that cannot reach its tolerance), 4 I/O failure.
A config file of ``key = value`` lines can pre-fill any flag; explicit CLI
flags win.  Output format is CSV unless the path ends in ``.svg``.
"""

from __future__ import annotations

import argparse
import sys

from .errors import DivergenceError, OutOfRangeError, ResolutionError, UsageError
from .harness import csv_lines, emit, read_config, run_sweep


def _add_common(sub):
    sub.add_argument("--config", default=None, help="key = value file with defaults")
    sub.add_argument("--out", required=False, default=None, help="output path (.csv or .svg)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="sympwave",
                                     description="spectral-density, stationary-phase and wave-kernel sweeps")
    subs = parser.add_subparsers(dest="experiment", required=True)

    p = subs.add_parser("cfun", help="Plancherel density along a ray")
    p.add_argument("--preset", default=None)
    p.add_argument("--lambda-max", dest="lambda_max", default=None)
    p.add_argument("--steps", default=None)
    p.add_argument("--direction", default=None)
    _add_common(p)

    p = subs.add_parser("stphase", help="boundary expansion vs direct quadrature")
    p.add_argument("--demo", default=None)
    p.add_argument("--x-list", dest="x_list", default=None)
    p.add_argument("--N", default=None)
    p.add_argument("--M", default=None)
    _add_common(p)

    p = subs.add_parser("model", help="radial-density decomposition sweep")
    p.add_argument("--preset", default=None)
    p.add_argument("--symbol", default=None)
    p.add_argument("--r", default=None)
    p.add_argument("--h-list", dest="h_list", default=None)
    p.add_argument("--M", default=None)
    _add_common(p)

    p = subs.add_parser("kernel", help="wave-kernel values on a time grid")
    p.add_argument("--preset", default=None)
    p.add_argument("--psi", default=None)
    p.add_argument("--t-list", dest="t_list", default=None)
    p.add_argument("--R", default=None)
    _add_common(p)

    p = subs.add_parser("dispersive", help="convolution-bound integral on a time grid")
    p.add_argument("--preset", default=None)
    p.add_argument("--psi", default=None)
    p.add_argument("--p", default=None)
    p.add_argument("--t-list", dest="t_list", default=None)
    _add_common(p)

    return parser


_FLAG_TO_KEY = {
    "lambda_max": "lambda-max",
    "x_list": "x-list",
    "h_list": "h-list",
    "t_list": "t-list",
}


def spec_from_args(args: argparse.Namespace) -> dict:
    spec = {}
    if args.config:
        spec.update(read_config(args.config))
    for key, value in vars(args).items():
        if key in ("config", "out") or value is None:
            continue
        spec[_FLAG_TO_KEY.get(key, key)] = str(value)
    return spec


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        spec = spec_from_args(args)
        records = run_sweep(spec)
        if args.out:
            fmt = "svg" if args.out.endswith(".svg") else "csv"
            emit(records, fmt, args.out)
        else:
            for line in csv_lines(records):
                print(line)
        return 0
    except (UsageError, OutOfRangeError) as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except DivergenceError as exc:
        print(f"divergence: {exc}", file=sys.stderr)
        return 3
    except ResolutionError as exc:
        print(f"numeric error: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
