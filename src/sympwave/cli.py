"""Command-line front end.

Exit codes: 0 success, 2 usage error (a malformed or out-of-range input),
3 divergent or unresolved (an integral that diverges, or a proxy or
quadrature that cannot reach its tolerance), 4 I/O failure.  Every package
error takes its code and its stderr label from its class in ``errors``.
The flags of each subcommand are the keys of its experiment in
``harness.EXPERIMENTS``.  A config file of ``key = value`` lines can pre-fill
any flag; explicit CLI flags win.  Output format is CSV unless the path ends
in ``.svg``.
"""

from __future__ import annotations

import argparse
import sys

from .errors import SympwaveError
from .harness import EXPERIMENTS, csv_text, emit, read_config, run_sweep


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="sympwave",
                                     description="spectral-density, stationary-phase and wave-kernel sweeps")
    subs = parser.add_subparsers(dest="experiment", required=True)
    for name, experiment in EXPERIMENTS.items():
        sub = subs.add_parser(name, help=experiment.help)
        for key in experiment.keys:
            sub.add_argument(f"--{key}", dest=key, metavar=key.replace("-", "_").upper())
        sub.add_argument("--config", help="key = value file with defaults")
        sub.add_argument("--out", help="output path (.csv or .svg)")
    return parser


def spec_from_args(args: argparse.Namespace) -> dict:
    """The config file's keys, if any, then every flag that was set."""
    spec = read_config(args.config) if args.config else {}
    spec.update((key, str(value)) for key, value in vars(args).items()
                if value is not None and key not in ("config", "out"))
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
            sys.stdout.write(csv_text(records))
        return 0
    except SympwaveError as exc:
        print(f"{exc.label}: {exc}", file=sys.stderr)
        return exc.exit_code
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
