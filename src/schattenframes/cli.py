"""Command-line front end.

    schattenframes verify-theorems  [--seed N] [--dim D] [--trials T]
                                    [--p-grid 0.5,1,2] [--out DIR] [--config F]
    schattenframes counterexamples  [same flags]
    schattenframes bergman          [same flags, plus --rmax R]
    schattenframes norm-estimate MATRIX.json --p P [--strategy S] [same flags]

Exit codes: 0 all checks passed, 1 at least one check failed, 2 usage or
I/O error.  Flags override values from --config (a JSON file with the same
kebab-case keys or their snake_case equivalents).
"""

from __future__ import annotations

import argparse
import dataclasses
import sys
from pathlib import Path

from .campaigns import (
    CampaignConfig,
    run_bergman,
    run_counterexamples,
    run_norm_estimate,
    run_verify_theorems,
)
from .serialization import _read_json

__all__ = ["main"]

_COMMANDS = {
    "verify-theorems": run_verify_theorems,
    "counterexamples": run_counterexamples,
    "bergman": run_bergman,
}


def _add_common_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--config", type=Path, help="JSON config file; flags override it")
    sub.add_argument("--seed", type=int, default=None)
    sub.add_argument("--dim", type=int, default=None)
    sub.add_argument("--trials", type=int, default=None)
    sub.add_argument("--p-grid", type=str, default=None, help="comma-separated exponents")
    sub.add_argument("--rmax", type=float, default=None)
    sub.add_argument("--out", type=Path, default=None, help="report directory")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="schattenframes",
        description="Frame-based Schatten-norm verification campaigns",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _COMMANDS:
        _add_common_flags(sub.add_parser(name))
    est = sub.add_parser("norm-estimate")
    est.add_argument("matrix", type=Path, help="matrix JSON file")
    est.add_argument("--p", type=float, required=True)
    est.add_argument(
        "--strategy",
        choices=("singular_basis_exact", "frame_ensemble"),
        default="singular_basis_exact",
    )
    _add_common_flags(est)
    return parser


def _load_config(args: argparse.Namespace) -> CampaignConfig:
    values: dict = {}
    if args.config is not None:
        raw = _read_json(args.config)
        if not isinstance(raw, dict):
            raise ValueError(f"config file {args.config} must hold a JSON object")
        for key, val in raw.items():
            values[key.replace("-", "_")] = val
        values.pop("command", None)
        unknown = sorted(values.keys() - {f.name for f in dataclasses.fields(CampaignConfig)})
        if unknown:
            raise ValueError(f"config file {args.config} has unknown keys {unknown}")
    for key in ("seed", "dim", "trials", "rmax"):
        flag = getattr(args, key)
        if flag is not None:
            values[key] = flag
    if args.p_grid is not None:
        try:
            values["p_grid"] = [float(x) for x in args.p_grid.split(",") if x.strip()]
        except ValueError:
            message = f"p-grid must be comma-separated numbers, got {args.p_grid!r}"
            raise ValueError(message) from None
    if args.out is not None:
        values["output_dir"] = str(args.out)
    return CampaignConfig(command=args.command, **values)


def _print_summary(report) -> None:
    for rec in report.records:
        status = "PASS" if rec.get("passed", False) else "FAIL"
        label = rec.get("tag", "check")
        p = rec.get("p")
        suffix = f" p={p}" if p is not None else ""
        print(f"[{status}] {label}{suffix}")
    summary = report.summary()
    print(f"{summary['passed']}/{summary['total']} checks passed")


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        config = _load_config(args)
        if args.command == "norm-estimate":
            report = run_norm_estimate(args.matrix, args.p, args.strategy, config)
        else:
            report = _COMMANDS[args.command](config)
        path = report.write(config.output_dir or "reports")
    except (ValueError, OSError) as exc:  # json.JSONDecodeError is a ValueError
        print(f"error: {exc}", file=sys.stderr)
        return 2
    _print_summary(report)
    print(f"report written to {path}")
    return 0 if report.passed else 1


if __name__ == "__main__":
    sys.exit(main())
