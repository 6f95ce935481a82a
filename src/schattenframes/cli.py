"""Command-line front end.

    schattenframes verify-theorems  [--seed N] [--dim D] [--trials T]
                                    [--p-grid 0.5,1,2] [--out DIR] [--config F]
    schattenframes counterexamples  [--dim D] [--p-grid 0.5,1] [--out DIR] [--config F]
    schattenframes bergman          [verify-theorems' flags, plus --rmax R]
    schattenframes norm-estimate MATRIX.json --p P [--strategy S]
                                    [--seed N] [--trials T] [--out DIR] [--config F]

Each command takes the flags of the settings it reads (`campaigns._SETTINGS`)
and refuses any other; norm-estimate's --seed and --trials are read by
--strategy frame_ensemble alone and refused under singular_basis_exact
(`campaigns._reads`).  Exit codes: 0 all checks passed, 1 at least one check
failed, 2 usage or I/O error.  Flags override values from --config, a JSON
file whose keys are the command's settings and `output-dir`, each kebab- or
snake-case.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .campaigns import (
    _SETTINGS,
    CampaignConfig,
    _reads,
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

#: The argparse options of each setting's flag
_FLAGS = {
    "seed": dict(type=int),
    "dim": dict(type=int),
    "trials": dict(type=int),
    "p_grid": dict(help="comma-separated exponents"),
    "rmax": dict(type=float),
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="schattenframes",
        description="Frame-based Schatten-norm verification campaigns",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, settings in _SETTINGS.items():
        command = sub.add_parser(name)
        if name == "norm-estimate":
            command.add_argument("matrix", type=Path, help="matrix JSON file")
            command.add_argument("--p", type=float, required=True)
            command.add_argument(
                "--strategy",
                choices=("singular_basis_exact", "frame_ensemble"),
                default="singular_basis_exact",
            )
        command.add_argument("--config", type=Path, help="JSON config file; flags override it")
        for key in settings:
            command.add_argument("--" + key.replace("_", "-"), dest=key, **_FLAGS[key])
        command.add_argument("--out", type=Path, default=None, help="report directory")
    return parser


def _load_config(args: argparse.Namespace) -> CampaignConfig:
    reader, settings = _reads(args.command, getattr(args, "strategy", None))
    values: dict = {}
    if args.config is not None:
        raw = _read_json(args.config)
        if not isinstance(raw, dict):
            raise ValueError(f"config file {args.config} must hold a JSON object")
        values = {key.replace("-", "_"): val for key, val in raw.items()}
        unknown = sorted(values.keys() - {*settings, "output_dir"})
        if unknown:
            raise ValueError(
                f"config file {args.config} has keys {unknown} that {reader} does not "
                f"read; it reads {[*settings, 'output_dir']}"
            )
    for key in _SETTINGS[args.command]:
        flag = getattr(args, key)
        if flag is None:
            continue
        if key not in settings:
            raise ValueError(f"{reader} does not read --{key.replace('_', '-')}")
        if key == "p_grid":
            try:
                flag = [float(x) for x in flag.split(",") if x.strip()]
            except ValueError:
                message = f"p-grid must be comma-separated numbers, got {flag!r}"
                raise ValueError(message) from None
        values[key] = flag
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
