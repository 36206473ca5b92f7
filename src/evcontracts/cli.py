"""Command-line experiment driver.

Subcommands: welfare, fda-audit, evalue-growth, multiround, best-response.
Every run writes CSVs, SVG plots, and a manifest, a config file that
--config replays, into --out. Exit codes: 0 success, 2 configuration error
naming the key, 3 reference deviation (the default audit table must match its
committed verdicts); any other exception is a defect and shows a traceback.
"""

from __future__ import annotations

import argparse
import sys

from .experiments import (
    ConfigError,
    ReferenceDeviation,
    RUNNERS,
    SCHEMAS,
    parse_assignment,
    parse_config_file,
    resolve_config,
)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_DEVIATION = 3


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="evcontracts",
        description="Incentive-aligned statistical contract experiments",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in SCHEMAS:
        command = name.replace("_", "-")
        p = sub.add_parser(command, help=f"run the {command} experiment")
        p.add_argument("--config", help="flat key = value config file")
        p.add_argument("--out", default=f"out/{command}", help="output directory")
        p.add_argument("--seed", type=int, help="override the seed")
        if "reps" in SCHEMAS[name]:
            p.add_argument("--reps", type=int, help="override Monte Carlo replicates")
        p.add_argument(
            "--param",
            action="append",
            default=[],
            metavar="KEY=VALUE",
            help="override any config key (repeatable)",
        )
    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    experiment = args.command.replace("-", "_")
    try:
        file_values = parse_config_file(args.config) if args.config else {}
        overrides = dict(parse_assignment(item, "--param") for item in args.param)
        if args.seed is not None:
            overrides["seed"] = str(args.seed)
        if getattr(args, "reps", None) is not None:
            overrides["reps"] = str(args.reps)
        config = resolve_config(experiment, args.out, file_values, overrides)
        result = RUNNERS[experiment](config)
    except ReferenceDeviation as err:
        print(f"reference deviation: {err}", file=sys.stderr)
        return EXIT_DEVIATION
    except ConfigError as err:
        print(f"config error: {err}", file=sys.stderr)
        return EXIT_CONFIG
    for path in result.removed:
        print(f"removed {path}")
    for path in result.files:
        print(f"wrote {path}")
    for key, value in result.summary.items():
        print(f"{key}: {value}")
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
