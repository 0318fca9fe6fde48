"""Command-line entry point.

Subcommands pick the mode; a JSON config file supplies the rest, with
--seed / --horizons / --out / --set overrides applied on top. Exit codes:
0 success, 1 a verification check failed, 2 configuration error.
"""

from __future__ import annotations

import argparse
import json
import sys

from .core import ConfigError, InputDomainError
from .harness import MODES, run_experiment
from .verify import CheckReport


def _parse_int_list(text: str) -> list:
    try:
        return [int(v) for v in text.split(",") if v.strip() != ""]
    except ValueError as e:
        raise ConfigError(f"expected a comma-separated integer list, got {text!r}") from e


def _apply_set(config: dict, assignment: str) -> None:
    if "=" not in assignment:
        raise ConfigError(f"--set expects key=value, got {assignment!r}")
    key, _, raw = assignment.partition("=")
    try:
        value = json.loads(raw)
    except json.JSONDecodeError:
        value = raw  # bare strings are allowed unquoted
    node = config
    parts = key.split(".")
    for part in parts[:-1]:
        node = node.setdefault(part, {})
        if not isinstance(node, dict):
            raise ConfigError(f"--set path {key!r} crosses a non-object field")
    node[parts[-1]] = value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="relaxplay",
        description="Oracle-efficient online learning simulations and checks.",
    )
    sub = parser.add_subparsers(dest="mode", required=True)
    for mode in MODES:
        p = sub.add_parser(mode, help=f"run in {mode} mode")
        p.add_argument("--config", help="path to a JSON experiment config")
        p.add_argument("--seed", help="comma-separated seed list (overrides config)")
        p.add_argument("--out", help="output directory for CSV traces and the summary")
        p.add_argument("--horizons", help="comma-separated horizon list (overrides config)")
        p.add_argument(
            "--set",
            action="append",
            default=[],
            metavar="KEY=VALUE",
            help="override any config field by dotted path (value parsed as JSON)",
        )
    return parser


def load_config(args) -> dict:
    config: dict = {}
    if args.config:
        try:
            with open(args.config) as fh:
                config = json.load(fh)
        except FileNotFoundError as e:
            raise ConfigError(f"config file not found: {args.config}") from e
        except json.JSONDecodeError as e:
            raise ConfigError(f"config file is not valid JSON: {e}") from e
        if not isinstance(config, dict):
            raise ConfigError("config file must hold a JSON object")
    config["mode"] = args.mode
    if args.seed:
        config["seeds"] = _parse_int_list(args.seed)
    if args.horizons:
        config["horizons"] = _parse_int_list(args.horizons)
    if args.out:
        config["out"] = args.out
    for assignment in args.set:
        _apply_set(config, assignment)
    config.setdefault("seeds", [0])
    return config


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        config = load_config(args)
        summary = run_experiment(config)
    except (ConfigError, InputDomainError) as e:
        print(f"config error: {e}", file=sys.stderr)
        return 2

    for check in summary.get("checks", ()):
        print(CheckReport(**check).line())
    print(json.dumps({k: v for k, v in summary.items() if k not in ("checks", "per_horizon")}, sort_keys=True))
    return 1 if summary.get("failed") else 0


if __name__ == "__main__":
    sys.exit(main())
