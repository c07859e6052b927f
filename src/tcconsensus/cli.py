"""Command-line interface.

Subcommands: ``simulate``, ``analyze``, ``equilibrium`` (all config-driven),
``scenario <name>`` (run a built-in by name), and ``list-scenarios``.
Shared flags ``--dt``, ``--t-final``, ``--seed``, ``--out`` override the
corresponding config fields. Exit status 0: expectations met; 1: not met;
2: an error. A package error (a malformed config or record among them)
or an ``OSError`` prints one ``error:`` line on stderr; any other
exception prints its traceback first.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
import traceback

from .app import RunConfig, list_scenarios, load_config, run
from .errors import TCConsensusError, ValidationError
from .scenarios import scenario_by_name


def _add_shared(p: argparse.ArgumentParser) -> None:
    p.add_argument("--dt", type=float, default=None, help="integration step size")
    p.add_argument("--t-final", type=float, default=None, help="integration horizon")
    p.add_argument("--seed", type=int, default=None, help="seed for x0 sampling")
    p.add_argument("--out", default=None, help="output directory for CSV/JSON artifacts")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tcconsensus",
        description=(
            "simulate and verify consensus dynamics under per-edge "
            "transmission constraints"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    for name, help_ in (
        ("simulate", "integrate, monitor, and classify from a JSON config"),
        ("analyze", "classify a system without integrating"),
        ("equilibrium", "solve for an equilibrium from a JSON config"),
    ):
        p = sub.add_parser(name, help=help_)
        p.add_argument("config", help="path to a JSON run configuration")
        _add_shared(p)

    p = sub.add_parser("scenario", help="run a built-in scenario by name")
    p.add_argument("name", help="scenario name (see list-scenarios)")
    _add_shared(p)

    sub.add_parser("list-scenarios", help="list the built-in scenarios")
    return parser


def _apply_overrides(config: RunConfig, args) -> RunConfig:
    updates = {}
    if args.seed is not None:
        updates["seed"] = args.seed
    if args.dt is not None or args.t_final is not None:
        base = config.integration
        if base is None and config.scenario is not None:
            base = scenario_by_name(config.scenario).integration
        if base is None:
            raise TCConsensusError(
                "--dt/--t-final need an integration section to override"
            )
        try:
            updates["integration"] = dataclasses.replace(
                base,
                dt=args.dt if args.dt is not None else base.dt,
                t_final=args.t_final if args.t_final is not None else base.t_final,
            )
        except ValueError as err:
            raise ValidationError(str(err)) from err
    if args.out is not None:
        updates["output_dir"] = args.out
    return dataclasses.replace(config, **updates) if updates else config


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)

    if args.command == "list-scenarios":
        print(json.dumps(list_scenarios(), indent=2))
        return 0

    try:
        if args.command == "scenario":
            config = RunConfig(scenario=args.name)
            mode = "simulate"
        else:
            config = load_config(args.config)
            mode = args.command
        config = _apply_overrides(config, args)
    except KeyError as err:
        print(f"error: {err.args[0]}", file=sys.stderr)
        return 2
    except TCConsensusError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2

    try:
        return run(config, mode=mode)
    except Exception as err:
        # exit 1 means "expectations not met"; a crash is not a verdict
        traceback.print_exc()
        print(f"error: {type(err).__name__}: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
