"""Command line front end.

proxcycle run <config>      iterate from the configured starts and run checks
proxcycle verify <config>   static checks only (no trajectories)
proxcycle certify <config> --x <vec> --y <vec>   certify one candidate pair

Exit codes: 0 no check failed (each passed or was inconclusive), 1
violations found or candidate rejected, 2 configuration error.
"""
from __future__ import annotations

import argparse
import json
import sys

from .config import ConfigError, load_config
from .runner import EXIT_CONFIG, execute, run_certify_command


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="proxcycle",
        description="Coupled Picard iteration and best-proximity certification "
                    "for cyclic maps on convex set pairs.")
    sub = p.add_subparsers(dest="command", required=True)
    specs = (
        ("run", "iterate from the configured starts, then run all requested checks"),
        ("verify", "run the static map checks only"),
        ("certify", "certify one explicit candidate pair"),
    )
    for name, help_text in specs:
        sp = sub.add_parser(name, help=help_text)
        sp.add_argument("config", help="path to a JSON experiment configuration")
        sp.add_argument("--seed", type=int, default=None,
                        help="override the configured sampling seed")
        sp.add_argument("--max-iters", type=int, default=None,
                        help="override the stop rule's iteration budget")
        sp.add_argument("--tol", type=float, default=None,
                        help="override the global inequality slack")
        sp.add_argument("--out", default=None,
                        help="override the output directory")
        if name == "certify":
            sp.add_argument("--x", required=True,
                            help='candidate x as JSON, e.g. \'{"1": 1, "2": 1}\'')
            sp.add_argument("--y", required=True,
                            help='candidate y as JSON, e.g. \'{"2": 1, "3": 1}\'')
    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = load_config(
            args.config,
            seed_override=args.seed,
            max_iters_override=args.max_iters,
            tol_override=args.tol,
            out_override=args.out,
        )
        if args.command == "certify":
            try:
                x = json.loads(args.x)
                y = json.loads(args.y)
            except json.JSONDecodeError as exc:
                raise ConfigError(f"candidate vectors must be JSON: {exc}") from exc
            return run_certify_command(cfg, x, y)
        return execute(cfg, args.command)[0]
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
