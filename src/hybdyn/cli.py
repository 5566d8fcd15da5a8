"""Command-line interface.

    hybdyn <subcommand> --config PATH [--out DIR] [--seed N]

Subcommands: circle-demo, hybrid-converge, lyap-slope, na-measure.
Exit codes: 0 success, 2 config error, 3 numerical failure.
"""

from __future__ import annotations

import argparse
import json
import sys

from .errors import (ChartError, ConfigError, ConventionError, DegenerateFamilyError,
                     DegenerateMapError, LaurentError, ParseError,
                     UnsupportedDegreeError, UnsupportedMapError)
from .harness import KINDS, _validate, load_config, run

_CONFIG_ERRORS = (ConfigError, ParseError)
_NUMERICAL_ERRORS = (ChartError, ConventionError, DegenerateFamilyError,
                     DegenerateMapError, LaurentError, UnsupportedDegreeError,
                     UnsupportedMapError)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hybdyn",
        description="Degeneration experiments for rational-map families")
    sub = parser.add_subparsers(dest="kind", required=True)
    for kind in KINDS:
        p = sub.add_parser(kind)
        p.add_argument("--config", required=True, help="INI config path")
        p.add_argument("--out", default=None, help="output directory override")
        p.add_argument("--seed", type=int, default=None, help="seed override")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = load_config(args.config, kind=args.kind)
        if args.seed is not None:
            cfg.seed = args.seed
            _validate(cfg)  # the override obeys the config's own rules
        record = run(cfg, out_dir=args.out)
    except _CONFIG_ERRORS as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except _NUMERICAL_ERRORS as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    print(json.dumps(record.json_payload(), indent=2, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
