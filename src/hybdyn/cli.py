"""Command-line interface.

    hybdyn <subcommand> --config PATH [--out DIR]

Subcommands: circle-demo, hybrid-converge, lyap-slope, na-measure.
Exit codes: 0 success, 2 config error (``ConfigError``, ``ParseError``),
3 numerical failure (every other ``HybdynError``).
"""

from __future__ import annotations

import argparse
import json
import sys

from .errors import ConfigError, HybdynError, ParseError
from .harness import KINDS, load_config, run


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hybdyn",
        description="Degeneration experiments for rational-map families")
    sub = parser.add_subparsers(dest="kind", required=True)
    for kind in KINDS:
        p = sub.add_parser(kind)
        p.add_argument("--config", required=True, help="INI config path")
        p.add_argument("--out", default=None, help="output directory override")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = load_config(args.config, kind=args.kind)
        record = run(cfg, out_dir=args.out)
    except (ConfigError, ParseError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except HybdynError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    print(json.dumps(record.json_payload(), indent=2, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
