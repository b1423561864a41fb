"""Command-line scenario runner.

Subcommands: formfactor, evolve, spectral, report, fig1, fig2, fig3, sweep.

Exit codes and the stderr line of each failure:

  0  success
  1  ``config error: ...``: the inputs failed a check made before any
     numerics ran (ValidationError, naming the key), the config is malformed
     (ConfigError) or the config file is missing
  2  ``numerical failure [Class]: ...``: a failure found while computing,
     reported under its own ZenobandError class
"""

from __future__ import annotations

import argparse
import sys

from .errors import ConfigError, ValidationError, ZenobandError
from .scenario import FIG_DEFAULTS, PRODUCTS, load_scenario, run_scenario


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="zenoband",
        description="Continuous monitoring of an exponentially decaying atom "
                    "by a finite-bandwidth photodetector.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in PRODUCTS + ("sweep",):
        p = sub.add_parser(name, help=f"run the {name} product")
        p.add_argument("--config", metavar="PATH", default=None,
                       help="scenario config file (flat key = value lines)")
        p.add_argument("--out", metavar="DIR", default=None,
                       help="output directory (default: out)")
        p.add_argument("--override", metavar="KEY=VALUE", action="append",
                       default=[], help="override a config key (repeatable)")
        p.add_argument("--threads", type=int, default=1,
                       help="concurrent sweep points (default 1)")
    return parser


def _parse_overrides(pairs):
    out = {}
    for item in pairs:
        if "=" not in item:
            raise ConfigError(f"--override expects KEY=VALUE, got {item!r}")
        key, value = item.split("=", 1)
        out[key.strip()] = value.strip()
    return out


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        overrides = _parse_overrides(args.override)
        products = () if args.command == "sweep" else (args.command,)
        cfg = load_scenario(
            path=args.config,
            overrides=overrides,
            products=products,
            out_dir=args.out,
            threads=args.threads,
            defaults=FIG_DEFAULTS.get(args.command),
        )
        if args.command == "sweep" and not cfg.sweeps:
            raise ConfigError("sweep requires at least one sweep_* key in the config")
        files, lines = run_scenario(cfg)
    except (ConfigError, ValidationError, FileNotFoundError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except ZenobandError as exc:
        print(f"numerical failure [{type(exc).__name__}]: {exc}", file=sys.stderr)
        return 2
    for line in lines:
        print(line)
    for path in files:
        print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
