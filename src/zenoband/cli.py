"""Command-line scenario runner.

Commands: formfactor, evolve, spectral, report, fig1, fig2, fig3, sweep.

Exit codes and the stderr line of each failure:

  0  success
  1  ``config error: ...``: the inputs failed a check made before any
     numerics ran (ValidationError, naming the key), the config is malformed
     (ConfigError), or a config or output file cannot be read or written (OSError)
  2  ``numerical failure [Class]: ...``: a failure found while computing,
     reported under its own ZenobandError class; the failing point writes
     none of its files, and earlier sweep points keep theirs
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
    parser.add_argument("command", choices=PRODUCTS + ("sweep",),
                        help="the product to run, or sweep: the config's products at each point")
    parser.add_argument("--config", metavar="PATH", default=None,
                        help="scenario config file (flat key = value lines)")
    parser.add_argument("--out", metavar="DIR", default=None,
                        help="output directory (default: out)")
    parser.add_argument("--override", metavar="KEY=VALUE", action="append",
                        default=[], help="override a config key (repeatable)")
    parser.add_argument("--threads", type=int, default=1,
                        help="concurrent sweep points (default 1)")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        bad = [item for item in args.override if "=" not in item]
        if bad:
            raise ConfigError(f"--override expects KEY=VALUE, got {bad[0]!r}")
        cfg = load_scenario(
            path=args.config,
            overrides=dict(map(str.strip, item.split("=", 1)) for item in args.override),
            products=() if args.command == "sweep" else (args.command,),
            out_dir=args.out,
            threads=args.threads,
            defaults=FIG_DEFAULTS.get(args.command),
        )
        if args.command == "sweep" and not cfg.sweeps:
            raise ConfigError("sweep requires at least one sweep_* key in the config")
        files, lines = run_scenario(cfg)
    except (ConfigError, ValidationError, OSError) as exc:
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
