"""Command-line experiment runner.

Usage: ``bivariation run <suite> --config <path> [--seed N] [--out DIR]
[--trials N] [--grid N]``.  Flags override config-file keys.  Exit codes:
0 all checks passed, 1 an exact check failed, 2 configuration error.
"""

from __future__ import annotations

import argparse
import sys

from .config import SUITES, ConfigError, build_config, parse_config_file
from .suites import run_suite

__all__ = ["main"]


def _parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="bivariation")
    sub = ap.add_subparsers(dest="command", required=True)
    run = sub.add_parser("run", help="run an experiment suite")
    run.add_argument("suite", help=f"one of {', '.join(SUITES)}")
    run.add_argument("--config", default=None, help="flat key = value config file")
    run.add_argument("--seed", type=int, default=None)
    run.add_argument("--out", default=None)
    run.add_argument("--trials", type=int, default=None)
    run.add_argument("--grid", type=int, default=None)
    return ap


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        file_values = parse_config_file(args.config) if args.config else {}
        overrides = {k: v for k, v in vars(args).items() if k not in ("command", "config")}
        cfg = build_config(file_values, overrides)
        status = run_suite(cfg.suite, cfg)
    except (ConfigError, OSError, UnicodeDecodeError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    print(f"suite {cfg.suite}: {'pass' if status == 0 else 'FAIL'} "
          f"(reports under {cfg.out}/{cfg.suite})")
    return status


if __name__ == "__main__":
    raise SystemExit(main())
