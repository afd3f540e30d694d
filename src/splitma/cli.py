"""Command-line entry points.

Exit codes: 0 all checks pass, 1 monitor/assertion violation,
2 configuration error, 3 numerical failure.
"""

from __future__ import annotations

import argparse
import json
import sys

from .config import parse_config
from .errors import (
    AdmissibilityLost,
    ConfigurationError,
    NumericalFailure,
    SplitmaError,
)
from .experiments import (
    EXIT_CONFIG,
    EXIT_NUMERICAL,
    cmd_beta_sweep,
    cmd_check_identities,
    cmd_flow_run,
    cmd_kahler_converge,
    cmd_oracle_2d,
)

_SEED = ("--seed", dict(type=int, default=None, help="seed override"))

# command -> (help, extra arguments, handler(cfg, out_dir, args)).  The
# handlers look the recipes up by name at call time, so rebinding a recipe
# in this module (e.g. to trace it) takes effect.
COMMANDS = {
    "run": (
        "monitored flow run",
        [_SEED,
         ("--negative-control", dict(
             default=None, metavar="CHECK",
             help="corrupt every kept state after the first so the named "
                  "check must fail (any check registered in "
                  "splitma.monitors.CHECKS)"))],
        lambda cfg, out, a: cmd_flow_run(
            cfg, out, seed=a.seed, negative_control=a.negative_control),
    ),
    "kahler-converge": (
        "steady-state convergence on a product background",
        [_SEED],
        lambda cfg, out, a: cmd_kahler_converge(cfg, out, seed=a.seed),
    ),
    "beta-sweep": (
        "exponent-ratio sweep",
        [_SEED,
         ("--betas", dict(required=True,
                          help="comma-separated ratios, e.g. 0.9,0.95,0.99"))],
        lambda cfg, out, a: cmd_beta_sweep(
            cfg, a.betas.replace(",", " ").split(), out, seed=a.seed),
    ),
    "oracle-2d": (
        "decoupled factor-flow cross-check",
        [_SEED],
        lambda cfg, out, a: cmd_oracle_2d(cfg, out, seed=a.seed),
    ),
    "check-identities": (
        "slice identity suite",
        [("--tamper", dict(action="store_true",
                           help=argparse.SUPPRESS))],  # negative control
        lambda cfg, out, a: cmd_check_identities(cfg, out, tamper=a.tamper),
    ),
}


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="splitma",
        description="pseudo-spectral solver and verification lab for the "
                    "parabolic split-type flow on product tori",
    )
    sub = ap.add_subparsers(dest="command", required=True)
    for name, (help_text, extra, _) in COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", required=True, help="experiment config file")
        p.add_argument("--out", default=None, help="output directory override")
        for flag, kwargs in extra:
            p.add_argument(flag, **kwargs)
    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = parse_config(args.config)
        handler = COMMANDS[args.command][2]
        code, report = handler(cfg, args.out or cfg.out_dir, args)
    except ConfigurationError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (NumericalFailure, AdmissibilityLost) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except SplitmaError as exc:  # pragma: no cover
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    summary = {k: v for k, v in report.items()
               if not isinstance(v, (list, dict))}
    print(json.dumps(summary, indent=2))
    return code


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
