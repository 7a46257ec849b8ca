"""Command-line harness: static, sweep, dynamic and planning experiments.

Exit codes: 0 success, 2 config error, 3 assert-threshold failure,
4 runtime error (a ``ValueError`` raised mid-run, such as a
``DuplicatePointError`` from ``append_points``).
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

from ..model import FastronModel
from .config import SWEEP_PARAMETERS, ConfigError, load_config
from .report import emit_report
from .runners import (Scene, run_dynamic_eval, run_planning_eval, run_static_eval, run_sweep,
                      static_seeds)
from .scenarios import build_chain

__all__ = ["main"]


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fastron-bench",
        description="Proxy-collision-detection benchmarks with seeded scenarios and CSV output.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in (
        ("static", "accuracy and query timing in a static scenario"),
        ("sweep", "static evaluation across a parameter sweep"),
        ("dynamic", "update cycles against moving obstacles"),
        ("plan", "proxy plans certified by plan_and_certify (repair re-checks only "
                 "the edges it adds) vs oracle plans"),
    ):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", required=True, help="JSON scenario config")
        p.add_argument("--out", required=True, help="output CSV path")
        p.add_argument("--seeds", type=int, default=None,
                       help="number of seeds (default: config seeds or 20)")
        p.add_argument("--seed-offset", type=int, default=0,
                       help="first seed index, for CI sharding")
        p.add_argument("--assert", dest="check_asserts", action="store_true",
                       help="exit 3 if config asserts fail on aggregated metrics")
        if name == "static":
            models = p.add_mutually_exclusive_group()
            models.add_argument("--save-model", default=None,
                                help="write the model trained for the first seed (fastron v1 text)")
            models.add_argument("--load-model", default=None,
                                help="evaluate a saved model instead of training")
        if name == "sweep":
            p.add_argument("--parameter", required=True, choices=sorted(SWEEP_PARAMETERS))
            p.add_argument("--values", required=True,
                           help="comma-separated sweep values")
    return parser


def _seed_list(cfg, args) -> list[int]:
    if args.seed_offset < 0:
        raise ConfigError(f"--seed-offset must be >= 0, got {args.seed_offset}")
    if args.seeds is not None:
        if args.seeds < 1:
            raise ConfigError(f"--seeds must be >= 1, got {args.seeds}")
        return list(range(args.seed_offset, args.seed_offset + args.seeds))
    if cfg.seeds is not None:
        return [s + args.seed_offset for s in cfg.seeds]
    return list(range(args.seed_offset, args.seed_offset + 20))


def _check_asserts(records, asserts) -> list[str]:
    failures = []
    for metric, bounds in asserts.items():
        # the config admits only numeric record fields and finite min/max bounds
        vals = [v for v in (getattr(r, metric) for r in records) if v is not None]
        if not vals:
            failures.append(f"{metric}: no values recorded")
            continue
        mean = float(np.mean(vals))
        if "min" in bounds and mean < bounds["min"]:
            failures.append(f"{metric}: mean {mean:.6g} < min {bounds['min']}")
        if "max" in bounds and mean > bounds["max"]:
            failures.append(f"{metric}: mean {mean:.6g} > max {bounds['max']}")
    return failures


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        cfg = load_config(args.config)
        seeds = _seed_list(cfg, args)
        summary = None
        if args.command == "static":
            if args.load_model is not None:
                try:
                    model = FastronModel.load(args.load_model)
                except (OSError, ValueError) as exc:  # missing, unreadable or malformed
                    raise ConfigError(f"--load-model: {exc}") from exc
                if model.dim != (dof := build_chain(cfg).dof):
                    raise ConfigError(f"--load-model: model dimension {model.dim} differs "
                                      f"from the config's robot dimension {dof}")
                records = run_static_eval(cfg, seeds, model=model)
            elif args.save_model is not None:
                # the first seed's model is the one saved; the other seeds run as usual
                [(record, model)] = static_seeds([Scene(cfg, seeds[0])])
                model.save(args.save_model)
                records = [record] + run_static_eval(cfg, seeds[1:])
            else:
                records = run_static_eval(cfg, seeds)
        elif args.command == "sweep":
            try:
                values = [float(v) for v in args.values.split(",") if v.strip()]
            except ValueError as exc:
                raise ConfigError(f"--values: {exc}") from exc
            if not values:
                raise ConfigError("--values must contain at least one number")
            records, summary = run_sweep(cfg, args.parameter, values, seeds)
        elif args.command == "dynamic":
            records = run_dynamic_eval(cfg, seeds)
        else:
            records = run_planning_eval(cfg, seeds)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"runtime error: {exc}", file=sys.stderr)
        return 4
    emit_report(records, args.out, summary_rows=summary)
    if args.check_asserts and cfg.asserts:
        failures = _check_asserts(records, cfg.asserts)
        if failures:
            for f in failures:
                print(f"assert failed: {f}", file=sys.stderr)
            return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
