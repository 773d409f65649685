"""Command-line front end.

Subcommands:

* ``power``            all applicable power methods for a design at a given n
* ``size``             the full sample-size chain (normal, g1, g2, two-step,
                       inversion), fractional and rounded
* ``simulate``         Monte Carlo rejection rate for the design's objective
* ``reproduce-table``  regenerate the deterministic columns of one of the six
                       reference tables as CSV

The library's sizes are real numbers; ``size`` and ``simulate`` alone round a
size and split it across the groups (:meth:`DesignConfig.rounded_sizes`).
All numeric output uses fixed decimal places (sizes and power percentages to
two), so repeated runs on the same inputs are byte-identical.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import sys

import numpy as np

from .config import ConfigError, DesignConfig, load_design
from .equivalence import Margins
from .errors import (
    BracketError,
    ConvergenceError,
    DomainError,
    InsufficientDataError,
    SimulationFailureError,
)
from .simulate import simulate_power
from .tables import TABLE_NUMBERS, build_table

# ArithmeticError: a design value so small or large that float arithmetic
# overflows or divides by zero, in Python or (under main's errstate) in numpy
_NUMERIC_ERRORS = (
    DomainError,
    BracketError,
    ConvergenceError,
    InsufficientDataError,
    SimulationFailureError,
    ArithmeticError,
)


def _fail(message: str, code: int) -> int:
    print(f"error: {message}", file=sys.stderr)
    return code


def _override_margins(cfg: DesignConfig, text: str) -> DesignConfig:
    """``cfg`` with the ``--margins LO,HI`` interval, which makes any design
    an equivalence design."""
    parts = text.split(",")
    if len(parts) != 2:
        raise ConfigError("--margins expects LO,HI")
    try:
        lo, hi = float(parts[0]), float(parts[1])
    except ValueError:
        raise ConfigError(f"--margins expects two numbers, got {text!r}") from None
    return dataclasses.replace(cfg, margins=Margins.equivalence(lo, hi))


def _design(args) -> tuple[DesignConfig, float]:
    """The design file with the ``--margins`` override, and the ``--alpha``
    level (by default the file's)."""
    cfg = load_design(args.design)
    if args.margins is not None:
        cfg = _override_margins(cfg, args.margins)
    return cfg, args.alpha if args.alpha is not None else cfg.alpha


def _emit(rows: list[dict], columns: list[str], fmt: str) -> None:
    if fmt == "csv":
        writer = csv.writer(sys.stdout, lineterminator="\n")
        writer.writerow(columns)
        for row in rows:
            writer.writerow([row[c] for c in columns])
    else:
        widths = {c: max(len(c), max((len(str(r[c])) for r in rows), default=0)) for c in columns}
        print("  ".join(c.ljust(widths[c]) for c in columns))
        for row in rows:
            print("  ".join(str(row[c]).ljust(widths[c]) for c in columns))


def _fmt(x: float) -> str:
    return f"{x:.2f}"


def cmd_power(args) -> int:
    cfg, alpha = _design(args)
    if args.n is None:
        return _fail("power requires --n (total sample size)", 2)
    rows = [
        {"method": name, "power_pct": _fmt(100.0 * value)}
        for name, value in cfg.power_rows(float(args.n), alpha)
    ]
    _emit(rows, ["method", "power_pct"], args.format)
    return 0


def cmd_size(args) -> int:
    cfg, alpha = _design(args)
    power = args.power if args.power is not None else cfg.target_power
    rows = []
    for name, size in cfg.size_rows(alpha, power).items():
        row = {"method": name, "fractional": _fmt(size)}
        if args.round != "none":
            row["rounded_total"], per_group = cfg.rounded_sizes(size, args.round)
            row["per_group"] = "/".join(str(v) for v in per_group)
        rows.append(row)
    cols = ["method", "fractional"] + ([] if args.round == "none" else ["rounded_total", "per_group"])
    _emit(rows, cols, args.format)
    return 0


def cmd_simulate(args) -> int:
    cfg, alpha = _design(args)
    if args.n is None:
        return _fail("simulate requires --n (total sample size)", 2)
    per_group = cfg.rounded_sizes(args.n)[1]
    report = simulate_power(
        cfg.scenario,
        per_group,
        alpha,
        cfg.decision_margins,
        replicates=args.reps,
        seed=args.seed,
    )
    rows = [
        {
            "per_group": "/".join(str(v) for v in per_group),
            "replicates": report.replicates,
            "rejections": report.rejections,
            "power_pct": _fmt(100.0 * report.power_hat),
            "std_error_pct": _fmt(100.0 * report.std_error),
            "failures": report.failures,
            "seed": report.seed,
        }
    ]
    _emit(rows, list(rows[0].keys()), args.format)
    return 0


_PARAM_COLS = {"effect", "sigma_sq", "margin", "q", "covariance", "variances"}


def cmd_reproduce_table(args) -> int:
    columns, rows = build_table(args.number)
    formatted = []
    for row in rows:
        out = {}
        for c in columns:
            v = row[c]
            if c in _PARAM_COLS:
                out[c] = f"{v:g}" if isinstance(v, float) else v
            else:
                out[c] = _fmt(v) if isinstance(v, float) else v
        formatted.append(out)
    _emit(formatted, columns, args.format)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="trialsize",
        description="Power and sample size for t-based trial designs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--design", required=True, help="design file (JSON)")
        p.add_argument("--alpha", type=float, default=None, help="two-sided significance level")
        p.add_argument("--margins", default=None, metavar="LO,HI", help="margin interval override")
        p.add_argument("--format", choices=("text", "csv"), default="text")

    p_power = sub.add_parser("power", help="power of the design at a given total n")
    common(p_power)
    p_power.add_argument("--n", type=float, default=None, help="total sample size")
    p_power.set_defaults(fn=cmd_power)

    p_size = sub.add_parser("size", help="sample-size chain for the design")
    common(p_size)
    p_size.add_argument("--power", type=float, default=None, help="target power")
    p_size.add_argument("--round", choices=("up", "nearest", "none"), default="up")
    p_size.set_defaults(fn=cmd_size)

    p_sim = sub.add_parser("simulate", help="Monte Carlo rejection rate")
    common(p_sim)
    p_sim.add_argument("--n", type=int, default=None, help="total sample size")
    p_sim.add_argument("--seed", type=int, default=None)
    p_sim.add_argument("--reps", type=int, default=None, help="replicate count")
    p_sim.set_defaults(fn=cmd_simulate)

    p_table = sub.add_parser(
        "reproduce-table", help="regenerate a reference table's deterministic columns"
    )
    p_table.add_argument("number", type=int, choices=TABLE_NUMBERS)
    p_table.add_argument("--format", choices=("text", "csv"), default="csv")
    p_table.set_defaults(fn=cmd_reproduce_table)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        with np.errstate(divide="raise", over="raise", invalid="raise"):
            return args.fn(args)
    except ConfigError as exc:
        return _fail(str(exc), 2)
    except _NUMERIC_ERRORS as exc:
        return _fail(f"{type(exc).__name__}: {exc}", 1)


if __name__ == "__main__":
    sys.exit(main())
