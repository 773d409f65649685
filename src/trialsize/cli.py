"""Command-line front end.

Subcommands:

* ``power``            all applicable power methods for a design at a given n
* ``size``             the full sample-size chain (normal, g1, g2, two-step,
                       inversion), fractional and rounded
* ``simulate``         Monte Carlo rejection rate for the design's objective
* ``reproduce-table``  regenerate the deterministic columns of one of the six
                       reference tables as CSV

All numeric output uses fixed decimal places (sizes and power percentages to
two), so repeated runs on the same inputs are byte-identical.
"""

from __future__ import annotations

import argparse
import csv
import sys

import numpy as np

from . import core
from .ancova import (
    AncovaSpec,
    ancova_power_approx,
    ancova_power_asymptotic_t,
    ancova_power_exact,
    ancova_size_chain,
)
from .config import ConfigError, DesignConfig, load_design
from .designs import TwoSampleSpec, moser_exact_power
from .equivalence import (
    Margins,
    ancova_equiv_power,
    equiv_power_approx,
    equiv_power_exact,
    equiv_size_symmetric,
    ts_unequal_equiv_power,
)
from .errors import (
    BracketError,
    ConvergenceError,
    DomainError,
    InsufficientDataError,
    SimulationFailureError,
)
from .mmrm import MmrmDesign, mmrm_equiv_power, mmrm_power, mmrm_power_approx, mmrm_size_chain
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


def _parse_margins(text: str, objective: str) -> Margins:
    parts = text.split(",")
    if len(parts) != 2:
        raise ConfigError("--margins expects LO,HI")
    try:
        lo, hi = float(parts[0]), float(parts[1])
    except ValueError:
        raise ConfigError(f"--margins expects two numbers, got {text!r}") from None
    kind = "equivalence" if objective in ("equivalence", "bioequivalence") else objective
    return Margins(lower=lo, upper=hi, kind=kind)


def _split_total(cfg: DesignConfig, total: int) -> tuple[int, ...]:
    if isinstance(cfg.design, MmrmDesign):
        alloc = (cfg.design.gamma0, cfg.design.gamma1)
    else:
        k = cfg.kernel()
        alloc = k.allocation
    _, per_group = core.rounded_sizes(float(total), alloc, "up")
    return per_group


def _is_equivalence(cfg: DesignConfig) -> bool:
    return cfg.objective in ("equivalence", "bioequivalence")


def _power_rows(cfg: DesignConfig, n: float, alpha: float) -> list[tuple[str, float]]:
    rows: list[tuple[str, float]] = []
    d = cfg.design
    if _is_equivalence(cfg):
        m = cfg.margins
        if isinstance(d, MmrmDesign):
            rows.append(("equivalence", mmrm_equiv_power(d, m, n, alpha).value))
        elif isinstance(d, AncovaSpec):
            rows.append(("exact", ancova_equiv_power(d, m, n, alpha, exact=True).value))
            rows.append(("approx", ancova_equiv_power(d, m, n, alpha, exact=False).value))
        elif isinstance(d, TwoSampleSpec) and not d.equal_variance:
            rows.append(("exact", ts_unequal_equiv_power(d, m, n, alpha, exact=True).value))
            rows.append(("approx", ts_unequal_equiv_power(d, m, n, alpha, exact=False).value))
            k = cfg.kernel()
            rows.append(("generic_approx", equiv_power_approx(k, m, n, alpha).value))
        else:
            k = cfg.kernel()
            rows.append(("exact", equiv_power_exact(k, m, n, alpha).value))
            rows.append(("approx", equiv_power_approx(k, m, n, alpha).value))
        return rows
    if isinstance(d, MmrmDesign):
        rows.append(("main", mmrm_power(d, n, alpha).value))
        rows.append(("simple_approx", mmrm_power_approx(d, n, alpha).value))
        return rows
    if isinstance(d, AncovaSpec):
        rows.append(("exact", ancova_power_exact(d, n, alpha).value))
        rows.append(("approx", ancova_power_approx(d, n, alpha).value))
        rows.append(("asymptotic_t", ancova_power_asymptotic_t(d, n, alpha).value))
        return rows
    k = cfg.kernel()
    rows.append(("two_sided", core.power_two_sided(k, n, alpha).value))
    rows.append(("one_sided_approx", core.power_one_sided_approx(k, n, alpha).value))
    if isinstance(d, TwoSampleSpec) and not d.equal_variance:
        rows.append(("exact", moser_exact_power(d, k.tau0, n, alpha).value))
    return rows


def _size_rows(cfg: DesignConfig, alpha: float, power: float, rounding: str):
    d = cfg.design
    rows: list[tuple[str, core.SizeEstimate]] = []
    rnd = "up" if rounding == "none" else rounding
    if isinstance(d, MmrmDesign):
        chain = mmrm_size_chain(d, alpha, power, margins=cfg.margins if _is_equivalence(cfg) else None, rounding=rnd)
        order = ["n_a", "approx", "g1", "g2", "two_step", "inversion"]
        labels = {"n_a": "normal_asymptotic", "approx": "normal"}
        return [(labels.get(key, key), chain[key]) for key in order]
    if isinstance(d, AncovaSpec) and not _is_equivalence(cfg):
        chain = ancova_size_chain(d, alpha, power, rounding=rnd)
        order = ["n_asy", "approx", "quadratic", "g1", "g2", "two_step", "inversion"]
        labels = {"n_asy": "normal_asymptotic", "approx": "normal", "quadratic": "normal_quadratic"}
        return [(labels.get(key, key), chain[key]) for key in order]
    k = cfg.kernel()
    if _is_equivalence(cfg):
        m = cfg.margins
        for method in ("normal", "g1", "g2", "two_step"):
            rows.append((method, equiv_size_symmetric(k, m, alpha, power, method, rnd)))
        if isinstance(d, TwoSampleSpec) and not d.equal_variance:
            power_fn = lambda n: ts_unequal_equiv_power(d, m, n, alpha, exact=True).value
        else:
            power_fn = lambda n: equiv_power_exact(k, m, n, alpha).value
    else:
        for method, fn in (
            ("normal", core.size_normal),
            ("g1", core.size_g1),
            ("g2", core.size_g2),
            ("two_step", core.size_two_step),
        ):
            rows.append((method, fn(k, alpha, power, rnd)))
        if isinstance(d, TwoSampleSpec) and not d.equal_variance:
            power_fn = lambda n: moser_exact_power(d, k.tau0, n, alpha).value
        else:
            power_fn = lambda n: core.power_two_sided(k, n, alpha).value
    hint = dict(rows)["g2"].fractional
    rows.append(
        (
            "inversion",
            core.size_invert(power_fn, power, hint, k.min_n, k.allocation, alpha, rnd),
        )
    )
    return rows


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
    cfg = load_design(args.design)
    alpha = args.alpha if args.alpha is not None else cfg.alpha
    if args.margins is not None:
        cfg = _override_margins(cfg, args.margins)
    if args.n is None:
        return _fail("power requires --n (total sample size)", 2)
    rows = [
        {"method": name, "power_pct": _fmt(100.0 * value)}
        for name, value in _power_rows(cfg, float(args.n), alpha)
    ]
    _emit(rows, ["method", "power_pct"], args.format)
    return 0


def _override_margins(cfg: DesignConfig, text: str) -> DesignConfig:
    import dataclasses

    margins = _parse_margins(text, cfg.objective if _is_equivalence(cfg) else "equivalence")
    objective = cfg.objective if _is_equivalence(cfg) else "equivalence"
    return dataclasses.replace(cfg, margins=margins, objective=objective)


def cmd_size(args) -> int:
    cfg = load_design(args.design)
    alpha = args.alpha if args.alpha is not None else cfg.alpha
    power = args.power if args.power is not None else cfg.target_power
    if args.margins is not None:
        cfg = _override_margins(cfg, args.margins)
    rows = []
    for name, est in _size_rows(cfg, alpha, power, args.round):
        row = {"method": name, "fractional": _fmt(est.fractional)}
        if args.round != "none":
            row["rounded_total"] = est.rounded_total
            row["per_group"] = "/".join(str(v) for v in est.per_group)
        rows.append(row)
    cols = ["method", "fractional"] + ([] if args.round == "none" else ["rounded_total", "per_group"])
    _emit(rows, cols, args.format)
    return 0


def cmd_simulate(args) -> int:
    cfg = load_design(args.design)
    alpha = args.alpha if args.alpha is not None else cfg.alpha
    if args.margins is not None:
        cfg = _override_margins(cfg, args.margins)
    if args.n is None:
        return _fail("simulate requires --n (total sample size)", 2)
    per_group = _split_total(cfg, args.n)
    objective = cfg.margins if cfg.margins is not None else Margins.superiority()
    report = simulate_power(
        cfg.scenario,
        per_group,
        alpha,
        objective,
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

    def common(p, need_design=True):
        if need_design:
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
