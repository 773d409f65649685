"""Builders for the six reference result tables.

Each builder loads the shipped fixture design files (one per scenario),
computes every deterministic column (sizes and nominal powers) and returns
one dict per row, whose keys in order are the table's columns.  The sizes,
the inversion and the powers come from the design's family record, as the
``size`` and ``power`` commands print them.  The CLI's ``reproduce-table``
command renders the output as CSV; the acceptance suite compares the values
against the published reference figures.

Integer evaluation sizes follow each table's stated convention, rounded by
the rule ``size --round`` uses (:func:`trialsize.core.rounded_sizes`): per-arm
ceiling for the t tests and covariate-adjusted designs, total-size ceiling
of the conservative noniterative estimate for repeated measures, nearest
integer per sequence/arm for the equivalence tables (their half-size stress
rows use the convention the reference figures imply).
"""

from __future__ import annotations

from importlib import resources
from pathlib import Path

from . import core
from .ancova import ancova_power_approx, ancova_power_asymptotic_t, ancova_power_exact
from .config import DesignConfig, load_design

__all__ = ["build_table", "fixture_path", "TABLE_NUMBERS"]

TABLE_NUMBERS = (1, 2, 3, 4, 5, 6)

_T1_TAUS = ("050", "075", "100", "125", "150", "175", "200", "225")
_T2_TAUS = ("100", "125", "150", "175", "200")
_COVS = ("un", "cs", "ar1", "toep")


def fixture_path(name: str) -> Path:
    """Filesystem path of a shipped fixture design file."""
    return Path(resources.files("trialsize").joinpath("fixtures", f"{name}.json"))


def _load(name: str) -> DesignConfig:
    return load_design(fixture_path(name))


def _rounded(size: float, policy: str) -> int:
    return core.rounded_sizes(size, (1.0,), policy)[0]


def _sizes(cfg: DesignConfig, *normal: str) -> dict[str, float]:
    """The family's size chain as columns: ``exact`` (the inversion), the
    normal-approximation sizes under the names ``normal`` gives them, then
    two_step, g1 and g2."""
    chain = cfg.size_rows(cfg.alpha, cfg.target_power)
    labels = ("normal_asymptotic", "normal") if len(normal) == 2 else ("normal",)
    return {
        "exact": chain["inversion"],
        **{column: chain[label] for column, label in zip(normal, labels)},
        **{method: chain[method] for method in ("two_step", "g1", "g2")},
    }


def _powers(cfg: DesignConfig, n: float, suffix: str = "") -> dict[str, float]:
    """The family's power rows at ``n`` as columns, in percent."""
    return {f"power_{name}{suffix}": 100.0 * value for name, value in cfg.power_rows(n, cfg.alpha)}


def _table1() -> list[dict]:
    rows = []
    for section in ("equal", "unequal"):
        for code in _T1_TAUS:
            cfg = _load(f"table1_{section}_{code}")
            sizes = _sizes(cfg, "normal")
            per_arm = _rounded(sizes["exact"] / 2.0, "up")
            rows.append(
                {
                    "variances": section,
                    "effect": cfg.kernel().effect,
                    **sizes,
                    "per_arm": per_arm,
                    "power_exact": 100.0 * cfg.exact_power(2 * per_arm, cfg.alpha),
                }
            )
    return rows


def _table2() -> list[dict]:
    rows = []
    for q in (1, 3):
        for code in _T2_TAUS:
            cfg = _load(f"table2_q{q}_{code}")
            s, a = cfg.design, cfg.alpha
            sizes = _sizes(cfg, "n_asy", "n_approx")
            # the size at which the t-distribution power without the
            # covariate inflation reaches the target
            asymptotic_t = core.size_invert(
                lambda n: ancova_power_asymptotic_t(s, n, a).value,
                cfg.target_power,
                sizes["n_asy"],
                float(s.q_star),
            )
            per_arm = _rounded(sizes["exact"] / 2.0, "up")
            normal = {column: sizes.pop(column) for column in ("exact", "n_asy", "n_approx")}
            rows.append(
                {
                    "q": q,
                    "effect": s.effect,
                    **normal,
                    "asymptotic_t": asymptotic_t,
                    **sizes,
                    "per_arm": per_arm,
                    "power_exact": 100.0 * ancova_power_exact(s, 2 * per_arm, a).value,
                    "power_approx": 100.0 * ancova_power_approx(s, 2 * per_arm, a).value,
                }
            )
    return rows


def _table3() -> list[dict]:
    rows = []
    for q in (1, 3):
        for cov in _COVS:
            for m in ("12", "08", "04"):
                cfg = _load(f"table3_{cov}_q{q}_m{m}")
                sizes = _sizes(cfg, "n_a", "n_approx")
                total = _rounded(sizes["g2"], "up")
                powers = _powers(cfg, total)
                rows.append(
                    {
                        "covariance": cov,
                        "q": q,
                        "effect": cfg.design.tau_p1,
                        **sizes,
                        "total_n": total,
                        "power_main": powers["power_main"],
                        "power_simple": powers["power_simple_approx"],
                    }
                )
    return rows


def _table4() -> list[dict]:
    rows = []
    for k_idx in range(1, 7):
        s2 = 0.0125 * k_idx
        cfg = _load(f"table4_s2_{int(s2 * 10000):04d}")
        sizes = _sizes(cfg, "normal")
        per_seq = _rounded(sizes["exact"] / 2.0, "nearest")
        per_seq_half = _rounded(sizes["exact"] / 4.0, "up")
        rows.append(
            {
                "sigma_sq": s2,
                **sizes,
                "per_seq": per_seq,
                **_powers(cfg, 2 * per_seq),
                "per_seq_half": per_seq_half,
                **_powers(cfg, 2 * per_seq_half, "_half"),
            }
        )
    return rows


def _table5() -> list[dict]:
    rows = []
    for code in ("05", "10", "15"):
        cfg = _load(f"table5_m_{code}")
        sizes = _sizes(cfg, "normal")
        per_arm = _rounded(sizes["exact"] / 2.0, "nearest")
        per_arm_half = _rounded(sizes["exact"] / 4.0, "nearest")
        rows.append(
            {
                "margin": cfg.margins.upper,
                **sizes,
                "per_arm": per_arm,
                **_powers(cfg, 2 * per_arm),
                "per_arm_half": per_arm_half,
                **_powers(cfg, 2 * per_arm_half, "_half"),
            }
        )
    return rows


def _table6() -> list[dict]:
    rows = []
    for q in (1, 3):
        for cov in _COVS:
            for mm in ("8", "4"):
                cfg = _load(f"table6_{cov}_q{q}_m{mm}")
                sizes = _sizes(cfg, "n_a", "n_approx")
                total = _rounded(sizes["g2"], "up")
                rows.append(
                    {
                        "covariance": cov,
                        "q": q,
                        "margin": cfg.margins.upper,
                        **sizes,
                        "total_n": total,
                        "power": _powers(cfg, total)["power_equivalence"],
                    }
                )
    return rows


_BUILDERS = {1: _table1, 2: _table2, 3: _table3, 4: _table4, 5: _table5, 6: _table6}


def build_table(number: int) -> tuple[list[str], list[dict]]:
    """Compute all deterministic columns of one reference table: the column
    names, in the order of each row's keys, and one dict per row."""
    if number not in _BUILDERS:
        raise ValueError(f"unknown table {number}; choose from {sorted(_BUILDERS)}")
    rows = _BUILDERS[number]()
    return list(rows[0]), rows
