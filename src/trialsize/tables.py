"""Builders for the six reference result tables.

Each builder loads the shipped fixture design files (one per scenario),
computes every deterministic column (sizes and nominal powers), and returns
the column names plus one dict per row.  The CLI's ``reproduce-table``
command renders the output as CSV; the acceptance suite compares the values
against the published reference figures.

Integer evaluation sizes follow each table's stated convention: per-arm
ceiling for the t tests and covariate-adjusted designs, total-size ceiling
of the conservative noniterative estimate for repeated measures, nearest
integer per sequence/arm for the equivalence tables (their half-size stress
rows use the convention the reference figures imply).
"""

from __future__ import annotations

import math
from importlib import resources
from pathlib import Path

from . import core
from .ancova import (
    ancova_power_approx,
    ancova_power_asymptotic_t,
    ancova_power_exact,
    ancova_size_chain,
)
from .config import DesignConfig, load_design
from .designs import moser_exact_power
from .equivalence import equiv_power_approx, equiv_power_exact, equiv_size_symmetric, ts_unequal_equiv_power
from .mmrm import mmrm_equiv_power, mmrm_power, mmrm_power_approx, mmrm_size_chain

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


def _ceil_half(total: float) -> int:
    return math.ceil(total / 2.0 - 1e-9)


def _nearest(x: float) -> int:
    return math.floor(x + 0.5)


def _table1() -> tuple[list[str], list[dict]]:
    cols = [
        "variances",
        "effect",
        "exact",
        "normal",
        "two_step",
        "g1",
        "g2",
        "per_arm",
        "power_exact",
    ]
    rows = []
    for section in ("equal", "unequal"):
        for code in _T1_TAUS:
            cfg = _load(f"table1_{section}_{code}")
            k = cfg.kernel()
            a, p = cfg.alpha, cfg.target_power
            if section == "equal":
                power_fn = lambda n: core.power_two_sided(k, n, a).value
            else:
                power_fn = lambda n: moser_exact_power(cfg.design, 0.0, n, a).value
            hint = core.size_g2(k, a, p).fractional
            inv = core.size_invert(power_fn, p, hint, k.min_n, k.allocation, a)
            per_arm = _ceil_half(inv.fractional)
            rows.append(
                {
                    "variances": section,
                    "effect": k.effect,
                    "exact": inv.fractional,
                    "normal": core.size_normal(k, a, p).fractional,
                    "two_step": core.size_two_step(k, a, p).fractional,
                    "g1": core.size_g1(k, a, p).fractional,
                    "g2": core.size_g2(k, a, p).fractional,
                    "per_arm": per_arm,
                    "power_exact": 100.0 * power_fn(2 * per_arm),
                }
            )
    return cols, rows


def _table2() -> tuple[list[str], list[dict]]:
    cols = [
        "q",
        "effect",
        "exact",
        "n_asy",
        "n_approx",
        "asymptotic_t",
        "two_step",
        "g1",
        "g2",
        "per_arm",
        "power_exact",
        "power_approx",
    ]
    rows = []
    for q in (1, 3):
        for code in _T2_TAUS:
            cfg = _load(f"table2_q{q}_{code}")
            s = cfg.design
            a, p = cfg.alpha, cfg.target_power
            chain = ancova_size_chain(s, a, p)
            inv13 = core.size_invert(
                lambda n: ancova_power_asymptotic_t(s, n, a).value,
                p,
                chain["n_asy"].fractional,
                float(s.q_star),
                (s.gamma0, s.gamma1),
                a,
            )
            per_arm = _ceil_half(chain["inversion"].fractional)
            n_eval = 2 * per_arm
            rows.append(
                {
                    "q": q,
                    "effect": s.effect,
                    "exact": chain["inversion"].fractional,
                    "n_asy": chain["n_asy"].fractional,
                    "n_approx": chain["approx"].fractional,
                    "asymptotic_t": inv13.fractional,
                    "two_step": chain["two_step"].fractional,
                    "g1": chain["g1"].fractional,
                    "g2": chain["g2"].fractional,
                    "per_arm": per_arm,
                    "power_exact": 100.0 * ancova_power_exact(s, n_eval, a).value,
                    "power_approx": 100.0 * ancova_power_approx(s, n_eval, a).value,
                }
            )
    return cols, rows


def _table3() -> tuple[list[str], list[dict]]:
    cols = [
        "covariance",
        "q",
        "effect",
        "exact",
        "n_a",
        "n_approx",
        "two_step",
        "g1",
        "g2",
        "total_n",
        "power_main",
        "power_simple",
    ]
    rows = []
    for q in (1, 3):
        for cov in _COVS:
            for m in ("12", "08", "04"):
                cfg = _load(f"table3_{cov}_q{q}_m{m}")
                d = cfg.design
                a, p = cfg.alpha, cfg.target_power
                chain = mmrm_size_chain(d, a, p)
                total = math.ceil(chain["g2"].fractional - 1e-9)
                rows.append(
                    {
                        "covariance": cov,
                        "q": q,
                        "effect": d.tau_p1,
                        "exact": chain["inversion"].fractional,
                        "n_a": chain["n_a"].fractional,
                        "n_approx": chain["approx"].fractional,
                        "two_step": chain["two_step"].fractional,
                        "g1": chain["g1"].fractional,
                        "g2": chain["g2"].fractional,
                        "total_n": total,
                        "power_main": 100.0 * mmrm_power(d, total, a).value,
                        "power_simple": 100.0 * mmrm_power_approx(d, total, a).value,
                    }
                )
    return cols, rows


def _table4() -> tuple[list[str], list[dict]]:
    cols = [
        "sigma_sq",
        "exact",
        "normal",
        "two_step",
        "g1",
        "g2",
        "per_seq",
        "power_exact",
        "power_approx",
        "per_seq_half",
        "power_exact_half",
        "power_approx_half",
    ]
    rows = []
    for k_idx in range(1, 7):
        s2 = 0.0125 * k_idx
        cfg = _load(f"table4_s2_{int(s2 * 10000):04d}")
        k = cfg.kernel()
        m = cfg.margins
        a, p = cfg.alpha, cfg.target_power
        inv = core.size_invert(
            lambda n: equiv_power_exact(k, m, n, a).value,
            p,
            equiv_size_symmetric(k, m, a, p, "g2").fractional,
            k.min_n,
            k.allocation,
            a,
        )
        per_seq = _nearest(inv.fractional / 2.0)
        per_seq_half = math.ceil(inv.fractional / 4.0 - 1e-9)
        rows.append(
            {
                "sigma_sq": s2,
                "exact": inv.fractional,
                "normal": equiv_size_symmetric(k, m, a, p, "normal").fractional,
                "two_step": equiv_size_symmetric(k, m, a, p, "two_step").fractional,
                "g1": equiv_size_symmetric(k, m, a, p, "g1").fractional,
                "g2": equiv_size_symmetric(k, m, a, p, "g2").fractional,
                "per_seq": per_seq,
                "power_exact": 100.0 * equiv_power_exact(k, m, 2 * per_seq, a).value,
                "power_approx": 100.0 * equiv_power_approx(k, m, 2 * per_seq, a).value,
                "per_seq_half": per_seq_half,
                "power_exact_half": 100.0 * equiv_power_exact(k, m, 2 * per_seq_half, a).value,
                "power_approx_half": 100.0
                * equiv_power_approx(k, m, 2 * per_seq_half, a).value,
            }
        )
    return cols, rows


def _table5() -> tuple[list[str], list[dict]]:
    cols = [
        "margin",
        "exact",
        "normal",
        "two_step",
        "g1",
        "g2",
        "per_arm",
        "power_exact",
        "power_approx",
        "power_generic_approx",
        "per_arm_half",
        "power_exact_half",
        "power_approx_half",
        "power_generic_approx_half",
    ]
    rows = []
    for code in ("05", "10", "15"):
        cfg = _load(f"table5_m_{code}")
        s = cfg.design
        k = cfg.kernel()
        m = cfg.margins
        a, p = cfg.alpha, cfg.target_power
        inv = core.size_invert(
            lambda n: ts_unequal_equiv_power(s, m, n, a, exact=True).value,
            p,
            equiv_size_symmetric(k, m, a, p, "g2").fractional,
            k.min_n,
            k.allocation,
            a,
        )
        per_arm = _nearest(inv.fractional / 2.0)
        per_arm_half = _nearest(inv.fractional / 4.0)

        def powers(n: float) -> tuple[float, float, float]:
            ex = ts_unequal_equiv_power(s, m, n, a, exact=True).value
            ap = ts_unequal_equiv_power(s, m, n, a, exact=False).value
            gen = equiv_power_approx(k, m, n, a).value
            return 100.0 * ex, 100.0 * ap, 100.0 * gen

        pe, pa, pg = powers(2 * per_arm)
        peh, pah, pgh = powers(2 * per_arm_half)
        rows.append(
            {
                "margin": m.upper,
                "exact": inv.fractional,
                "normal": equiv_size_symmetric(k, m, a, p, "normal").fractional,
                "two_step": equiv_size_symmetric(k, m, a, p, "two_step").fractional,
                "g1": equiv_size_symmetric(k, m, a, p, "g1").fractional,
                "g2": equiv_size_symmetric(k, m, a, p, "g2").fractional,
                "per_arm": per_arm,
                "power_exact": pe,
                "power_approx": pa,
                "power_generic_approx": pg,
                "per_arm_half": per_arm_half,
                "power_exact_half": peh,
                "power_approx_half": pah,
                "power_generic_approx_half": pgh,
            }
        )
    return cols, rows


def _table6() -> tuple[list[str], list[dict]]:
    cols = [
        "covariance",
        "q",
        "margin",
        "exact",
        "n_a",
        "n_approx",
        "two_step",
        "g1",
        "g2",
        "total_n",
        "power",
    ]
    rows = []
    for q in (1, 3):
        for cov in _COVS:
            for mm in ("8", "4"):
                cfg = _load(f"table6_{cov}_q{q}_m{mm}")
                d = cfg.design
                m = cfg.margins
                a, p = cfg.alpha, cfg.target_power
                chain = mmrm_size_chain(d, a, p, margins=m)
                total = math.ceil(chain["g2"].fractional - 1e-9)
                rows.append(
                    {
                        "covariance": cov,
                        "q": q,
                        "margin": m.upper,
                        "exact": chain["inversion"].fractional,
                        "n_a": chain["n_a"].fractional,
                        "n_approx": chain["approx"].fractional,
                        "two_step": chain["two_step"].fractional,
                        "g1": chain["g1"].fractional,
                        "g2": chain["g2"].fractional,
                        "total_n": total,
                        "power": 100.0 * mmrm_equiv_power(d, m, total, a).value,
                    }
                )
    return cols, rows


_BUILDERS = {1: _table1, 2: _table2, 3: _table3, 4: _table4, 5: _table5, 6: _table6}


def build_table(number: int) -> tuple[list[str], list[dict]]:
    """Compute all deterministic columns of one reference table."""
    if number not in _BUILDERS:
        raise ValueError(f"unknown table {number}; choose from {sorted(_BUILDERS)}")
    return _BUILDERS[number]()
