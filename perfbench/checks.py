"""Checks of the program's outputs against computations made apart from it.

* The reference tables are held to the published figures at the acceptance
  criteria's tolerances, with the integer columns exact.  Where scipy has the
  quantity, it is recomputed here from the fixture files themselves: every
  normal-approximation size, and the Table 1 equal-variance exact power from
  the noncentral t.
* A simulated row is held to its formula by criterion 5's rule, 3 binomial
  standard errors, taken here at the formula's power.  The benchmark runs on
  seeds chosen at run time, where an honest row leaves 3SE with probability
  0.27%, so a run is failed when more rows leave 3SE than chance allows, when
  one row leaves a family-wise bound, or when the rows' squared z-scores sum
  beyond the chi-square bound; each is set for a false alarm of at most 1e-6
  per run.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np
from scipy import linalg, stats

# Column order of each published table in tests/reference_values.py
REFERENCE_COLUMNS = {
    1: ["variances", "effect", "exact", "normal", "two_step", "g1", "g2", "per_arm",
        "power_exact"],
    2: ["q", "effect", "exact", "n_asy", "n_approx", "asymptotic_t", "two_step", "g1", "g2",
        "per_arm", "power_exact", "power_approx"],
    3: ["covariance", "q", "effect", "exact", "n_a", "n_approx", "two_step", "g1", "g2",
        "total_n", "power_main", "power_simple"],
    4: ["sigma_sq", "exact", "normal", "two_step", "g1", "g2", "per_seq", "power_exact",
        "power_approx", "per_seq_half", "power_exact_half", "power_approx_half"],
    5: ["margin", "exact", "normal", "two_step", "g1", "g2", "per_arm", "power_exact",
        "power_approx", "power_generic_approx", "per_arm_half", "power_exact_half",
        "power_approx_half", "power_generic_approx_half"],
    6: ["covariance", "q", "margin", "exact", "n_a", "n_approx", "two_step", "g1", "g2",
        "total_n", "power"],
}
SIZE_COLUMNS = {
    1: ["exact", "normal", "two_step", "g1", "g2"],
    2: ["exact", "n_asy", "n_approx", "asymptotic_t", "two_step", "g1", "g2"],
    3: ["exact", "n_a", "n_approx", "two_step", "g1", "g2"],
    4: ["exact", "normal", "two_step", "g1", "g2"],
    5: ["exact", "normal", "two_step", "g1", "g2"],
    6: ["exact", "n_a", "n_approx", "two_step", "g1", "g2"],
}
POWER_COLUMNS = {
    1: ["power_exact"],
    2: ["power_exact", "power_approx"],
    3: ["power_main", "power_simple"],
    4: ["power_exact", "power_approx", "power_exact_half", "power_approx_half"],
    5: ["power_exact", "power_approx", "power_generic_approx", "power_exact_half",
        "power_approx_half", "power_generic_approx_half"],
    6: ["power"],
}
INTEGER_COLUMNS = {1: ["per_arm"], 2: ["per_arm"], 3: ["total_n"], 4: ["per_seq", "per_seq_half"],
                   5: ["per_arm", "per_arm_half"], 6: ["total_n"]}
# criteria 1-4: the same tolerance for the size and the power columns
TOLERANCE = {1: 0.01, 2: 0.02, 3: 0.05, 4: 0.02, 5: 0.02, 6: 0.05}
NORMAL_COLUMN = {1: "normal", 2: "n_asy", 3: "n_a", 4: "normal", 5: "normal", 6: "n_a"}

# recomputed quantities agree with the program to rounding error
SIZE_REL_TOL = 1e-9
POWER_PP_TOL = 1e-6

FALSE_ALARM = 1e-6
_P_BEYOND_3SE = 2.0 * stats.norm.sf(3.0)


def table_problems(number: int, rows: list[dict], reference, docs: list[dict]) -> list[str]:
    """Problems of one built table against the published figures and scipy."""
    published = getattr(reference, f"TABLE{number}")
    if len(rows) != len(published):
        return [f"table {number}: {len(rows)} rows, published {len(published)}"]
    problems = []
    for i, (row, ref) in enumerate(zip(rows, published)):
        named = dict(zip(REFERENCE_COLUMNS[number], ref))
        where = f"table {number} row {i + 1}"
        for col in SIZE_COLUMNS[number] + POWER_COLUMNS[number]:
            want = named[col]
            if not abs(row[col] - float(want)) <= reference.allowed_delta(want, TOLERANCE[number]):
                problems.append(f"{where}: {col} {row[col]:.4f}, published {want}")
        for col in INTEGER_COLUMNS[number]:
            if row[col] != named[col]:
                problems.append(f"{where}: {col} {row[col]}, published {named[col]}")
        col = NORMAL_COLUMN[number]
        want = normal_size(docs[i])
        if not abs(row[col] - want) <= SIZE_REL_TOL * want:
            problems.append(f"{where}: {col} {row[col]!r}, scipy {want!r}")
        if number == 1 and row["variances"] == "equal":
            want = 100.0 * pooled_t_power(docs[i], 2 * row["per_arm"])
            if not abs(row["power_exact"] - want) <= POWER_PP_TOL:
                problems.append(f"{where}: power_exact {row['power_exact']!r}, scipy {want!r}")
    return problems


def load_fixture(root: Path, name: str) -> dict:
    with (root / "src" / "trialsize" / "fixtures" / f"{name}.json").open() as f:
        return json.load(f)


def _covariance(spec) -> np.ndarray:
    if isinstance(spec, list):
        return np.asarray(spec, dtype=float)
    p = spec.get("size")
    if spec["structure"] == "cs":
        return np.full((p, p), spec["covariance"]) + (spec["variance"] - spec["covariance"]) * np.eye(p)
    if spec["structure"] == "ar1":
        lag = np.abs(np.subtract.outer(np.arange(p), np.arange(p)))
        return spec["variance"] * spec["corr"] ** lag
    return linalg.toeplitz(spec["first_row"])


def normal_size(doc: dict) -> float:
    """Normal-approximation total size, (z_{1-a/2} + z_b)^2 v / effect^2,
    from a fixture file.

    v is the variance of the effect estimate times n; for repeated measures
    it is sum_j l_pj^2 lam_j (1/(g0 pi_0j) + 1/(g1 pi_1j)) with Sigma =
    L diag(lam) L' taken from the Cholesky factor.
    """
    d = doc["design"]
    g0 = d["gamma0"]
    g1 = 1.0 - g0
    family = doc["family"]
    if family == "two_sample":
        v = d["sigma0_sq"] / g0 + d["sigma1_sq"] / g1
        effect = d["mu1"] - d["mu0"]
    elif family == "ancova":
        v = d["sigma_sq"] / (g0 * g1)
        effect = d["tau1"] - d["tau0"]
    elif family == "crossover":
        v = d["sigma_d_sq"] / (4.0 * g0 * g1) if d["period_effect_in_analysis"] else d["sigma_d_sq"]
        effect = d["mu_star_b"] - d["mu_star_a"]
    else:
        chol = np.linalg.cholesky(_covariance(d["covariance"]))
        lam = np.diag(chol) ** 2
        last_row = chol[-1] / np.diag(chol)
        retention = np.asarray(d["retention"], dtype=float)
        varpi = 1.0 / (g0 * retention[0]) + 1.0 / (g1 * retention[1])
        v = float(np.sum(last_row**2 * lam * varpi))
        effect = d["tau_p1"] - d["tau_p0"]
    power = doc["target_power"]
    if doc["objective"] in ("equivalence", "bioequivalence"):
        if doc["objective"] == "bioequivalence":
            lower, upper = -math.log(1.25), math.log(1.25)
        else:
            lower, upper = doc["margins"]["lower"], doc["margins"]["upper"]
        effect = 0.5 * (upper - lower)
        power = 0.5 * (1.0 + power)
    z = stats.norm.ppf(1.0 - doc["alpha"] / 2.0) + stats.norm.ppf(power)
    return float(z * z * v / effect**2)


def pooled_t_power(doc: dict, n: int) -> float:
    """Two-sided pooled t test power at total size n, equal arms, from scipy's
    noncentral t."""
    d = doc["design"]
    df = n - 2
    ncp = (d["mu1"] - d["mu0"]) / math.sqrt(d["sigma0_sq"] * 4.0 / n)
    crit = stats.t.ppf(1.0 - doc["alpha"] / 2.0, df)
    return float(stats.nct.sf(crit, df, ncp) + stats.nct.cdf(-crit, df, ncp))


def concordance(labels: list[str], z: list[float]) -> tuple[list[str], str]:
    """Criterion 5's 3SE rule over a set of simulated rows, at a per-run false
    alarm of at most FALSE_ALARM.  Returns the problems and a summary line."""
    n = len(z)
    absz = np.abs(np.asarray(z, dtype=float))
    allowed = 0
    while stats.binom.sf(allowed, n, _P_BEYOND_3SE) > FALSE_ALARM:
        allowed += 1
    z_max = stats.norm.isf(FALSE_ALARM / (2.0 * n))
    chi2_max = stats.chi2.isf(FALSE_ALARM, n)
    beyond = [f"{labels[i]} ({z[i]:+.2f} SE)" for i in np.flatnonzero(absz > 3.0)]
    sum_sq = float(np.sum(absz**2))
    problems = []
    if len(beyond) > allowed:
        problems.append(f"{len(beyond)} of {n} rows beyond 3SE, chance allows {allowed}: "
                        + ", ".join(beyond))
    problems += [f"{labels[i]}: {z[i]:+.2f} SE, beyond {z_max:.2f}"
                 for i in np.flatnonzero(absz > z_max)]
    if sum_sq > chi2_max:
        problems.append(f"sum of squared z-scores {sum_sq:.1f} over {n} rows exceeds {chi2_max:.1f}")
    summary = (f"{len(beyond)} of {n} rows beyond 3SE (chance allows {allowed}), "
               f"largest |z| {absz.max():.2f}, sum z^2 {sum_sq:.1f} (bound {chi2_max:.1f})"
               + "".join(f"; {b}" for b in beyond))
    return problems, summary
