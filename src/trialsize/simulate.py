"""Seeded Monte Carlo trial simulator and analysis estimators.

Every replicate draws from its own counter-based substream (Philox keyed by
the scenario seed, counter = replicate_index << 128), so results are
bit-identical for a fixed seed regardless of chunking or parallelism.  Draw
order within a replicate is fixed per design family:

* two-sample / crossover:  one standard-normal block
* covariate-adjusted:      baseline normals, factor uniforms, outcome normals
* repeated measures:       baseline normals, factor uniforms, dropout
                           uniforms, visit-error normals

Analyses mirror the estimators the power formulas target: pooled and Welch
t tests, least-squares covariate adjustment, and the factored per-visit
regressions with the small-sample variance estimate and Satterthwaite
degrees of freedom for repeated measures.  ``simulate_power`` runs every
design family through one loop: a per-family engine draws and analyses a
chunk of replicates in batch, and the loop refits, one at a time, the
replicates the batched fit cannot handle, then applies the decision rule.
Each analysis has one fit, ``analyze_ancova`` or ``analyze_mmrm``.  A
replicate whose design matrix is collinear (e.g. an empty factor level in a
tiny trial) is fitted again by the same code with the redundant covariate
columns dropped, matching standard generalized-inverse practice; genuinely
unanalyzable replicates (too few completers at a visit to fit its
regression) are counted as recorded failures and excluded from the
denominator.  The run aborts if failures exceed 0.1% of replicates: beyond
that, exclusion could bias the estimate by a nontrivial fraction of its
Monte Carlo standard error.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np
from scipy import special

from .ancova import AncovaSpec
from .designs import CrossoverSpec, OneSampleSpec, TwoSampleSpec
from .equivalence import Margins
from .errors import DomainError, InsufficientDataError, SimulationFailureError
from .mmrm import MmrmDesign, ldl_decompose

__all__ = [
    "FactorSpec",
    "ScenarioSpec",
    "SimReport",
    "AncovaFit",
    "MmrmFit",
    "simulate_power",
    "analyze_ancova",
    "analyze_mmrm",
]

_CHUNK = 4096
_FAILURE_CAP = 1e-3
_DEFAULT_REPLICATES = 100_000
_DEFAULT_REPLICATES_MMRM = 40_000
_RANK_TOL = 1e-9


@dataclass(frozen=True)
class FactorSpec:
    """Categorical prognostic factor: level probabilities and level effects.

    The last level is the reference in the analysis (the first len-1 levels
    get indicator columns); the effect enters the outcome mean directly.
    """

    probs: tuple[float, ...]
    effects: tuple[float, ...]

    def __post_init__(self):
        if len(self.probs) != len(self.effects):
            raise DomainError("factor probs and effects must have equal length")
        if len(self.probs) < 2:
            raise DomainError("a factor needs at least two levels")
        if any(p <= 0.0 for p in self.probs) or abs(sum(self.probs) - 1.0) > 1e-9:
            raise DomainError("factor probabilities must be positive and sum to 1")

    @property
    def n_dummies(self) -> int:
        return len(self.probs) - 1


@dataclass(frozen=True)
class ScenarioSpec:
    """Generator configuration for one simulated trial design.

    ``design`` fixes the analysis; the remaining fields parameterize data
    generation only (they do not move the design-stage power).  For
    covariate-adjusted designs the implied covariate count (baseline plus
    factor dummies) must match the design's q.
    """

    design: OneSampleSpec | TwoSampleSpec | CrossoverSpec | AncovaSpec | MmrmDesign
    replicates: int = 0  # 0 -> family default
    seed: int = 20240801
    tau0: float = 0.0  # null value for two-sample/crossover superiority tests
    intercept: float = 0.0
    baseline_effect: float | None = None
    factor: FactorSpec | None = None
    visit_intercepts: tuple[float, ...] | None = None
    visit_baseline_effects: tuple[float, ...] | None = None
    visit_effects: tuple[float, ...] | None = None
    period_effect: float = 0.0

    def __post_init__(self):
        if self.replicates < 0:
            raise DomainError("replicate count must be nonnegative (0 selects the family default)")
        dummies = self.factor.n_dummies if self.factor is not None else 0
        if isinstance(self.design, (AncovaSpec, MmrmDesign)):
            mmrm = isinstance(self.design, MmrmDesign)
            baseline = self.visit_baseline_effects if mmrm else self.baseline_effect
            q_implied = (0 if baseline is None else 1) + dummies
            if q_implied != self.design.q:
                raise DomainError(
                    f"generator implies q={q_implied} covariates but the design has q={self.design.q}"
                )
        if isinstance(self.design, MmrmDesign):
            p = self.design.p
            if self.visit_intercepts is not None and len(self.visit_intercepts) != p:
                raise DomainError("visit_intercepts must have one entry per visit")
            if self.visit_baseline_effects is not None and len(self.visit_baseline_effects) != p:
                raise DomainError("visit_baseline_effects must have one entry per visit")
            if self.visit_effects is not None and len(self.visit_effects) != p - 1:
                raise DomainError(
                    "visit_effects lists treatment effects at visits 1..p-1 "
                    "(the last visit uses the design's tau_p1)"
                )

    def default_replicates(self) -> int:
        if isinstance(self.design, MmrmDesign):
            return _DEFAULT_REPLICATES_MMRM
        return _DEFAULT_REPLICATES


@dataclass(frozen=True)
class SimReport:
    """Empirical rejection rate with its binomial standard error."""

    rejections: int
    replicates: int
    power_hat: float
    std_error: float
    seed: int
    wall_time: float
    failures: int = 0


@dataclass(frozen=True)
class AncovaFit:
    tau_hat: float
    sigma_hat_sq: float
    v_x: float
    df: float


@dataclass(frozen=True)
class MmrmFit:
    """Factored-regression fit: per-visit coefficients and the last-visit
    treatment effect with its small-sample variance and d.f."""

    theta: tuple[np.ndarray, ...]
    sigma_hat_sq: np.ndarray
    l_hat: np.ndarray
    tau_hat: float
    kr_variance: float
    satterthwaite_df: float
    v_xj: np.ndarray
    m_j: np.ndarray
    a_j: np.ndarray
    a_quad: np.ndarray


def _substream(seed: int, index: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(key=seed, counter=index << 128))


def _se_hat(p: float, n: int) -> float:
    return math.sqrt(max(p * (1.0 - p), 0.0) / n)


def _decide(
    est: np.ndarray,
    se: np.ndarray,
    df: np.ndarray,
    alpha: float,
    objective: Margins,
    tau0: float,
) -> np.ndarray:
    """Confidence-interval decision rule shared by all objectives."""
    crit = special.stdtrit(df, 1.0 - alpha / 2.0)
    if objective.kind == "superiority":
        return np.abs(est - tau0) > crit * se
    if objective.kind == "noninferiority":
        if math.isfinite(objective.upper):
            return est + crit * se < objective.upper
        return est - crit * se > objective.lower
    return (est - crit * se > objective.lower) & (est + crit * se < objective.upper)


# ---------------------------------------------------------------------------
# single-dataset analyses


def analyze_ancova(
    y: np.ndarray,
    treatment: np.ndarray,
    covariates: np.ndarray | None,
    strict: bool = True,
) -> AncovaFit:
    """Least-squares treatment effect adjusted for covariates.

    ``strict=True`` raises on a collinear covariate block; with
    ``strict=False`` redundant columns are dropped (generalized-inverse
    behaviour) and the d.f. reflect the reduced rank.
    """
    y = np.asarray(y, dtype=float)
    g = np.asarray(treatment, dtype=float)
    n = y.size
    cols = [np.ones(n)]
    if covariates is not None and np.asarray(covariates).size:
        x = np.atleast_2d(np.asarray(covariates, dtype=float))
        if x.shape[0] != n:
            x = x.T
        cols.extend(x[:, j] for j in range(x.shape[1]))
    cols.append(g)
    xm = np.column_stack(cols)
    k = xm.shape[1]
    if n <= k:
        raise InsufficientDataError(f"need more than {k} observations, got {n}")
    gram = xm.T @ xm
    eig = np.linalg.eigvalsh(gram)
    if eig[0] <= _RANK_TOL * eig[-1]:
        if strict:
            raise DomainError("covariate matrix is singular (collinear columns)")
        xm = xm[:, _prune_keep(xm)]
        gram = xm.T @ xm
        eig = np.linalg.eigvalsh(gram)
        if eig[0] <= _RANK_TOL * eig[-1]:
            raise DomainError("treatment effect is confounded; no analyzable fit")
    inv = np.linalg.inv(gram)
    beta = inv @ (xm.T @ y)
    resid = y - xm @ beta
    df = n - xm.shape[1]
    sigma_sq = float(resid @ resid) / df
    return AncovaFit(
        tau_hat=float(beta[-1]),
        sigma_hat_sq=sigma_sq,
        v_x=float(inv[-1, -1]),
        df=float(df),
    )


def _prune_keep(xm: np.ndarray) -> list[int]:
    """Columns to keep when the design matrix is collinear.

    Intercept (first) and treatment (last) are fitted first; covariate
    columns are added only while they increase the rank, so an adjuster that
    aliases the treatment is dropped rather than the treatment itself.
    """
    n, k = xm.shape
    if np.linalg.matrix_rank(xm[:, [0, k - 1]]) < 2:
        raise DomainError("treatment effect is confounded; no analyzable fit")
    keep_mid: list[int] = []
    for j in range(1, k - 1):
        cand = xm[:, [0] + keep_mid + [j, k - 1]]
        if np.linalg.matrix_rank(cand) == len(keep_mid) + 3:
            keep_mid.append(j)
    return [0] + keep_mid + [k - 1]


def analyze_mmrm(
    y: np.ndarray,
    treatment: np.ndarray,
    covariates: np.ndarray | None,
    strict: bool = True,
) -> MmrmFit:
    """Fit the factored per-visit regressions under monotone missingness.

    ``y`` is (n, p) with NaN marking missed visits; the missingness pattern
    must be monotone (once missing, missing at all later visits).  Returns
    the last-visit treatment effect, its small-sample variance estimate and
    Satterthwaite degrees of freedom.  ``strict=True`` raises on a singular
    visit regression; with ``strict=False`` the fit is redone from the first
    visit with each visit's redundant covariate columns dropped (used for
    rare replicates where a factor level is empty among the subjects
    retained at some visit), and parameter counts follow the per-visit ranks.
    """
    y = np.asarray(y, dtype=float)
    if y.ndim != 2:
        raise DomainError("y must be an (n, p) matrix of per-visit outcomes")
    n, p = y.shape
    g = np.asarray(treatment, dtype=float)
    observed = ~np.isnan(y)
    if np.any(observed[:, 1:] & ~observed[:, :-1]):
        raise DomainError("missingness must be monotone across visits")
    if covariates is not None and np.asarray(covariates).size:
        x = np.atleast_2d(np.asarray(covariates, dtype=float))
        if x.shape[0] != n:
            x = x.T
        xpart = np.column_stack([np.ones(n), x, g])
    else:
        xpart = np.column_stack([np.ones(n), g])
    return _fit_mmrm(y, xpart, observed, strict, prune=False)


def _fit_mmrm(
    y: np.ndarray, xpart: np.ndarray, observed: np.ndarray, strict: bool, prune: bool
) -> MmrmFit:
    """The per-visit regressions on each visit's kept covariate columns: all
    of ``xpart``, or with ``prune`` the columns ``_prune_keep`` retains among
    that visit's subjects."""
    p = y.shape[1]
    theta: list[np.ndarray] = []
    sigma_sq = np.zeros(p)
    v_xj = np.zeros(p)
    m_j = np.zeros(p)
    rank_x = np.zeros(p, dtype=int)
    beta_hat = np.zeros((p, p))
    inv_gram_hist = []

    for j in range(p):
        mask = observed[:, j]
        m = int(mask.sum())
        m_j[j] = m
        x_only = xpart[mask]
        if prune:
            x_only = x_only[:, _prune_keep(x_only)]
        r = x_only.shape[1]
        rank_x[j] = r
        if m <= r + j:
            raise InsufficientDataError(
                f"visit {j + 1}: {m} retained subjects cannot support {r + j} parameters"
            )
        z = np.column_stack([x_only, y[mask, :j]]) if j else x_only
        yy = y[mask, j]
        gram = z.T @ z
        eig = np.linalg.eigvalsh(gram)
        if eig[0] <= _RANK_TOL * eig[-1]:
            if prune:
                raise DomainError(f"visit {j + 1}: design matrix not analyzable")
            if strict:
                raise DomainError(f"visit {j + 1}: singular design matrix")
            return _fit_mmrm(y, xpart, observed, strict, prune=True)
        inv = np.linalg.inv(gram)
        th = inv @ (z.T @ yy)
        resid = yy - z @ th
        sigma_sq[j] = float(resid @ resid) / (m - r)
        theta.append(th)
        beta_hat[j, :j] = th[r:] if j else []
        gram_x = x_only.T @ x_only
        inv_x = np.linalg.inv(gram_x)
        v_xj[j] = float(inv_x[-1, -1])
        if j:
            yhist = y[mask, :j]
            m_mat = yhist.T @ yhist - (yhist.T @ x_only) @ inv_x @ (x_only.T @ yhist)
            inv_gram_hist.append(np.linalg.inv(m_mat))
        else:
            inv_gram_hist.append(None)

    u_hat = np.eye(p)
    for j in range(1, p):
        u_hat[j, :j] = -beta_hat[j, :j]
    l_hat = np.linalg.inv(u_hat)
    lp = l_hat[-1, :]
    # treatment coefficient sits last in the retained covariate block
    tau_under = np.array([theta[j][rank_x[j] - 1] for j in range(p)])
    tau_hat = float(np.dot(lp, tau_under))

    a = lp * sigma_sq * v_xj
    kr = float(np.dot(lp**2 * sigma_sq, v_xj))
    for j in range(1, p):
        kr += 2.0 * lp[j] ** 2 * sigma_sq[j] * float(np.sum(v_xj[j] - v_xj[:j])) / (
            m_j[j] - rank_x[j]
        )
    a_quad = np.zeros(p)
    for j in range(1, p):
        av = l_hat[:j, :j] @ a[:j]
        a_quad[j] = lp[j] ** 2 * sigma_sq[j] * float(av @ inv_gram_hist[j] @ av)
    denom = 2.0 * a_quad.sum() + float(np.sum(lp**2 * a**2 / (m_j - rank_x)))
    sat_df = float(np.dot(lp**2 * sigma_sq, v_xj)) ** 2 / denom

    return MmrmFit(
        theta=tuple(theta),
        sigma_hat_sq=sigma_sq,
        l_hat=l_hat,
        tau_hat=tau_hat,
        kr_variance=kr,
        satterthwaite_df=sat_df,
        v_xj=v_xj,
        m_j=m_j,
        a_j=a,
        a_quad=a_quad,
    )


# ---------------------------------------------------------------------------
# batched engines


def _covariate_columns(
    sc: ScenarioSpec, rng: np.random.Generator, n: int, with_baseline: bool
):
    """Draw covariates in the fixed order: baseline normals, factor uniforms.

    Returns (list of design columns, baseline vector or None, factor-effect
    vector).  The factor's last level is the analysis reference.
    """
    cols = []
    xb = None
    if with_baseline:
        xb = rng.standard_normal(n)
        cols.append(xb)
    fac_eff = np.zeros(n)
    if sc.factor is not None:
        u = rng.random(n)
        cum = np.cumsum(sc.factor.probs)
        levels = np.minimum(
            np.searchsorted(cum, u, side="right"), len(sc.factor.probs) - 1
        )
        fac_eff = np.asarray(sc.factor.effects)[levels]
        for lev in range(sc.factor.n_dummies):
            cols.append((levels == lev).astype(float))
    return cols, xb, fac_eff


# Each engine draws and analyses one chunk of replicates, ``start`` onward and
# at most up to ``stop``, and returns (est, se, df, refits): refits lists
# (replicate, fallback fit, its arguments) for replicates the batched fit
# could not handle.


def _simulate_one_sample(sc: ScenarioSpec, n_per_group, seed: int, start: int, stop: int):
    design = sc.design
    n = int(n_per_group[0])
    if n < 2:
        raise DomainError("need at least two subjects")
    sd = math.sqrt(design.sigma_sq)
    count = min(_CHUNK, stop - start)
    y = np.empty((count, n))
    for r in range(count):
        y[r] = design.mu + sd * _substream(seed, start + r).standard_normal(n)
    est = y.mean(axis=1)
    se = np.sqrt(y.var(axis=1, ddof=1) / n)
    df = np.full(count, float(n - 1))
    return est, se, df, []


def _simulate_two_sample(sc: ScenarioSpec, n_per_group, seed: int, start: int, stop: int):
    design = sc.design
    n0, n1 = int(n_per_group[0]), int(n_per_group[1])
    if min(n0, n1) < 2:
        raise DomainError("need at least two subjects per group")
    sd0, sd1 = math.sqrt(design.sigma0_sq), math.sqrt(design.sigma1_sq)
    count = min(_CHUNK, stop - start)
    y0 = np.empty((count, n0))
    y1 = np.empty((count, n1))
    for r in range(count):
        z = _substream(seed, start + r).standard_normal(n0 + n1)
        y0[r] = design.mu0 + sd0 * z[:n0]
        y1[r] = design.mu1 + sd1 * z[n0:]
    m0, m1 = y0.mean(axis=1), y1.mean(axis=1)
    v0 = y0.var(axis=1, ddof=1)
    v1 = y1.var(axis=1, ddof=1)
    est = m1 - m0
    if design.equal_variance:
        pooled = ((n0 - 1) * v0 + (n1 - 1) * v1) / (n0 + n1 - 2)
        se = np.sqrt(pooled * (1.0 / n0 + 1.0 / n1))
        df = np.full(count, float(n0 + n1 - 2))
    else:
        a0, a1 = v0 / n0, v1 / n1
        se = np.sqrt(a0 + a1)
        df = (a0 + a1) ** 2 / (a0**2 / (n0 - 1) + a1**2 / (n1 - 1))
    return est, se, df, []


def _simulate_crossover(sc: ScenarioSpec, n_per_group, seed: int, start: int, stop: int):
    design = sc.design
    n0, n1 = int(n_per_group[0]), int(n_per_group[1])
    n = n0 + n1
    if min(n0, n1) < 2:
        raise DomainError("need at least two subjects per sequence")
    effect = design.mu_star_b - design.mu_star_a
    sd = math.sqrt(design.sigma_d_sq)
    delta = sc.period_effect
    count = min(_CHUNK, stop - start)
    d0 = np.empty((count, n0))
    d1 = np.empty((count, n1))
    for r in range(count):
        z = _substream(seed, start + r).standard_normal(n)
        d0[r] = (effect + delta) + sd * z[:n0]
        d1[r] = (effect - delta) + sd * z[n0:]
    if design.period_effect_in_analysis:
        est = 0.5 * (d0.mean(axis=1) + d1.mean(axis=1))
        ss = d0.var(axis=1, ddof=1) * (n0 - 1) + d1.var(axis=1, ddof=1) * (n1 - 1)
        sig_d = ss / (n - 2)
        se = np.sqrt(n * sig_d / (4.0 * n0 * n1))
        df = np.full(count, float(n - 2))
    else:
        allv = np.concatenate([d0, d1], axis=1)
        est = allv.mean(axis=1)
        se = np.sqrt(allv.var(axis=1, ddof=1) / n)
        df = np.full(count, float(n - 1))
    return est, se, df, []


def _ancova_test(y, g, x):
    """Estimate, standard error and d.f. of one replicate's fallback fit."""
    fit = analyze_ancova(y, g, x, strict=False)
    return fit.tau_hat, math.sqrt(fit.sigma_hat_sq * fit.v_x), fit.df


def _mmrm_test(y, g, x):
    """Estimate, standard error and d.f. of one replicate's fallback fit."""
    fit = analyze_mmrm(y, g, x, strict=False)
    return fit.tau_hat, math.sqrt(fit.kr_variance), fit.satterthwaite_df


def _simulate_ancova(sc: ScenarioSpec, n_per_group, seed: int, start: int, stop: int):
    design = sc.design
    n0, n1 = int(n_per_group[0]), int(n_per_group[1])
    n = n0 + n1
    k = design.q + 2
    if n <= k:
        raise InsufficientDataError(f"need more than {k} subjects, got {n}")
    g = np.concatenate([np.zeros(n0), np.ones(n1)])
    sd = math.sqrt(design.sigma_sq)
    tau_gen = design.tau1
    count = min(_CHUNK, stop - start)
    xmat = np.empty((count, n, k))
    yall = np.empty((count, n))
    xmat[:, :, 0] = 1.0
    xmat[:, :, -1] = g
    for r in range(count):
        rng = _substream(seed, start + r)
        cols, xb, fac_eff = _covariate_columns(
            sc, rng, n, sc.baseline_effect is not None
        )
        eps = rng.standard_normal(n)
        for c, col in enumerate(cols):
            xmat[r, :, 1 + c] = col
        mean = sc.intercept + fac_eff + tau_gen * g
        if xb is not None:
            mean = mean + sc.baseline_effect * xb
        yall[r] = mean + sd * eps
    gram = np.einsum("rik,ril->rkl", xmat, xmat)
    eig = np.linalg.eigvalsh(gram)
    ok = eig[:, 0] > _RANK_TOL * eig[:, -1]
    est = np.empty(count)
    se = np.empty(count)
    df = np.empty(count)
    if ok.any():
        inv = np.linalg.inv(gram[ok])
        xty = np.einsum("rik,ri->rk", xmat[ok], yall[ok])
        beta = np.einsum("rkl,rl->rk", inv, xty)
        resid = yall[ok] - np.einsum("rik,rk->ri", xmat[ok], beta)
        sig = np.einsum("ri,ri->r", resid, resid) / (n - k)
        est[ok] = beta[:, -1]
        se[ok] = np.sqrt(sig * inv[:, -1, -1])
        df[ok] = float(n - k)
    refits = [(r, _ancova_test, (yall[r], g, xmat[r, :, 1:-1])) for r in np.nonzero(~ok)[0]]
    return est, se, df, refits


def _simulate_mmrm(sc: ScenarioSpec, n_per_group, seed: int, start: int, stop: int):
    design = sc.design
    n0, n1 = int(n_per_group[0]), int(n_per_group[1])
    n = n0 + n1
    p = design.p
    qs = design.q_star
    g = np.concatenate([np.zeros(n0), np.ones(n1)])
    factors = ldl_decompose(design.sigma)
    chol = factors.l * np.sqrt(factors.lam)[None, :]
    vis_int = np.asarray(sc.visit_intercepts if sc.visit_intercepts is not None else np.zeros(p))
    vis_bl = np.asarray(
        sc.visit_baseline_effects
        if sc.visit_baseline_effects is not None
        else np.zeros(p)
    )
    vis_tau = np.zeros(p)
    if sc.visit_effects is not None:
        vis_tau[:-1] = sc.visit_effects
    vis_tau[-1] = design.tau_p1

    # per-arm dropout pattern probabilities: P(last observed visit = j)
    pattern = []
    for arm in design.retention:
        pi = np.concatenate([[1.0], np.asarray(arm), [0.0]])
        probs = np.empty(p + 1)
        probs[0] = 1.0 - pi[1]
        for j in range(1, p + 1):
            probs[j] = pi[j] - pi[j + 1]
        pattern.append(np.cumsum(probs))
    cum0, cum1 = pattern

    chunk = max(128, min(2048, int(1e6 / (n * p))))
    has_baseline = sc.visit_baseline_effects is not None
    visit_idx = np.arange(1, p + 1)
    count = min(chunk, stop - start)
    yall = np.empty((count, n, p))
    xcov = np.empty((count, n, qs - 2)) if qs > 2 else None
    wobs = np.empty((count, n, p))
    for r in range(count):
        rng = _substream(seed, start + r)
        cols, xb, fac_eff = _covariate_columns(sc, rng, n, has_baseline)
        u = rng.random(n)
        z = rng.standard_normal((n, p))
        last = np.empty(n, dtype=np.int64)
        last[:n0] = np.searchsorted(cum0, u[:n0], side="right")
        last[n0:] = np.searchsorted(cum1, u[n0:], side="right")
        mean = vis_int[None, :] + fac_eff[:, None] + np.outer(g, vis_tau)
        if xb is not None:
            mean = mean + np.outer(xb, vis_bl)
        yall[r] = mean + z @ chol.T
        wobs[r] = (visit_idx[None, :] <= last[:, None]).astype(float)
        if xcov is not None:
            for c, col in enumerate(cols):
                xcov[r, :, c] = col
    est, se, df, ok = _analyze_mmrm_chunk(yall, wobs, xcov, g, qs)
    refits = []
    for r in np.nonzero(~ok)[0]:
        yr = np.where(wobs[r] > 0, yall[r], np.nan)
        refits.append((r, _mmrm_test, (yr, g, None if xcov is None else xcov[r])))
    return est, se, df, refits


def _analyze_mmrm_chunk(yall, wobs, xcov, g, qs):
    """Batched factored regressions of one chunk: (est, se, df, ok), where
    ``ok`` marks the replicates this fit handles; the others need the
    fallback fit and their est, se and df are unset."""
    count, n, p = yall.shape
    xpart = np.empty((count, n, qs))
    xpart[:, :, 0] = 1.0
    if xcov is not None:
        xpart[:, :, 1 : qs - 1] = xcov
    xpart[:, :, -1] = g

    est = np.empty(count)
    se = np.empty(count)
    df = np.empty(count)
    ok = np.ones(count, dtype=bool)

    sigma_sq = np.empty((count, p))
    v_xj = np.empty((count, p))
    m_j = np.empty((count, p))
    tau_under = np.empty((count, p))
    beta_hat = np.zeros((count, p, p))
    inv_hist = [None] * p

    for j in range(p):
        w = wobs[:, :, j]
        m = w.sum(axis=1)
        m_j[:, j] = m
        k_j = qs + j
        ok &= m > k_j
        z = np.concatenate([xpart, yall[:, :, :j]], axis=2) if j else xpart
        zw = z * w[:, :, None]
        gram = np.einsum("rik,ril->rkl", zw, z)
        eig = np.linalg.eigvalsh(gram)
        ok &= eig[:, 0] > _RANK_TOL * eig[:, -1]
        gram_safe = np.where(ok[:, None, None], gram, np.eye(k_j)[None, :, :])
        inv = np.linalg.inv(gram_safe)
        zty = np.einsum("rik,ri->rk", zw, yall[:, :, j])
        th = np.einsum("rkl,rl->rk", inv, zty)
        resid = (yall[:, :, j] - np.einsum("rik,rk->ri", z, th)) * np.sqrt(w)
        with np.errstate(divide="ignore", invalid="ignore"):
            sigma_sq[:, j] = np.einsum("ri,ri->r", resid, resid) / (m - qs)
        tau_under[:, j] = th[:, qs - 1]
        if j:
            beta_hat[:, j, :j] = th[:, k_j - j :]
        xw = xpart * w[:, :, None]
        gram_x = np.einsum("rik,ril->rkl", xw, xpart)
        eigx = np.linalg.eigvalsh(gram_x)
        ok &= eigx[:, 0] > _RANK_TOL * eigx[:, -1]
        gram_x_safe = np.where(ok[:, None, None], gram_x, np.eye(qs)[None, :, :])
        inv_x = np.linalg.inv(gram_x_safe)
        v_xj[:, j] = inv_x[:, -1, -1]
        if j:
            yh = yall[:, :, :j]
            yhw = yh * w[:, :, None]
            gram_h = np.einsum("rik,ril->rkl", yhw, yh)
            cross = np.einsum("rik,ril->rkl", yhw, xpart)
            m_mat = gram_h - cross @ inv_x @ np.swapaxes(cross, 1, 2)
            eigm = np.linalg.eigvalsh(m_mat)
            ok &= eigm[:, 0] > _RANK_TOL * np.abs(eigm[:, -1])
            m_safe = np.where(ok[:, None, None], m_mat, np.eye(j)[None, :, :])
            inv_hist[j] = np.linalg.inv(m_safe)

    # The variance and d.f. only for the replicates the batched fit handles;
    # the others, whose sigma_sq may be inf or NaN, go to the fallback fit.
    sigma_sq, v_xj, m_j, tau_under, beta_hat = (
        x[ok] for x in (sigma_sq, v_xj, m_j, tau_under, beta_hat)
    )
    inv_hist = [h if h is None else h[ok] for h in inv_hist]
    u_hat = np.tile(np.eye(p), (len(m_j), 1, 1))
    for j in range(1, p):
        u_hat[:, j, :j] = -beta_hat[:, j, :j]
    l_hat = np.linalg.inv(u_hat)
    lp = l_hat[:, -1, :]
    tau_hat = np.einsum("rj,rj->r", lp, tau_under)

    a = lp * sigma_sq * v_xj
    kr = np.einsum("rj,rj->r", lp**2 * sigma_sq, v_xj)
    a_quad_sum = np.zeros(len(m_j))
    for j in range(1, p):
        kr += (
            2.0
            * lp[:, j] ** 2
            * sigma_sq[:, j]
            * (v_xj[:, j][:, None] - v_xj[:, :j]).sum(axis=1)
            / (m_j[:, j] - qs)
        )
        av = np.einsum("rtk,rk->rt", l_hat[:, :j, :j], a[:, :j])
        a_quad_sum += (
            lp[:, j] ** 2
            * sigma_sq[:, j]
            * np.einsum("rt,rtu,ru->r", av, inv_hist[j], av)
        )
    denom = 2.0 * a_quad_sum + np.sum(lp**2 * a**2 / (m_j - qs), axis=1)
    sat = np.einsum("rj,rj->r", lp**2 * sigma_sq, v_xj) ** 2 / denom

    est[ok] = tau_hat
    se[ok] = np.sqrt(kr)
    df[ok] = sat

    return est, se, df, ok


def simulate_power(
    sc: ScenarioSpec,
    n_per_group,
    alpha: float,
    objective: Margins,
    replicates: int | None = None,
    seed: int | None = None,
) -> SimReport:
    """Empirical rejection rate of the objective's decision rule.

    ``n_per_group`` lists the integer group sizes (one entry for single-group
    designs).  Deterministic for a fixed seed regardless of chunking; aborts
    if analysis failures exceed 0.1% of replicates.
    """
    if not (0.0 < alpha < 1.0):
        raise DomainError(f"alpha must lie in (0, 1), got {alpha}")
    reps = int(replicates if replicates is not None else (sc.replicates or sc.default_replicates()))
    if reps < 1:
        raise DomainError("replicate count must be >= 1")
    rng_seed = int(seed if seed is not None else sc.seed)
    n_per_group = tuple(int(v) for v in np.atleast_1d(n_per_group))
    tau0 = _null_value(sc, objective)

    start = time.perf_counter()
    design = sc.design
    # built per call, so that a wrapper set on a module attribute (a profiler,
    # say) sees every chunk
    engine = {
        OneSampleSpec: _simulate_one_sample,
        TwoSampleSpec: _simulate_two_sample,
        CrossoverSpec: _simulate_crossover,
        AncovaSpec: _simulate_ancova,
        MmrmDesign: _simulate_mmrm,
    }.get(type(design))
    if engine is None:
        raise DomainError(f"unsupported design type {type(design).__name__}")
    rej = fail = done = 0
    while done < reps:
        est, se, df, refits = engine(sc, n_per_group, rng_seed, done, reps)
        for r, refit, args in refits:
            try:
                est[r], se[r], df[r] = refit(*args)
            except (DomainError, InsufficientDataError, np.linalg.LinAlgError):
                est[r], se[r], df[r] = np.nan, 1.0, 10.0
                fail += 1
        dec = _decide(est, se, df, alpha, objective, tau0)
        dec[np.isnan(est)] = False
        rej += int(dec.sum())
        done += est.size
    elapsed = time.perf_counter() - start

    if fail > _FAILURE_CAP * reps:
        raise SimulationFailureError(
            f"{fail} of {reps} replicates failed analysis (> {_FAILURE_CAP:.2%}); "
            "excluding them would bias the estimate"
        )
    effective = reps - fail
    p_hat = rej / effective
    return SimReport(
        rejections=rej,
        replicates=effective,
        power_hat=p_hat,
        std_error=_se_hat(p_hat, effective),
        seed=rng_seed,
        wall_time=elapsed,
        failures=fail,
    )


def _null_value(sc: ScenarioSpec, objective: Margins) -> float:
    design = sc.design
    if objective.kind == "superiority":
        if isinstance(design, (AncovaSpec, OneSampleSpec)):
            return design.tau0
        if isinstance(design, MmrmDesign):
            return design.tau_p0
        return sc.tau0
    return 0.0
