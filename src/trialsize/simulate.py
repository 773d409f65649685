"""Seeded Monte Carlo trial simulator and analysis estimators.

Every replicate draws from its own counter-based substream (Philox keyed by
the scenario seed, counter = replicate_index << 128), so results are
bit-identical for a fixed seed regardless of chunking or parallelism.  Each
engine call builds one Philox and, per replicate, resets its state to that
counter rather than building a new generator; the stream is the same.  Only
the raw draws run per replicate, into chunk arrays; factor levels, dropout
patterns, means and covariate columns are computed once per chunk.  Draw
order within a replicate is fixed per design family:

* one-sample / two-sample / crossover:  one standard-normal block
* covariate-adjusted:      baseline normals, factor uniforms, outcome normals
* repeated measures:       baseline normals, factor uniforms, dropout
                           uniforms, visit-error normals (n x p, row-major)

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
from .mmrm import MmrmDesign

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


def _philox(seed: int):
    """One engine call's bit generator, its ``Generator`` and its state dict,
    which ``_substream`` repositions per replicate."""
    bit_generator = np.random.Philox(key=seed)
    return bit_generator, np.random.Generator(bit_generator), bit_generator.state


def _substream(philox, index: int) -> np.random.Generator:
    """Replicate ``index``'s stream: Philox keyed by the seed at counter
    ``index << 128``, the stream of a fresh
    ``Generator(Philox(key=seed, counter=index << 128))``.

    ``philox`` comes from ``_philox``.  The reset writes all four counter
    words, because draws move the low word, and empties the output buffer
    and the buffered 32-bit half.  The returned generator is the same object
    for every index and is valid until the next reset.
    """
    bit_generator, generator, state = philox
    counter = state["state"]["counter"]
    counter[0] = counter[1] = counter[3] = 0
    counter[2] = index
    state["buffer_pos"] = 4
    state["has_uint32"] = 0
    bit_generator.state = state
    return generator


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


def _draw(seed: int, start: int, count: int, *blocks):
    """The raw draws of replicates ``start`` to ``start + count - 1``.

    A block is (name of a ``Generator`` method, shape per replicate) or
    None.  Each replicate draws its blocks in the order given from its own
    substream; the result holds one ``(count, *shape)`` array per block, None
    for None.
    """
    arrays = [None if b is None else np.empty((count, *b[1])) for b in blocks]
    fills = [(arr, b[0]) for arr, b in zip(arrays, blocks) if b is not None]
    philox = _philox(seed)
    for r in range(count):
        gen = _substream(philox, start + r)
        for arr, method in fills:
            getattr(gen, method)(out=arr[r])
    return arrays


def _covariate_blocks(sc: ScenarioSpec, n: int, with_baseline: bool):
    """The covariate blocks of ``_draw``, in the fixed order: baseline
    normals, factor uniforms."""
    return (
        ("standard_normal", (n,)) if with_baseline else None,
        ("random", (n,)) if sc.factor is not None else None,
    )


def _covariates(sc: ScenarioSpec, xb, u, out) -> np.ndarray | float:
    """One chunk's covariates from the draws of ``_covariate_blocks``.

    Writes the design columns into ``out`` (count, n, columns): the baseline,
    then one indicator per factor level but the last, which is the analysis
    reference.  Returns the factor effects (count, n), or 0.0 without a
    factor.
    """
    c = 0
    if xb is not None:
        out[:, :, 0] = xb
        c = 1
    if sc.factor is None:
        return 0.0
    levels = np.minimum(
        np.searchsorted(np.cumsum(sc.factor.probs), u, side="right"), sc.factor.n_dummies
    )
    for lev in range(sc.factor.n_dummies):
        out[:, :, c + lev] = levels == lev
    return np.asarray(sc.factor.effects)[levels]


# Each engine draws and analyses one chunk of replicates, ``start`` onward and
# at most up to ``stop``, and returns (est, se, df, refits): refits lists
# (replicate, fallback fit, its arguments) for replicates the batched fit
# could not handle.  Draws are scaled and shifted in place (``z *= sd;
# z += mu`` is ``mu + sd * z`` bit for bit) to keep the chunk's memory down.


def _simulate_one_sample(sc: ScenarioSpec, n_per_group, seed: int, start: int, stop: int):
    design = sc.design
    n = int(n_per_group[0])
    if n < 2:
        raise DomainError("need at least two subjects")
    count = min(_CHUNK, stop - start)
    (y,) = _draw(seed, start, count, ("standard_normal", (n,)))
    y *= math.sqrt(design.sigma_sq)
    y += design.mu
    est = y.mean(axis=1)
    se = np.sqrt(y.var(axis=1, ddof=1) / n)
    df = np.full(count, float(n - 1))
    return est, se, df, []


def _simulate_two_sample(sc: ScenarioSpec, n_per_group, seed: int, start: int, stop: int):
    design = sc.design
    n0, n1 = int(n_per_group[0]), int(n_per_group[1])
    if min(n0, n1) < 2:
        raise DomainError("need at least two subjects per group")
    count = min(_CHUNK, stop - start)
    (z,) = _draw(seed, start, count, ("standard_normal", (n0 + n1,)))
    y0, y1 = z[:, :n0], z[:, n0:]
    y0 *= math.sqrt(design.sigma0_sq)
    y0 += design.mu0
    y1 *= math.sqrt(design.sigma1_sq)
    y1 += design.mu1
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
    (d,) = _draw(seed, start, count, ("standard_normal", (n,)))
    d0, d1 = d[:, :n0], d[:, n0:]
    d0 *= sd
    d0 += effect + delta
    d1 *= sd
    d1 += effect - delta
    if design.period_effect_in_analysis:
        est = 0.5 * (d0.mean(axis=1) + d1.mean(axis=1))
        ss = d0.var(axis=1, ddof=1) * (n0 - 1) + d1.var(axis=1, ddof=1) * (n1 - 1)
        sig_d = ss / (n - 2)
        se = np.sqrt(n * sig_d / (4.0 * n0 * n1))
        df = np.full(count, float(n - 2))
    else:
        est = d.mean(axis=1)
        se = np.sqrt(d.var(axis=1, ddof=1) / n)
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
    count = min(_CHUNK, stop - start)
    xmat = np.empty((count, n, k))
    xb, u, yall = _draw(
        seed, start, count,
        *_covariate_blocks(sc, n, sc.baseline_effect is not None),
        ("standard_normal", (n,)),
    )
    xmat[:, :, 0] = 1.0
    xmat[:, :, -1] = g
    mean = sc.intercept + _covariates(sc, xb, u, xmat[:, :, 1:-1]) + design.tau1 * g
    if xb is not None:
        mean = mean + sc.baseline_effect * xb
    yall *= math.sqrt(design.sigma_sq)
    yall += mean
    del xb, u, mean
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
    g = np.concatenate([np.zeros(n0), np.ones(n1)])
    chunk = max(128, min(2048, int(1e6 / (n * design.p))))
    count = min(chunk, stop - start)
    yall, wobs, xcov = _mmrm_trials(sc, n0, g, seed, start, count)
    est, se, df, ok = _analyze_mmrm_chunk(yall, wobs, xcov, g, design.q_star)
    refits = []
    for r in np.nonzero(~ok)[0]:
        yr = np.where(wobs[r] > 0, yall[r], np.nan)
        refits.append((r, _mmrm_test, (yr, g, None if xcov is None else xcov[r])))
    return est, se, df, refits


def _mmrm_trials(sc: ScenarioSpec, n0: int, g, seed: int, start: int, count: int):
    """One chunk of repeated-measures trials: outcomes (count, n, p), the
    observed-visit weights (count, n, p) and the covariates (count, n, q* - 2)
    or None.  A function of its own, so that the draws and the means are
    freed before the analysis runs."""
    design = sc.design
    n, p, qs = g.size, design.p, design.q_star
    factors = design.factors
    chol = factors.l * np.sqrt(factors.lam)[None, :]
    vis_int = np.asarray(sc.visit_intercepts if sc.visit_intercepts is not None else np.zeros(p))
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

    # the outputs before the draws, so that the freed draws leave one block
    # the analysis can reuse (allocated after them, the outputs raised the
    # peak RSS of a run over the MMRM fixtures by about 5%)
    yall = np.empty((count, n, p))
    wobs = np.empty((count, n, p))
    xcov = np.empty((count, n, qs - 2)) if qs > 2 else None
    xb, u, dropout, z = _draw(
        seed, start, count,
        *_covariate_blocks(sc, n, sc.visit_baseline_effects is not None),
        ("random", (n,)),
        ("standard_normal", (n, p)),
    )
    noise = z @ chol.T
    del z
    fac_eff = _covariates(sc, xb, u, xcov)
    last = np.empty((count, n), dtype=np.int64)
    last[:, :n0] = np.searchsorted(pattern[0], dropout[:, :n0], side="right")
    last[:, n0:] = np.searchsorted(pattern[1], dropout[:, n0:], side="right")
    np.less_equal(np.arange(1, p + 1), last[:, :, None], out=wobs)
    np.add(vis_int, np.asarray(fac_eff)[..., None], out=yall)
    yall += np.outer(g, vis_tau)
    if xb is not None:
        for j, effect in enumerate(sc.visit_baseline_effects):
            yall[:, :, j] += effect * xb
    yall += noise
    return yall, wobs, xcov


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
        raise DomainError(
            "replicate count must be >= 1 (None selects the scenario's count; "
            "0 is only ScenarioSpec's marker for the family default)"
        )
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
