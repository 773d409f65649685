"""Design-stage machinery for the repeated-measures mixed model (MMRM).

The longitudinal model with unstructured covariance is factored through the
LDL decomposition into per-visit regressions on covariates, treatment, and
earlier outcomes.  Under monotone dropout with per-arm retention schedules,
the analysis-stage small-sample variance estimate and Satterthwaite degrees
of freedom have closed-form expectations, which drive the power at the last
visit and the sample-size chain.

All subject counts at the design stage (m_j = n * pooled retention) are kept
fractional; rounding to integers happens only when a size estimate is
reported.

The power formulas are plug-in values: the variance terms and d.f. are
evaluated at these expected retained counts, not averaged over the random
counts that dropout produces in a trial.  Because 1/m is convex in m, the
count-averaged power sits below the plug-in value in small samples;
:func:`dropout_averaged_power` computes that average for any of the power
formulas.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np
from scipy import stats
from scipy.stats import qmc

from . import core, dist
from .core import PowerEstimate, SizeEstimate, TestKernel
from .dist import DEFAULT_SETTINGS, NumericSettings
from .errors import DecompositionError, DomainError

__all__ = [
    "MmrmDesign",
    "LdlFactors",
    "MmrmDerived",
    "ldl_decompose",
    "mmrm_derived",
    "mmrm_power",
    "mmrm_power_approx",
    "mmrm_equiv_power",
    "mmrm_equiv_power_approx",
    "DropoutAverage",
    "dropout_averaged_power",
    "mmrm_size_chain",
    "compound_symmetry",
    "ar1",
    "toeplitz",
]


def compound_symmetry(p: int, variance: float, covariance: float) -> np.ndarray:
    """Compound-symmetry covariance: constant variance and covariance."""
    sig = np.full((p, p), float(covariance))
    np.fill_diagonal(sig, float(variance))
    return sig


def ar1(p: int, variance: float, corr: float) -> np.ndarray:
    """AR(1) covariance: variance * corr^|j-k|."""
    idx = np.arange(p)
    return float(variance) * float(corr) ** np.abs(idx[:, None] - idx[None, :])


def toeplitz(first_row) -> np.ndarray:
    """Toeplitz covariance from its first row."""
    r = np.asarray(first_row, dtype=float)
    idx = np.arange(r.size)
    return r[np.abs(idx[:, None] - idx[None, :])]


@dataclass(frozen=True)
class LdlFactors:
    """Unit-lower-triangular L and positive diagonal lam with L diag(lam) L' = Sigma.

    ``beta[j, t]`` (t < j) are the coefficients of visit t's outcome in the
    factored regression for visit j; ``lam`` holds the per-visit innovation
    variances.
    """

    l: np.ndarray
    lam: np.ndarray
    beta: np.ndarray


def ldl_decompose(sigma: np.ndarray) -> LdlFactors:
    """LDL' factorization of a symmetric positive-definite matrix."""
    s = np.asarray(sigma, dtype=float)
    if s.ndim != 2 or s.shape[0] != s.shape[1]:
        raise DomainError(f"covariance must be a square matrix, got shape {s.shape}")
    if not np.allclose(s, s.T, rtol=0.0, atol=1e-8 * max(1.0, np.abs(s).max())):
        raise DomainError("covariance matrix must be symmetric")
    p = s.shape[0]
    low = np.eye(p)
    d = np.zeros(p)
    for j in range(p):
        d[j] = s[j, j] - np.dot(low[j, :j] ** 2, d[:j])
        if d[j] <= 1e-12 * max(1.0, s[j, j]):
            raise DecompositionError(
                f"leading minor of order {j + 1} is not positive definite"
            )
        for i in range(j + 1, p):
            low[i, j] = (s[i, j] - np.dot(low[i, :j] * low[j, :j], d[:j])) / d[j]
    u = np.linalg.inv(low)
    beta = -np.tril(u, -1)
    return LdlFactors(l=low, lam=d, beta=beta)


@dataclass(frozen=True)
class MmrmDesign:
    """Design inputs: covariance, per-arm retention schedules, allocation,
    covariate count, and the last-visit treatment effect under H1/H0."""

    sigma: np.ndarray
    retention: tuple[tuple[float, ...], tuple[float, ...]]
    gamma0: float
    q: int
    tau_p1: float
    tau_p0: float = 0.0

    def __post_init__(self):
        sig = np.asarray(self.sigma, dtype=float)
        object.__setattr__(self, "sigma", sig)
        retention = tuple(tuple(float(x) for x in arm) for arm in self.retention)
        object.__setattr__(self, "retention", retention)
        if len(retention) != 2:
            raise DomainError("retention must list two arms (control, experimental)")
        p = sig.shape[0]
        for g, arm in enumerate(retention):
            if len(arm) != p:
                raise DomainError(
                    f"arm {g} retention has {len(arm)} visits, covariance has {p}"
                )
            for j, pi in enumerate(arm):
                if not (0.0 < pi <= 1.0):
                    raise DomainError(
                        f"retention must lie in (0, 1]; arm {g} visit {j + 1} has {pi}"
                    )
                if j > 0 and pi > arm[j - 1] + 1e-12:
                    raise DomainError(
                        f"retention must be nonincreasing (monotone dropout); "
                        f"arm {g} rises at visit {j + 1}"
                    )
        if not (0.0 < self.gamma0 < 1.0):
            raise DomainError(f"allocation fraction must lie in (0, 1), got {self.gamma0}")
        if self.q < 0 or self.q != int(self.q):
            raise DomainError(f"covariate count q must be a nonnegative integer, got {self.q}")

    @property
    def p(self) -> int:
        return self.sigma.shape[0]

    @property
    def gamma1(self) -> float:
        return 1.0 - self.gamma0

    @property
    def q_star(self) -> int:
        return self.q + 2

    @property
    def pooled_retention(self) -> np.ndarray:
        r = np.asarray(self.retention, dtype=float)
        return self.gamma0 * r[0] + self.gamma1 * r[1]

    @property
    def varpi(self) -> np.ndarray:
        """Retention-adjusted variance weights: sum_g 1/(gamma_g * pi_gj)."""
        r = np.asarray(self.retention, dtype=float)
        return 1.0 / (self.gamma0 * r[0]) + 1.0 / (self.gamma1 * r[1])

    @property
    def effect(self) -> float:
        return self.tau_p1 - self.tau_p0


@dataclass(frozen=True)
class MmrmDerived:
    """Expected analysis-stage quantities at a given (possibly fractional) n."""

    n: float
    c_j: np.ndarray
    v_tilde_xj: np.ndarray
    varpi: np.ndarray
    v_tau: float
    v_tau_star: float
    f: float
    f_o: float
    rho_o: float
    b_j: np.ndarray
    d_j: np.ndarray
    e_j: np.ndarray
    omega_jt: np.ndarray


def _asymptotic_unit_variance(d: MmrmDesign, factors: LdlFactors) -> tuple[np.ndarray, float]:
    lp = factors.l[-1, :]
    contrib = lp**2 * factors.lam * d.varpi
    return contrib, float(contrib.sum())


def mmrm_derived(
    d: MmrmDesign, n: float, factors: LdlFactors | None = None
) -> MmrmDerived:
    """Expected variance terms, Satterthwaite d.f. and size-chain coefficients.

    Requires n * pooled_retention_j > q* + j at every visit so that all
    denominators stay positive.
    """
    factors = factors if factors is not None else ldl_decompose(d.sigma)
    p = d.p
    q, qs = d.q, d.q_star
    pibar = d.pooled_retention
    varpi = d.varpi
    m = n * pibar
    for j in range(p):
        if not m[j] > qs + (j + 1):
            raise DomainError(
                f"retained count n*pibar = {m[j]:.3f} at visit {j + 1} must exceed "
                f"q* + visit = {qs + j + 1}"
            )

    lp = factors.l[-1, :]
    lam = factors.lam
    v_tilde = (varpi / n) * (1.0 + q / (n * pibar - q - 3.0))

    # omega[j, t] = lam_j / ((m_j - q* - j) * lam_t), t < j (1-based visits)
    omega = np.zeros((p, p))
    for j in range(1, p):
        omega[j, :j] = lam[j] / ((m[j] - qs - (j + 1)) * lam[:j])

    # expected squared loading times innovation variance
    c = np.zeros(p)
    for j in range(p):
        later = sum(
            lp[k] ** 2 * lam[k] / (m[k] - qs - (k + 1)) for k in range(j + 1, p)
        )
        c[j] = (1.0 - j / (m[j] - qs)) * (lp[j] ** 2 * lam[j] + later)

    v_tau = float(np.dot(lp**2 * lam, v_tilde))
    for j in range(1, p):
        v_tau += lp[j] ** 2 * lam[j] / (m[j] - qs - (j + 1)) * float(
            np.sum(v_tilde[j] - v_tilde[:j])
        )

    v_tau_star = float(np.dot(c, v_tilde))
    for j in range(1, p):
        v_tau_star += 2.0 * c[j] * float(np.sum(v_tilde[j] - v_tilde[:j])) / (m[j] - qs)

    denom = float(np.sum(c**2 * v_tilde**2 / (m - qs)))
    for j in range(1, p):
        denom += 2.0 * c[j] * float(np.sum(c[:j] * v_tilde[:j] ** 2)) / (
            m[j] - qs - (j + 1)
        )
    f = float(np.dot(c, v_tilde)) ** 2 / denom

    # Fraction of observed information among subjects retained at visit 1:
    # the covariate-inflation factors cancel in the ratio, leaving the
    # retention weights.
    info = lp**2 * lam
    rho_o = float(info.sum() * varpi[0] / np.dot(info, varpi))
    f_o = (m[0] - qs) * rho_o

    contrib, total = _asymptotic_unit_variance(d, factors)
    b = contrib / total
    d_coef = 1.0 + q / (n * pibar - 2.0)
    e = np.array(
        [
            float(np.sum(d_coef[j] - varpi[: j + 1] * d_coef[: j + 1] / varpi[j]))
            for j in range(p)
        ]
    )
    return MmrmDerived(
        n=n,
        c_j=c,
        v_tilde_xj=v_tilde,
        varpi=varpi,
        v_tau=v_tau,
        v_tau_star=v_tau_star,
        f=f,
        f_o=f_o,
        rho_o=rho_o,
        b_j=b,
        d_j=d_coef,
        e_j=e,
        omega_jt=omega,
    )


def mmrm_power(
    d: MmrmDesign,
    n: float,
    alpha: float,
    settings: NumericSettings = DEFAULT_SETTINGS,
) -> PowerEstimate:
    """Power of the two-sided last-visit Wald test with the expected
    small-sample variance and Satterthwaite d.f.

    Evaluated at the expected retained counts n * pooled retention; it does
    not average over random dropout.
    """
    core._check_alpha_power(alpha)
    der = mmrm_derived(d, n)
    crit_sq = dist.t_quantile(1.0 - alpha / 2.0, der.f, settings) ** 2
    value = dist._f_sf(crit_sq, der.f, d.effect**2 / der.v_tau_star)
    return PowerEstimate(value=value, method="exact_two_sided", n_used=n)


def mmrm_power_approx(
    d: MmrmDesign,
    n: float,
    alpha: float,
    settings: NumericSettings = DEFAULT_SETTINGS,
) -> PowerEstimate:
    """Simplified power using the first-order variance and the observed-information
    fraction d.f.; only slightly less accurate than :func:`mmrm_power`."""
    core._check_alpha_power(alpha)
    der = mmrm_derived(d, n)
    crit_sq = dist.t_quantile(1.0 - alpha / 2.0, der.f_o, settings) ** 2
    value = dist._f_sf(crit_sq, der.f_o, d.effect**2 / der.v_tau)
    return PowerEstimate(value=value, method="approx", n_used=n)


def _equiv_power(d: MmrmDesign, margins, variance: float, df: float, alpha: float,
                 settings: NumericSettings) -> float:
    crit = dist.t_quantile(1.0 - alpha / 2.0, df, settings)
    se = math.sqrt(variance)
    up = dist.t_cdf(crit, df, (margins.upper - d.tau_p1) / se, settings)
    lo = dist.t_cdf(crit, df, (d.tau_p1 - margins.lower) / se, settings)
    return 1.0 - up - lo


def _check_margins(d: MmrmDesign, margins) -> None:
    if not (margins.lower < d.tau_p1 < margins.upper):
        raise DomainError(
            f"true effect {d.tau_p1} must lie strictly inside the margins "
            f"({margins.lower}, {margins.upper})"
        )


def mmrm_equiv_power(
    d: MmrmDesign,
    margins,
    n: float,
    alpha: float,
    settings: NumericSettings = DEFAULT_SETTINGS,
) -> PowerEstimate:
    """Equivalence power at the last visit: both one-sided tests must reject.

    Evaluated at the expected retained counts n * pooled retention; it does
    not average over random dropout.  May be negative in very small samples
    (flagged, not clamped), like every integration-free equivalence
    approximation.
    """
    core._check_alpha_power(alpha)
    _check_margins(d, margins)
    der = mmrm_derived(d, n)
    value = _equiv_power(d, margins, der.v_tau_star, der.f, alpha, settings)
    return PowerEstimate(
        value=value, method="approx", n_used=n, approximation_valid=value >= 0.0
    )


def mmrm_equiv_power_approx(
    d: MmrmDesign,
    margins,
    n: float,
    alpha: float,
    settings: NumericSettings = DEFAULT_SETTINGS,
) -> PowerEstimate:
    """Equivalence power with the first-order variance and the
    observed-information fraction d.f., the counterpart of
    :func:`mmrm_power_approx`.

    With every subject retained both reduce to the last-visit covariate
    adjusted t test (variance sigma_pp * E[v_x], n - q* d.f.), which the
    expected small-sample variance and d.f. of :func:`mmrm_equiv_power` do
    not.
    """
    core._check_alpha_power(alpha)
    _check_margins(d, margins)
    der = mmrm_derived(d, n)
    value = _equiv_power(d, margins, der.v_tau, der.f_o, alpha, settings)
    return PowerEstimate(
        value=value, method="approx", n_used=n, approximation_valid=value >= 0.0
    )


@dataclass(frozen=True)
class DropoutAverage:
    """A plug-in power averaged over the random retained counts.

    ``value`` is ``plug_in`` (the power at the expected counts) plus
    ``expansion`` (the second-order term 1/2 sum_ab H_ab Cov_ab) plus a
    quasi-Monte Carlo estimate of the rest, whose standard error is
    ``std_error``.
    """

    value: float
    plug_in: float
    expansion: float
    std_error: float


# central-difference step in the retention fractions; schedules must step
# down by more than twice this so that perturbed schedules stay monotone
_FD_STEP = 0.01
# target standard error of the averaged power, independent scramblings used
# to estimate it, the cap on points per scrambling, and the fixed seed that
# makes the average reproducible
_AVERAGE_TOL = 1e-4
_SCRAMBLES = 8
_MAX_POINTS = 2**13
_AVERAGE_SEED = 0


def dropout_averaged_power(power_at, d: MmrmDesign, n_per_group) -> DropoutAverage:
    """Expected value of the plug-in power ``power_at(design, n)`` over random
    monotone dropout in a trial with integer arms ``n_per_group``.

    Each subject of arm g is retained at visit j with probability pi_gj
    (nonincreasing in j), so the retained counts c_gj are nested binomials:
    c_gj ~ Bin(c_g,j-1, pi_gj / pi_g,j-1).  The power formulas evaluate the
    variance terms at the expected counts; this averages them over the
    counts instead, with allocation gamma0 = n_0 / n.

    Computed as the plug-in value, plus 1/2 sum_ab H_ab Cov_ab with H the
    Hessian in the retained fractions r_gj = c_gj / n_g (central differences)
    and Cov(r_gj, r_gk) = pi_g,max(j,k) (1 - pi_g,min(j,k)) / n_g within an
    arm (0 across arms), plus the mean remainder over the quadratic model at
    scrambled Sobol draws of the counts.  Points are doubled until the
    standard error across independent scramblings is below 1e-4 (0.01
    percentage points) or the cap is reached.  Count patterns at which the
    formula is undefined (too few retained subjects) are left out.
    """
    n_g = tuple(int(v) for v in n_per_group)
    n = sum(n_g)
    d = replace(d, gamma0=n_g[0] / n)
    base = np.asarray(d.retention, dtype=float)
    p = d.p
    free = [(g, j) for g in range(2) for j in range(p) if base[g, j] < 1.0]
    cache = {}

    def power(r: np.ndarray) -> float:
        key = r.tobytes()
        if key not in cache:
            cache[key] = power_at(replace(d, retention=tuple(map(tuple, r))), n)
        return cache[key]

    def shifted(*moves) -> float:
        r = base.copy()
        for a, sign in moves:
            r[free[a]] += sign * _FD_STEP
        return power(r)

    p0 = power(base)
    k = len(free)
    grad = np.zeros(k)
    hess = np.zeros((k, k))
    cov = np.zeros((k, k))
    for a, (g, j) in enumerate(free):
        up, down = shifted((a, 1)), shifted((a, -1))
        grad[a] = (up - down) / (2.0 * _FD_STEP)
        hess[a, a] = (up - 2.0 * p0 + down) / _FD_STEP**2
        for b, (h, i) in enumerate(free):
            if h != g:
                continue
            cov[a, b] = base[g, max(j, i)] * (1.0 - base[g, min(j, i)]) / n_g[g]
            if b > a:
                hess[a, b] = hess[b, a] = (
                    shifted((a, 1), (b, 1)) - shifted((a, 1), (b, -1))
                    - shifted((a, -1), (b, 1)) + shifted((a, -1), (b, -1))
                ) / (4.0 * _FD_STEP**2)
    expansion = 0.5 * float(np.sum(hess * cov))

    # conditional retention probabilities pi_gj / pi_g,j-1
    step_prob = base / np.concatenate([np.ones((2, 1)), base[:, :-1]], axis=1)
    samplers = [
        qmc.Sobol(d=2 * p, scramble=True, rng=rng)
        for rng in np.random.default_rng(_AVERAGE_SEED).spawn(_SCRAMBLES)
    ]
    sums = np.zeros(_SCRAMBLES)
    counts = np.zeros(_SCRAMBLES)
    batch, drawn = 16, 0
    while True:
        for s, sampler in enumerate(samplers):
            u = sampler.random(batch).reshape(batch, 2, p)
            retained = np.empty((batch, 2, p))
            for g in range(2):
                c = np.full(batch, float(n_g[g]))
                for j in range(p):
                    c = stats.binom.ppf(u[:, g, j], c, step_prob[g, j])
                    retained[:, g, j] = c / n_g[g]
            for r in retained:
                try:
                    value = power(r)
                except DomainError:
                    continue
                delta = np.array([r[f] - base[f] for f in free])
                sums[s] += value - (p0 + grad @ delta + 0.5 * delta @ hess @ delta)
                counts[s] += 1
        drawn += batch
        means = sums / counts
        std_error = float(np.std(means, ddof=1) / math.sqrt(_SCRAMBLES))
        if std_error <= _AVERAGE_TOL or drawn >= _MAX_POINTS:
            break
        batch = drawn
    return DropoutAverage(
        value=p0 + expansion + float(np.mean(means)),
        plug_in=p0,
        expansion=expansion,
        std_error=std_error,
    )


def mmrm_size_chain(
    d: MmrmDesign,
    alpha: float,
    power: float,
    margins=None,
    rounding: str = "up",
    settings: NumericSettings = DEFAULT_SETTINGS,
) -> dict[str, SizeEstimate]:
    """Sample-size chain for superiority (margins=None) or symmetric-margin
    equivalence.

    Keys: ``n_a`` (normal approximation, asymptotic variance), ``approx``
    (normal approximation with the small-sample variance), ``g1``, ``g2``,
    ``two_step``, ``inversion``.
    """
    core._check_alpha_power(alpha, power)
    factors = ldl_decompose(d.sigma)
    pibar = d.pooled_retention
    varpi = d.varpi
    contrib, unit_var = _asymptotic_unit_variance(d, factors)
    b = contrib / unit_var
    q, qs, p = d.q, d.q_star, d.p

    if margins is None:
        effect = d.effect
        if effect == 0.0:
            raise DomainError("tau_p1 must differ from tau_p0 for sample-size formulas")
        z_power_prob = power
        power_fn = lambda n: mmrm_power(d, n, alpha, settings).value
    else:
        du = margins.upper - d.tau_p1
        dl = d.tau_p1 - margins.lower
        if not (du > 0.0 and dl > 0.0):
            raise DomainError("true effect must lie strictly inside the margins")
        if abs(du - dl) > 1e-9 * (abs(du) + abs(dl)):
            raise DomainError(
                "the noniterative chain needs symmetric margins around the true effect"
            )
        effect = 0.5 * (margins.upper - margins.lower)
        z_power_prob = 0.5 * (1.0 + power)
        power_fn = lambda n: mmrm_equiv_power(d, margins, n, alpha, settings).value

    zsum = dist.normal_quantile(1.0 - alpha / 2.0) + dist.normal_quantile(z_power_prob)
    n_a = zsum**2 * unit_var / effect**2

    def corrected(base: float) -> float:
        dj = 1.0 + q / (base * pibar - 2.0)
        total = 0.0
        for j in range(p):
            ej = float(np.sum(dj[j] - varpi[: j + 1] * dj[: j + 1] / varpi[j]))
            total += b[j] * (dj[j] + ej / (base * pibar[j] - j))
        return base * total

    if not np.all(n_a * pibar > 2.0):
        raise DomainError(f"normal-approximation size {n_a:.3f} too small to correct")
    n_tilde = corrected(n_a)

    der = mmrm_derived(d, n_tilde, factors)
    rho = der.f / (n_tilde * pibar[0] - qs)
    g1 = core.g1_total(n_tilde, rho, alpha)
    g2 = core.g2_total(n_tilde, rho, alpha)

    f_l = (n_tilde - qs) * rho
    if not f_l > 0.0:
        raise DomainError(f"two-step d.f. non-positive at first-pass size {n_tilde:.3f}")
    tsum = dist.t_quantile(1.0 - alpha / 2.0, f_l, settings) + dist.t_quantile(
        z_power_prob, f_l, settings
    )
    n_u_a = tsum**2 * unit_var / effect**2
    if not np.all(n_u_a * pibar > 2.0):
        raise DomainError(f"two-step base size {n_u_a:.3f} too small to correct")
    n_ts = corrected(n_u_a)

    min_n = max((qs + j + 1.0) / pibar[j] for j in range(p))
    kernel = TestKernel(
        tau0=d.tau_p0,
        tau1=d.tau_p1,
        v=unit_var,
        rho_at=lambda n: rho,
        df_at=lambda n: n - qs,
        min_n=min_n,
        allocation=(d.gamma0, d.gamma1),
        label="mmrm",
    )
    inversion = core.size_invert(
        power_fn,
        power,
        bracket_hint=g2,
        min_n=min_n,
        allocation=kernel.allocation,
        alpha=alpha,
        rounding=rounding,
        settings=settings,
    )

    def est(frac: float, method: str) -> SizeEstimate:
        return core._as_estimate(kernel, frac, method, alpha, power, rounding)

    return {
        "n_a": est(n_a, "normal"),
        "approx": est(n_tilde, "normal"),
        "g1": est(g1, "g1"),
        "g2": est(g2, "g2"),
        "two_step": est(n_ts, "two_step"),
        "inversion": inversion,
    }
