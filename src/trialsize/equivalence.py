"""Equivalence and bioequivalence power and sample size.

Equivalence is declared when the whole 1-alpha confidence interval for the
effect lies inside the margin interval; the procedure is decision-equivalent
to two one-sided tests at level alpha/2.  Conditioning on the variance
estimate gives a single-integral exact power for the one-sample and pooled
two-sample kernels; the integration-free approximation drops the positivity
region of the integrand and hence underestimates (it can go negative in tiny
samples, which is flagged rather than clamped).

For the unequal-variance design the same argument conditions additionally on
the group variance ratio, giving an exact double integral, and likewise for
covariate-adjusted analyses via the imbalance mixture.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass

import numpy as np
from scipy import special, stats

from . import core, dist
from .ancova import AncovaSpec
from .core import PowerEstimate, SizeEstimate, TestKernel
from .designs import (
    CrossoverSpec,
    TwoSampleSpec,
    _welch_given_ratio,
    crossover_kernel,
    two_sample_equal_kernel,
    two_sample_unequal_kernel,
)
from .dist import DEFAULT_SETTINGS, NumericSettings
from .errors import DomainError

__all__ = [
    "Margins",
    "BeLimits",
    "BE_LIMITS",
    "equiv_power_exact",
    "equiv_power_approx",
    "equiv_size_symmetric",
    "equiv_size_bounds",
    "EquivSizeBounds",
    "ancova_equiv_power",
    "ts_unequal_equiv_power",
    "be_adapter",
]


@dataclass(frozen=True)
class Margins:
    """Margin interval with the objective it encodes.

    equivalence      both bounds finite, lower < 0 < upper
    noninferiority   exactly one finite bound (the margin M0)
    superiority      both bounds infinite; the test is against tau0
    """

    lower: float
    upper: float
    kind: str = "equivalence"

    def __post_init__(self):
        if not self.lower < self.upper:
            raise DomainError(f"margins must satisfy lower < upper, got ({self.lower}, {self.upper})")
        if self.kind not in ("equivalence", "noninferiority", "superiority"):
            raise DomainError(f"unknown margin kind {self.kind!r}")
        if self.kind == "equivalence":
            if not (math.isfinite(self.lower) and math.isfinite(self.upper)):
                raise DomainError("equivalence margins must both be finite")
            if not (self.lower < 0.0 < self.upper):
                raise DomainError("equivalence margins must straddle zero")
        if self.kind == "noninferiority":
            if math.isfinite(self.lower) == math.isfinite(self.upper):
                raise DomainError("noninferiority needs exactly one finite margin")

    @classmethod
    def equivalence(cls, lower: float, upper: float) -> "Margins":
        return cls(lower=lower, upper=upper, kind="equivalence")

    @classmethod
    def noninferiority(cls, m0: float, tau1: float) -> "Margins":
        """One finite bound on the far side of the alternative ``tau1``."""
        if m0 == tau1:
            raise DomainError("noninferiority margin must differ from tau1")
        if m0 > tau1:
            return cls(lower=-math.inf, upper=m0, kind="noninferiority")
        return cls(lower=m0, upper=math.inf, kind="noninferiority")

    @classmethod
    def superiority(cls) -> "Margins":
        return cls(lower=-math.inf, upper=math.inf, kind="superiority")

    def margin(self) -> float:
        """The single finite bound of a noninferiority margin pair."""
        if self.kind != "noninferiority":
            raise DomainError("margin() is defined for noninferiority margins only")
        return self.upper if math.isfinite(self.upper) else self.lower


@dataclass(frozen=True)
class BeLimits:
    """Bioequivalence acceptance limits on the ratio scale and their log margin."""

    ratio_lower: float = 0.80
    ratio_upper: float = 1.25
    log_margin: float = 0.2231  # round(ln(1.25), 4)


BE_LIMITS = BeLimits()
BE_ALPHA = 0.1


def _check_containment(m: Margins, tau1: float) -> None:
    if not (m.lower < tau1 < m.upper):
        raise DomainError(
            f"true effect {tau1} must lie strictly inside the margins "
            f"({m.lower}, {m.upper})"
        )


def _upper_tail(x, f: float, lam):
    """Pr[t(f, lam) > x], elementwise in ``x`` and ``lam``.

    A one-sided margin puts ``lam`` at +-inf, where ``nct.sf`` is NaN; the
    tail is then exactly 1 (lam = +inf) or 0 (lam = -inf).
    """
    lam = np.asarray(lam, dtype=float)
    return np.where(np.isinf(lam), lam > 0.0, stats.nct.sf(x, f, lam))


# Inner panel edges of _phillips_integral as probabilities of chi2_f / f
# (settings.tail_mass and its mirror close them), and the rule on each panel.
_PANEL_PROBS = (
    1e-9, 1e-6, 1e-4, 1e-2, 0.1, 0.3, 0.5, 0.7, 0.9, 0.99, 1 - 1e-4, 1 - 1e-6, 1 - 1e-9,
)
_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(16)


def _phillips_integral(a_up, b_low, scale, f: float, settings: NumericSettings):
    """Core equivalence integral conditioned on the variance-scale chi-square.

    Integrates Phi(a_up - scale*sqrt(xi)) - Phi(b_low + scale*sqrt(xi)) over
    xi ~ chi2_f/f, restricted to the region where the integrand is positive
    (xi below ((a_up - b_low)/(2*scale))^2).  Broadcasts over ``a_up``,
    ``b_low`` and ``scale``: an array gives one integral per entry.

    The rule is fixed: 16 Gauss-Legendre nodes in log xi on each panel
    between the quantiles of chi2_f/f at ``_PANEL_PROBS``, bounded by
    ``settings.tail_mass`` and its mirror, with the edges clipped per entry
    at the positivity cutoff.
    """
    a_up, b_low, scale = (x[..., None] for x in np.broadcast_arrays(a_up, b_low, scale))
    edges = dist._chi2_over_f_quantile(
        np.array((settings.tail_mass, *_PANEL_PROBS, 1.0 - settings.tail_mass)), f
    )
    cutoff = ((a_up - b_low) / (2.0 * scale)) ** 2
    log_edges = np.log(np.maximum(edges[0], np.minimum(edges, cutoff)))
    half = 0.5 * np.diff(log_edges)[..., None]
    v = 0.5 * (log_edges[..., 1:] + log_edges[..., :-1])[..., None] + half * _GL_NODES
    root = scale[..., None] * np.exp(0.5 * v)
    weight = np.exp(dist._log_scaled_chi2_density(np.exp(v), f) + v)
    inner = special.ndtr(a_up[..., None] - root) - special.ndtr(b_low[..., None] + root)
    val = np.clip((half * inner * weight * _GL_WEIGHTS).sum(axis=(-2, -1)), 0.0, 1.0)
    return float(val) if val.ndim == 0 else val


def equiv_power_exact(
    k: TestKernel,
    m: Margins,
    n: float,
    alpha: float,
    settings: NumericSettings = DEFAULT_SETTINGS,
) -> PowerEstimate:
    """Equivalence power by conditioning on the variance estimate.

    Exact for the one-sample and equal-variance two-sample kernels; requires
    the true effect strictly inside the margin interval.
    """
    core._check_alpha_power(alpha)
    _check_containment(m, k.tau1)
    if not n > k.min_n:
        raise DomainError(f"n must exceed the kernel minimum {k.min_n}, got {n}")
    f = k.df_at(n)
    crit = dist.t_quantile(1.0 - alpha / 2.0, f, settings)
    se = math.sqrt(k.v / n)
    value = _phillips_integral(
        (m.upper - k.tau1) / se, (m.lower - k.tau1) / se, crit, f, settings
    )
    return PowerEstimate(value=value, method="integral_exact", n_used=n)


def equiv_power_approx(
    k: TestKernel,
    m: Margins,
    n: float,
    alpha: float,
    settings: NumericSettings = DEFAULT_SETTINGS,
) -> PowerEstimate:
    """Integration-free equivalence power; underestimates, and may be negative
    for very small n (returned as-is with approximation_valid=False)."""
    core._check_alpha_power(alpha)
    _check_containment(m, k.tau1)
    if not n > k.min_n:
        raise DomainError(f"n must exceed the kernel minimum {k.min_n}, got {n}")
    f = k.df_at(n)
    crit = dist.t_quantile(1.0 - alpha / 2.0, f, settings)
    se = math.sqrt(k.v / n)
    up = dist.t_cdf(crit, f, (m.upper - k.tau1) / se, settings)
    low = dist.t_cdf(crit, f, (k.tau1 - m.lower) / se, settings)
    value = 1.0 - up - low
    return PowerEstimate(
        value=value, method="approx", n_used=n, approximation_valid=value >= 0.0
    )


def _symmetric_kernel(k: TestKernel, m: Margins) -> TestKernel:
    half_width = 0.5 * (m.upper - m.lower)
    return dataclasses.replace(k, tau0=0.0, tau1=half_width, one_tailed=False)


def equiv_size_symmetric(
    k: TestKernel,
    m: Margins,
    alpha: float,
    power: float,
    method: str = "g2",
    rounding: str = "up",
    settings: NumericSettings = DEFAULT_SETTINGS,
) -> SizeEstimate:
    """Noniterative equivalence size for symmetric margins around the effect.

    Substitutes the half margin width for the effect and (1+P)/2 for the
    power target, then reuses the superiority formulas.  Raises for
    asymmetric margins; use :func:`equiv_size_bounds` there.
    """
    core._check_alpha_power(alpha, power)
    du = m.upper - k.tau1
    dl = k.tau1 - m.lower
    if not (du > 0.0 and dl > 0.0):
        raise DomainError("true effect must lie strictly inside the margins")
    if abs(du - dl) > 1e-9 * (abs(du) + abs(dl)):
        raise DomainError(
            "margins are not symmetric around the true effect; "
            "use equiv_size_bounds for asymmetric margins"
        )
    ke = _symmetric_kernel(k, m)
    target = 0.5 * (1.0 + power)
    dispatch = {
        "normal": core.size_normal,
        "g1": core.size_g1,
        "g2": core.size_g2,
        "two_step": core.size_two_step,
    }
    if method not in dispatch:
        raise DomainError(f"unknown size method {method!r}")
    est = dispatch[method](ke, alpha, target, rounding)
    return SizeEstimate(
        fractional=est.fractional,
        rounded_total=est.rounded_total,
        per_group=est.per_group,
        method=est.method,
        target_power=power,
        alpha=alpha,
    )


@dataclass(frozen=True)
class EquivSizeBounds:
    g1_lower: SizeEstimate
    g1_upper: SizeEstimate
    g2_lower: SizeEstimate
    g2_upper: SizeEstimate


def equiv_size_bounds(
    k: TestKernel,
    m: Margins,
    alpha: float,
    power: float,
    rounding: str = "up",
    settings: NumericSettings = DEFAULT_SETTINGS,
) -> EquivSizeBounds:
    """Sample-size bounds for possibly asymmetric margins.

    The lower bound replaces the effect by the larger margin distance, the
    upper bound by the smaller; the bounds coincide for symmetric margins.
    """
    core._check_alpha_power(alpha, power)
    du = m.upper - k.tau1
    dl = k.tau1 - m.lower
    if not (du > 0.0 and dl > 0.0):
        raise DomainError("true effect must lie strictly inside the margins")
    delta_max = max(du, dl)
    delta_min = min(du, dl)
    zsum = dist.normal_quantile(1.0 - alpha / 2.0) + dist.normal_quantile(
        0.5 * (1.0 + power)
    )

    def side(delta: float) -> tuple[SizeEstimate, SizeEstimate]:
        ntilde = zsum**2 * k.v / delta**2
        rho = k.rho_at(ntilde)
        g1 = core.g1_total(ntilde, rho, alpha)
        g2 = core.g2_total(ntilde, rho, alpha)
        return (
            core._as_estimate(k, g1, "g1", alpha, power, rounding),
            core._as_estimate(k, g2, "g2", alpha, power, rounding),
        )

    g1_lo, g2_lo = side(delta_max)
    g1_hi, g2_hi = side(delta_min)
    return EquivSizeBounds(g1_lower=g1_lo, g1_upper=g1_hi, g2_lower=g2_lo, g2_upper=g2_hi)


def ancova_equiv_power(
    s: AncovaSpec,
    m: Margins,
    n: float,
    alpha: float,
    exact: bool = True,
    settings: NumericSettings = DEFAULT_SETTINGS,
) -> PowerEstimate:
    """Equivalence power under covariate adjustment.

    Exact form: double integral over the covariate-imbalance mixture and the
    variance-scale chi-square (exact for normal covariates).  Approximate
    form: single integral over the imbalance mixture; underestimates like
    every integration-free equivalence formula.
    """
    core._check_alpha_power(alpha)
    _check_containment(m, s.tau1)
    if not n > s.q + 3:
        raise DomainError(f"ANCOVA power needs n > q + 3 = {s.q + 3}, got n = {n}")
    f = n - s.q_star
    crit = dist.t_quantile(1.0 - alpha / 2.0, f, settings)

    if s.q == 0:
        vx0 = 1.0 / (n * s.gamma0 * s.gamma1)
        if exact:
            se = math.sqrt(s.sigma_sq * vx0)
            value = _phillips_integral(
                (m.upper - s.tau1) / se, (m.lower - s.tau1) / se, crit, f, settings
            )
            return PowerEstimate(value=value, method="integral_exact", n_used=n)
        se = math.sqrt(s.sigma_sq * vx0)
        up = dist.t_cdf(crit, f, (m.upper - s.tau1) / se, settings)
        low = dist.t_cdf(crit, f, (s.tau1 - m.lower) / se, settings)
        value = 1.0 - up - low
        return PowerEstimate(
            value=value, method="approx", n_used=n, approximation_valid=value >= 0.0
        )

    from .ancova import ImbalanceMixture

    mixture = ImbalanceMixture(q=s.q, f2=n - s.q - 1.0)
    lo, hi = mixture.support(settings.outer_tail_mass)

    def vx_of(ups: np.ndarray) -> np.ndarray:
        return mixture.variance_factor(ups, s.gamma0, n)

    if exact:

        def fn(w: np.ndarray) -> np.ndarray:
            ups = np.exp(w)
            dens = np.exp(mixture.log_density(ups) + w)
            se = np.sqrt(s.sigma_sq * vx_of(ups))
            inner = _phillips_integral(
                (m.upper - s.tau1) / se, (m.lower - s.tau1) / se, crit, f, settings
            )
            return inner * dens

        value = dist.integrate(fn, math.log(lo), math.log(hi), settings.double_tol, settings)
        return PowerEstimate(
            value=min(1.0, max(0.0, value)), method="integral_exact", n_used=n
        )

    def fn(w: np.ndarray) -> np.ndarray:
        ups = np.exp(w)
        dens = np.exp(mixture.log_density(ups) + w)
        se = np.sqrt(s.sigma_sq * vx_of(ups))
        # Pr[t(f, lam) <= crit] = Pr[t(f, -lam) > -crit]
        up = _upper_tail(-crit, f, (s.tau1 - m.upper) / se)
        low = _upper_tail(-crit, f, (m.lower - s.tau1) / se)
        return (1.0 - up - low) * dens

    value = dist.integrate(fn, math.log(lo), math.log(hi), settings.power_tol, settings)
    return PowerEstimate(
        value=value, method="approx", n_used=n, approximation_valid=value >= 0.0
    )


def ts_unequal_equiv_power(
    s: TwoSampleSpec,
    m: Margins,
    n: float,
    alpha: float,
    exact: bool = True,
    settings: NumericSettings = DEFAULT_SETTINGS,
) -> PowerEstimate:
    """Equivalence power for the unequal-variance two-sample design.

    Conditions on the group variance ratio (an F statistic independent of the
    pooled chi-square scale).  The exact form integrates both; the
    approximate form integrates the ratio only.  One-sided margin pairs
    reduce it to the exact unequal-variance superiority/noninferiority power.
    """
    core._check_alpha_power(alpha)
    tau1 = s.mu1 - s.mu0
    _check_containment(m, tau1)
    n0 = s.gamma0 * n
    n1 = s.gamma1 * n
    if min(n0, n1) <= 1.0:
        raise DomainError("need more than one subject per group")
    base = s.sigma1_sq / n1 + s.sigma0_sq / n0
    sqrt_base = math.sqrt(base)
    a_up = (m.upper - tau1) / sqrt_base
    b_low = (m.lower - tau1) / sqrt_base
    fxi = n - 2.0
    lo = dist._f_quantile(settings.outer_tail_mass, n1 - 1.0, n0 - 1.0)
    hi = dist._f_quantile(1.0 - settings.outer_tail_mass, n1 - 1.0, n0 - 1.0)

    def h_of(u: np.ndarray) -> np.ndarray:
        v_u, f_u = _welch_given_ratio(u, s.sigma0_sq, s.sigma1_sq, n0, n1)
        crit = special.stdtrit(f_u, 1.0 - alpha / 2.0)
        return crit * np.sqrt(v_u / base)

    if exact:

        def fn(w: np.ndarray) -> np.ndarray:
            u = np.exp(w)
            dens = np.exp(dist._log_f_density(u, n1 - 1.0, n0 - 1.0) + w)
            return _phillips_integral(a_up, b_low, h_of(u), fxi, settings) * dens

        value = dist.integrate(fn, math.log(lo), math.log(hi), settings.double_tol, settings)
        return PowerEstimate(
            value=min(1.0, max(0.0, value)), method="integral_exact", n_used=n
        )

    b_up = (tau1 - m.lower) / sqrt_base

    def fn(w: np.ndarray) -> np.ndarray:
        u = np.exp(w)
        dens = np.exp(dist._log_f_density(u, n1 - 1.0, n0 - 1.0) + w)
        h = h_of(u)
        # 1 - Pr[t < h; ncp A] - Pr[t < h; ncp B] written with upper tails
        tail_a = _upper_tail(h, fxi, a_up)
        tail_b = _upper_tail(h, fxi, b_up)
        return (tail_a + tail_b - 1.0) * dens

    value = dist.integrate(fn, math.log(lo), math.log(hi), settings.power_tol, settings)
    return PowerEstimate(
        value=value, method="approx", n_used=n, approximation_valid=value >= 0.0
    )


def be_adapter(
    spec: CrossoverSpec | TwoSampleSpec,
    limits: BeLimits = BE_LIMITS,
) -> tuple[TestKernel, Margins, float]:
    """Bioequivalence setup: log-scale kernel, +/- log-margin interval, alpha=0.1.

    The decision is CI containment within the limits, equivalently two
    one-sided tests with actual type I error alpha/2.
    """
    if isinstance(spec, CrossoverSpec):
        kernel = crossover_kernel(spec)
    elif isinstance(spec, TwoSampleSpec):
        if spec.equal_variance:
            kernel = two_sample_equal_kernel(spec, 0.0)
        else:
            kernel = two_sample_unequal_kernel(spec, 0.0)
    else:
        raise DomainError(f"unsupported design for bioequivalence: {type(spec).__name__}")
    half = math.log(limits.ratio_upper)
    margins = Margins.equivalence(-half, half)
    return kernel, margins, BE_ALPHA
