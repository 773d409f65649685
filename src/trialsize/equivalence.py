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

import math
from dataclasses import dataclass

import numpy as np
from scipy import special, stats

from . import core, dist
from .ancova import AncovaSpec, ImbalanceMixture, ancova_kernel
from .core import PowerEstimate, SizeEstimate, SizeModel, TestKernel
from .designs import TwoSampleSpec, _welch_given_ratio
from .dist import DEFAULT_SETTINGS, NumericSettings
from .errors import DomainError

__all__ = [
    "Margins",
    "BeLimits",
    "BE_LIMITS",
    "equiv_power_exact",
    "equiv_power_approx",
    "symmetric_half_width",
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


def _phillips_integral(a_up, b_low, scale, f: float, settings: NumericSettings):
    """Core equivalence integral conditioned on the variance-scale chi-square.

    Integrates Phi(a_up - scale*sqrt(xi)) - Phi(b_low + scale*sqrt(xi)) over
    xi ~ chi2_f/f, restricted to the region where the integrand is positive
    (xi below ((a_up - b_low)/(2*scale))^2).  Broadcasts over ``a_up``,
    ``b_low`` and ``scale``: an array gives one integral per entry.

    The rule is the one :func:`dist.integrate` uses, on panels between the
    quantiles of chi2_f/f, with the edges clipped per entry at the
    positivity cutoff.
    """
    a_up, b_low, scale = (x[..., None] for x in np.broadcast_arrays(a_up, b_low, scale))
    edges = dist._chi2_over_f_quantile(dist._panel_probs(settings), f)
    cutoff = ((a_up - b_low) / (2.0 * scale)) ** 2
    v, weights = dist._panel_rule(np.log(np.maximum(edges[0], np.minimum(edges, cutoff))))
    root = scale * np.exp(0.5 * v)
    weights = weights * np.exp(dist._log_scaled_chi2_density(np.exp(v), f) + v)
    inner = special.ndtr(a_up - root) - special.ndtr(b_low + root)
    val = np.clip((inner * weights).sum(axis=-1), 0.0, 1.0)
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


def symmetric_half_width(m: Margins, tau1: float) -> float:
    """The half-width of margins symmetric around the true effect ``tau1``,
    the effect the size chain is given for equivalence.  Raises for an
    effect outside the margins or off their centre; use
    :func:`equiv_size_bounds` for asymmetric margins."""
    _check_containment(m, tau1)
    du, dl = m.upper - tau1, tau1 - m.lower
    if abs(du - dl) > 1e-9 * (abs(du) + abs(dl)):
        raise DomainError(
            "margins are not symmetric around the true effect; "
            "use equiv_size_bounds for asymmetric margins"
        )
    return 0.5 * (m.upper - m.lower)


@dataclass(frozen=True)
class EquivSizeBounds:
    g1_lower: SizeEstimate
    g1_upper: SizeEstimate
    g2_lower: SizeEstimate
    g2_upper: SizeEstimate


def equiv_size_bounds(
    model: SizeModel,
    m: Margins,
    alpha: float,
    power: float,
    rounding: str = "up",
    settings: NumericSettings = DEFAULT_SETTINGS,
    tau1: float | None = None,
) -> EquivSizeBounds:
    """Sample-size bounds for possibly asymmetric margins around the true
    effect ``tau1`` (by default ``model.tau1``, for a test kernel).

    The lower bound replaces the effect by the larger margin distance, the
    upper bound by the smaller; each side is the g1 and g2 rows of the size
    chain of ``model`` at the equivalence target (1 + power)/2, without the
    two-step row and its checks.  Given a design's own size model (its
    family's ``sizing``, which carries ANCOVA's covariate correction), the
    bounds for margins symmetric around ``tau1`` coincide with each other
    and with the g1 and g2 rows of the design's equivalence size chain.
    """
    tau1 = model.tau1 if tau1 is None else tau1
    _check_containment(m, tau1)
    du, dl = m.upper - tau1, tau1 - m.lower

    def side(delta: float) -> tuple[SizeEstimate, SizeEstimate]:
        rows = dict(
            core.size_chain(
                model, delta, alpha, power, target=0.5 * (1.0 + power), rounding=rounding,
                settings=settings, two_step=False,
            )
        )
        return rows["g1"], rows["g2"]

    g1_lo, g2_lo = side(max(du, dl))
    g1_hi, g2_hi = side(min(du, dl))
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
    every integration-free equivalence formula.  Without covariates both are
    the ANCOVA kernel's equivalence powers.
    """
    if s.q == 0:
        power = equiv_power_exact if exact else equiv_power_approx
        return power(ancova_kernel(s), m, n, alpha, settings)
    core._check_alpha_power(alpha)
    _check_containment(m, s.tau1)
    if not n > s.q + 3:
        raise DomainError(f"ANCOVA power needs n > q + 3 = {s.q + 3}, got n = {n}")
    f = n - s.q_star
    crit = dist.t_quantile(1.0 - alpha / 2.0, f, settings)
    mixture = ImbalanceMixture(q=s.q, f2=n - s.q - 1.0)

    def se_of(ups: np.ndarray) -> np.ndarray:
        return np.sqrt(s.sigma_sq * mixture.variance_factor(ups, s.gamma0, n))

    if exact:

        def fn(ups: np.ndarray) -> np.ndarray:
            se = se_of(ups)
            return _phillips_integral(
                (m.upper - s.tau1) / se, (m.lower - s.tau1) / se, crit, f, settings
            )

        value = dist.integrate(fn, s.q, mixture.f2, settings)
        return PowerEstimate(
            value=min(1.0, max(0.0, value)), method="integral_exact", n_used=n
        )

    def fn(ups: np.ndarray) -> np.ndarray:
        se = se_of(ups)
        # Pr[t(f, lam) <= crit] = Pr[t(f, -lam) > -crit]
        up = _upper_tail(-crit, f, (s.tau1 - m.upper) / se)
        low = _upper_tail(-crit, f, (m.lower - s.tau1) / se)
        return 1.0 - up - low

    value = dist.integrate(fn, s.q, mixture.f2, settings)
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

    def h_of(u: np.ndarray) -> np.ndarray:
        v_u, f_u = _welch_given_ratio(u, s.sigma0_sq, s.sigma1_sq, n0, n1)
        crit = special.stdtrit(f_u, 1.0 - alpha / 2.0)
        return crit * np.sqrt(v_u / base)

    if exact:

        def fn(u: np.ndarray) -> np.ndarray:
            return _phillips_integral(a_up, b_low, h_of(u), fxi, settings)

        value = dist.integrate(fn, n1 - 1.0, n0 - 1.0, settings)
        return PowerEstimate(
            value=min(1.0, max(0.0, value)), method="integral_exact", n_used=n
        )

    b_up = (tau1 - m.lower) / sqrt_base

    def fn(u: np.ndarray) -> np.ndarray:
        h = h_of(u)
        # 1 - Pr[t < h; ncp A] - Pr[t < h; ncp B] written with upper tails
        return _upper_tail(h, fxi, a_up) + _upper_tail(h, fxi, b_up) - 1.0

    value = dist.integrate(fn, n1 - 1.0, n0 - 1.0, settings)
    return PowerEstimate(
        value=value, method="approx", n_used=n, approximation_valid=value >= 0.0
    )


def be_adapter(spec, limits: BeLimits = BE_LIMITS) -> tuple[TestKernel, Margins, float]:
    """Bioequivalence setup: log-scale kernel, +/- log-margin interval, alpha=0.1.

    The decision is CI containment within the limits, equivalently two
    one-sided tests with actual type I error alpha/2.  Any design family
    that lowers to a test kernel (all but repeated measures) has one.
    """
    from .families import family_of  # families is built on this module

    kernel = family_of(spec).kernel
    if kernel is None:
        raise DomainError(f"unsupported design for bioequivalence: {type(spec).__name__}")
    half = math.log(limits.ratio_upper)
    return kernel(spec, 0.0), Margins.equivalence(-half, half), BE_ALPHA
