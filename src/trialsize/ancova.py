"""Covariate-adjusted two-arm comparison (ANCOVA): power and sample size.

At the design stage the covariates are unknown; the exact power integrates
the conditional noncentral-F power against the F law of the standardized
between-group covariate imbalance.  The size chain
(:func:`trialsize.core.size_chain`) corrects the asymptotic
normal-approximation size for the covariate count.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import core, dist
from .core import PowerEstimate, SizeModel, TestKernel
from .dist import DEFAULT_SETTINGS, NumericSettings
from .errors import DomainError

__all__ = [
    "AncovaSpec",
    "ImbalanceMixture",
    "ancova_power_exact",
    "ancova_power_approx",
    "ancova_power_asymptotic_t",
    "ancova_sizing",
    "ancova_kernel",
]


@dataclass(frozen=True)
class AncovaSpec:
    """Two-arm trial analyzed with a linear model in treatment plus q covariates.

    ``sigma_sq`` is the residual variance after covariate adjustment; ``q``
    excludes the intercept and the treatment indicator (q_star = q + 2 model
    parameters in total).
    """

    tau1: float
    tau0: float
    sigma_sq: float
    gamma0: float = 0.5
    q: int = 0

    def __post_init__(self):
        if self.sigma_sq <= 0.0:
            raise DomainError("sigma_sq must be positive")
        if not (0.0 < self.gamma0 < 1.0):
            raise DomainError(f"allocation fraction must lie in (0, 1), got {self.gamma0}")
        if self.q < 0 or self.q != int(self.q):
            raise DomainError(f"covariate count q must be a nonnegative integer, got {self.q}")

    @property
    def gamma1(self) -> float:
        return 1.0 - self.gamma0

    @property
    def q_star(self) -> int:
        return self.q + 2

    @property
    def effect(self) -> float:
        return self.tau1 - self.tau0


@dataclass(frozen=True)
class ImbalanceMixture:
    """F law of the standardized between-group covariate imbalance.

    At the design stage the q-covariate imbalance statistic follows an
    F(q, n - q - 1) distribution (exactly so for normal covariates); the
    exact power integrates the conditional power against it.
    """

    q: int
    f2: float  # n - q - 1

    def __post_init__(self):
        if self.q < 1:
            raise DomainError("the imbalance mixture needs at least one covariate")
        if not self.f2 > 0.0:
            raise DomainError(f"need n > q + 1, got second d.f. {self.f2}")

    def variance_factor(self, u: np.ndarray, gamma0: float, n: float) -> np.ndarray:
        """Conditional variance multiplier of the adjusted treatment effect."""
        return (1.0 + self.q * u / self.f2) / (n * gamma0 * (1.0 - gamma0))


def ancova_kernel(s: AncovaSpec) -> TestKernel:
    """Asymptotic-variance kernel: v = sigma^2/(gamma0*gamma1), f = n - q*, rho = 1."""
    v = s.sigma_sq / (s.gamma0 * s.gamma1)
    qs = s.q_star
    return TestKernel(
        tau0=s.tau0,
        tau1=s.tau1,
        v=v,
        rho_at=lambda n: 1.0,
        df_at=lambda n: n - qs,
        min_n=float(s.q + 3),
        allocation=(s.gamma0, s.gamma1),
    )


def _check_n(s: AncovaSpec, n: float) -> None:
    if not n > s.q + 3:
        raise DomainError(f"ANCOVA power needs n > q + 3 = {s.q + 3}, got n = {n}")


def ancova_power_exact(
    s: AncovaSpec,
    n: float,
    alpha: float,
    settings: NumericSettings = DEFAULT_SETTINGS,
) -> PowerEstimate:
    """Exact two-sided power, integrating over the covariate-imbalance law.

    Exact when the covariates are normally distributed; in randomized trials
    it remains very accurate for nonnormal covariates.  With q = 0 this is the
    plain two-sample equal-variance power with f = n - 2.
    """
    core._check_alpha_power(alpha)
    _check_n(s, n)
    f = n - s.q_star
    crit_sq = dist.t_quantile(1.0 - alpha / 2.0, f, settings) ** 2
    base_ncp = n * s.gamma0 * s.gamma1 * s.effect**2 / s.sigma_sq
    if s.q == 0:
        value = dist._f_sf(crit_sq, f, base_ncp)
        return PowerEstimate(value=value, method="integral_exact", n_used=n)

    mixture = ImbalanceMixture(q=s.q, f2=n - s.q - 1.0)

    def fn(ups: np.ndarray) -> np.ndarray:
        return dist._f_sf(crit_sq, f, base_ncp / (1.0 + s.q * ups / mixture.f2))

    value = dist.integrate(fn, s.q, mixture.f2, settings)
    return PowerEstimate(value=min(1.0, max(0.0, value)), method="integral_exact", n_used=n)


def ancova_power_approx(
    s: AncovaSpec,
    n: float,
    alpha: float,
    settings: NumericSettings = DEFAULT_SETTINGS,
) -> PowerEstimate:
    """Integration-free power: the imbalance term replaced by its expectation,
    inflating the variance by 1 + q/(n - q - 3)."""
    core._check_alpha_power(alpha)
    _check_n(s, n)
    f = n - s.q_star
    crit_sq = dist.t_quantile(1.0 - alpha / 2.0, f, settings) ** 2
    ncp = n * s.gamma0 * s.gamma1 * s.effect**2 / (
        s.sigma_sq * (1.0 + s.q / (n - s.q - 3.0))
    )
    value = dist._f_sf(crit_sq, f, ncp)
    return PowerEstimate(value=value, method="approx", n_used=n)


def ancova_power_asymptotic_t(
    s: AncovaSpec,
    n: float,
    alpha: float,
    settings: NumericSettings = DEFAULT_SETTINGS,
) -> PowerEstimate:
    """t-distribution power with the asymptotic variance (no covariate inflation)."""
    core._check_alpha_power(alpha)
    if not n > s.q_star:
        raise DomainError(f"need n > q* = {s.q_star}, got n = {n}")
    f = n - s.q_star
    crit_sq = dist.t_quantile(1.0 - alpha / 2.0, f, settings) ** 2
    ncp = n * s.gamma0 * s.gamma1 * s.effect**2 / s.sigma_sq
    value = dist._f_sf(crit_sq, f, ncp)
    return PowerEstimate(value=value, method="approx", n_used=n)


def ancova_sizing(s: AncovaSpec) -> SizeModel:
    """The size chain's model: the kernel's v, rho = 1 and f = n - q*, with the
    normal-approximation size corrected for the covariates, n(1 + q/(n - 2)).
    Its extra row ``normal_quadratic`` is the explicit root of the
    self-consistent corrected size n = n_b (1 + q/(n - q - 3))."""
    q = s.q

    def correct(n: float) -> float:
        if n <= 2.0:
            raise DomainError(f"size {n:.3f} too small for the covariate correction")
        return n * (1.0 + q / (n - 2.0))

    def quadratic(n_b: float) -> tuple[tuple[str, float], ...]:
        # (n_b + q + 3)^2 - 12 n_b, written as a sum of squares so that it
        # cannot round below zero
        disc = (n_b + q - 3.0) ** 2 + 12.0 * q
        return (("normal_quadratic", 0.5 * ((n_b + q + 3.0) + math.sqrt(disc))),)

    k = ancova_kernel(s)
    return SizeModel(k.v, k.rho_at, k.df_at, k.min_n, k.allocation, correct, quadratic)
