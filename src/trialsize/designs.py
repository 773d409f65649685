"""Lowering of the classical designs to test kernels.

Covers the one-sample t test, the two-sample t tests with equal and unequal
variances (Welch/Satterthwaite), and the 2x2 crossover with or without a
period effect in the analysis; all but Welch's are
:func:`trialsize.core.fixed_df_kernel`.  Also provides the exact unequal-variance
powers (:func:`welch_power`): given the observed variance ratio the Welch
statistic is a noncentral t with n - 2 d.f. against a ratio-dependent
critical value (Moser, Stevens & Watts 1989), and the ratio is integrated
out against its F law.  :func:`satterthwaite_df` is the one Welch d.f. rule.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import core, dist
from .core import PowerEstimate, TestKernel, fixed_df_kernel
from .errors import DomainError

__all__ = [
    "OneSampleSpec",
    "TwoSampleSpec",
    "CrossoverSpec",
    "one_sample_kernel",
    "two_sample_equal_kernel",
    "two_sample_unequal_kernel",
    "crossover_kernel",
    "moser_exact_power",
    "welch_power",
    "satterthwaite_df",
]


@dataclass(frozen=True)
class OneSampleSpec:
    """Single-group design: test the mean against a fixed null value."""

    mu: float
    tau0: float
    sigma_sq: float

    def __post_init__(self):
        if self.sigma_sq <= 0.0:
            raise DomainError("sigma_sq must be positive")


@dataclass(frozen=True)
class TwoSampleSpec:
    """Two-group parallel design on the mean difference."""

    mu0: float
    mu1: float
    sigma0_sq: float
    sigma1_sq: float
    gamma0: float = 0.5
    equal_variance: bool = False

    def __post_init__(self):
        if self.sigma0_sq <= 0.0 or self.sigma1_sq <= 0.0:
            raise DomainError("group variances must be positive")
        core.check_allocation(self.gamma0)

    @property
    def gamma1(self) -> float:
        return 1.0 - self.gamma0


@dataclass(frozen=True)
class CrossoverSpec:
    """2x2 crossover on log scale; sigma_d_sq is var of the within-subject difference."""

    mu_star_a: float
    mu_star_b: float
    sigma_d_sq: float
    gamma0: float = 0.5
    period_effect_in_analysis: bool = True

    def __post_init__(self):
        if self.sigma_d_sq <= 0.0:
            raise DomainError("sigma_d_sq must be positive")
        core.check_allocation(self.gamma0)

    @property
    def gamma1(self) -> float:
        return 1.0 - self.gamma0


def one_sample_kernel(mu: float, tau0: float, sigma_sq: float) -> TestKernel:
    """One-sample t test: v = sigma^2, f = n - 1, rho = 1."""
    if sigma_sq <= 0.0:
        raise DomainError("sigma_sq must be positive")
    return fixed_df_kernel(tau0, mu, sigma_sq, 1)


def two_sample_equal_kernel(s: TwoSampleSpec, tau0: float) -> TestKernel:
    """Pooled t test: v = sigma^2/(gamma0*gamma1), f = n - 2, rho = 1."""
    if not s.equal_variance:
        raise DomainError("two_sample_equal_kernel requires equal_variance to be set")
    if s.sigma0_sq != s.sigma1_sq:
        raise DomainError("equal-variance kernel requires sigma0_sq == sigma1_sq")
    v = s.sigma0_sq / (s.gamma0 * s.gamma1)
    return fixed_df_kernel(tau0, s.mu1 - s.mu0, v, 2, (s.gamma0, s.gamma1))


def satterthwaite_df(v0: float, v1: float, n0: float, n1: float) -> float:
    """Satterthwaite approximate d.f. for v0/n0 + v1/n1; group sizes may be fractional."""
    if min(n0, n1) <= 1.0:
        raise DomainError("Satterthwaite d.f. needs more than one subject per group")
    a0 = v0 / n0
    a1 = v1 / n1
    return (a0 + a1) ** 2 / (a0 * a0 / (n0 - 1.0) + a1 * a1 / (n1 - 1.0))


def two_sample_unequal_kernel(s: TwoSampleSpec, tau0: float) -> TestKernel:
    """Welch t test: v = sigma0^2/gamma0 + sigma1^2/gamma1, Satterthwaite f(n)."""
    v = s.sigma0_sq / s.gamma0 + s.sigma1_sq / s.gamma1
    rho = v * v / (
        s.sigma0_sq**2 / s.gamma0**3 + s.sigma1_sq**2 / s.gamma1**3
    )
    g0, g1 = s.gamma0, s.gamma1
    sig0, sig1 = s.sigma0_sq, s.sigma1_sq
    return TestKernel(
        tau0=tau0,
        tau1=s.mu1 - s.mu0,
        v=v,
        rho_at=lambda n: rho,
        df_at=lambda n: satterthwaite_df(sig0, sig1, g0 * n, g1 * n),
        min_n=1.0 / min(g0, g1),
        allocation=(g0, g1),
    )


def crossover_kernel(s: CrossoverSpec) -> TestKernel:
    """Crossover lowering: one-sample form without a period effect in the
    analysis (v = sigma_d^2, f = n-1), two-sample form with one
    (v = sigma_d^2/(4*gamma0*gamma1), f = n-2)."""
    allocation = (s.gamma0, s.gamma1)
    effect = s.mu_star_b - s.mu_star_a
    if s.period_effect_in_analysis:
        v = s.sigma_d_sq / (4.0 * s.gamma0 * s.gamma1)
        return fixed_df_kernel(0.0, effect, v, 2, allocation)
    return fixed_df_kernel(0.0, effect, s.sigma_d_sq, 1, allocation)


def welch_power(
    s: TwoSampleSpec,
    conditional: Callable,
    n: float,
    alpha: float,
    method: str = "integral_exact",
) -> PowerEstimate:
    """The power ``conditional`` of the Welch test at total size ``n``,
    averaged over the variance ratio u ~ F(n1 - 1, n0 - 1).

    Given u it sees se = sqrt(base), base = sigma1^2/n1 + sigma0^2/n0, the
    critical value t_{f(u),1-a/2} sqrt(v(u)/base) and n - 2 d.f.  Group
    sizes gamma_g * n may be fractional; each must exceed one.
    """
    n0, n1 = s.gamma0 * n, s.gamma1 * n

    def given(u):
        # u = s1^2 sigma0^2 / (s0^2 sigma1^2), independent of the pooled
        # chi-square scale, multiplies the second group's variance
        base = s.sigma1_sq / n1 + s.sigma0_sq / n0
        v1 = u * s.sigma1_sq
        f_u = satterthwaite_df(s.sigma0_sq, v1, n0, n1)
        v_u = (n0 + n1 - 2.0) / ((n1 - 1.0) * u + (n0 - 1.0)) * (v1 / n1 + s.sigma0_sq / n0)
        crit = dist.t_quantile(1.0 - alpha / 2.0, f_u) * np.sqrt(v_u / base)
        return math.sqrt(base), crit, n - 2.0

    return core.expected_power(
        conditional, given, n, (n1 - 1.0, n0 - 1.0), alpha=alpha,
        min_n=1.0 / min(s.gamma0, s.gamma1), method=method
    )


def moser_exact_power(s: TwoSampleSpec, tau0: float, n: float, alpha: float) -> PowerEstimate:
    """Exact power of the Welch test, integrating over the variance ratio.

    One-tailed toward the alternative (the opposite tail is negligible at any
    practically relevant power): the one-sided test with its null at tau0.
    """
    conditional = core.one_sided_tests(abs(s.mu1 - s.mu0 - tau0))
    return welch_power(s, conditional, n, alpha)
