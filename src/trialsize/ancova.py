"""Covariate-adjusted two-arm comparison (ANCOVA): power and sample size.

At the design stage the covariates are unknown.  Given the standardized
between-group covariate imbalance u, the adjusted effect's variance is
sigma^2 (1 + q u/(n - q - 1)) / (n gamma0 gamma1), and u follows
F(q, n - q - 1) (exactly so for normal covariates).  :func:`adjusted_power`
gives any of the conditional powers of :mod:`trialsize.core` at that
variance, averaged over the imbalance law or at its mean.  The size chain
(:func:`trialsize.core.size_chain`) corrects the asymptotic
normal-approximation size for the covariate count.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

from . import core, dist
from .core import PowerEstimate, TestKernel
from .errors import DomainError

__all__ = [
    "AncovaSpec",
    "adjusted_power",
    "ancova_power_exact",
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
        core.check_allocation(self.gamma0)
        core.check_covariate_count(self.q)
        v = self.sigma_sq / (self.gamma0 * self.gamma1)
        if not math.isfinite(v * v):  # the simulator's Satterthwaite d.f. squares it
            raise DomainError(
                f"sigma_sq {self.sigma_sq:g} at allocation {self.gamma0:g} puts the "
                "variance scale's square out of float range"
            )

    @property
    def gamma1(self) -> float:
        return 1.0 - self.gamma0

    @property
    def q_star(self) -> int:
        return self.q + 2

    @property
    def effect(self) -> float:
        return self.tau1 - self.tau0


def ancova_kernel(s: AncovaSpec) -> TestKernel:
    """Asymptotic-variance kernel: v = sigma^2/(gamma0*gamma1), f = n - q*, rho = 1."""
    v = s.sigma_sq / (s.gamma0 * s.gamma1)
    return core.fixed_df_kernel(s.tau0, s.tau1, v, s.q_star, (s.gamma0, s.gamma1))


def adjusted_power(
    s: AncovaSpec,
    conditional: Callable,
    n: float,
    alpha: float,
    method: str = "integral_exact",
    mean_imbalance: bool = False,
) -> PowerEstimate:
    """The power ``conditional`` of the covariate-adjusted t test at total
    size ``n`` > q + 3, with f = n - q* and se^2 = sigma^2 c/(n gamma0 gamma1).

    The factor c = 1 + q u/(n - q - 1) is averaged over the imbalance
    u ~ F(q, n - q - 1), or with ``mean_imbalance`` taken at its mean
    (n - q - 1)/(n - q - 3), which gives c = 1 + q/(n - q - 3) and no outer
    law.  Without covariates c is 1.
    """
    outer = (s.q, n - s.q - 1.0) if s.q and not mean_imbalance else None

    def given(u):
        f = n - s.q_star
        c = 1.0 + s.q / (n - s.q - 3.0) if u is None else 1.0 + s.q * u / (n - s.q - 1.0)
        se = np.sqrt(s.sigma_sq * c / (n * s.gamma0 * s.gamma1))
        return se, dist.t_quantile(1.0 - alpha / 2.0, f), f

    return core.expected_power(
        conditional, given, n, outer, alpha=alpha, min_n=s.q + 3.0, method=method
    )


def ancova_power_exact(s: AncovaSpec, n: float, alpha: float) -> PowerEstimate:
    """Exact two-sided power, integrating over the covariate-imbalance law.

    Exact when the covariates are normally distributed; in randomized trials
    it remains very accurate for nonnormal covariates.  With q = 0 this is the
    plain two-sample equal-variance power with f = n - 2.
    """
    return adjusted_power(s, core.two_tailed(s.effect), n, alpha)


def ancova_power_asymptotic_t(
    s: AncovaSpec, n: float, alpha: float, conditional: Callable
) -> PowerEstimate:
    """t-distribution power with the asymptotic variance (no covariate
    inflation): the ANCOVA kernel's power of ``conditional``, defined for
    n > q*."""
    k = replace(ancova_kernel(s), min_n=float(s.q_star))
    return k.power(conditional, n, alpha, "approx")


def ancova_sizing(s: AncovaSpec) -> TestKernel:
    """The family's design-stage model: the ANCOVA kernel, with the
    normal-approximation size corrected for the covariates, n(1 + q/(n - 2)).
    Its extra row ``normal_quadratic`` is the explicit root of the
    self-consistent corrected size n = n_b (1 + q/(n - q - 3))."""
    q = s.q

    def correct(n: float) -> float:
        if n <= 2.0:
            raise DomainError(f"size {n:.3f} too small for the covariate correction")
        return n * (1.0 + q / (n - 2.0))

    def quadratic(n_b: float) -> dict[str, float]:
        # (n_b + q + 3)^2 - 12 n_b, written as a sum of squares so that it
        # cannot round below zero
        disc = (n_b + q - 3.0) ** 2 + 12.0 * q
        return {"normal_quadratic": 0.5 * ((n_b + q + 3.0) + math.sqrt(disc))}

    return replace(ancova_kernel(s), correct=correct, extra=quadratic)
