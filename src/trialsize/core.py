"""Generalized power and sample-size procedures over an abstract test kernel.

A :class:`TestKernel` captures everything the two-sided t-based test of
``H0: tau = tau0`` versus ``H1: tau = tau1`` needs: the variance scale ``v``
(``var(estimate) = v / n``), a degrees-of-freedom rule ``df_at(n)``, and the
information fraction ``rho_at(n) ~ df/n`` used by the noniterative
corrections.  Every concrete design lowers to such a kernel, after which the
same five sample-size methods apply:

* normal approximation,
* first-order correction (``+ z^2/(2 rho)``),
* conservative second-order correction,
* two-step recomputation with t quantiles,
* numerical inversion of the power curve.
"""

from __future__ import annotations

import dataclasses
import functools
import math
from dataclasses import dataclass
from typing import Callable

from scipy import stats

from . import dist
from .dist import DEFAULT_SETTINGS, NumericSettings
from .errors import BracketError, DomainError

__all__ = [
    "TestKernel",
    "PowerEstimate",
    "SizeEstimate",
    "power_two_sided",
    "power_one_sided_approx",
    "size_normal",
    "size_g1",
    "size_g2",
    "size_two_step",
    "size_invert",
    "apply_ni_margin",
    "g1_total",
    "g2_total",
    "rounded_sizes",
]

_SIZE_CAP = 1e7


@dataclass(frozen=True)
class TestKernel:
    """Abstract t-test kernel.

    tau0, tau1   null and alternative values of the parameter of interest
    v            variance scale, var(estimate) = v / n
    rho_at       information fraction rho(n) ~ df/n, evaluated at a real n
    df_at        degrees-of-freedom rule f(n), fractional n allowed
    min_n        smallest admissible total sample size
    allocation   group allocation fractions (sums to 1)
    one_tailed   True for noninferiority kernels (actual type I error alpha/2)
    """

    tau0: float
    tau1: float
    v: float
    rho_at: Callable[[float], float]
    df_at: Callable[[float], float]
    min_n: float
    allocation: tuple[float, ...] = (1.0,)
    one_tailed: bool = False
    label: str = ""

    def __post_init__(self):
        if not (self.v > 0.0 and math.isfinite(self.v)):
            raise DomainError(f"kernel variance scale must be positive, got {self.v}")
        if abs(sum(self.allocation) - 1.0) > 1e-9:
            raise DomainError("allocation fractions must sum to 1")

    @property
    def effect(self) -> float:
        return self.tau1 - self.tau0


@dataclass(frozen=True)
class PowerEstimate:
    value: float
    method: str  # exact_two_sided | one_sided_approx | integral_exact | approx
    n_used: float
    approximation_valid: bool = True


@dataclass(frozen=True)
class SizeEstimate:
    fractional: float
    rounded_total: int
    per_group: tuple[int, ...]
    method: str  # normal | g1 | g2 | two_step | inversion
    target_power: float
    alpha: float


def rounded_sizes(
    fractional: float, allocation: tuple[float, ...], rounding: str = "up"
) -> tuple[int, tuple[int, ...]]:
    """Round a fractional total size and split it across groups.

    ``rounding`` is ``"up"`` (ceiling, the default) or ``"nearest"``.  The
    remainder after flooring each group's share goes to the first-listed
    groups, so group sizes differ by at most one under equal allocation.
    """
    if rounding == "up":
        total = math.ceil(fractional - 1e-9)
    elif rounding == "nearest":
        total = math.floor(fractional + 0.5)
    else:
        raise DomainError(f"unknown rounding policy {rounding!r}")
    shares = [math.floor(g * total + 1e-9) for g in allocation]
    short = total - sum(shares)
    for i in range(len(shares)):
        if short <= 0:
            break
        shares[i] += 1
        short -= 1
    return total, tuple(shares)


def _check_alpha_power(alpha: float, power: float | None = None) -> None:
    if not (0.0 < alpha < 1.0):
        raise DomainError(f"alpha must lie in (0, 1), got {alpha}")
    if power is not None and not (0.0 < power < 1.0):
        raise DomainError(f"target power must lie in (0, 1), got {power}")


def _noncentrality_sq(k: TestKernel, n: float) -> float:
    return n * k.effect**2 / k.v


def power_two_sided(
    k: TestKernel,
    n: float,
    alpha: float,
    settings: NumericSettings = DEFAULT_SETTINGS,
) -> PowerEstimate:
    """Power of the two-sided test: Pr[F(1, f, n*effect^2/v) > t_{f,1-a/2}^2]."""
    _check_alpha_power(alpha)
    if not n > k.min_n:
        raise DomainError(f"n must exceed the kernel minimum {k.min_n}, got {n}")
    f = k.df_at(n)
    crit = dist.t_quantile(1.0 - alpha / 2.0, f, settings)
    value = dist._f_sf(crit * crit, f, _noncentrality_sq(k, n))
    return PowerEstimate(value=value, method="exact_two_sided", n_used=n)


def power_one_sided_approx(
    k: TestKernel,
    n: float,
    alpha: float,
    settings: NumericSettings = DEFAULT_SETTINGS,
) -> PowerEstimate:
    """Upper-tail-only approximation: Pr[t(f, |effect|*sqrt(n/v)) > t_{f,1-a/2}]."""
    _check_alpha_power(alpha)
    if not n > k.min_n:
        raise DomainError(f"n must exceed the kernel minimum {k.min_n}, got {n}")
    f = k.df_at(n)
    lam = abs(k.effect) * math.sqrt(n / k.v)
    crit = dist.t_quantile(1.0 - alpha / 2.0, f, settings)
    value = float(stats.nct.sf(crit, f, lam))
    return PowerEstimate(value=value, method="one_sided_approx", n_used=n)


def _normal_total(k: TestKernel, alpha: float, power: float) -> float:
    if k.effect == 0.0:
        raise DomainError("tau1 must differ from tau0 for sample-size formulas")
    zsum = dist.normal_quantile(1.0 - alpha / 2.0) + dist.normal_quantile(power)
    return zsum**2 * k.v / k.effect**2


def g1_total(ntilde: float, rho: float, alpha: float) -> float:
    """First-order corrected total size: ntilde + z_{1-a/2}^2 / (2 rho)."""
    z = dist.normal_quantile(1.0 - alpha / 2.0)
    return ntilde + z * z / (2.0 * rho)


def g2_total(ntilde: float, rho: float, alpha: float) -> float:
    """Conservative second-order corrected total size."""
    z = dist.normal_quantile(1.0 - alpha / 2.0)
    corr = z * z / (2.0 * rho)
    ng1 = ntilde + corr
    return ng1 + corr * corr / ng1


def _as_estimate(
    k: TestKernel,
    fractional: float,
    method: str,
    alpha: float,
    power: float,
    rounding: str,
) -> SizeEstimate:
    total, per_group = rounded_sizes(fractional, k.allocation, rounding)
    return SizeEstimate(
        fractional=fractional,
        rounded_total=total,
        per_group=per_group,
        method=method,
        target_power=power,
        alpha=alpha,
    )


def size_normal(
    k: TestKernel, alpha: float, power: float, rounding: str = "up"
) -> SizeEstimate:
    """Normal-approximation size (poor in small samples)."""
    _check_alpha_power(alpha, power)
    return _as_estimate(k, _normal_total(k, alpha, power), "normal", alpha, power, rounding)


def size_g1(
    k: TestKernel, alpha: float, power: float, rounding: str = "up"
) -> SizeEstimate:
    _check_alpha_power(alpha, power)
    ntilde = _normal_total(k, alpha, power)
    frac = g1_total(ntilde, k.rho_at(ntilde), alpha)
    return _as_estimate(k, frac, "g1", alpha, power, rounding)


def size_g2(
    k: TestKernel, alpha: float, power: float, rounding: str = "up"
) -> SizeEstimate:
    _check_alpha_power(alpha, power)
    ntilde = _normal_total(k, alpha, power)
    frac = g2_total(ntilde, k.rho_at(ntilde), alpha)
    return _as_estimate(k, frac, "g2", alpha, power, rounding)


def size_two_step(
    k: TestKernel,
    alpha: float,
    power: float,
    rounding: str = "up",
    settings: NumericSettings = DEFAULT_SETTINGS,
) -> SizeEstimate:
    """Recompute the normal-approximation size with t quantiles at f(ntilde)."""
    _check_alpha_power(alpha, power)
    ntilde = _normal_total(k, alpha, power)
    if not ntilde > k.min_n:
        raise DomainError(
            f"two-step size undefined: first-pass size {ntilde:.3f} does not exceed "
            f"the kernel minimum {k.min_n}"
        )
    f = k.df_at(ntilde)
    if not f > 0.0:
        raise DomainError(f"degrees of freedom non-positive at first-pass size {ntilde:.3f}")
    tsum = dist.t_quantile(1.0 - alpha / 2.0, f, settings) + dist.t_quantile(
        power, f, settings
    )
    frac = tsum**2 * k.v / k.effect**2
    return _as_estimate(k, frac, "two_step", alpha, power, rounding)


def size_invert(
    power_fn: Callable[[float], float],
    target: float,
    bracket_hint: float,
    min_n: float = 0.0,
    allocation: tuple[float, ...] = (1.0,),
    alpha: float = float("nan"),
    rounding: str = "up",
    settings: NumericSettings = DEFAULT_SETTINGS,
) -> SizeEstimate:
    """Smallest real n with ``power_fn(n) == target`` (to ``size_tol``).

    ``power_fn`` must be nondecreasing in n past ``min_n``.  The bracket
    starts at [bracket_hint - 2, bracket_hint + 2]; a noniterative size such
    as g2 is usually within a fraction of a unit of the root.  A side without
    a sign change is widened geometrically (the width grows fourfold per
    step), downwards to ``min_n + 0.5`` and upwards to n = 1e7, before
    giving up.  Each n is evaluated once.
    """
    if not (0.0 < target < 1.0):
        raise DomainError(f"target power must lie in (0, 1), got {target}")
    power_at = functools.cache(power_fn)
    floor = min_n + 0.5
    lo = max(floor, bracket_hint - 2.0)
    hi = max(lo, bracket_hint) + 2.0
    while (p_lo := power_at(lo)) >= target:
        if lo == floor:
            raise BracketError(
                f"power {p_lo:.6f} at the bracket start n={lo} already meets the target "
                f"{target}; no admissible crossing to resolve"
            )
        lo, hi = max(floor, lo - 4.0 * (hi - lo)), lo
    while power_at(hi) < target:
        if hi >= _SIZE_CAP:
            raise BracketError(
                f"target power {target} not reachable below the size cap {_SIZE_CAP:.0e}"
            )
        lo, hi = hi, min(_SIZE_CAP, hi + 4.0 * (hi - lo))
    root = dist.find_root(lambda n: power_at(n) - target, lo, hi, settings.size_tol, settings)
    total, per_group = rounded_sizes(root, allocation, rounding)
    return SizeEstimate(
        fractional=root,
        rounded_total=total,
        per_group=per_group,
        method="inversion",
        target_power=target,
        alpha=alpha,
    )


def apply_ni_margin(k: TestKernel, m0: float) -> TestKernel:
    """Noninferiority adaptation: test against the margin instead of zero.

    Returns the same kernel with ``tau0`` replaced by the margin and flagged
    one-tailed (the CI-based noninferiority test has actual type I error
    alpha/2).  Superiority is recovered with ``m0 = 0``.
    """
    if not math.isfinite(m0):
        raise DomainError("noninferiority margin must be finite")
    if m0 == k.tau1:
        raise DomainError("noninferiority margin must differ from the alternative tau1")
    return dataclasses.replace(k, tau0=m0, one_tailed=True)
