"""Generalized power and sample-size procedures.

Every power is one body, :func:`expected_power`: a conditional power given
the estimate's standard error, the critical value and the d.f. (se, crit,
f), used directly or averaged over one outer F law.  The conditional power
is one of three: :func:`two_tailed` (superiority), :func:`one_sided_tests`
(the integration-free tests that must all reject: the one-sided test of
noninferiority at the margin, the two one-sided tests of equivalence, and
the one-sided approximation of superiority) and, for exact equivalence, the
Phillips integral of :mod:`trialsize.equivalence`.

A :class:`SizeModel` holds what the noniterative size chain needs of a
design: the variance scale ``v`` (``var(estimate) ~ v / n``), the correction
C of the normal-approximation size (for covariates or retention; none for a
plain t test), the information fraction ``rho_at(n) ~ df/n``, the two-step
degrees of freedom ``df_at(n)``, the smallest admissible size and the
allocation.  :func:`size_chain` is the one chain every design family and
objective is sized by, each size a real number:

* normal approximation n_b = z^2 v / delta^2, corrected to ntilde = C(n_b),
* first-order correction g1 = ntilde + z_{1-a/2}^2 / (2 rho(ntilde)), with
  the normal size's own z, and the conservative second-order correction g2,
* two-step recomputation C(n_u) with t quantiles at d.f. f(ntilde),
* numerical inversion of the family's exact power, started at g2.

A size is rounded to a whole total and split across the groups only where it
is printed, by :func:`rounded_sizes`.

A :class:`TestKernel` is the size model of a t test of ``H0: tau = tau0``
versus ``H1: tau = tau1``, tau0 being the margin under noninferiority; it
gives (se, crit, f) for every power of the test (:meth:`TestKernel.power`);
:func:`fixed_df_kernel` builds the classical one with f = n - k (Guenther
1981).  :func:`check_alpha`, :func:`check_allocation` and
:func:`check_covariate_count` are the one check of a level, of a
control-arm fraction and of a covariate count.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import dist
from .errors import BracketError, DomainError

__all__ = [
    "SizeModel",
    "TestKernel",
    "fixed_df_kernel",
    "PowerEstimate",
    "check_alpha",
    "check_allocation",
    "check_covariate_count",
    "expected_power",
    "two_tailed",
    "one_sided_tests",
    "power_two_sided",
    "size_chain",
    "size_invert",
    "rounded_sizes",
]

_SIZE_CAP = 1e7
# resolution (in n) of sample-size inversion
_SIZE_TOL = 1e-6


@dataclass(frozen=True)
class SizeModel:
    """What the size chain needs of a design.

    v            variance scale, var(estimate) ~ v / n
    rho_at       information fraction rho(n) ~ df/n, evaluated at a real n
    df_at        degrees-of-freedom rule f(n), fractional n allowed
    min_n        smallest admissible total sample size
    allocation   group allocation fractions (sums to 1)
    correct      C, the correction of a normal-approximation size (None: none)
    extra        n_b -> further named normal-approximation sizes
    """

    v: float
    rho_at: Callable[[float], float]
    df_at: Callable[[float], float]
    min_n: float
    allocation: tuple[float, ...] = (1.0,)
    correct: Callable[[float], float] | None = None
    extra: Callable[[float], dict[str, float]] = lambda n_b: {}

    def __post_init__(self):
        if not (self.v > 0.0 and math.isfinite(self.v)):
            raise DomainError(f"variance scale must be positive, got {self.v}")
        if abs(sum(self.allocation) - 1.0) > 1e-9:
            raise DomainError("allocation fractions must sum to 1")


@dataclass(frozen=True, kw_only=True)
class TestKernel(SizeModel):
    """Abstract t-test kernel: a size model with the null and alternative
    values ``tau0`` and ``tau1`` of the parameter of interest."""

    tau0: float
    tau1: float

    @property
    def effect(self) -> float:
        return self.tau1 - self.tau0

    def power(self, conditional: Callable, n: float, alpha: float, method: str) -> PowerEstimate:
        """The power ``conditional`` at se = sqrt(v/n), the t quantile
        t_{f,1-a/2} and f = df_at(n); no outer law."""

        def given(_):
            f = self.df_at(n)
            return math.sqrt(self.v / n), dist.t_quantile(1.0 - alpha / 2.0, f), f

        return expected_power(conditional, given, n, alpha=alpha, min_n=self.min_n, method=method)


def fixed_df_kernel(
    tau0: float, tau1: float, v: float, k: int, allocation: tuple[float, ...] = (1.0,)
) -> TestKernel:
    """The t test of an estimate from k fitted means or coefficients:
    f = n - k, rho = 1 and sizes above k + 1."""
    return TestKernel(
        tau0=tau0, tau1=tau1, v=v, rho_at=lambda n: 1.0, df_at=lambda n: n - k,
        min_n=k + 1.0, allocation=allocation,
    )


@dataclass(frozen=True)
class PowerEstimate:
    value: float
    method: str  # exact_two_sided | integral_exact | approx
    approximation_valid: bool | np.ndarray = True  # per entry for a batch


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
    return total, tuple(share + (i < short) for i, share in enumerate(shares))


# the domain of a two-sided level; at 1 - alpha/2 = 1 the critical values are infinite
ALPHA_DOMAIN = "must lie in (0, 1) with 1 - alpha/2 below 1 in floating point"


def check_alpha(alpha: float) -> None:
    """Raise :class:`DomainError` for an alpha outside ``ALPHA_DOMAIN``."""
    if not (0.0 < alpha < 1.0 and 1.0 - alpha / 2.0 < 1.0):
        raise DomainError(f"alpha {ALPHA_DOMAIN}, got {alpha}")


def check_allocation(gamma0: float) -> None:
    """Raise :class:`DomainError` for a control-arm fraction outside (0, 1)."""
    if not (0.0 < gamma0 < 1.0):
        raise DomainError(f"allocation fraction must lie in (0, 1), got {gamma0}")


def check_covariate_count(q) -> None:
    """Raise :class:`DomainError` for a q that is not a nonnegative integer
    (NaN and infinities included; ``q % 1`` of either is NaN)."""
    if not (q >= 0 and q % 1 == 0):
        raise DomainError(f"covariate count q must be a nonnegative integer, got {q}")


def expected_power(
    conditional: Callable,
    given: Callable,
    n: float,
    outer: tuple[float, float] | None = None,
    *,
    alpha: float,
    min_n: float = -math.inf,
    method: str = "integral_exact",
) -> PowerEstimate:
    """The one power body: ``conditional(*given(u))``, at ``given(None)``
    without an outer law, else averaged by :func:`dist.integrate` over
    U ~ F(*outer).

    ``given(u)`` gives the arguments of ``conditional`` at the outer
    variable u: (se, crit, f), each a scalar or an array over the abscissae
    (MMRM hands (se, f) to its own wrapper of a conditional).  Raises :class:`DomainError` for alpha
    outside ``ALPHA_DOMAIN`` and for n that is not finite, above the size cap
    or not above ``min_n``, before ``given`` is called.  An exact ``method`` is
    clipped to [0, 1] (a NaN stays NaN); an approximation, ``method`` "approx",
    is returned as computed, with ``approximation_valid`` False exactly where
    it is negative (a NaN entry of a batch, undefined, is marked by its value).
    """
    check_alpha(alpha)
    if not n <= _SIZE_CAP:
        raise DomainError(f"n must be finite and at most the size cap {_SIZE_CAP:.0e}, got {n}")
    if not n > min_n:
        raise DomainError(f"n must exceed the design's minimum {min_n:g}, got {n}")
    if outer is None:
        value = conditional(*given(None))
    else:
        value = dist.integrate(lambda u: conditional(*given(u)), *outer)
    if method == "approx":
        valid = ~(np.asarray(value) < 0.0)
        return PowerEstimate(value, method, valid if valid.ndim else bool(valid))
    # max(0.0, nan) is 0.0: a NaN is kept, not clipped to a power of 0
    return PowerEstimate(value if np.isnan(value) else min(1.0, max(0.0, value)), method)


def two_tailed(delta: float) -> Callable:
    """Conditional power of the two-sided test of an effect ``delta``:
    Pr[|t(f, delta/se)| > crit] = Pr[F(1, f, (delta/se)^2) > crit^2]."""

    def power(se, crit, f):
        return dist._f_sf(crit * crit, f, (delta / se) ** 2)

    return power


def one_sided_tests(*distances: float) -> Callable:
    """Conditional power of one-sided tests that must all reject, the true
    effect at each distance d from a test's null (on the rejecting side):
    1 - sum_d Pr[t(f, d/se) <= crit], with one :func:`dist.t_cdf` call for
    all d.  An infinite distance (a margin that is absent) never keeps its
    test from rejecting and drops out."""
    finite = np.array([d for d in distances if math.isfinite(d)])

    def power(se, crit, f):
        se, crit = np.broadcast_arrays(se, crit)
        return 1.0 - dist.t_cdf(crit, f, np.divide.outer(finite, se)).sum(axis=0)

    return power


def power_two_sided(k: TestKernel, n: float, alpha: float) -> PowerEstimate:
    """Power of the two-sided test: Pr[F(1, f, n*effect^2/v) > t_{f,1-a/2}^2]."""
    return k.power(two_tailed(k.effect), n, alpha, "exact_two_sided")


def size_chain(
    model: SizeModel,
    delta: float,
    alpha: float,
    power: float,
    exact: Callable[[float], float] | None = None,
    target: float | None = None,
) -> dict[str, float]:
    """The noniterative sizes for the effect ``delta``, by name in the order
    below, and with the exact power ``exact(n)`` its inversion for ``power``,
    started at g2.

    The quantiles are taken at ``target`` (by default ``power``; equivalence
    sizes the nearer margin's one-sided test at its own level):

    normal_asymptotic  n_b = (z_{1-a/2} + z_target)^2 v / delta^2, where C corrects it
    normal             ntilde = C(n_b), followed by ``model.extra(n_b)``
    g1, g2             the first- and second-order corrections of ntilde
    two_step           C(n_u), n_u formed as n_b with t quantiles at f(ntilde)
    inversion          the root of exact(n) = power

    Raises :class:`DomainError` for a target level that rounds to 1, for an
    effect whose square is 0 or overflows, for an n_b above the size cap
    (before C and ``model.extra`` see it), and, for the two-step row, for
    ntilde at or below ``model.min_n`` and for a non-positive f(ntilde); C
    raises it for a size too small to correct.
    """
    check_alpha(alpha)
    target = power if target is None else target
    if not (0.0 < power < 1.0 and target < 1.0):
        raise DomainError(f"target power {power!r} must lie in (0, 1), its level below 1")
    if delta * delta == 0.0:
        raise DomainError(f"the effect {delta:g} is too close to the null value to size for")
    if not math.isfinite(delta * delta):
        raise DomainError(f"the effect {delta:g} is too large to size for: its square overflows")
    correct = model.correct or (lambda n: n)

    def base(z_alpha: float, z_power: float) -> float:
        return (z_alpha + z_power) ** 2 * model.v / (delta * delta)

    z = dist.normal_quantile(1.0 - alpha / 2.0)
    n_b = base(z, dist.normal_quantile(target))
    if not n_b <= _SIZE_CAP:
        raise DomainError(
            f"normal-approximation size {n_b:.6g} is above the size cap {_SIZE_CAP:.0e}: "
            f"the effect {delta:g} is too small for the variance scale {model.v:g}"
        )
    n_tilde = correct(n_b)
    if not n_tilde > model.min_n:
        raise DomainError(
            f"two-step size undefined: first-pass size {n_tilde:.3f} does not exceed "
            f"the minimum {model.min_n}"
        )
    corr = z * z / (2.0 * model.rho_at(n_tilde))
    f = model.df_at(n_tilde)
    if not f > 0.0:
        raise DomainError(f"two-step d.f. non-positive at first-pass size {n_tilde:.3f}")
    n_u = base(dist.t_quantile(1.0 - alpha / 2.0, f), dist.t_quantile(target, f))
    g1 = n_tilde + corr
    g2 = g1 + corr * corr / g1
    sizes = {
        **({"normal_asymptotic": n_b} if model.correct else {}),
        "normal": n_tilde,
        **model.extra(n_b),
        "g1": g1,
        "g2": g2,
        "two_step": correct(n_u),
    }
    if exact is not None:
        sizes["inversion"] = size_invert(exact, power, g2, model.min_n)
    return sizes


def size_invert(
    power_fn: Callable[[float], float],
    target: float,
    bracket_hint: float,
    min_n: float = 0.0,
) -> float:
    """Smallest real n with ``power_fn(n) == target`` (to ``_SIZE_TOL``).

    ``power_fn`` must be nondecreasing in n past ``min_n``.  The bracket
    starts at [bracket_hint - 0.5, bracket_hint + 0.5]; a noniterative size
    such as g2 is usually within a fraction of a unit of the root.  A side
    without a sign change is widened geometrically (the width grows fourfold
    per step), downwards to ``min_n + 0.5`` and upwards to n = 1e7, before
    giving up; a hint at or beyond that cap raises at once.  Each n is
    evaluated once.
    """
    if not (0.0 < target < 1.0):
        raise DomainError(f"target power must lie in (0, 1), got {target}")
    if not bracket_hint < _SIZE_CAP:
        raise BracketError(
            f"noniterative size {bracket_hint:.6g} is not below the size cap {_SIZE_CAP:.0e}"
        )
    power_at = functools.cache(power_fn)
    floor = min_n + 0.5
    lo = max(floor, bracket_hint - 0.5)
    hi = max(lo, bracket_hint) + 0.5
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
    return dist.find_root(lambda n: power_at(n) - target, lo, hi, _SIZE_TOL)
