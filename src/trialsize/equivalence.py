"""Equivalence and bioequivalence power and sample size.

Equivalence is declared when the whole 1-alpha confidence interval for the
effect lies inside the margin interval; the procedure is decision-equivalent
to two one-sided tests at level alpha/2.  An equivalence power is one of two
conditional powers (:func:`_conditional`) inside the one power body
(:func:`trialsize.core.expected_power`).  The exact one conditions on the
variance estimate (Phillips 1990), a single integral over the variance
scale; the integration-free approximation, the two one-sided tests'
1 - Pr[t <= crit] - Pr[t <= crit], drops the positivity region of that
integrand and hence underestimates (it can go negative in tiny samples,
which is flagged rather than clamped).

The kernels use either as it is.  The unequal-variance design averages it
over the group variance ratio (:func:`trialsize.designs.welch_power`) and the
covariate-adjusted design over the imbalance law
(:func:`trialsize.ancova.adjusted_power`), which makes the exact forms double
integrals, as the family's power rows (:meth:`trialsize.families.Family.powers`)
use them.  This module imports none of :mod:`trialsize.ancova`,
:mod:`trialsize.mmrm` and :mod:`trialsize.families`.  Equivalence sizes,
margins symmetric or not, are the family's size chain
(:meth:`trialsize.families.Family.size_rows`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy import special

from . import core, dist
from .core import PowerEstimate, TestKernel
from .designs import TwoSampleSpec, welch_power
from .errors import DomainError

__all__ = [
    "Margins",
    "equiv_power_exact",
    "ts_unequal_equiv_power",
]


@dataclass(frozen=True)
class Margins:
    """Margin interval; the objective it encodes (:attr:`kind`) follows from
    the bounds.

    equivalence      both bounds finite, lower < 0 < upper
    noninferiority   exactly one finite bound (the margin M0)
    superiority      both bounds infinite; the test is against tau0
    """

    lower: float
    upper: float

    def __post_init__(self):
        if not self.lower < self.upper:
            raise DomainError(f"margins must satisfy lower < upper, got ({self.lower}, {self.upper})")
        if self.kind == "equivalence" and not (self.lower < 0.0 < self.upper):
            raise DomainError("equivalence margins must straddle zero")

    @property
    def kind(self) -> str:
        finite = math.isfinite(self.lower) + math.isfinite(self.upper)
        return ("superiority", "noninferiority", "equivalence")[finite]

    @classmethod
    def equivalence(cls, lower: float, upper: float) -> "Margins":
        if not (math.isfinite(lower) and math.isfinite(upper)):
            raise DomainError("equivalence margins must both be finite")
        return cls(lower, upper)

    @classmethod
    def noninferiority(cls, m0: float, tau1: float) -> "Margins":
        """One finite bound on the far side of the alternative ``tau1``."""
        if not math.isfinite(m0):
            raise DomainError("noninferiority needs exactly one finite margin")
        if m0 == tau1:
            raise DomainError("noninferiority margin must differ from tau1")
        if m0 > tau1:
            return cls(lower=-math.inf, upper=m0)
        return cls(lower=m0, upper=math.inf)

    @classmethod
    def superiority(cls) -> "Margins":
        return cls(lower=-math.inf, upper=math.inf)

    def distances(self, tau1: float) -> tuple[float, float]:
        """The distances (upper - tau1, tau1 - lower) of the true effect
        ``tau1`` from the margins, which must hold it strictly inside."""
        if not (self.lower < tau1 < self.upper):
            raise DomainError(
                f"true effect {tau1} must lie strictly inside the margins "
                f"({self.lower}, {self.upper})"
            )
        return self.upper - tau1, tau1 - self.lower


# Bioequivalence: the 0.80-1.25 limits on the ratio scale are +/- ln 1.25 on
# the log scale, tested at alpha = 0.1.
BE_MARGINS = Margins.equivalence(-math.log(1.25), math.log(1.25))
BE_ALPHA = 0.1


def _phillips_integral(a_up, b_low, scale, f: float):
    """Core equivalence integral conditioned on the variance-scale chi-square.

    Integrates Phi(a_up - scale*sqrt(xi)) - Phi(b_low + scale*sqrt(xi)) over
    xi ~ chi2_f/f, restricted to the region where the integrand is positive
    (xi below ((a_up - b_low)/(2*scale))^2).  Broadcasts over ``a_up``,
    ``b_low`` and ``scale``: an array gives one integral per entry.

    The rule is the one :func:`dist.integrate` uses, on panels between the
    quantiles of chi2_f/f, with the edges clipped per entry at the
    positivity cutoff.  The cutoff's root is capped at 1e150 before it is
    squared: a cutoff of 1e300 lies above every panel edge, as any larger
    one would.
    """
    a_up, b_low, scale = (x[..., None] for x in np.broadcast_arrays(a_up, b_low, scale))
    edges = dist._chi2_over_f_quantile(dist._PANEL_EDGES, f)
    cutoff = np.minimum((a_up - b_low) / (2.0 * scale), 1e150) ** 2
    v, weights = dist._panel_rule(np.log(np.maximum(edges[0], np.minimum(edges, cutoff))))
    root = scale * np.exp(0.5 * v)
    weights = weights * np.exp(dist._log_scaled_chi2_density(np.exp(v), f) + v)
    inner = special.ndtr(a_up - root) - special.ndtr(b_low + root)
    val = np.clip((inner * weights).sum(axis=-1), 0.0, 1.0)
    return float(val) if val.ndim == 0 else val


def _conditional(m: Margins, tau1: float, exact: bool):
    """The conditional power of the margin interval ``m`` around the true
    effect ``tau1``, and its method: the Phillips integral (exact) or the
    one-sided tests at its finite bounds (approximate; the one test of a
    noninferiority margin).  Requires tau1 strictly inside ``m``."""
    upper, below = m.distances(tau1)
    if not exact:
        return core.one_sided_tests(upper, below), "approx"

    def power(se, crit, f):
        return _phillips_integral(upper / se, -below / se, crit, f)

    return power, "integral_exact"


def equiv_power_exact(k: TestKernel, m: Margins, n: float, alpha: float) -> PowerEstimate:
    """Equivalence power by conditioning on the variance estimate.

    Exact for the one-sample and equal-variance two-sample kernels; requires
    the true effect strictly inside the margin interval.
    """
    conditional, method = _conditional(m, k.tau1, True)
    return k.power(conditional, n, alpha, method)


def ts_unequal_equiv_power(
    s: TwoSampleSpec,
    m: Margins,
    n: float,
    alpha: float,
    exact: bool = True,
) -> PowerEstimate:
    """Equivalence power for the unequal-variance two-sample design.

    Conditions on the group variance ratio (an F statistic independent of the
    pooled chi-square scale).  The exact form integrates both; the
    approximate form integrates the ratio only.  One-sided margin pairs
    reduce it to the exact unequal-variance superiority/noninferiority power.
    """
    conditional, method = _conditional(m, s.mu1 - s.mu0, exact)
    return welch_power(s, conditional, n, alpha, method)

