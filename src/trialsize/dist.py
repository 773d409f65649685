"""Distribution kernel: normal, central/noncentral t and F, scaled chi-square,
adaptive quadrature and bracketed root finding.

Everything downstream (power formulas, sample-size inversion, equivalence
integrals) is built on the routines in this module.  Every noncentral tail is
``scipy.stats.nct.sf``: the t CDF by reflection, Pr[t(f, lam) <= x] =
Pr[t(f, -lam) > -x], and the F(1, f, lam^2) tail as the sum of the two t
tails.  ``scipy.special.nctdtr`` (behind ``stats.nct.cdf``) is not used: it
returns NaN on part of the (f, lam, x) range the power formulas reach.

:func:`integrate` remains for the conditional integrals that have no library
form (the equivalence integral conditioned on the variance, the Welch integral
over the variance ratio and the covariate-imbalance mixture).  Integrands
passed to it are evaluated on numpy arrays of abscissae and may return either
a vector (one value per point) or a matrix (one row per point) when several
integrals share the same weight function.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np
from scipy import special, stats

from .errors import BracketError, ConvergenceError, DomainError

__all__ = [
    "NumericSettings",
    "DEFAULT_SETTINGS",
    "normal_cdf",
    "normal_quantile",
    "t_cdf",
    "t_quantile",
    "scaled_chi2_density",
    "f_density",
    "integrate",
    "find_root",
]


@dataclass(frozen=True)
class NumericSettings:
    """All numeric tolerances used by the package, in one record.

    tail_mass        truncation mass for chi-square weight densities
    outer_tail_mass  truncation mass for F-law outer integrals
    power_tol        tolerance of single-integral power formulas
    double_tol       total budget for nested double integrals
    root_tol         bracket width at which find_root stops
    size_tol         resolution (in n) of sample-size inversion
    """

    tail_mass: float = 1e-12
    outer_tail_mass: float = 1e-10
    power_tol: float = 1e-8
    double_tol: float = 1e-7
    root_tol: float = 1e-9
    size_tol: float = 1e-6
    max_root_iter: int = 200
    max_quad_levels: int = 48
    max_quad_intervals: int = 65536


DEFAULT_SETTINGS = NumericSettings()


def _check_df(f: float, name: str = "df") -> float:
    f = float(f)
    if not math.isfinite(f) or f <= 0.0:
        raise DomainError(f"{name} must be a positive finite real, got {f!r}")
    return f


def _check_prob_open(p: float, name: str = "p") -> float:
    p = float(p)
    if not (0.0 < p < 1.0):
        raise DomainError(f"{name} must lie strictly in (0, 1), got {p!r}")
    return p


def normal_cdf(x: float) -> float:
    """Standard normal CDF Phi(x); saturates to 0/1 for extreme arguments."""
    x = float(x)
    if math.isnan(x):
        raise DomainError("normal_cdf: x must not be NaN")
    return float(special.ndtr(x))


def normal_quantile(p: float) -> float:
    """Standard normal quantile z_p for p in (0, 1)."""
    p = _check_prob_open(p)
    return float(special.ndtri(p))


def scaled_chi2_density(xi: float, f: float) -> float:
    """Density of xi = chi2_f / f at ``xi``; zero for xi <= 0."""
    f = _check_df(f)
    xi = float(xi)
    if xi <= 0.0:
        return 0.0
    return float(np.exp(_log_scaled_chi2_density(np.asarray(xi), f)))


def _log_scaled_chi2_density(xi: np.ndarray, f: float) -> np.ndarray:
    h = 0.5 * f
    return h * math.log(h) - special.gammaln(h) + (h - 1.0) * np.log(xi) - h * xi


def f_density(u: float, f1: float, f2: float) -> float:
    """Central F(f1, f2) density at ``u``; zero for u <= 0."""
    f1 = _check_df(f1, "f1")
    f2 = _check_df(f2, "f2")
    u = float(u)
    if u <= 0.0:
        return 0.0
    return float(np.exp(_log_f_density(np.asarray(u), f1, f2)))


def _log_f_density(u: np.ndarray, f1: float, f2: float) -> np.ndarray:
    a, b = 0.5 * f1, 0.5 * f2
    lognorm = special.gammaln(a + b) - special.gammaln(a) - special.gammaln(b)
    return (
        lognorm
        + a * math.log(f1 / f2)
        + (a - 1.0) * np.log(u)
        - (a + b) * np.log1p(f1 * u / f2)
    )


def _chi2_over_f_quantile(p: float, f: float) -> float:
    """Quantile of chi2_f / f."""
    return float(2.0 * special.gammaincinv(0.5 * f, p) / f)


def _f_quantile(p: float, f1: float, f2: float) -> float:
    """Quantile of the central F(f1, f2) law."""
    w = float(special.betaincinv(0.5 * f1, 0.5 * f2, p))
    w = min(w, 1.0 - 1e-16)
    return f2 * w / (f1 * (1.0 - w))


def integrate(
    fn: Callable[[np.ndarray], np.ndarray],
    lo: float,
    hi: float,
    tol: float,
    settings: NumericSettings = DEFAULT_SETTINGS,
):
    """Adaptive Simpson quadrature of ``fn`` over the finite interval [lo, hi].

    ``fn`` receives a numpy array of abscissae and must return a vector of
    values, or a matrix with one row per abscissa to evaluate several
    integrands that share the interval.  The absolute error is at most ``tol``
    on smooth integrands (the per-interval budget is split proportionally to
    interval width).  Raises :class:`ConvergenceError` with the best estimate
    attached if the refinement cap is hit.
    """
    lo, hi = float(lo), float(hi)
    if not (math.isfinite(lo) and math.isfinite(hi) and lo < hi):
        raise DomainError(f"integrate: need finite lo < hi, got [{lo}, {hi}]")
    if tol <= 0.0:
        raise DomainError("integrate: tol must be positive")
    total_width = hi - lo

    # Seed with several panels so a ridge between coarse probe points cannot
    # fool the first convergence estimate.
    edges = np.linspace(lo, hi, 9)
    a = edges[:-1]
    b = edges[1:]
    mid = 0.5 * (a + b)
    first = np.asarray(fn(np.concatenate([a, mid, b[-1:]])), dtype=float)
    scalar = first.ndim == 1
    if scalar:
        first = first[:, None]
    ncols = first.shape[1]

    def evaluate(x: np.ndarray) -> np.ndarray:
        y = np.asarray(fn(x), dtype=float)
        return y[:, None] if scalar else y

    k = a.size
    fa = first[:k]
    fm = first[k : 2 * k]
    fb = np.vstack([first[1:k], first[2 * k :]])
    s_est = (b - a)[:, None] / 6.0 * (fa + 4.0 * fm + fb)
    total = np.zeros(ncols)

    for _ in range(settings.max_quad_levels):
        lm = 0.5 * (a + mid)
        rm = 0.5 * (mid + b)
        fboth = evaluate(np.concatenate([lm, rm]))
        flm, frm = fboth[: a.size], fboth[a.size :]
        h12 = (b - a)[:, None] / 12.0
        s_left = h12 * (fa + 4.0 * flm + fm)
        s_right = h12 * (fm + 4.0 * frm + fb)
        s_two = s_left + s_right
        err = np.abs(s_two - s_est) / 15.0
        budget = tol * (b - a) / total_width
        with np.errstate(invalid="ignore"):
            done = np.nanmax(err, axis=1) <= budget
        if done.any():
            refined = s_two[done] + (s_two[done] - s_est[done]) / 15.0
            total += refined.sum(axis=0)
        keep = ~done
        if not keep.any():
            return float(total[0]) if scalar else total
        a, b_old, m_old = a[keep], b[keep], mid[keep]
        a = np.concatenate([a, m_old])
        b = np.concatenate([m_old, b_old])
        mid = np.concatenate([lm[keep], rm[keep]])
        fa = np.vstack([fa[keep], fm[keep]])
        fb = np.vstack([fm[keep], fb[keep]])
        fm = np.vstack([flm[keep], frm[keep]])
        s_est = np.vstack([s_left[keep], s_right[keep]])
        if a.size > settings.max_quad_intervals:
            break

    best = total + s_est.sum(axis=0)
    raise ConvergenceError(
        f"integrate: refinement cap reached with {a.size} active intervals",
        best_estimate=float(best[0]) if scalar else best,
    )


def find_root(
    fn: Callable[[float], float],
    lo: float,
    hi: float,
    tol: float,
    settings: NumericSettings = DEFAULT_SETTINGS,
) -> float:
    """Root of ``fn`` on [lo, hi] by bisection with secant acceleration.

    Requires a sign change over the bracket.  Alternating bisection steps
    guarantee the bracket halves at least every other iteration, so the
    iteration cap (default 200) is never binding for continuous functions.
    Fully deterministic.
    """
    lo, hi = float(lo), float(hi)
    if not lo < hi:
        raise DomainError(f"find_root: need lo < hi, got [{lo}, {hi}]")
    fa, fb = float(fn(lo)), float(fn(hi))
    if fa == 0.0:
        return lo
    if fb == 0.0:
        return hi
    if fa * fb > 0.0:
        raise BracketError(
            f"find_root: no sign change on [{lo}, {hi}] (f(lo)={fa:.6g}, f(hi)={fb:.6g})"
        )
    a, b = lo, hi
    for it in range(settings.max_root_iter):
        width = b - a
        if width <= tol:
            return 0.5 * (a + b)
        x = math.nan
        if it % 2 == 0 and fb != fa:
            x = b - fb * (b - a) / (fb - fa)
        if not (a + 1e-3 * width <= x <= b - 1e-3 * width):
            x = a + 0.5 * width
        fx = float(fn(x))
        if fx == 0.0:
            return x
        if fa * fx < 0.0:
            b, fb = x, fx
        else:
            a, fa = x, fx
    raise ConvergenceError(
        f"find_root: no convergence to width {tol} in {settings.max_root_iter} iterations",
        best_estimate=0.5 * (a + b),
    )


def t_cdf(
    x: float,
    f: float,
    lam: float = 0.0,
    settings: NumericSettings = DEFAULT_SETTINGS,
) -> float:
    """CDF of the t distribution with ``f`` d.f. and noncentrality ``lam``.

    ``f`` may be fractional.  Computed as the reflected upper tail
    Pr[t(f, -lam) > -x], which keeps the precision of small lower tails;
    non-finite ``x`` gives the limits 0 and 1.
    """
    f = _check_df(f)
    lam = float(lam)
    if not math.isfinite(lam):
        raise DomainError("t_cdf: noncentrality must be finite")
    x = float(x)
    if math.isnan(x):
        raise DomainError("t_cdf: x must not be NaN")
    return float(stats.nct.sf(-x, f, -lam))


def t_quantile(
    p: float, f: float, settings: NumericSettings = DEFAULT_SETTINGS
) -> float:
    """Quantile of the central t(f) distribution; fractional ``f`` supported."""
    p = _check_prob_open(p)
    f = _check_df(f)
    return float(special.stdtrit(f, p))


def _f_sf(x: float, f: float, lam_sq):
    """Upper tail Pr[F(1, f, lam_sq) > x] = Pr[|t(f, lam)| > sqrt(x)], lam^2 = lam_sq.

    The power of the two-sided t test at critical value sqrt(x).  Vectorised
    over ``lam_sq``: an array gives one tail per entry.
    """
    lam = np.sqrt(lam_sq)
    tails = stats.nct.sf(math.sqrt(x), f, np.multiply.outer((1.0, -1.0), lam)).sum(axis=0)
    return float(tails) if tails.ndim == 0 else tails
