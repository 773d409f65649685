"""Distribution kernel: the normal quantile, central/noncentral t and F,
one fixed quadrature rule and bracketed root finding.

Everything downstream (power formulas, sample-size inversion, equivalence
integrals) is built on the routines in this module, and each of them is
called by another module of the package.  The normal CDF the package needs
is ``scipy.special.ndtr``; the F and scaled chi-square densities are only
weights of the quadrature rule, as log densities.  The noncentral tails call
Boost's ufuncs in ``scipy.special._ufuncs`` directly, without the argument
parsing of ``scipy.stats``.  ``_nct_sf`` is the ufunc of that name clipped to
[0, 1], with the limits 0 and 1 at x = +-inf: ``stats.nct.sf`` bit for bit.
:func:`t_cdf` is its reflection, Pr[t(f, lam) <= x] = Pr[t(f, -lam) > -x].
``_f_sf``, the power of every exact two-sided t test, is the one tail
Pr[F(1, f, lam^2) > x] of ``_ncf_sf`` (the ufunc behind ``stats.ncf.sf``),
within about 1e-13 of the sum of the two t tails at lam and -lam.  Boost's F
tail is wrong at lam^2 = 0 exactly, where ``scipy.special.fdtrc`` gives the
central tail instead, and NaN at x = inf and x < 0, where the tail is 0 and
1.  Where a tail is NaN for arguments that are not (a noncentrality of 1e10 or
more), both raise :class:`DomainError` naming it.  ``scipy.special.nctdtr``
(behind ``stats.nct.cdf``) is not used: it returns NaN on part of the
(f, lam, x) range the power formulas reach.

Every integral the package computes is an expectation over a weight law, by
one rule: 16 Gauss-Legendre nodes in the log variable on each panel between
the law's quantiles at ``_PANEL_EDGES`` (1e-12 cut from each tail).
:func:`integrate` applies it to an F(f1, f2) law, for the outer conditional
integrals that have no library form (the Welch integral over the variance
ratio, the covariate-imbalance law and the outer layer of the nested
equivalence integrals).  The inner equivalence integral over the variance
scale applies it to chi2_f / f, with the edges clipped at the integrand's
positivity cutoff, for a whole batch of outer abscissae at once
(``equivalence._phillips_integral``).

:func:`find_root` is ``scipy.optimize.brentq`` behind the package's errors.

:func:`t_quantile`, :func:`t_cdf` and ``_f_sf`` broadcast over numpy arrays
in every argument (one ufunc call for the whole array, whose per-call
overhead dwarfs the per-element cost) and return a float for scalar input.
"""

from __future__ import annotations

import functools
import math
from typing import Callable

import numpy as np
from scipy import optimize, special
from scipy.special import _ufuncs

from .errors import BracketError, ConvergenceError, DomainError

__all__ = ["normal_quantile", "t_cdf", "t_quantile", "integrate", "find_root"]


# iteration cap of :func:`find_root`
_MAX_ROOT_ITER = 200


def _check(x, ok, name: str, domain: str):
    """``x`` as a float (or a float array) after checking that ``ok`` holds
    for every entry; the first entry that fails is named."""
    if not isinstance(x, (float, int)):
        x = np.asarray(x, dtype=float)
        bad = ~ok(x)
        if bad.any():
            x = x[bad].flat[0]
        elif x.ndim:
            return x
    x = float(x)
    if not ok(x):
        raise DomainError(f"{name} must {domain}, got {x!r}")
    return x


def _check_df(f, name: str = "df"):
    """``f`` after checking every entry is a positive finite real."""
    return _check(f, lambda f: np.isfinite(f) & (f > 0.0), name, "be a positive finite real")


def _check_prob_open(p, name: str = "p"):
    """``p`` after checking every entry lies in (0, 1)."""
    return _check(p, lambda p: (p > 0.0) & (p < 1.0), name, "lie strictly in (0, 1)")


def _scalar_or_array(x):
    x = np.asarray(x)
    return float(x) if x.ndim == 0 else x


def normal_quantile(p: float) -> float:
    """Standard normal quantile z_p for p in (0, 1)."""
    p = _check_prob_open(p)
    return float(special.ndtri(p))


def _log_scaled_chi2_density(xi: np.ndarray, f: float) -> np.ndarray:
    """Log density of chi2_f / f at xi > 0."""
    h = 0.5 * f
    return h * math.log(h) - special.gammaln(h) + (h - 1.0) * np.log(xi) - h * xi


def _log_f_density(u: np.ndarray, f1: float, f2: float) -> np.ndarray:
    """Log density of the central F(f1, f2) law at u > 0."""
    a, b = 0.5 * f1, 0.5 * f2
    lognorm = special.gammaln(a + b) - special.gammaln(a) - special.gammaln(b)
    return (
        lognorm
        + a * math.log(f1 / f2)
        + (a - 1.0) * np.log(u)
        - (a + b) * np.log1p(f1 * u / f2)
    )


def _chi2_over_f_quantile(p, f: float):
    """Quantile of chi2_f / f, elementwise in ``p``."""
    return 2.0 * special.gammaincinv(0.5 * f, p) / f


def _f_quantile(p, f1: float, f2: float):
    """Quantile of the central F(f1, f2) law, elementwise in ``p``.

    With W ~ Beta(f1/2, f2/2), F = (f2/f1) W/(1 - W).  Where W is above 1/2
    it is taken as 1 minus the quantile of 1 - W ~ Beta(f2/2, f1/2) at 1 - p,
    so that a far upper quantile keeps full precision.  Both beta quantiles
    are floored at 1e-100, which keeps F and the integrands finite at
    fractional d.f.; the mass cut off is below 1e-24 at d.f. >= 0.5.
    """
    w = np.maximum(special.betaincinv(0.5 * f1, 0.5 * f2, p), 1e-100)
    z = np.maximum(special.betaincinv(0.5 * f2, 0.5 * f1, 1.0 - p), 1e-100)
    near_one = w > 0.5
    return f2 * np.where(near_one, 1.0 - z, w) / (f1 * np.where(near_one, z, 1.0 - w))


# Panel edges of the fixed quadrature rule as probabilities of its weight law,
# 1e-12 cut from each tail, and the rule on each panel.
_PANEL_EDGES = np.array((
    1e-12, 1e-9, 1e-6, 1e-4, 1e-2, 0.1, 0.3, 0.5, 0.7, 0.9, 0.99,
    1 - 1e-4, 1 - 1e-6, 1 - 1e-9, 1 - 1e-12,
))
_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(16)


def _panel_rule(log_edges: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Abscissae and weights of 16 Gauss-Legendre nodes on each panel between
    consecutive ``log_edges`` (last axis), flattened over the panels."""
    half = 0.5 * np.diff(log_edges)[..., None]
    v = 0.5 * (log_edges[..., 1:] + log_edges[..., :-1])[..., None] + half * _GL_NODES
    shape = v.shape[:-2] + (-1,)
    return v.reshape(shape), (half * _GL_WEIGHTS).reshape(shape)


def integrate(fn: Callable[[np.ndarray], np.ndarray], f1: float, f2: float) -> float:
    """Expectation of ``fn(U)`` for U ~ F(f1, f2), by a fixed rule.

    16 Gauss-Legendre nodes in log u on each of the 14 panels between the F
    quantiles at ``_PANEL_EDGES``; the rule applies the F density and the
    Jacobian u itself.  ``fn`` is called once, with all 224 abscissae u in
    one array, and returns one value per abscissa.
    """
    f1 = _check_df(f1, "f1")
    f2 = _check_df(f2, "f2")
    v, weights = _panel_rule(np.log(_f_quantile(_PANEL_EDGES, f1, f2)))
    u = np.exp(v)
    return float(np.dot(weights * np.exp(_log_f_density(u, f1, f2) + v), fn(u)))


def find_root(fn: Callable[[float], float], lo: float, hi: float, tol: float) -> float:
    """Root of ``fn`` on [lo, hi] by Brent's method (``scipy.optimize.brentq``).

    Requires a sign change over the bracket; an endpoint where ``fn`` is zero
    is returned as is.  Each abscissa is evaluated once.  Stops when the root
    is resolved to ``tol``; raises :class:`ConvergenceError` with the last
    iterate attached after ``_MAX_ROOT_ITER`` iterations.
    """
    lo, hi = float(lo), float(hi)
    if not lo < hi:
        raise DomainError(f"find_root: need lo < hi, got [{lo}, {hi}]")
    fn = functools.cache(fn)
    fa, fb = float(fn(lo)), float(fn(hi))
    if fa == 0.0:
        return lo
    if fb == 0.0:
        return hi
    if not fa * fb < 0.0:
        raise BracketError(
            f"find_root: no sign change on [{lo}, {hi}] (f(lo)={fa:.6g}, f(hi)={fb:.6g})"
        )
    root, info = optimize.brentq(
        fn, lo, hi, xtol=tol, maxiter=_MAX_ROOT_ITER, full_output=True, disp=False
    )
    if not info.converged:
        raise ConvergenceError(
            f"find_root: no convergence to width {tol} in {_MAX_ROOT_ITER} iterations",
            best_estimate=root,
        )
    return root


def t_cdf(x, f, lam=0.0):
    """CDF of the t distribution with ``f`` d.f. and noncentrality ``lam``.

    ``f`` may be fractional.  Computed as the reflected upper tail
    Pr[t(f, -lam) > -x], which keeps the precision of small lower tails;
    non-finite ``x`` gives the limits 0 and 1.  Broadcasts over ``x``, ``f``
    and ``lam``; scalar arguments give a float.
    """
    f = _check_df(f)
    if not np.isfinite(lam).all():
        raise DomainError("t_cdf: noncentrality must be finite")
    if np.isnan(x).any():
        raise DomainError("t_cdf: x must not be NaN")
    return _scalar_or_array(_nct_sf(np.negative(x), f, np.negative(lam)))


def t_quantile(p, f):
    """Quantile of the central t(f) distribution; fractional ``f`` supported.

    Broadcasts over ``p`` and ``f``; scalar arguments give a float.
    """
    p = _check_prob_open(p)
    f = _check_df(f)
    return _scalar_or_array(special.stdtrit(f, p))


def _f_sf(x, f, lam_sq):
    """Upper tail Pr[F(1, f, lam_sq) > x] = Pr[|t(f, lam)| > sqrt(x)], lam^2 = lam_sq.

    The power of the two-sided t test at critical value sqrt(x), as one call
    of Boost's noncentral F tail (the ufunc behind ``stats.ncf.sf``).
    Broadcasts over ``x``, ``f`` and ``lam_sq``; scalar arguments give a float.
    """
    # below 1e-16 the tail is the central one to double precision; Boost's
    # is wrong at lam_sq = 0 (-0.947 at x = 3.84, f = 100) and from about
    # 1e-150 down (-0.30 at 1e-200, f = 1), and NaN at x = inf and x < 0
    central = np.less(lam_sq, 1e-16)
    tails = _ufuncs._ncf_sf(x, 1.0, f, np.where(central, 1.0, lam_sq))
    if central.any() or np.isnan(tails).any():
        tails = np.where(central, special.fdtrc(1.0, f, x), tails)
        tails = np.where(np.isposinf(x), 0.0, np.where(np.less(x, 0.0), 1.0, tails))
        tails = _defined(tails, (x, f, lam_sq), np.sqrt(lam_sq))
    return _scalar_or_array(tails)


def _nct_sf(x, f, lam):
    """Upper tail Pr[t(f, lam) > x]: the ufunc behind ``stats.nct.sf``,
    clipped to [0, 1] as that does, with its limits 0 and 1 at x = +-inf."""
    with np.errstate(over="ignore"):
        tails = np.clip(_ufuncs._nct_sf(x, f, lam), 0.0, 1.0)
    if np.isnan(tails).any():
        limit = np.isinf(x) & np.greater(f, 0.0) & ~np.isnan(lam)
        tails = _defined(np.where(limit, np.less(x, 0.0) * 1.0, tails), (x, f, lam), lam)
    return tails


def _defined(tails, args, lam):
    """``tails``, raising :class:`DomainError` where a tail is NaN though no
    argument is: scipy's noncentral tails are NaN once the noncentrality lam
    reaches about 1e10 in magnitude."""
    undefined = np.isnan(tails)
    for arg in args:
        undefined &= ~np.isnan(arg)
    if undefined.any():
        lam = np.broadcast_to(lam, undefined.shape)[undefined].flat[0]
        raise DomainError(
            f"the noncentral t tail is undefined at noncentrality {lam:.6g} "
            "(scipy computes it only below about 1e10 in magnitude)"
        )
    return tails
