"""Design-stage machinery for the repeated-measures mixed model (MMRM).

The longitudinal model with unstructured covariance is factored through the
LDL decomposition into per-visit regressions on covariates, treatment, and
earlier outcomes.  Under monotone dropout with per-arm retention schedules,
the analysis-stage small-sample variance estimate and Satterthwaite degrees
of freedom have closed-form expectations, which drive the power at the last
visit and the sample-size chain.

All subject counts at the design stage (m_j = n * pooled retention) are kept
fractional; sizes are rounded to integers only where they are printed.

The power formulas are plug-in values: the variance terms and d.f. are
evaluated at these expected retained counts, not averaged over the random
counts that dropout produces in a trial.  Because 1/m is convex in m, the
count-averaged power sits below the plug-in value in small samples;
:func:`dropout_averaged_power` computes that average for any of the power
formulas.

The design-stage quantities and the power formulas (:func:`_last_visit_power`,
the body of the family's power rows and of the two simplified formulas) are
array operations over the visits, and they broadcast over a leading batch
axis of retention schedules (``MmrmDesign.retention`` as a ``(B, 2, p)``
array): a batch costs one t-quantile and one noncentral tail call, and
entries where the formula is undefined come back NaN instead of raising.  The dropout average
evaluates its points in such batches.
"""

from __future__ import annotations

import copy
import functools
import math
from dataclasses import dataclass, field, replace

import numpy as np
from scipy.linalg import lapack
from scipy.special import _ufuncs

from . import core, dist
from .core import PowerEstimate, SizeModel
from .equivalence import _conditional as _equivalence
from .errors import DecompositionError, DomainError

__all__ = [
    "MmrmDesign",
    "LdlFactors",
    "MmrmDerived",
    "ldl_decompose",
    "mmrm_derived",
    "mmrm_power_approx",
    "mmrm_equiv_power_approx",
    "DropoutAverage",
    "dropout_averaged_power",
    "mmrm_sizing",
    "compound_symmetry",
    "ar1",
    "toeplitz",
]


def compound_symmetry(p: int, variance: float, covariance: float) -> np.ndarray:
    """Compound-symmetry covariance: constant variance and covariance."""
    return toeplitz(np.where(np.arange(p) == 0, float(variance), float(covariance)))


def ar1(p: int, variance: float, corr: float) -> np.ndarray:
    """AR(1) covariance: variance * corr^|j-k|."""
    return toeplitz(float(variance) * float(corr) ** np.arange(p))


def toeplitz(first_row) -> np.ndarray:
    """Toeplitz covariance from its first row."""
    r = np.asarray(first_row, dtype=float)
    idx = np.arange(r.size)
    return r[np.abs(idx[:, None] - idx[None, :])]


@dataclass(frozen=True)
class LdlFactors:
    """Unit-lower-triangular L and positive diagonal lam with L diag(lam) L' = Sigma.

    ``lam`` holds the per-visit innovation variances.
    """

    l: np.ndarray
    lam: np.ndarray


def ldl_decompose(sigma: np.ndarray) -> LdlFactors:
    """LDL' factorization of a symmetric positive-definite matrix.

    From the Cholesky factor C (LAPACK ``dpotrf``): lam = diag(C)^2 and
    L = C / diag(C).
    """
    s = np.asarray(sigma, dtype=float)
    if s.ndim != 2 or s.shape[0] != s.shape[1]:
        raise DomainError(f"covariance must be a square matrix, got shape {s.shape}")
    if not np.isfinite(s).all():
        raise DomainError("covariance matrix must be finite")
    if not (np.abs(s - s.T) <= 1e-8 * max(1.0, np.abs(s).max())).all():
        raise DomainError("covariance matrix must be symmetric")
    chol, info = lapack.dpotrf(s, lower=1, clean=1)
    # a positive info is the order of the first leading minor that is not
    # positive definite (the pivots from there on are not computed); a pivot
    # before it may still fail the relative threshold
    done = info - 1 if info > 0 else s.shape[0]
    lam = np.diag(chol)[:done] ** 2
    failing = np.flatnonzero(lam <= 1e-12 * np.maximum(1.0, np.diag(s)[:done]))
    if failing.size or info > 0:
        order = failing[0] + 1 if failing.size else info
        raise DecompositionError(f"leading minor of order {order} is not positive definite")
    return LdlFactors(l=chol / np.diag(chol), lam=lam)


def _check_schedules(r: np.ndarray, batch: bool) -> None:
    """Retention checks over a (B, 2, p) array of schedules; the first fault,
    in schedule, arm and visit order, is reported."""
    outside = ~((r > 0.0) & (r <= 1.0))
    rises = np.zeros_like(outside)
    rises[..., 1:] = r[..., 1:] > r[..., :-1] + 1e-12
    faults = np.argwhere(outside | rises)
    if faults.size:
        b, g, j = faults[0]
        where = f"schedule {b} arm {g}" if batch else f"arm {g}"
        if outside[b, g, j]:
            raise DomainError(
                f"retention must lie in (0, 1]; {where} visit {j + 1} has {float(r[b, g, j])}"
            )
        raise DomainError(
            f"retention must be nonincreasing (monotone dropout); {where} rises at visit {j + 1}"
        )


@dataclass(frozen=True)
class MmrmDesign:
    """Design inputs: covariance, per-arm retention schedules, allocation,
    covariate count, and the last-visit treatment effect under H1/H0.

    ``retention`` is one schedule (two per-arm tuples) or a batch of B
    schedules as a ``(B, 2, p)`` array; the power formulas evaluate a batch
    entry by entry.  ``factors`` is the LDL factorization of ``sigma``, made
    once here; a covariance that is not positive definite raises
    :class:`DecompositionError`.
    """

    sigma: np.ndarray
    retention: tuple[tuple[float, ...], tuple[float, ...]] | np.ndarray
    gamma0: float
    q: int
    tau_p1: float
    tau_p0: float = 0.0
    factors: LdlFactors = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        sig = np.asarray(self.sigma, dtype=float)
        object.__setattr__(self, "sigma", sig)
        object.__setattr__(self, "factors", ldl_decompose(sig))
        p = sig.shape[0]
        if isinstance(self.retention, np.ndarray) and self.retention.ndim == 3:
            retention = schedules = self.retention.astype(float)
            if schedules.shape[1:] != (2, p):
                raise DomainError(
                    f"a retention batch must have shape (B, 2, {p}), got {schedules.shape}"
                )
        else:
            retention = tuple(tuple(float(x) for x in arm) for arm in self.retention)
            if len(retention) != 2:
                raise DomainError("retention must list two arms (control, experimental)")
            for g, arm in enumerate(retention):
                if len(arm) != p:
                    raise DomainError(
                        f"arm {g} retention has {len(arm)} visits, covariance has {p}"
                    )
            schedules = np.array(retention)[None]
        _check_schedules(schedules, batch=retention is schedules)
        object.__setattr__(self, "retention", retention)
        core.check_allocation(self.gamma0)
        core.check_covariate_count(self.q)

    @property
    def p(self) -> int:
        return self.sigma.shape[0]

    @property
    def gamma1(self) -> float:
        return 1.0 - self.gamma0

    @property
    def q_star(self) -> int:
        return self.q + 2

    @property
    def pooled_retention(self) -> np.ndarray:
        r = np.asarray(self.retention, dtype=float)
        return self.gamma0 * r[..., 0, :] + self.gamma1 * r[..., 1, :]

    @property
    def varpi(self) -> np.ndarray:
        """Retention-adjusted variance weights: sum_g 1/(gamma_g * pi_gj)."""
        r = np.asarray(self.retention, dtype=float)
        return 1.0 / (self.gamma0 * r[..., 0, :]) + 1.0 / (self.gamma1 * r[..., 1, :])

    @property
    def effect(self) -> float:
        return self.tau_p1 - self.tau_p0


@dataclass(frozen=True)
class MmrmDerived:
    """Expected analysis-stage quantities at a given (possibly fractional) n.

    For a batch of retention schedules every field gains a leading batch axis
    (the scalars become arrays), and entries whose formulas are undefined are
    NaN.
    """

    v_tau: float
    v_tau_star: float
    f: float
    f_o: float


def mmrm_derived(d: MmrmDesign, n: float) -> MmrmDerived:
    """Expected variance terms and Satterthwaite d.f.

    Requires n * pooled_retention_j > q* + j at every visit so that all
    denominators stay positive.  A single schedule that breaks this raises
    :class:`DomainError`; in a batch the entry comes back NaN.
    """
    p = d.p
    q, qs = d.q, d.q_star
    pibar = d.pooled_retention
    varpi = d.varpi
    m = n * pibar
    visit = np.arange(1, p + 1)
    defined = (m > qs + visit).all(axis=-1)
    if pibar.ndim == 1 and not defined:
        j = int(np.argmin(m > qs + visit))
        raise DomainError(
            f"retained count n*pibar = {m[j]:.3f} at visit {j + 1} must exceed "
            f"q* + visit = {qs + j + 1}"
        )
    # NaN propagates through every denominator below without a warning
    m = np.where(defined[..., None], m, np.nan)
    # earlier[t, j] = 1 for t < j: x @ earlier sums x over the visits before
    # j, x @ earlier.T over the visits after j
    earlier = np.tri(p, k=-1).T

    lp = d.factors.l[-1, :]
    lam = d.factors.lam
    info = lp**2 * lam
    v_tilde = (varpi / n) * (1.0 + q / (m - q - 3.0))
    m_hist = m - qs - visit  # m_j - q* - j (1-based visits)
    m_free = m - qs

    # expected squared loading times innovation variance
    ratio = info / m_hist
    c = (1.0 - (visit - 1) / m_free) * (info + ratio @ earlier.T)

    # sum_{t < j} (v_j - v_t)
    spread = ((v_tilde[..., :, None] - v_tilde[..., None, :]) * earlier.T).sum(axis=-1)
    v_tau = (info * v_tilde).sum(axis=-1) + (ratio * spread).sum(axis=-1)
    cv = (c * v_tilde).sum(axis=-1)
    v_tau_star = cv + (2.0 * c * spread / m_free).sum(axis=-1)
    denom = (c**2 * v_tilde**2 / m_free).sum(axis=-1) + (
        2.0 * c * ((c * v_tilde**2) @ earlier) / m_hist
    ).sum(axis=-1)
    f = cv**2 / denom

    # Fraction of observed information among subjects retained at visit 1:
    # the covariate-inflation factors cancel in the ratio, leaving the
    # retention weights.
    rho_o = info.sum() * varpi[..., 0] / (info * varpi).sum(axis=-1)
    f_o = m_free[..., 0] * rho_o

    scalar = pibar.ndim == 1
    return MmrmDerived(
        v_tau=float(v_tau) if scalar else v_tau,
        v_tau_star=float(v_tau_star) if scalar else v_tau_star,
        f=float(f) if scalar else f,
        f_o=float(f_o) if scalar else f_o,
    )


def _last_visit_power(
    d: MmrmDesign,
    conditional,
    n: float,
    alpha: float,
    first_order: bool = False,
) -> PowerEstimate:
    """The power ``conditional`` of the last-visit Wald test, by the one power
    body without an outer law.  se^2 is the expected small-sample variance
    and f the expected Satterthwaite d.f., or with ``first_order`` the
    first-order variance and the observed-information fraction d.f.

    Evaluated at the expected retained counts n * pooled retention; it does
    not average over random dropout.  A batch of schedules is evaluated in
    one call on the entries where the d.f. is defined; ``value`` is then an
    array, NaN elsewhere.
    """

    def given(_):
        der = mmrm_derived(d, n)
        variance, f = (der.v_tau, der.f_o) if first_order else (der.v_tau_star, der.f)
        return np.sqrt(variance), f

    def power(se, f):
        # one call on the entries where the d.f. is defined: all of a single
        # schedule's (mmrm_derived raises otherwise), some of a batch's
        se, f = np.asarray(se), np.asarray(f)
        ok = ~np.isnan(f)
        value = np.full(f.shape, np.nan)
        if ok.any():
            crit = dist.t_quantile(1.0 - alpha / 2.0, f[ok])
            value[ok] = conditional(se[ok], crit, f[ok])
        return float(value) if value.ndim == 0 else value

    return core.expected_power(power, given, n, alpha=alpha, method="approx")


def mmrm_power_approx(d: MmrmDesign, n: float, alpha: float) -> PowerEstimate:
    """Simplified power of the two-sided last-visit test, using the
    first-order variance and the observed-information fraction d.f.; only
    slightly less accurate than the paper's main formula (the family's
    ``main`` row).  Batches as :func:`_last_visit_power` does."""
    return _last_visit_power(d, core.two_tailed(d.effect), n, alpha, first_order=True)


def mmrm_equiv_power_approx(d: MmrmDesign, margins, n: float, alpha: float) -> PowerEstimate:
    """Equivalence power with the first-order variance and the
    observed-information fraction d.f., the counterpart of
    :func:`mmrm_power_approx`: both one-sided tests must reject.

    With every subject retained both reduce to the last-visit covariate
    adjusted t test (variance sigma_pp * E[v_x], n - q* d.f.), which the
    expected small-sample variance and d.f. of the family's ``equivalence``
    row do not.
    """
    conditional, _ = _equivalence(margins, d.tau_p1, False)
    return _last_visit_power(d, conditional, n, alpha, first_order=True)


@dataclass(frozen=True)
class DropoutAverage:
    """A plug-in power averaged over the random retained counts.

    ``value`` is ``plug_in`` (the power at the expected counts) plus
    ``expansion`` (the second-order term 1/2 sum_ab H_ab Cov_ab) plus a
    quasi-Monte Carlo estimate of the rest, whose standard error is
    ``std_error``.
    """

    value: float
    plug_in: float
    expansion: float
    std_error: float


# central-difference step in the retention fractions; schedules must step
# down by more than twice this so that perturbed schedules stay monotone
_FD_STEP = 0.01
# target standard error of the averaged power, independent scramblings used
# to estimate it, the cap on points per scrambling, and the fixed seed that
# makes the average reproducible
_AVERAGE_TOL = 1e-4
_SCRAMBLES = 8
_MAX_POINTS = 2**13
_AVERAGE_SEED = 0


@functools.cache
def _scramblings(dim: int) -> tuple:
    """The ``_SCRAMBLES`` scrambled Sobol engines of dimension ``dim`` from
    ``_AVERAGE_SEED``, built once per dimension.  Callers draw from deep
    copies, so these are never advanced."""
    from scipy.stats import qmc  # here, so that importing the CLI loads no scipy.stats

    return tuple(
        qmc.Sobol(d=dim, scramble=True, rng=rng)
        for rng in np.random.default_rng(_AVERAGE_SEED).spawn(_SCRAMBLES)
    )


def dropout_averaged_power(power_at, d: MmrmDesign, n_per_group) -> DropoutAverage:
    """Expected value of the plug-in power ``power_at(design, n)`` over random
    monotone dropout in a trial with integer arms ``n_per_group``.

    Each subject of arm g is retained at visit j with probability pi_gj
    (nonincreasing in j), so the retained counts c_gj are nested binomials:
    c_gj ~ Bin(c_g,j-1, pi_gj / pi_g,j-1).  The power formulas evaluate the
    variance terms at the expected counts; this averages them over the
    counts instead, with allocation gamma0 = n_0 / n.

    Computed as the plug-in value, plus 1/2 sum_ab H_ab Cov_ab with H the
    Hessian in the retained fractions r_gj = c_gj / n_g (central differences)
    and Cov(r_gj, r_gk) = pi_g,max(j,k) (1 - pi_g,min(j,k)) / n_g within an
    arm (0 across arms), plus the mean remainder over the quadratic model at
    scrambled Sobol draws of the counts.  Points are doubled until the
    standard error across independent scramblings is below 1e-4 (0.01
    percentage points) or the cap is reached.  Count patterns at which the
    formula is undefined (too few retained subjects) are left out.

    ``power_at`` is called once with the design itself, for the plug-in
    value (an undefined design raises there), and otherwise with a batch:
    a design whose ``retention`` is a ``(B, 2, p)`` array of schedules, for
    which it returns an array of B powers, NaN where the formula is
    undefined.  The family's MMRM power rows, each bound anew to the design
    it is passed, and the simplified formulas do both.  There is one batch
    for the finite-difference stencil and one per Sobol round, all
    scramblings together.  A round's batch holds each distinct schedule
    once; its power is shared by every point that drew it.  The scrambled
    engines depend only on the dimension 2p, so they are built once per
    dimension and each call draws from fresh copies.
    """
    n_g = tuple(int(v) for v in n_per_group)
    n = sum(n_g)
    d = replace(d, gamma0=n_g[0] / n)
    base = np.asarray(d.retention, dtype=float)
    p = d.p
    arm, visit = np.nonzero(base < 1.0)  # the free fractions, arm by arm
    k = arm.size

    def evaluate(schedules: np.ndarray) -> np.ndarray:
        if not len(schedules):
            return np.empty(0)
        return np.asarray(power_at(replace(d, retention=schedules), n), dtype=float)

    p0 = float(power_at(d, n))

    # central differences: +step and -step in each free fraction, then the
    # four corners (++, +-, -+, --) of each pair within an arm
    a, b = np.array(
        [(i, j) for i in range(k) for j in range(i + 1, k) if arm[i] == arm[j]], dtype=int
    ).reshape(-1, 2).T
    step = _FD_STEP * np.eye(k)
    moves = np.concatenate([
        step, -step,
        step[a] + step[b], step[a] - step[b], -step[a] + step[b], -step[a] - step[b],
    ])
    stencil = np.repeat(base[None], len(moves), axis=0)
    stencil[:, arm, visit] += moves
    values = evaluate(stencil)
    if np.isnan(values).any():
        # the single-schedule call names the visit that leaves the domain
        power_at(replace(d, retention=tuple(map(tuple, stencil[np.isnan(values)][0]))), n)
        raise DomainError("the finite-difference stencil leaves the power formula's domain")
    up, down, corners = values[:k], values[k : 2 * k], values[2 * k :].reshape(4, -1)
    grad = (up - down) / (2.0 * _FD_STEP)
    hess = np.diag((up - 2.0 * p0 + down) / _FD_STEP**2)
    hess[a, b] = hess[b, a] = (
        corners[0] - corners[1] - corners[2] + corners[3]
    ) / (4.0 * _FD_STEP**2)
    late, early = np.maximum.outer(visit, visit), np.minimum.outer(visit, visit)
    cov = np.where(
        arm[:, None] == arm[None, :],
        base[arm[:, None], late] * (1.0 - base[arm[:, None], early])
        / np.asarray(n_g, dtype=float)[arm][:, None],
        0.0,
    )
    expansion = 0.5 * float(np.sum(hess * cov))

    # conditional retention probabilities pi_gj / pi_g,j-1
    step_prob = base / np.concatenate([np.ones((2, 1)), base[:, :-1]], axis=1)
    samplers = copy.deepcopy(_scramblings(2 * p))
    sums = np.zeros(_SCRAMBLES)
    counts = np.zeros(_SCRAMBLES)
    batch, drawn = 16, 0
    while True:
        u = np.stack([sampler.random(batch) for sampler in samplers])
        u = u.reshape(_SCRAMBLES, batch, 2, p)
        retained = np.empty_like(u)
        for g in range(2):
            c = np.full((_SCRAMBLES, batch), float(n_g[g]))
            for j in range(p):
                # the ufunc of stats.binom.ppf, which is 0 at q = 0 where
                # binom.ppf is -1: either count drops the schedule below
                c = _ufuncs._binom_ppf(u[..., g, j], c, step_prob[g, j])
                retained[..., g, j] = c / n_g[g]
        retained = retained.reshape(-1, 2, p)
        scramble = np.repeat(np.arange(_SCRAMBLES), batch)
        # a zero retained count is no schedule; an undefined formula is NaN
        kept = np.all(retained > 0.0, axis=(1, 2))
        retained, scramble = retained[kept], scramble[kept]
        # each distinct schedule once: its rows' bytes as one void scalar
        rows = retained.reshape(len(retained), -1)
        keys = rows.view(np.dtype((np.void, rows.itemsize * rows.shape[1])))[:, 0]
        _, first, inverse = np.unique(keys, return_index=True, return_inverse=True)
        values = evaluate(retained[first])[inverse]
        ok = ~np.isnan(values)
        delta = retained[ok][:, arm, visit] - base[arm, visit]
        model = p0 + delta @ grad + 0.5 * np.einsum("mi,ij,mj->m", delta, hess, delta)
        sums += np.bincount(scramble[ok], weights=values[ok] - model, minlength=_SCRAMBLES)
        counts += np.bincount(scramble[ok], minlength=_SCRAMBLES)
        drawn += batch
        means = sums / counts
        std_error = float(np.std(means, ddof=1) / math.sqrt(_SCRAMBLES))
        if std_error <= _AVERAGE_TOL or drawn >= _MAX_POINTS:
            break
        batch = drawn
    return DropoutAverage(
        value=p0 + expansion + float(np.mean(means)),
        plug_in=p0,
        expansion=expansion,
        std_error=std_error,
    )


def mmrm_sizing(d: MmrmDesign) -> SizeModel:
    """The size chain's model for the last-visit comparison: v is the
    asymptotic unit variance, C corrects a size for the covariates and the
    retention, rho = f/(n pibar_1 - q*) with f the expected Satterthwaite d.f.
    of :func:`mmrm_derived`, and the two-step d.f. is (n - q*) rho."""
    pibar, varpi = d.pooled_retention, d.varpi
    contrib = d.factors.l[-1, :] ** 2 * d.factors.lam * varpi
    unit_var = float(contrib.sum())
    b = contrib / unit_var
    q, qs, p = d.q, d.q_star, d.p
    visit = np.arange(p)

    def correct(n: float) -> float:
        if not np.all(n * pibar > 2.0):
            raise DomainError(f"size {n:.3f} too small for the retention correction")
        # d_j = 1 + q/(m_j - 2) and e_j = sum_{t <= j} (d_j - varpi_t d_t / varpi_j)
        d_j = 1.0 + q / (n * pibar - 2.0)
        e_j = ((d_j[:, None] - varpi[None, :] * d_j[None, :] / varpi[:, None]) * np.tri(p)).sum(
            axis=-1
        )
        return n * float(np.sum(b * (d_j + e_j / (n * pibar - visit))))

    @functools.cache
    def rho_at(n: float) -> float:
        return mmrm_derived(d, n).f / (n * pibar[0] - qs)

    return SizeModel(
        v=unit_var,
        rho_at=rho_at,
        df_at=lambda n: (n - qs) * rho_at(n),
        min_n=max((qs + j + 1.0) / pibar[j] for j in range(p)),
        allocation=(d.gamma0, d.gamma1),
        correct=correct,
    )
