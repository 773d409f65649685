"""Seeded Monte Carlo trial simulator and analysis estimators.

Every replicate draws from its own counter-based substream (Philox keyed by
the scenario seed, counter = replicate_index << 128; Salmon et al. 2011,
"Parallel random numbers: as easy as 1, 2, 3"), so results are bit-identical
for a fixed seed regardless of chunking or parallelism.  Each engine call
builds one Philox and, per replicate, writes that counter, the output-buffer
position and the buffered-half flag into numpy's Philox state in place
rather than building a new generator or assigning a state dict; the stream
is the same.  Those writes go through ctypes views of the state struct, and
the first engine call of a process checks the struct's layout before any
write.  Only the raw draws run per replicate, into chunk arrays; factor
levels, dropout patterns, means and covariate columns are computed once per
chunk.  Draw order within a replicate is fixed per design family:

* one-sample / two-sample / crossover:  one standard-normal block
* covariate-adjusted and repeated measures:  baseline normals, factor
  uniforms, dropout uniforms (repeated measures only), error normals
  (n x p, row-major; p = 1 for covariate adjustment)

One generator, ``_trials``, draws both: a covariate-adjusted trial is the
one-visit repeated-measures trial without a dropout model.

Analyses mirror the estimators the power formulas target: pooled and Welch
t tests, least-squares covariate adjustment, and the factored per-visit
regressions with the small-sample variance estimate and Satterthwaite
degrees of freedom for repeated measures.  ``simulate_power`` runs every
design family through one loop: the engine named in the family's record
(``families.FAMILIES``) draws and analyses a chunk of replicates in batch,
then the loop applies the decision rule.
Covariate adjustment is the one-visit case of the repeated-measures fit, and
both run one least-squares body, ``_fit_visits``: per visit, one sweep of an
augmented Gram matrix over the whole chunk.  The sweep skips a covariate
column that adds nothing to the rank (e.g. an empty factor level in a tiny
trial), which is the generalized-inverse fit on the kept columns, so such a
replicate stays in the batch.  ``analyze_mmrm`` is that body for one
dataset, and ``analyze_ancova`` is ``analyze_mmrm`` with one visit.
Genuinely unanalyzable replicates (too few completers at a visit to fit its
regression) are counted as recorded failures and excluded from the
denominator.  The run aborts if failures
exceed 0.1% of replicates: beyond that, exclusion could bias the estimate by
a nontrivial fraction of its Monte Carlo standard error.
"""

from __future__ import annotations

import ctypes
import math
import time
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
from scipy import special

from .core import check_alpha
from .designs import satterthwaite_df
from .equivalence import Margins
from .errors import DomainError, InsufficientDataError, SimulationFailureError
from .families import family_of

__all__ = [
    "FactorSpec",
    "ScenarioSpec",
    "SimReport",
    "AncovaFit",
    "MmrmFit",
    "simulate_power",
    "analyze_ancova",
    "analyze_mmrm",
]

_CHUNK = 4096
_FAILURE_CAP = 1e-3
_RANK_TOL = 1e-9

# numpy's philox_state (numpy/random/src/philox/philox.h, since numpy 1.17):
# a pointer to the four 64-bit counter words first, then the key pointer,
# ``int buffer_pos`` at byte 16, the four buffered words and ``int
# has_uint32`` at byte 56.  ``_check_layout`` confirms it once per process.
_BUFFER_POS = 16
_HAS_UINT32 = 56
_layout_checked = False


@dataclass(frozen=True)
class FactorSpec:
    """Categorical prognostic factor: level probabilities and level effects.

    The last level is the reference in the analysis (the first len-1 levels
    get indicator columns); the effect enters the outcome mean directly.
    """

    probs: tuple[float, ...]
    effects: tuple[float, ...]

    def __post_init__(self):
        if len(self.probs) != len(self.effects):
            raise DomainError("factor probs and effects must have equal length")
        if len(self.probs) < 2:
            raise DomainError("a factor needs at least two levels")
        if any(not p > 0.0 for p in self.probs) or not abs(sum(self.probs) - 1.0) <= 1e-9:
            raise DomainError("factor probabilities must be positive and sum to 1")

    @property
    def n_dummies(self) -> int:
        return len(self.probs) - 1


@dataclass(frozen=True)
class ScenarioSpec:
    """Generator configuration for one simulated trial design.

    ``design`` fixes the analysis and, through its family, the engine; the
    remaining fields parameterize data generation only (they do not move the
    design-stage power).  For covariate-adjusted designs the implied
    covariate count (baseline plus factor dummies) must match the design's q.
    """

    design: object  # a design of one of ``families.FAMILIES``
    replicates: int = 0  # 0 -> family default
    seed: int = 20240801
    intercept: float = 0.0
    baseline_effect: float | None = None
    factor: FactorSpec | None = None
    visit_intercepts: tuple[float, ...] | None = None
    visit_baseline_effects: tuple[float, ...] | None = None
    visit_effects: tuple[float, ...] | None = None
    period_effect: float = 0.0

    def __post_init__(self):
        if self.replicates < 0:
            raise DomainError("replicate count must be nonnegative (0 selects the family default)")
        _check_seed(self.seed)
        family_of(self.design).check_generator(self)


@dataclass(frozen=True)
class SimReport:
    """Empirical rejection rate with its binomial standard error."""

    rejections: int
    replicates: int
    power_hat: float
    std_error: float
    seed: int
    wall_time: float
    failures: int = 0


@dataclass(frozen=True)
class AncovaFit:
    tau_hat: float
    sigma_hat_sq: float
    v_x: float
    df: float


@dataclass(frozen=True)
class MmrmFit:
    """Factored-regression fit: per-visit coefficients and the last-visit
    treatment effect with its small-sample variance and d.f."""

    theta: tuple[np.ndarray, ...]
    sigma_hat_sq: np.ndarray
    l_hat: np.ndarray
    tau_hat: float
    kr_variance: float
    satterthwaite_df: float
    v_xj: np.ndarray
    m_j: np.ndarray
    a_j: np.ndarray
    a_quad: np.ndarray


def _check_seed(seed: int) -> int:
    """``seed`` after checking it is a Philox key, an integer in [0, 2**128)."""
    if not 0 <= seed < 2**128:
        raise DomainError(f"seed must lie in [0, 2**128), got {seed}")
    return seed


def _state_views(bit_generator: np.random.Philox):
    """ctypes views of a Philox's four counter words, its output-buffer
    position and its buffered-half flag, at the offsets of ``_BUFFER_POS``
    and ``_HAS_UINT32``.  They read and write numpy's state in place, and
    are valid while ``bit_generator`` lives."""
    address = bit_generator.ctypes.state_address
    counter = (ctypes.c_uint64 * 4).from_address(ctypes.c_void_p.from_address(address).value)
    return (
        counter,
        ctypes.c_int.from_address(address + _BUFFER_POS),
        ctypes.c_int.from_address(address + _HAS_UINT32),
    )


def _check_layout() -> None:
    """Check once per process that the views read what numpy's state dict
    sets: a probe Philox gets counter (1, 2, 3, 4), buffer position 3 and a
    buffered half through its dict, and the views must read them back.
    Raises ``SimulationFailureError`` naming numpy's version otherwise; it
    writes nothing."""
    global _layout_checked
    if _layout_checked:
        return
    probe = np.random.Philox(key=0)
    state = probe.state
    state["state"]["counter"] = np.arange(1, 5, dtype=np.uint64)
    state["buffer_pos"] = 3
    state["has_uint32"] = 1
    probe.state = state
    counter, buffer_pos, has_uint32 = _state_views(probe)
    read = (tuple(counter), buffer_pos.value, has_uint32.value)
    if read != ((1, 2, 3, 4), 3, 1):
        raise SimulationFailureError(
            f"numpy {np.__version__} does not lay out its Philox state as the substream reset "
            f"expects: counter, buffer position and buffered-half flag set to "
            f"((1, 2, 3, 4), 3, 1) read back as {read}"
        )
    _layout_checked = True


def _philox(seed: int):
    """One engine call's bit generator, its ``Generator`` and the views of its
    state (``_state_views``) that ``_substream`` writes per replicate, after
    ``_check_layout``."""
    _check_layout()
    bit_generator = np.random.Philox(key=seed)
    return bit_generator, np.random.Generator(bit_generator), *_state_views(bit_generator)


def _substream(philox, index: int) -> np.random.Generator:
    """Replicate ``index``'s stream: Philox keyed by the seed at counter
    ``index << 128``, the stream of a fresh
    ``Generator(Philox(key=seed, counter=index << 128))``.

    ``philox`` comes from ``_philox``, whose layout check has passed.  The
    reset writes all four counter words in place, because draws move the
    low word, and empties the output buffer and the buffered 32-bit half.
    The returned generator is the same object for every index and is valid
    until the next reset.
    """
    _, generator, counter, buffer_pos, has_uint32 = philox
    counter[0] = counter[1] = counter[3] = 0
    counter[2] = index
    buffer_pos.value = 4
    has_uint32.value = 0
    return generator


def _se_hat(p: float, n: int) -> float:
    return math.sqrt(max(p * (1.0 - p), 0.0) / n)


def _decide(
    est: np.ndarray,
    se: np.ndarray,
    df: float | np.ndarray,
    alpha: float,
    objective: Margins,
    tau0: float,
) -> np.ndarray:
    """Confidence-interval decision rule shared by all objectives: the interval
    excludes tau0 (superiority) or lies inside the margins (noninferiority's
    have one infinite bound).  ``df`` is the engine's: one float, whose t
    quantile is taken once, or one d.f. per replicate."""
    crit = special.stdtrit(df, 1.0 - alpha / 2.0)
    if objective.kind == "superiority":
        return np.abs(est - tau0) > crit * se
    return (est - crit * se > objective.lower) & (est + crit * se < objective.upper)


# ---------------------------------------------------------------------------
# the least-squares fit


class _VisitFits(NamedTuple):
    """The factored regressions of a batch of replicates.

    Per replicate and visit: ``m`` completers, ``rank`` kept covariate
    columns, ``kept`` which of them (intercept, covariates, treatment) and
    ``history`` whether every earlier visit's pivot was kept.  ``est``, its
    variance ``kr`` and ``df`` are NaN where ``ok`` is False, and where the
    variance or d.f. is not a positive finite number.  The fields
    after ``history`` hold the ``ok`` replicates only; visit j's coefficients
    on its kept covariate columns and on y_1 .. y_{j-1} are
    ``coef[:, j, :qs + j]`` at the kept positions.
    """

    ok: np.ndarray
    est: np.ndarray
    kr: np.ndarray
    df: np.ndarray
    m: np.ndarray
    rank: np.ndarray
    kept: np.ndarray
    history: np.ndarray
    coef: np.ndarray
    sigma_sq: np.ndarray
    v_xj: np.ndarray
    l_hat: np.ndarray
    a: np.ndarray
    a_quad: np.ndarray


def _sweep(s: np.ndarray, k: int, keep: np.ndarray) -> None:
    """Sweep pivot ``k`` of the symmetric matrices ``s`` (count, K, K) in
    place, in the replicates ``keep`` marks; the others stay as they are.

    Once the pivots P of a matrix A are swept, s[P, P] is -A_PP^-1, s[P, Q]
    is A_PP^-1 A_PQ and s[Q, Q] is A_QQ - A_QP A_PP^-1 A_PQ (Goodnight 1979,
    "A tutorial on the SWEEP operator"; Little and Rubin, *Statistical
    Analysis with Missing Data*, ch. 7).
    """
    d = np.where(keep, s[:, k, k], 1.0)
    row = np.where(keep[:, None], s[:, k, :] / d[:, None], 0.0)
    s -= row[:, :, None] * s[:, None, k, :]
    row[:, k] = -1.0 / d
    row = np.where(keep[:, None], row, s[:, k, :])
    s[:, k, :] = row
    s[:, :, k] = row


def _fit_visits(yall, wobs, xcov, g, qs: int) -> _VisitFits:
    """The factored per-visit regressions of a batch of replicates, with the
    small-sample variance of the last-visit treatment effect and its
    Satterthwaite d.f.

    ``yall`` (count, n, p) holds the outcomes, ``wobs`` (count, n, p) is 1 at
    an observed visit and 0 elsewhere, ``xcov`` (count, n, qs - 2) or None
    holds the covariates and ``g`` (n,) the treatment.  Visit j's regression
    is one augmented Gram matrix S_j = A' W_j A, A = [1, x, g, y_1 .. y_j],
    swept in the order intercept, treatment, covariates, y_1 .. y_{j-1}.  A
    pivot below ``_RANK_TOL`` times its column's diagonal is skipped.  A
    skipped covariate pivot drops a column that adds nothing to the rank (an
    empty factor level), which gives the generalized-inverse fit on the r_j
    kept columns.  The (g, g) entry then gives v_xj.  After the earlier visits'
    pivots, y_j's column holds the coefficients and its diagonal the
    residual sum of squares, on m_j - r_j d.f.  A replicate fails if its
    treatment or an earlier visit's pivot is skipped, if m_j <= r_j + j, or
    if its variance or d.f. is not a positive finite number (cancellation in
    the sweep, with outcomes far above the residual scale, can leave either
    so).  ANCOVA is the case p = 1.
    """
    count, n, p = yall.shape
    a = np.empty((count, n, qs + p))
    a[:, :, 0] = 1.0
    if xcov is not None:
        a[:, :, 1 : qs - 1] = xcov
    a[:, :, qs - 1] = g
    a[:, :, qs:] = yall

    m_j = wobs.sum(axis=1)
    kept = np.empty((count, p, qs), dtype=bool)
    history = np.ones((count, p), dtype=bool)
    coef = np.empty((count, p, qs + p - 1))
    v_xj = np.empty((count, p))
    rss = np.empty((count, p))
    inv_hist = [None] * p
    for j in range(p):
        aj = a[:, :, : qs + j + 1]
        s = np.swapaxes(aj * wobs[:, :, j, None], 1, 2) @ aj
        diag = np.diagonal(s, axis1=1, axis2=2).copy()
        for c in (0, qs - 1, *range(1, qs - 1)):
            kept[:, j, c] = s[:, c, c] > _RANK_TOL * diag[:, c]
            _sweep(s, c, kept[:, j, c])
        v_xj[:, j] = -s[:, qs - 1, qs - 1]
        for c in range(qs, qs + j):
            keep = s[:, c, c] > _RANK_TOL * diag[:, c]
            history[:, j] &= keep
            _sweep(s, c, keep)
        coef[:, j, : qs + j] = s[:, : qs + j, -1]
        rss[:, j] = s[:, -1, -1]
        inv_hist[j] = -s[:, qs : qs + j, qs : qs + j]
    rank = kept.sum(axis=2)
    ok = (kept[:, :, qs - 1] & history & (m_j > rank + np.arange(p))).all(axis=1)

    # the variance and d.f. only for the replicates that were fitted
    coef, v_xj, rss, nu = (x[ok] for x in (coef, v_xj, rss, m_j - rank))
    sigma_sq = rss / nu
    u_hat = np.tile(np.eye(p), (len(nu), 1, 1))
    for j in range(1, p):
        u_hat[:, j, :j] = -coef[:, j, qs : qs + j]
    l_hat = np.linalg.inv(u_hat)
    lp = l_hat[:, -1, :]
    tau_hat = np.einsum("rj,rj->r", lp, coef[:, :, qs - 1])

    a_j = lp * sigma_sq * v_xj
    terms = lp**2 * sigma_sq * v_xj
    kr0 = terms.sum(axis=1)
    kr = kr0.copy()
    a_quad = np.zeros((len(nu), p))
    for j in range(1, p):
        spread = (v_xj[:, j, None] - v_xj[:, :j]).sum(axis=1)
        kr += 2.0 * lp[:, j] ** 2 * sigma_sq[:, j] * spread / nu[:, j]
        av = np.einsum("rtk,rk->rt", l_hat[:, :j, :j], a_j[:, :j])
        quad = np.einsum("rt,rtu,ru->r", av, inv_hist[j][ok], av)
        a_quad[:, j] = lp[:, j] ** 2 * sigma_sq[:, j] * quad
    # Satterthwaite, kr0^2 / (2 sum(a_quad) + sum(terms^2 / nu)), divided
    # through by kr0^2 / nu_p so that one visit gives m - r exactly
    w = terms / kr0[:, None]
    rest = (w[:, :-1] ** 2 / nu[:, :-1]).sum(axis=1) + 2.0 * a_quad.sum(axis=1) / kr0**2
    sat = nu[:, -1] / (w[:, -1] ** 2 + nu[:, -1] * rest)

    est, kr_all, df = np.full((3, count), np.nan)
    est[ok], kr_all[ok], df[ok] = tau_hat, kr, sat
    failed = ~((0.0 < kr_all) & (kr_all < math.inf) & (0.0 < df) & (df < math.inf))
    est[failed] = kr_all[failed] = df[failed] = math.nan
    return _VisitFits(
        ok, est, kr_all, df, m_j, rank, kept, history, coef, sigma_sq, v_xj, l_hat, a_j, a_quad
    )


def _analyze_mmrm_chunk(yall, wobs, xcov, g, qs):
    """(est, se, df, ok) of a batch of replicates, NaN where not ``ok``; see
    ``_fit_visits``."""
    fits = _fit_visits(yall, wobs, xcov, g, qs)
    return fits.est, np.sqrt(fits.kr), fits.df, fits.ok


# ---------------------------------------------------------------------------
# single-dataset analyses


def analyze_ancova(
    y: np.ndarray,
    treatment: np.ndarray,
    covariates: np.ndarray | None,
    strict: bool = True,
) -> AncovaFit:
    """Least-squares treatment effect adjusted for covariates: the
    repeated-measures fit with one visit.

    ``strict=True`` raises on a collinear covariate block; with
    ``strict=False`` redundant columns are dropped (generalized-inverse
    behaviour) and the d.f. reflect the reduced rank.
    """
    fit = analyze_mmrm(np.asarray(y, dtype=float).reshape(-1, 1), treatment, covariates, strict)
    return AncovaFit(
        tau_hat=fit.tau_hat,
        sigma_hat_sq=float(fit.sigma_hat_sq[0]),
        v_x=float(fit.v_xj[0]),
        df=fit.satterthwaite_df,
    )


def analyze_mmrm(
    y: np.ndarray,
    treatment: np.ndarray,
    covariates: np.ndarray | None,
    strict: bool = True,
) -> MmrmFit:
    """Fit the factored per-visit regressions under monotone missingness:
    one dataset through ``_fit_visits``, raising where it fails.

    ``y`` is (n, p) with NaN marking missed visits; the missingness pattern
    must be monotone (once missing, missing at all later visits).  Returns
    the last-visit treatment effect, its small-sample variance estimate and
    Satterthwaite degrees of freedom.  ``strict=True`` raises on a singular
    visit regression; with ``strict=False`` each visit drops the covariate
    columns that add nothing to its rank (a factor level empty among the
    subjects retained at that visit), and parameter counts follow the
    per-visit ranks.
    """
    y = np.asarray(y, dtype=float)
    if y.ndim != 2:
        raise DomainError("y must be an (n, p) matrix of per-visit outcomes")
    observed = ~np.isnan(y)
    if np.any(observed[:, 1:] & ~observed[:, :-1]):
        raise DomainError("missingness must be monotone across visits")
    n, p = y.shape
    g = np.asarray(treatment, dtype=float)
    x = None
    if covariates is not None and np.asarray(covariates).size:
        x = np.atleast_2d(np.asarray(covariates, dtype=float))
        if x.shape[0] != n:
            x = x.T
    qs = 2 if x is None else x.shape[1] + 2
    fits = _fit_visits(
        np.where(observed, y, 0.0)[None], observed[None].astype(float),
        None if x is None else x[None], g, qs,
    )
    for j in range(p):
        m, r = int(fits.m[0, j]), int(fits.rank[0, j])
        if not fits.kept[0, j, qs - 1]:
            raise DomainError(f"visit {j + 1}: treatment effect is confounded; no analyzable fit")
        if m <= r + j:
            raise InsufficientDataError(
                f"visit {j + 1}: {m} retained subjects cannot support {r + j} parameters"
            )
        if strict and r < qs:
            raise DomainError(f"visit {j + 1}: singular design matrix (collinear covariates)")
        if not fits.history[0, j]:
            raise DomainError(f"visit {j + 1}: earlier outcomes are collinear; no analyzable fit")
    if math.isnan(fits.est[0]):
        raise DomainError(
            "the small-sample variance or its d.f. is not a positive finite number; "
            "no analyzable fit"
        )
    return MmrmFit(
        theta=tuple(
            fits.coef[0, j, : qs + j][np.concatenate([fits.kept[0, j], np.ones(j, dtype=bool)])]
            for j in range(p)
        ),
        sigma_hat_sq=fits.sigma_sq[0],
        l_hat=fits.l_hat[0],
        tau_hat=float(fits.est[0]),
        kr_variance=float(fits.kr[0]),
        satterthwaite_df=float(fits.df[0]),
        v_xj=fits.v_xj[0],
        m_j=fits.m[0],
        a_j=fits.a[0],
        a_quad=fits.a_quad[0],
    )


# ---------------------------------------------------------------------------
# batched engines


def _draw(seed: int, start: int, count: int, *blocks):
    """The raw draws of replicates ``start`` to ``start + count - 1``.

    A block is (name of a ``Generator`` method, shape per replicate) or
    None.  Each replicate draws its blocks in the order given from its own
    substream; the result holds one ``(count, *shape)`` array per block, None
    for None.  ``_substream`` returns the one generator of ``philox``, so its
    methods are bound once.
    """
    arrays = [None if b is None else np.empty((count, *b[1])) for b in blocks]
    philox = _philox(seed)
    generator = philox[1]
    fills = [(arr, getattr(generator, b[0])) for arr, b in zip(arrays, blocks) if b is not None]
    for r in range(count):
        _substream(philox, start + r)
        for arr, draw in fills:
            draw(out=arr[r])
    return arrays


def _trials(sc: ScenarioSpec, n0: int, g, seed, start, count, intercepts, baseline_effects,
            effects, scale, pattern=None):
    """One chunk of covariate-adjusted trials with p visits: outcomes
    (count, n, p), the observed-visit weights (count, n, p) and the
    covariates (count, n, q) or None.  ANCOVA is the case p = 1 without
    dropout.

    Per visit, the mean is the intercept, plus the factor level's effect, the
    treatment effect in the second arm (``g``) and the baseline effect times
    the baseline (no baseline when ``baseline_effects`` is None); the errors
    are ``scale`` (p, p) times standard normals.  ``pattern`` holds per arm
    the cumulative probabilities of the last observed visit 0 .. p, or is
    None for no dropout model: then no dropout uniforms are drawn and every
    visit is observed.  The design columns are the baseline, then one
    indicator per factor level but the last, which is the analysis reference.
    A function of its own, so that the draws and the means are freed before
    the analysis runs.
    """
    n, p = g.size, len(intercepts)
    # the outputs before the draws, so that the freed draws leave one block
    # the analysis can reuse (allocated after them, the outputs raised the
    # peak RSS of a run over the MMRM fixtures by about 5%)
    yall = np.empty((count, n, p))
    wobs = np.empty((count, n, p))
    xcov = np.empty((count, n, sc.design.q)) if sc.design.q else None
    xb, u, dropout, z = _draw(
        seed, start, count,
        ("standard_normal", (n,)) if baseline_effects is not None else None,
        ("random", (n,)) if sc.factor is not None else None,
        ("random", (n,)) if pattern is not None else None,
        ("standard_normal", (n, p)),
    )
    noise = z @ scale.T
    del z
    fac_eff = 0.0
    if xb is not None:
        xcov[:, :, 0] = xb
    if sc.factor is not None:
        dummies = sc.factor.n_dummies
        levels = np.minimum(np.searchsorted(np.cumsum(sc.factor.probs), u, side="right"), dummies)
        for lev in range(dummies):
            xcov[:, :, (xb is not None) + lev] = levels == lev
        fac_eff = np.asarray(sc.factor.effects)[levels]
    if pattern is None:
        wobs.fill(1.0)
    else:
        last = np.empty((count, n), dtype=np.int64)
        last[:, :n0] = np.searchsorted(pattern[0], dropout[:, :n0], side="right")
        last[:, n0:] = np.searchsorted(pattern[1], dropout[:, n0:], side="right")
        np.less_equal(np.arange(1, p + 1), last[:, :, None], out=wobs)
    np.add(intercepts, np.asarray(fac_eff)[..., None], out=yall)
    yall += np.outer(g, effects)
    if xb is not None:
        for j, effect in enumerate(baseline_effects):
            yall[:, :, j] += effect * xb
    yall += noise
    return yall, wobs, xcov


# Each engine draws and analyses one chunk of replicates, ``start`` onward and
# at most up to ``stop``, and returns (est, se, df), est NaN for a replicate
# whose analysis failed; df is one float where the chunk has one d.f. (the
# one-sample, pooled and crossover tests, and ANCOVA unless a replicate
# dropped a covariate column or failed), else an array.
# Draws are scaled and shifted in place (``z *= sd; z += mu`` is
# ``mu + sd * z`` bit for bit) to keep the chunk's memory down.


def _one_sample_stats(y: np.ndarray):
    """(est, se, df) of the one-sample t test on each row of ``y``, on one d.f."""
    n = y.shape[1]
    return y.mean(axis=1), np.sqrt(y.var(axis=1, ddof=1) / n), float(n - 1)


def _pooled_variance(v0: np.ndarray, v1: np.ndarray, n0: int, n1: int) -> np.ndarray:
    """The pooled variance of two groups of sizes n0 and n1 with sample
    variances v0 and v1, on n0 + n1 - 2 d.f."""
    return ((n0 - 1) * v0 + (n1 - 1) * v1) / (n0 + n1 - 2)


def _simulate_one_sample(sc: ScenarioSpec, n_per_group, seed: int, start: int, stop: int):
    design = sc.design
    n = int(n_per_group[0])
    if n < 2:
        raise DomainError("need at least two subjects")
    count = min(_CHUNK, stop - start)
    (y,) = _draw(seed, start, count, ("standard_normal", (n,)))
    y *= math.sqrt(design.sigma_sq)
    y += design.mu
    return _one_sample_stats(y)


def _simulate_two_sample(sc: ScenarioSpec, n_per_group, seed: int, start: int, stop: int):
    design = sc.design
    n0, n1 = int(n_per_group[0]), int(n_per_group[1])
    if min(n0, n1) < 2:
        raise DomainError("need at least two subjects per group")
    count = min(_CHUNK, stop - start)
    (z,) = _draw(seed, start, count, ("standard_normal", (n0 + n1,)))
    y0, y1 = z[:, :n0], z[:, n0:]
    y0 *= math.sqrt(design.sigma0_sq)
    y0 += design.mu0
    y1 *= math.sqrt(design.sigma1_sq)
    y1 += design.mu1
    est = y1.mean(axis=1) - y0.mean(axis=1)
    v0 = y0.var(axis=1, ddof=1)
    v1 = y1.var(axis=1, ddof=1)
    if design.equal_variance:
        se = np.sqrt(_pooled_variance(v0, v1, n0, n1) * (1.0 / n0 + 1.0 / n1))
        return est, se, float(n0 + n1 - 2)
    return est, np.sqrt(v0 / n0 + v1 / n1), satterthwaite_df(v0, v1, n0, n1)


def _simulate_crossover(sc: ScenarioSpec, n_per_group, seed: int, start: int, stop: int):
    design = sc.design
    n0, n1 = int(n_per_group[0]), int(n_per_group[1])
    n = n0 + n1
    if min(n0, n1) < 2:
        raise DomainError("need at least two subjects per sequence")
    effect = design.mu_star_b - design.mu_star_a
    sd = math.sqrt(design.sigma_d_sq)
    delta = sc.period_effect
    count = min(_CHUNK, stop - start)
    (d,) = _draw(seed, start, count, ("standard_normal", (n,)))
    d0, d1 = d[:, :n0], d[:, n0:]
    d0 *= sd
    d0 += effect + delta
    d1 *= sd
    d1 += effect - delta
    if not design.period_effect_in_analysis:
        return _one_sample_stats(d)
    est = 0.5 * (d0.mean(axis=1) + d1.mean(axis=1))
    sig_d = _pooled_variance(d0.var(axis=1, ddof=1), d1.var(axis=1, ddof=1), n0, n1)
    return est, np.sqrt(n * sig_d / (4.0 * n0 * n1)), float(n - 2)


def _arms(n_per_group, q_star: int):
    """The first arm's size and the treatment column of a covariate-adjusted
    trial, after rejecting a negative arm or a total of at most q*."""
    n0, n1 = int(n_per_group[0]), int(n_per_group[1])
    if min(n0, n1) < 0 or n0 + n1 <= q_star:
        raise InsufficientDataError(
            f"need nonnegative arms of more than {q_star} subjects in all, got {n0}/{n1}"
        )
    return n0, np.concatenate([np.zeros(n0), np.ones(n1)])


def _simulate_ancova(sc: ScenarioSpec, n_per_group, seed: int, start: int, stop: int):
    design = sc.design
    n0, g = _arms(n_per_group, design.q_star)
    count = min(_CHUNK, stop - start)
    baseline = None if sc.baseline_effect is None else (sc.baseline_effect,)
    yall, wobs, xcov = _trials(
        sc, n0, g, seed, start, count, (sc.intercept,), baseline, (design.tau1,),
        np.array([[math.sqrt(design.sigma_sq)]]),
    )
    est, se, df, _ = _analyze_mmrm_chunk(yall, wobs, xcov, g, design.q_star)
    # n - rank is one d.f. for the chunk unless a replicate dropped a column
    # or failed (NaN); one float saves a t quantile per replicate
    return est, se, float(df[0]) if (df == df[0]).all() else df


def _simulate_mmrm(sc: ScenarioSpec, n_per_group, seed: int, start: int, stop: int):
    design = sc.design
    n0, g = _arms(n_per_group, design.q_star)
    p = design.p
    chunk = max(128, min(2048, int(1e6 / (g.size * p))))
    count = min(chunk, stop - start)
    effects = np.zeros(p)
    if sc.visit_effects is not None:
        effects[:-1] = sc.visit_effects
    effects[-1] = design.tau_p1
    # per-arm dropout pattern probabilities: P(last observed visit = j), drawn
    # even at full retention, so that every repeated-measures trial keeps
    # its stream
    pattern = []
    for arm in design.retention:
        pi = np.concatenate([[1.0], np.asarray(arm), [0.0]])
        pattern.append(np.cumsum(np.concatenate([[1.0 - pi[1]], pi[1:-1] - pi[2:]])))
    yall, wobs, xcov = _trials(
        sc, n0, g, seed, start, count,
        np.asarray(sc.visit_intercepts if sc.visit_intercepts is not None else np.zeros(p)),
        sc.visit_baseline_effects, effects,
        design.factors.l * np.sqrt(design.factors.lam)[None, :], pattern,
    )
    est, se, df, _ = _analyze_mmrm_chunk(yall, wobs, xcov, g, design.q_star)
    return est, se, df


def simulate_power(
    sc: ScenarioSpec,
    n_per_group,
    alpha: float,
    objective: Margins,
    replicates: int | None = None,
    seed: int | None = None,
) -> SimReport:
    """Empirical rejection rate of the objective's decision rule.

    ``n_per_group`` lists the integer group sizes (one entry for single-group
    designs).  Deterministic for a fixed seed regardless of chunking; aborts
    if analysis failures exceed 0.1% of replicates.
    """
    check_alpha(alpha)
    family = family_of(sc.design)
    reps = int(replicates if replicates is not None else (sc.replicates or family.replicates))
    if reps < 1:
        raise DomainError(
            "replicate count must be >= 1 (None selects the scenario's count; "
            "0 is only ScenarioSpec's marker for the family default)"
        )
    rng_seed = _check_seed(int(seed if seed is not None else sc.seed))
    n_per_group = tuple(int(v) for v in np.atleast_1d(n_per_group))
    tau0 = family.null(sc.design)

    start = time.perf_counter()
    # looked up per call, so that a wrapper set on a module attribute (a
    # profiler, say) sees every chunk
    engine = globals()[family.engine]
    rej = fail = done = 0
    while done < reps:
        est, se, df = engine(sc, n_per_group, rng_seed, done, reps)
        failed = np.isnan(est)
        fail += int(failed.sum())
        dec = _decide(est, se, df, alpha, objective, tau0)
        dec[failed] = False
        rej += int(dec.sum())
        done += est.size
    elapsed = time.perf_counter() - start

    if fail > _FAILURE_CAP * reps:
        raise SimulationFailureError(
            f"{fail} of {reps} replicates failed analysis (> {_FAILURE_CAP:.2%}); "
            "excluding them would bias the estimate"
        )
    effective = reps - fail
    p_hat = rej / effective
    return SimReport(
        rejections=rej,
        replicates=effective,
        power_hat=p_hat,
        std_error=_se_hat(p_hat, effective),
        seed=rng_seed,
        wall_time=elapsed,
        failures=fail,
    )
