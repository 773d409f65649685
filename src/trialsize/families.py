"""The design families, dispatched in one place.

``FAMILIES`` holds one record per design family, keyed by the design file's
``family`` name.  A record supplies everything that differs between the
families: the design-block parser and the field that carries the effect,
the one design-stage model (the size chain's, with the allocation), the null
value, the power rows, the simulator's engine, its default replicate count
and the generator keys it reads.  The model is built by one public function
of the design alone (``designs.one_sample_kernel``, ``two_sample_kernel``,
``crossover_kernel``, ``ancova.ancova_sizing``, ``mmrm.mmrm_sizing``).  That
of a t-test family is its test kernel at the design's own null
(:meth:`Family.kernel`); that of repeated measures is a plain size model,
which lowers to no kernel.

The objective is one :class:`~trialsize.equivalence.Margins`, applied once
for every family: it gives an exact conditional power, that of the rejection
region of ``simulate``'s decision rule, and an approximate one, which the
power rows put into the family's powers (:meth:`Family.powers`), and the
size chain's effect and target (:meth:`Family.size_rows`), which extends
the paper's chain to equivalence margins off centre (``equivalence._near_level``).
Bioequivalence is the design file's objective, with the margins
``equivalence.BE_MARGINS`` and the alpha ``BE_ALPHA`` by default.

A design file is read, here and in :mod:`trialsize.config`, by one object
reader ``_Object`` and the value readers (``_number``, finite only,
``_choice`` of allowed names, ...); a schema error is a :class:`ConfigError`
naming the path of the key or value, or of the object in whose reading a
:class:`DomainError` was raised.  A covariance's order must be the
retention length; a structure's is checked before its matrix is built.
"""

from __future__ import annotations

import contextlib
import math
import sys
from dataclasses import dataclass
from functools import partial
from typing import Callable, NamedTuple

import numpy as np

from . import ancova, core, designs, equivalence, mmrm
from .equivalence import Margins
from .errors import ConfigError, DecompositionError, DomainError

__all__ = ["FAMILIES", "Family", "Rows", "family_of"]


# ---------------------------------------------------------------------------
# reading a design file: one object reader and the value readers


def _number(value, path: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{path}: expected a number, got {value!r}")
    # a NaN fails both comparisons; an integer beyond the float range fails one
    if not -sys.float_info.max <= value <= sys.float_info.max:
        raise ConfigError(f"{path}: expected a finite number, got {value!r}")
    return float(value)


def _integer(value, path: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(f"{path}: expected an integer, got {value!r}")
    return value


def _boolean(value, path: str) -> bool:
    if not isinstance(value, bool):
        raise ConfigError(f"{path}: expected true/false, got {value!r}")
    return value


def _numbers(value, path: str) -> tuple[float, ...]:
    if not isinstance(value, list) or not value:
        raise ConfigError(f"{path}: expected a non-empty array of numbers")
    return tuple(_number(v, f"{path}[{i}]") for i, v in enumerate(value))


class _Object(contextlib.AbstractContextManager):
    """The JSON object ``value`` at ``path`` ("" for the document).  Calling it
    reads a key through a value reader ``read(value, path)``, ``_Object`` itself
    for a nested object; the key is required unless it has a ``default``.
    Leaving its ``with`` block cleanly names a key left unread; a DomainError
    leaves it as a ConfigError naming the object's path ("$": the document)."""

    def __init__(self, value, path: str):
        self.path = path or "$"
        if not isinstance(value, dict):
            raise ConfigError(f"{self.path}: expected an object, got {value!r}")
        self.value, self.prefix, self.read = value, f"{path}." if path else "", set()

    def __call__(self, key: str, read: Callable = _number, default=None):
        self.read.add(key)
        if key not in self.value and default is None:
            raise ConfigError(f"{self.prefix}{key}: required field is missing")
        return read(self.value.get(key, default), self.prefix + key)

    def __contains__(self, key: str) -> bool:
        return key in self.value

    def __exit__(self, kind, error, _) -> None:
        if isinstance(error, DomainError):
            raise ConfigError(f"{self.path}: {error}") from None
        unread = [key for key in self.value if key not in self.read]
        if kind is None and unread:
            raise ConfigError(f"{self.prefix}{unread[0]}: unknown field")


def _choice(names) -> Callable:
    """The reader of a value that must be one of ``names``."""

    def read(value, path: str) -> str:
        if not (isinstance(value, str) and value in names):
            raise ConfigError(f"{path}: must be one of {tuple(names)}, got {value!r}")
        return value

    return read


def _retention(value, path: str) -> tuple[tuple[float, ...], ...]:
    if not isinstance(value, list) or len(value) != 2:
        raise ConfigError(f"{path}: expected two per-arm retention arrays")
    return tuple(_numbers(arm, f"{path}[{g}]") for g, arm in enumerate(value))


def _covariance(visits: int) -> Callable:
    """The reader of a covariance matrix or structure object, whose order must
    be ``visits``, the retention length.  A structure's order (``size``, or the
    length of ``first_row``) is checked before its matrix is built."""

    def order(structure: _Object, key: str, read: Callable):
        value = structure(key, read)
        p = value if key == "size" else len(value)
        if p != visits:
            raise ConfigError(
                f"{structure.prefix}{key}: order {p} differs from the retention length {visits}"
            )
        return value

    def read(value, path: str) -> np.ndarray:
        if isinstance(value, list):
            rows = [_numbers(row, f"{path}[{i}]") for i, row in enumerate(value)]
            if len(rows) != visits or any(len(row) != visits for row in rows):
                raise ConfigError(f"{path}: expected a square matrix of order {visits}")
            return np.array(rows)
        if not isinstance(value, dict):
            raise ConfigError(f"{path}: expected a matrix or a structure object")
        with _Object(value, path) as structure:
            kind = structure("structure", _choice(("cs", "ar1", "toeplitz")))
            if kind == "toeplitz":
                return mmrm.toeplitz(order(structure, "first_row", _numbers))
            size = order(structure, "size", _integer)
            if kind == "cs":
                return mmrm.compound_symmetry(size, structure("variance"), structure("covariance"))
            return mmrm.ar1(size, structure("variance"), structure("corr"))

    return read


def _allocation(value, path: str) -> float:
    """The control arm's allocation fraction.  The variance factor
    1/(gamma0 (1 - gamma0)) is squared in the repeated-measures d.f., so a
    fraction in (0, 1) must leave that square finite."""
    gamma0 = _number(value, path)
    if 0.0 < gamma0 < 1.0:
        factor = 1.0 / (gamma0 * (1.0 - gamma0))
        if not math.isfinite(factor * factor):
            raise ConfigError(
                f"{path}: {gamma0!r} is so close to 0 or 1 that "
                "1/(gamma0 (1 - gamma0)) squared overflows"
            )
    return gamma0


# ---------------------------------------------------------------------------
# the design blocks


def _one_sample(design: _Object) -> designs.OneSampleSpec:
    return designs.OneSampleSpec(
        mu=design("mu"), tau0=design("tau0", default=0.0), sigma_sq=design("sigma_sq")
    )


def _two_sample(design: _Object) -> designs.TwoSampleSpec:
    d = designs.TwoSampleSpec(
        mu0=design("mu0"),
        mu1=design("mu1"),
        sigma0_sq=design("sigma0_sq"),
        sigma1_sq=design("sigma1_sq"),
        gamma0=design("gamma0", _allocation, 0.5),
        equal_variance=design("equal_variance", _boolean, False),
    )
    if d.equal_variance and d.sigma0_sq != d.sigma1_sq:
        raise ConfigError(
            "design.equal_variance: the pooled t test needs sigma0_sq == sigma1_sq, "
            f"got {d.sigma0_sq} and {d.sigma1_sq}"
        )
    return d


def _crossover(design: _Object) -> designs.CrossoverSpec:
    return designs.CrossoverSpec(
        mu_star_a=design("mu_star_a"),
        mu_star_b=design("mu_star_b"),
        sigma_d_sq=design("sigma_d_sq"),
        gamma0=design("gamma0", _allocation, 0.5),
        period_effect_in_analysis=design("period_effect_in_analysis", _boolean, True),
    )


def _ancova(design: _Object) -> ancova.AncovaSpec:
    return ancova.AncovaSpec(
        tau1=design("tau1"),
        tau0=design("tau0", default=0.0),
        sigma_sq=design("sigma_sq"),
        gamma0=design("gamma0", _allocation, 0.5),
        q=design("q", _integer),
    )


def _mmrm(design: _Object) -> mmrm.MmrmDesign:
    retention = design("retention", _retention)
    try:
        d = mmrm.MmrmDesign(
            sigma=design("covariance", _covariance(len(retention[0]))),
            retention=retention,
            gamma0=design("gamma0", _allocation, 0.5),
            q=design("q", _integer),
            tau_p1=design("tau_p1"),
            tau_p0=design("tau_p0", default=0.0),
        )
    except DecompositionError as exc:
        raise ConfigError(f"design.covariance: {exc}") from None
    # checked here, not by the class, which is rebuilt for every retention batch
    v = mmrm.mmrm_sizing(d).v
    if not math.isfinite(d.effect * d.effect / v):
        raise DomainError(
            f"the effect tau_p1 - tau_p0 = {d.effect:g} squared over the variance scale {v:g} "
            "is out of float range"
        )
    return d


# ---------------------------------------------------------------------------
# the generator extras a family's simulation reads


def _covariate_count(baseline: str):
    """Check that the generator's covariates, the baseline whose effect is the
    generator field ``baseline`` and the factor's indicators, number q."""

    def check(sc) -> None:
        dummies = sc.factor.n_dummies if sc.factor is not None else 0
        q_implied = (getattr(sc, baseline) is not None) + dummies
        if q_implied != sc.design.q:
            raise DomainError(
                f"generator implies q={q_implied} covariates but the design has q={sc.design.q}"
            )

    return check


def _mmrm_generator(sc) -> None:
    _covariate_count("visit_baseline_effects")(sc)
    p = sc.design.p
    if sc.visit_intercepts is not None and len(sc.visit_intercepts) != p:
        raise DomainError("visit_intercepts must have one entry per visit")
    if sc.visit_baseline_effects is not None and len(sc.visit_baseline_effects) != p:
        raise DomainError("visit_baseline_effects must have one entry per visit")
    if sc.visit_effects is not None and len(sc.visit_effects) != p - 1:
        raise DomainError(
            "visit_effects lists treatment effects at visits 1..p-1 "
            "(the last visit uses the design's tau_p1)"
        )


# ---------------------------------------------------------------------------
# the power rows


class Rows(NamedTuple):
    """The power rows of the tests (superiority and noninferiority) or of
    equivalence, as ``power`` prints them, and the row the size chain inverts.

    A row (name, frame, exact) gives its frame, (design, conditional, n,
    alpha, method) -> PowerEstimate, the objective's exact conditional with
    the method "integral_exact" (clipped to [0, 1]) or its approximate one
    with "approx"; a frame that is itself an approximation keeps "approx".
    """

    inverted: str
    rows: tuple[tuple[str, Callable, bool], ...]


def _kernel(d, conditional, n, a, method):
    return family_of(d).kernel(d).power(conditional, n, a, method)


def _mean_imbalance(d, conditional, n, a, method):
    return ancova.adjusted_power(d, conditional, n, a, "approx", mean_imbalance=True)


def _asymptotic_t(d, conditional, n, a, method):
    return ancova.ancova_power_asymptotic_t(d, n, a, conditional)


def _last_visit(first_order: bool) -> Callable:
    return lambda d, c, n, a, method: mmrm._last_visit_power(d, c, n, a, first_order)


_KERNEL_ROWS = (
    Rows("two_sided", (("two_sided", _kernel, True), ("one_sided_approx", _kernel, False))),
    Rows("exact", (("exact", _kernel, True), ("approx", _kernel, False))),
)
_WELCH_ROWS = (
    Rows("exact", (*_KERNEL_ROWS[0].rows, ("exact", designs.welch_power, True))),
    Rows(
        "exact",
        (
            ("exact", designs.welch_power, True),
            ("approx", designs.welch_power, False),
            ("generic_approx", _kernel, False),
        ),
    ),
)
_ANCOVA_ROWS = (
    Rows(
        "exact",
        (
            ("exact", ancova.adjusted_power, True),
            ("approx", _mean_imbalance, True),
            ("asymptotic_t", _asymptotic_t, True),
        ),
    ),
    Rows(
        "exact", (("exact", ancova.adjusted_power, True), ("approx", ancova.adjusted_power, False))
    ),
)
_MMRM_ROWS = (
    Rows("main", (("main", _last_visit(False), True), ("simple_approx", _last_visit(True), True))),
    Rows("equivalence", (("equivalence", _last_visit(False), False),)),
)


# ---------------------------------------------------------------------------
# the table


@dataclass(frozen=True)
class Family:
    """One design family.

    spec             the design class
    parse            design block's _Object reader -> design
    effect_field     the design field carrying the effect under the alternative
    tau1             design -> the effect under the alternative
    null_field       the design field holding the null value (None: it is 0)
    sizing           design -> the family's one design-stage model, the size
                     chain's (v, C, rho, f, the smallest size and the group
                     allocation), a public function of the design alone: for
                     a t-test family the TestKernel at the design's own null,
                     a plain SizeModel for repeated measures
    rows             design -> its power ``Rows``: (tests, equivalence)
    engine           name of the ``simulate`` engine, looked up at call time
    replicates       the simulation's default replicate count
    generator        the ``simulation.generator`` keys the engine reads
    check_generator  ScenarioSpec -> None, raising for extras the design
                     contradicts (by default there are none to check)
    """

    spec: type
    parse: Callable
    effect_field: str
    tau1: Callable
    null_field: str | None
    sizing: Callable
    rows: Callable
    engine: str
    replicates: int
    generator: tuple[str, ...] = ()
    check_generator: Callable = lambda sc: None

    def null(self, design, m: Margins = Margins.superiority()) -> float:
        """The null value tested for the objective of ``m``: the margin under
        noninferiority, else the design's null value."""
        if m.kind == "noninferiority":
            return m.lower if math.isfinite(m.lower) else m.upper
        return getattr(design, self.null_field) if self.null_field else 0.0

    def kernel(self, design) -> core.TestKernel:
        """The design-stage model as a test kernel; a DomainError for a family
        whose model is not one (repeated measures)."""
        model = self.sizing(design)
        if not isinstance(model, core.TestKernel):
            raise DomainError(f"{type(design).__name__} does not lower to a single t-test kernel")
        return model

    def powers(self, design, m: Margins) -> tuple[str, dict[str, Callable]]:
        """The name of the row the size chain inverts, and each power row for
        the objective of ``m``, by name, as a function of (n, alpha).

        The objective gives the conditional powers once, for every family,
        as an (exact, approximate) pair: under superiority the two-sided
        test of tau1 - tau0 and its one-sided approximation, and for a
        margin interval (noninferiority's has one infinite bound) its
        one-sided tests for both, except that equivalence's exact one is the
        Phillips integral.  The exact one is the power of ``simulate``'s
        rejection region; a tau1 outside the margins raises DomainError.
        """
        tau1 = self.tau1(design)
        if m.kind == "superiority":
            effect = tau1 - self.null(design)
            conditionals = [core.one_sided_tests(abs(effect)), core.two_tailed(effect)]
        else:
            exacts = (False, m.kind == "equivalence")
            conditionals = [equivalence._conditional(m, tau1, exact)[0] for exact in exacts]
        rows = self.rows(design)[m.kind == "equivalence"]
        methods = ("approx", "integral_exact")
        return rows.inverted, {
            name: partial(frame, design, conditionals[exact], method=methods[exact])
            for name, frame, exact in rows.rows
        }

    def size_rows(self, design, m: Margins, alpha: float, power: float) -> dict[str, float]:
        """The size chain for the objective of ``m``, by name as ``size``
        prints it, ending with the inversion of the objective's exact power.

        The objective enters the chain here, the same for every family: its
        effect is tau1 minus the null value (the margin, for noninferiority);
        under equivalence the half-width of margins symmetric around tau1 (to
        1e-9 relative), each one-sided test sized for (1 + power)/2, else the
        nearer margin's distance, sized for ``equivalence._near_level``.
        """
        tau1 = self.tau1(design)
        if m.kind == "equivalence":
            near, far = sorted(m.distances(tau1))
            delta, level = 0.5 * (m.upper - m.lower), 0.5 * (1.0 + power)
            if far - near > 1e-9 * (far + near):
                delta, level = near, equivalence._near_level(alpha, power, far / near)
        else:
            delta, level = tau1 - self.null(design, m), power
        inverted, powers = self.powers(design, m)
        return core.size_chain(
            self.sizing(design), delta, alpha, power,
            lambda n: powers[inverted](n, alpha).value, target=level,
        )


FAMILIES: dict[str, Family] = {
    "one_sample": Family(
        spec=designs.OneSampleSpec, parse=_one_sample, effect_field="mu", tau1=lambda d: d.mu,
        null_field="tau0", sizing=designs.one_sample_kernel,
        rows=lambda d: _KERNEL_ROWS,
        engine="_simulate_one_sample", replicates=100_000,
    ),
    "two_sample": Family(
        spec=designs.TwoSampleSpec, parse=_two_sample, effect_field="mu1",
        tau1=lambda d: d.mu1 - d.mu0, null_field=None,
        sizing=designs.two_sample_kernel,
        rows=lambda d: _KERNEL_ROWS if d.equal_variance else _WELCH_ROWS,
        engine="_simulate_two_sample", replicates=100_000,
    ),
    "crossover": Family(
        spec=designs.CrossoverSpec, parse=_crossover, effect_field="mu_star_b",
        tau1=lambda d: d.mu_star_b - d.mu_star_a, null_field=None,
        sizing=designs.crossover_kernel, rows=lambda d: _KERNEL_ROWS,
        engine="_simulate_crossover", replicates=100_000, generator=("period_effect",),
    ),
    "ancova": Family(
        spec=ancova.AncovaSpec, parse=_ancova, effect_field="tau1", tau1=lambda d: d.tau1,
        null_field="tau0", sizing=ancova.ancova_sizing,
        rows=lambda d: _ANCOVA_ROWS, engine="_simulate_ancova", replicates=100_000,
        generator=("intercept", "baseline_effect", "factor"),
        check_generator=_covariate_count("baseline_effect"),
    ),
    "mmrm": Family(
        spec=mmrm.MmrmDesign, parse=_mmrm, effect_field="tau_p1", tau1=lambda d: d.tau_p1,
        null_field="tau_p0", sizing=mmrm.mmrm_sizing, rows=lambda d: _MMRM_ROWS,
        engine="_simulate_mmrm", replicates=40_000,
        generator=("factor", "visit_intercepts", "visit_baseline_effects", "visit_effects"),
        check_generator=_mmrm_generator,
    ),
}

_BY_SPEC = {family.spec: family for family in FAMILIES.values()}


def family_of(design) -> Family:
    """The record of a design object's family."""
    family = _BY_SPEC.get(type(design))
    if family is None:
        raise DomainError(f"unsupported design type {type(design).__name__}")
    return family

