"""The design families, dispatched in one place.

``FAMILIES`` holds one record per design family, keyed by the design file's
``family`` name.  A record supplies everything that differs between the
families: the design-block parser and the field that carries the effect,
the test kernel (none for repeated measures), the size chain's model (with
the allocation), the null value, the simulator's engine and its default
replicate count, and for each objective the exact power and the named power
rows.  The objective is applied once, for every family: noninferiority is
superiority with the null moved to the margin, equivalence uses the
family's equivalence power, and :meth:`Family.size_rows` turns the
objective into the size chain's effect and target.
"""

from __future__ import annotations

import contextlib
import math
from dataclasses import dataclass, replace
from functools import partial
from typing import Callable, NamedTuple

import numpy as np

from . import ancova, core, designs, equivalence, mmrm
from .errors import ConfigError, DecompositionError, DomainError

__all__ = ["FAMILIES", "Family", "Objective", "family_of"]


# ---------------------------------------------------------------------------
# reading a design file's fields


class _Fields(dict):
    """A design file's JSON object that records the keys read from it."""

    def __init__(self, value: dict):
        super().__init__(value)
        self.read = set()

    def __getitem__(self, key):
        self.read.add(key)
        return super().__getitem__(key)

    def get(self, key, default=None):
        self.read.add(key)
        return super().get(key, default)


@contextlib.contextmanager
def _fields(value: dict, path: str):
    """The JSON object ``value`` at ``path`` ("" for the document), recording
    the keys read from it.  Once its reader has finished, a key left unread is
    an error that names its path."""
    block = _Fields(value)
    yield block
    for key in value:
        if key not in block.read:
            raise ConfigError(f"{path}.{key}: unknown field" if path else f"{key}: unknown field")


def _require(obj: dict, key: str, path: str):
    if key not in obj:
        raise ConfigError(f"{path}.{key}: required field is missing")
    return obj[key]


def _number(value, path: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{path}: expected a number, got {value!r}")
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


def _field(block: dict, path: str, key: str, read=_number, default=None):
    """``block[key]`` read by ``read``; required unless it has a ``default``."""
    value = _require(block, key, path) if default is None else block.get(key, default)
    return read(value, f"{path}.{key}")


def _covariance(value, path: str) -> np.ndarray:
    if isinstance(value, list):
        try:
            mat = np.asarray(value, dtype=float)
        except (TypeError, ValueError):
            raise ConfigError(f"{path}: expected a square numeric matrix") from None
        if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
            raise ConfigError(f"{path}: expected a square matrix, got shape {mat.shape}")
        return mat
    if isinstance(value, dict):
        with _fields(value, path) as value:
            field = partial(_field, value, path)
            kind = _require(value, "structure", path)
            if kind in ("cs", "ar1"):
                size = field("size", _integer)
                if size < 1:
                    raise ConfigError(f"{path}.size: must be at least 1, got {size}")
            if kind == "cs":
                return mmrm.compound_symmetry(size, field("variance"), field("covariance"))
            if kind == "ar1":
                return mmrm.ar1(size, field("variance"), field("corr"))
            if kind == "toeplitz":
                return mmrm.toeplitz(field("first_row", _numbers))
            raise ConfigError(f"{path}.structure: unknown structure {kind!r}")
    raise ConfigError(f"{path}: expected a matrix or a structure object")


def _gamma0(block: dict, path: str) -> float:
    """The control arm's allocation fraction.  The variance factor
    1/(gamma0 (1 - gamma0)) is squared in the repeated-measures d.f., so a
    fraction in (0, 1) must leave that square finite."""
    gamma0 = _field(block, path, "gamma0", default=0.5)
    if 0.0 < gamma0 < 1.0:
        factor = 1.0 / (gamma0 * (1.0 - gamma0))
        if not math.isfinite(factor * factor):
            raise ConfigError(
                f"{path}.gamma0: {gamma0!r} is so close to 0 or 1 that "
                "1/(gamma0 (1 - gamma0)) squared overflows"
            )
    return gamma0


# ---------------------------------------------------------------------------
# the design blocks


def _one_sample(block: dict, path: str) -> designs.OneSampleSpec:
    field = partial(_field, block, path)
    return designs.OneSampleSpec(
        mu=field("mu"), tau0=field("tau0", default=0.0), sigma_sq=field("sigma_sq")
    )


def _two_sample(block: dict, path: str) -> designs.TwoSampleSpec:
    field = partial(_field, block, path)
    d = designs.TwoSampleSpec(
        mu0=field("mu0"),
        mu1=field("mu1"),
        sigma0_sq=field("sigma0_sq"),
        sigma1_sq=field("sigma1_sq"),
        gamma0=_gamma0(block, path),
        equal_variance=field("equal_variance", _boolean, False),
    )
    if d.equal_variance and d.sigma0_sq != d.sigma1_sq:
        raise ConfigError(
            f"{path}.equal_variance: the pooled t test needs sigma0_sq == sigma1_sq, "
            f"got {d.sigma0_sq} and {d.sigma1_sq}"
        )
    return d


def _crossover(block: dict, path: str) -> designs.CrossoverSpec:
    field = partial(_field, block, path)
    return designs.CrossoverSpec(
        mu_star_a=field("mu_star_a"),
        mu_star_b=field("mu_star_b"),
        sigma_d_sq=field("sigma_d_sq"),
        gamma0=_gamma0(block, path),
        period_effect_in_analysis=field("period_effect_in_analysis", _boolean, True),
    )


def _ancova(block: dict, path: str) -> ancova.AncovaSpec:
    field = partial(_field, block, path)
    return ancova.AncovaSpec(
        tau1=field("tau1"),
        tau0=field("tau0", default=0.0),
        sigma_sq=field("sigma_sq"),
        gamma0=_gamma0(block, path),
        q=field("q", _integer),
    )


def _mmrm(block: dict, path: str) -> mmrm.MmrmDesign:
    field = partial(_field, block, path)
    retention = _require(block, "retention", path)
    if not isinstance(retention, list) or len(retention) != 2:
        raise ConfigError(f"{path}.retention: expected two per-arm retention arrays")
    sigma = field("covariance", _covariance)
    try:
        return mmrm.MmrmDesign(
            sigma=sigma,
            retention=tuple(
                _numbers(arm, f"{path}.retention[{g}]") for g, arm in enumerate(retention)
            ),
            gamma0=_gamma0(block, path),
            q=field("q", _integer),
            tau_p1=field("tau_p1"),
            tau_p0=field("tau_p0", default=0.0),
        )
    except DecompositionError as exc:
        raise ConfigError(f"{path}.covariance: {exc}") from None


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
# the objectives


class Objective(NamedTuple):
    """A family's power functions for one objective.  ``target`` is the null
    value under superiority (the margin, for noninferiority) and the
    ``Margins`` under equivalence.

    exact  (design, target, n, alpha) -> the power the size chain inverts
    rows   (design, target, n, alpha) -> [(name, power)], as ``power`` prints
    """

    exact: Callable
    rows: Callable


def _kernel_superiority(kernel, exact=None) -> Objective:
    """Superiority of a family lowered to ``kernel(design, null)``.  The exact
    power is the kernel's two-sided power, or the estimate ``exact(design,
    null, n, alpha)``, which then is a row of its own."""

    def rows(d, null, n, a):
        k = kernel(d, null)
        out = [
            ("two_sided", core.power_two_sided(k, n, a).value),
            ("one_sided_approx", core.power_one_sided_approx(k, n, a).value),
        ]
        return out if exact is None else out + [("exact", exact(d, null, n, a).value)]

    inverted = exact or (lambda d, null, n, a: core.power_two_sided(kernel(d, null), n, a))
    return Objective(lambda d, null, n, a: inverted(d, null, n, a).value, rows)


def _kernel_equivalence(kernel, power=None, generic=False) -> Objective:
    """Equivalence of a family lowered to ``kernel(design, null)``.
    ``power(design, margins, n, alpha, exact)`` is the family's equivalence
    power estimate, by default the kernel's; ``generic`` adds the kernel's
    approximation as the ``generic_approx`` row."""

    def kernel_power(d, m, n, a, exact=True):
        fn = equivalence.equiv_power_exact if exact else equivalence.equiv_power_approx
        return fn(kernel(d, 0.0), m, n, a)

    def rows(d, m, n, a):
        out = [("exact", power(d, m, n, a, True).value), ("approx", power(d, m, n, a, False).value)]
        return out + [("generic_approx", kernel_power(d, m, n, a, False).value)] if generic else out

    power = power or kernel_power
    return Objective(lambda d, m, n, a: power(d, m, n, a, True).value, rows)


def _at_null(field: str, rows) -> Objective:
    """Superiority of a family whose powers read the null value from the
    design ``field``: ``rows`` names power functions of (design, n, alpha),
    the exact power first."""

    def at(d, null):
        return d if getattr(d, field) == null else replace(d, **{field: null})

    return Objective(
        lambda d, null, n, a: rows[0][1](at(d, null), n, a).value,
        lambda d, null, n, a: [(name, fn(at(d, null), n, a).value) for name, fn in rows],
    )


def _either(pooled: Objective, welch: Objective) -> Objective:
    """The pooled or the Welch test's objective, as ``equal_variance`` says."""
    pick = lambda d: pooled if d.equal_variance else welch
    return Objective(*(lambda d, *args, i=i: pick(d)[i](d, *args) for i in range(2)))


def _one_sample_kernel(d, tau0):
    return designs.one_sample_kernel(d.mu, tau0, d.sigma_sq)


def _two_sample_kernel(d, tau0):
    if d.equal_variance:
        return designs.two_sample_equal_kernel(d, tau0)
    return designs.two_sample_unequal_kernel(d, tau0)


def _crossover_kernel(d, tau0):
    return replace(designs.crossover_kernel(d), tau0=tau0)


def _ancova_kernel(d, tau0):
    return ancova.ancova_kernel(replace(d, tau0=tau0))


def _mmrm_equivalence(d, m, n, a):
    return mmrm.mmrm_equiv_power(d, m, n, a).value


# ---------------------------------------------------------------------------
# the table


@dataclass(frozen=True)
class Family:
    """One design family.

    spec             the design class
    parse            (design block, path) -> design
    effect_field     the design field carrying the effect under the alternative
    tau1             design -> the effect under the alternative
    null_field       the design field holding the null value (None: it is 0)
    kernel           (design, null) -> TestKernel; None for repeated measures
    sizing           design -> the size chain's SizeModel (v, C, rho, f, the
                     smallest size and the group allocation)
    engine           name of the ``simulate`` engine, looked up at call time
    replicates       the simulation's default replicate count
    check_generator  ScenarioSpec -> None, raising for extras the design
                     contradicts (by default there are none to check)
    """

    spec: type
    parse: Callable
    effect_field: str
    tau1: Callable
    null_field: str | None
    kernel: Callable | None
    sizing: Callable
    engine: str
    replicates: int
    superiority: Objective
    equivalence: Objective
    check_generator: Callable = lambda sc: None

    def null(self, design) -> float:
        return getattr(design, self.null_field) if self.null_field else 0.0

    def objective(self, target) -> Objective:
        """Equivalence for a ``Margins`` target, else superiority at that null."""
        return self.equivalence if isinstance(target, equivalence.Margins) else self.superiority

    def size_rows(
        self, design, target, alpha: float, power: float, rounding: str = "up"
    ) -> list[tuple[str, core.SizeEstimate]]:
        """The size chain for the objective's ``target``, by name as ``size``
        prints it, ending with the inversion of the objective's exact power.

        The objective enters the chain here, the same for every family: its
        effect is tau1 - null under superiority and noninferiority, and the
        half-width of margins symmetric around tau1 under equivalence, whose
        two one-sided tests are each sized for (1 + power)/2.
        """
        tau1 = self.tau1(design)
        if isinstance(target, equivalence.Margins):
            delta, level = equivalence.symmetric_half_width(target, tau1), 0.5 * (1.0 + power)
        else:
            delta, level = tau1 - target, power
        exact = self.objective(target).exact
        return core.size_chain(
            self.sizing(design), delta, alpha, power, lambda n: exact(design, target, n, alpha),
            target=level, rounding=rounding,
        )


FAMILIES: dict[str, Family] = {
    "one_sample": Family(
        spec=designs.OneSampleSpec, parse=_one_sample, effect_field="mu", tau1=lambda d: d.mu,
        null_field="tau0", kernel=_one_sample_kernel,
        sizing=partial(_one_sample_kernel, tau0=0.0), engine="_simulate_one_sample", replicates=100_000,
        superiority=_kernel_superiority(_one_sample_kernel),
        equivalence=_kernel_equivalence(_one_sample_kernel),
    ),
    "two_sample": Family(
        spec=designs.TwoSampleSpec, parse=_two_sample, effect_field="mu1",
        tau1=lambda d: d.mu1 - d.mu0, null_field=None, kernel=_two_sample_kernel,
        sizing=partial(_two_sample_kernel, tau0=0.0), engine="_simulate_two_sample",
        replicates=100_000,
        superiority=_either(
            _kernel_superiority(designs.two_sample_equal_kernel),
            _kernel_superiority(designs.two_sample_unequal_kernel, designs.moser_exact_power),
        ),
        equivalence=_either(
            _kernel_equivalence(designs.two_sample_equal_kernel),
            _kernel_equivalence(
                designs.two_sample_unequal_kernel, equivalence.ts_unequal_equiv_power, generic=True
            ),
        ),
    ),
    "crossover": Family(
        spec=designs.CrossoverSpec, parse=_crossover, effect_field="mu_star_b",
        tau1=lambda d: d.mu_star_b - d.mu_star_a, null_field=None, kernel=_crossover_kernel,
        sizing=partial(_crossover_kernel, tau0=0.0), engine="_simulate_crossover",
        replicates=100_000,
        superiority=_kernel_superiority(_crossover_kernel),
        equivalence=_kernel_equivalence(_crossover_kernel),
    ),
    "ancova": Family(
        spec=ancova.AncovaSpec, parse=_ancova, effect_field="tau1", tau1=lambda d: d.tau1,
        null_field="tau0", kernel=_ancova_kernel, sizing=ancova.ancova_sizing,
        engine="_simulate_ancova", replicates=100_000,
        superiority=_at_null(
            "tau0",
            (
                ("exact", ancova.ancova_power_exact),
                ("approx", ancova.ancova_power_approx),
                ("asymptotic_t", ancova.ancova_power_asymptotic_t),
            ),
        ),
        equivalence=_kernel_equivalence(_ancova_kernel, equivalence.ancova_equiv_power),
        check_generator=_covariate_count("baseline_effect"),
    ),
    "mmrm": Family(
        spec=mmrm.MmrmDesign, parse=_mmrm, effect_field="tau_p1", tau1=lambda d: d.tau_p1,
        null_field="tau_p0", kernel=None, sizing=mmrm.mmrm_sizing,
        engine="_simulate_mmrm", replicates=40_000,
        superiority=_at_null(
            "tau_p0",
            (("main", mmrm.mmrm_power), ("simple_approx", mmrm.mmrm_power_approx)),
        ),
        equivalence=Objective(
            _mmrm_equivalence,
            lambda d, m, n, a: [("equivalence", _mmrm_equivalence(d, m, n, a))],
        ),
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
