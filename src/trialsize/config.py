"""Design-file loading and validation.

A design file is a JSON document describing one scenario: the design family
and its parameters, the trial objective, defaults for alpha and the target
power, and (optionally) generator settings for simulation.  The schema is
documented in the README; validation failures raise :class:`ConfigError`
with the offending field's path in the message.
"""

from __future__ import annotations

import json
import math
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .ancova import AncovaSpec, ancova_kernel
from .core import TestKernel, apply_ni_margin
from .designs import (
    CrossoverSpec,
    OneSampleSpec,
    TwoSampleSpec,
    crossover_kernel,
    one_sample_kernel,
    two_sample_equal_kernel,
    two_sample_unequal_kernel,
)
from .equivalence import BE_ALPHA, BE_LIMITS, Margins
from .errors import DecompositionError, DomainError
from .mmrm import MmrmDesign, ar1, compound_symmetry, toeplitz
from .simulate import FactorSpec, ScenarioSpec

__all__ = ["ConfigError", "DesignConfig", "load_design", "parse_design"]

_FAMILIES = ("one_sample", "two_sample", "crossover", "ancova", "mmrm")
_OBJECTIVES = ("superiority", "noninferiority", "equivalence", "bioequivalence")


class ConfigError(ValueError):
    """A design file violates the schema; the message names the field."""


@dataclass(frozen=True)
class DesignConfig:
    """A fully validated scenario: design object, objective, and defaults."""

    family: str
    objective: str
    alpha: float
    target_power: float
    design: object
    margins: Margins | None
    scenario: ScenarioSpec
    source: str = ""

    @property
    def tau0(self) -> float:
        d = self.design
        if isinstance(d, (TwoSampleSpec, OneSampleSpec, AncovaSpec)):
            return getattr(d, "tau0", 0.0)
        if isinstance(d, MmrmDesign):
            return d.tau_p0
        return 0.0

    def kernel(self) -> TestKernel:
        """Test kernel for the kernel-based families (not defined for MMRM)."""
        d = self.design
        if isinstance(d, OneSampleSpec):
            k = one_sample_kernel(d.mu, d.tau0, d.sigma_sq)
        elif isinstance(d, TwoSampleSpec):
            if d.equal_variance:
                k = two_sample_equal_kernel(d, self.tau0)
            else:
                k = two_sample_unequal_kernel(d, self.tau0)
        elif isinstance(d, CrossoverSpec):
            k = crossover_kernel(d)
        elif isinstance(d, AncovaSpec):
            k = ancova_kernel(d)
        else:
            raise ConfigError(f"family {self.family!r} does not lower to a single kernel")
        if self.objective == "noninferiority":
            k = apply_ni_margin(k, self.margins.margin())
        return k


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
        kind = _require(value, "structure", path)
        if kind in ("cs", "ar1"):
            size = _integer(_require(value, "size", path), f"{path}.size")
            if size < 1:
                raise ConfigError(f"{path}.size: must be at least 1, got {size}")
        if kind == "cs":
            return compound_symmetry(
                size,
                _number(_require(value, "variance", path), f"{path}.variance"),
                _number(_require(value, "covariance", path), f"{path}.covariance"),
            )
        if kind == "ar1":
            return ar1(
                size,
                _number(_require(value, "variance", path), f"{path}.variance"),
                _number(_require(value, "corr", path), f"{path}.corr"),
            )
        if kind == "toeplitz":
            return toeplitz(_numbers(_require(value, "first_row", path), f"{path}.first_row"))
        raise ConfigError(f"{path}.structure: unknown structure {kind!r}")
    raise ConfigError(f"{path}: expected a matrix or a structure object")


def _factor(value, path: str) -> FactorSpec:
    if not isinstance(value, dict):
        raise ConfigError(f"{path}: expected an object with probs/effects")
    try:
        return FactorSpec(
            probs=_numbers(_require(value, "probs", path), f"{path}.probs"),
            effects=_numbers(_require(value, "effects", path), f"{path}.effects"),
        )
    except DomainError as exc:
        raise ConfigError(f"{path}: {exc}") from None


def _gamma0(block: dict, path: str) -> float:
    """The control arm's allocation fraction.  The variance factor
    1/(gamma0 (1 - gamma0)) is squared in the repeated-measures d.f., so a
    fraction in (0, 1) must leave that square finite."""
    gamma0 = _number(block.get("gamma0", 0.5), f"{path}.gamma0")
    if 0.0 < gamma0 < 1.0:
        factor = 1.0 / (gamma0 * (1.0 - gamma0))
        if not math.isfinite(factor * factor):
            raise ConfigError(
                f"{path}.gamma0: {gamma0!r} is so close to 0 or 1 that "
                "1/(gamma0 (1 - gamma0)) squared overflows"
            )
    return gamma0


def _design_block(family: str, block: dict, path: str):
    if family == "one_sample":
        return OneSampleSpec(
            mu=_number(_require(block, "mu", path), f"{path}.mu"),
            tau0=_number(block.get("tau0", 0.0), f"{path}.tau0"),
            sigma_sq=_number(_require(block, "sigma_sq", path), f"{path}.sigma_sq"),
        )
    if family == "two_sample":
        return TwoSampleSpec(
            mu0=_number(_require(block, "mu0", path), f"{path}.mu0"),
            mu1=_number(_require(block, "mu1", path), f"{path}.mu1"),
            sigma0_sq=_number(_require(block, "sigma0_sq", path), f"{path}.sigma0_sq"),
            sigma1_sq=_number(_require(block, "sigma1_sq", path), f"{path}.sigma1_sq"),
            gamma0=_gamma0(block, path),
            equal_variance=_boolean(block.get("equal_variance", False), f"{path}.equal_variance"),
        )
    if family == "crossover":
        return CrossoverSpec(
            mu_star_a=_number(_require(block, "mu_star_a", path), f"{path}.mu_star_a"),
            mu_star_b=_number(_require(block, "mu_star_b", path), f"{path}.mu_star_b"),
            sigma_d_sq=_number(_require(block, "sigma_d_sq", path), f"{path}.sigma_d_sq"),
            gamma0=_gamma0(block, path),
            period_effect_in_analysis=_boolean(
                block.get("period_effect_in_analysis", True),
                f"{path}.period_effect_in_analysis",
            ),
        )
    if family == "ancova":
        return AncovaSpec(
            tau1=_number(_require(block, "tau1", path), f"{path}.tau1"),
            tau0=_number(block.get("tau0", 0.0), f"{path}.tau0"),
            sigma_sq=_number(_require(block, "sigma_sq", path), f"{path}.sigma_sq"),
            gamma0=_gamma0(block, path),
            q=_integer(_require(block, "q", path), f"{path}.q"),
        )
    if family == "mmrm":
        retention = _require(block, "retention", path)
        if not isinstance(retention, list) or len(retention) != 2:
            raise ConfigError(f"{path}.retention: expected two per-arm retention arrays")
        sigma = _covariance(_require(block, "covariance", path), f"{path}.covariance")
        try:
            return MmrmDesign(
                sigma=sigma,
                retention=(
                    _numbers(retention[0], f"{path}.retention[0]"),
                    _numbers(retention[1], f"{path}.retention[1]"),
                ),
                gamma0=_gamma0(block, path),
                q=_integer(_require(block, "q", path), f"{path}.q"),
                tau_p1=_number(_require(block, "tau_p1", path), f"{path}.tau_p1"),
                tau_p0=_number(block.get("tau_p0", 0.0), f"{path}.tau_p0"),
            )
        except DecompositionError as exc:
            raise ConfigError(f"{path}.covariance: {exc}") from None
    raise ConfigError(f"family: unknown design family {family!r}")


def _margins(doc: dict, objective: str, design):
    if objective == "bioequivalence" and "margins" not in doc:
        half = math.log(BE_LIMITS.ratio_upper)
        return Margins.equivalence(-half, half)
    if objective in ("equivalence", "bioequivalence"):
        block = _require(doc, "margins", "$")
        if not isinstance(block, dict):
            raise ConfigError("margins: expected an object with lower/upper")
        lower = _number(_require(block, "lower", "margins"), "margins.lower")
        upper = _number(_require(block, "upper", "margins"), "margins.upper")
        try:
            return Margins.equivalence(lower, upper)
        except DomainError as exc:
            raise ConfigError(f"margins: {exc}") from None
    if objective == "noninferiority":
        m0 = _number(_require(doc, "margin", "$"), "margin")
        tau1 = _effect_under_alternative(design)
        try:
            return Margins.noninferiority(m0, tau1)
        except DomainError as exc:
            raise ConfigError(f"margin: {exc}") from None
    return None


# the design field that carries each family's effect under the alternative
_EFFECT_FIELDS = {
    "one_sample": "mu",
    "two_sample": "mu1",
    "crossover": "mu_star_b",
    "ancova": "tau1",
    "mmrm": "tau_p1",
}


def _check_effect(family: str, design) -> None:
    """A nonzero effect must have a normal square: the size formulas divide
    by it.  A zero effect (a null or equivalence design) is allowed."""
    effect = _effect_under_alternative(design)
    if effect != 0.0 and effect * effect < sys.float_info.min:
        raise ConfigError(
            f"design.{_EFFECT_FIELDS[family]}: the effect {effect!r} is so small "
            "that its square underflows"
        )


def _effect_under_alternative(design) -> float:
    if isinstance(design, OneSampleSpec):
        return design.mu
    if isinstance(design, TwoSampleSpec):
        return design.mu1 - design.mu0
    if isinstance(design, CrossoverSpec):
        return design.mu_star_b - design.mu_star_a
    if isinstance(design, AncovaSpec):
        return design.tau1
    if isinstance(design, MmrmDesign):
        return design.tau_p1
    raise ConfigError("design: unsupported design object")


def parse_design(doc: dict, source: str = "<memory>") -> DesignConfig:
    """Validate a parsed design document and build the runtime objects."""
    if not isinstance(doc, dict):
        raise ConfigError("$: design document must be a JSON object")
    family = _require(doc, "family", "$")
    if family not in _FAMILIES:
        raise ConfigError(f"family: must be one of {_FAMILIES}, got {family!r}")
    objective = doc.get("objective", "superiority")
    if objective not in _OBJECTIVES:
        raise ConfigError(f"objective: must be one of {_OBJECTIVES}, got {objective!r}")
    block = _require(doc, "design", "$")
    if not isinstance(block, dict):
        raise ConfigError("design: expected an object")
    try:
        design = _design_block(family, block, "design")
    except DomainError as exc:
        raise ConfigError(f"design: {exc}") from None
    _check_effect(family, design)

    alpha_default = BE_ALPHA if objective == "bioequivalence" else 0.05
    alpha = _number(doc.get("alpha", alpha_default), "alpha")
    if not 0.0 < alpha < 1.0:
        raise ConfigError(f"alpha: must lie in (0, 1), got {alpha}")
    target_power = _number(doc.get("target_power", 0.80), "target_power")
    if not 0.0 < target_power < 1.0:
        raise ConfigError(f"target_power: must lie in (0, 1), got {target_power}")

    margins = _margins(doc, objective, design)

    sim = doc.get("simulation", {})
    if not isinstance(sim, dict):
        raise ConfigError("simulation: expected an object")
    gen = sim.get("generator", {})
    if not isinstance(gen, dict):
        raise ConfigError("simulation.generator: expected an object")
    try:
        scenario = ScenarioSpec(
            design=design,
            replicates=_integer(sim.get("replicates", 0), "simulation.replicates"),
            seed=_integer(sim.get("seed", 20240801), "simulation.seed"),
            intercept=_number(gen.get("intercept", 0.0), "simulation.generator.intercept"),
            baseline_effect=(
                _number(gen["baseline_effect"], "simulation.generator.baseline_effect")
                if "baseline_effect" in gen
                else None
            ),
            factor=(
                _factor(gen["factor"], "simulation.generator.factor")
                if "factor" in gen
                else None
            ),
            visit_intercepts=(
                _numbers(gen["visit_intercepts"], "simulation.generator.visit_intercepts")
                if "visit_intercepts" in gen
                else None
            ),
            visit_baseline_effects=(
                _numbers(
                    gen["visit_baseline_effects"],
                    "simulation.generator.visit_baseline_effects",
                )
                if "visit_baseline_effects" in gen
                else None
            ),
            visit_effects=(
                _numbers(gen["visit_effects"], "simulation.generator.visit_effects")
                if "visit_effects" in gen
                else None
            ),
            period_effect=_number(
                gen.get("period_effect", 0.0), "simulation.generator.period_effect"
            ),
        )
    except DomainError as exc:
        raise ConfigError(f"simulation: {exc}") from None

    return DesignConfig(
        family=family,
        objective=objective,
        alpha=alpha,
        target_power=target_power,
        design=design,
        margins=margins,
        scenario=scenario,
        source=source,
    )


def load_design(path: str | Path) -> DesignConfig:
    """Read and validate a design file."""
    p = Path(path)
    if not p.exists():
        raise ConfigError(f"design file not found: {p}")
    try:
        doc = json.loads(p.read_text())
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{p}: invalid JSON ({exc})") from None
    return parse_design(doc, source=str(p))
