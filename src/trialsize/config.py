"""Design-file loading and validation.

A design file is a JSON document describing one scenario: the design family
and its parameters, the trial objective, defaults for alpha and the target
power, and (optionally) generator settings for simulation.  The schema is
documented in the README; validation failures raise :class:`ConfigError`
with the offending field's path in the message.

The objective is read here and nowhere else: it becomes the ``margins`` of
the :class:`DesignConfig` (none for superiority), and "bioequivalence" only
sets the defaults alpha = 0.1 and margins of +/- ln 1.25.  The generator keys
read are those the family's record names.
"""

from __future__ import annotations

import json
import sys
from dataclasses import dataclass
from pathlib import Path

from . import core
from .core import SizeEstimate, TestKernel
from .equivalence import BE_ALPHA, BE_MARGINS, Margins
from .errors import ConfigError, DomainError
from .families import FAMILIES, _field, _fields, _integer, _number, _numbers, _require
from .simulate import FactorSpec, ScenarioSpec

__all__ = ["ConfigError", "DesignConfig", "load_design", "parse_design"]

_OBJECTIVES = ("superiority", "noninferiority", "equivalence", "bioequivalence")


@dataclass(frozen=True)
class DesignConfig:
    """A fully validated scenario: design object, margins, and defaults.

    ``margins`` is None for superiority.  The powers and sizes come from the
    family's record (:data:`trialsize.families.FAMILIES`) for the objective
    of the margins, the same for every family.
    """

    family: str
    alpha: float
    target_power: float
    design: object
    margins: Margins | None
    scenario: ScenarioSpec

    @property
    def decision_margins(self) -> Margins:
        """The margins of the formulas and the simulator's decision rule:
        ``margins``, or superiority's (-inf, inf) in place of None."""
        return Margins.superiority() if self.margins is None else self.margins

    def kernel(self) -> TestKernel:
        """Test kernel at the objective's null value, for the kernel-based
        families (not defined for MMRM)."""
        family = FAMILIES[self.family]
        if family.kernel is None:
            raise ConfigError(f"family {self.family!r} does not lower to a single kernel")
        return family.kernel(self.design, family.null(self.design, self.decision_margins))

    def exact_power(self, n: float, alpha: float) -> float:
        """The exact power, which the size chain's inversion solves for the target."""
        inverted, powers = FAMILIES[self.family].powers(self.design, self.decision_margins)
        return powers[inverted](n, alpha).value

    def power_rows(self, n: float, alpha: float) -> list[tuple[str, float]]:
        """Every power method of the family and objective, by name."""
        _, powers = FAMILIES[self.family].powers(self.design, self.decision_margins)
        return [(name, power(n, alpha).value) for name, power in powers.items()]

    def size_rows(
        self, alpha: float, power: float, rounding: str = "up"
    ) -> list[tuple[str, SizeEstimate]]:
        """The size chain, by method, ending with the inversion of the exact power."""
        family, m = FAMILIES[self.family], self.decision_margins
        return family.size_rows(self.design, m, alpha, power, rounding)

    def split_total(self, total: int) -> tuple[int, ...]:
        """The group sizes of a total, remainder to the first groups."""
        allocation = FAMILIES[self.family].sizing(self.design).allocation
        return core.rounded_sizes(float(total), allocation, "up")[1]


def _factor(value, path: str) -> FactorSpec:
    if not isinstance(value, dict):
        raise ConfigError(f"{path}: expected an object with probs/effects")
    try:
        with _fields(value, path) as value:
            return FactorSpec(
                probs=_field(value, path, "probs", _numbers),
                effects=_field(value, path, "effects", _numbers),
            )
    except DomainError as exc:
        raise ConfigError(f"{path}: {exc}") from None


# the reader of each generator key; a family's record names the keys it reads
_GENERATOR = {
    "intercept": _number, "baseline_effect": _number, "period_effect": _number, "factor": _factor,
    **dict.fromkeys(("visit_intercepts", "visit_baseline_effects", "visit_effects"), _numbers),
}


def _margins(doc: dict, objective: str, tau1: float) -> Margins | None:
    if objective == "bioequivalence" and "margins" not in doc:
        return BE_MARGINS
    if objective in ("equivalence", "bioequivalence"):
        block = _require(doc, "margins", "$")
        if not isinstance(block, dict):
            raise ConfigError("margins: expected an object with lower/upper")
        with _fields(block, "margins") as block:
            lower = _number(_require(block, "lower", "margins"), "margins.lower")
            upper = _number(_require(block, "upper", "margins"), "margins.upper")
        try:
            return Margins.equivalence(lower, upper)
        except DomainError as exc:
            raise ConfigError(f"margins: {exc}") from None
    if objective == "noninferiority":
        m0 = _number(_require(doc, "margin", "$"), "margin")
        try:
            return Margins.noninferiority(m0, tau1)
        except DomainError as exc:
            raise ConfigError(f"margin: {exc}") from None
    return None


def parse_design(doc: dict) -> DesignConfig:
    """Validate a parsed design document and build the runtime objects.

    Each object of the document may hold only the keys its reader reads; any
    other key is an error that names its path.
    """
    if not isinstance(doc, dict):
        raise ConfigError("$: design document must be a JSON object")
    with _fields(doc, "") as doc:
        return _parse(doc)


def _parse(doc: dict) -> DesignConfig:
    family = _require(doc, "family", "$")
    if family not in FAMILIES:
        raise ConfigError(f"family: must be one of {tuple(FAMILIES)}, got {family!r}")
    objective = doc.get("objective", "superiority")
    if objective not in _OBJECTIVES:
        raise ConfigError(f"objective: must be one of {_OBJECTIVES}, got {objective!r}")
    block = _require(doc, "design", "$")
    if not isinstance(block, dict):
        raise ConfigError("design: expected an object")
    record = FAMILIES[family]
    try:
        with _fields(block, "design") as block:
            design = record.parse(block, "design")
    except DomainError as exc:
        raise ConfigError(f"design: {exc}") from None
    # a nonzero effect must have a normal square, since the size formulas
    # divide by it; a zero effect (a null or equivalence design) is allowed
    tau1 = record.tau1(design)
    if tau1 != 0.0 and tau1 * tau1 < sys.float_info.min:
        raise ConfigError(
            f"design.{record.effect_field}: the effect {tau1!r} is so small "
            "that its square underflows"
        )

    alpha_default = BE_ALPHA if objective == "bioequivalence" else 0.05
    alpha = _number(doc.get("alpha", alpha_default), "alpha")
    try:
        core.check_alpha(alpha)
    except DomainError:
        raise ConfigError(f"alpha: {core.ALPHA_DOMAIN}, got {alpha}") from None
    target_power = _number(doc.get("target_power", 0.80), "target_power")
    if not 0.0 < target_power < 1.0:
        raise ConfigError(f"target_power: must lie in (0, 1), got {target_power}")

    margins = _margins(doc, objective, tau1)

    sim = doc.get("simulation", {})
    if not isinstance(sim, dict):
        raise ConfigError("simulation: expected an object")
    with _fields(sim, "simulation") as sim:
        gen = sim.get("generator", {})
        if not isinstance(gen, dict):
            raise ConfigError("simulation.generator: expected an object")
        try:
            with _fields(gen, "simulation.generator") as gen:
                scenario = ScenarioSpec(
                    design=design,
                    replicates=_integer(sim.get("replicates", 0), "simulation.replicates"),
                    seed=_integer(sim.get("seed", 20240801), "simulation.seed"),
                    **{
                        key: _GENERATOR[key](gen[key], f"simulation.generator.{key}")
                        for key in record.generator
                        if key in gen
                    },
                )
        except DomainError as exc:
            raise ConfigError(f"simulation: {exc}") from None

    return DesignConfig(
        family=family,
        alpha=alpha,
        target_power=target_power,
        design=design,
        margins=margins,
        scenario=scenario,
    )


def load_design(path: str | Path) -> DesignConfig:
    """Read and validate a design file."""
    p = Path(path)
    if not p.exists():
        raise ConfigError(f"design file not found: {p}")
    try:
        doc = json.loads(p.read_text())
    except ValueError as exc:  # a JSONDecodeError, or an integer literal too long to read
        raise ConfigError(f"{p}: invalid JSON ({exc})") from None
    return parse_design(doc)
