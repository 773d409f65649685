"""Design-file loading and validation.

A design file is a JSON document describing one scenario: the design family
and its parameters, the trial objective, defaults for alpha and the target
power, and (optionally) generator settings for simulation.  The schema is
documented in the README.  Objects and values are read by the readers of
:mod:`trialsize.families`; a failure raises :class:`ConfigError` naming a path.

The objective is read here and nowhere else: it becomes the ``margins`` of
the :class:`DesignConfig` (none for superiority), and "bioequivalence" only
sets the defaults alpha = 0.1 and margins of +/- ln 1.25.  The generator keys
read are those the family's record names.
"""

from __future__ import annotations

import json
import sys
from dataclasses import dataclass, replace
from pathlib import Path

from . import core
from .core import TestKernel
from .equivalence import BE_ALPHA, BE_MARGINS, Margins
from .errors import ConfigError, DomainError
from .families import FAMILIES, _choice, _integer, _number, _numbers, _Object
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
        """The family's test kernel (:meth:`trialsize.families.Family.kernel`)
        at the objective's null value."""
        family = FAMILIES[self.family]
        null = family.null(self.design, self.decision_margins)
        return replace(family.kernel(self.design), tau0=null)

    def exact_power(self, n: float, alpha: float) -> float:
        """The exact power, which the size chain's inversion solves for the target."""
        inverted, powers = FAMILIES[self.family].powers(self.design, self.decision_margins)
        return powers[inverted](n, alpha).value

    def power_rows(self, n: float, alpha: float) -> list[tuple[str, float]]:
        """Every power method of the family and objective, by name."""
        _, powers = FAMILIES[self.family].powers(self.design, self.decision_margins)
        return [(name, power(n, alpha).value) for name, power in powers.items()]

    def size_rows(self, alpha: float, power: float) -> dict[str, float]:
        """The size chain, by method, ending with the inversion of the exact power."""
        return FAMILIES[self.family].size_rows(self.design, self.decision_margins, alpha, power)

    def rounded_sizes(self, total: float, rounding: str = "up") -> tuple[int, tuple[int, ...]]:
        """A size rounded by ``rounding`` and split across the groups of the
        family's allocation (:func:`trialsize.core.rounded_sizes`)."""
        allocation = FAMILIES[self.family].sizing(self.design).allocation
        return core.rounded_sizes(total, allocation, rounding)


def _factor(value, path: str) -> FactorSpec:
    with _Object(value, path) as factor:
        return FactorSpec(probs=factor("probs", _numbers), effects=factor("effects", _numbers))


# the reader of each generator key; a family's record names the keys it reads
_GENERATOR = {
    "intercept": _number, "baseline_effect": _number, "period_effect": _number, "factor": _factor,
    **dict.fromkeys(("visit_intercepts", "visit_baseline_effects", "visit_effects"), _numbers),
}


def _margins(doc: _Object, objective: str, tau1: float) -> Margins | None:
    if objective == "bioequivalence" and "margins" not in doc:
        return BE_MARGINS
    if objective in ("equivalence", "bioequivalence"):
        with doc("margins", _Object) as block:
            lower, upper = block("lower"), block("upper")
        try:
            return Margins.equivalence(lower, upper)
        except DomainError as exc:
            raise ConfigError(f"margins: {exc}") from None
    if objective == "noninferiority":
        m0 = doc("margin")
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
    with _Object(doc, "") as doc:
        return _parse(doc)


def _parse(doc: _Object) -> DesignConfig:
    family = doc("family", _choice(FAMILIES))
    objective = doc("objective", _choice(_OBJECTIVES), "superiority")
    record = FAMILIES[family]
    with doc("design", _Object) as block:
        design = record.parse(block)
    # a nonzero effect must have a normal, finite square, since the size
    # formulas divide by it and the powers and the simulator square it; a zero
    # effect (a null or equivalence design) is allowed
    tau1 = record.tau1(design)
    if tau1 != 0.0 and not sys.float_info.min <= tau1 * tau1 <= sys.float_info.max:
        flow = "small that its square underflows"
        if abs(tau1) > 1.0:
            flow = "large that its square overflows"
        raise ConfigError(f"design.{record.effect_field}: the effect {tau1!r} is so {flow}")

    alpha = doc("alpha", default=BE_ALPHA if objective == "bioequivalence" else 0.05)
    try:
        core.check_alpha(alpha)
    except DomainError:
        raise ConfigError(f"alpha: {core.ALPHA_DOMAIN}, got {alpha}") from None
    target_power = doc("target_power", default=0.80)
    if not 0.0 < target_power < 1.0:
        raise ConfigError(f"target_power: must lie in (0, 1), got {target_power}")

    margins = _margins(doc, objective, tau1)

    # only the keys the file has, so that ScenarioSpec's defaults are the only ones
    with doc("simulation", _Object, {}) as sim:
        given = {key: sim(key, _integer) for key in ("replicates", "seed") if key in sim}
        with sim("generator", _Object, {}) as gen:
            extras = {key: gen(key, _GENERATOR[key]) for key in record.generator if key in gen}
        scenario = ScenarioSpec(design=design, **given, **extras)

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
