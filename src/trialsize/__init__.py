"""trialsize: power and sample size for t-based trial designs.

Analytic power and sample-size methods for the one-sample and two-sample
t tests, crossover designs, covariate-adjusted comparisons, and repeated-
measures mixed models, across superiority, noninferiority, equivalence and
bioequivalence objectives, plus a seeded Monte Carlo simulator that verifies
every analytic formula empirically.
"""

from .ancova import AncovaSpec, ancova_power_exact, ancova_sizing
from .core import (
    PowerEstimate,
    SizeModel,
    TestKernel,
    power_two_sided,
    size_chain,
    size_invert,
)
from .designs import (
    CrossoverSpec,
    TwoSampleSpec,
    crossover_kernel,
    moser_exact_power,
    one_sample_kernel,
    satterthwaite_df,
    two_sample_kernel,
)
from .equivalence import Margins, equiv_power_exact, ts_unequal_equiv_power
from .mmrm import (
    DropoutAverage,
    LdlFactors,
    MmrmDesign,
    ar1,
    compound_symmetry,
    dropout_averaged_power,
    ldl_decompose,
    mmrm_equiv_power_approx,
    mmrm_power_approx,
    mmrm_sizing,
    toeplitz,
)
from .simulate import FactorSpec, ScenarioSpec, SimReport, analyze_ancova, analyze_mmrm, simulate_power

__version__ = "0.1.0"

__all__ = [
    "AncovaSpec",
    "CrossoverSpec",
    "DropoutAverage",
    "FactorSpec",
    "LdlFactors",
    "Margins",
    "MmrmDesign",
    "PowerEstimate",
    "ScenarioSpec",
    "SimReport",
    "SizeModel",
    "TestKernel",
    "TwoSampleSpec",
    "analyze_ancova",
    "analyze_mmrm",
    "ancova_power_exact",
    "ancova_sizing",
    "ar1",
    "compound_symmetry",
    "crossover_kernel",
    "dropout_averaged_power",
    "equiv_power_exact",
    "ldl_decompose",
    "mmrm_equiv_power_approx",
    "mmrm_power_approx",
    "mmrm_sizing",
    "moser_exact_power",
    "one_sample_kernel",
    "power_two_sided",
    "satterthwaite_df",
    "simulate_power",
    "size_chain",
    "size_invert",
    "toeplitz",
    "ts_unequal_equiv_power",
    "two_sample_kernel",
]
