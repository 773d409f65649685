"""Generalized power/size procedure tests against the two-sample fixtures."""

import dataclasses
import math

import numpy as np
import pytest

from trialsize import ancova, core, designs, equivalence, mmrm
from trialsize.errors import BracketError, DomainError
from trialsize.families import FAMILIES, family_of

ALPHA = 0.05
POWER = 0.80


def equal_spec(tau: float) -> designs.TwoSampleSpec:
    return designs.TwoSampleSpec(0.0, tau, 1.0, 1.0, 0.5, equal_variance=True)


def equal_kernel(tau: float) -> core.TestKernel:
    return designs.two_sample_kernel(equal_spec(tau))


def row(design, name: str, margins=equivalence.Margins.superiority()):
    """The power row ``name`` of the design's family for the objective of
    ``margins``, a function of (n, alpha)."""
    return family_of(design).powers(design, margins)[1][name]


def sizes(k: core.TestKernel) -> dict[str, float]:
    """The kernel's noniterative sizes by name (no inversion)."""
    return core.size_chain(k, k.effect, ALPHA, POWER)


class TestPower:
    def test_reference_two_sided(self):
        k = equal_kernel(2.0)
        assert abs(core.power_two_sided(k, 12, ALPHA).value - 0.8764) < 5e-5

    def test_null_gives_alpha(self):
        est = core.power_two_sided(equal_kernel(0.0), 40, ALPHA)
        assert abs(est.value - ALPHA) < 1e-9

    def test_exact_nan_is_not_clipped(self):
        # max(0.0, nan) is 0.0: an undefined power must not read as 0
        est = core.expected_power(
            lambda se, crit, f: math.nan, lambda _: (1.0, 2.0, 3.0), 10.0, alpha=ALPHA
        )
        assert math.isnan(est.value)

    def test_one_sample_oracle(self):
        # oracle: noncentral t tails of the defining mixture at 40-digit precision
        k = designs.one_sample_kernel(designs.OneSampleSpec(1.0, 0.0, 1.0))
        assert abs(core.power_two_sided(k, 10, ALPHA).value - 0.8030968566327216) < 1e-9

    def test_one_sided_sandwich(self):
        for tau in (0.3, 0.8, 1.5):
            k = equal_kernel(tau)
            for n in (8, 20, 60):
                p2 = core.power_two_sided(k, n, ALPHA).value
                p1 = row(equal_spec(tau), "one_sided_approx")(n, ALPHA).value
                assert p2 >= p1 - 1e-12
                assert p1 >= p2 - ALPHA

    def test_one_sided_reference(self):
        one_sided = row(equal_spec(0.5), "one_sided_approx")
        assert abs(one_sided(128, ALPHA).value - 0.8015) < 1e-4

    def test_small_effect_vs_two_term_oracle(self):
        # oracle: sum the two noncentral tails directly from the CDF engine
        from trialsize import dist

        k = equal_kernel(0.25)
        n = 50.0
        f = k.df_at(n)
        lam = abs(k.effect) * math.sqrt(n / k.v)
        crit = dist.t_quantile(1 - ALPHA / 2, f)
        direct = (1.0 - dist.t_cdf(crit, f, lam)) + dist.t_cdf(-crit, f, lam)
        assert abs(core.power_two_sided(k, n, ALPHA).value - direct) < 1e-9

    def test_monotone_in_n_and_effect(self):
        k = equal_kernel(0.8)
        powers = [core.power_two_sided(k, n, ALPHA).value for n in range(6, 80, 6)]
        assert all(b > a for a, b in zip(powers, powers[1:]))
        by_effect = [
            core.power_two_sided(equal_kernel(tau), 30, ALPHA).value
            for tau in (0.2, 0.4, 0.8, 1.2)
        ]
        assert all(b > a for a, b in zip(by_effect, by_effect[1:]))

    def test_below_min_n(self):
        with pytest.raises(DomainError):
            core.power_two_sided(equal_kernel(1.0), 3.0, ALPHA)


class TestMethod:
    """Every power reports how it was obtained: an exact power (clipped to
    [0, 1]) or an approximation (flagged when negative)."""

    def test_one_power_of_each_family(self):
        from trialsize import ancova, equivalence, mmrm

        welch = designs.TwoSampleSpec(0.0, 0.6, 1.0, 2.0, 0.5)
        adjusted = ancova.AncovaSpec(tau1=0.6, tau0=0.0, sigma_sq=1.0, q=2)
        repeated = mmrm.MmrmDesign(
            sigma=mmrm.compound_symmetry(3, 1.0, 0.5),
            retention=((1.0, 0.9, 0.8), (1.0, 0.85, 0.75)),
            gamma0=0.5, q=1, tau_p1=0.6,
        )
        margins = equivalence.Margins.equivalence(-0.5, 0.5)
        one_sample = designs.OneSampleSpec(mu=0.1, tau0=0.0, sigma_sq=1.0)
        kernel = designs.one_sample_kernel(designs.OneSampleSpec(0.1, 0.0, 1.0))
        # the paper's MMRM formula is a plug-in value, not an exact power
        pinned = [
            (core.power_two_sided(equal_kernel(1.0), 30, ALPHA), "exact_two_sided"),
            (row(equal_spec(1.0), "one_sided_approx")(30, ALPHA), "approx"),
            (designs.moser_exact_power(welch, 0.0, 60, ALPHA), "integral_exact"),
            (ancova.ancova_power_exact(adjusted, 60, ALPHA), "integral_exact"),
            (row(adjusted, "approx")(60, ALPHA), "approx"),
            (equivalence.equiv_power_exact(kernel, margins, 40, ALPHA), "integral_exact"),
            (row(one_sample, "approx", margins)(40, ALPHA), "approx"),
            (row(repeated, "main")(120, ALPHA), "approx"),
        ]
        assert [est.method for est, _ in pinned] == [method for _, method in pinned]


class TestSizes:
    def test_normal_reference(self):
        assert abs(sizes(equal_kernel(0.5))["normal"] - 125.58) < 5e-3
        uneq = designs.two_sample_kernel(designs.TwoSampleSpec(0.0, 1.0, 1.0, 4.0, 0.5))
        assert abs(sizes(uneq)["normal"] - 78.49) < 5e-3

    def test_scaling_law(self):
        n1 = sizes(equal_kernel(0.5))["normal"]
        n2 = sizes(equal_kernel(1.0))["normal"]
        assert abs(n1 / n2 - 4.0) < 1e-9

    def test_g1_reference(self):
        assert abs(sizes(equal_kernel(0.5))["g1"] - 127.50) < 5e-3
        uneq = designs.two_sample_kernel(designs.TwoSampleSpec(0.0, 1.0, 1.0, 4.0, 0.5))
        assert abs(sizes(uneq)["g1"] - 81.10) < 5e-3

    def test_g1_correction_constant(self):
        k = equal_kernel(0.7)
        chain = sizes(k)
        assert abs((chain["g1"] - chain["normal"]) - 1.9207) < 1e-4

    def test_g2_reference(self):
        assert abs(sizes(equal_kernel(2.0))["g2"] - 10.15) < 5e-3
        uneq = designs.two_sample_kernel(designs.TwoSampleSpec(0.0, 2.25, 1.0, 4.0, 0.5))
        assert abs(sizes(uneq)["g2"] - 18.49) < 5e-3

    def test_ordering(self):
        for tau in (0.4, 0.9, 1.7, 2.4):
            for k in (
                equal_kernel(tau),
                designs.two_sample_kernel(designs.TwoSampleSpec(0.0, tau, 1.0, 4.0, 0.4)),
            ):
                chain = sizes(k)
                assert chain["normal"] < chain["g1"] < chain["g2"]

    def test_two_step_reference(self):
        assert abs(sizes(equal_kernel(0.75))["two_step"] - 57.90) < 5e-3
        assert abs(sizes(equal_kernel(2.25))["two_step"] - 10.59) < 5e-3

    def test_two_step_normal_limit(self):
        # as power -> alpha+ both formulas shrink together; check agreement at
        # a large first-pass size where t quantiles approach normal ones
        k = equal_kernel(0.05)
        chain = sizes(k)
        assert abs(chain["two_step"] / chain["normal"] - 1.0) < 1e-3

    def test_effect_required(self):
        k = equal_kernel(1.0)
        knull = core.TestKernel(
            tau0=0.0, tau1=0.0, v=k.v, rho_at=k.rho_at, df_at=k.df_at,
            min_n=k.min_n, allocation=k.allocation,
        )
        with pytest.raises(DomainError):
            sizes(knull)


class TestChain:
    def test_rows_end_with_the_inversion_of_the_exact_power(self):
        k = equal_kernel(0.5)
        exact = lambda n: core.power_two_sided(k, n, ALPHA).value
        rows = core.size_chain(k, k.effect, ALPHA, POWER, exact)
        assert list(rows) == ["normal", "g1", "g2", "two_step", "inversion"]
        assert abs(rows["inversion"] - 127.53) < 5e-3

    def test_first_pass_size_at_the_minimum(self):
        # normal size 1.62 <= min_n 2
        k = designs.one_sample_kernel(designs.OneSampleSpec(2.2, 0.0, 1.0))
        with pytest.raises(DomainError, match="first-pass size"):
            sizes(k)

    def test_effect_whose_square_overflows(self):
        k = equal_kernel(0.5)
        with pytest.raises(DomainError, match="the effect 1e\\+300 is too large"):
            core.size_chain(k, 1e300, ALPHA, POWER)

    def test_normal_size_above_the_cap(self):
        # refused before the correction and the extra rows see it, with or
        # without an inversion, and for equivalence margins off centre, whose
        # chain is at the nearer distance
        def unreachable(n):
            raise AssertionError(f"called at {n}")

        k = dataclasses.replace(equal_kernel(0.5), correct=unreachable, extra=unreachable)
        with pytest.raises(DomainError, match="above the size cap"):
            core.size_chain(k, 1e-3, ALPHA, POWER)
        design = designs.TwoSampleSpec(0.0, 0.0, 1.0, 1.0, 0.5, equal_variance=True)
        family = dataclasses.replace(FAMILIES["two_sample"], sizing=lambda d: k)
        margins = equivalence.Margins.equivalence(-1e-3, 1.5e-3)
        with pytest.raises(DomainError, match="above the size cap 1e\\+07: the effect 0.001 "):
            family.size_rows(design, margins, ALPHA, POWER)

    def test_non_positive_two_step_df(self):
        k = dataclasses.replace(equal_kernel(0.5), df_at=lambda n: -1.0)
        with pytest.raises(DomainError, match="non-positive"):
            sizes(k)


class TestInversion:
    def test_equal_variance_reference(self):
        k = equal_kernel(0.5)
        est = core.size_invert(
            lambda n: core.power_two_sided(k, n, ALPHA).value, POWER, 160.0, k.min_n
        )
        assert abs(est - 127.53) < 5e-3

    def test_large_effect_reference(self):
        k = equal_kernel(1.5)
        est = core.size_invert(
            lambda n: core.power_two_sided(k, n, ALPHA).value, POWER, 18.0, k.min_n
        )
        assert abs(est - 16.12) < 5e-3

    def test_round_trip(self):
        k = equal_kernel(0.9)
        est = core.size_invert(
            lambda n: core.power_two_sided(k, n, ALPHA).value, POWER, 40.0, k.min_n
        )
        assert abs(core.power_two_sided(k, est, ALPHA).value - POWER) < 1e-6

    def test_bracket_widens_from_far_hints(self):
        k = equal_kernel(0.5)
        power_fn = lambda n: core.power_two_sided(k, n, ALPHA).value
        roots = [
            core.size_invert(power_fn, POWER, hint, k.min_n)
            for hint in (1.0, 127.5, 5e3)
        ]
        assert abs(roots[1] - 127.53) < 5e-3
        assert max(roots) - min(roots) < 1e-5

    def test_g2_seed_needs_few_power_evaluations(self):
        k = equal_kernel(0.5)
        seen = []

        def power_fn(n):
            seen.append(n)
            return core.power_two_sided(k, n, ALPHA).value

        core.size_invert(power_fn, POWER, sizes(k)["g2"], k.min_n)
        assert len(seen) == len(set(seen)) <= 12

    def test_degenerate_target_rejected(self):
        k = equal_kernel(1.0)
        with pytest.raises(BracketError):
            core.size_invert(
                lambda n: core.power_two_sided(k, n, ALPHA).value, ALPHA, 30.0, k.min_n
            )

    def test_unreachable_target(self):
        with pytest.raises(BracketError):
            core.size_invert(lambda n: 0.2, 0.8, 100.0, 2.0)

    def test_hint_beyond_size_cap(self):
        # at 1e19, n +- 2 rounds to n: a bracket that never widens
        for hint in (1e7, 1e19, float("nan")):
            with pytest.raises(BracketError, match="size cap"):
                core.size_invert(lambda n: 0.9, 0.8, hint, 2.0)


class TestRounding:
    def test_ceiling_policy(self):
        total, per = core.rounded_sizes(127.53, (0.5, 0.5), "up")
        assert total == 128 and per == (64, 64)
        total, per = core.rounded_sizes(21.0, (0.5, 0.5), "up")
        assert total == 21 and per == (11, 10)

    def test_nearest_policy(self):
        total, per = core.rounded_sizes(10.29, (0.5, 0.5), "nearest")
        assert total == 10 and per == (5, 5)
        total, per = core.rounded_sizes(10.5, (1.0,), "nearest")
        assert total == 11

    def test_remainder_to_first_group(self):
        total, per = core.rounded_sizes(10.0, (0.25, 0.75), "up")
        assert total == 10 and per == (3, 7)

    def test_unknown_policy(self):
        with pytest.raises(DomainError):
            core.rounded_sizes(10.0, (1.0,), "down")

    def test_per_group_difference_bound(self):
        for frac in (21.0, 47.2, 128.9):
            total, per = core.rounded_sizes(frac, (0.5, 0.5), "up")
            assert sum(per) == total
            assert abs(per[0] - per[1]) <= 1


# int(q) raised a bare ValueError for a NaN q and an OverflowError for an
# infinite one, in each spec's own copy of the check
COVARIATE_SPECS = {
    "ancova": lambda q: ancova.AncovaSpec(tau1=1.0, tau0=0.0, sigma_sq=1.0, q=q),
    "mmrm": lambda q: mmrm.MmrmDesign(
        sigma=np.eye(2), retention=((1.0, 0.9), (1.0, 0.9)), gamma0=0.5, q=q, tau_p1=1.0
    ),
}


@pytest.mark.parametrize("q", [math.nan, math.inf, -math.inf, -1, 1.5])
@pytest.mark.parametrize("spec", COVARIATE_SPECS)
def test_covariate_count_that_is_not_a_nonnegative_integer(spec, q):
    with pytest.raises(DomainError, match="^covariate count q must be a nonnegative integer"):
        COVARIATE_SPECS[spec](q)


@pytest.mark.parametrize("q", [0, 3, 3.0])
@pytest.mark.parametrize("spec", COVARIATE_SPECS)
def test_covariate_count_that_is_a_nonnegative_integer(spec, q):
    assert COVARIATE_SPECS[spec](q).q == q
