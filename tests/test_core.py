"""Generalized power/size procedure tests against the two-sample fixtures."""

import math

import pytest

from trialsize import core, designs
from trialsize.errors import BracketError, DomainError

ALPHA = 0.05
POWER = 0.80


def equal_kernel(tau: float) -> core.TestKernel:
    spec = designs.TwoSampleSpec(0.0, tau, 1.0, 1.0, 0.5, equal_variance=True)
    return designs.two_sample_equal_kernel(spec, 0.0)


class TestPower:
    def test_reference_two_sided(self):
        k = equal_kernel(2.0)
        assert abs(core.power_two_sided(k, 12, ALPHA).value - 0.8764) < 5e-5

    def test_null_gives_alpha(self):
        est = core.power_two_sided(equal_kernel(0.0), 40, ALPHA)
        assert abs(est.value - ALPHA) < 1e-9

    def test_one_sample_oracle(self):
        # oracle: noncentral t tails of the defining mixture at 40-digit precision
        k = designs.one_sample_kernel(1.0, 0.0, 1.0)
        assert abs(core.power_two_sided(k, 10, ALPHA).value - 0.8030968566327216) < 1e-9

    def test_one_sided_sandwich(self):
        for tau in (0.3, 0.8, 1.5):
            k = equal_kernel(tau)
            for n in (8, 20, 60):
                p2 = core.power_two_sided(k, n, ALPHA).value
                p1 = core.power_one_sided_approx(k, n, ALPHA).value
                assert p2 >= p1 - 1e-12
                assert p1 >= p2 - ALPHA

    def test_one_sided_reference(self):
        k = equal_kernel(0.5)
        assert abs(core.power_one_sided_approx(k, 128, ALPHA).value - 0.8015) < 1e-4

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


class TestSizes:
    def test_normal_reference(self):
        assert abs(core.size_normal(equal_kernel(0.5), ALPHA, POWER).fractional - 125.58) < 5e-3
        uneq = designs.two_sample_unequal_kernel(
            designs.TwoSampleSpec(0.0, 1.0, 1.0, 4.0, 0.5), 0.0
        )
        assert abs(core.size_normal(uneq, ALPHA, POWER).fractional - 78.49) < 5e-3

    def test_scaling_law(self):
        n1 = core.size_normal(equal_kernel(0.5), ALPHA, POWER).fractional
        n2 = core.size_normal(equal_kernel(1.0), ALPHA, POWER).fractional
        assert abs(n1 / n2 - 4.0) < 1e-9

    def test_g1_reference(self):
        assert abs(core.size_g1(equal_kernel(0.5), ALPHA, POWER).fractional - 127.50) < 5e-3
        uneq = designs.two_sample_unequal_kernel(
            designs.TwoSampleSpec(0.0, 1.0, 1.0, 4.0, 0.5), 0.0
        )
        assert abs(core.size_g1(uneq, ALPHA, POWER).fractional - 81.10) < 5e-3

    def test_g1_correction_constant(self):
        k = equal_kernel(0.7)
        ntilde = core.size_normal(k, ALPHA, POWER).fractional
        g1 = core.size_g1(k, ALPHA, POWER).fractional
        assert abs((g1 - ntilde) - 1.9207) < 1e-4

    def test_g2_reference(self):
        assert abs(core.size_g2(equal_kernel(2.0), ALPHA, POWER).fractional - 10.15) < 5e-3
        uneq = designs.two_sample_unequal_kernel(
            designs.TwoSampleSpec(0.0, 2.25, 1.0, 4.0, 0.5), 0.0
        )
        assert abs(core.size_g2(uneq, ALPHA, POWER).fractional - 18.49) < 5e-3

    def test_ordering(self):
        for tau in (0.4, 0.9, 1.7, 2.4):
            for k in (
                equal_kernel(tau),
                designs.two_sample_unequal_kernel(
                    designs.TwoSampleSpec(0.0, tau, 1.0, 4.0, 0.4), 0.0
                ),
            ):
                nn = core.size_normal(k, ALPHA, POWER).fractional
                g1 = core.size_g1(k, ALPHA, POWER).fractional
                g2 = core.size_g2(k, ALPHA, POWER).fractional
                assert nn < g1 < g2

    def test_two_step_reference(self):
        assert abs(core.size_two_step(equal_kernel(0.75), ALPHA, POWER).fractional - 57.90) < 5e-3
        assert abs(core.size_two_step(equal_kernel(2.25), ALPHA, POWER).fractional - 10.59) < 5e-3

    def test_two_step_normal_limit(self):
        # as power -> alpha+ both formulas shrink together; check agreement at
        # a large first-pass size where t quantiles approach normal ones
        k = equal_kernel(0.05)
        ts = core.size_two_step(k, ALPHA, POWER).fractional
        nn = core.size_normal(k, ALPHA, POWER).fractional
        assert abs(ts / nn - 1.0) < 1e-3

    def test_effect_required(self):
        k = equal_kernel(1.0)
        knull = core.TestKernel(
            tau0=0.0, tau1=0.0, v=k.v, rho_at=k.rho_at, df_at=k.df_at,
            min_n=k.min_n, allocation=k.allocation,
        )
        with pytest.raises(DomainError):
            core.size_normal(knull, ALPHA, POWER)


class TestInversion:
    def test_equal_variance_reference(self):
        k = equal_kernel(0.5)
        est = core.size_invert(
            lambda n: core.power_two_sided(k, n, ALPHA).value, POWER, 160.0, k.min_n
        )
        assert abs(est.fractional - 127.53) < 5e-3

    def test_large_effect_reference(self):
        k = equal_kernel(1.5)
        est = core.size_invert(
            lambda n: core.power_two_sided(k, n, ALPHA).value, POWER, 18.0, k.min_n
        )
        assert abs(est.fractional - 16.12) < 5e-3

    def test_round_trip(self):
        k = equal_kernel(0.9)
        est = core.size_invert(
            lambda n: core.power_two_sided(k, n, ALPHA).value, POWER, 40.0, k.min_n
        )
        assert abs(core.power_two_sided(k, est.fractional, ALPHA).value - POWER) < 1e-6

    def test_bracket_widens_from_far_hints(self):
        k = equal_kernel(0.5)
        power_fn = lambda n: core.power_two_sided(k, n, ALPHA).value
        roots = [
            core.size_invert(power_fn, POWER, hint, k.min_n).fractional
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

        core.size_invert(power_fn, POWER, core.size_g2(k, ALPHA, POWER).fractional, k.min_n)
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


class TestNiMargin:
    def test_sets_null_and_flag(self):
        k = designs.one_sample_kernel(0.0, 0.0, 1.0)
        kni = core.apply_ni_margin(k, 1.0)
        assert kni.tau0 == 1.0
        assert kni.one_tailed
        assert kni.tau1 == k.tau1

    def test_superiority_reduction(self):
        k = equal_kernel(1.0)
        assert core.apply_ni_margin(k, 0.0).tau0 == 0.0

    def test_margin_equal_alternative_rejected(self):
        with pytest.raises(DomainError):
            core.apply_ni_margin(equal_kernel(1.0), 1.0)

    def test_ni_size_matches_inversion_oracle(self):
        # margin 1 against a zero effect is the same kernel geometry as a
        # unit-effect superiority test, whose exact size is 33.43
        spec = designs.TwoSampleSpec(0.0, 0.0, 1.0, 1.0, 0.5, equal_variance=True)
        k = core.apply_ni_margin(designs.two_sample_equal_kernel(spec, 0.0), 1.0)
        est = core.size_invert(
            lambda n: core.power_two_sided(k, n, ALPHA).value, POWER, 40.0, k.min_n
        )
        assert abs(est.fractional - 33.43) < 5e-3


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
