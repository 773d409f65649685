"""Design-lowering tests: kernels, Satterthwaite d.f., exact Welch power."""



import pytest
from hypothesis import given, settings, strategies as st

from trialsize import core, designs
from trialsize.errors import DomainError

ALPHA = 0.05


class TestOneSampleKernel:
    def test_fields(self):
        k = designs.one_sample_kernel(1.0, 0.0, 2.5)
        assert k.v == 2.5
        assert k.df_at(10) == 9
        assert k.rho_at(123.0) == 1.0
        assert k.min_n == 2

    def test_null_power_alpha(self):
        k = designs.one_sample_kernel(0.0, 0.0, 1.0)
        assert abs(core.power_two_sided(k, 12, ALPHA).value - ALPHA) < 1e-9

    def test_bad_variance(self):
        with pytest.raises(DomainError):
            designs.one_sample_kernel(1.0, 0.0, 0.0)

    def test_crossover_no_period_matches_one_sample(self):
        cs = designs.CrossoverSpec(0.0, 0.4, 0.05, 0.5, period_effect_in_analysis=False)
        k = designs.crossover_kernel(cs)
        k1 = designs.one_sample_kernel(0.4, 0.0, 0.05)
        assert k.v == k1.v
        assert k.df_at(9) == k1.df_at(9)


class TestTwoSampleKernels:
    def test_equal_variance_half(self):
        s = designs.TwoSampleSpec(0.0, 1.0, 2.0, 2.0, 0.5, equal_variance=True)
        assert designs.two_sample_equal_kernel(s, 0.0).v == 8.0

    def test_equal_variance_quarter(self):
        s = designs.TwoSampleSpec(0.0, 1.0, 1.0, 1.0, 0.25, equal_variance=True)
        assert abs(designs.two_sample_equal_kernel(s, 0.0).v - 1.0 / (0.25 * 0.75)) < 1e-12

    def test_flag_required(self):
        s = designs.TwoSampleSpec(0.0, 1.0, 1.0, 1.0, 0.5, equal_variance=False)
        with pytest.raises(DomainError):
            designs.two_sample_equal_kernel(s, 0.0)

    def test_unequal_fields(self):
        s = designs.TwoSampleSpec(0.0, 1.0, 1.0, 4.0, 0.5)
        k = designs.two_sample_unequal_kernel(s, 0.0)
        assert abs(k.v - 10.0) < 1e-12
        assert abs(k.rho_at(50.0) - 100.0 / 136.0) < 1e-12

    @pytest.mark.parametrize(
        "sigma0_sq,sigma1_sq,gamma0", [(1e300, 4.0, 0.5), (1e-200, 1e-200, 0.5), (1.0, 4.0, 1e-110)]
    )
    def test_welch_information_fraction_out_of_float_range(self, sigma0_sq, sigma1_sq, gamma0):
        # the Welch rho squares each variance and cubes each allocation
        # fraction; the pooled test uses neither
        with pytest.raises(DomainError, match="Welch d.f.'s information fraction"):
            designs.TwoSampleSpec(0.0, 1.0, sigma0_sq, sigma1_sq, gamma0)
        if sigma0_sq == sigma1_sq:
            designs.TwoSampleSpec(0.0, 1.0, sigma0_sq, sigma1_sq, gamma0, equal_variance=True)

    def test_satterthwaite_reduces_to_pooled(self):
        # equal variances and equal group sizes: f equals n - 2 exactly
        for n in (10.0, 23.0, 81.0):
            f = designs.satterthwaite_df(1.7, 1.7, n / 2, n / 2)
            assert abs(f - (n - 2.0)) < 1e-9

    @given(
        v0=st.floats(min_value=0.2, max_value=5.0),
        v1=st.floats(min_value=0.2, max_value=5.0),
        n0=st.floats(min_value=3.0, max_value=200.0),
        n1=st.floats(min_value=3.0, max_value=200.0),
    )
    @settings(max_examples=60, deadline=None)
    def test_satterthwaite_bounds(self, v0, v1, n0, n1):
        f = designs.satterthwaite_df(v0, v1, n0, n1)
        assert min(n0, n1) - 1.0 <= f + 1e-9
        assert f <= n0 + n1 - 2.0 + 1e-9


class TestMoserExactPower:
    def test_reference_values(self):
        s = designs.TwoSampleSpec(0.0, 1.0, 1.0, 4.0, 0.5)
        assert abs(designs.moser_exact_power(s, 0.0, 82, ALPHA).value * 100 - 80.40) < 0.01
        s = designs.TwoSampleSpec(0.0, 2.25, 1.0, 4.0, 0.5)
        assert abs(designs.moser_exact_power(s, 0.0, 20, ALPHA).value * 100 - 83.52) < 0.01

    def test_equal_variance_agreement(self):
        # on the equal-variance subfamily the ratio-conditional power matches
        # the pooled-test power at design-relevant sizes; the gap (the Welch
        # test's random d.f.) vanishes as n grows
        s_eq = designs.TwoSampleSpec(0.0, 1.0, 1.5, 1.5, 0.5, equal_variance=True)
        s_un = designs.TwoSampleSpec(0.0, 1.0, 1.5, 1.5, 0.5)
        k = designs.two_sample_equal_kernel(s_eq, 0.0)
        gaps = []
        for n in (20, 40, 60, 82, 120):
            pooled = core.power_two_sided(k, n, ALPHA).value
            welch = designs.moser_exact_power(s_un, 0.0, n, ALPHA).value
            gaps.append(abs(pooled - welch))
        assert all(b < a for a, b in zip(gaps, gaps[1:]))
        assert max(gaps[-3:]) < 5e-4

    def test_increasing_in_n(self):
        s = designs.TwoSampleSpec(0.0, 1.2, 1.0, 4.0, 0.5)
        vals = [designs.moser_exact_power(s, 0.0, n, ALPHA).value for n in range(10, 80, 6)]
        assert all(b > a for a, b in zip(vals, vals[1:]))

    def test_fractional_group_sizes(self):
        s = designs.TwoSampleSpec(0.0, 1.0, 1.0, 4.0, 0.45)
        val = designs.moser_exact_power(s, 0.0, 37.6, ALPHA).value
        assert 0.0 < val < 1.0

    def test_too_small(self):
        s = designs.TwoSampleSpec(0.0, 1.0, 1.0, 4.0, 0.5)
        with pytest.raises(DomainError):
            designs.moser_exact_power(s, 0.0, 2.0, ALPHA)


class TestCrossoverKernel:
    def test_no_period_variance_rate(self):
        cs = designs.CrossoverSpec(0.0, 0.1, 0.05, 0.5, period_effect_in_analysis=False)
        k = designs.crossover_kernel(cs)
        n = 12.0
        assert abs(k.v / n - cs.sigma_d_sq / n) < 1e-15
        assert k.df_at(n) == n - 1

    def test_period_effect_balanced(self):
        cs = designs.CrossoverSpec(0.0, 0.1, 0.05, 0.5, period_effect_in_analysis=True)
        k = designs.crossover_kernel(cs)
        assert abs(k.v - cs.sigma_d_sq) < 1e-15
        assert k.df_at(12.0) == 10.0

    def test_balanced_variances_match_df_differs(self):
        # with equal sequence sizes the two analyses share var(estimate);
        # the d.f. differ by exactly one
        no_p = designs.crossover_kernel(
            designs.CrossoverSpec(0.0, 0.2, 0.05, 0.5, period_effect_in_analysis=False)
        )
        with_p = designs.crossover_kernel(
            designs.CrossoverSpec(0.0, 0.2, 0.05, 0.5, period_effect_in_analysis=True)
        )
        n = 18.0
        assert abs(no_p.v / n - with_p.v / n) < 1e-15
        assert no_p.df_at(n) - with_p.df_at(n) == 1.0

    def test_effect_orientation(self):
        cs = designs.CrossoverSpec(0.3, 0.1, 0.05, 0.5)
        assert designs.crossover_kernel(cs).tau1 == pytest.approx(-0.2)
