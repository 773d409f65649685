"""Covariate-adjusted power and sample-size chain tests."""

import math

import pytest
from hypothesis import given, settings, strategies as st

from trialsize import core, designs
from trialsize.ancova import (
    AncovaSpec,
    ancova_power_approx,
    ancova_power_asymptotic_t,
    ancova_power_exact,
)
from trialsize.equivalence import Margins
from trialsize.errors import DomainError
from trialsize.families import FAMILIES

ALPHA, POWER = 0.05, 0.80


def spec(tau, q, gamma0=0.5):
    return AncovaSpec(tau1=tau, tau0=0.0, sigma_sq=1.0, gamma0=gamma0, q=q)


def size_rows(s, alpha, power, margins=Margins.superiority()):
    """The ANCOVA size chain by row name, for the objective of ``margins``."""
    return FAMILIES["ancova"].size_rows(s, margins, alpha, power)


class TestExactPower:
    def test_reference_q1(self):
        assert abs(ancova_power_exact(spec(1.0, 1), 36, ALPHA).value * 100 - 81.80) < 0.01

    def test_reference_q3(self):
        assert abs(ancova_power_exact(spec(2.0, 3), 14, ALPHA).value * 100 - 81.61) < 0.01

    def test_q0_reduces_to_two_sample(self):
        ts = designs.TwoSampleSpec(0.0, 0.9, 1.0, 1.0, 0.5, equal_variance=True)
        k = designs.two_sample_equal_kernel(ts, 0.0)
        for n in (12, 26, 50):
            assert abs(
                ancova_power_exact(spec(0.9, 0), n, ALPHA).value
                - core.power_two_sided(k, n, ALPHA).value
            ) < 1e-9

    def test_increasing_in_n(self):
        vals = [ancova_power_exact(spec(1.0, 2), n, ALPHA).value for n in range(10, 80, 6)]
        assert all(b > a for a, b in zip(vals, vals[1:]))

    def test_domain_guard(self):
        with pytest.raises(DomainError):
            ancova_power_exact(spec(1.0, 3), 6.0, ALPHA)


class TestApproxPowers:
    def test_reference_q1(self):
        assert abs(ancova_power_approx(spec(1.0, 1), 36, ALPHA).value * 100 - 81.79) < 0.01

    def test_reference_q3(self):
        assert abs(ancova_power_approx(spec(2.0, 3), 14, ALPHA).value * 100 - 81.00) < 0.01

    def test_q0_matches_exact(self):
        for n in (10, 30):
            assert abs(
                ancova_power_approx(spec(1.1, 0), n, ALPHA).value
                - ancova_power_exact(spec(1.1, 0), n, ALPHA).value
            ) < 1e-9

    def test_exact_approx_agreement_moderate_n(self):
        # the two formulas agree closely once n - q is comfortably large
        for q in (1, 2, 3):
            for n in (40, 80, 160):
                d = abs(
                    ancova_power_exact(spec(1.0, q), n, ALPHA).value
                    - ancova_power_approx(spec(1.0, q), n, ALPHA).value
                )
                assert d < 1e-3

    def test_asymptotic_t_reference_sizes(self):
        inv1 = core.size_invert(
            lambda n: ancova_power_asymptotic_t(spec(1.0, 1), n, ALPHA).value,
            POWER, 35.0, 3.0,
        )
        assert abs(inv1 - 33.50) < 0.02
        inv3 = core.size_invert(
            lambda n: ancova_power_asymptotic_t(spec(1.0, 3), n, ALPHA).value,
            POWER, 35.0, 5.0,
        )
        assert abs(inv3 - 33.64) < 0.02

    def test_asymptotic_t_equals_approx_at_q0(self):
        for n in (15, 44):
            assert abs(
                ancova_power_asymptotic_t(spec(1.0, 0), n, ALPHA).value
                - ancova_power_approx(spec(1.0, 0), n, ALPHA).value
            ) < 1e-12


class TestSizeChain:
    def test_reference_row_q1(self):
        ch = size_rows(spec(1.0, 1), ALPHA, POWER)
        assert abs(ch["normal_asymptotic"] - 31.40) < 0.01
        assert abs(ch["normal"] - 32.46) < 0.01
        assert abs(ch["g1"] - 34.38) < 0.01
        assert abs(ch["g2"] - 34.49) < 0.01
        assert abs(ch["two_step"] - 34.65) < 0.01
        assert abs(ch["inversion"] - 34.50) < 0.01

    def test_reference_row_q3(self):
        ch = size_rows(spec(2.0, 3), ALPHA, POWER)
        assert abs(ch["normal_asymptotic"] - 7.85) < 0.01
        assert abs(ch["normal"] - 11.87) < 0.01
        assert abs(ch["g2"] - 14.06) < 0.01

    def test_quadratic_root_self_consistent(self):
        s = spec(1.0, 2)
        ch = size_rows(s, ALPHA, POWER)
        n = ch["normal_quadratic"]
        n_asy = ch["normal_asymptotic"]
        assert abs(n - n_asy * (1.0 + s.q / (n - s.q - 3.0))) < 1e-9

    @given(
        q=st.integers(min_value=1, max_value=10),
        n_asy=st.floats(min_value=10.0, max_value=1e4),
    )
    @settings(max_examples=80, deadline=None)
    def test_quadratic_root_bounds(self, q, n_asy):
        disc = (n_asy + q + 3.0) ** 2 - 12.0 * n_asy
        root = 0.5 * ((n_asy + q + 3.0) + math.sqrt(disc))
        assert n_asy + q < root < n_asy + q + 3.0

    def test_round_trip(self):
        s = spec(1.3, 2)
        ch = size_rows(s, ALPHA, POWER)
        assert abs(ancova_power_exact(s, ch["inversion"], ALPHA).value - POWER) < 1e-6

    def test_null_effect_rejected(self):
        with pytest.raises(DomainError):
            size_rows(spec(0.0, 1), ALPHA, POWER)

    def test_size_too_small_to_correct(self):
        with pytest.raises(DomainError, match="too small"):
            size_rows(AncovaSpec(tau1=3.0, tau0=0.0, sigma_sq=0.1, q=1), ALPHA, POWER)

    @pytest.mark.parametrize(
        "q,half_width,gamma0",
        [
            (3, 0.5, 0.5),
            (1, 0.5, 0.5),
            (6, 0.5, 0.5),
            (3, 0.8, 0.4),
            pytest.param(
                10, 0.6, 0.5,
                marks=pytest.mark.xfail(
                    strict=True, raises=AssertionError,
                    reason="g2 128.873 falls 0.108 short of the inversion 128.981",
                ),
            ),
        ],
    )
    def test_equivalence_g2_is_near_the_inversion(self, q, half_width, gamma0):
        # the equivalence chain carries the covariate correction: g2 falls
        # short of the inversion by 0.01 to 0.06 on the first four rows and
        # by 0.108 at q = 10 (without the correction by up to 10.3)
        s = AncovaSpec(tau1=0.0, tau0=0.0, sigma_sq=1.0, gamma0=gamma0, q=q)
        ch = size_rows(s, ALPHA, POWER, Margins.equivalence(-half_width, half_width))
        assert list(ch) == [
            "normal_asymptotic", "normal", "normal_quadratic", "g1", "g2", "two_step", "inversion"
        ]
        inversion = ch["inversion"]
        assert abs(ch["g2"] - inversion) < 0.1
