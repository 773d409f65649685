"""Equivalence and bioequivalence power/size tests."""

import math

import numpy as np
import pytest
from scipy import integrate, special

from trialsize import core, designs, equivalence
from trialsize.designs import CrossoverSpec, TwoSampleSpec
from trialsize.equivalence import (
    Margins,
    equiv_power_exact,
    _phillips_integral,
    ts_unequal_equiv_power,
)
from trialsize.ancova import AncovaSpec
from trialsize.config import load_design
from trialsize.errors import DomainError
from trialsize.families import be_adapter, family_of
from trialsize.tables import fixture_path

BE_MARGIN = math.log(1.25)


def be_spec(sigma_sq: float) -> CrossoverSpec:
    return CrossoverSpec(0.0, 0.0, 4.0 * sigma_sq, 0.5, period_effect_in_analysis=True)


def be_kernel(sigma_sq: float):
    k, m, alpha = be_adapter(be_spec(sigma_sq))
    return k, m, alpha


def row(spec, m: Margins, name: str):
    """The design family's power row ``name`` for the objective of ``m``,
    a function of (n, alpha)."""
    return family_of(spec).powers(spec, m)[1][name]


def be_approx(sigma_sq: float, n: float):
    """The bioequivalence crossover's integration-free power (its ``approx`` row)."""
    spec = be_spec(sigma_sq)
    _, m, alpha = be_adapter(spec)
    return row(spec, m, "approx")(n, alpha)


def equivalence_sizes(spec, m: Margins, alpha: float, power: float = 0.8) -> dict[str, float]:
    """The design's equivalence size chain, by row name."""
    return family_of(spec).size_rows(spec, m, alpha, power)


class TestMargins:
    def test_validation(self):
        with pytest.raises(DomainError):
            Margins(1.0, -1.0)
        with pytest.raises(DomainError, match="straddle zero"):
            Margins(0.5, 1.5)
        with pytest.raises(DomainError, match="exactly one finite margin"):
            Margins.noninferiority(math.inf, 0.0)
        with pytest.raises(DomainError, match="must differ from tau1"):
            Margins.noninferiority(1.0, 1.0)
        with pytest.raises(DomainError, match="equivalence margins must both be finite"):
            Margins.equivalence(-math.inf, math.inf)

    def test_kind_follows_the_bounds(self):
        assert Margins(-1.0, 1.0).kind == "equivalence"
        assert Margins(-math.inf, 1.0).kind == "noninferiority"
        assert Margins(0.0, math.inf).kind == "noninferiority"
        assert Margins.superiority().kind == "superiority"
        with pytest.raises(TypeError):
            Margins(-1.0, 1.0, kind="superiority")

    def test_noninferiority_orientation(self):
        m = Margins.noninferiority(1.0, 0.0)
        assert m.upper == 1.0 and m.lower == -math.inf
        m = Margins.noninferiority(-1.0, 0.0)
        assert m.lower == -1.0 and m.upper == math.inf

    def test_be_limits(self):
        _, m, alpha = be_kernel(0.0125)
        assert alpha == 0.1
        assert abs(m.upper - math.log(1.25)) < 5e-5
        assert m.lower == -m.upper


def phillips_oracle(a: float, b: float, c: float, f: float) -> float:
    """E[max(0, Phi(a - c sqrt(xi)) - Phi(b + c sqrt(xi)))], xi ~ chi2_f / f, by
    scipy quad over the probability p = Pr[chi2_f / f <= xi]."""
    top = min(1.0, special.gammainc(0.5 * f, 0.5 * f * ((a - b) / (2.0 * c)) ** 2))

    def h(p):
        r = c * math.sqrt(2.0 * special.gammaincinv(0.5 * f, p) / f)
        return special.ndtr(a - r) - special.ndtr(b + r)

    points = [p for p in (1e-9, 1e-6, 1e-3, 0.1, 0.5, 0.9) if p < top]
    return integrate.quad(h, 0.0, top, points=points, limit=500, epsabs=1e-13, epsrel=1e-12)[0]


class TestPhillipsIntegral:
    CASES = [
        (3.0, -3.0, 1.96),
        (5.0, -1.0, 2.5),
        (1.0, -1.0, 1.2),
        (8.0, -8.0, 4.0),
        (0.3, -0.3, 1.9),
        (math.inf, -2.0, 1.96),
        (4.0, -math.inf, 1.7),
    ]

    @pytest.mark.parametrize("f", [0.5, 1.0, 2.0, 5.0, 30.0, 1000.0, 5000.0])
    def test_matches_quad_oracle(self, f):
        for a, b, c in self.CASES:
            value = _phillips_integral(a, b, c, f)
            assert abs(value - phillips_oracle(a, b, c, f)) <= 1e-9, (a, b, c, f)

    def test_array_arguments_match_scalar_calls(self):
        a_up = np.array([[2.0], [4.0], [math.inf]])
        scales = np.array([0.5, 1.0, 1.96, 3.0, 10.0])
        batch = _phillips_integral(a_up, -3.0, scales, 12.0)
        assert batch.shape == (3, 5)
        for i, j in np.ndindex(batch.shape):
            single = _phillips_integral(a_up[i, 0], -3.0, scales[j], 12.0)
            assert abs(batch[i, j] - single) <= 1e-15

    def test_empty_positivity_region_is_zero(self):
        assert _phillips_integral(0.5, 0.5, 1.96, 10.0) == 0.0


class TestExactEquivalencePower:
    def test_crossover_reference(self):
        k, m, alpha = be_kernel(0.0125)
        assert abs(equiv_power_exact(k, m, 10, alpha).value * 100 - 78.14) < 0.02

    def test_half_size_stress(self):
        k, m, alpha = be_kernel(0.0125)
        assert abs(equiv_power_exact(k, m, 6, alpha).value * 100 - 37.94) < 0.02

    def test_one_sample_variant_references(self):
        sizes = [10, 18, 28, 36, 44, 54]
        expected = [79.31, 78.00, 81.52, 80.30, 79.53, 80.99]
        for i, (n, want) in enumerate(zip(sizes, expected)):
            s2 = 0.0125 * (i + 1)
            k = designs.one_sample_kernel(0.0, 0.0, 4.0 * s2)
            m = Margins.equivalence(-BE_MARGIN, BE_MARGIN)
            assert abs(equiv_power_exact(k, m, n, 0.1).value * 100 - want) < 0.02

    def test_wide_margins(self):
        k, _, alpha = be_kernel(0.0125)
        wide = Margins.equivalence(-50.0, 50.0)
        assert equiv_power_exact(k, wide, 12, alpha).value > 0.9999999

    def test_empty_interval_zero_power(self):
        # margins so tight that the CI can never fit inside them
        k, _, alpha = be_kernel(0.5)
        tight = Margins.equivalence(-1e-8, 1e-8)
        assert equiv_power_exact(k, tight, 4, alpha).value == 0.0

    def test_boundary_effect_rejected(self):
        s2 = 0.0125
        spec = CrossoverSpec(0.0, BE_MARGIN, 4.0 * s2, 0.5)
        k, m, alpha = be_adapter(spec)
        with pytest.raises(DomainError):
            equiv_power_exact(k, m, 12, alpha)


class TestApproxEquivalencePower:
    def test_reference(self):
        assert abs(be_approx(0.0125, 10).value * 100 - 78.10) < 0.02

    def test_documented_underestimate(self):
        est = be_approx(0.0125, 6)
        assert abs(est.value * 100 - 28.74) < 0.02
        assert est.approximation_valid

    def test_negative_flagged_not_clamped(self):
        est = be_approx(0.075, 4)
        assert est.value < 0.0
        assert not est.approximation_valid

    def test_exact_dominates_approx(self):
        for s2 in (0.0125, 0.05, 0.075):
            k, m, alpha = be_kernel(s2)
            for n in (4, 6, 10, 20, 40):
                ex = equiv_power_exact(k, m, n, alpha).value
                ap = be_approx(s2, n).value
                assert ex >= ap - 1e-10

    def test_power_small_near_min_n_then_grows(self):
        # margins narrow relative to the standard error at the minimum size:
        # the power starts near zero.  A genuine non-monotone valley exists
        # in the tiny-d.f. region (verified by simulation); past it the curve
        # is nondecreasing through the design-relevant range.
        k, m, alpha = be_kernel(0.075)
        vals = [equiv_power_exact(k, m, n, alpha).value for n in np.arange(3.5, 60.0, 1.0)]
        assert vals[0] < 0.05
        first_relevant = next(i for i, v in enumerate(vals) if v > 0.05)
        tail = vals[first_relevant:]
        assert all(b >= a - 1e-12 for a, b in zip(tail, tail[1:]))


class TestSymmetricSizes:
    def test_crossover_references(self):
        _, m, alpha = be_kernel(0.0125)
        sizes = equivalence_sizes(be_spec(0.0125), m, alpha)
        assert abs(sizes["normal"] - 8.60) < 0.01
        assert abs(sizes["two_step"] - 11.17) < 0.01
        assert abs(sizes["g1"] - 9.95) < 0.01
        assert abs(sizes["g2"] - 10.14) < 0.01

    def test_unequal_variance_reference(self):
        spec = TwoSampleSpec(0.0, 0.0, 1.0, 4.0, 0.5)
        m = Margins.equivalence(-1.5, 1.5)
        assert abs(equivalence_sizes(spec, m, 0.05)["g2"] - 49.45) < 0.01

    def test_inversion_round_trip(self):
        spec = TwoSampleSpec(0.0, 0.0, 1.0, 4.0, 0.5)
        m = Margins.equivalence(-1.5, 1.5)
        k = designs.two_sample_unequal_kernel(spec, 0.0)
        inv = core.size_invert(
            lambda n: ts_unequal_equiv_power(spec, m, n, 0.05).value, 0.8, 50.0, k.min_n
        )
        assert abs(inv - 49.47) < 0.02


class TestSizeBounds:
    """Equivalence margins off centre: the one chain at the nearer margin
    distance, sized for the level gamma(r), and the inversion of the exact
    power.  The symmetric chains at the two margin distances bound it."""

    ROWS = ["normal", "g1", "g2", "two_step", "inversion"]

    def test_symmetric_bounds_coincide(self):
        # margins 1e-8 off centre take gamma(r): the nearer distance is the
        # symmetric chain's half-width and gamma within 1e-8 of its level
        _, m, alpha = be_kernel(0.025)
        chain = equivalence_sizes(be_spec(0.025), m, alpha)
        b = equivalence_sizes(
            be_spec(0.025), Margins.equivalence(-BE_MARGIN, BE_MARGIN * (1.0 + 1e-8)), alpha
        )
        assert list(b) == list(chain) == self.ROWS
        assert all(abs(b[name] - chain[name]) < 1e-6 for name in self.ROWS)
        assert abs(b["g1"] - 18.55) < 0.01
        # margins 1e-10 off centre are symmetric: the half-width at (1 + power)/2
        lo, hi = -BE_MARGIN, BE_MARGIN * (1.0 + 1e-10)
        b = equivalence_sizes(be_spec(0.025), Margins.equivalence(lo, hi), alpha)
        model = family_of(be_spec(0.025)).sizing(be_spec(0.025))
        written_out = core.size_chain(model, 0.5 * (hi - lo), alpha, 0.8, target=0.9)
        assert {name: b[name] for name in written_out} == written_out

    def test_asymmetric_ordering_and_containment(self):
        spec = CrossoverSpec(0.0, 0.05, 0.05, 0.5)
        k, m, alpha = be_adapter(spec)  # effect 0.05 shifts toward the upper margin
        b = equivalence_sizes(spec, m, alpha)
        assert list(b) == self.ROWS
        near, far = sorted(m.distances(0.05))
        lower, upper = (
            equivalence_sizes(spec, Margins.equivalence(0.05 - d, 0.05 + d), alpha)
            for d in (far, near)
        )
        assert lower["g1"] < b["g1"] < upper["g1"]
        assert lower["g2"] < b["g2"] < upper["g2"]
        assert lower["g1"] <= b["inversion"] <= upper["g1"]
        # at n = 12 g2 falls 0.118 short, as the paper's symmetric chains do
        # at these sizes (0.091 at the nearer distance, 0.226 at the farther)
        assert 0.0 < b["inversion"] - b["g2"] < 0.15
        assert 0.0 < upper["inversion"] - upper["g2"] < b["inversion"] - b["g2"]
        assert abs(equiv_power_exact(k, m, b["inversion"], alpha).value - 0.8) < 1e-6
        inv = core.size_invert(
            lambda n: equiv_power_exact(k, m, n, alpha).value, 0.8, 40.0, k.min_n
        )
        assert abs(b["inversion"] - inv) < 1e-5

    def test_larger_side_below_the_minimum_size(self):
        # the larger distance's normal size (1.7) is below the kernel's
        # minimum 3, so its symmetric chain is refused; the chain at the
        # smaller distance is not, and lies above that side's g1 and g2
        k, _, alpha = be_kernel(0.0125)
        with pytest.raises(DomainError, match="first-pass size 1.713"):
            equivalence_sizes(be_spec(0.0125), Margins.equivalence(-0.5, 0.5), alpha)
        z = special.ndtri(1.0 - alpha / 2.0)
        g1 = (z + special.ndtri(0.9)) ** 2 * k.v / 0.25 + z * z / 2.0
        assert abs(g1 - 3.0655) < 1e-4
        assert abs(g1 + (z * z / 2.0) ** 2 / g1 - 3.6625) < 1e-4
        b = equivalence_sizes(be_spec(0.0125), Margins.equivalence(-0.1, 0.5), alpha)
        assert list(b) == self.ROWS
        upper = equivalence_sizes(be_spec(0.0125), Margins.equivalence(-0.1, 0.1), alpha)
        assert abs(upper["g2"] - 44.2134) < 1e-4
        assert 3.6625 < b["inversion"] < upper["g2"]
        assert abs(b["g2"] - b["inversion"]) < 0.1
        power = row(be_spec(0.0125), Margins.equivalence(-0.1, 0.5), "exact")
        assert abs(power(b["inversion"], alpha).value - 0.8) < 1e-6

    def test_ancova_bounds_carry_the_covariate_correction(self):
        # the family's chain is its model's, covariate correction included;
        # at the symmetric half-width it is sized for (1 + power)/2
        s = AncovaSpec(tau1=0.0, tau0=0.0, sigma_sq=1.0, gamma0=0.5, q=3)
        m = Margins.equivalence(-0.5, 0.5)
        model = family_of(s).sizing(s)
        side = core.size_chain(model, 0.5, 0.05, 0.8, target=0.9)
        rows = family_of(s).size_rows(s, m, 0.05, 0.8)
        assert side["g1"] == rows["g1"]
        assert side["g2"] == rows["g2"]
        assert abs(side["g2"] - 173.10) < 0.01
        # and off centre at the smaller distance, sized for gamma(r)
        b = family_of(s).size_rows(s, Margins.equivalence(-0.5, 0.9), 0.05, 0.8)
        near = core.size_chain(model, 0.5, 0.05, 0.8, target=equivalence._near_level(0.05, 0.8, 1.8))
        assert b["g1"] == near["g1"] and b["g2"] == near["g2"]
        assert b["normal"] == model.correct(b["normal_asymptotic"]) > b["normal_asymptotic"]
        assert abs(b["g2"] - b["inversion"]) < 0.1

    def test_be_adapter_kernel_carries_the_covariate_correction(self):
        # the ANCOVA kernel handed out for bioequivalence is the family's own
        # model, so its chain's rows are the family chain's, not the rows of
        # the uncorrected kernel (170.04 and 170.06)
        s = AncovaSpec(tau1=0.0, tau0=0.0, sigma_sq=1.0, gamma0=0.5, q=3)
        m = Margins.equivalence(-0.5, 0.5)
        k, _, _ = be_adapter(s)
        side = core.size_chain(k, 0.5, 0.05, 0.8, target=0.9)
        rows = family_of(s).size_rows(s, m, 0.05, 0.8)
        assert side["g1"] == rows["g1"]
        assert side["g2"] == rows["g2"]
        assert abs(side["g1"] - 173.08) < 0.01
        assert abs(side["g2"] - 173.10) < 0.01

    def test_repeated_measures_has_no_kernel(self):
        # the one "does not lower to a kernel" error, from either entry point
        cfg = load_design(fixture_path("table3_ar1_q1_m04"))
        with pytest.raises(DomainError) as adapter:
            be_adapter(cfg.design)
        with pytest.raises(DomainError) as config:
            cfg.kernel()
        assert str(adapter.value) == str(config.value)
        assert "MmrmDesign does not lower to a single t-test kernel" in str(config.value)


class TestNearLevel:
    """gamma(r), the level of the nearer margin's one-sided test."""

    LEVELS = [(0.05, 0.8), (0.05, 0.9), (0.1, 0.8), (0.01, 0.95), (0.2, 0.5), (0.05, 0.99)]

    @pytest.mark.parametrize("alpha,power", LEVELS)
    def test_from_the_symmetric_level_down_to_power(self, alpha, power):
        gamma = equivalence._near_level
        assert abs(gamma(alpha, power, 1.0) - 0.5 * (1.0 + power)) < 1e-12
        levels = [gamma(alpha, power, r) for r in np.geomspace(1.0 + 1e-6, 100.0, 200)]
        assert 0.5 * (1.0 + power) > levels[0]
        # strictly decreasing until the far test's type-II error is below half
        # an ulp of power (from r = 2.4 to 7.5 on here), then power itself
        assert all(b < a or b == a == power for a, b in zip(levels, levels[1:]))
        assert levels[-1] == power and levels[30] > power  # r = 2.0
        assert abs(gamma(alpha, power, 1e6) - power) < 1e-6

    @pytest.mark.parametrize("alpha,power", LEVELS)
    def test_solves_its_equation(self, alpha, power):
        z = special.ndtri(1.0 - alpha / 2.0)
        for r in (1.02, 1.3, 2.0):
            g = equivalence._near_level(alpha, power, r)
            assert abs(g - special.ndtr(z - r * (z + special.ndtri(g))) - power) < 1e-14


# ROADMAP item 2's eight margin pairs off centre: fixture, (lower, upper)
OFF_CENTRE = [
    ("table5_m_05", (-0.3, 0.5)),
    ("table5_m_05", (-0.45, 0.5)),
    ("table5_m_05", (-0.49, 0.5)),
    ("table4_s2_0250", (-0.15, 0.223)),
    ("table4_s2_0250", (-0.2, 0.223)),
    ("table2_q3_100", (-1.0, 1.5)),
    ("table6_cs_q1_m8", (-6.0, 8.0)),
    ("table6_cs_q1_m8", (-7.5, 8.0)),
]


@pytest.mark.parametrize("name,margins", OFF_CENTRE, ids=[f"{n}{m}" for n, m in OFF_CENTRE])
def test_off_centre_g2_is_near_the_inversion(name, margins):
    cfg = load_design(fixture_path(name))
    rows = equivalence_sizes(cfg.design, Margins.equivalence(*margins), cfg.alpha, cfg.target_power)
    assert [r for r in rows if r in TestSizeBounds.ROWS] == TestSizeBounds.ROWS
    assert abs(rows["g2"] - rows["inversion"]) < 0.1


class TestAncovaEquivalence:
    def test_q0_reduces_to_kernel_formula(self):
        s = AncovaSpec(tau1=0.1, tau0=0.0, sigma_sq=1.0, gamma0=0.5, q=0)
        ts = TwoSampleSpec(0.0, 0.1, 1.0, 1.0, 0.5, equal_variance=True)
        k = designs.two_sample_equal_kernel(ts, 0.0)
        m = Margins.equivalence(-1.0, 1.0)
        for n in (12, 30):
            a = row(s, m, "exact")(n, 0.05).value
            b = equiv_power_exact(k, m, n, 0.05).value
            assert abs(a - b) < 1e-8

    def test_exact_dominates_approx(self):
        s = AncovaSpec(tau1=0.0, tau0=0.0, sigma_sq=1.0, gamma0=0.5, q=2)
        m = Margins.equivalence(-0.8, 0.8)
        for n in (10, 16, 30, 60):
            ex = row(s, m, "exact")(n, 0.05).value
            ap = row(s, m, "approx")(n, 0.05).value
            assert ex >= ap - 1e-9

    def test_approx_one_sided_margin_is_far_margin_limit(self):
        # an infinite margin contributes a tail of exactly 0, the limit of a
        # margin moved far away: the one-sided margin's exact row is the
        # equivalence approx row's one-sided tests over the same imbalance law
        s = AncovaSpec(tau1=0.0, tau0=0.0, sigma_sq=1.0, gamma0=0.5, q=2)
        one_sided = Margins(lower=-0.8, upper=math.inf)
        far = Margins.equivalence(-0.8, 1e3)
        for n in (16, 40):
            a = row(s, one_sided, "exact")(n, 0.05).value
            b = row(s, far, "approx")(n, 0.05).value
            assert math.isfinite(a)
            assert abs(a - b) < 1e-12

    def test_monte_carlo_concordance(self):
        from trialsize.simulate import ScenarioSpec, simulate_power

        s = AncovaSpec(tau1=0.0, tau0=0.0, sigma_sq=1.0, gamma0=0.5, q=1)
        m = Margins.equivalence(-0.8, 0.8)
        exact = row(s, m, "exact")(40, 0.05).value
        sc = ScenarioSpec(design=s, seed=404, baseline_effect=0.5)
        rep = simulate_power(sc, (20, 20), 0.05, m, replicates=20000)
        assert abs(rep.power_hat - exact) <= 3.0 * rep.std_error


class TestUnequalVarianceEquivalence:
    SPEC = TwoSampleSpec(0.0, 0.0, 1.0, 4.0, 0.5)

    def test_exact_references(self):
        m = Margins.equivalence(-1.0, 1.0)
        assert abs(ts_unequal_equiv_power(self.SPEC, m, 108, 0.05).value * 100 - 80.13) < 0.02
        m = Margins.equivalence(-1.5, 1.5)
        assert abs(ts_unequal_equiv_power(self.SPEC, m, 24, 0.05).value * 100 - 22.63) < 0.02

    def test_approx_reference(self):
        m = Margins.equivalence(-1.5, 1.5)
        est = ts_unequal_equiv_power(self.SPEC, m, 24, 0.05, exact=False)
        assert abs(est.value * 100 - 17.56) < 0.02

    def test_one_sided_margin_reduces_to_welch_power(self):
        spec = TwoSampleSpec(0.0, 1.0, 1.0, 4.0, 0.5)
        m = Margins(lower=0.0, upper=math.inf)
        for n in (20, 40, 82):
            a = ts_unequal_equiv_power(spec, m, n, 0.05, exact=False).value
            b = designs.moser_exact_power(spec, 0.0, n, 0.05).value
            assert abs(a - b) < 1e-8

    @pytest.mark.parametrize(
        "fixture,n,expected",
        [
            ("table5_m_10", 73, 0.51074069),
            ("table5_m_10", 80, 0.58801505),
            ("table5_m_15", 66, 0.93010422),
        ],
    )
    def test_exact_matches_nested_quad_oracle(self, fixture, n, expected):
        # expected: nested scipy quad oracle.  At these sizes a noisy inner
        # integral once stalled an adaptive outer quadrature at its refinement cap.
        cfg = load_design(fixture_path(fixture))
        value = ts_unequal_equiv_power(cfg.design, cfg.margins, n, cfg.alpha, exact=True).value
        assert abs(value - expected) <= 1e-7

    def test_exact_one_sided_margin_matches_welch_power(self):
        spec = TwoSampleSpec(0.0, 1.0, 1.0, 4.0, 0.5)
        m = Margins(lower=0.0, upper=math.inf)
        a = ts_unequal_equiv_power(spec, m, 40, 0.05, exact=True).value
        b = designs.moser_exact_power(spec, 0.0, 40, 0.05).value
        assert abs(a - b) < 1e-6


class TestBeAdapter:
    def test_parallel_designs(self):
        eq = TwoSampleSpec(0.0, 0.05, 1.0, 1.0, 0.5, equal_variance=True)
        k, m, alpha = be_adapter(eq)
        assert k.df_at(10.0) == 8.0  # the pooled kernel
        un = TwoSampleSpec(0.0, 0.05, 1.0, 2.0, 0.5)
        k, _, _ = be_adapter(un)
        assert k.df_at(10.0) == designs.satterthwaite_df(1.0, 2.0, 5.0, 5.0)  # Welch's

    def test_crossover_no_period_is_single_group(self):
        cs = CrossoverSpec(0.0, 0.0, 0.05, 0.5, period_effect_in_analysis=False)
        k, _, _ = be_adapter(cs)
        assert k.df_at(10.0) == 9.0

    def test_end_to_end_reference(self):
        _, m, alpha = be_kernel(0.0125)
        assert abs(equivalence_sizes(be_spec(0.0125), m, alpha)["g2"] - 10.14) < 0.01
