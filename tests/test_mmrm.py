"""Repeated-measures design-stage tests: LDL factors, expected variance terms,
power and the size chain."""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import stats

from trialsize import ancova as anc
from trialsize import mmrm
from trialsize.config import load_design
from trialsize.equivalence import Margins
from trialsize.errors import DecompositionError, DomainError
from trialsize.families import family_of
from trialsize.tables import fixture_path

ALPHA = 0.05

EXAMPLE_SIGMA = np.array(
    [
        [19.68, 16.45, 15.39, 16.36],
        [16.45, 34.00, 25.34, 26.13],
        [15.39, 25.34, 38.44, 33.91],
        [16.36, 26.13, 33.91, 45.28],
    ]
)
RETENTION = ((1.0, 0.92, 0.86, 0.74), (1.0, 0.93, 0.87, 0.76))


def design(sigma, q, tau, retention=RETENTION):
    return mmrm.MmrmDesign(sigma=sigma, retention=retention, gamma0=0.5, q=q, tau_p1=tau)


def row(name, margins=Margins.superiority()):
    """The family's power row ``name`` for the objective of ``margins`` as
    power_at(design, n) at ALPHA, bound to each design it is passed."""
    return lambda d, n: family_of(d).powers(d, margins)[1][name](n, ALPHA)


def size_chain(d, alpha, power, margins=None):
    """A design's size chain by row name: superiority, or equivalence within ``margins``."""
    return family_of(d).size_rows(d, margins or Margins.superiority(), alpha, power)


class TestLdl:
    def test_identity(self):
        f = mmrm.ldl_decompose(np.eye(5))
        assert np.allclose(f.l, np.eye(5))
        assert np.allclose(f.lam, np.ones(5))

    def test_example_matrix_reconstruction(self):
        f = mmrm.ldl_decompose(EXAMPLE_SIGMA)
        rebuilt = f.l @ np.diag(f.lam) @ f.l.T
        assert np.max(np.abs(rebuilt - EXAMPLE_SIGMA)) < 1e-10
        assert np.allclose(np.diag(f.l), 1.0)

    def test_two_by_two_hand_case(self):
        # oracle: Gaussian elimination by hand on [[4,2],[2,3]]
        f = mmrm.ldl_decompose(np.array([[4.0, 2.0], [2.0, 3.0]]))
        assert abs(f.l[1, 0] - 0.5) < 1e-12
        assert abs(f.lam[1] - 2.0) < 1e-12
        assert abs(f.lam[0] - 4.0) < 1e-12

    def test_not_positive_definite(self):
        bad = np.array([[1.0, 2.0], [2.0, 1.0]])
        with pytest.raises(DecompositionError, match="order 2"):
            mmrm.ldl_decompose(bad)

    def test_not_symmetric(self):
        with pytest.raises(DomainError):
            mmrm.ldl_decompose(np.array([[1.0, 0.5], [0.1, 1.0]]))

    @given(st.integers(min_value=1, max_value=8), st.integers(min_value=0, max_value=2**31 - 1))
    @settings(max_examples=30, deadline=None)
    def test_random_pd_reconstruction(self, p, seed):
        rng = np.random.default_rng(seed)
        a = rng.standard_normal((p, p + 2))
        sigma = a @ a.T + 0.5 * np.eye(p)
        f = mmrm.ldl_decompose(sigma)
        assert np.max(np.abs(f.l @ np.diag(f.lam) @ f.l.T - sigma)) < 1e-10


def test_ldl_names_the_first_failing_minor():
    # the leading 2 x 2 block is positive definite, the whole matrix is not
    bad = np.array([[1.0, 0.5, 0.9], [0.5, 1.0, 0.9], [0.9, 0.9, 1.0]])
    with pytest.raises(DecompositionError, match="order 3"):
        mmrm.ldl_decompose(bad)
    with pytest.raises(DomainError, match="finite"):
        mmrm.ldl_decompose(np.array([[np.inf, 0.0], [0.0, 1.0]]))
    # the pivots after the failing minor are never squared
    with pytest.raises(DecompositionError, match="order 2"):
        mmrm.ldl_decompose(np.array([[1e300, 0.0], [0.0, -1e300]]))


class TestDerived:
    def test_single_visit_full_retention_matches_covariate_adjusted(self):
        d = mmrm.MmrmDesign(
            sigma=np.array([[2.3]]),
            retention=((1.0,), (1.0,)),
            gamma0=0.5,
            q=2,
            tau_p1=1.0,
        )
        n = 40.0
        der = mmrm.mmrm_derived(d, n)
        expected = 2.3 * (1.0 / (n * 0.25)) * (1.0 + 2.0 / (n - 2.0 - 3.0))
        assert abs(der.v_tau_star - expected) < 1e-9
        assert abs(der.f - (n - 4.0)) < 1e-9

    def test_wishart_moment_oracle(self):
        # oracle: Monte Carlo moments of the residual history cross-product.
        # The omega weights equal the diagonal of the loading-transformed
        # expected inverse, sampled here directly from the model.
        rng = np.random.default_rng(7)
        sigma = np.array([[4.0, 2.0, 1.0], [2.0, 3.0, 1.5], [1.0, 1.5, 2.5]])
        fac = mmrm.ldl_decompose(sigma)
        m3, qs = 40, 2  # subjects retained at visit 3; intercept+treatment
        j = 2  # zero-based third visit: history dimension 2
        reps = 4000
        acc = np.zeros((j, j))
        g = np.concatenate([np.zeros(m3 // 2), np.ones(m3 // 2)])
        x = np.column_stack([np.ones(m3), g])
        proj = np.eye(m3) - x @ np.linalg.inv(x.T @ x) @ x.T
        chol = np.linalg.cholesky(sigma)
        for _ in range(reps):
            y = rng.standard_normal((m3, 3)) @ chol.T
            hist = y[:, :j]
            acc += np.linalg.inv(hist.T @ proj @ hist)
        mean_inv = acc / reps
        # algebraic identity behind the weights: L' Sigma^{-1} L = diag(1/lam)
        lsub = fac.l[:j, :j]
        assert np.allclose(
            lsub.T @ np.linalg.inv(sigma[:j, :j]) @ lsub, np.diag(1.0 / fac.lam[:j]), atol=1e-12
        )
        # omega[j, t] = lam_j / ((m_j - q* - j) lam_t), 1-based visit j, as
        # the expected variance terms of mmrm_derived use it
        omega = fac.lam[j] / ((m3 - qs - (j + 1)) * fac.lam[:j])
        omega_mc = fac.lam[j] * np.diag(lsub.T @ mean_inv @ lsub)
        rel = np.abs(omega_mc - omega) / omega
        assert np.max(rel) < 8.0 / math.sqrt(reps)

    def test_denominator_guard_names_visit(self):
        d = design(EXAMPLE_SIGMA, 3, -12.0)
        with pytest.raises(DomainError, match="visit"):
            mmrm.mmrm_derived(d, 9.0)


def _derived_by_visit_loops(d, n):
    """Reference: the expected variance terms and d.f. written as loops over
    the visits, one schedule at a time."""
    fac = mmrm.ldl_decompose(d.sigma)
    p, q, qs = d.p, d.q, d.q_star
    pibar, varpi = d.pooled_retention, d.varpi
    m = n * pibar
    lp, lam = fac.l[-1, :], fac.lam
    v_tilde = (varpi / n) * (1.0 + q / (n * pibar - q - 3.0))
    c = np.zeros(p)
    for j in range(p):
        later = sum(lp[k] ** 2 * lam[k] / (m[k] - qs - (k + 1)) for k in range(j + 1, p))
        c[j] = (1.0 - j / (m[j] - qs)) * (lp[j] ** 2 * lam[j] + later)
    v_tau = float(np.dot(lp**2 * lam, v_tilde))
    v_tau_star = float(np.dot(c, v_tilde))
    denom = float(np.sum(c**2 * v_tilde**2 / (m - qs)))
    for j in range(1, p):
        spread = float(np.sum(v_tilde[j] - v_tilde[:j]))
        v_tau += lp[j] ** 2 * lam[j] / (m[j] - qs - (j + 1)) * spread
        v_tau_star += 2.0 * c[j] * spread / (m[j] - qs)
        denom += 2.0 * c[j] * float(np.sum(c[:j] * v_tilde[:j] ** 2)) / (m[j] - qs - (j + 1))
    info = lp**2 * lam
    rho_o = float(info.sum() * varpi[0] / np.dot(info, varpi))
    return {
        "v_tau": v_tau, "v_tau_star": v_tau_star,
        "f": float(np.dot(c, v_tilde)) ** 2 / denom, "f_o": (m[0] - qs) * rho_o,
    }


@given(st.integers(min_value=1, max_value=7), st.integers(min_value=0, max_value=2**31 - 1))
@settings(max_examples=40, deadline=None)
def test_derived_matches_visit_loops(p, seed):
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((p, p + 2))
    rets = np.sort(rng.uniform(0.5, 1.0, size=(2, p)), axis=1)[:, ::-1]
    d = mmrm.MmrmDesign(
        sigma=a @ a.T + 0.5 * np.eye(p), retention=(tuple(rets[0]), tuple(rets[1])),
        gamma0=float(rng.uniform(0.3, 0.7)), q=int(rng.integers(0, 4)), tau_p1=1.0,
    )
    n = float(rng.uniform(2.0 * (d.q_star + p + 1), 300.0))
    der = mmrm.mmrm_derived(d, n)
    for field, expected in _derived_by_visit_loops(d, n).items():
        assert np.allclose(getattr(der, field), expected, rtol=1e-12, atol=1e-14), field


class TestPower:
    def test_reference_un_q1(self):
        d = design(EXAMPLE_SIGMA, 1, -12.0)
        assert abs(row("main")(d, 21).value * 100 - 91.32) < 0.02

    def test_reference_cs_q3(self):
        d = design(mmrm.compound_symmetry(4, 45, 15), 3, -8.0)
        assert abs(row("main")(d, 46).value * 100 - 90.42) < 0.02

    def test_null_gives_alpha(self):
        d = design(EXAMPLE_SIGMA, 1, 0.0)
        assert abs(row("main")(d, 30).value - ALPHA) < 1e-9

    def test_approx_references(self):
        d = design(EXAMPLE_SIGMA, 1, -12.0)
        assert abs(mmrm.mmrm_power_approx(d, 21, ALPHA).value * 100 - 92.36) < 0.02
        d = design(mmrm.toeplitz([40, 34, 28, 22]), 1, -12.0)
        assert abs(mmrm.mmrm_power_approx(d, 19, ALPHA).value * 100 - 92.48) < 0.02

    def test_single_visit_approx_matches_main(self):
        d = mmrm.MmrmDesign(
            sigma=np.array([[5.0]]),
            retention=((1.0,), (1.0,)),
            gamma0=0.5,
            q=1,
            tau_p1=1.2,
        )
        a = row("main")(d, 28).value
        b = mmrm.mmrm_power_approx(d, 28, ALPHA).value
        assert abs(a - b) < 1e-4


class TestSizeChain:
    def test_reference_row_un_q1(self):
        ch = size_chain(design(EXAMPLE_SIGMA, 1, -12.0), ALPHA, 0.90)
        assert abs(ch["normal_asymptotic"] - 15.24) < 0.01
        assert abs(ch["normal"] - 17.16) < 0.01
        assert abs(ch["two_step"] - 20.85) < 0.01
        assert abs(ch["g1"] - 20.03) < 0.01
        assert abs(ch["g2"] - 20.44) < 0.01
        assert abs(ch["inversion"] - 20.31) < 0.01

    def test_reference_ar1_q3(self):
        ch = size_chain(design(mmrm.ar1(4, 45, 0.8), 3, -4.0), ALPHA, 0.90)
        assert abs(ch["g2"] - 144.31) < 0.02

    def test_equivalence_variant(self):
        d = design(EXAMPLE_SIGMA, 1, 0.0)
        ch = size_chain(d, ALPHA, 0.90, margins=Margins.equivalence(-8, 8))
        assert abs(ch["g2"] - 46.45) < 0.02

    def test_size_too_small_to_correct(self):
        with pytest.raises(DomainError, match="too small"):
            size_chain(design(EXAMPLE_SIGMA, 1, -200.0), ALPHA, 0.90)

    def test_asymmetric_margins_give_bounds(self):
        # the larger distance 8 is the half-width of the symmetric (-8, 8):
        # the lower bounds are that chain's g1 and g2
        d = design(EXAMPLE_SIGMA, 1, 0.0)
        ch = size_chain(d, ALPHA, 0.90, Margins.equivalence(-8, 6))
        assert list(ch) == ["g1_lower", "g1_upper", "g2_lower", "g2_upper", "inversion"]
        symmetric = size_chain(d, ALPHA, 0.90, Margins.equivalence(-8, 8))
        assert ch["g1_lower"] == symmetric["g1"] and ch["g2_lower"] == symmetric["g2"]
        assert ch["g2_lower"] < ch["inversion"] < ch["g2_upper"]
        power = row("equivalence", Margins.equivalence(-8, 6))(d, ch["inversion"])
        assert abs(power.value - 0.90) < 1e-6

    def test_size_ordering(self):
        for sigma, q, tau in (
            (EXAMPLE_SIGMA, 1, -12.0),
            (mmrm.compound_symmetry(4, 45, 15), 3, -8.0),
            (mmrm.toeplitz([40, 34, 28, 22]), 3, -4.0),
        ):
            ch = size_chain(design(sigma, q, tau), ALPHA, 0.90)
            assert (
                ch["normal_asymptotic"]
                < ch["normal"]
                < ch["g1"]
                < ch["g2"]
            )

    def test_full_retention_single_visit_matches_covariate_chain(self):
        sigma = np.array([[1.0]])
        d = mmrm.MmrmDesign(
            sigma=sigma, retention=((1.0,), (1.0,)), gamma0=0.5, q=1, tau_p1=1.0
        )
        s = anc.AncovaSpec(tau1=1.0, tau0=0.0, sigma_sq=1.0, gamma0=0.5, q=1)
        chain_m = size_chain(d, ALPHA, 0.80)
        chain_a = size_chain(s, ALPHA, 0.80)
        for key in ("normal_asymptotic", "normal", "g1", "g2", "two_step"):
            assert abs(chain_m[key] - chain_a[key]) < 1e-6
        for n in (20, 40):
            assert abs(
                row("main")(d, n).value
                - row("approx")(s, n).value
            ) < 1e-6


class TestEquivPower:
    def test_reference_un_q1(self):
        d = design(EXAMPLE_SIGMA, 1, 0.0)
        m = Margins.equivalence(-8, 8)
        assert abs(row("equivalence", m)(d, 47).value * 100 - 90.42) < 0.02

    def test_reference_cs_q3(self):
        d = design(mmrm.compound_symmetry(4, 45, 15), 3, 0.0)
        m = Margins.equivalence(-8, 8)
        assert abs(row("equivalence", m)(d, 55).value * 100 - 90.61) < 0.02

    def test_wide_margins_power_one(self):
        d = design(EXAMPLE_SIGMA, 1, 0.0)
        m = Margins.equivalence(-500, 500)
        assert row("equivalence", m)(d, 30).value > 0.999999

    def test_effect_outside_margins(self):
        d = design(EXAMPLE_SIGMA, 1, -12.0)
        with pytest.raises(DomainError):
            row("equivalence", Margins.equivalence(-8, 8))(d, 40)
        with pytest.raises(DomainError):
            mmrm.mmrm_equiv_power_approx(d, Margins.equivalence(-8, 8), 40, ALPHA)

    def test_single_visit_approx_matches_main(self):
        d = mmrm.MmrmDesign(
            sigma=np.array([[5.0]]), retention=((1.0,), (1.0,)), gamma0=0.5, q=1, tau_p1=0.3
        )
        m = Margins.equivalence(-1.5, 1.5)
        a = row("equivalence", m)(d, 28).value
        b = mmrm.mmrm_equiv_power_approx(d, m, 28, ALPHA).value
        assert abs(a - b) < 1e-9

    def test_approx_uses_first_order_variance(self):
        # at the reference row the simplified variance is smaller and its d.f.
        # larger, so the simplified power is the higher of the two
        d = design(EXAMPLE_SIGMA, 1, 0.0)
        m = Margins.equivalence(-8, 8)
        main = row("equivalence", m)(d, 47).value
        simple = mmrm.mmrm_equiv_power_approx(d, m, 47, ALPHA).value
        assert main < simple < main + 0.01


class TestDropoutAverage:
    def test_matches_enumeration(self):
        # two visits, eight subjects per arm: the exact average runs over the
        # 9 x 9 binomial retained counts at visit 2
        d = mmrm.MmrmDesign(
            sigma=np.array([[40.0, 28.0], [28.0, 45.0]]),
            retention=((1.0, 0.8), (1.0, 0.75)), gamma0=0.5, q=0, tau_p1=-8.0,
        )

        def power_at(dd, n):
            return mmrm.mmrm_power_approx(dd, n, ALPHA).value

        total = weight = 0.0
        for a in range(9):
            for b in range(9):
                w = stats.binom.pmf(a, 8, 0.8) * stats.binom.pmf(b, 8, 0.75)
                try:
                    value = power_at(
                        dataclasses.replace(d, retention=((1.0, a / 8), (1.0, b / 8))), 16
                    )
                except DomainError:  # too few retained: left out, as in the average
                    continue
                total += w * value
                weight += w
        exact = total / weight
        avg = mmrm.dropout_averaged_power(power_at, d, (8, 8))
        assert avg.std_error <= 1e-4
        assert abs(avg.value - exact) < 3.0 * avg.std_error
        # the second-order term alone misses the rest of the average
        assert abs(avg.plug_in + avg.expansion - exact) > 3.0 * avg.std_error

    def test_dropout_term_negative_and_shrinks_with_n(self):
        cfg = load_design(fixture_path("table6_cs_q1_m8"))

        def power_at(dd, n):
            return mmrm.mmrm_equiv_power_approx(dd, cfg.margins, n, cfg.alpha).value

        term = {}
        for total in (52, 192):
            avg = mmrm.dropout_averaged_power(power_at, cfg.design, (total // 2, total // 2))
            term[total] = avg.value - avg.plug_in
        assert term[52] < term[192] < 0.0


class TestBatchedSchedules:
    """A (B, 2, p) batch of retention schedules, entry by entry."""

    SCHEDULES = np.array([
        RETENTION,
        ((1.0, 0.9, 0.8, 0.7), (1.0, 0.95, 0.9, 0.85)),
        ((1.0, 1.0, 1.0, 1.0), (1.0, 1.0, 1.0, 1.0)),
        ((1.0, 0.6, 0.4, 0.3), (1.0, 0.6, 0.4, 0.3)),  # undefined at n = 21
        ((0.95, 0.8, 0.75, 0.5), (1.0, 0.85, 0.7, 0.55)),
    ])
    UNDEFINED = 3
    MARGINS = Margins.equivalence(-8, 8)

    # the paper's main formulas are the family's rows, under their former names
    FORMULAS = {
        "mmrm_power": (-12.0, row("main")),
        "mmrm_power_approx": (-12.0, lambda d, n: mmrm.mmrm_power_approx(d, n, ALPHA)),
        "mmrm_equiv_power": (0.5, row("equivalence", MARGINS)),
        "mmrm_equiv_power_approx": (
            0.5,
            lambda d, n: mmrm.mmrm_equiv_power_approx(d, TestBatchedSchedules.MARGINS, n, ALPHA),
        ),
    }

    @pytest.mark.parametrize("name", sorted(FORMULAS))
    def test_batch_matches_scalar_calls(self, name):
        tau, formula = self.FORMULAS[name]
        d = design(EXAMPLE_SIGMA, 1, tau)
        batch = formula(dataclasses.replace(d, retention=self.SCHEDULES), 21).value
        assert batch.shape == (len(self.SCHEDULES),)
        for b, schedule in enumerate(self.SCHEDULES):
            single = dataclasses.replace(d, retention=tuple(map(tuple, schedule)))
            if b == self.UNDEFINED:
                assert math.isnan(batch[b])
                with pytest.raises(DomainError, match="visit 4"):
                    formula(single, 21)
            else:
                value = formula(single, 21).value
                assert isinstance(value, float)
                assert abs(batch[b] - value) <= 1e-12

    def test_validity_flag_marks_negative_entries_only(self):
        # the second schedule is undefined at n = 30: its NaN value marks it
        schedules = np.array([RETENTION, ((1.0, 0.2, 0.1, 0.05),) * 2])
        d = design(EXAMPLE_SIGMA, 1, 0.0, retention=schedules)
        est = row("equivalence", Margins.equivalence(-2, 2))(d, 30)
        assert est.value[0] < 0.0 and math.isnan(est.value[1])
        assert est.approximation_valid.tolist() == [False, True]
        est = mmrm.mmrm_power_approx(dataclasses.replace(d, tau_p1=-4.0), 30, ALPHA)
        assert est.value[0] > 0.0 and math.isnan(est.value[1])
        assert est.approximation_valid.tolist() == [True, True]

    def test_derived_batch_matches_scalar(self):
        d = design(EXAMPLE_SIGMA, 2, -4.0)
        der = mmrm.mmrm_derived(dataclasses.replace(d, retention=self.SCHEDULES), 21)
        assert np.isnan(der.f[self.UNDEFINED]) and np.isnan(der.v_tau_star[self.UNDEFINED])
        for b in (0, 1, 2, 4):
            one = mmrm.mmrm_derived(
                dataclasses.replace(d, retention=tuple(map(tuple, self.SCHEDULES[b]))), 21
            )
            for field in ("v_tau", "v_tau_star", "f", "f_o"):
                assert abs(getattr(der, field)[b] - getattr(one, field)) <= 1e-12 * abs(
                    getattr(one, field)
                )

    def test_batch_validation_names_the_schedule(self):
        bad = self.SCHEDULES.copy()
        bad[1, 0, 3] = 0.0
        with pytest.raises(DomainError, match=r"lie in \(0, 1\]; schedule 1 arm 0 visit 4"):
            design(EXAMPLE_SIGMA, 1, -4.0, retention=bad)
        bad = self.SCHEDULES.copy()
        bad[4, 1, 2] = 0.9
        with pytest.raises(DomainError, match="nonincreasing.*schedule 4 arm 1 rises at visit 3"):
            design(EXAMPLE_SIGMA, 1, -4.0, retention=bad)
        with pytest.raises(DomainError, match=r"shape \(B, 2, 4\)"):
            design(EXAMPLE_SIGMA, 1, -4.0, retention=self.SCHEDULES[:, :, :3])


class TestDropoutAverageBatches:
    # averages at criterion 5's allocations (ceil(n/2), floor(n/2)): the first
    # two from the one-call-per-pattern evaluation (the Sobol points are the
    # same, so only rounding separates it from the batched one), the costliest
    # row (8 x 2048 points) from the batched one before distinct schedules
    PINNED = {
        "table3_toep_q1_m12": (
            (10, 9), 0.9112823593184648, 0.9242732930020159, -0.00937234350755075,
            5.245667023351011e-05,
        ),
        "table6_cs_q3_m8": (
            (28, 27), 0.8997020062517361, 0.9070075813139455, -0.006712790740844387,
            5.284422228013839e-05,
        ),
        "table3_un_q3_m12": (
            (12, 12), 0.9164999737034197, 0.9279344266895121, -0.008767142487698968,
            2.504521533307571e-05,
        ),
    }

    @staticmethod
    def simplified(cfg):
        if cfg.margins is None:
            return lambda d, n: mmrm.mmrm_power_approx(d, n, cfg.alpha).value
        return lambda d, n: mmrm.mmrm_equiv_power_approx(d, cfg.margins, n, cfg.alpha).value

    @pytest.mark.parametrize("name", sorted(PINNED))
    def test_pinned_criterion5_averages(self, name):
        per_group, value, plug_in, expansion, std_error = self.PINNED[name]
        cfg = load_design(fixture_path(name))
        avg = mmrm.dropout_averaged_power(self.simplified(cfg), cfg.design, per_group)
        assert abs(avg.value - value) <= 1e-12
        assert abs(avg.plug_in - plug_in) <= 1e-12
        assert abs(avg.expansion - expansion) <= 1e-12
        assert abs(avg.std_error - std_error) <= 1e-12

    def test_one_call_per_sobol_round(self):
        cfg = load_design(fixture_path("table3_toep_q1_m12"))
        formula = self.simplified(cfg)
        sizes = []

        def power_at(d, n):
            r = np.asarray(d.retention)
            sizes.append(1 if r.ndim == 2 else len(r))
            return formula(d, n)

        mmrm.dropout_averaged_power(power_at, cfg.design, (10, 9))
        # the plug-in value, then the stencil: +-step in each of the six
        # free fractions and four corners for each of the 3 + 3 pairs
        assert sizes[:2] == [1, 2 * 6 + 4 * 6]
        # then one batch per Sobol round of 8 scramblings: 16, 16, 32, ...
        # points each, up to the cap; zero retained counts are dropped
        rounds = sizes[2:]
        assert 1 <= len(rounds) <= 1 + int(math.log2(mmrm._MAX_POINTS // 16))
        for i, size in enumerate(rounds):
            assert size <= 8 * 16 * 2 ** max(i - 1, 0)

    def test_a_round_evaluates_each_schedule_once(self):
        cfg = load_design(fixture_path("table3_un_q3_m12"))
        formula = self.simplified(cfg)
        batches = []

        def power_at(d, n):
            r = np.asarray(d.retention)
            if r.ndim == 3:
                batches.append(r.reshape(len(r), -1))
            return formula(d, n)

        mmrm.dropout_averaged_power(power_at, cfg.design, (12, 12))
        rounds = batches[1:]  # after the stencil
        for batch in rounds:
            assert len(np.unique(batch, axis=0)) == len(batch)
        # the last round drew 8 x 16 x 2**(rounds - 2) points, most of them
        # a schedule drawn before in the round
        assert len(rounds[-1]) < 8 * 16 * 2 ** (len(rounds) - 2) // 2

    def test_scramblings_built_once_and_never_advanced(self, monkeypatch):
        from scipy.stats import qmc

        def fresh(dim):
            return tuple(
                qmc.Sobol(d=dim, scramble=True, rng=rng)
                for rng in np.random.default_rng(mmrm._AVERAGE_SEED).spawn(mmrm._SCRAMBLES)
            )

        def power_at(dd, n):
            return mmrm.mmrm_power_approx(dd, n, ALPHA).value

        # 2p = 8, then 6 (a three-visit design), then 8 again
        three = design(EXAMPLE_SIGMA[:3, :3], 1, -12.0,
                       retention=((1.0, 0.9, 0.8), (1.0, 0.88, 0.81)))
        calls = [design(EXAMPLE_SIGMA, 1, -12.0), three, design(EXAMPLE_SIGMA, 1, -12.0)]
        mmrm._scramblings.cache_clear()
        cached = [mmrm.dropout_averaged_power(power_at, d, (11, 10)) for d in calls]
        assert mmrm._scramblings.cache_info().misses == 2
        engines = mmrm._scramblings(8) + mmrm._scramblings(6)
        assert len(engines) == 2 * mmrm._SCRAMBLES
        assert all(e.num_generated == 0 for e in engines)
        monkeypatch.setattr(mmrm, "_scramblings", fresh)
        assert cached == [mmrm.dropout_averaged_power(power_at, d, (11, 10)) for d in calls]

    def test_full_retention_is_the_plug_in(self):
        d = design(EXAMPLE_SIGMA, 1, -12.0, retention=((1.0,) * 4, (1.0,) * 4))

        def power_at(dd, n):
            return mmrm.mmrm_power_approx(dd, n, ALPHA).value

        avg = mmrm.dropout_averaged_power(power_at, d, (10, 10))
        assert avg.expansion == 0.0
        assert abs(avg.value - avg.plug_in) <= 1e-15
        assert avg.plug_in == power_at(d, 20)


class TestVarianceInequality:
    def test_small_sample_variance_dominates_asymptotic(self):
        rng = np.random.default_rng(3)
        for _ in range(25):
            p = int(rng.integers(2, 5))
            a = rng.standard_normal((p, p + 2))
            sigma = a @ a.T + 0.5 * np.eye(p)
            rets = np.sort(rng.uniform(0.55, 1.0, size=(2, p)), axis=1)[:, ::-1]
            rets[:, 0] = 1.0
            d = mmrm.MmrmDesign(
                sigma=sigma,
                retention=(tuple(rets[0]), tuple(rets[1])),
                gamma0=0.5,
                q=int(rng.integers(0, 3)),
                tau_p1=1.0,
            )
            n = float(rng.integers(40, 120))
            der = mmrm.mmrm_derived(d, n)
            fac = mmrm.ldl_decompose(sigma)
            lp = fac.l[-1, :]
            asy = float(np.dot(lp**2 * fac.lam, d.varpi)) / n
            assert der.v_tau_star >= asy - 1e-12


class TestRetentionValidation:
    def test_rising_retention_rejected(self):
        with pytest.raises(DomainError, match="nonincreasing"):
            mmrm.MmrmDesign(
                sigma=EXAMPLE_SIGMA,
                retention=((1.0, 0.9, 0.95, 0.7), RETENTION[1]),
                gamma0=0.5,
                q=1,
                tau_p1=-4.0,
            )

    def test_zero_retention_rejected(self):
        with pytest.raises(DomainError):
            mmrm.MmrmDesign(
                sigma=EXAMPLE_SIGMA,
                retention=((1.0, 0.9, 0.8, 0.0), RETENTION[1]),
                gamma0=0.5,
                q=1,
                tau_p1=-4.0,
            )
