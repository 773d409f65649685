"""Simulator tests: analysis estimators against closed-form oracles,
determinism, batched-vs-scalar agreement, and type-I calibration."""

import math

import numpy as np
import pytest

import trialsize as ts
from trialsize import simulate as sim
from trialsize.config import load_design
from trialsize.designs import CrossoverSpec, OneSampleSpec
from trialsize.equivalence import Margins
from trialsize.errors import DomainError, InsufficientDataError, SimulationFailureError
from trialsize.tables import fixture_path
from trialsize.simulate import (
    FactorSpec,
    ScenarioSpec,
    _covariate_columns,
    _substream,
    analyze_ancova,
    analyze_mmrm,
    simulate_power,
)

UN = np.array(
    [
        [19.68, 16.45, 15.39, 16.36],
        [16.45, 34.00, 25.34, 26.13],
        [15.39, 25.34, 38.44, 33.91],
        [16.36, 26.13, 33.91, 45.28],
    ]
)
RET = ((1.0, 0.92, 0.86, 0.74), (1.0, 0.93, 0.87, 0.76))


class TestAnalyzeAncova:
    def test_q0_is_pooled_t_test(self):
        rng = np.random.default_rng(1)
        n0 = n1 = 9
        y = np.concatenate([rng.normal(0, 1, n0), rng.normal(1, 1, n1)])
        g = np.concatenate([np.zeros(n0), np.ones(n1)])
        fit = analyze_ancova(y, g, None)
        m0, m1 = y[:n0].mean(), y[n0:].mean()
        pooled = ((n0 - 1) * y[:n0].var(ddof=1) + (n1 - 1) * y[n0:].var(ddof=1)) / (n0 + n1 - 2)
        assert abs(fit.tau_hat - (m1 - m0)) < 1e-12
        assert abs(fit.sigma_hat_sq - pooled) < 1e-12
        assert abs(fit.v_x - (1 / n0 + 1 / n1)) < 1e-12
        assert fit.df == n0 + n1 - 2

    def test_orthogonal_covariate_leaves_difference(self):
        # covariate with identical group means by construction
        rng = np.random.default_rng(2)
        base = rng.standard_normal(8)
        x = np.concatenate([base, base])  # same values in both groups
        g = np.concatenate([np.zeros(8), np.ones(8)])
        y = 0.3 + 1.1 * g + 0.7 * x + rng.standard_normal(16)
        fit = analyze_ancova(y, g, x)
        diff = y[g == 1].mean() - y[g == 0].mean()
        assert abs(fit.tau_hat - diff) < 1e-12

    def test_small_fixture_vs_normal_equations(self):
        # oracle: solve the normal equations directly
        rng = np.random.default_rng(3)
        g = np.array([0.0, 0, 0, 0, 1, 1, 1, 1])
        x = rng.standard_normal((8, 2))
        y = 0.2 + 0.9 * g + x @ np.array([0.5, -0.3]) + rng.standard_normal(8)
        fit = analyze_ancova(y, g, x)
        xm = np.column_stack([np.ones(8), x, g])
        beta = np.linalg.solve(xm.T @ xm, xm.T @ y)
        resid = y - xm @ beta
        assert abs(fit.tau_hat - beta[-1]) < 1e-12
        assert abs(fit.sigma_hat_sq - resid @ resid / 4) < 1e-12
        assert abs(fit.v_x - np.linalg.inv(xm.T @ xm)[-1, -1]) < 1e-12

    def test_strict_singular_raises(self):
        g = np.array([0.0, 0, 0, 1, 1, 1])
        x = g.copy()  # collinear with treatment
        y = np.arange(6.0)
        with pytest.raises(DomainError):
            analyze_ancova(y, g, x, strict=True)
        fit = analyze_ancova(y, g, x, strict=False)
        assert math.isfinite(fit.tau_hat)
        assert fit.df == 4  # intercept + treatment only


class TestAnalyzeMmrm:
    def test_complete_single_visit_matches_ancova(self):
        rng = np.random.default_rng(4)
        n = 24
        g = np.concatenate([np.zeros(12), np.ones(12)])
        x = rng.standard_normal(n)
        y = (0.5 + 0.8 * g + 0.4 * x + rng.standard_normal(n)).reshape(n, 1)
        fit_m = analyze_mmrm(y, g, x)
        fit_a = analyze_ancova(y[:, 0], g, x)
        assert abs(fit_m.tau_hat - fit_a.tau_hat) < 1e-10
        assert abs(fit_m.kr_variance - fit_a.sigma_hat_sq * fit_a.v_x) < 1e-10
        assert abs(fit_m.satterthwaite_df - fit_a.df) < 1e-10

    def test_kr_variance_hand_fixture(self):
        # oracle: evaluate the variance and d.f. expressions with independent
        # matrix arithmetic on a fixed two-visit, six-subject dataset
        g = np.array([0.0, 0, 0, 1, 1, 1])
        y = np.array(
            [
                [1.0, 1.4],
                [0.2, 0.8],
                [-0.5, 0.1],
                [1.7, 2.5],
                [0.9, np.nan],
                [1.1, 1.9],
            ]
        )
        fit = analyze_mmrm(y, g, None)
        x1 = np.column_stack([np.ones(6), g])
        th1 = np.linalg.solve(x1.T @ x1, x1.T @ y[:, 0])
        r1 = y[:, 0] - x1 @ th1
        s1 = r1 @ r1 / (6 - 2)
        v1 = np.linalg.inv(x1.T @ x1)[-1, -1]
        keep = ~np.isnan(y[:, 1])
        z2 = np.column_stack([x1[keep], y[keep, 0]])
        th2 = np.linalg.solve(z2.T @ z2, z2.T @ y[keep, 1])
        r2 = y[keep, 1] - z2 @ th2
        s2 = r2 @ r2 / (5 - 2)
        x2 = x1[keep]
        inv_x2 = np.linalg.inv(x2.T @ x2)
        v2 = inv_x2[-1, -1]
        beta21 = th2[2]
        l21 = beta21  # inverse of the 2x2 unit triangle
        tau_hat = l21 * th1[1] + th2[1]
        kr = l21**2 * s1 * v1 + s2 * v2 + 2.0 * s2 * (v2 - v1) / (5 - 2)
        yh = y[keep, 0:1]
        m_mat = yh.T @ yh - (yh.T @ x2) @ inv_x2 @ (x2.T @ yh)
        a1 = l21 * s1 * v1
        a2 = s2 * v2
        a_quad = s2 * (a1 * 1.0) ** 2 / m_mat[0, 0]
        denom = 2.0 * a_quad + l21**2 * a1**2 / (6 - 2) + a2**2 / (5 - 2)
        sat = (l21**2 * s1 * v1 + s2 * v2) ** 2 / denom
        assert abs(fit.tau_hat - tau_hat) < 1e-10
        assert abs(fit.kr_variance - kr) < 1e-10
        assert abs(fit.satterthwaite_df - sat) < 1e-10

    def test_non_monotone_rejected(self):
        y = np.array([[1.0, np.nan, 2.0], [1.0, 2.0, 3.0]])
        with pytest.raises(DomainError, match="monotone"):
            analyze_mmrm(y, np.array([0.0, 1.0]), None)

    def test_insufficient_data(self):
        y = np.random.default_rng(0).standard_normal((3, 2))
        g = np.array([0.0, 1.0, 1.0])
        with pytest.raises(InsufficientDataError):
            analyze_mmrm(y, g, None)

    def test_pruned_fit_matches_lstsq_on_kept_columns(self):
        # a two-level factor whose level 1 has no visit-2 completers: its
        # indicator is all zero at visit 2, so only strict=False can fit,
        # by dropping that column there and keeping it at visit 1
        rng = np.random.default_rng(6)
        n = 12
        g = np.repeat([0.0, 1.0], 6)
        d = np.zeros(n)
        d[[0, 1, 6, 7]] = 1.0
        y = rng.standard_normal((n, 2)) + np.outer(g, [0.5, 1.0])
        y[d == 1.0, 1] = np.nan
        with pytest.raises(DomainError, match="visit 2"):
            analyze_mmrm(y, g, d, strict=True)
        fit = analyze_mmrm(y, g, d, strict=False)

        x1 = np.column_stack([np.ones(n), d, g])
        th1 = np.linalg.lstsq(x1, y[:, 0], rcond=None)[0]
        r1 = y[:, 0] - x1 @ th1
        s1 = r1 @ r1 / (n - 3)
        v1 = np.linalg.inv(x1.T @ x1)[-1, -1]
        keep = d == 0.0
        m = int(keep.sum())
        x2 = np.column_stack([np.ones(m), g[keep]])
        z2 = np.column_stack([x2, y[keep, 0]])
        th2 = np.linalg.lstsq(z2, y[keep, 1], rcond=None)[0]
        r2 = y[keep, 1] - z2 @ th2
        s2 = r2 @ r2 / (m - 2)
        inv_x2 = np.linalg.inv(x2.T @ x2)
        v2 = inv_x2[-1, -1]
        l21 = th2[2]
        tau_hat = l21 * th1[2] + th2[1]
        kr = l21**2 * s1 * v1 + s2 * v2 + 2.0 * s2 * (v2 - v1) / (m - 2)
        yh = y[keep, 0:1]
        m_mat = yh.T @ yh - (yh.T @ x2) @ inv_x2 @ (x2.T @ yh)
        a1, a2 = l21 * s1 * v1, s2 * v2
        a_quad = s2 * a1**2 / m_mat[0, 0]
        denom = 2.0 * a_quad + l21**2 * a1**2 / (n - 3) + a2**2 / (m - 2)
        sat = (l21**2 * s1 * v1 + s2 * v2) ** 2 / denom
        assert abs(fit.tau_hat - tau_hat) < 1e-10
        assert abs(fit.kr_variance - kr) < 1e-10
        assert abs(fit.satterthwaite_df - sat) < 1e-10

    def test_estimates_recover_truth(self):
        # consistency: average last-visit effect estimate near the generating value
        rng = np.random.default_rng(5)
        chol = np.linalg.cholesky(UN)
        n = 120
        g = np.concatenate([np.zeros(60), np.ones(60)])
        taus = []
        for _ in range(150):
            x = rng.standard_normal(n)
            mean = np.outer(x, [0.72, 0.69, 0.61, 0.67]) + np.outer(g, [0.1, -1.5, -2.3, -6.0])
            y = mean + rng.standard_normal((n, 4)) @ chol.T
            taus.append(analyze_mmrm(y, g, x).tau_hat)
        taus = np.asarray(taus)
        se = taus.std(ddof=1) / math.sqrt(taus.size)
        assert abs(taus.mean() + 6.0) < 3.0 * se


class TestDeterminism:
    def test_identical_reports(self):
        spec = ts.TwoSampleSpec(0.0, 0.5, 1.0, 1.0, 0.5, equal_variance=True)
        sc = ScenarioSpec(design=spec, seed=77)
        a = simulate_power(sc, (20, 20), 0.05, Margins.superiority(), replicates=4000)
        b = simulate_power(sc, (20, 20), 0.05, Margins.superiority(), replicates=4000)
        assert a.rejections == b.rejections
        assert a.power_hat == b.power_hat

    def test_chunking_does_not_change_results(self, monkeypatch):
        spec = ts.TwoSampleSpec(0.0, 0.5, 1.0, 1.0, 0.5, equal_variance=True)
        sc = ScenarioSpec(design=spec, seed=78)
        full = simulate_power(sc, (12, 12), 0.05, Margins.superiority(), replicates=3000)
        monkeypatch.setattr(sim, "_CHUNK", claim := 257)
        chunked = simulate_power(sc, (12, 12), 0.05, Margins.superiority(), replicates=3000)
        assert full.rejections == chunked.rejections

    def test_seed_changes_stream(self):
        spec = ts.TwoSampleSpec(0.0, 0.5, 1.0, 1.0, 0.5, equal_variance=True)
        a = simulate_power(
            ScenarioSpec(design=spec, seed=1), (20, 20), 0.05, Margins.superiority(), replicates=3000
        )
        b = simulate_power(
            ScenarioSpec(design=spec, seed=2), (20, 20), 0.05, Margins.superiority(), replicates=3000
        )
        assert a.rejections != b.rejections


# (rejections, failures) recorded for engines no shipped fixture reaches: the
# one-sample engine, both crossover analyses under a period effect, and an
# ANCOVA whose three-level factor often leaves a level empty at 6 per arm
# (1438 of the 5000 replicates go to the pruned fallback fit).
ENGINE_PINS = {
    "one_sample": (OneSampleSpec(mu=0.6, tau0=0.0, sigma_sq=1.0), {}, (15,), (2920, 0)),
    "crossover_period_in_analysis": (
        CrossoverSpec(0.0, 0.5, 0.6, period_effect_in_analysis=True),
        {"period_effect": 0.3},
        (7, 6),
        (2823, 0),
    ),
    "crossover_period_ignored": (
        CrossoverSpec(0.0, 0.5, 0.6, period_effect_in_analysis=False),
        {"period_effect": 0.3},
        (7, 6),
        (2755, 0),
    ),
    "ancova_three_level_factor": (
        ts.AncovaSpec(tau1=1.0, tau0=0.0, sigma_sq=1.0, q=3),
        {
            "baseline_effect": 0.5,
            "factor": FactorSpec(probs=(0.6, 0.3, 0.1), effects=(0.0, 0.4, -0.4)),
        },
        (6, 6),
        (1253, 0),
    ),
}


@pytest.mark.parametrize("design,generator,n_per_group,counts", ENGINE_PINS.values(), ids=ENGINE_PINS)
def test_engine_counts_pinned(design, generator, n_per_group, counts):
    sc = ScenarioSpec(design=design, seed=11, **generator)
    report = simulate_power(sc, n_per_group, 0.05, Margins.superiority(), replicates=5000)
    assert (report.rejections, report.failures) == counts


class TestBatchedMatchesScalar:
    def test_mmrm_engine_agrees_with_single_fits(self):
        d = ts.MmrmDesign(sigma=UN, retention=RET, gamma0=0.5, q=1, tau_p1=-12.0)
        sc = ScenarioSpec(
            design=d,
            seed=91,
            visit_intercepts=(3.3, 2.7, 2.9, 1.0),
            visit_baseline_effects=(0.72, 0.69, 0.61, 0.67),
            visit_effects=(0.1, -1.5, -2.3),
        )
        n0, n1 = 11, 10
        n = n0 + n1
        g = np.concatenate([np.zeros(n0), np.ones(n1)])
        count = 40
        yall = np.empty((count, n, 4))
        xcov = np.empty((count, n, 1))
        wobs = np.empty((count, n, 4))
        pi = np.asarray(RET)
        cums = []
        for arm in RET:
            arr = np.concatenate([[1.0], np.asarray(arm), [0.0]])
            probs = np.array([1.0 - arr[1]] + [arr[j] - arr[j + 1] for j in range(1, 5)])
            cums.append(np.cumsum(probs))
        for r in range(count):
            rng = _substream(sc.seed, r)
            cols, xb, fac_eff = _covariate_columns(sc, rng, n, True)
            u = rng.random(n)
            z = rng.standard_normal((n, 4))
            last = np.empty(n, dtype=int)
            last[:n0] = np.searchsorted(cums[0], u[:n0], side="right")
            last[n0:] = np.searchsorted(cums[1], u[n0:], side="right")
            fac = ts.ldl_decompose(UN)
            chol = fac.l * np.sqrt(fac.lam)[None, :]
            mean = (
                np.asarray(sc.visit_intercepts)[None, :]
                + np.outer(xb, sc.visit_baseline_effects)
                + np.outer(g, [0.1, -1.5, -2.3, -12.0])
            )
            yall[r] = mean + z @ chol.T
            wobs[r] = (np.arange(1, 5)[None, :] <= last[:, None]).astype(float)
            xcov[r, :, 0] = xb
        est, se, df, ok = sim._analyze_mmrm_chunk(yall, wobs, xcov, g, 3)
        assert ok.all()
        for r in range(count):
            yr = np.where(wobs[r] > 0, yall[r], np.nan)
            fit = analyze_mmrm(yr, g, xcov[r])
            assert est[r] == pytest.approx(fit.tau_hat, rel=1e-9)
            assert se[r] == pytest.approx(math.sqrt(fit.kr_variance), rel=1e-9)
            assert df[r] == pytest.approx(fit.satterthwaite_df, rel=1e-9)


class TestCalibration:
    def test_two_sided_type_one(self):
        spec = ts.TwoSampleSpec(0.0, 0.0, 1.0, 1.0, 0.5, equal_variance=True)
        rep = simulate_power(
            ScenarioSpec(design=spec, seed=55), (17, 17), 0.05, Margins.superiority(),
            replicates=30000,
        )
        assert abs(rep.power_hat - 0.05) <= 3.0 * math.sqrt(0.05 * 0.95 / 30000)

    def test_welch_power_concordance(self):
        spec = ts.TwoSampleSpec(0.0, 2.25, 1.0, 4.0, 0.5)
        exact = ts.moser_exact_power(spec, 0.0, 20, 0.05).value
        rep = simulate_power(
            ScenarioSpec(design=spec, seed=56), (10, 10), 0.05, Margins.superiority(),
            replicates=30000,
        )
        assert abs(rep.power_hat - exact) <= 3.0 * rep.std_error

    def test_failure_threshold_guard(self):
        # a healthy design records no failures and passes the 0.1% cap
        spec = ts.TwoSampleSpec(0.0, 0.5, 1.0, 1.0, 0.5, equal_variance=True)
        sc = ScenarioSpec(design=spec, seed=57)
        report = simulate_power(sc, (5, 5), 0.05, Margins.superiority(), replicates=500)
        assert report.failures == 0
        # four per arm with 30% retention at the last visit: most replicates
        # keep too few completers to fit the last visit's regression
        d = ts.MmrmDesign(
            sigma=np.array([[1.0, 0.5], [0.5, 1.0]]),
            retention=((1.0, 0.3), (1.0, 0.3)),
            gamma0=0.5,
            q=0,
            tau_p1=1.0,
        )
        sc = ScenarioSpec(design=d, seed=5)
        with pytest.raises(SimulationFailureError, match="failed analysis"):
            simulate_power(sc, (4, 4), 0.05, Margins.superiority(), replicates=200)
        # four visits at seven and six per arm: replicates short of completers
        # have an inf or NaN sigma_sq, which the batched variance and d.f. of
        # the others must not touch (a RuntimeWarning fails the test)
        cfg = load_design(fixture_path("table3_cs_q3_m08"))
        with pytest.raises(SimulationFailureError, match="failed analysis"):
            simulate_power(cfg.scenario, (7, 6), 0.05, Margins.superiority(), replicates=300, seed=9)


class TestScenarioValidation:
    @pytest.mark.parametrize(
        "design,generator",
        [
            (ts.AncovaSpec(tau1=1.0, tau0=0.0, sigma_sq=1.0, gamma0=0.5, q=2), {"baseline_effect": 0.5}),
            (
                ts.MmrmDesign(sigma=UN, retention=RET, gamma0=0.5, q=2, tau_p1=-4.0),
                {"visit_baseline_effects": (0.7, 0.7, 0.6, 0.7)},
            ),
        ],
        ids=["ancova", "mmrm"],
    )
    def test_covariate_count_mismatch(self, design, generator):
        with pytest.raises(DomainError, match="implies q=1 covariates but the design has q=2"):
            ScenarioSpec(design=design, **generator)

    def test_negative_replicates(self):
        spec = ts.TwoSampleSpec(0.0, 0.5, 1.0, 1.0)
        with pytest.raises(DomainError, match="nonnegative.*0 selects the family default"):
            ScenarioSpec(design=spec, replicates=-1)

    def test_zero_replicates_in_simulate_power(self):
        # 0 selects the family default only inside ScenarioSpec; an explicit
        # count passed to simulate_power must be positive
        spec = ScenarioSpec(design=ts.TwoSampleSpec(0.0, 0.5, 1.0, 1.0))
        with pytest.raises(
            DomainError,
            match=r"must be >= 1 \(None selects the scenario's count; "
            r"0 is only ScenarioSpec's marker for the family default\)",
        ):
            simulate_power(spec, (10, 10), 0.05, Margins.superiority(), replicates=0)

    def test_factor_probabilities(self):
        with pytest.raises(DomainError):
            FactorSpec(probs=(0.5, 0.4), effects=(0.0, 1.0))

    def test_visit_effects_length(self):
        d = ts.MmrmDesign(sigma=UN, retention=RET, gamma0=0.5, q=0, tau_p1=-4.0)
        with pytest.raises(DomainError, match="visit_effects"):
            ScenarioSpec(design=d, visit_effects=(0.0, 0.0, 0.0, 0.0))
