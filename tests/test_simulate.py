"""Simulator tests: analysis estimators against closed-form oracles,
determinism, the substream reset, batched-vs-scalar agreement, and type-I
calibration."""

import math

import numpy as np
import pytest
from scipy import special

import trialsize as ts
from trialsize import cli
from trialsize import simulate as sim
from trialsize.config import load_design
from trialsize.designs import CrossoverSpec, OneSampleSpec
from trialsize.equivalence import Margins
from trialsize.errors import DomainError, InsufficientDataError, SimulationFailureError
from trialsize.tables import fixture_path
from trialsize.simulate import (
    FactorSpec,
    ScenarioSpec,
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

    def test_kept_rank_sets_the_parameter_count(self):
        # a two-level factor with no completers in level 1 at visit 2, where
        # m = q* + j = 4 subjects remain: without the dropped indicator the
        # regression has r + j = 3 parameters, so the fit goes ahead
        rng = np.random.default_rng(7)
        n = 10
        g = np.repeat([0.0, 1.0], 5)
        d = np.array([1.0, 1, 0, 0, 0, 1, 1, 0, 0, 0])
        y = rng.standard_normal((n, 2)) + np.outer(g, [0.5, 1.0])
        keep = np.isin(np.arange(n), [3, 4, 8, 9])
        y[~keep, 1] = np.nan
        fit = analyze_mmrm(y, g, d, strict=False)

        def lstsq_fit(x, yy, history):
            z = np.column_stack([x, history])
            th = np.linalg.lstsq(z, yy, rcond=None)[0]
            resid = yy - z @ th
            inv_x = np.linalg.inv(x.T @ x)
            return th, resid @ resid / (len(yy) - x.shape[1]), inv_x

        x1 = np.column_stack([np.ones(n), d, g])
        th1, s1, inv_x1 = lstsq_fit(x1, y[:, 0], np.empty((n, 0)))
        x2 = np.column_stack([np.ones(4), g[keep]])
        th2, s2, inv_x2 = lstsq_fit(x2, y[keep, 1], y[keep, 0])
        v1, v2, l21 = inv_x1[-1, -1], inv_x2[-1, -1], th2[2]
        kr = l21**2 * s1 * v1 + s2 * v2 + 2.0 * s2 * (v2 - v1) / (4 - 2)
        yh = y[keep, 0]
        m_mat = yh @ yh - (yh @ x2) @ inv_x2 @ (x2.T @ yh)
        a1, a2 = l21 * s1 * v1, s2 * v2
        denom = 2.0 * s2 * a1**2 / m_mat + l21**2 * a1**2 / (n - 3) + a2**2 / (4 - 2)
        assert fit.m_j.tolist() == [10, 4]
        assert abs(fit.tau_hat - (l21 * th1[2] + th2[1])) < 1e-10
        assert abs(fit.kr_variance - kr) < 1e-10
        assert abs(fit.satterthwaite_df - (l21**2 * s1 * v1 + s2 * v2) ** 2 / denom) < 1e-10
        assert len(fit.theta[1]) == 3  # intercept, treatment, visit-1 outcome

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
        monkeypatch.setattr(sim, "_CHUNK", 257)
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
# one-sample engine, both two-sample analyses at arms that differ by more than
# one subject, both crossover analyses under a period effect, and an ANCOVA
# whose three-level factor often leaves a level empty at 6 per arm (1438 of
# the 5000 replicates drop an indicator column).  The last three pin the
# stream in seconds where otherwise only criterion 5 reaches it: the
# repeated-measures engine with dropout, and the margin-interval decision
# (``PIN_OBJECTIVES``; the others test superiority).
ENGINE_PINS = {
    "one_sample": (OneSampleSpec(mu=0.6, tau0=0.0, sigma_sq=1.0), {}, (15,), (2920, 0)),
    "two_sample_pooled_unequal_arms": (
        ts.TwoSampleSpec(0.0, 0.9, 1.0, 1.0, 0.5, True), {}, (9, 5), (1565, 0)
    ),
    "two_sample_welch_unequal_arms": (
        ts.TwoSampleSpec(0.0, 0.9, 1.0, 3.0, 0.5, False), {}, (13, 5), (768, 0)
    ),
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
    # a noise variance other than 1, with and without a factor
    "ancova_baseline_noise_scale": (
        ts.AncovaSpec(tau1=0.9, tau0=0.0, sigma_sq=2.7, q=1),
        {"intercept": 0.3, "baseline_effect": 0.5},
        (9, 14),
        (1042, 0),
    ),
    "ancova_factor_noise_scale": (
        ts.AncovaSpec(tau1=0.7, tau0=0.0, sigma_sq=0.6, q=2),
        {
            "intercept": -0.4,
            "factor": FactorSpec(probs=(0.2, 0.3, 0.5), effects=(0.1, 0.4, -0.4)),
        },
        (8, 8),
        (1689, 0),
    ),
    "mmrm_dropout": (
        ts.MmrmDesign(sigma=UN, retention=RET, gamma0=0.5, q=1, tau_p1=-8.0),
        {
            "visit_intercepts": (3.3, 2.7, 2.9, 1.0),
            "visit_baseline_effects": (0.72, 0.69, 0.61, 0.67),
            "visit_effects": (0.1, -1.5, -2.3),
        },
        (12, 11),
        (3330, 0),
    ),
    "welch_equivalence": (ts.TwoSampleSpec(0.0, 0.1, 1.0, 3.0, 0.5, False), {}, (24, 16), (785, 0)),
    "crossover_noninferiority": (
        CrossoverSpec(0.0, 0.05, 0.6, period_effect_in_analysis=True),
        {"period_effect": 0.3},
        (8, 7),
        (2303, 0),
    ),
}
PIN_OBJECTIVES = {
    "welch_equivalence": Margins.equivalence(-1.0, 1.1),
    "crossover_noninferiority": Margins.noninferiority(-0.35, 0.05),
}


@pytest.mark.parametrize("name", ENGINE_PINS)
def test_engine_counts_pinned(name):
    design, generator, n_per_group, counts = ENGINE_PINS[name]
    objective = PIN_OBJECTIVES.get(name, Margins.superiority())
    sc = ScenarioSpec(design=design, seed=11, **generator)
    report = simulate_power(sc, n_per_group, 0.05, objective, replicates=5000)
    assert (report.rejections, report.failures) == counts


def _fresh_stream(seed, index):
    """The stream definition itself: a new generator at the replicate's counter."""
    return np.random.Generator(np.random.Philox(key=seed, counter=index << 128))


def _mmrm_draws(gen, n, p):
    """One replicate's draws in the repeated-measures order: baseline normals,
    factor uniforms, dropout uniforms, visit-error normals."""
    return [gen.standard_normal(n), gen.random(n), gen.random(n), gen.standard_normal((n, p))]


class TestSubstream:
    SEED = 20240801

    def test_reset_matches_fresh_generator(self):
        philox = sim._philox(self.SEED)
        for index in [*range(3000), 2**40 + 5]:
            got = _mmrm_draws(_substream(philox, index), 23, 4)
            want = _mmrm_draws(_fresh_stream(self.SEED, index), 23, 4)
            assert all(np.array_equal(a, b) for a, b in zip(got, want)), index

    @pytest.mark.parametrize(
        "leftover",
        [
            lambda gen: gen.random(dtype=np.float32),  # buffers a 32-bit half
            lambda gen: gen.random(2),  # uses two of the four buffered words
        ],
        ids=["float32_half", "partial_block"],
    )
    def test_reset_after_partial_draw(self, leftover):
        def check(philox, index):
            got, want = _substream(philox, index), _fresh_stream(self.SEED, index)
            for draw in (
                lambda g: g.random(3, dtype=np.float32),
                lambda g: g.standard_normal(5),
                lambda g: g.random(5),
            ):
                assert np.array_equal(draw(got), draw(want)), index

        philox = sim._philox(self.SEED)
        leftover(_substream(philox, 4))
        check(philox, 5)
        # mid-stream, after a check's draws: the low counter word, the buffer
        # position and the buffered half are all stale, and the reset must
        # overwrite each, upward and back down to the first counter
        for index in (2**40 + 5, 0):
            leftover(philox[1])
            check(philox, index)

    def test_layout_check_trips_before_any_draw(self, monkeypatch, capsys):
        # the buffer position read at the buffered-half flag's offset: the
        # check reads 1 where it set 3, and no engine may write or draw
        monkeypatch.setattr(sim, "_layout_checked", False)
        monkeypatch.setattr(sim, "_BUFFER_POS", sim._HAS_UINT32)
        resets = []
        monkeypatch.setattr(sim, "_substream", lambda *args: resets.append(args))
        sc = ScenarioSpec(design=ts.TwoSampleSpec(0.0, 0.5, 1.0, 1.0, 0.5, True), seed=3)
        with pytest.raises(SimulationFailureError, match=f"numpy {np.__version__} does not lay out"):
            simulate_power(sc, (5, 5), 0.05, Margins.superiority(), replicates=10)
        assert resets == [] and sim._layout_checked is False
        code = cli.main(["simulate", "--design", str(fixture_path("table1_equal_050")),
                         "--n", "20", "--reps", "10"])
        err = capsys.readouterr().err
        assert code == 1 and resets == []
        assert f"SimulationFailureError: numpy {np.__version__} does not lay out" in err
        assert "Traceback" not in err


def test_decide_critical_value_is_stdtrit_at_each_df():
    # each critical value, bit for bit, is stdtrit at its own d.f.: est at
    # that value is not beyond it and the next float up is; a NaN d.f. (a
    # failed replicate) rejects nothing
    df = np.array([12.0, 7.5, 12.0, np.nan, 40.0, 7.5, 12.0, 3.25, np.nan, 1e6])
    crit = np.array([special.stdtrit(v, 0.975) for v in df])
    one = np.ones_like(df)
    at = np.where(np.isnan(crit), 1.0, crit)
    for est, rejects in ((at, False), (np.nextafter(at, np.inf), True)):
        dec = sim._decide(est, one, df, 0.05, Margins.superiority(), 0.0)
        assert np.array_equal(dec, np.where(np.isnan(df), False, rejects))
    # one float d.f. for the chunk, as the one-d.f. engines give it, decides
    # as that d.f. repeated per replicate
    at = np.full(4, special.stdtrit(12.0, 0.975))
    for est, rejects in ((at, False), (np.nextafter(at, np.inf), True)):
        dec = sim._decide(est, np.ones(4), 12.0, 0.05, Margins.superiority(), 0.0)
        assert dec.shape == (4,) and (dec == rejects).all()
        assert np.array_equal(dec, sim._decide(est, np.ones(4), np.full(4, 12.0), 0.05,
                                               Margins.superiority(), 0.0))


# One case per engine; at these sizes the ANCOVA and repeated-measures cases
# each have a replicate among 17-39 whose fit drops a covariate column.
_ANCOVA_PIN = ENGINE_PINS["ancova_three_level_factor"]
CHUNK_CASES = {
    "one_sample": (
        "_simulate_one_sample",
        ScenarioSpec(design=OneSampleSpec(mu=0.6, tau0=0.0, sigma_sq=1.0), seed=12),
        (15,),
    ),
    "two_sample": (
        "_simulate_two_sample",
        ScenarioSpec(design=ts.TwoSampleSpec(0.0, 0.5, 1.0, 2.0, 0.5), seed=12),
        (9, 8),
    ),
    "crossover": (
        "_simulate_crossover",
        ScenarioSpec(
            design=CrossoverSpec(0.0, 0.5, 0.6, period_effect_in_analysis=True),
            seed=12,
            period_effect=0.3,
        ),
        (7, 6),
    ),
    "ancova": (
        "_simulate_ancova",
        ScenarioSpec(design=_ANCOVA_PIN[0], seed=12, **_ANCOVA_PIN[1]),
        (6, 6),
    ),
    "mmrm": ("_simulate_mmrm", load_design(fixture_path("table3_un_q3_m12")).scenario, (8, 8)),
}


@pytest.mark.parametrize("engine,sc,n_per_group", CHUNK_CASES.values(), ids=CHUNK_CASES)
def test_replicates_do_not_depend_on_chunk_boundaries(engine, sc, n_per_group, monkeypatch):
    fits = []
    fit_visits = sim._fit_visits
    monkeypatch.setattr(sim, "_fit_visits", lambda *args: fits.append(fit_visits(*args)) or fits[-1])
    run = getattr(sim, engine)
    full = run(sc, n_per_group, sc.seed, 0, 40)
    tail = run(sc, n_per_group, sc.seed, 17, 40)
    assert len(full) == len(tail) == 3
    # an engine with one d.f. per chunk returns it as one float
    assert isinstance(full[2], float) == (engine in ("_simulate_one_sample", "_simulate_crossover"))
    full, tail = ([np.broadcast_to(x, out[0].shape) for x in out] for out in (full, tail))
    for a, b in zip(full, tail):
        assert np.array_equal(a[17:], b, equal_nan=True)
    if engine in ("_simulate_ancova", "_simulate_mmrm"):
        qs = fits[-1].kept.shape[2]
        assert (fits[-1].rank < qs).any()


def test_ancova_chunk_without_a_dropped_column_has_one_float_df():
    # a baseline covariate only: every replicate is on n - 3 d.f.
    sc = ScenarioSpec(design=ts.AncovaSpec(tau1=0.5, tau0=0.0, sigma_sq=1.0, q=1),
                      baseline_effect=0.5, seed=3)
    _, _, df = sim._simulate_ancova(sc, (20, 20), sc.seed, 0, 256)
    assert isinstance(df, float) and df == 37.0


def test_ancova_df_is_n_minus_rank():
    # a three-level factor at 6 per arm often leaves a level empty; the
    # batch and the single fit drop the redundant indicator and both give
    # n - rank d.f., exactly
    rng = np.random.default_rng(8)
    count, n = 200, 12
    g = np.repeat([0.0, 1.0], 6)
    levels = rng.choice(3, size=(count, n), p=[0.6, 0.3, 0.1])
    xcov = np.stack([rng.standard_normal((count, n)), levels == 0, levels == 1], axis=2)
    xcov = xcov.astype(float)
    y = 0.5 * g + rng.standard_normal((count, n))
    est, se, df, ok = sim._analyze_mmrm_chunk(y[:, :, None], np.ones((count, n, 1)), xcov, g, 5)
    rank = np.array([np.linalg.matrix_rank(np.column_stack([np.ones(n), x, g])) for x in xcov])
    assert ok.all() and rank.min() < 5
    assert np.array_equal(df, n - rank)
    for r in range(count):
        fit = analyze_ancova(y[r], g, xcov[r], strict=False)
        assert fit.df == n - rank[r]
        assert fit.tau_hat == pytest.approx(est[r], rel=1e-12)
        assert math.sqrt(fit.sigma_hat_sq * fit.v_x) == pytest.approx(se[r], rel=1e-12)


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
        philox = sim._philox(sc.seed)
        for r in range(count):
            rng = _substream(philox, r)
            xb = rng.standard_normal(n)  # baseline normals; the scenario has no factor
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
        # the simulator rejects on both sides: the two-tailed Welch power
        exact = ts.designs.welch_power(spec, ts.core.two_tailed(spec.mu1 - spec.mu0), 20, 0.05).value
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

    @pytest.mark.parametrize("probs", [(math.nan, 1.0), (0.5, math.nan)])
    def test_factor_probabilities_not_a_number(self, probs):
        # a NaN fails no comparison that asks whether it is out of range
        with pytest.raises(DomainError, match="positive and sum to 1"):
            FactorSpec(probs=probs, effects=(0.0, 1.0))

    def test_visit_effects_length(self):
        d = ts.MmrmDesign(sigma=UN, retention=RET, gamma0=0.5, q=0, tau_p1=-4.0)
        with pytest.raises(DomainError, match="visit_effects"):
            ScenarioSpec(design=d, visit_effects=(0.0, 0.0, 0.0, 0.0))
