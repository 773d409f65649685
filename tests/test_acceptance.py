"""Acceptance suite: each test implements one release criterion at its stated
tolerance and prints a single pass/fail line.

Run standalone with:  pytest tests/test_acceptance.py -v -s
"""

import dataclasses
import math
import time

import numpy as np
from scipy import special

from reference_values import (
    TABLE1,
    TABLE2,
    TABLE3,
    TABLE4,
    TABLE4_ONE_SAMPLE_POWERS,
    TABLE5,
    TABLE6,
    allowed_delta,
)

import trialsize as ts
from trialsize import core, designs, dist, mmrm
from trialsize.ancova import AncovaSpec, ancova_power_approx, ancova_power_exact
from trialsize.config import load_design
from trialsize.equivalence import (
    Margins,
    ancova_equiv_power,
    equiv_power_approx,
    equiv_power_exact,
    ts_unequal_equiv_power,
)
from trialsize.simulate import simulate_power
from trialsize.tables import build_table, fixture_path

SIZE_COLS = {
    1: ["exact", "normal", "two_step", "g1", "g2"],
    2: ["exact", "n_asy", "n_approx", "asymptotic_t", "two_step", "g1", "g2"],
    3: ["exact", "n_a", "n_approx", "two_step", "g1", "g2"],
    4: ["exact", "normal", "two_step", "g1", "g2"],
    5: ["exact", "normal", "two_step", "g1", "g2"],
    6: ["exact", "n_a", "n_approx", "two_step", "g1", "g2"],
}
POWER_COLS = {
    1: ["power_exact"],
    2: ["power_exact", "power_approx"],
    3: ["power_main", "power_simple"],
    4: ["power_exact", "power_approx", "power_exact_half", "power_approx_half"],
    5: [
        "power_exact",
        "power_approx",
        "power_generic_approx",
        "power_exact_half",
        "power_approx_half",
        "power_generic_approx_half",
    ],
    6: ["power"],
}
INT_COLS = {1: ["per_arm"], 2: ["per_arm"], 3: ["total_n"], 4: ["per_seq", "per_seq_half"],
            5: ["per_arm", "per_arm_half"], 6: ["total_n"]}


def check_table(number, reference, ref_columns, size_tol, power_tol):
    """Compare a rebuilt table against the published reference figures."""
    columns, rows = build_table(number)
    assert len(rows) == len(reference)
    problems = []
    for row, ref in zip(rows, reference):
        named = dict(zip(ref_columns, ref))
        for col in SIZE_COLS[number]:
            want = named[col]
            if abs(row[col] - float(want)) > allowed_delta(want, size_tol):
                problems.append(f"{named}: {col} {row[col]:.4f} vs {want}")
        for col in POWER_COLS[number]:
            want = named[col]
            if abs(row[col] - float(want)) > allowed_delta(want, power_tol):
                problems.append(f"{named}: {col} {row[col]:.4f} vs {want}")
        for col in INT_COLS[number]:
            if row[col] != named[col]:
                problems.append(f"{named}: {col} {row[col]} vs {named[col]}")
    return problems


def report(criterion, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    print(f"[{status}] criterion {criterion}: {detail}")


T1_COLS = ["variances", "effect", "exact", "normal", "two_step", "g1", "g2", "per_arm", "power_exact"]
T2_COLS = [
    "q", "effect", "exact", "n_asy", "n_approx", "asymptotic_t", "two_step", "g1", "g2",
    "per_arm", "power_exact", "power_approx",
]
T3_COLS = [
    "covariance", "q", "effect", "exact", "n_a", "n_approx", "two_step", "g1", "g2",
    "total_n", "power_main", "power_simple",
]
T4_COLS = [
    "sigma_sq", "exact", "normal", "two_step", "g1", "g2", "per_seq", "power_exact",
    "power_approx", "per_seq_half", "power_exact_half", "power_approx_half",
]
T5_COLS = [
    "margin", "exact", "normal", "two_step", "g1", "g2", "per_arm", "power_exact",
    "power_approx", "power_generic_approx", "per_arm_half", "power_exact_half",
    "power_approx_half", "power_generic_approx_half",
]
T6_COLS = [
    "covariance", "q", "margin", "exact", "n_a", "n_approx", "two_step", "g1", "g2",
    "total_n", "power",
]


class TestCriterion1:
    def test_table1_reproduction(self):
        start = time.perf_counter()
        problems = check_table(1, TABLE1, T1_COLS, 0.01, 0.01)
        elapsed = time.perf_counter() - start
        ok = not problems and elapsed < 5.0
        report(1, ok, f"t-test table, 16 rows, {elapsed:.1f}s")
        assert not problems, problems
        assert elapsed < 5.0, f"runtime {elapsed:.1f}s exceeds 5s"


class TestCriterion2:
    def test_table2_reproduction(self):
        start = time.perf_counter()
        problems = check_table(2, TABLE2, T2_COLS, 0.02, 0.02)
        elapsed = time.perf_counter() - start
        ok = not problems and elapsed < 30.0
        report(2, ok, f"covariate-adjusted table, 10 rows, {elapsed:.1f}s")
        assert not problems, problems
        assert elapsed < 30.0, f"runtime {elapsed:.1f}s exceeds 30s"


class TestCriterion3:
    def test_tables3_and_6_reproduction(self):
        start = time.perf_counter()
        problems = check_table(3, TABLE3, T3_COLS, 0.05, 0.05)
        problems += check_table(6, TABLE6, T6_COLS, 0.05, 0.05)
        elapsed = time.perf_counter() - start
        ok = not problems and elapsed < 60.0
        report(3, ok, f"repeated-measures tables, 40 rows, {elapsed:.1f}s")
        assert not problems, problems
        assert elapsed < 60.0, f"runtime {elapsed:.1f}s exceeds 60s"


class TestCriterion4:
    def test_tables4_and_5_reproduction(self):
        start = time.perf_counter()
        problems = check_table(4, TABLE4, T4_COLS, 0.02, 0.02)
        problems += check_table(5, TABLE5, T5_COLS, 0.02, 0.02)
        # the single-group analysis variant of the crossover rows
        for i, want in enumerate(TABLE4_ONE_SAMPLE_POWERS):
            s2 = 0.0125 * (i + 1)
            k = designs.one_sample_kernel(0.0, 0.0, 4.0 * s2)
            m = Margins.equivalence(-math.log(1.25), math.log(1.25))
            n_full = 2 * TABLE4[i][6]
            got = equiv_power_exact(k, m, n_full, 0.1).value * 100.0
            if abs(got - float(want)) > allowed_delta(want, 0.02):
                problems.append(f"one-sample variant {s2}: {got:.4f} vs {want}")
        elapsed = time.perf_counter() - start
        ok = not problems and elapsed < 60.0
        report(4, ok, f"equivalence tables incl. stress rows, 9 rows, {elapsed:.1f}s")
        assert not problems, problems
        assert elapsed < 60.0, f"runtime {elapsed:.1f}s exceeds 60s"


def _sim_check(label, cfg, n_per_group, alpha, objective, formula, failures, note=""):
    """Simulate one fixture; record a failure when |sim - formula| > 3SE."""
    rep = simulate_power(cfg.scenario, n_per_group, alpha, objective)
    delta = rep.power_hat - formula
    bound = 3.0 * rep.std_error
    if abs(delta) > bound:
        failures.append(f"{label}: sim {rep.power_hat:.4f} vs formula {formula:.4f} "
                        f"(|diff| {abs(delta):.4f} > 3SE {bound:.4f}){note}")
    return rep


def _mmrm_check(label, cfg, total, objective, paper_at, simple_at, failures):
    """MMRM rows, at the simulated allocation (n0, n1) = (ceil(n/2), floor(n/2)).

    The simulation is held to the simplified formula averaged over random
    dropout; the paper's formula is evaluated at the expected retained counts
    only for the report.  Returns |sim - paper formula| and 3SE.
    """
    n0 = total - total // 2
    averaged = mmrm.dropout_averaged_power(simple_at, cfg.design, (n0, total - n0))
    paper = paper_at(dataclasses.replace(cfg.design, gamma0=n0 / total), total)
    note = (f"; simplified formula {averaged.plug_in:.4f}, dropout term "
            f"{averaged.value - averaged.plug_in:+.4f} (SE {averaged.std_error:.5f}), "
            f"paper formula {paper:.4f}")
    rep = _sim_check(label, cfg, (n0, total - n0), cfg.alpha, objective, averaged.value,
                     failures, note)
    return abs(rep.power_hat - paper), 3.0 * rep.std_error


class TestCriterion5:
    """Monte Carlo concordance at each table's integer evaluation sizes and the
    shipped per-fixture seeds; type I error likewise at null/margin
    configurations.

    Each row of Tables 1, 2, 4 and 5 is held to its family's exact power
    (:meth:`~trialsize.config.DesignConfig.exact_power`, the power of the
    simulator's rejection region), which must sit within three binomial
    standard errors (3SE) of the simulated rejection rate.  The
    repeated-measures formulas of Tables 3 and 6 are approximations
    evaluated at the expected retained counts, while the simulator draws
    dropout at random.  Their rows are held to the same 3SE against the
    simplified formula (first-order variance, observed-information d.f.),
    averaged over the random retained counts by
    :func:`trialsize.mmrm.dropout_averaged_power`.  The report line counts the
    rows where the paper's main formula itself is beyond 3SE."""

    def test_formula_vs_simulation_all_fixtures(self):
        failures = []
        taus = ("050", "075", "100", "125", "150", "175", "200", "225")
        for i, code in enumerate(taus):
            for kind, row in (("equal", TABLE1[i]), ("unequal", TABLE1[i + 8])):
                cfg = load_design(fixture_path(f"table1_{kind}_{code}"))
                per_arm = row[7]
                formula = cfg.exact_power(2 * per_arm, cfg.alpha)
                _sim_check(
                    f"t-test {kind} effect {row[1]}", cfg, (per_arm, per_arm),
                    cfg.alpha, Margins.superiority(), formula, failures,
                )

        t2_codes = ("100", "125", "150", "175", "200")
        for q in (1, 3):
            for i, code in enumerate(t2_codes):
                row = TABLE2[i if q == 1 else i + 5]
                cfg = load_design(fixture_path(f"table2_q{q}_{code}"))
                per_arm = row[9]
                formula = cfg.exact_power(2 * per_arm, cfg.alpha)
                _sim_check(
                    f"covariate-adjusted q={q} effect {row[1]}", cfg,
                    (per_arm, per_arm), cfg.alpha, Margins.superiority(), formula, failures,
                )

        mmrm_gaps = []
        for idx, (cov, q, tau, *rest) in enumerate(TABLE3):
            cfg = load_design(fixture_path(f"table3_{cov}_q{q}_m{abs(tau):02d}"))
            mmrm_gaps.append(_mmrm_check(
                f"repeated-measures {cov} q={q} effect {tau}", cfg, TABLE3[idx][9],
                Margins.superiority(),
                lambda d, n: mmrm.mmrm_power(d, n, cfg.alpha).value,
                lambda d, n: mmrm.mmrm_power_approx(d, n, cfg.alpha).value,
                failures,
            ))

        for i, row in enumerate(TABLE4):
            cfg = load_design(fixture_path(f"table4_s2_{int(row[0] * 10000):04d}"))
            for per_seq, label in ((row[6], "full"), (row[9], "half")):
                formula = cfg.exact_power(2 * per_seq, cfg.alpha)
                _sim_check(
                    f"crossover BE s2={row[0]} {label}", cfg, (per_seq, per_seq),
                    cfg.alpha, cfg.margins, formula, failures,
                )

        for row in TABLE5:
            cfg = load_design(fixture_path(f"table5_m_{int(row[0] * 10):02d}"))
            for per_arm, label in ((row[6], "full"), (row[10], "half")):
                formula = cfg.exact_power(2 * per_arm, cfg.alpha)
                _sim_check(
                    f"unequal equivalence margin {row[0]} {label}", cfg,
                    (per_arm, per_arm), cfg.alpha, cfg.margins, formula, failures,
                )

        for idx, (cov, q, margin, *rest) in enumerate(TABLE6):
            cfg = load_design(fixture_path(f"table6_{cov}_q{q}_m{margin}"))
            mmrm_gaps.append(_mmrm_check(
                f"repeated-measures equivalence {cov} q={q} margin {margin}", cfg,
                TABLE6[idx][9], cfg.margins,
                lambda d, n: mmrm.mmrm_equiv_power(d, cfg.margins, n, cfg.alpha).value,
                lambda d, n: mmrm.mmrm_equiv_power_approx(d, cfg.margins, n, cfg.alpha).value,
                failures,
            ))

        ok = not failures
        beyond = sum(diff > se3 for diff, se3 in mmrm_gaps)
        widest = max(diff for diff, _ in mmrm_gaps)
        report(5, ok, f"formula-vs-simulation concordance, {len(failures)} discordant fixtures; "
                      f"MMRM paper formula beyond 3SE at {beyond} of {len(mmrm_gaps)} rows, "
                      f"largest |sim - formula| {100.0 * widest:.2f} pp")
        assert not failures, "\n".join(failures)

    def test_type_one_error_calibration(self):
        failures = []

        def check(label, design_obj, sc_kwargs, n_per_group, alpha, objective, nominal, reps):
            from trialsize.simulate import ScenarioSpec

            sc = ScenarioSpec(design=design_obj, **sc_kwargs)
            rep = simulate_power(sc, n_per_group, alpha, objective, replicates=reps)
            bound = 3.0 * math.sqrt(nominal * (1.0 - nominal) / reps)
            if abs(rep.power_hat - nominal) > bound:
                failures.append(
                    f"{label}: rate {rep.power_hat:.4f} vs nominal {nominal:.4f} (3SE {bound:.4f})"
                )

        check(
            "two-sided null (pooled t)",
            ts.TwoSampleSpec(0.0, 0.0, 1.0, 1.0, 0.5, equal_variance=True),
            {"seed": 2001}, (17, 17), 0.05, Margins.superiority(), 0.05, 100_000,
        )
        check(
            "two-sided null (covariate-adjusted)",
            AncovaSpec(tau1=0.0, tau0=0.0, sigma_sq=1.0, gamma0=0.5, q=1),
            {"seed": 2002, "intercept": 0.5, "baseline_effect": 0.5},
            (18, 18), 0.05, Margins.superiority(), 0.05, 100_000,
        )
        check(
            "noninferiority at the margin",
            ts.TwoSampleSpec(0.0, 1.0, 1.0, 4.0, 0.5),
            {"seed": 2003}, (41, 41), 0.05,
            Margins(lower=-math.inf, upper=1.0), 0.025, 100_000,
        )
        check(
            "equivalence with the effect on the margin",
            ts.CrossoverSpec(0.0, math.log(1.25), 0.05, 0.5, period_effect_in_analysis=True),
            {"seed": 2004}, (18, 18), 0.1,
            Margins.equivalence(-math.log(1.25), math.log(1.25)), 0.05, 100_000,
        )
        un = np.array(
            [
                [19.68, 16.45, 15.39, 16.36],
                [16.45, 34.00, 25.34, 26.13],
                [15.39, 25.34, 38.44, 33.91],
                [16.36, 26.13, 33.91, 45.28],
            ]
        )
        check(
            "two-sided null (repeated measures)",
            ts.MmrmDesign(
                sigma=un,
                retention=((1.0, 0.92, 0.86, 0.74), (1.0, 0.93, 0.87, 0.76)),
                gamma0=0.5, q=1, tau_p1=0.0,
            ),
            {
                "seed": 2005,
                "visit_intercepts": (3.3, 2.7, 2.9, 1.0),
                "visit_baseline_effects": (0.72, 0.69, 0.61, 0.67),
                "visit_effects": (0.0, 0.0, 0.0),
            },
            (20, 19), 0.05, Margins.superiority(), 0.05, 40_000,
        )
        ok = not failures
        report(5, ok, f"type I calibration, {len(failures)} miscalibrated configurations")
        assert not failures, "\n".join(failures)


class TestCriterion6:
    """Property battery, runnable standalone."""

    def test_distribution_identities(self):
        rng = np.random.default_rng(11)
        worst = 0.0
        for _ in range(40):
            c = rng.uniform(0.1, 4.0)
            f = rng.uniform(1.0, 80.0)
            lam = rng.uniform(0.0, 5.0)
            lhs = dist._f_sf(c * c, f, lam * lam)
            rhs = (1.0 - dist.t_cdf(c, f, lam)) + dist.t_cdf(-c, f, lam)
            worst = max(worst, abs(lhs - rhs))
        for p in np.linspace(0.001, 0.999, 21):
            worst_q = abs(special.ndtr(dist.normal_quantile(p)) - p)
            worst_t = abs(dist.t_cdf(dist.t_quantile(p, 7.3), 7.3, 0.0) - p)
            worst = max(worst, worst_q, worst_t)
        ok = worst < 1e-9
        report(6, ok, f"distribution identities, worst deviation {worst:.2e}")
        assert ok

    def test_size_ordering(self):
        kernels = [
            designs.two_sample_equal_kernel(
                ts.TwoSampleSpec(0.0, tau, 1.0, 1.0, 0.5, equal_variance=True), 0.0
            )
            for tau in (0.3, 0.8, 1.6)
        ] + [
            designs.two_sample_unequal_kernel(ts.TwoSampleSpec(0.0, tau, 1.0, 4.0, 0.3), 0.0)
            for tau in (0.5, 1.4)
        ] + [designs.one_sample_kernel(0.7, 0.0, 1.0)]
        ok = True
        for k in kernels:
            chain = core.size_chain(k, k.effect, 0.05, 0.8)
            ok &= chain["normal"] < chain["g1"] < chain["g2"]
        report(6, ok, "size ordering normal < g1 < g2")
        assert ok

    def test_quadratic_root_bounds(self):
        rng = np.random.default_rng(12)
        ok = True
        for _ in range(300):
            q = int(rng.integers(1, 11))
            n_asy = float(rng.uniform(10.0, 1e4))
            root = 0.5 * (
                (n_asy + q + 3.0) + math.sqrt((n_asy + q + 3.0) ** 2 - 12.0 * n_asy)
            )
            ok &= n_asy + q < root < n_asy + q + 3.0
        report(6, ok, "covariate-corrected size root bounds")
        assert ok

    def test_ldl_reconstruction(self):
        rng = np.random.default_rng(13)
        worst = 0.0
        for _ in range(50):
            p = int(rng.integers(1, 9))
            a = rng.standard_normal((p, p + 1))
            sigma = a @ a.T + 0.3 * np.eye(p)
            fac = mmrm.ldl_decompose(sigma)
            worst = max(worst, np.max(np.abs(fac.l @ np.diag(fac.lam) @ fac.l.T - sigma)))
        ok = worst <= 1e-10
        report(6, ok, f"factorization reconstruction, worst {worst:.2e}")
        assert ok

    def test_degeneracy_reductions(self):
        # covariate-free adjusted analysis equals the pooled t test
        s0 = AncovaSpec(tau1=0.8, tau0=0.0, sigma_sq=1.0, gamma0=0.5, q=0)
        kk = designs.two_sample_equal_kernel(
            ts.TwoSampleSpec(0.0, 0.8, 1.0, 1.0, 0.5, equal_variance=True), 0.0
        )
        d1 = max(
            abs(
                ancova_power_exact(s0, n, 0.05).value
                - core.power_two_sided(kk, n, 0.05).value
            )
            for n in (10, 24, 60)
        )
        # single-visit full-retention repeated measures equals the adjusted design
        dsg = mmrm.MmrmDesign(
            sigma=np.array([[1.0]]), retention=((1.0,), (1.0,)), gamma0=0.5, q=1, tau_p1=1.0
        )
        s1 = AncovaSpec(tau1=1.0, tau0=0.0, sigma_sq=1.0, gamma0=0.5, q=1)
        d2 = max(
            abs(mmrm.mmrm_power(dsg, n, 0.05).value - ancova_power_approx(s1, n, 0.05).value)
            for n in (20, 50)
        )
        # one-sided margin pair reduces the equivalence integral to the Welch power
        spec = ts.TwoSampleSpec(0.0, 1.0, 1.0, 4.0, 0.5)
        mm = Margins(lower=0.0, upper=math.inf)
        d3 = max(
            abs(
                ts_unequal_equiv_power(spec, mm, n, 0.05, exact=False).value
                - designs.moser_exact_power(spec, 0.0, n, 0.05).value
            )
            for n in (24, 60)
        )
        ok = d1 < 1e-9 and d2 < 1e-6 and d3 < 1e-8
        report(6, ok, f"degeneracy reductions, deviations {d1:.1e}/{d2:.1e}/{d3:.1e}")
        assert ok

    def test_exact_dominates_approximations(self):
        k = designs.crossover_kernel(ts.CrossoverSpec(0.0, 0.0, 0.05, 0.5))
        m = Margins.equivalence(-math.log(1.25), math.log(1.25))
        ok = True
        for n in (4, 6, 10, 18, 40):
            ok &= (
                equiv_power_exact(k, m, n, 0.1).value
                >= equiv_power_approx(k, m, n, 0.1).value - 1e-10
            )
        s = AncovaSpec(tau1=0.0, tau0=0.0, sigma_sq=1.0, gamma0=0.5, q=2)
        ma = Margins.equivalence(-0.8, 0.8)
        for n in (10, 18, 40):
            ok &= (
                ancova_equiv_power(s, ma, n, 0.05, exact=True).value
                >= ancova_equiv_power(s, ma, n, 0.05, exact=False).value - 1e-9
            )
        report(6, ok, "exact equivalence power dominates the integration-free forms")
        assert ok
