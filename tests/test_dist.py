"""Distribution kernel tests.

Expected values marked "oracle:" were computed once with the stated
independent method (high-precision series, defining-integral quadrature at
50-digit precision, or bisection) and frozen here as literals.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import integrate, special, stats

from trialsize import designs, dist
from trialsize.ancova import AncovaSpec, ancova_power_exact
from trialsize.designs import TwoSampleSpec
from trialsize.equivalence import Margins, _phillips_integral, ts_unequal_equiv_power
from trialsize.errors import BracketError, ConvergenceError, DomainError
from trialsize.families import family_of

Z_975 = 1.9599639845400545
Z_90 = 1.2815515655446004


def erf_series(z: float, terms: int = 50) -> float:
    """Taylor series of erf, adequate to ~1e-15 for |z| < 3."""
    total = 0.0
    term = z
    for n in range(terms):
        total += term / (2 * n + 1)
        term *= -z * z / (n + 1)
    return 2.0 / math.sqrt(math.pi) * total


def bisect(fn, lo, hi, iters=100):
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        if fn(mid) < 0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def nct_cdf_mixture(x: float, f: float, lam: float) -> float:
    """Noncentral t CDF from its defining mixture, E[Phi(x*sqrt(xi) - lam)]
    over xi ~ chi2_f / f, by scipy.integrate.quad."""
    xi = stats.chi2(f, scale=1.0 / f)
    val, _ = integrate.quad(
        lambda v: special.ndtr(x * math.sqrt(v) - lam) * xi.pdf(v),
        xi.ppf(1e-16),
        xi.isf(1e-16),
        points=[xi.mean()],
        epsabs=1e-13,
        epsrel=1e-12,
        limit=400,
    )
    return val


class TestNormal:
    def test_symmetry_at_zero(self):
        assert special.ndtr(0.0) == 0.5

    def test_upper_quantile_value(self):
        # oracle: 50-term erf series
        series = 0.5 + 0.5 * erf_series(1.959964 / math.sqrt(2.0))
        assert abs(special.ndtr(1.959964) - series) < 5e-14
        assert abs(special.ndtr(1.959964) - 0.975) < 1e-8

    def test_lower_tail_value(self):
        series = 0.5 + 0.5 * erf_series(-1.281552 / math.sqrt(2.0))
        assert abs(special.ndtr(-1.281552) - series) < 5e-14
        assert abs(special.ndtr(-1.281552) - 0.10) < 1e-6

    def test_saturation(self):
        assert special.ndtr(-50.0) == 0.0
        assert special.ndtr(50.0) == 1.0

    def test_quantile_median(self):
        assert dist.normal_quantile(0.5) == 0.0

    def test_quantile_vs_bisection(self):
        # oracle: bisection on scipy.special.ndtr
        root = bisect(lambda x: special.ndtr(x) - 0.975, 0.0, 4.0)
        assert abs(dist.normal_quantile(0.975) - root) < 1e-9
        root = bisect(lambda x: special.ndtr(x) - 0.9, 0.0, 4.0)
        assert abs(dist.normal_quantile(0.9) - root) < 1e-9

    @pytest.mark.parametrize("p", [0.0, 1.0, -0.2, 1.3])
    def test_quantile_domain(self, p):
        with pytest.raises(DomainError):
            dist.normal_quantile(p)

    def test_round_trip(self):
        for p in np.linspace(0.001, 0.999, 41):
            assert abs(special.ndtr(dist.normal_quantile(p)) - p) < 1e-12


class TestTDistribution:
    def test_central_symmetry(self):
        assert abs(dist.t_cdf(0.0, 7.0) - 0.5) < 1e-15

    def test_large_df_normal_limit_noncentral(self):
        for x in (-1.0, 0.3, 2.5):
            assert abs(dist.t_cdf(x, 1e6, 2.0) - special.ndtr(x - 2.0)) < 1e-4

    def test_large_df_normal_limit_central(self):
        for x in (-2.0, 0.0, 1.5):
            assert abs(dist.t_cdf(x, 1e7, 0.0) - special.ndtr(x)) < 1e-5

    def test_noncentral_value(self):
        # oracle: defining integral by adaptive quadrature at 40-digit precision
        assert abs(dist.t_cdf(2.0, 5.0, 1.5) - 0.6314492472556717) < 1e-10

    @pytest.mark.parametrize(
        "x, f, lam",
        [
            (2.0, 5.0, 1.5),
            (0.7, 3.3, 0.0),
            (-1.2, 12.5, -2.0),
            (1.0, 1.5, -0.5),
            (-3.0, 40.0, -4.5),
            (2.3, 240.0, 2.1),
            # scipy 1.17.1's special.nctdtr returns NaN at these points
            (1.96, 998.0, 38.6),
            (-4.08, 901.5, 7.7),
            (-4.03, 17.3, 23.2),
            (7.68, 406.6, -8.2),
            (7.22, 88.8, -6.3),
        ],
    )
    def test_against_mixture_oracle(self, x, f, lam):
        value = dist.t_cdf(x, f, lam)
        assert 0.0 <= value <= 1.0
        assert abs(value - nct_cdf_mixture(x, f, lam)) <= 1e-9

    def test_central_case_is_central_t(self):
        for x in (-3.1, -0.4, 0.0, 1.7):
            assert dist.t_cdf(x, 6.5, 0.0) == special.stdtr(6.5, x)

    def test_infinite_argument(self):
        assert dist.t_cdf(math.inf, 4.0, 1.0) == 1.0
        assert dist.t_cdf(-math.inf, 4.0, 1.0) == 0.0

    def test_bad_df(self):
        with pytest.raises(DomainError):
            dist.t_cdf(1.0, 0.0)
        with pytest.raises(DomainError):
            dist.t_cdf(1.0, -3.0)

    def test_noncentrality_beyond_scipy_range_is_named(self):
        # scipy's nct.sf is NaN once |lam| reaches about 1e10; 1e9 is computed
        assert dist.t_cdf(2.0, 10.0, -1e9) == 1.0
        for lam in (1e10, -1e12, np.array([0.5, 3e10])):
            with pytest.raises(DomainError, match="undefined at noncentrality"):
                dist.t_cdf(2.0, 10.0, lam)

    def test_quantile_median(self):
        assert abs(dist.t_quantile(0.5, 11.0)) < 1e-15

    def test_quantile_value(self):
        # oracle: bisection on the central CDF
        assert abs(dist.t_quantile(0.975, 10.0) - 2.2281388519862747) < 1e-9

    def test_quantile_fractional_df(self):
        q = dist.t_quantile(0.95, 3.7)
        assert abs(q - 2.182493803914602) < 1e-9
        assert abs(dist.t_cdf(q, 3.7, 0.0) - 0.95) < 1e-10

    def test_quantile_domain(self):
        with pytest.raises(DomainError):
            dist.t_quantile(0.0, 5.0)


class TestFDistribution:
    def test_square_of_t_identity(self):
        c, f, lam = 2.0, 8.0, 1.0
        # oracle: noncentral t tails at 40-digit precision
        assert abs(dist._f_sf(c * c, f, lam * lam) - 0.20402121374524675) < 1e-10
        rhs = (1.0 - dist.t_cdf(c, f, lam)) + dist.t_cdf(-c, f, lam)
        assert abs(dist._f_sf(c * c, f, lam * lam) - rhs) < 1e-9

    def test_noncentrality_beyond_scipy_range_is_named(self):
        assert dist._f_sf(4.0, 10.0, 1e18) == 1.0
        with pytest.raises(DomainError, match="undefined at noncentrality 1e\\+10"):
            dist._f_sf(4.0, 10.0, np.array([1.0, 1e20]))

    def test_nan_arguments_stay_nan(self):
        # the undefined entries of a batch, which the MMRM powers mask
        tails = dist._f_sf(4.0, np.array([10.0, np.nan]), np.array([1.0, np.nan]))
        assert np.isfinite(tails[0]) and np.isnan(tails[1])

    def test_vectorised_over_noncentrality(self):
        lam_sq = np.array([0.0, 0.5, 4.0, 30.0])
        tails = dist._f_sf(3.1, 17.0, lam_sq)
        assert tails.shape == lam_sq.shape
        for v, tail in zip(lam_sq, tails):
            assert tail == dist._f_sf(3.1, 17.0, v)


class TestBroadcasting:
    """The t quantile, t CDF and F(1, f) tail take arrays in every argument,
    with one value per entry; scalar arguments give a float."""

    X = np.array([1.2, 3.5, 0.4, 7.0])
    F = np.array([3.5, 12.0, 40.25, 200.0])
    LAM = np.array([0.0, -1.5, 2.25, 6.0])

    def test_scalars_give_floats(self):
        assert type(dist.t_quantile(0.975, 9.5)) is float
        assert type(dist.t_cdf(1.0, 9.5, 0.5)) is float
        assert type(dist._f_sf(4.0, 9.5, 2.0)) is float

    def test_arrays_match_scalar_calls(self):
        quantiles = dist.t_quantile(0.975, self.F)
        cdfs = dist.t_cdf(self.X, self.F, self.LAM)
        tails = dist._f_sf(self.X, self.F, self.LAM**2)
        for i in range(len(self.F)):
            assert quantiles[i] == dist.t_quantile(0.975, self.F[i])
            assert cdfs[i] == dist.t_cdf(self.X[i], self.F[i], self.LAM[i])
            assert tails[i] == dist._f_sf(self.X[i], self.F[i], self.LAM[i] ** 2)

    def test_scalar_noncentrality_against_array_arguments(self):
        # a lower-rank noncentrality broadcasts against x and f
        tails = dist._f_sf(self.X[:2], self.F[:2], 9.0)
        assert tails.shape == (2,)
        assert tails[1] == dist._f_sf(self.X[1], self.F[1], 9.0)

    def test_checks_every_entry(self):
        with pytest.raises(DomainError, match="df must be a positive finite real, got -1.0"):
            dist.t_quantile(0.975, np.array([3.0, -1.0]))
        with pytest.raises(DomainError, match=r"p must lie strictly in \(0, 1\), got 1.0"):
            dist.t_quantile(np.array([0.5, 1.0]), 4.0)
        with pytest.raises(DomainError, match="noncentrality must be finite"):
            dist.t_cdf(1.0, 4.0, np.array([0.0, np.inf]))
        with pytest.raises(DomainError, match="must not be NaN"):
            dist.t_cdf(np.array([1.0, np.nan]), 4.0)


class TestScipyPins:
    """The noncentral tails call scipy's ufuncs directly; these pin them to the
    public ``scipy.stats`` functions they stand for, so that a scipy which
    moves or changes the ufuncs fails here."""

    X = np.array([-np.inf, -40.0, -3.0, -0.5, 0.0, 0.7, 2.5, 40.0, np.inf, np.nan])
    F = np.array([0.5, 3.7, 30.0, 1e5, np.nan])
    LAM = np.array([-3e9, -37.0, -1.5, -1e-3, 0.0, 1e-3, 1.5, 37.0, 3e9, np.nan])

    def test_nct_sf_is_scipy_nct_sf_bit_for_bit(self):
        x, f, lam = self.X[:, None, None], self.F[None, :, None], self.LAM
        np.testing.assert_array_equal(dist._nct_sf(x, f, lam), stats.nct.sf(x, f, lam))

    def test_nct_sf_raises_where_scipy_is_nan(self):
        # scipy's tail at x = -40 is NaN from |lam| = 5e9 on
        assert np.isnan(stats.nct.sf(-40.0, 30.0, 5e9))
        with pytest.raises(DomainError, match="undefined at noncentrality 5e\\+09"):
            dist._nct_sf(-40.0, 30.0, 5e9)

    def test_f_sf_is_the_sum_of_two_t_tails(self):
        rng = np.random.default_rng(22)
        root_x = rng.uniform(0.0, 12.0, 20_000)
        f = np.exp(rng.uniform(math.log(0.5), math.log(1e5), 20_000))
        lam = np.exp(rng.uniform(math.log(1e-3), math.log(200.0), 20_000))
        two_tails = stats.nct.sf(root_x, f, lam) + stats.nct.sf(root_x, f, -lam)
        assert np.abs(dist._f_sf(root_x**2, f, lam**2) - two_tails).max() < 1e-13

    def test_f_sf_is_the_central_tail_at_zero_noncentrality(self):
        # Boost's noncentral tail reads -0.947 at (3.84, 100) with lam^2 = 0
        x, f = self.X[4:-1, None] ** 2, self.F[:-1]
        np.testing.assert_array_equal(dist._f_sf(x, f, 0.0), special.fdtrc(1.0, f, x))
        assert dist._f_sf(3.84, 100.0, 0.0) == special.fdtrc(1.0, 100.0, 3.84)

    def test_f_sf_limits(self):
        # the undefined tail at lam^2 = 1e20 is
        # TestFDistribution.test_noncentrality_beyond_scipy_range_is_named
        assert dist._f_sf(math.inf, 30.0, 4.0) == 0.0
        assert dist._f_sf(0.0, 30.0, 4.0) == 1.0


class TestDensities:
    """The log densities that weight the quadrature rules, against scipy."""

    def test_scaled_chi2_mode(self):
        f = 10.0
        mode = (f - 2.0) / f
        grid = np.linspace(0.05, 3.0, 400)
        vals = dist._log_scaled_chi2_density(grid, f)
        assert abs(grid[int(np.argmax(vals))] - mode) < 0.01

    def test_scaled_chi2_normalizes(self):
        density = lambda x: math.exp(dist._log_scaled_chi2_density(np.asarray(x), 7.0))
        total, _ = integrate.quad(density, 1e-300, np.inf)
        assert abs(total - 1.0) < 1e-8

    def test_scaled_chi2_value(self):
        # oracle: log-gamma evaluation at 40-digit precision
        assert abs(math.exp(dist._log_scaled_chi2_density(1.0, 10.0)) - 0.8773368488392535) < 1e-13

    @pytest.mark.parametrize("f", [0.5, 1.0, 4.0, 10.0, 240.0])
    def test_scaled_chi2_left_tail(self, f):
        # the rule's first panel edge for fractional d.f. reaches far into the left tail
        xi = np.array([1e-100, 1e-12, 1e-3, 0.5, 1.0, 4.0])
        expected = stats.chi2.logpdf(xi, f, scale=1.0 / f)
        assert np.allclose(dist._log_scaled_chi2_density(xi, f), expected, rtol=1e-12, atol=1e-12)

    def test_f_density_normalizes(self):
        density = lambda x: math.exp(dist._log_f_density(np.asarray(x), 4.0, 9.0))
        total = integrate.quad(density, 1e-300, 1.0)[0] + integrate.quad(density, 1.0, np.inf)[0]
        assert abs(total - 1.0) < 1e-8

    def test_f_density_median_symmetric(self):
        below, _ = integrate.quad(
            lambda x: math.exp(dist._log_f_density(np.asarray(x), 7.0, 7.0)), 1e-300, 1.0,
            epsabs=1e-14, epsrel=1e-13,
        )
        assert abs(below - 0.5) < 1e-12

    def test_f_density_value(self):
        # oracle: log-gamma evaluation at 40-digit precision
        assert abs(math.exp(dist._log_f_density(1.3, 4.0, 7.0)) - 0.3149255992558021) < 1e-13

    @pytest.mark.parametrize("f1, f2", [(0.5, 0.5), (1.0, 5.0), (3.0, 5.0), (10.0, 40.0)])
    def test_f_density_left_tail(self, f1, f2):
        u = np.array([1e-100, 1e-12, 1e-3, 0.5, 1.0, 4.0, 1e6])
        expected = stats.f.logpdf(u, f1, f2)
        assert np.allclose(dist._log_f_density(u, f1, f2), expected, rtol=1e-12, atol=1e-12)


def f_law_expectation(g, f1: float, f2: float) -> float:
    """E[g(U)] for U ~ F(f1, f2) by scipy.integrate.quad in log u, between
    scipy's quantiles at 1e-15 and its mirror."""
    law = stats.f(f1, f2)
    breaks = [math.log(law.ppf(p)) for p in (0.01, 0.5, 0.99)]
    val, _ = integrate.quad(
        lambda w: g(math.exp(w)) * law.pdf(math.exp(w)) * math.exp(w),
        math.log(law.ppf(1e-15)),
        math.log(law.isf(1e-15)),
        points=breaks,
        limit=500,
        epsabs=1e-13,
        epsrel=1e-12,
    )
    return val


# (sigma1_sq / sigma0_sq, gamma0, n); n = 5 at gamma0 = 0.7 and n = 6 at
# gamma0 = 0.3 leave one group with 0.5 and 0.8 d.f.
WELCH_GRID = [
    (1 / 16, 0.7, 5), (16.0, 0.7, 5), (1 / 16, 0.3, 6), (16.0, 0.3, 6),
    (1.0, 0.5, 12), (1 / 16, 0.3, 40), (16.0, 0.5, 600),
]
# (q, n)
ANCOVA_GRID = [(1, 5), (1, 10), (3, 7), (10, 14), (10, 40), (3, 600)]


def welch_case(kind, ratio, gamma0, n, alpha=0.05):
    """The library's value and the quad oracle of one Welch-family integral.

    The effect and the margins shrink like 1/sqrt(n), so that no power is
    trivially 0 or 1."""
    scale = 1.0 / math.sqrt(n)
    equiv = kind != "moser"
    spec = TwoSampleSpec(0.0, (0.5 if equiv else 3.0) * scale, 1.0, ratio, gamma0)
    margins = Margins.equivalence(-4.0 * scale, 4.0 * scale)
    n0, n1 = gamma0 * n, (1.0 - gamma0) * n
    base = ratio / n1 + 1.0 / n0
    tau1 = spec.mu1 - spec.mu0

    def h(u):
        # given the variance ratio u, the Welch variance is a1 + a0 with
        # a1 = u ratio/n1 and a0 = 1/n0, on Satterthwaite's d.f., and its
        # scale over the pooled chi-square v(u)
        a1, a0 = u * ratio / n1, 1.0 / n0
        f_u = (a1 + a0) ** 2 / (a1 * a1 / (n1 - 1.0) + a0 * a0 / (n0 - 1.0))
        v_u = (n0 + n1 - 2.0) / ((n1 - 1.0) * u + (n0 - 1.0)) * (a1 + a0)
        return stats.t.ppf(1.0 - alpha / 2.0, f_u) * math.sqrt(v_u / base)

    a_up, b_low = (margins.upper - tau1) / math.sqrt(base), (margins.lower - tau1) / math.sqrt(base)
    if kind == "moser":
        value = designs.moser_exact_power(spec, 0.0, n, alpha).value
        g = lambda u: stats.nct.sf(h(u), n - 2.0, tau1 / math.sqrt(base))
    elif kind == "ts_equiv_exact":
        value = ts_unequal_equiv_power(spec, margins, n, alpha, exact=True).value
        g = lambda u: _phillips_integral(a_up, b_low, h(u), n - 2.0)
    else:
        value = ts_unequal_equiv_power(spec, margins, n, alpha, exact=False).value
        g = lambda u: stats.nct.sf(h(u), n - 2.0, a_up) + stats.nct.sf(h(u), n - 2.0, -b_low) - 1.0
    return value, f_law_expectation(g, n1 - 1.0, n0 - 1.0)


def ancova_case(kind, q, n, alpha=0.05):
    """The library's value and the quad oracle of one ANCOVA-family integral."""
    scale = 1.0 / math.sqrt(n)
    equiv = kind != "ancova"
    spec = AncovaSpec((0.5 if equiv else 3.0) * scale, 0.0, 1.0, 0.4, q)
    margins = Margins.equivalence(-4.0 * scale, 4.0 * scale)
    f, f2 = n - q - 2.0, n - q - 1.0
    crit = stats.t.ppf(1.0 - alpha / 2.0, f)
    se = lambda u: math.sqrt((1.0 + q * u / f2) / (n * 0.4 * 0.6))
    a_up = lambda u: (margins.upper - spec.tau1) / se(u)
    b_low = lambda u: (margins.lower - spec.tau1) / se(u)
    if kind == "ancova":
        value = ancova_power_exact(spec, n, alpha).value
        g = lambda u: stats.ncf.sf(crit**2, 1.0, f, (spec.tau1 / se(u)) ** 2)
    elif kind == "ancova_equiv_exact":
        value = family_of(spec).powers(spec, margins)[1]["exact"](n, alpha).value
        g = lambda u: _phillips_integral(a_up(u), b_low(u), crit, f)
    else:
        value = family_of(spec).powers(spec, margins)[1]["approx"](n, alpha).value
        g = lambda u: 1.0 - stats.nct.sf(-crit, f, -a_up(u)) - stats.nct.sf(-crit, f, b_low(u))
    return value, f_law_expectation(g, float(q), f2)


OUTER_CASES = [
    pytest.param(welch_case, (kind, *case), id=f"{kind}-r{case[0]:g}-g{case[1]}-n{case[2]}")
    for kind in ("moser", "ts_equiv_exact", "ts_equiv_approx")
    for case in WELCH_GRID
] + [
    pytest.param(ancova_case, (kind, *case), id=f"{kind}-q{case[0]}-n{case[1]}")
    for kind in ("ancova", "ancova_equiv_exact", "ancova_equiv_approx")
    for case in ANCOVA_GRID
]


class TestIntegrate:
    def test_linear(self):
        # the constant and W = f1 U / (f2 + f1 U) ~ Beta(f1/2, f2/2), linear in W
        f1, f2 = 4.0, 9.0
        assert abs(dist.integrate(np.ones_like, f1, f2) - 1.0) < 1e-11
        mean_w = dist.integrate(lambda u: f1 * u / (f2 + f1 * u), f1, f2)
        assert abs(mean_w - f1 / (f1 + f2)) < 1e-11

    @pytest.mark.parametrize("case, args", OUTER_CASES)
    def test_outer_integral_matches_quad(self, case, args):
        # the exact equivalence forms share the library's inner integral
        # (held to quad in test_equivalence), so this checks the outer rule
        value, oracle = case(*args)
        assert abs(value - oracle) < 1e-9

    def test_one_call_with_every_abscissa(self):
        shapes = []

        def fn(u):
            shapes.append(u.shape)
            return np.ones_like(u)

        dist.integrate(fn, 0.5, 3.0)
        assert shapes == [(224,)]

    @pytest.mark.parametrize("f1, f2", [(0.0, 5.0), (3.0, -1.0), (math.inf, 5.0), (3.0, math.nan)])
    def test_bad_df(self, f1, f2):
        with pytest.raises(DomainError):
            dist.integrate(np.ones_like, f1, f2)


class TestFindRoot:
    def test_sqrt2(self):
        root = dist.find_root(lambda x: x * x - 2.0, 0.0, 2.0, 1e-12)
        assert abs(root - math.sqrt(2.0)) < 1e-11

    def test_normal_quantile_root(self):
        root = dist.find_root(lambda x: special.ndtr(x) - 0.975, 0.0, 3.0, 1e-10)
        assert abs(root - Z_975) < 1e-9

    def test_no_sign_change(self):
        with pytest.raises(BracketError):
            dist.find_root(lambda x: x * x + 1.0, -1.0, 1.0, 1e-9)
        with pytest.raises(BracketError):
            dist.find_root(lambda x: x if x < 0.5 else math.nan, -1.0, 1.0, 1e-9)

    def test_endpoint_roots(self):
        assert dist.find_root(lambda x: x, 0.0, 1.0, 1e-9) == 0.0
        assert dist.find_root(lambda x: x - 1.0, 0.0, 1.0, 1e-9) == 1.0

    def test_iteration_cap_carries_estimate(self, monkeypatch):
        monkeypatch.setattr(dist, "_MAX_ROOT_ITER", 2)
        with pytest.raises(ConvergenceError) as err:
            dist.find_root(lambda x: x**3 - 2.0, 0.0, 2.0, 1e-14)
        assert 0.0 <= err.value.best_estimate <= 2.0

    def test_each_abscissa_evaluated_once(self):
        seen = []

        def fn(x):
            seen.append(x)
            return math.exp(x) - 3.0

        root = dist.find_root(fn, 0.0, 2.0, 1e-12)
        assert abs(root - math.log(3.0)) < 1e-11
        assert len(seen) == len(set(seen))


class TestProperties:
    @given(
        f=st.floats(min_value=1.0, max_value=60.0),
        lam=st.floats(min_value=0.0, max_value=5.0),
        c=st.floats(min_value=0.05, max_value=4.0),
    )
    @settings(max_examples=25, deadline=None)
    def test_t_f_identity(self, f, lam, c):
        lhs = dist._f_sf(c * c, f, lam * lam)
        rhs = (1.0 - dist.t_cdf(c, f, lam)) + dist.t_cdf(-c, f, lam)
        assert abs(lhs - rhs) < 1e-9

    @given(f=st.floats(min_value=0.8, max_value=200.0), lam=st.floats(min_value=-3.0, max_value=3.0))
    @settings(max_examples=20, deadline=None)
    def test_cdf_monotone_and_bounded(self, f, lam):
        grid = np.linspace(-6.0, 6.0, 25)
        vals = [dist.t_cdf(x, f, lam) for x in grid]
        assert all(0.0 <= v <= 1.0 for v in vals)
        assert all(b - a >= -1e-12 for a, b in zip(vals, vals[1:]))

    @given(f=st.floats(min_value=0.5, max_value=500.0), p=st.floats(min_value=0.001, max_value=0.999))
    @settings(max_examples=40, deadline=None)
    def test_t_quantile_round_trip(self, f, p):
        assert abs(dist.t_cdf(dist.t_quantile(p, f), f, 0.0) - p) < 1e-9

    def test_f_sf_monotone_grid(self):
        for lam_sq in (0.0, 2.0, 11.0):
            vals = [dist._f_sf(x, 14.0, lam_sq) for x in np.linspace(0.01, 8.0, 30)]
            assert all(0.0 <= v <= 1.0 for v in vals)
            assert all(b - a <= 1e-12 for a, b in zip(vals, vals[1:]))
