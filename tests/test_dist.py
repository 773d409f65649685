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

from trialsize import dist
from trialsize.errors import BracketError, ConvergenceError, DomainError

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
        assert dist.normal_cdf(0.0) == 0.5

    def test_upper_quantile_value(self):
        # oracle: 50-term erf series
        series = 0.5 + 0.5 * erf_series(1.959964 / math.sqrt(2.0))
        assert abs(dist.normal_cdf(1.959964) - series) < 5e-14
        assert abs(dist.normal_cdf(1.959964) - 0.975) < 1e-8

    def test_lower_tail_value(self):
        series = 0.5 + 0.5 * erf_series(-1.281552 / math.sqrt(2.0))
        assert abs(dist.normal_cdf(-1.281552) - series) < 5e-14
        assert abs(dist.normal_cdf(-1.281552) - 0.10) < 1e-6

    def test_saturation(self):
        assert dist.normal_cdf(-50.0) == 0.0
        assert dist.normal_cdf(50.0) == 1.0

    def test_quantile_median(self):
        assert dist.normal_quantile(0.5) == 0.0

    def test_quantile_vs_bisection(self):
        # oracle: bisection on normal_cdf
        root = bisect(lambda x: dist.normal_cdf(x) - 0.975, 0.0, 4.0)
        assert abs(dist.normal_quantile(0.975) - root) < 1e-9
        root = bisect(lambda x: dist.normal_cdf(x) - 0.9, 0.0, 4.0)
        assert abs(dist.normal_quantile(0.9) - root) < 1e-9

    @pytest.mark.parametrize("p", [0.0, 1.0, -0.2, 1.3])
    def test_quantile_domain(self, p):
        with pytest.raises(DomainError):
            dist.normal_quantile(p)

    def test_round_trip(self):
        for p in np.linspace(0.001, 0.999, 41):
            assert abs(dist.normal_cdf(dist.normal_quantile(p)) - p) < 1e-12


class TestTDistribution:
    def test_central_symmetry(self):
        assert abs(dist.t_cdf(0.0, 7.0) - 0.5) < 1e-15

    def test_large_df_normal_limit_noncentral(self):
        for x in (-1.0, 0.3, 2.5):
            assert abs(dist.t_cdf(x, 1e6, 2.0) - dist.normal_cdf(x - 2.0)) < 1e-4

    def test_large_df_normal_limit_central(self):
        for x in (-2.0, 0.0, 1.5):
            assert abs(dist.t_cdf(x, 1e7, 0.0) - dist.normal_cdf(x)) < 1e-5

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


class TestDensities:
    def test_scaled_chi2_mode(self):
        f = 10.0
        mode = (f - 2.0) / f
        grid = np.linspace(0.05, 3.0, 400)
        vals = [dist.scaled_chi2_density(x, f) for x in grid]
        assert abs(grid[int(np.argmax(vals))] - mode) < 0.01

    def test_scaled_chi2_normalizes(self):
        f = 7.0
        lo = dist._chi2_over_f_quantile(1e-12, f)
        hi = dist._chi2_over_f_quantile(1.0 - 1e-12, f)
        total = dist.integrate(
            lambda x: np.array([dist.scaled_chi2_density(v, f) for v in x]), lo, hi, 1e-9
        )
        assert abs(total - 1.0) < 1e-8

    def test_scaled_chi2_value(self):
        # oracle: log-gamma evaluation at 40-digit precision
        assert abs(dist.scaled_chi2_density(1.0, 10.0) - 0.8773368488392535) < 1e-13

    def test_scaled_chi2_zero_left(self):
        assert dist.scaled_chi2_density(0.0, 4.0) == 0.0
        assert dist.scaled_chi2_density(-1.0, 4.0) == 0.0

    def test_f_density_normalizes(self):
        f1, f2 = 4.0, 9.0
        lo = dist._f_quantile(1e-12, f1, f2)
        hi = dist._f_quantile(1.0 - 1e-12, f1, f2)
        total = dist.integrate(
            lambda x: np.array([dist.f_density(v, f1, f2) for v in x]), lo, hi, 1e-9
        )
        assert abs(total - 1.0) < 1e-8

    def test_f_density_median_symmetric(self):
        below = dist.integrate(
            lambda x: np.array([dist.f_density(v, 7.0, 7.0) for v in x]), 0.0, 1.0, 1e-13
        )
        assert abs(below - 0.5) < 1e-12

    def test_f_density_value(self):
        # oracle: log-gamma evaluation at 40-digit precision
        assert abs(dist.f_density(1.3, 4.0, 7.0) - 0.3149255992558021) < 1e-13

    def test_f_density_zero_left(self):
        assert dist.f_density(0.0, 3.0, 5.0) == 0.0


class TestIntegrate:
    def test_linear(self):
        assert abs(dist.integrate(lambda x: x, 0.0, 1.0, 1e-12) - 0.5) < 1e-12

    def test_against_fixed_grid_simpson(self):
        # equivalence-style integrand vs a dense composite-Simpson oracle
        f, crit, a_up, b_low = 8.0, 2.306, 4.2, -4.2

        def integrand(x):
            x = np.asarray(x, dtype=float)
            dens = np.array([dist.scaled_chi2_density(v, f) for v in x])
            from scipy.special import ndtr

            return (ndtr(a_up - crit * np.sqrt(x)) - ndtr(b_low + crit * np.sqrt(x))) * dens

        lo, hi = 1e-6, 3.3
        n = 20001
        xs = np.linspace(lo, hi, n)
        ys = integrand(xs)
        h = (hi - lo) / (n - 1)
        simpson = h / 3.0 * (ys[0] + ys[-1] + 4.0 * ys[1:-1:2].sum() + 2.0 * ys[2:-1:2].sum())
        val = dist.integrate(integrand, lo, hi, 1e-10)
        assert abs(val - simpson) < 1e-8

    def test_matrix_integrand(self):
        val = dist.integrate(lambda x: np.column_stack([x, x * x]), 0.0, 1.0, 1e-12)
        assert np.allclose(val, [0.5, 1.0 / 3.0], atol=1e-11)

    def test_nonconvergence_returns_best_estimate(self):
        fn = lambda x: np.sin(1e6 * x)
        with pytest.raises(ConvergenceError) as err:
            dist.integrate(fn, 0.0, 1.0, 1e-14)
        assert math.isfinite(err.value.best_estimate)

    def test_bad_interval(self):
        with pytest.raises(DomainError):
            dist.integrate(lambda x: x, 1.0, 0.0, 1e-8)


class TestFindRoot:
    def test_sqrt2(self):
        root = dist.find_root(lambda x: x * x - 2.0, 0.0, 2.0, 1e-12)
        assert abs(root - math.sqrt(2.0)) < 1e-11

    def test_normal_quantile_root(self):
        root = dist.find_root(lambda x: dist.normal_cdf(x) - 0.975, 0.0, 3.0, 1e-10)
        assert abs(root - Z_975) < 1e-9

    def test_no_sign_change(self):
        with pytest.raises(BracketError):
            dist.find_root(lambda x: x * x + 1.0, -1.0, 1.0, 1e-9)
        with pytest.raises(BracketError):
            dist.find_root(lambda x: x if x < 0.5 else math.nan, -1.0, 1.0, 1e-9)

    def test_endpoint_roots(self):
        assert dist.find_root(lambda x: x, 0.0, 1.0, 1e-9) == 0.0
        assert dist.find_root(lambda x: x - 1.0, 0.0, 1.0, 1e-9) == 1.0

    def test_iteration_cap_carries_estimate(self):
        capped = dist.NumericSettings(max_root_iter=2)
        with pytest.raises(ConvergenceError) as err:
            dist.find_root(lambda x: x**3 - 2.0, 0.0, 2.0, 1e-14, capped)
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
