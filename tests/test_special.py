"""Checks for digamma, the Beta/Gamma expectation helpers and Dirichlet geometric rows."""

import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from scvihmm.special import (
    BetaParams,
    GammaParams,
    beta_expect_logs,
    digamma,
    dirichlet_geo_rows,
    gamma_expect,
    gamma_geo_expect,
)

mpmath.mp.dps = 40

EULER_MASCHERONI = 0.57721566490153286060


def reference_digamma(x):
    return float(mpmath.digamma(mpmath.mpf(x)))


class TestDigamma:
    def test_at_one(self):
        assert abs(digamma(1.0) - (-EULER_MASCHERONI)) < 1e-12

    def test_at_two_via_recurrence(self):
        # psi(2) = psi(1) + 1
        assert abs(digamma(2.0) - (-EULER_MASCHERONI + 1.0)) < 1e-12

    def test_at_half_via_duplication(self):
        # psi(1/2) = psi(1) - 2 ln 2
        expected = -EULER_MASCHERONI - 2.0 * math.log(2.0)
        assert abs(digamma(0.5) - expected) < 1e-12

    def test_absolute_accuracy_where_representable(self):
        # Below x ~ 4e-3 the value itself exceeds ~250 and float64 ulp of
        # the result approaches the 1e-12 budget, so the absolute bound is
        # checked on [4e-3, inf) and a relative bound covers the rest.
        rng = np.random.default_rng(7)
        xs = np.concatenate(
            [
                10 ** rng.uniform(math.log10(4e-3), 6, 3000),
                np.linspace(4e-3, 12.0, 500),
            ]
        )
        for x in xs:
            assert abs(digamma(float(x)) - reference_digamma(float(x))) < 1e-12

    def test_relative_accuracy_for_tiny_arguments(self):
        rng = np.random.default_rng(8)
        xs = 10 ** rng.uniform(-6, math.log10(4e-3), 500)
        for x in xs:
            ref = reference_digamma(float(x))
            assert abs(digamma(float(x)) - ref) < 1e-14 * abs(ref)

    def test_vectorized_matches_scalar(self):
        xs = np.array([1e-5, 0.3, 1.0, 2.5, 6.9, 7.0, 123.4])
        out = digamma(xs)
        assert out.shape == xs.shape
        for x, y in zip(xs, out):
            assert y == digamma(float(x))

    @pytest.mark.parametrize("bad", [0.0, -1.0, math.nan, math.inf, -math.inf])
    def test_domain_errors(self, bad):
        with pytest.raises(ValueError):
            digamma(bad)

    def test_domain_error_in_array(self):
        with pytest.raises(ValueError):
            digamma(np.array([1.0, -2.0]))

    @settings(max_examples=200, deadline=None)
    @given(st.floats(min_value=0.1, max_value=1e6))
    def test_recurrence_property(self, x):
        # psi(x+1) - psi(x) = 1/x
        assert abs((digamma(x + 1.0) - digamma(x)) - 1.0 / x) < 1e-10


class TestBetaExpectations:
    def test_uniform_sticks(self):
        logs = beta_expect_logs(BetaParams(1.0, 1.0))
        assert abs(logs[0] - (-1.0)) < 1e-12
        assert abs(logs[1] - (-1.0)) < 1e-12

    def test_two_one(self):
        logs = beta_expect_logs(BetaParams(2.0, 1.0))
        assert abs(logs[0] - (-0.5)) < 1e-12
        assert abs(logs[1] - (-1.5)) < 1e-12

    def test_three_two_closed_form(self):
        # psi(3)-psi(5) = -(1/3+1/4), psi(2)-psi(5) = -(1/2+1/3+1/4)
        logs = beta_expect_logs(BetaParams(3.0, 2.0))
        assert abs(logs[0] - (-7.0 / 12.0)) < 1e-12
        assert abs(logs[1] - (-13.0 / 12.0)) < 1e-12

    def test_three_two_against_monte_carlo(self):
        rng = np.random.default_rng(123)
        draws = rng.beta(3.0, 2.0, size=2_000_000)
        logs = beta_expect_logs(BetaParams(3.0, 2.0))
        assert abs(logs[0] - np.mean(np.log(draws))) < 2e-3
        assert abs(logs[1] - np.mean(np.log1p(-draws))) < 2e-3

    @settings(max_examples=200, deadline=None)
    @given(
        st.floats(min_value=1e-2, max_value=1e4),
        st.floats(min_value=1e-2, max_value=1e4),
    )
    def test_negative_and_swap_symmetric(self, u, v):
        e_log, e_log1m = beta_expect_logs(BetaParams(u, v))
        assert e_log < 0.0
        assert e_log1m < 0.0
        swapped = beta_expect_logs(BetaParams(v, u))
        assert swapped == (e_log1m, e_log)

    def test_vectorized(self):
        p = BetaParams(np.array([1.0, 2.0]), np.array([1.0, 1.0]))
        e_log, e_log1m = beta_expect_logs(p)
        np.testing.assert_allclose(e_log, [-1.0, -0.5], atol=1e-12)
        np.testing.assert_allclose(e_log1m, [-1.0, -1.5], atol=1e-12)

    @pytest.mark.parametrize(
        "u,v", [(0.0, 1.0), (1.0, -1.0), (math.nan, 1.0), (np.ones(3), np.ones(4))]
    )
    def test_invalid_params(self, u, v):
        with pytest.raises(ValueError):
            BetaParams(u, v)

    def test_params_held_as_float64_arrays(self):
        p = BetaParams([1, 2], (3, 4))
        assert p.u.dtype == p.v.dtype == np.float64 and p.u.shape == p.v.shape == (2,)


class TestGammaExpectations:
    def test_mean_examples(self):
        assert gamma_expect(GammaParams(2.0, 4.0)) == 0.5
        assert gamma_expect(GammaParams(1.0, 0.1)) == 10.0
        assert gamma_expect(GammaParams(5.0, 5.0)) == 1.0

    def test_geometric_at_one_one(self):
        assert abs(gamma_geo_expect(GammaParams(1.0, 1.0)) - math.exp(-EULER_MASCHERONI)) < 1e-12

    def test_geometric_at_two_one(self):
        assert abs(gamma_geo_expect(GammaParams(2.0, 1.0)) - math.exp(1.0 - EULER_MASCHERONI)) < 1e-12

    def test_geometric_concentration_limit(self):
        values = [gamma_geo_expect(GammaParams(a, a)) for a in (10.0, 100.0, 1000.0)]
        assert all(v < 1.0 for v in values)
        assert values[0] < values[1] < values[2]

    @settings(max_examples=200, deadline=None)
    @given(
        st.floats(min_value=1e-2, max_value=1e5),
        st.floats(min_value=1e-3, max_value=1e5),
    )
    def test_geometric_below_arithmetic(self, a, b):
        p = GammaParams(a, b)
        assert gamma_geo_expect(p) < gamma_expect(p)

    @pytest.mark.parametrize("a,b", [(0.0, 1.0), (1.0, 0.0), (-2.0, 1.0), (np.nan, 1.0), (1.0, np.inf)])
    def test_invalid_params(self, a, b):
        with pytest.raises(ValueError):
            GammaParams(a, b)

    def test_params_held_as_floats(self):
        p = GammaParams(np.float64(2.0), 4)
        assert (type(p.a), type(p.b)) == (float, float)


class TestGeometricProductRule:
    def test_log_composition_matches_product(self):
        # Composite geometric expectations are products of per-factor
        # geometric expectations; composing in log space must agree with
        # composing by multiplication.
        rng = np.random.default_rng(42)
        for _ in range(300):
            a, b = rng.uniform(0.1, 20.0, size=2)
            u, v = rng.uniform(0.1, 20.0, size=2)
            geo_gamma = gamma_geo_expect(GammaParams(a, b))
            e_log_x, _ = beta_expect_logs(BetaParams(u, v))
            via_product = geo_gamma * math.exp(e_log_x)
            via_logs = math.exp(math.log(geo_gamma) + e_log_x)
            assert abs(via_product - via_logs) <= 1e-12 * max(1.0, abs(via_product))


class TestDirichletGeoRows:
    @pytest.mark.parametrize("c", [0.5, 1.0, 7.0])
    def test_symmetric_rows_are_uniform(self, c):
        np.testing.assert_allclose(dirichlet_geo_rows(np.full((4, 3), c)), 1 / 3, atol=1e-12)
        np.testing.assert_allclose(dirichlet_geo_rows(np.full((3, 5), c)), 1 / 5, atol=1e-12)

    def test_two_to_one_row(self):
        # weights exp(psi(2)), exp(psi(1)) over common denominator
        # renormalize to e/(e+1), 1/(e+1)
        rows = dirichlet_geo_rows(np.array([[2.0, 1.0]]))
        e = math.e
        np.testing.assert_allclose(rows[0], [e / (e + 1), 1 / (e + 1)], atol=1e-12)

    def test_rows_positive_and_normalized(self):
        rng = np.random.default_rng(0)
        for shape in ((5, 4), (4, 6)):
            rows = dirichlet_geo_rows(rng.gamma(2.0, size=shape))
            assert np.all(rows > 0)
            np.testing.assert_allclose(rows.sum(axis=1), 1.0, atol=1e-12)
