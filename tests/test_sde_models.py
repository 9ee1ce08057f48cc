import numpy as np
import pytest
from scipy.integrate import quad

from rmquant import (CevParams, GbmParams, cev_model, gbm_exact_marginal,
                     sde_models)

from conftest import CEV, GBM, assert_derivative

CEV_SIGMA = 1.1943215116604918          # 0.3 * 100**0.3
CEV_SIGMA_LOW_ALPHA = 0.31864015682981554  # 0.5 * 0.5**0.65
GBM_MEAN_1Y = 105.12710963760241


def check_coefficient_derivatives(model, points):
    assert_derivative(model.a, model.a_x, points, rtol=1e-6)
    assert_derivative(model.b, model.b_x, points, rtol=1e-6)
    assert_derivative(model.a_x, model.a_xx, points, rtol=1e-6, floor=1e-6)
    assert_derivative(model.b_x, model.b_xx, points, rtol=1e-6, floor=1e-6)


class TestGbm:
    def test_coefficients(self, gbm):
        assert gbm.a(100.0) == pytest.approx(5.0)
        assert gbm.b(100.0) == pytest.approx(30.0)
        assert np.all(gbm.b_x(np.array([1.0, 50.0, 500.0])) == 0.3)
        assert np.all(gbm.a_xx(np.array([1.0, 50.0])) == 0.0)
        assert np.all(gbm.b_xx(np.array([1.0, 50.0])) == 0.0)

    def test_derivatives(self, gbm):
        rng = np.random.default_rng(5)
        check_coefficient_derivatives(gbm, rng.uniform(10.0, 300.0, 100))

    def test_param_validation(self):
        with pytest.raises(ValueError):
            GbmParams(s0=-1.0, r=0.05, sigma=0.3)
        with pytest.raises(ValueError):
            GbmParams(s0=100.0, r=0.05, sigma=0.0)

    @pytest.mark.parametrize("field", ["s0", "r", "sigma"])
    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_fields_refused(self, field, value):
        fields = {"s0": 100.0, "r": 0.05, "sigma": 0.3, field: value}
        with pytest.raises(ValueError, match=f"{field} must be finite"):
            GbmParams(**fields)


class TestCev:
    def test_sigma_construction(self):
        assert CEV.sigma == pytest.approx(CEV_SIGMA, rel=1e-14)
        low = CevParams(s0=0.5, r=0.05, alpha=0.35, sigma_ln=0.5)
        assert low.sigma == pytest.approx(CEV_SIGMA_LOW_ALPHA, rel=1e-14)

    def test_local_vol_at_spot(self, cev):
        # by construction b(s0) = sigma_ln * s0
        assert cev.b(100.0) == pytest.approx(0.3 * 100.0, rel=1e-14)

    def test_derivatives(self, cev):
        rng = np.random.default_rng(6)
        check_coefficient_derivatives(cev, rng.uniform(20.0, 250.0, 100))

    def test_rejects_nonpositive_states(self, cev):
        for bad in (0.0, -3.0, np.array([50.0, -0.1])):
            with pytest.raises(ValueError):
                cev.b(bad)
        with pytest.raises(ValueError):
            cev.b_xx(np.array([0.0]))

    def test_param_validation(self):
        with pytest.raises(ValueError):
            CevParams(s0=100.0, r=0.05, alpha=1.0, sigma_ln=0.3)
        with pytest.raises(ValueError):
            CevParams(s0=100.0, r=0.05, alpha=0.0, sigma_ln=0.3)

    @pytest.mark.parametrize("field", ["s0", "r", "sigma_ln"])
    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_fields_refused(self, field, value):
        fields = {"s0": 100.0, "r": 0.05, "alpha": 0.7, "sigma_ln": 0.3,
                  field: value}
        with pytest.raises(ValueError, match=f"{field} must be finite"):
            CevParams(**fields)

    def test_alpha_near_one_approaches_gbm(self, gbm):
        near = cev_model(CevParams(s0=100.0, r=0.05, alpha=0.999,
                                   sigma_ln=0.3))
        x = np.linspace(50.0, 150.0, 25)
        for fn in ("b", "b_x", "b_xx"):
            got = getattr(near, fn)(x)
            want = getattr(gbm, fn)(x)
            # GBM's b_xx is identically zero; floor the scale so the
            # nearly-zero CEV value compares absolutely there
            scale = np.maximum(np.abs(want), 1e-3)
            assert np.max(np.abs(got - want) / scale) < 1e-2


class TestGbmExactMarginal:
    def test_median_and_mean(self):
        d = gbm_exact_marginal(GBM, 1.0)
        median = 100.0 * np.exp(0.05 - 0.5 * 0.09)
        assert d.cdf(median) == pytest.approx(0.5, abs=1e-13)
        assert d.m1(np.inf) == pytest.approx(GBM_MEAN_1Y, rel=1e-13)

    def test_limits_and_support(self):
        d = gbm_exact_marginal(GBM, 0.5)
        assert d.cdf(np.inf) == 1.0
        assert d.cdf(0.0) == 0.0
        assert d.cdf(-5.0) == 0.0
        assert d.pdf(-5.0) == 0.0

    def test_derivative_consistency(self):
        d = gbm_exact_marginal(GBM, 1.0)
        rng = np.random.default_rng(8)
        pts = rng.uniform(40.0, 260.0, 150)
        assert_derivative(d.cdf, d.pdf, pts)
        assert_derivative(d.m1, lambda x: x * d.pdf(x), pts)

    def test_second_moment_matches_quadrature(self):
        d = gbm_exact_marginal(GBM, 1.0)
        ref = sum(quad(lambda t: t * t * d.pdf(t), a, b, limit=200)[0]
                  for a, b in ((0.0, 100.0), (100.0, np.inf)))
        assert d.second_moment == pytest.approx(ref, rel=1e-9)

    def test_rejects_nonpositive_time(self):
        with pytest.raises(ValueError):
            gbm_exact_marginal(GBM, 0.0)


def floored_reference(x):
    """The CEV floor as a full compare, any and maximum."""
    x = np.asarray(x, dtype=float)
    if np.any(x <= 0.0):
        raise ValueError("x <= 0")
    return np.maximum(x, sde_models._CEV_EVAL_FLOOR)


class TestCevPositive:
    """``_cev_positive`` guards every CEV coefficient: states <= 0 are
    refused, tiny ones floored, and everything else passes through."""

    @pytest.mark.parametrize("bad", [0.0, -0.0, -3.0, [50.0, -0.1],
                                     [2.0, 0.0, 7.0], [np.nan, 0.0],
                                     [-np.inf, 1.0]],
                             ids=["zero", "minus-zero", "negative",
                                  "one-negative", "one-zero", "nan-and-zero",
                                  "minus-inf"])
    def test_refuses_nonpositive_states(self, bad):
        with pytest.raises(sde_models.CoefficientDomainError):
            sde_models._cev_positive(bad)

    @pytest.mark.parametrize("x", [
        [3.0, 1e-12, 0.25], [1e-300, 5e-13, 2.0], [np.nan, 1.0], [np.nan],
        [np.inf, 1e-20], 7.5, 1e-15, np.float64(2.0), []],
        ids=["above-floor", "below-floor", "nan", "all-nan", "inf",
             "scalar", "scalar-below-floor", "numpy-scalar", "empty"])
    def test_floors_as_a_full_check(self, x):
        got = sde_models._cev_positive(x)
        want = floored_reference(x)
        assert got.shape == want.shape and got.dtype == np.float64
        assert np.array_equal(got, want, equal_nan=True)

    def test_coefficients_at_nan_and_below_floor(self, cev):
        floor = sde_models._CEV_EVAL_FLOOR
        assert cev.b(1e-15) == cev.b(floor)
        assert np.isnan(cev.b(np.array([np.nan, 1.0]))[0])
        assert cev.b_x(np.array([])).shape == (0,)
