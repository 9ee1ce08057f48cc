import dataclasses

import numpy as np
import pytest
from scipy.integrate import quad

from rmquant import (CevParams, GbmParams, cev_model, gbm_exact_marginal,
                     sde_models)

from conftest import CEV, CEV_LOW_ALPHA, GBM, assert_derivative

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


class TestCevTransition:
    """The exact CEV law of ``cev_transition``: its means, its quantile and
    where it exists."""

    def test_paper_reflected_mean(self):
        # reflection at zero lifts the mean 3.5e-5 above the forward
        law = sde_models.cev_transition(CEV_LOW_ALPHA, 1.0, "reflecting")
        assert law.mean(CEV_LOW_ALPHA.s0) == pytest.approx(0.5256708816,
                                                            abs=1e-9)

    @pytest.mark.parametrize("params", [
        CEV_LOW_ALPHA, CEV, dataclasses.replace(CEV_LOW_ALPHA, r=0.0),
        dataclasses.replace(CEV, r=-0.03)], ids=["low-alpha", "paper",
                                                 "r-zero", "r-negative"])
    def test_absorbed_mean_is_the_forward(self, params):
        # absorbed at zero, the discounted state is a martingale
        law = sde_models.cev_transition(params, 1.0, "absorbing")
        assert law.mean(params.s0) == pytest.approx(
            params.s0 * np.exp(params.r), rel=1e-10)

    @pytest.mark.parametrize("boundary", ["absorbing", "reflecting"])
    def test_quantile_inverts_the_survival_function(self, boundary):
        law = sde_models.cev_transition(CEV_LOW_ALPHA, 0.5, boundary)
        s = np.array([0.05, 0.5, 2.0])[:, None]
        u = np.linspace(0.01, 0.99, 99)
        atom = 1.0 - law.sf(s, 0.0)
        x = law.quantile(s, u)
        assert x.shape == (3, 99) and np.all(np.diff(x, axis=1) >= 0.0)
        live = u > atom
        assert np.all((x > 0.0) == live)
        assert np.allclose(law.sf(s, x)[live],
                           np.broadcast_to(1.0 - u, x.shape)[live],
                           rtol=0.0, atol=1e-9)
        if boundary == "absorbing":
            # the atom at zero: Q(nu/2, x) of the state's x
            assert atom[0, 0] > 0.1 and 0.0 < atom[1, 0] < 0.01
        else:
            assert np.all(atom == 0.0)

    @pytest.mark.parametrize("params, t, boundary", [
        (CEV, 0.01, "absorbing"), (dataclasses.replace(CEV, alpha=0.95), 1.0,
                                   "absorbing"),
        (CEV_LOW_ALPHA, 0.001, "absorbing"),
        (CEV_LOW_ALPHA, 0.001, "reflecting")],
        ids=["short-step", "alpha-near-one", "low-alpha-absorbing",
             "low-alpha-reflecting"])
    def test_quantile_at_large_noncentrality(self, params, t, boundary):
        # 2x from 4.5e3 to 1.2e4, where the zero atom underflows: the lowest
        # uniform a Monte Carlo step reads, 2^-54, gives a state in the
        # lower tail, not 0
        law = sde_models.cev_transition(params, t, boundary)
        assert law.noncentrality(params.s0) > 4000.0
        u = np.linspace(0.01, 0.99, 99)
        x = law.quantile(params.s0, u)
        assert np.allclose(law.sf(params.s0, x), 1.0 - u, rtol=0.0, atol=1e-9)
        low = law.quantile(params.s0, [2.0 ** -54, 1e-15, 1e-12])
        assert 0.0 < low[0] <= low[1] < low[2] < x[0]

    def test_quantile_without_a_root_is_refused(self, monkeypatch):
        monkeypatch.setattr(sde_models, "chndtrinc",
                            lambda x, df, p: np.full(np.shape(p), np.nan))
        law = sde_models.cev_transition(CEV, 1.0, "absorbing")
        with pytest.raises(FloatingPointError, match="no quantile"):
            law.quantile(CEV.s0, [0.25, 0.5])

    def test_absorbed_state_stays_at_zero(self):
        law = sde_models.cev_transition(CEV, 0.1, "absorbing")
        assert np.all(law.quantile(0.0, [1e-9, 0.5, 1.0 - 1e-9]) == 0.0)

    @pytest.mark.parametrize("params, boundary, exists", [
        (CEV_LOW_ALPHA, "absorbing", True), (CEV_LOW_ALPHA, "reflecting", True),
        (CEV, "absorbing", True), (CEV, "reflecting", False),
        (dataclasses.replace(CEV, alpha=0.5), "reflecting", False),
        (CEV_LOW_ALPHA, "free", False)])
    def test_exists_absorbed_or_reflected_below_one_half(self, params,
                                                         boundary, exists):
        assert sde_models.cev_law_exists(params.alpha, boundary) == exists
        if exists:
            sde_models.cev_transition(params, 1.0, boundary)
        else:
            with pytest.raises(ValueError, match="no exact transition"):
                sde_models.cev_transition(params, 1.0, boundary)

    def test_refuses_nonpositive_time(self):
        with pytest.raises(ValueError, match="t must be positive"):
            sde_models.cev_transition(CEV, 0.0, "absorbing")


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
