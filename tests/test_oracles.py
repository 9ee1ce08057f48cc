import numpy as np
import pytest

from rmquant import (FdConfig, McConfig, SdeModel, VanillaPayoff,
                     BarrierSpec, black_scholes, cn_bermudan, empirical_cdf,
                     gbm_exact_marginal, gbm_model, mc_price)
from rmquant.oracles import path_normals, simulate_terminal

from conftest import CEV_LOW_ALPHA, GBM

BS_PUT_ATM = 9.354197236057231  # put, s0=K=100, r=5%, sigma=30%, T=1


class TestBlackScholes:
    def test_frozen_atm_put(self):
        assert black_scholes("put", 100.0, 100.0, 0.05, 0.3, 1.0) == \
            pytest.approx(BS_PUT_ATM, rel=1e-13)

    def test_put_call_parity(self):
        c = black_scholes("call", 100.0, 90.0, 0.05, 0.3, 1.0)
        p = black_scholes("put", 100.0, 90.0, 0.05, 0.3, 1.0)
        assert c - p == pytest.approx(100.0 - 90.0 * np.exp(-0.05), abs=1e-12)

    def test_vanishing_vol_limit(self):
        for s0, k in ((100.0, 100.0), (80.0, 100.0), (120.0, 100.0)):
            limit = max(k * np.exp(-0.05) - s0, 0.0)
            assert black_scholes("put", s0, k, 0.05, 1e-9, 1.0) == \
                pytest.approx(limit, abs=1e-9)

    def test_validation(self):
        with pytest.raises(ValueError):
            black_scholes("straddle", 100, 100, 0.05, 0.3, 1.0)
        with pytest.raises(ValueError):
            black_scholes("put", -1.0, 100, 0.05, 0.3, 1.0)


class TestPathStreams:
    def test_deterministic(self):
        a = path_normals(42, 0, 100, 12)
        b = path_normals(42, 0, 100, 12)
        assert np.array_equal(a, b)

    def test_prefix_invariance(self):
        # growing the path count must not reshuffle earlier paths
        full = path_normals(7, 0, 1000, 10)
        tail = path_normals(7, 600, 400, 10)
        assert np.array_equal(full[600:], tail)

    def test_chunking_invariance(self):
        cfg_small = McConfig(paths=300, steps=8, seed=3)
        one = simulate_terminal(gbm_model(GBM), 100.0, 1.0, cfg_small)
        parts = [simulate_terminal(gbm_model(GBM), 100.0, 1.0,
                                   McConfig(paths=300, steps=8, seed=3))]
        assert np.array_equal(one, parts[0])


class TestMcPrice:
    def test_determinism(self, gbm):
        cfg = McConfig(paths=20_000, steps=12, seed=11)
        a = mc_price(gbm, 100.0, 1.0, 0.05, "european",
                     VanillaPayoff("put", 100.0), cfg, stepping="gbm_exact")
        b = mc_price(gbm, 100.0, 1.0, 0.05, "european",
                     VanillaPayoff("put", 100.0), cfg, stepping="gbm_exact")
        assert a == b

    def test_european_put_consistent_with_black_scholes(self, gbm):
        cfg = McConfig(paths=1_000_000, steps=12, seed=5150)
        price, se = mc_price(gbm, 100.0, 1.0, 0.05, "european",
                             VanillaPayoff("put", 100.0), cfg,
                             stepping="gbm_exact")
        assert abs(price - BS_PUT_ATM) < 3.0 * se
        assert se < 0.02

    def test_zero_volatility_is_deterministic(self):
        flat = SdeModel(
            a=lambda x: 0.05 * np.asarray(x, float),
            a_x=lambda x: np.full_like(np.asarray(x, float), 0.05),
            a_xx=lambda x: np.zeros_like(np.asarray(x, float)),
            b=lambda x: np.zeros_like(np.asarray(x, float)),
            b_x=lambda x: np.zeros_like(np.asarray(x, float)),
            b_xx=lambda x: np.zeros_like(np.asarray(x, float)),
            state_domain=(0.0, np.inf))
        steps = 50
        cfg = McConfig(paths=100, steps=steps, seed=1)
        price, se = mc_price(flat, 100.0, 1.0, 0.05, "european",
                             VanillaPayoff("call", 90.0), cfg)
        terminal = 100.0 * (1.0 + 0.05 / steps) ** steps
        assert price == pytest.approx(np.exp(-0.05) * (terminal - 90.0),
                                      rel=1e-12)
        assert se == 0.0

    def test_standard_error_scaling(self, gbm):
        payoff = VanillaPayoff("put", 100.0)
        _, se_small = mc_price(gbm, 100.0, 1.0, 0.05, "european", payoff,
                               McConfig(paths=10_000, steps=12, seed=2),
                               stepping="gbm_exact")
        _, se_big = mc_price(gbm, 100.0, 1.0, 0.05, "european", payoff,
                             McConfig(paths=1_000_000, steps=12, seed=2),
                             stepping="gbm_exact")
        assert 8.0 <= se_small / se_big <= 12.0

    def test_barrier_with_huge_level_matches_european(self, gbm):
        payoff = VanillaPayoff("put", 100.0)
        cfg = McConfig(paths=50_000, steps=24, seed=9, monitoring_stride=2)
        eu, _ = mc_price(gbm, 100.0, 1.0, 0.05, "european", payoff, cfg)
        ba, _ = mc_price(gbm, 100.0, 1.0, 0.05, BarrierSpec(level=1e9),
                         payoff, cfg)
        assert ba == pytest.approx(eu, abs=1e-12)

    def test_cev_boundary_paths_stay_valid(self, cev_low_alpha):
        cfg = McConfig(paths=20_000, steps=120, seed=4)
        for boundary in ("absorbing", "reflecting"):
            term = simulate_terminal(cev_low_alpha, CEV_LOW_ALPHA.s0, 1.0,
                                     cfg, boundary)
            assert np.all(np.isfinite(term))
            assert np.all(term >= 0.0)
        # absorbing traps some mass at exactly zero for this parameter set
        term = simulate_terminal(cev_low_alpha, CEV_LOW_ALPHA.s0, 1.0, cfg,
                                 "absorbing")
        assert np.mean(term == 0.0) > 0.0

    def test_config_validation(self):
        with pytest.raises(ValueError):
            McConfig(paths=0, steps=10, seed=1)
        with pytest.raises(ValueError):
            McConfig(paths=10, steps=10, seed=1, monitoring_stride=3)


class TestCrankNicolson:
    CFG = FdConfig(time_steps=600, space_steps=800, s_max_mult=4.0)

    def test_european_matches_black_scholes(self, gbm):
        got = cn_bermudan(gbm, 100.0, 1.0, 0.05, VanillaPayoff("put", 100.0),
                          [], self.CFG)
        assert got == pytest.approx(BS_PUT_ATM, abs=1e-2)

    def test_near_expiry_value_is_intrinsic(self, gbm):
        got = cn_bermudan(gbm, 100.0, 1e-9, 0.05, VanillaPayoff("put", 120.0),
                          [], self.CFG)
        assert got == pytest.approx(20.0, abs=1e-6)

    def test_bermudan_dominates_european(self, gbm):
        payoff = VanillaPayoff("put", 100.0)
        dates = [k / 12.0 for k in range(1, 12)]
        berm = cn_bermudan(gbm, 100.0, 1.0, 0.05, payoff, dates, self.CFG)
        euro = cn_bermudan(gbm, 100.0, 1.0, 0.05, payoff, [], self.CFG)
        assert berm >= euro
        assert berm >= BS_PUT_ATM

    def test_cev_bermudan_runs(self, cev):
        payoff = VanillaPayoff("put", 100.0)
        dates = [k / 12.0 for k in range(1, 12)]
        berm = cn_bermudan(cev, 100.0, 1.0, 0.05, payoff, dates, self.CFG)
        assert 5.0 < berm < 20.0

    def test_coarse_grid_warns(self, gbm):
        with pytest.warns(UserWarning, match="coarse"):
            cn_bermudan(gbm, 100.0, 1.0, 0.05, VanillaPayoff("put", 100.0),
                        [], FdConfig(time_steps=10, space_steps=120))

    def test_bad_exercise_dates_rejected(self, gbm):
        with pytest.raises(ValueError):
            cn_bermudan(gbm, 100.0, 1.0, 0.05, VanillaPayoff("put", 100.0),
                        [-0.5], self.CFG)


def test_oracles_do_not_share_engine_kernels():
    # references must stay independent of the quantization code path;
    # only the normal cdf and the shared data types are allowed
    import inspect

    import rmquant.oracles as mod
    src = inspect.getsource(mod)
    for forbidden in ("rmq_engine", "vq1d", "affine_schemes", "_newton"):
        assert forbidden not in src


class TestEmpiricalCdf:
    def test_zero_samples_rejected(self, gbm):
        with pytest.raises(ValueError):
            empirical_cdf(gbm, 100.0, 1.0, 0, seed=1)

    def test_deterministic(self, gbm):
        a = empirical_cdf(gbm, 100.0, 1.0, 5000, seed=3, steps=12,
                          stepping="gbm_exact")
        b = empirical_cdf(gbm, 100.0, 1.0, 5000, seed=3, steps=12,
                          stepping="gbm_exact")
        x = np.linspace(40.0, 250.0, 50)
        assert np.array_equal(a.cdf(x), b.cdf(x))

    def test_ks_distance_against_exact_marginal(self, gbm):
        n = 1_000_000
        emp = empirical_cdf(gbm, 100.0, 1.0, n, seed=77, steps=12,
                            stepping="gbm_exact")
        exact = gbm_exact_marginal(GBM, 1.0)
        x = np.linspace(20.0, 400.0, 4000)
        ks = np.max(np.abs(emp.cdf(x) - exact.cdf(x)))
        assert ks < 1.63 / np.sqrt(n)  # 1% level

    def test_m1_prefix_sums(self, gbm):
        emp = empirical_cdf(gbm, 100.0, 1.0, 2000, seed=9, steps=12,
                            stepping="gbm_exact")
        # m1(inf) is the sample mean
        assert emp.m1(np.inf) == pytest.approx(
            emp.m1(1e12), abs=1e-9)
        assert emp.cdf(-1.0) == 0.0 and emp.cdf(np.inf) == 1.0
