import contextlib
import dataclasses
import threading
import time
import tracemalloc

import numpy as np
import pytest
from numpy.random import Generator, Philox
from scipy.linalg import LinAlgError, solve_banded
from scipy.special import ndtri

import rmquant.oracles
from rmquant import (FdConfig, McConfig, SdeModel, VanillaPayoff, _pool,
                     black_scholes, cn_bermudan, empirical_cdf,
                     gbm_exact_marginal)
from rmquant.oracles import mc_estimate, path_normals, simulate_terminal

from conftest import CEV_LOW_ALPHA, GBM

BS_PUT_ATM = 9.354197236057231  # put, s0=K=100, r=5%, sigma=30%, T=1


def linear_model(drift, vol):
    """dS = drift S dt + vol dW: linear drift, constant diffusion."""
    return SdeModel(
        a=lambda x: drift * np.asarray(x, float),
        a_x=lambda x: np.full_like(np.asarray(x, float), drift),
        a_xx=lambda x: np.zeros_like(np.asarray(x, float)),
        b=lambda x: np.full_like(np.asarray(x, float), vol),
        b_x=lambda x: np.zeros_like(np.asarray(x, float)),
        b_xx=lambda x: np.zeros_like(np.asarray(x, float)),
        state_domain=(0.0, np.inf))


def unchecked_put(strike):
    """A put whose strike skips VanillaPayoff's finiteness check, so that
    the oracle's own checks meet a non-finite payoff."""
    payoff = VanillaPayoff("put", 0.0)
    object.__setattr__(payoff, "strike", strike)
    return payoff


def plain_paths(model, s0, cfg, boundary, stepping):
    """Terminal states and running maxima over T = 1 from a plain loop of
    whole-array steps, the reference for ``simulate_terminal``."""
    z = path_normals(cfg.seed, 0, cfg.paths, cfg.steps)
    dt = 1.0 / cfg.steps
    sq = np.sqrt(dt)
    if stepping == "gbm_exact":
        p = model.params
        loc = (p.r - 0.5 * p.sigma ** 2) * dt
        scale = p.sigma * sq
    s = np.full(cfg.paths, s0)
    want_max = s.copy()
    dead = np.zeros(cfg.paths, dtype=bool)
    for j in range(cfg.steps):
        if stepping == "gbm_exact":
            s = s * np.exp(loc + scale * z[:, j])
        elif boundary == "absorbing":
            s_eval = np.where(dead, 1.0, s)
            step = model.a(s_eval) * dt + model.b(s_eval) * sq * z[:, j]
            s_new = np.where(dead, 0.0, s + step)
            dead = dead | (s_new <= 0.0)
            s = np.where(dead, 0.0, s_new)
        else:
            s = s + (model.a(s) * dt + model.b(s) * sq * z[:, j])
            if boundary == "reflecting":
                s = np.abs(s)
        if (j + 1) % cfg.monitoring_stride == 0:
            want_max = np.maximum(want_max, s)
    return s, want_max


def tile_cases(*cases):
    """(case, steps, monitoring stride) for each case: 24 steps, stride 4,
    and 203 steps, stride 7 (ids ``<case>-tail``), whose normals are a
    strided view of each path's 204 Philox slots."""
    return ([pytest.param(c, 24, 4, id=c) for c in cases]
            + [pytest.param(c, 203, 7, id=f"{c}-tail") for c in cases])


def mc_european(model, payoff, cfg, stepping="euler"):
    """Monte Carlo price and standard error from s0 = 100 at T = 1, r = 5%."""
    term = simulate_terminal(model, 100.0, 1.0, cfg, stepping=stepping)
    return mc_estimate(np.exp(-0.05) * payoff.values(term))


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

    @pytest.mark.parametrize("steps", [12, 10])
    def test_normals_overwrite_their_uniforms(self, steps):
        slots = 4 * ((steps + 3) // 4)
        bg = Philox(key=42)
        bg.advance(5 * slots // 4)
        u = Generator(bg).random((300, slots))
        z = path_normals(42, 5, 300, steps)
        assert np.array_equal(z, ndtri(u[:, :steps] + 2.0 ** -54))
        # no second paths x steps array: the normals live in the uniforms'
        assert z.base is not None and z.base.shape == (300, slots)

    def test_chunking_invariance(self, monkeypatch, gbm, cev_low_alpha):
        cfg = McConfig(paths=13289, steps=12, seed=3, monitoring_stride=3)
        cases = ((gbm, 100.0, "free"),
                 (cev_low_alpha, CEV_LOW_ALPHA.s0, "absorbing"),
                 (cev_low_alpha, CEV_LOW_ALPHA.s0, "reflecting"))
        # several chunks per worker with a ragged last one (13289 paths in
        # chunks of 512, the default and 6144 paths over the workers), and
        # the default chunks filled 1, 7 (a ragged last piece) and 10**6
        # paths at a time, against one chunk of every path
        chunk_paths = rmquant.oracles._CHUNK_PATHS
        fill_paths = rmquant.oracles._FILL_PATHS
        settings = ([(c, fill_paths) for c in (512, chunk_paths, 6144)]
                    + [(chunk_paths, f) for f in (1, 7, 10 ** 6)]
                    + [(10 ** 6, fill_paths)])
        for workers in (1, 2):
            monkeypatch.setattr(_pool, "workers", lambda: workers)
            for model, s0, boundary in cases:
                runs = []
                for chunk, fill in settings:
                    monkeypatch.setattr(rmquant.oracles, "_CHUNK_PATHS", chunk)
                    monkeypatch.setattr(rmquant.oracles, "_FILL_PATHS", fill)
                    runs.append(simulate_terminal(model, s0, 1.0, cfg,
                                                  boundary,
                                                  want_running_max=True))
                *chunked, (t1, m1) = runs
                for t, m in chunked:
                    assert np.array_equal(t, t1) and np.array_equal(m, m1)
                assert np.all(m1 >= s0)
                if boundary == "absorbing":
                    assert np.any(t1 == 0.0) and np.any(t1 > 0.0)

    def test_step_loops_never_interleave(self, monkeypatch):
        # The workers fill their normals at once but step one at a time: a
        # drift that sleeps hands the interpreter lock to the other worker,
        # and still each chunk's steps run as one unbroken run of calls.
        monkeypatch.setattr(_pool, "workers", lambda: 2)
        monkeypatch.setattr(rmquant.oracles, "_CHUNK_PATHS", 64)
        calls = []
        base = linear_model(0.05, 0.3)

        def a(x):
            calls.append(threading.get_ident())
            time.sleep(0.001)
            return base.a(x)

        model = dataclasses.replace(base, a=a)
        # 6 chunks of 64 / 2 paths, the last one ragged
        cfg = McConfig(paths=5 * 32 + 7, steps=5, seed=21)
        simulate_terminal(model, 100.0, 1.0, cfg)
        runs = [calls[i:i + cfg.steps] for i in range(0, len(calls), cfg.steps)]
        assert len(runs) == 6 and len(calls) == 6 * cfg.steps
        assert all(len(set(run)) == 1 for run in runs)
        assert len(set(calls)) == 2

    @pytest.mark.parametrize("workers", [1, 2])
    def test_one_normals_buffer_per_worker(self, monkeypatch, gbm, workers):
        # Every chunk draws its normals, piece by piece, through the
        # uniforms buffer its worker holds for the call into the normals
        # buffer it also holds: over several chunks per worker the buffers
        # stay those of the paths in flight, and memory peaks near one
        # paths-in-flight x steps array.
        monkeypatch.setattr(_pool, "workers", lambda: workers)
        chunk_paths = rmquant.oracles._CHUNK_PATHS
        fill_paths = rmquant.oracles._FILL_PATHS
        cfg = McConfig(paths=4 * chunk_paths + 1001, steps=200, seed=8)
        chunk = chunk_paths // workers
        pieces = sum(-(-min(chunk, cfg.paths - start) // fill_paths)
                     for start in range(0, cfg.paths, chunk))
        fill = rmquant.oracles._fill_normals
        buffers = []

        def recording_fill(u, *args):
            # kept alive, so a buffer per piece would count and add up
            buffers.append(u.base)
            return fill(u, *args)

        monkeypatch.setattr(rmquant.oracles, "_fill_normals", recording_fill)
        tracemalloc.start()
        try:
            simulate_terminal(gbm, 100.0, 1.0, cfg, want_running_max=True)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(buffers) == pieces
        assert len({id(b) for b in buffers}) == workers
        normals = chunk_paths * cfg.steps * 8
        outputs = 2 * cfg.paths * 8   # terminal states and running maxima
        assert peak < 1.1 * normals + outputs


class TestMcPrice:
    def test_determinism(self, gbm):
        cfg = McConfig(paths=20_000, steps=12, seed=11)
        a = mc_european(gbm, VanillaPayoff("put", 100.0), cfg, "gbm_exact")
        b = mc_european(gbm, VanillaPayoff("put", 100.0), cfg, "gbm_exact")
        assert a == b

    def test_european_put_consistent_with_black_scholes(self, gbm):
        cfg = McConfig(paths=1_000_000, steps=12, seed=5150)
        price, se = mc_european(gbm, VanillaPayoff("put", 100.0), cfg,
                                "gbm_exact")
        assert abs(price - BS_PUT_ATM) < 3.0 * se
        assert se < 0.02

    def test_zero_volatility_is_deterministic(self):
        flat = linear_model(0.05, 0.0)
        steps = 50
        cfg = McConfig(paths=100, steps=steps, seed=1)
        price, se = mc_european(flat, VanillaPayoff("call", 90.0), cfg)
        terminal = 100.0 * (1.0 + 0.05 / steps) ** steps
        assert price == pytest.approx(np.exp(-0.05) * (terminal - 90.0),
                                      rel=1e-12)
        assert se == 0.0

    def test_standard_error_scaling(self, gbm):
        payoff = VanillaPayoff("put", 100.0)
        _, se_small = mc_european(gbm, payoff,
                                  McConfig(paths=10_000, steps=12, seed=2),
                                  "gbm_exact")
        _, se_big = mc_european(gbm, payoff,
                                McConfig(paths=1_000_000, steps=12, seed=2),
                                "gbm_exact")
        assert 8.0 <= se_small / se_big <= 12.0

    def test_barrier_with_huge_level_matches_european(self, gbm):
        payoff = VanillaPayoff("put", 100.0)
        cfg = McConfig(paths=50_000, steps=24, seed=9, monitoring_stride=2)
        eu, _ = mc_european(gbm, payoff, cfg)
        term, smax = simulate_terminal(gbm, 100.0, 1.0, cfg,
                                       want_running_max=True)
        ba, _ = mc_estimate(np.exp(-0.05) * payoff.values(term) * (smax < 1e9))
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

    @pytest.mark.parametrize("case, steps, stride",
                             tile_cases("gbm-free", "cev-reflecting"))
    def test_paths_that_never_die_follow_the_plain_euler_loop(
            self, gbm, cev_low_alpha, case, steps, stride):
        model, s0, boundary = {
            "gbm-free": (gbm, 100.0, "free"),
            "cev-reflecting": (cev_low_alpha, CEV_LOW_ALPHA.s0, "reflecting"),
        }[case]
        cfg = McConfig(paths=3001, steps=steps, seed=13,
                       monitoring_stride=stride)
        term, smax = simulate_terminal(model, s0, 1.0, cfg, boundary,
                                       want_running_max=True)
        s, want_max = plain_paths(model, s0, cfg, boundary, "euler")
        assert np.array_equal(term, s)
        assert np.array_equal(smax, want_max)
        if boundary == "reflecting":
            assert np.all(term > 0.0) and np.any(term < 0.1 * s0)

    @pytest.mark.parametrize("case, steps, stride",
                             tile_cases("cev-absorbing", "gbm-exact"))
    def test_absorbed_and_exact_paths_follow_their_plain_loops(
            self, gbm, cev_low_alpha, case, steps, stride):
        model, s0, boundary, stepping = {
            "cev-absorbing": (cev_low_alpha, CEV_LOW_ALPHA.s0, "absorbing",
                              "euler"),
            "gbm-exact": (gbm, 100.0, "free", "gbm_exact"),
        }[case]
        cfg = McConfig(paths=3001, steps=steps, seed=13,
                       monitoring_stride=stride)
        term, smax = simulate_terminal(model, s0, 1.0, cfg, boundary,
                                       stepping, want_running_max=True)
        s, want_max = plain_paths(model, s0, cfg, boundary, stepping)
        assert np.array_equal(term, s)
        assert np.array_equal(smax, want_max)
        if boundary == "absorbing":
            assert np.any(term == 0.0) and np.any(term > 0.0)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            McConfig(paths=0, steps=10, seed=1)
        with pytest.raises(ValueError):
            McConfig(paths=10, steps=10, seed=1, monitoring_stride=3)
        for mult in (0.0, np.inf, np.nan):
            with pytest.raises(ValueError, match="s_max_mult"):
                FdConfig(64, 100, s_max_mult=mult)
        # a float size is refused at once, by name, not deep in the march
        for name in ("paths", "steps", "monitoring_stride"):
            sizes = dict(paths=10, steps=10, seed=1)
            with pytest.raises(ValueError, match=f"{name} must be an integer"):
                McConfig(**{**sizes, name: 10.0})
        for sizes, name in (((600.0, 800), "time_steps"),
                            ((600, 800.0), "space_steps")):
            with pytest.raises(ValueError, match=f"{name} must be an integer"):
                FdConfig(*sizes)
        for sizes, name in (((0, 100), "time_steps must be >= 1"),
                            ((64, 3), "space_steps must be >= 4")):
            with pytest.raises(ValueError, match=name):
                FdConfig(*sizes)
        cfg = FdConfig(np.int64(600), np.int32(800))
        assert (cfg.time_steps, cfg.space_steps) == (600, 800)
        assert type(cfg.time_steps) is type(cfg.space_steps) is int

    def test_seed_is_a_philox_key(self):
        # refused at once, not when the first paths are drawn
        for seed in (0, 2 ** 128 - 1):
            assert McConfig(paths=10, steps=10, seed=seed).seed == seed
        for seed in (-1, 2 ** 128):
            with pytest.raises(ValueError, match=r"seed must lie in \[0, "):
                McConfig(paths=10, steps=10, seed=seed)
        # 1.5 and 1.9 would run as seed 1
        for seed in (1.5, 1.9, 1.0, "1"):
            with pytest.raises(ValueError, match="seed must be an integer"):
                McConfig(paths=10, steps=10, seed=seed)
        cfg = McConfig(paths=10, steps=10, seed=np.uint64(2 ** 64 - 1))
        assert cfg.seed == 2 ** 64 - 1 and type(cfg.seed) is int


def cn_reference(model, s0, T, r, payoff, exercise_dates, cfg):
    """The Crank-Nicolson solve with one solve_banded call per time step."""
    m = cfg.space_steps
    s_max = cfg.s_max_mult * s0
    ds = s_max / m
    s = np.linspace(0.0, s_max, m + 1)
    dtf = T / cfg.time_steps
    v = payoff.values(s)
    v0 = float(v[0])
    si = s[1:-1]
    adv = model.a(si)
    dif = 0.5 * model.b(si) ** 2
    l_low = dif / ds ** 2 - adv / (2.0 * ds)
    l_mid = -2.0 * dif / ds ** 2 - r
    l_up = dif / ds ** 2 + adv / (2.0 * ds)

    def bands(sign):
        low = sign * 0.5 * dtf * l_low
        mid = 1.0 + sign * 0.5 * dtf * l_mid
        up = sign * 0.5 * dtf * l_up
        mid[-1] += 2.0 * up[-1]
        low[-1] -= up[-1]
        up[-1] = 0.0
        return low, mid, up

    a_low, a_mid, a_up = bands(-1.0)
    b_low, b_mid, b_up = bands(+1.0)
    ab = np.zeros((3, m - 1))
    ab[0, 1:] = a_up[:-1]
    ab[1] = a_mid
    ab[2, :-1] = a_low[1:]
    exercise_steps = {int(round((T - d) / dtf)) for d in exercise_dates}
    intrinsic = payoff.values(s)
    for n in range(1, cfg.time_steps + 1):
        inner = v[1:-1]
        rhs = b_mid * inner
        rhs[1:] += b_low[1:] * inner[:-1]
        rhs[:-1] += b_up[:-1] * inner[1:]
        rhs[0] += (b_low[0] - a_low[0]) * v0
        inner_new = solve_banded((1, 1), ab, rhs)
        v = np.empty_like(v)
        v[0] = v0
        v[1:-1] = inner_new
        v[-1] = 2.0 * inner_new[-1] - inner_new[-2]
        if n in exercise_steps:
            np.maximum(v, intrinsic, out=v)
    return float(np.interp(s0, s, v))


class TestCrankNicolson:
    CFG = FdConfig(time_steps=600, space_steps=800, s_max_mult=4.0)
    MONTHLY = [k / 12.0 for k in range(1, 12)]

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

    # FdConfig(50, 4): the smallest grid, three interior nodes
    @pytest.mark.parametrize("cfg", [CFG, FdConfig(50, 100, 4.0),
                                     FdConfig(50, 4, 4.0)])
    @pytest.mark.parametrize("dates", ["european", "monthly", "edges"])
    @pytest.mark.parametrize("kind", ["put", "call"])
    @pytest.mark.parametrize("which", ["gbm", "cev_low_alpha"])
    def test_equals_per_step_solve_banded(self, request, which, kind,
                                          dates, cfg):
        model = request.getfixturevalue(which)
        s0 = CEV_LOW_ALPHA.s0 if which == "cev_low_alpha" else GBM.s0
        n = cfg.time_steps
        exercise = {"european": [], "monthly": self.MONTHLY,
                    # the first and the last time step, and T (skipped)
                    "edges": [1.0 - 1.0 / n, 0.25 / n, 1.0]}[dates]
        args = (model, s0, 1.0, 0.05, VanillaPayoff(kind, 1.1 * s0),
                exercise, cfg)
        with (pytest.warns(UserWarning, match="coarse")
              if cfg.space_steps < 100 else contextlib.nullcontext()):
            got = cn_bermudan(*args)
        assert got == cn_reference(*args)

    def test_operator_factored_once_per_solve(self, gbm, monkeypatch):
        calls = []

        def counting(*a, **kw):
            calls.append(1)
            return factor(*a, **kw)

        factor = rmquant.oracles.dgttrf
        monkeypatch.setattr(rmquant.oracles, "dgttrf", counting)
        payoff = VanillaPayoff("put", 100.0)
        for _ in range(2):
            cn_bermudan(gbm, 100.0, 1.0, 0.05, payoff, self.MONTHLY,
                        FdConfig(200, 300))
        assert len(calls) == 2

    @pytest.mark.parametrize("model, strike", [
        (linear_model(0.05, np.nan), 100.0),   # non-finite operator
        (linear_model(0.05, 30.0), np.inf),    # non-finite right-hand side
    ])
    def test_non_finite_input_raises(self, model, strike):
        with np.errstate(invalid="ignore"), \
                pytest.raises(ValueError, match="infs or NaNs"):
            cn_bermudan(model, 100.0, 1.0, 0.05, unchecked_put(strike),
                        [], FdConfig(64, 100))

    @pytest.mark.parametrize("dates", [[], [0.5], [0.25 / 64]],
                             ids=["european", "mid", "last_step"])
    def test_non_finite_payoff_at_the_top_node_raises(self, dates):
        # the top node enters the grid only through an exercise, no
        # right-hand side reads it, and the next step overwrites it: the
        # error must not depend on the exercise dates
        strike = np.where(np.arange(101) == 100, np.inf, 100.0)
        with pytest.raises(ValueError, match="infs or NaNs"):
            cn_bermudan(linear_model(0.05, 30.0), 100.0, 1.0, 0.05,
                        unchecked_put(strike), dates, FdConfig(64, 100))

    def test_zero_pivot_raises(self):
        # no drift or diffusion and r = -2 / dt: the implicit operator is 0
        with pytest.raises(LinAlgError, match="singular"):
            cn_bermudan(linear_model(0.0, 0.0), 100.0, 1.0, -128.0,
                        VanillaPayoff("put", 100.0), [], FdConfig(64, 100))


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
