import io
import json

import numpy as np
import pytest
from scipy.special import ndtr

from rmquant import (CodewordDomainError, Ncx2Params, RmqError, Schedule,
                     UpdateBatch, european_price, implied_marginal_cdf,
                     load_sequence_json, ncx2_1_funcs, rmq_run,
                     std_normal_funcs)
from rmquant._newton import damped_newton
from rmquant.affine_schemes import SCHEME_BUILDERS, euler_updates
from rmquant.rmq_engine import _mixture_evaluator, _z_matrices
from rmquant.vq1d import (Quantizer, checked_grid, distortion,
                          distortion_gradient, distortion_hessian,
                          newton_quantize)
from rmquant.distributions import ScalarDistribution

from conftest import CEV_LOW_ALPHA

GBM_MEAN_1Y = 105.12710963760241
PAPER_SCHEDULE = Schedule(T=1.0, K=12, n_per_step=200, n_max_vq=50, n_max_rmq=5)


def batch(*rows):
    """UpdateBatch of (m, c) Gaussian rows and (m, c, lam) ncx2 rows."""
    return UpdateBatch(m=[r[0] for r in rows], c=[r[1] for r in rows],
                       lam=[r[2] if len(r) > 2 else 0.0 for r in rows],
                       is_ncx2=[len(r) > 2 for r in rows],
                       fallback=[False] * len(rows))


def affine_law(base, m, c):
    """The law of m Z + c, Z ~ ``base``, on the real line.

    For m < 0 the cdf and partial moments are those of the law up to sign
    and an additive constant, which cancel in the region differences that
    quantization reads.
    """
    s = np.sign(m)

    def z(x):
        return (np.asarray(x, dtype=float) - c) / m

    def fFM(x):
        f, F, M1 = base.fFM(z(x))
        return f / abs(m), s * F, s * (c * F + m * M1)

    def m2(x):
        _, F, M1 = base.fFM(z(x))
        return s * (c * c * F + 2.0 * c * m * M1 + m * m * base.m2(z(x)))

    return ScalarDistribution(fFM=fFM, m2=m2)


def mixture_distortion(gam, prev, updates):
    """Distortion of ``gam`` under sum_i p_i law(m_i Z_i + c_i), summed one
    component at a time with the single-law :func:`distortion`."""
    return sum(p * distortion(affine_law(
        ncx2_1_funcs(Ncx2Params(lam)) if nc else std_normal_funcs(), m, c), gam)
        for p, m, c, lam, nc in zip(prev.probabilities, updates.m, updates.c,
                                    updates.lam, updates.is_ncx2))


def small_mixture():
    prev = Quantizer(np.array([0.8, 1.1, 1.6]), np.array([0.3, 0.5, 0.2]))
    updates = batch((0.21, 0.9, 3.0), (-0.4, 1.3), (0.35, 1.7, 40.0))
    gam = np.array([0.5, 1.0, 1.8, 2.6])
    return prev, updates, gam


class TestSchedule:
    def test_dt_and_cardinalities(self):
        s = Schedule(T=1.0, K=np.int64(4), n_per_step=np.int32(10))
        assert s.dt == 0.25
        assert (s.K, s.n_per_step) == (4, 10)
        assert type(s.K) is int and type(s.n_per_step) is int

    def test_validation(self):
        for kwargs in (dict(T=0.0, K=4), dict(T=np.inf, K=4), dict(T=1.0, K=0),
                       dict(T=1.0, K=2, n_max_rmq=0),
                       dict(T=1.0, K=3, n_per_step=[10, 20, 30]),
                       dict(T=1.0, K=2.5), dict(T=1.0, K=4, n_per_step=20.7),
                       dict(T=1.0, K=4, n_max_vq=5.0)):
            with pytest.raises(ValueError):
                Schedule(**kwargs)


class TestImpliedMarginalCdf:
    def test_single_gaussian_component_median(self):
        prev = Quantizer(np.array([100.0]), np.array([1.0]))
        ups = batch((8.660254037844386, 100.41666666666667))
        assert implied_marginal_cdf(100.41666666666667, prev, ups) == \
            pytest.approx(0.5, abs=1e-14)
        assert implied_marginal_cdf(np.inf, prev, ups) == 1.0

    def test_mixture_limits_and_monotonicity(self):
        prev, updates, _ = small_mixture()
        x = np.linspace(-3.0, 8.0, 500)
        F = implied_marginal_cdf(x, prev, updates)
        assert np.all(np.diff(F) >= -1e-13)
        assert implied_marginal_cdf(-np.inf, prev, updates) == pytest.approx(0.0, abs=1e-15)
        assert implied_marginal_cdf(np.inf, prev, updates) == pytest.approx(1.0, abs=1e-12)


class TestTransitionSet:
    def test_single_region_captures_all_mass(self):
        _, updates, _ = small_mixture()
        P, _, _ = _z_matrices(updates, np.array([1.5]), "free")
        assert P == pytest.approx(np.ones((3, 1)), abs=1e-12)

    def test_free_rows_sum_to_one(self):
        _, updates, gam = small_mixture()
        P, _, _ = _z_matrices(updates, gam, "free")
        assert P.sum(axis=1) == pytest.approx(np.ones(3), abs=1e-10)
        assert np.all(P >= 0.0)

    def test_absorbing_row_mass(self):
        # absorbed mass from a gaussian update with c = m = 1 is Phi(-1)
        P, _, _ = _z_matrices(batch((1.0, 1.0)), np.array([0.5, 1.5]),
                              "absorbing")
        assert P.sum() == pytest.approx(1.0 - ndtr(-1.0), abs=1e-12)
        assert P.sum() == pytest.approx(0.8413447460685429, abs=1e-10)

    def test_reflecting_rows_sum_to_one(self):
        ups = batch((0.8, 0.4), (0.3, 1.1, 5.0))
        P, _, _ = _z_matrices(ups, np.array([0.3, 0.9, 2.0]), "reflecting")
        assert P.sum(axis=1) == pytest.approx(np.ones(2), abs=1e-10)

    def test_errors(self):
        # candidate grids must increase and lie inside the state support
        _, _, gam = small_mixture()
        with pytest.raises(ValueError):
            checked_grid(gam[::-1], (-np.inf, np.inf))
        with pytest.raises(ValueError):
            checked_grid(np.array([-1.0, 2.0]), (0.0, np.inf))


class TestNewtonStep:
    def test_fixed_point_at_stationary_grid(self):
        # well-overlapping components so Newton reaches machine stationarity
        prev = Quantizer(np.array([0.8, 1.1, 1.6]), np.array([0.3, 0.5, 0.2]))
        updates = batch((0.5, 0.9), (0.4, 1.3), (0.25, 0.7, 4.0))
        gam = np.array([0.5, 1.0, 1.8, 2.6])
        evaluate = _mixture_evaluator(prev.probabilities, updates, "free")
        stat, ev = damped_newton(gam, evaluate, 100)
        assert np.max(np.abs(ev.grad)) < 1e-12  # actually stationary
        out, _ = damped_newton(stat, evaluate, 1)
        assert out == pytest.approx(stat, abs=1e-12)

    def test_gradient_matches_distortion_finite_differences(self):
        prev, updates, gam = small_mixture()
        ev = _mixture_evaluator(prev.probabilities, updates, "free")(gam)
        h = 1e-6
        for j in range(gam.size):
            e = np.zeros(gam.size)
            e[j] = h
            fd = (mixture_distortion(gam + e, prev, updates)
                  - mixture_distortion(gam - e, prev, updates)) / (2 * h)
            assert ev.grad[j] == pytest.approx(fd, rel=1e-5, abs=1e-8)

    def test_hessian_matches_gradient_finite_differences(self):
        prev, updates, gam = small_mixture()
        evaluate = _mixture_evaluator(prev.probabilities, updates, "free")
        ev = evaluate(gam)
        h = 1e-6
        fd = np.zeros((4, 4))
        for j in range(4):
            e = np.zeros(4)
            e[j] = h
            fd[:, j] = (evaluate(gam + e).grad - evaluate(gam - e).grad) / (2 * h)
        assert ev.hess_diag == pytest.approx(np.diag(fd), rel=1e-5, abs=1e-7)
        assert ev.hess_off == pytest.approx(np.diag(fd, 1), rel=1e-5, abs=1e-7)

    def test_single_component_reduces_to_vq1d(self):
        # one previous codeword: the mixture is the plain conditional law
        m, c = 0.8, 2.0
        prev = Quantizer(np.array([5.0]), np.array([1.0]))
        ups = batch((m, c))
        law = affine_law(std_normal_funcs(), m, c)
        gam = np.array([1.2, 1.9, 2.7])
        ev = _mixture_evaluator(prev.probabilities, ups, "free")(gam)
        assert ev.grad == pytest.approx(distortion_gradient(law, gam), rel=1e-12)
        hess = distortion_hessian(law, gam)
        assert ev.hess_diag == pytest.approx(np.diag(hess), rel=1e-12)
        assert ev.hess_off == pytest.approx(np.diag(hess, 1), rel=1e-12)


@pytest.fixture(scope="module")
def seqs(gbm):
    return {s: rmq_run(gbm, s, 100.0, PAPER_SCHEDULE, "free")
            for s in ("euler", "milstein", "weak2")}


class TestRmqRunGbm:
    def test_terminal_first_moment(self, seqs):
        for scheme, seq in seqs.items():
            assert seq.terminal_mean() == pytest.approx(GBM_MEAN_1Y,
                                                        rel=2e-3), scheme

    def test_markov_consistency(self, seqs):
        for seq in seqs.values():
            p = seq.probabilities[0]
            for k in range(1, seq.n_steps):
                p = p @ seq.transitions[k - 1]
                assert np.max(np.abs(p - seq.probabilities[k])) < 1e-10

    def test_row_stochastic(self, seqs):
        for seq in seqs.values():
            for P in seq.transitions:
                assert P.sum(axis=1) == pytest.approx(
                    np.ones(P.shape[0]), abs=1e-10)
                assert np.all(P >= 0.0) and np.all(P <= 1.0 + 1e-12)

    def test_implied_cdf_monotone_with_limits(self, seqs, gbm):
        seq = seqs["weak2"]
        prev, zm = seq.live_quantizer(seq.n_steps - 1)
        ups = SCHEME_BUILDERS["weak2"](gbm, prev.codewords, seq.dt)
        x = np.linspace(1.0, 400.0, 1000)
        F = implied_marginal_cdf(x, prev, ups)
        assert np.all(np.diff(F) >= -1e-12)
        assert implied_marginal_cdf(1e9, prev, ups) == pytest.approx(1.0, abs=1e-9)

    def test_first_moment_telescoping_milstein(self, seqs, gbm):
        seq = seqs["milstein"]
        dt = seq.dt
        for k in range(1, seq.n_steps):
            lhs = seq.probabilities[k] @ seq.codewords[k]
            gam = seq.codewords[k - 1]
            rhs = seq.probabilities[k - 1] @ (gam + gbm.a(gam) * dt)
            assert lhs == pytest.approx(rhs, rel=1e-3)

    def test_distortion_not_worse_than_initial_guess(self, seqs, gbm):
        seq = seqs["milstein"]
        k = 6  # mid-run step; guess for step k+1 is the step-k grid
        prev, _ = seq.live_quantizer(k)
        ups = SCHEME_BUILDERS["milstein"](gbm, prev.codewords, seq.dt)
        d_guess = mixture_distortion(seq.codewords[k - 1], prev, ups)
        d_final = mixture_distortion(seq.codewords[k], prev, ups)
        assert d_final <= d_guess * (1.0 + 1e-12)

    def test_single_step_recovers_plain_quantization(self, gbm):
        # K=1 must be exactly the one-step conditional-law quantization
        sched = Schedule(T=1.0 / 12.0, K=1, n_per_step=40)
        seq = rmq_run(gbm, "euler", 100.0, sched, "free")
        u = euler_updates(gbm, np.array([100.0]), sched.dt)
        m, c = float(u.m[0]), float(u.c[0])
        law = affine_law(std_normal_funcs(), m, c)
        from rmquant.vq1d import initial_guess
        q = newton_quantize(law, np.sort(m * initial_guess("normal", 40) + c),
                            sched.n_max_vq)
        assert seq.codewords[0] == pytest.approx(q.codewords, rel=1e-9)
        assert seq.probabilities[0] == pytest.approx(q.probabilities, abs=1e-10)

    def test_scheme_agreement_at_fine_steps(self, gbm):
        sched = Schedule(T=1.0, K=192, n_per_step=200)
        means = []
        for scheme in ("euler", "milstein", "weak2"):
            seq = rmq_run(gbm, scheme, 100.0, sched, "free")
            means.append(seq.terminal_mean())
        for m in means:
            assert m == pytest.approx(GBM_MEAN_1Y, rel=1e-2)
        assert max(means) - min(means) < 1e-2 * GBM_MEAN_1Y

    def test_negative_scale_rows_supported_in_free_mode(self):
        # a mixture whose second component has m < 0 must still produce a
        # stochastic transition matrix and a finite-difference-consistent
        # gradient (exercised structurally by models with b' < 0)
        prev = Quantizer(np.array([1.0, 2.0]), np.array([0.5, 0.5]))
        ups = batch((0.7, 1.1), (-0.6, 2.2))
        gam = np.array([0.6, 1.4, 2.3])
        P, _, _ = _z_matrices(ups, gam, "free")
        assert P.sum(axis=1) == pytest.approx(np.ones(2), abs=1e-12)
        out, _ = damped_newton(
            gam, _mixture_evaluator(prev.probabilities, ups, "free"), 1)
        assert np.all(np.diff(out) > 0)


class TestBoundaryModes:
    SCHED = Schedule(T=1.0, K=12, n_per_step=100, n_max_vq=50, n_max_rmq=5)

    def test_cev_free_mode_fails_with_step_diagnostic(self, cev_low_alpha):
        with pytest.raises(CodewordDomainError) as exc:
            rmq_run(cev_low_alpha, "euler", CEV_LOW_ALPHA.s0, self.SCHED, "free")
        assert exc.value.step >= 1
        assert "step" in str(exc.value)
        assert "boundary" in str(exc.value)

    @pytest.mark.parametrize("scheme", ["euler", "milstein", "weak2"])
    def test_cev_absorbing(self, cev_low_alpha, scheme):
        seq = rmq_run(cev_low_alpha, scheme, CEV_LOW_ALPHA.s0, self.SCHED,
                      "absorbing")
        zm = seq.zero_state_mass
        assert zm is not None and np.all(np.diff(zm) >= -1e-15)
        for k in range(seq.n_steps):
            cw = seq.codewords[k]
            assert cw[0] == 0.0 and np.all(cw[1:] > 0.0)
            assert abs(seq.probabilities[k].sum() - 1.0) < 1e-10
            assert seq.probabilities[k][0] == pytest.approx(zm[k])
        for P in seq.transitions:
            assert P[0, 0] == 1.0 and np.all(P[0, 1:] == 0.0)
            assert P.sum(axis=1) == pytest.approx(np.ones(P.shape[0]),
                                                  abs=1e-10)

    @pytest.mark.parametrize("scheme", ["euler", "milstein", "weak2"])
    def test_cev_reflecting(self, cev_low_alpha, scheme):
        seq = rmq_run(cev_low_alpha, scheme, CEV_LOW_ALPHA.s0, self.SCHED,
                      "reflecting")
        assert seq.zero_state_mass is None
        for k in range(seq.n_steps):
            assert np.all(seq.codewords[k] > 0.0)
            assert abs(seq.probabilities[k].sum() - 1.0) < 1e-10

    def test_gbm_absorbing_mass_is_negligible(self, gbm):
        seq = rmq_run(gbm, "euler", 100.0, self.SCHED, "absorbing")
        assert seq.zero_state_mass[-1] < 1e-8

    def test_boundary_modes_reject_nonpositive_scale(self):
        prev = Quantizer(np.array([1.0]), np.array([1.0]))
        ups = batch((-1.0, 1.0))
        with pytest.raises(RmqError):
            implied_marginal_cdf(1.0, prev, ups, "absorbing")


class TestSerialization:
    def test_json_round_trip_prices_identically(self, gbm):
        from rmquant import VanillaPayoff, bermudan_price, barrier_up_out_price
        from rmquant import BarrierSpec
        sched = Schedule(T=1.0, K=6, n_per_step=60)
        seq = rmq_run(gbm, "weak2", 100.0, sched, "free")
        buf = io.StringIO()
        seq.dump_json(buf)
        buf.seek(0)
        seq2 = load_sequence_json(buf)
        payoff = VanillaPayoff("put", 100.0)
        for fn in (lambda s: european_price(s, payoff, 0.05),
                   lambda s: bermudan_price(s, payoff, 0.05),
                   lambda s: barrier_up_out_price(
                       s, payoff, BarrierSpec(level=120.0), 0.05)):
            assert abs(fn(seq) - fn(seq2)) <= 1e-12

    def test_csv_grid_dump_round_trips_final_step(self, gbm):
        sched = Schedule(T=1.0, K=3, n_per_step=25)
        seq = rmq_run(gbm, "euler", 100.0, sched, "free")
        buf = io.StringIO()
        seq.dump_csv(buf)
        lines = buf.getvalue().splitlines()
        assert lines[0].startswith("# schema:")
        assert lines[1] == "step,time,index,codeword,probability"
        rows = [ln.split(",") for ln in lines[2:]]
        assert len(rows) == 3 * 25
        last = [r for r in rows if r[0] == "3"]
        cw = np.array([float(r[3]) for r in last])
        pr = np.array([float(r[4]) for r in last])
        assert np.array_equal(cw, seq.codewords[-1])   # 17g round-trips
        assert np.array_equal(pr, seq.probabilities[-1])
        from rmquant import VanillaPayoff
        reprice = np.exp(-0.05) * pr @ np.maximum(100.0 - cw, 0.0)
        assert abs(reprice - european_price(seq, VanillaPayoff("put", 100.0),
                                            0.05)) <= 1e-12

    def test_json_schema_enforced(self):
        with pytest.raises(ValueError):
            load_sequence_json(io.StringIO(json.dumps({"schema": "other"})))


def _scale_mass(doc):
    for step in doc["steps"]:
        step["probabilities"] = [1.3 * p for p in step["probabilities"]]


def _swap_codewords(doc):
    cw = doc["steps"][2]["codewords"]
    cw[10], cw[11] = cw[11], cw[10]


def _scale_mass_and_swap_codewords(doc):
    _scale_mass(doc)
    _swap_codewords(doc)


def _truncate_transitions(doc):
    doc["transitions"] = doc["transitions"][:-1]


def _negative_entry(doc):
    doc["transitions"][1][5][7] = -1e-3


def _break_markov(doc):
    row = doc["transitions"][3][20]
    row[:] = [0.5 * v for v in row]


def _drop_column(doc):
    doc["transitions"][0] = [row[:-1] for row in doc["transitions"][0]]


def _bogus_boundary(doc):
    doc["boundary"] = "bogus"
    doc["zero_state_mass"] = [0.9] * 4


def _move_zero_state(doc):
    cw = doc["steps"][1]["codewords"]
    cw[0] = 0.5 * cw[1]


def _leak_zero_state(doc):
    # row 0 of the last transition leaks half the trap mass; the last
    # probabilities and zero mass are recomputed so the chain stays Markov
    P = np.array(doc["transitions"][-1])
    P[0, :2] = 0.5
    doc["transitions"][-1] = P.tolist()
    p = np.array(doc["steps"][-2]["probabilities"]) @ P
    doc["steps"][-1]["probabilities"] = p.tolist()
    doc["zero_state_mass"][-1] = p[0]


def _shift_zero_state_mass(doc):
    doc["zero_state_mass"][2] += 1e-9


def _keep_only_schema(doc):
    schema = doc["schema"]
    doc.clear()
    doc["schema"] = schema


def _drop_step_probabilities(doc):
    del doc["steps"][2]["probabilities"]


def _drop_model(doc):
    del doc["model"]


def _negative_horizon(doc):
    doc["horizon"] = -1.0


def _infinite_horizon(doc):
    doc["horizon"] = float("inf")


def _nan_s0(doc):
    doc["s0"] = float("nan")


def _unknown_scheme(doc):
    doc["scheme"] = "runge-kutta"


ABSORBING_EDITS = (_bogus_boundary, _move_zero_state, _leak_zero_state,
                   _shift_zero_state_mass)


class TestLoadedSequenceChecks:
    @pytest.fixture(scope="class")
    def dump(self, gbm, cev_low_alpha):
        free = rmq_run(gbm, "weak2", 100.0, Schedule(T=1.0, K=6, n_per_step=60))
        absorbing = rmq_run(cev_low_alpha, "euler", CEV_LOW_ALPHA.s0,
                            Schedule(T=1.0, K=4, n_per_step=40), "absorbing")
        return {"free": json.dumps(free.to_json_dict()),
                "absorbing": json.dumps(absorbing.to_json_dict())}

    def test_unedited_dumps_load(self, dump):
        for boundary, text in dump.items():
            seq = load_sequence_json(io.StringIO(text))
            zs = json.loads(text).get("zero_state_mass")
            assert seq.boundary == boundary
            assert (seq.zero_state_mass is None) == (zs is None)
            if zs is not None:
                assert np.array_equal(seq.zero_state_mass, zs)

    @pytest.mark.parametrize("edit", [
        _scale_mass_and_swap_codewords, _truncate_transitions, _scale_mass,
        _swap_codewords, _negative_entry, _break_markov, _drop_column,
        _keep_only_schema, _drop_step_probabilities, _drop_model,
        _negative_horizon, _infinite_horizon, _nan_s0, _unknown_scheme,
        *ABSORBING_EDITS])
    def test_edited_dump_is_rejected(self, dump, edit):
        doc = json.loads(dump["absorbing" if edit in ABSORBING_EDITS else "free"])
        edit(doc)
        with pytest.raises(ValueError, match="inconsistent sequence"):
            load_sequence_json(io.StringIO(json.dumps(doc)))
