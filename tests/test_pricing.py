import tracemalloc

import numpy as np
import pytest

from rmquant import (BarrierSpec, QuantizationSequence, Schedule,
                     VanillaPayoff, barrier_up_out_price, bermudan_price,
                     black_scholes, european_price, rmq_run)

from conftest import CEV_LOW_ALPHA

R = 0.05


@pytest.fixture(scope="module")
def gbm_seq(gbm):
    sched = Schedule(T=1.0, K=12, n_per_step=150)
    return rmq_run(gbm, "weak2", 100.0, sched, "free")


def barrier_reference(seq, payoff, barrier, r):
    """The up-and-out price through the one-step survival kernel: each
    transition matrix times 1{max(from, to) < L}, element by element."""
    L = barrier.level
    g1 = (np.maximum(seq.s0, seq.codewords[0]) < L).astype(float)
    row = seq.probabilities[0] * g1
    for k in range(1, seq.n_steps):
        G = (np.maximum.outer(seq.codewords[k - 1], seq.codewords[k]) < L)
        row = row @ (seq.transitions[k - 1] * G)
    h = payoff.values(seq.codewords[-1])
    return float(np.exp(-r * seq.horizon) * (row @ h))


def hand_built_sequence():
    """Tiny absorbing-style chain with a zero state, assembled by hand."""
    cw1 = np.array([0.0, 80.0, 100.0, 120.0])
    p1 = np.array([0.1, 0.2, 0.4, 0.3])
    cw2 = np.array([0.0, 70.0, 105.0, 140.0])
    P = np.array([
        [1.0, 0.0, 0.0, 0.0],
        [0.3, 0.5, 0.2, 0.0],
        [0.05, 0.15, 0.6, 0.2],
        [0.0, 0.05, 0.35, 0.6],
    ])
    p2 = p1 @ P
    return QuantizationSequence(
        scheme="euler", boundary="absorbing", model_kind="gbm", s0=100.0,
        horizon=0.5, codewords=[cw1, cw2], probabilities=[p1, p2],
        transitions=[P])


class TestPayoff:
    def test_values(self):
        s = np.array([80.0, 100.0, 130.0])
        assert VanillaPayoff("put", 100.0).values(s) == pytest.approx([20.0, 0.0, 0.0])
        assert VanillaPayoff("call", 100.0).values(s) == pytest.approx([0.0, 0.0, 30.0])

    def test_validation(self):
        with pytest.raises(ValueError):
            VanillaPayoff("straddle")
        with pytest.raises(ValueError):
            VanillaPayoff("put", strike=-1.0)
        with pytest.raises(ValueError):
            BarrierSpec(level=0.0)

    @pytest.mark.parametrize("strike", [np.nan, np.inf])
    def test_non_finite_strike_refused(self, strike):
        with pytest.raises(ValueError, match="strike must be finite"):
            VanillaPayoff("put", strike=strike)


class TestEuropean:
    def test_zero_payoff(self, gbm_seq):
        assert european_price(gbm_seq, VanillaPayoff("put", 0.0), R) == 0.0

    def test_unit_payoff_discounts(self, gbm_seq):
        # (101 - S) - (100 - S) = 1 for the put-minus-call spread
        def spread(k):
            return (european_price(gbm_seq, VanillaPayoff("put", k), R)
                    - european_price(gbm_seq, VanillaPayoff("call", k), R))
        assert spread(101.0) - spread(100.0) == pytest.approx(
            np.exp(-R), abs=1e-10)

    def test_put_monotone_in_strike(self, gbm_seq):
        strikes = np.linspace(50.0, 150.0, 20)
        prices = [european_price(gbm_seq, VanillaPayoff("put", k), R)
                  for k in strikes]
        assert np.all(np.diff(prices) >= 0.0)

    def test_atm_put_matches_black_scholes(self, gbm_seq):
        price = european_price(gbm_seq, VanillaPayoff("put", 100.0), R)
        ref = black_scholes("put", 100.0, 100.0, R, 0.3, 1.0)
        assert price == pytest.approx(ref, abs=0.05)


class TestBermudan:
    def test_zero_strike_put_worthless(self, gbm_seq):
        assert bermudan_price(gbm_seq, VanillaPayoff("put", 0.0), R) == 0.0

    def test_dominates_european(self, gbm_seq):
        for k in (80.0, 100.0, 120.0):
            payoff = VanillaPayoff("put", k)
            assert bermudan_price(gbm_seq, payoff, R) >= \
                european_price(gbm_seq, payoff, R) - 1e-12

    def test_single_date_equals_european(self, gbm):
        seq = rmq_run(gbm, "euler", 100.0, Schedule(T=0.25, K=1, n_per_step=80),
                      "free")
        payoff = VanillaPayoff("put", 105.0)
        assert bermudan_price(seq, payoff, R) == pytest.approx(
            european_price(seq, payoff, R), abs=1e-14)


class TestBarrier:
    def test_infinite_level_equals_european(self, gbm_seq):
        payoff = VanillaPayoff("put", 100.0)
        up = barrier_up_out_price(gbm_seq, payoff, BarrierSpec(level=1e12), R)
        assert up == pytest.approx(european_price(gbm_seq, payoff, R),
                                   abs=1e-12)

    def test_knocked_out_at_inception(self, gbm_seq):
        payoff = VanillaPayoff("put", 100.0)
        for level in (50.0, 100.0):
            assert barrier_up_out_price(gbm_seq, payoff,
                                        BarrierSpec(level=level), R) == 0.0

    def test_monotone_in_level(self, gbm_seq):
        payoff = VanillaPayoff("put", 100.0)
        levels = np.linspace(101.0, 200.0, 15)
        prices = [barrier_up_out_price(gbm_seq, payoff, BarrierSpec(level=L), R)
                  for L in levels]
        assert np.all(np.diff(prices) >= -1e-12)
        assert prices[-1] <= european_price(gbm_seq, payoff, R) + 1e-12


class TestBarrierOnStates:
    @pytest.fixture(scope="class", params=["free", "absorbing", "reflecting"])
    def seq(self, request, gbm, cev_low_alpha):
        sched = Schedule(T=1.0, K=6, n_per_step=60)
        if request.param == "free":
            return rmq_run(gbm, "weak2", 100.0, sched, "free")
        return rmq_run(cev_low_alpha, "euler", CEV_LOW_ALPHA.s0, sched,
                       request.param)

    @pytest.mark.parametrize("kind", ["put", "call"])
    def test_equals_survival_kernel(self, seq, kind):
        cw = seq.codewords[2]
        above = cw[cw > seq.s0]
        levels = [0.5 * seq.s0, seq.s0, above[3],
                  0.5 * (above[5] + above[6]),
                  2.0 * max(c[-1] for c in seq.codewords), 1e12]
        payoff = VanillaPayoff(kind, seq.s0)
        for level in levels:
            barrier = BarrierSpec(level=float(level))
            assert barrier_up_out_price(seq, payoff, barrier, R) == \
                barrier_reference(seq, payoff, barrier, R)

    def test_no_n_by_n_temporary(self):
        n = 1000
        rng = np.random.default_rng(7)
        cws, ps, Ps = [np.linspace(50.0, 150.0, n)], [np.full(n, 1.0 / n)], []
        for _ in range(3):
            P = rng.random((n, n))
            Ps.append(P / P.sum(axis=1, keepdims=True))
            cws.append(cws[-1] * 1.01)
            ps.append(ps[-1] @ Ps[-1])
        seq = QuantizationSequence(
            scheme="euler", boundary="free", model_kind="gbm", s0=100.0,
            horizon=1.0, codewords=cws, probabilities=ps, transitions=Ps)
        payoff, barrier = VanillaPayoff("put", 100.0), BarrierSpec(120.0)
        tracemalloc.start()
        try:
            price = barrier_up_out_price(seq, payoff, barrier, R)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert price > 0.0
        assert peak < n * n


class TestZeroStateParticipation:
    def test_european_hand_sum(self):
        seq = hand_built_sequence()
        payoff = VanillaPayoff("put", 100.0)
        want = np.exp(-R * 0.5) * float(
            seq.probabilities[1] @ np.maximum(100.0 - seq.codewords[1], 0.0))
        assert european_price(seq, payoff, R) == pytest.approx(want, abs=1e-15)
        # the zero state contributes the full strike
        h = np.maximum(100.0 - seq.codewords[1], 0.0)
        assert h[0] == 100.0

    def test_bermudan_hand_sum(self):
        seq = hand_built_sequence()
        payoff = VanillaPayoff("put", 100.0)
        disc = np.exp(-R * 0.25)
        h2 = np.maximum(100.0 - seq.codewords[1], 0.0)
        h1 = np.maximum(np.maximum(100.0 - seq.codewords[0], 0.0),
                        disc * (seq.transitions[0] @ h2))
        want = disc * float(seq.probabilities[0] @ h1)
        assert bermudan_price(seq, payoff, R) == pytest.approx(want, abs=1e-15)

    def test_barrier_hand_sum(self):
        seq = hand_built_sequence()
        payoff = VanillaPayoff("put", 100.0)
        barrier = BarrierSpec(level=110.0)
        assert barrier_up_out_price(seq, payoff, barrier, R) == \
            barrier_reference(seq, payoff, barrier, R)
