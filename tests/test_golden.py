"""Golden snapshot: grids, probabilities and prices must not drift.

``tests/data/golden.npz`` holds, for the seven paper configurations
(T=1, K=12, N=200), the codewords and probabilities of every step and the
ATM European, Bermudan and up-and-out barrier (level 1.2 s0) put prices,
plus the README ``vq`` grids (normal and ncx2 with lambda=4, N=50, 20
iterations), the grid of ncx2(lambda=4) reflected about 0.3 (N=50, 50
iterations), and the (f, F, M1) of ``gbm_exact_marginal`` and the
(F, M1) of a seeded ``empirical_cdf`` on a fixed set of points.  One
larger run, GBM weak2 on a free boundary at K=4, N=1000, pins the
evaluation of grids of many column blocks, which gives the bits of one
whole-matrix pass.  The
stored ``gbm_exact_marginal`` array has a fourth row, E[S^2 1{S < x}],
which the law no longer computes and the test does not read.
Transition matrices are not stored; the probabilities pin them through
p_{k+1} = p_k P_k.
The bits were written with numpy 2.4.6 dispatching to its AVX-512 code
paths and OpenBLAS 0.3.31 running its SkylakeX kernels; another CPU or
build may move the last bits past these tolerances.

Regenerate (only when a change of the numbers is intended) with

    PYTHONPATH=src python tests/test_golden.py
"""

from pathlib import Path

import numpy as np
import pytest

from rmquant import (BarrierSpec, CevParams, GbmParams, Ncx2Params, Schedule,
                     VanillaPayoff, barrier_up_out_price, bermudan_price,
                     cev_model, european_price, gbm_model, ncx2_1_funcs,
                     newton_quantize, reflect_funcs, rmq_run,
                     std_normal_funcs)
from rmquant.oracles import empirical_cdf
from rmquant.sde_models import gbm_exact_marginal
from rmquant.vq1d import initial_guess

DATA = Path(__file__).with_name("data") / "golden.npz"
RTOL = 1e-13   # codewords and prices, relative
ATOL = 1e-13   # probabilities, absolute

GBM = GbmParams(s0=100.0, r=0.05, sigma=0.3)
CEV_LOW_ALPHA = CevParams(s0=0.5, r=0.05, alpha=0.35, sigma_ln=0.5)
PAPER = Schedule(T=1.0, K=12, n_per_step=200, n_max_vq=50, n_max_rmq=5)
CASES = (
    ("gbm", "euler", "free"),
    ("gbm", "milstein", "free"),
    ("gbm", "weak2", "free"),
    ("cev", "euler", "absorbing"),
    ("cev", "euler", "reflecting"),
    ("cev", "weak2", "absorbing"),
    ("cev", "weak2", "reflecting"),
)
BLOCK_CASE = "gbm_weak2_free_n1000"
BLOCK_SCHEDULE = Schedule(T=1.0, K=4, n_per_step=1000, n_max_vq=50,
                          n_max_rmq=5)
VQ_CASES = (("normal", None), ("ncx2", 4.0))
LAW_NAMES = ("gbm_exact_marginal", "empirical_cdf")
LAW_POINTS = np.concatenate([[-1.0, 0.0], np.linspace(40.0, 220.0, 46),
                             [np.inf]])


def _case_name(model, scheme, boundary):
    return f"{model}_{scheme}_{boundary}"


def _run_case(model, scheme, boundary):
    if model == "gbm":
        sde, params = gbm_model(GBM), GBM
    else:
        sde, params = cev_model(CEV_LOW_ALPHA), CEV_LOW_ALPHA
    seq = rmq_run(sde, scheme, params.s0, PAPER, boundary)
    put = VanillaPayoff("put", params.s0)
    prices = np.array([
        european_price(seq, put, params.r),
        bermudan_price(seq, put, params.r),
        barrier_up_out_price(seq, put, BarrierSpec(level=1.2 * params.s0),
                             params.r),
    ])
    return seq, prices


def _block_run():
    return rmq_run(gbm_model(GBM), "weak2", GBM.s0, BLOCK_SCHEDULE, "free")


def _vq_grid(family, lam):
    if family == "ncx2":
        dist = ncx2_1_funcs(Ncx2Params(lam=lam))
    else:
        dist = std_normal_funcs()
    return newton_quantize(dist, initial_guess(family, 50, lam), 20)


def _reflected_vq_grid():
    dist = reflect_funcs(ncx2_1_funcs(Ncx2Params(lam=4.0)), 0.3)
    return newton_quantize(dist, 0.301 + np.linspace(0.05, 14.0, 50), 50)


def _law_values(name):
    """Values of a single-law constructor at ``LAW_POINTS``."""
    if name == "gbm_exact_marginal":
        d = gbm_exact_marginal(GBM, 1.0)
        return np.stack(d.fFM(LAW_POINTS))
    d = empirical_cdf(gbm_model(GBM), GBM.s0, 1.0, samples=4096, seed=7,
                      steps=50)
    return np.stack([d.cdf(LAW_POINTS), d.m1(LAW_POINTS)])


def build_golden() -> dict:
    out = {}
    for case in CASES:
        name = _case_name(*case)
        seq, prices = _run_case(*case)
        for k in range(seq.n_steps):
            out[f"{name}/codewords/{k}"] = seq.codewords[k]
            out[f"{name}/probabilities/{k}"] = seq.probabilities[k]
        out[f"{name}/prices"] = prices
    seq = _block_run()
    for k in range(seq.n_steps):
        out[f"{BLOCK_CASE}/codewords/{k}"] = seq.codewords[k]
        out[f"{BLOCK_CASE}/probabilities/{k}"] = seq.probabilities[k]
    for family, lam in VQ_CASES:
        q = _vq_grid(family, lam)
        out[f"vq_{family}/codewords"] = q.codewords
        out[f"vq_{family}/probabilities"] = q.probabilities
    q = _reflected_vq_grid()
    out["vq_ncx2_reflected/codewords"] = q.codewords
    out["vq_ncx2_reflected/probabilities"] = q.probabilities
    for name in LAW_NAMES:
        out[f"law_{name}"] = _law_values(name)
    return out


@pytest.fixture(scope="module")
def golden():
    with np.load(DATA) as data:
        return dict(data)


@pytest.mark.parametrize("case", CASES, ids=lambda c: _case_name(*c))
def test_paper_sequence_matches_golden(golden, case):
    name = _case_name(*case)
    seq, prices = _run_case(*case)
    assert seq.n_steps == PAPER.K
    for k in range(seq.n_steps):
        np.testing.assert_allclose(seq.codewords[k],
                                   golden[f"{name}/codewords/{k}"],
                                   rtol=RTOL, atol=0.0)
        np.testing.assert_allclose(seq.probabilities[k],
                                   golden[f"{name}/probabilities/{k}"],
                                   rtol=0.0, atol=ATOL)
    np.testing.assert_allclose(prices, golden[f"{name}/prices"],
                               rtol=RTOL, atol=0.0)


def test_row_block_sequence_matches_golden(golden):
    seq = _block_run()
    assert seq.n_steps == BLOCK_SCHEDULE.K
    assert seq.codewords[0].size == BLOCK_SCHEDULE.n_per_step
    for k in range(seq.n_steps):
        np.testing.assert_allclose(seq.codewords[k],
                                   golden[f"{BLOCK_CASE}/codewords/{k}"],
                                   rtol=RTOL, atol=0.0)
        np.testing.assert_allclose(seq.probabilities[k],
                                   golden[f"{BLOCK_CASE}/probabilities/{k}"],
                                   rtol=0.0, atol=ATOL)


@pytest.mark.parametrize("family,lam", VQ_CASES, ids=("normal", "ncx2"))
def test_vq_grid_matches_golden(golden, family, lam):
    q = _vq_grid(family, lam)
    np.testing.assert_allclose(q.codewords, golden[f"vq_{family}/codewords"],
                               rtol=RTOL, atol=0.0)
    np.testing.assert_allclose(q.probabilities,
                               golden[f"vq_{family}/probabilities"],
                               rtol=0.0, atol=ATOL)


def test_reflected_vq_grid_matches_golden(golden):
    q = _reflected_vq_grid()
    np.testing.assert_allclose(q.codewords,
                               golden["vq_ncx2_reflected/codewords"],
                               rtol=RTOL, atol=0.0)
    np.testing.assert_allclose(q.probabilities,
                               golden["vq_ncx2_reflected/probabilities"],
                               rtol=0.0, atol=ATOL)


@pytest.mark.parametrize("name", LAW_NAMES)
def test_law_values_match_golden(golden, name):
    want = golden[f"law_{name}"]
    if name == "gbm_exact_marginal":
        want = want[:3]
    np.testing.assert_allclose(_law_values(name), want, rtol=RTOL, atol=0.0)


if __name__ == "__main__":
    DATA.parent.mkdir(exist_ok=True)
    np.savez_compressed(DATA, **build_golden())
    print(f"wrote {DATA}")
