"""The threaded kernels give the same bits at any worker count.

The mixture evaluator of ``rmq_engine`` folds a large grid's Newton
evaluation into row blocks on the pool of ``rmquant._pool``, and
``simulate_terminal`` runs its path chunks there; both must match a
serial run exactly, and a forked child must not wait on threads it did
not inherit.
"""

import multiprocessing
import os

import numpy as np
import pytest

from rmquant import McConfig, _pool, cev_model, oracles, rmq_engine
from rmquant._newton import step_eval
from rmquant.affine_schemes import UpdateBatch

from conftest import CEV_LOW_ALPHA

BOUNDARIES = ("free", "absorbing", "reflecting")


def mixed_batch(rows, rng):
    """Rows of ncx2 updates with every seventh an euler fallback."""
    fallback = np.arange(rows) % 7 == 3
    lam = np.where(fallback, 0.0, rng.uniform(0.5, 200.0, rows))
    m = rng.uniform(0.05, 0.5, rows)
    c = rng.uniform(-1.0, 2.0, rows)
    return UpdateBatch(m, c, lam, ~fallback, fallback)


def with_workers(monkeypatch, n, fn, *args):
    monkeypatch.setattr(_pool, "workers", lambda: n)
    return fn(*args)


def prev_probabilities(rows):
    """Previous-step probabilities with one component of mass 0."""
    p = np.linspace(1.0, 2.0, rows)
    p[5] = 0.0
    return p / p.sum()


def evaluation(batch, gam, boundary):
    """One mixture evaluation at ``gam``, with its joined P."""
    ev = rmq_engine._mixture_evaluator(prev_probabilities(batch.size), batch,
                                       boundary)(gam)
    return ev, np.concatenate(ev.aux[0])


EVAL_FIELDS = ("grad", "hess_diag", "hess_off", "centroids")


@pytest.mark.parametrize("boundary", BOUNDARIES)
def test_block_assembly_is_bit_identical(monkeypatch, boundary):
    rng = np.random.default_rng(11)
    n_next = 1000
    rows = 150          # blocks of 66 rows at N = 1000: 66 + 66 + 18
    assert rows > 2 * -(-rmq_engine._BLOCK_CELLS // (n_next + 1))
    batch = mixed_batch(rows, rng)
    gam = np.sort(rng.uniform(0.01, 30.0, n_next))
    if boundary == "free":
        gam -= 5.0
    (ev1, P1), (ev2, P2) = (with_workers(monkeypatch, n, evaluation, batch,
                                         gam, boundary) for n in (1, 2))
    assert len(ev1.aux[0]) == 3
    for name in EVAL_FIELDS:
        assert np.array_equal(getattr(ev1, name), getattr(ev2, name))
    assert np.array_equal(P1, P2)
    # every cell of a block gets the bits of one whole-matrix pass
    whole, _, _ = rmq_engine._z_matrices(batch, gam, boundary)
    assert np.array_equal(P1, whole)
    assert np.all(P1 >= 0.0) and P1.sum(axis=1).max() <= 1.0 + 1e-12


@pytest.mark.parametrize("boundary", BOUNDARIES)
def test_one_block_evaluation_is_the_whole_matrix_pass(boundary):
    rng = np.random.default_rng(12)
    n_next = 200
    rows = 120
    assert rows <= -(-rmq_engine._BLOCK_CELLS // (n_next + 1))
    batch = mixed_batch(rows, rng)
    gam = np.sort(rng.uniform(0.01, 30.0, n_next))
    ev, P = evaluation(batch, gam, boundary)
    pw, absm = prev_probabilities(rows), np.abs(batch.m)
    Pz, M, f = rmq_engine._z_matrices(batch, gam, boundary)
    want = step_eval(gam, pw @ Pz, (pw * batch.c) @ Pz, (pw * absm) @ M,
                     (pw / absm) @ f)
    for name in EVAL_FIELDS:
        assert np.array_equal(getattr(ev, name), getattr(want, name))
    assert np.array_equal(P, Pz)


def test_monte_carlo_chunks_are_bit_identical(monkeypatch):
    model = cev_model(CEV_LOW_ALPHA)
    cfg = McConfig(paths=20001, steps=48, seed=5, monitoring_stride=4)

    def run():
        return oracles.simulate_terminal(model, CEV_LOW_ALPHA.s0, 1.0, cfg,
                                         "absorbing", want_running_max=True)

    (t1, m1), (t2, m2) = (with_workers(monkeypatch, n, run) for n in (1, 2))
    assert t1.shape == m1.shape == (cfg.paths,)
    assert np.array_equal(t1, t2) and np.array_equal(m1, m2)
    assert np.any(t1 == 0.0) and np.all(m1 >= CEV_LOW_ALPHA.s0)


@pytest.mark.parametrize("cpus, want", [(3, 3), (None, 1)])
def test_workers_without_sched_getaffinity(monkeypatch, cpus, want):
    # macOS and Windows have no os.sched_getaffinity
    model = cev_model(CEV_LOW_ALPHA)
    cfg = McConfig(paths=20001, steps=12, seed=9)

    def run():
        return oracles.simulate_terminal(model, CEV_LOW_ALPHA.s0, 1.0, cfg,
                                         "absorbing")

    before = run()
    monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: cpus)
    assert _pool.workers() == want
    assert np.array_equal(run(), before)


def forked_evaluation(batch, gam, conn):
    ev, P = evaluation(batch, gam, "free")
    conn.send((ev.grad, P))
    conn.close()


def test_forked_child_assembles_without_the_parents_threads(monkeypatch):
    monkeypatch.setattr(_pool, "workers", lambda: 2)
    batch = mixed_batch(300, np.random.default_rng(3))
    gam = np.linspace(-3.0, 40.0, 300)   # 301 edges: two row blocks
    ev, P = evaluation(batch, gam, "free")   # starts the pool
    assert len(ev.aux[0]) == 2
    ctx = multiprocessing.get_context("fork")
    recv, send = ctx.Pipe(duplex=False)
    child = ctx.Process(target=forked_evaluation, args=(batch, gam, send))
    child.start()
    send.close()
    try:
        assert recv.poll(60), "forked child did not finish its evaluation"
        got = recv.recv()
    finally:
        child.join(10)
        if child.is_alive():
            child.kill()
    assert not child.is_alive() and child.exitcode == 0
    for a, b in zip((ev.grad, P), got):
        assert np.array_equal(a, b)
