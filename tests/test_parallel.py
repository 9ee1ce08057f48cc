"""The threaded kernels give the same bits at any worker count.

The mixture evaluator of ``rmq_engine`` splits a Newton evaluation into
column blocks on the pool of ``rmquant._pool``, and ``simulate_terminal``
runs its path chunks there; both must match a serial run exactly, the
evaluator must give one whole-matrix pass's bits at any block split, and
a forked child must not wait on threads it did not inherit.
"""

import multiprocessing
import os
import threading

import numpy as np
import pytest

from rmquant import (McConfig, Schedule, _pool, cev_model, oracles,
                     rmq_engine, rmq_run)
from rmquant._newton import step_eval
from rmquant.affine_schemes import UpdateBatch

from conftest import CEV_LOW_ALPHA

BOUNDARIES = ("free", "absorbing", "reflecting")
# law cells per block: many blocks, the default's few, and one block
BLOCK_CELLS = (5000, rmq_engine._BLOCK_CELLS, 10**9)


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
    return ev, np.concatenate(ev.aux[0], axis=1)


def blocked_evaluations(monkeypatch, batch, gam, boundary):
    """{(cells, workers): (evaluation, joined P, block count)} over
    ``BLOCK_CELLS`` and 1 or 2 workers."""
    out = {}
    for cells in BLOCK_CELLS:
        monkeypatch.setattr(rmq_engine, "_BLOCK_CELLS", cells)
        for n in (1, 2):
            ev, P = with_workers(monkeypatch, n, evaluation, batch, gam,
                                 boundary)
            out[cells, n] = ev, P, len(ev.aux[0])
    return out


def grid(rng, n_next, boundary):
    gam = np.sort(rng.uniform(0.01, 30.0, n_next))
    return gam - 5.0 if boundary == "free" else gam


EVAL_FIELDS = ("grad", "hess_diag", "hess_off", "centroids")


def assert_same_evaluation(a, b):
    (ev1, P1), (ev2, P2) = a, b
    for name in EVAL_FIELDS:
        assert np.array_equal(getattr(ev1, name), getattr(ev2, name)), name
    assert np.array_equal(P1, P2)


@pytest.mark.parametrize("boundary", BOUNDARIES)
def test_block_assembly_is_bit_identical(monkeypatch, boundary):
    rng = np.random.default_rng(11)
    batch = mixed_batch(150, rng)
    # N mod 8 = 1: in 40-column blocks a last block of one column joins
    # the one before it
    gam = grid(rng, 1001, boundary)
    runs = blocked_evaluations(monkeypatch, batch, gam, boundary)
    assert [runs[c, 1][2] for c in BLOCK_CELLS] == [25, 3, 1]
    first = runs[BLOCK_CELLS[0], 1][:2]
    for ev, P, _ in runs.values():
        assert_same_evaluation((ev, P), first)
    P = first[1]
    assert P.shape == (150, 1001)
    assert np.all(P >= 0.0) and P.sum(axis=1).max() <= 1.0 + 1e-12


@pytest.mark.parametrize("boundary", BOUNDARIES)
def test_one_block_evaluation_is_the_whole_matrix_pass(monkeypatch, boundary):
    rng = np.random.default_rng(12)
    rows = 120
    batch = mixed_batch(rows, rng)
    gam = grid(rng, 203, boundary)
    pw, absm = prev_probabilities(rows), np.abs(batch.m)
    P, M, f = rmq_engine._z_matrices(
        batch, rmq_engine._next_edges(gam, boundary), boundary)
    whole = step_eval(gam, pw @ P, (pw * batch.c) @ P, (pw * absm) @ M,
                      (pw / absm) @ f[:, 1:-1]), P
    runs = blocked_evaluations(monkeypatch, batch, gam, boundary)
    assert [runs[c, 1][2] for c in BLOCK_CELLS] == [5, 1, 1]
    for ev, P, _ in runs.values():
        assert_same_evaluation((ev, P), whole)
    # only a lone block's M and f stay alive with the evaluation
    assert runs[BLOCK_CELLS[0], 1][0].aux[1] is None
    M1, f1 = runs[BLOCK_CELLS[-1], 1][0].aux[1]
    assert np.array_equal(M1, M) and np.array_equal(f1, f[:, 1:-1])


@pytest.mark.parametrize("cells", (1,) + BLOCK_CELLS[:2])
@pytest.mark.parametrize("n, n_next", [(1, 1000), (150, 5), (37, 203),
                                       (150, 1001), (1025, 1025)])
def test_aligned_column_slices_match_the_whole_product(monkeypatch, cells, n,
                                                       n_next):
    # The evaluator's column blocks give whole-matrix bits only if the BLAS
    # matrix-vector kernel treats each column of a block as in the whole
    # product; a BLAS that does not fails here by name.
    rng = np.random.default_rng(n_next)
    w = rng.uniform(0.0, 1.0, n)
    P = rng.uniform(-1.0, 1.0, (n, n_next))        # one column per region
    f = rng.uniform(-1.0, 1.0, (n, n_next + 1))    # one column per edge
    monkeypatch.setattr(rmq_engine, "_BLOCK_CELLS", cells)
    cuts = rmq_engine._column_blocks(n, n_next)
    assert cuts[0][0] == 0 and cuts[-1][1] == n_next
    assert all(a % 8 == 0 for a, _ in cuts)
    got = np.concatenate([w @ P[:, a:b].copy() for a, b in cuts])
    assert np.array_equal(got, w @ P)
    # the evaluator's f block: its edges a..b, of which it reads all but
    # the first, and not the last block's final edge
    got = np.concatenate([w @ f[:, a:b + 1].copy()[:, 1:n_next - a]
                          for a, b in cuts])
    assert np.array_equal(got, w @ f[:, 1:-1])


def test_ill_conditioned_run_does_not_depend_on_the_block_split(
        monkeypatch, cev_low_alpha):
    # CEV alpha=0.35 weak2 reflecting at N=600 amplifies rounding: adding
    # the mixture sums in another order moves its codewords by about 1e-5
    # relative.
    sched = Schedule(T=1.0, K=4, n_per_step=600)

    def run():
        return rmq_run(cev_low_alpha, "weak2", CEV_LOW_ALPHA.s0, sched,
                       "reflecting")

    blocked = run()
    monkeypatch.setattr(rmq_engine, "_BLOCK_CELLS", 10**9)
    whole = run()
    for name in ("codewords", "probabilities", "transitions"):
        for a, b in zip(getattr(blocked, name), getattr(whole, name),
                        strict=True):
            assert np.array_equal(a, b), name


def test_lone_item_runs_in_the_calling_thread(monkeypatch):
    monkeypatch.setattr(_pool, "workers", lambda: 2)
    here = threading.current_thread()
    assert _pool.pmap(lambda x: (x, threading.current_thread()), [7]) == \
        [(7, here)]
    assert here not in (t for _, t in _pool.pmap(
        lambda x: (x, threading.current_thread()), range(2)))


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
    monkeypatch.setattr(rmq_engine, "_BLOCK_CELLS", 30000)
    batch = mixed_batch(300, np.random.default_rng(3))
    gam = np.linspace(-3.0, 40.0, 300)   # 301 edges: four column blocks
    ev, P = evaluation(batch, gam, "free")   # starts the pool
    assert len(ev.aux[0]) == 4
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
    monkeypatch.setattr(rmq_engine, "_BLOCK_CELLS", 10**9)
    whole, P1 = evaluation(batch, gam, "free")
    assert np.array_equal(whole.grad, ev.grad) and np.array_equal(P1, P)
