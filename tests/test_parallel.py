"""The threaded kernels give the same bits at any worker count.

The mixture evaluator of ``rmq_engine`` splits a Newton evaluation into
column blocks on the pool of ``rmquant._pool``, and ``simulate_terminal``
runs its path chunks there; both must match a serial run exactly, the
evaluator must give one whole-matrix pass's bits at any block split and
with the per-thread workspaces it reuses, and a forked child must not
wait on threads it did not inherit.
"""

import multiprocessing
import os
import threading
import weakref

import numpy as np
import pytest

from rmquant import (McConfig, Schedule, _pool, affine_schemes, cev_model,
                     oracles, rmq_engine, rmq_run)
from rmquant._newton import step_eval
from rmquant.affine_schemes import UpdateBatch

from conftest import CEV_LOW_ALPHA

BOUNDARIES = ("free", "absorbing", "reflecting")
# law cells per block: many blocks, the default's few, and one block
BLOCK_CELLS = (5000, rmq_engine._BLOCK_CELLS, 10**9)
# mirrored ncx2 cells of CEV alpha=0.35 weak2 reflecting, K=4, N=600
MIRRORED_CELLS = 2_009_799


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
    return ev, np.concatenate(ev.aux, axis=1)


def blocked_evaluations(monkeypatch, batch, gam, boundary):
    """{(cells, workers): (evaluation, joined P, block count)} over
    ``BLOCK_CELLS`` and 1 or 2 workers."""
    out = {}
    for cells in BLOCK_CELLS:
        monkeypatch.setattr(rmq_engine, "_BLOCK_CELLS", cells)
        for n in (1, 2):
            ev, P = with_workers(monkeypatch, n, evaluation, batch, gam,
                                 boundary)
            out[cells, n] = ev, P, len(ev.aux)
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


def law_batch(kind, rows, rng):
    """Rows of normal, ncx2 or mixed (ncx2 with euler fallback) updates."""
    if kind == "mixed":
        return mixed_batch(rows, rng)
    ncx2 = np.full(rows, kind == "ncx2")
    lam = np.where(ncx2, rng.uniform(0.5, 200.0, rows), 0.0)
    return UpdateBatch(rng.uniform(0.05, 0.5, rows),
                       rng.uniform(-1.0, 2.0, rows), lam, ncx2,
                       np.zeros(rows, bool))


@pytest.mark.parametrize("cells", (5000, 10**9), ids=["blocks", "one-block"])
@pytest.mark.parametrize("kind", ("normal", "ncx2", "mixed"))
@pytest.mark.parametrize("boundary", BOUNDARIES)
def test_a_reused_evaluator_equals_fresh_ones(monkeypatch, boundary, kind,
                                              cells):
    # An evaluator assembles in the workspaces it keeps between its
    # evaluations: grids A, B, A, a grid of another size and B again give
    # a fresh evaluator's arrays, and no later evaluation writes an
    # earlier one's P.
    monkeypatch.setattr(rmq_engine, "_BLOCK_CELLS", cells)
    monkeypatch.setattr(_pool, "workers", lambda: 2)
    rng = np.random.default_rng(13)
    batch = law_batch(kind, 120, rng)
    a, b = grid(rng, 203, boundary), grid(rng, 203, boundary)
    prev = prev_probabilities(batch.size)
    evaluate = rmq_engine._mixture_evaluator(prev, batch, boundary)
    kept = []
    for gam in (a, b, a, grid(rng, 97, boundary), b):
        ev = evaluate(gam)
        fresh = rmq_engine._mixture_evaluator(prev, batch, boundary)(gam)
        assert_same_evaluation((ev, np.concatenate(ev.aux, axis=1)),
                               (fresh, np.concatenate(fresh.aux, axis=1)))
        kept.append((ev.aux, [P.copy() for P in ev.aux]))
    assert (len(kept[0][0]) > 1) == (cells == 5000)
    for blocks, copies in kept:
        for P, copy in zip(blocks, copies, strict=True):
            assert np.array_equal(P, copy)


@pytest.mark.parametrize("cells", (8000, 10**9), ids=["blocks", "one-block"])
def test_workspaces_live_for_their_run(monkeypatch, gbm, cells):
    # Each thread that assembles a block makes one workspace, on its first
    # block: the calling thread for a lone block, the pool's threads for
    # more.  Later steps reuse it, and none outlives the run.
    monkeypatch.setattr(_pool, "workers", lambda: 2)
    monkeypatch.setattr(rmq_engine, "_BLOCK_CELLS", cells)
    made = []

    class Recorded(rmq_engine.Workspace):
        def __init__(self):
            super().__init__()
            made.append((threading.current_thread(), weakref.ref(self)))

    monkeypatch.setattr(rmq_engine, "Workspace", Recorded)
    counts = []
    for _ in rmq_engine.rmq_steps(gbm, "weak2", 100.0,
                                  Schedule(T=1.0, K=3, n_per_step=150)):
        counts.append(len(made))
        assert all(ref() is not None for _, ref in made)
    # step 1 has one row, so one block; later steps split at 8000 cells
    assert counts == ([1, 3, 3] if cells == 8000 else [1, 1, 1])
    assert len({thread for thread, _ in made}) == len(made)
    assert all(ref() is None for _, ref in made)


def test_workspace_holds_at_most_13_values_per_law_cell(monkeypatch,
                                                        cev_low_alpha):
    # CEV alpha=0.35 weak2 reflecting at N=200 assembles one block of
    # 200 x 201 law cells: the base and mirrored triples, the arguments,
    # the ncx2 temporaries the two laws share, and M.
    made = []

    class Recorded(rmq_engine.Workspace):
        def __init__(self):
            super().__init__()
            made.append(self)

    monkeypatch.setattr(rmq_engine, "Workspace", Recorded)
    rmq_run(cev_low_alpha, "weak2", CEV_LOW_ALPHA.s0,
            Schedule(T=1.0, K=3, n_per_step=200), "reflecting")
    assert len(made) == 1
    held = sum(buf.nbytes for buf in made[0]._buffers.values())
    assert held <= 13 * 8 * 200 * 201


def test_runs_interleaved_on_two_threads_equal_serial_runs(
        monkeypatch, gbm, cev_low_alpha):
    # Two runs step by step in lock-step on two threads, each evaluation
    # in several column blocks on the pool: every pool thread holds a
    # workspace of each run's current evaluator.
    monkeypatch.setattr(_pool, "workers", lambda: 2)
    monkeypatch.setattr(rmq_engine, "_BLOCK_CELLS", 8000)
    sched = Schedule(T=1.0, K=4, n_per_step=150)
    runs = [(cev_low_alpha, "weak2", CEV_LOW_ALPHA.s0, sched, "reflecting"),
            (gbm, "euler", 100.0, sched, "free")]
    serial = [rmq_run(*args) for args in runs]
    barrier = threading.Barrier(2, timeout=60)
    out = [None, None]

    def run(i):
        steps = []
        for step in rmq_engine.rmq_steps(*runs[i]):
            steps.append(step)
            barrier.wait()
        out[i] = steps

    threads = [threading.Thread(target=run, args=(i,)) for i in range(2)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(120)
    assert not any(t.is_alive() for t in threads)
    for seq, steps in zip(serial, out, strict=True):
        cw, p, P = zip(*steps)
        for got, want in ((cw, seq.codewords), (p, seq.probabilities),
                          (P[1:], seq.transitions)):
            for g, w in zip(got, want, strict=True):
                assert np.array_equal(g, w)


def test_reflected_fold_evaluates_one_block_of_rows_and_columns(
        monkeypatch, cev_low_alpha):
    # A column block spans all rows.  The mirrored ncx2 law is 0 below 0,
    # so the fold evaluates it on the rows and columns from the first to
    # the last with some mirrored argument >= 0; rows near the boundary
    # widen the columns, columns near it the rows.  CEV alpha=0.35 weak2
    # reflecting at N=600 is three column blocks per evaluation; a column
    # cut alone evaluates 4,885,666 mirrored cells there.
    cells = []
    fold = affine_schemes.reflect_fFM

    def counting(law, x, *args, **kwargs):
        def counted(y, rows):
            cells.append(y.size)
            return law(y, rows)
        return fold(counted, x, *args, **kwargs)

    monkeypatch.setattr(affine_schemes, "reflect_fFM", counting)
    rmq_run(cev_low_alpha, "weak2", CEV_LOW_ALPHA.s0,
            Schedule(T=1.0, K=4, n_per_step=600), "reflecting")
    assert sum(cells) == MIRRORED_CELLS


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


@pytest.mark.parametrize("boundary", ["absorbing", "reflecting"])
def test_exact_cev_chunks_are_bit_identical(monkeypatch, boundary):
    # The exact CEV steps run on every worker at once, outside the lock
    # that takes the Euler and exact GBM steps one worker at a time.
    model = cev_model(CEV_LOW_ALPHA)
    cfg = McConfig(paths=20001, steps=4, seed=5, monitoring_stride=2)

    def run():
        return oracles.simulate_terminal(model, CEV_LOW_ALPHA.s0, 1.0, cfg,
                                         boundary, "cev_exact",
                                         want_running_max=True)

    (t1, m1), (t2, m2) = (with_workers(monkeypatch, n, run) for n in (1, 2))
    assert np.array_equal(t1, t2) and np.array_equal(m1, m2)
    assert np.all(m1 >= CEV_LOW_ALPHA.s0)
    assert np.any(t1 == 0.0) == (boundary == "absorbing")


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
    assert len(ev.aux) == 4
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
