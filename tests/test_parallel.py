"""The threaded kernels give the same bits at any worker count.

``_z_matrices`` assembles large matrices in row blocks and
``simulate_terminal`` runs its path chunks on the pool of
``rmquant._pool``; both must match a serial run exactly, and a forked
child must not wait on threads it did not inherit.
"""

import multiprocessing
import os

import numpy as np
import pytest

from rmquant import McConfig, _pool, cev_model, oracles, rmq_engine
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


@pytest.mark.parametrize("boundary", BOUNDARIES)
def test_block_assembly_is_bit_identical(monkeypatch, boundary):
    rng = np.random.default_rng(11)
    n_next = 1000
    rows = 150          # blocks of 66 rows at N = 1000: 66 + 66 + 18
    assert rows > -(-rmq_engine._BLOCK_CELLS // (n_next + 1))
    batch = mixed_batch(rows, rng)
    gam = np.sort(rng.uniform(0.01, 30.0, n_next))
    if boundary == "free":
        gam -= 5.0
    one, two = (with_workers(monkeypatch, n, rmq_engine._z_matrices, batch,
                             gam, boundary) for n in (1, 2))
    monkeypatch.setattr(rmq_engine, "_BLOCK_CELLS", rows * (n_next + 1))
    whole = rmq_engine._z_matrices(batch, gam, boundary)
    for a, b, c in zip(one, two, whole):
        assert a.shape == c.shape
        assert np.array_equal(a, b)
        assert np.array_equal(a, c)
    P = one[0]
    assert np.all(P >= 0.0) and P.sum(axis=1).max() <= 1.0 + 1e-12


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


def forked_assembly(batch, gam, conn):
    conn.send(tuple(rmq_engine._z_matrices(batch, gam, "free")))
    conn.close()


def test_forked_child_assembles_without_the_parents_threads(monkeypatch):
    monkeypatch.setattr(_pool, "workers", lambda: 2)
    batch = mixed_batch(300, np.random.default_rng(3))
    gam = np.linspace(-3.0, 40.0, 300)   # 301 edges: two row blocks
    parent = rmq_engine._z_matrices(batch, gam, "free")   # starts the pool
    ctx = multiprocessing.get_context("fork")
    recv, send = ctx.Pipe(duplex=False)
    child = ctx.Process(target=forked_assembly, args=(batch, gam, send))
    child.start()
    send.close()
    try:
        assert recv.poll(60), "forked child did not finish its assembly"
        got = recv.recv()
    finally:
        child.join(10)
        if child.is_alive():
            child.kill()
    assert not child.is_alive() and child.exitcode == 0
    for a, b in zip(parent, got):
        assert np.array_equal(a, b)
