"""The safeguards of the damped Newton loop, on synthetic evaluators, and
its tridiagonal solve."""

import numpy as np
import pytest
from scipy.linalg import LinAlgError, solve_banded

from rmquant._newton import (MAX_HALVINGS, StepEval, damped_newton,
                             solve_tridiag)

GAMMA0 = np.array([0.0, 1.0, 2.0])
TARGET = GAMMA0 + 0.5   # the stationary grid: gradient gam - TARGET


def quadratic(curvature=1.0, ascent=False, centroids=TARGET):
    """Evaluator of the gradient +-(gam - TARGET) with Hessian diagonal
    ``curvature``; it records every grid that it is given and every
    evaluation that it returns."""
    seen = []

    def evaluate(gam):
        grad = (TARGET - gam) if ascent else (gam - TARGET)
        ev = StepEval(grad=grad, hess_diag=np.full(gam.size, curvature),
                      hess_off=np.zeros(gam.size - 1), centroids=centroids)
        seen.append((gam.copy(), ev))
        return ev

    return evaluate, seen


def test_zero_budget_returns_the_start_and_its_evaluation():
    # the sequence loader's replay rests on this
    evaluate, seen = quadratic()
    start = GAMMA0.copy()
    gam, ev = damped_newton(start, evaluate, 0)
    assert gam is start and np.array_equal(start, GAMMA0)
    assert len(seen) == 1 and ev is seen[0][1]
    assert np.array_equal(seen[0][0], GAMMA0)


def test_step_is_accepted_after_halvings():
    # a Hessian 5 times too flat: the full step and one half overshoot and
    # raise the gradient sup-norm (4 and 1.5 times); a quarter step lowers it
    evaluate, seen = quadratic(curvature=0.2)
    gam, ev = damped_newton(GAMMA0, evaluate, 1)
    tried = [g for g, _ in seen[1:]]
    for alpha, g in zip((1.0, 0.5, 0.25), tried, strict=True):
        assert g == pytest.approx(GAMMA0 + 5.0 * alpha * 0.5)
    assert np.array_equal(gam, tried[-1]) and ev is seen[-1][1]
    assert np.max(np.abs(ev.grad)) == pytest.approx(0.125)


def test_lloyd_step_when_every_halving_fails():
    # an ascent gradient: every damped Newton step raises the sup-norm
    evaluate, seen = quadratic(ascent=True)
    gam, ev = damped_newton(GAMMA0, evaluate, 1)
    assert len(seen) == 1 + (MAX_HALVINGS + 1) + 1
    assert np.array_equal(gam, TARGET) and ev is seen[-1][1]
    assert np.array_equal(seen[-1][0], TARGET)


@pytest.mark.parametrize("centroids", [
    np.array([0.5, 0.5, 2.5]), np.array([0.5, np.nan, 2.5])],
    ids=["tied", "nan"])
def test_stops_on_the_current_grid_when_the_centroids_are_no_grid(centroids):
    evaluate, seen = quadratic(ascent=True, centroids=centroids)
    start = GAMMA0.copy()
    gam, ev = damped_newton(start, evaluate, 5)
    # the halvings of the first iteration, then the stop: the centroids are
    # never evaluated and the budget's other iterations never run
    assert len(seen) == 1 + (MAX_HALVINGS + 1)
    assert gam is start and np.array_equal(start, GAMMA0)
    assert ev is seen[0][1]


def banded_solve(diag, off, rhs):
    """The reference: scipy's banded solver on the (1, 1) band."""
    ab = np.zeros((3, diag.size))
    ab[0, 1:] = off
    ab[1] = diag
    ab[2, :-1] = off
    return solve_banded((1, 1), ab, rhs)


@pytest.mark.parametrize("n", [1, 2, 200, 1000])
def test_tridiagonal_solve_equals_solve_banded(n):
    rng = np.random.default_rng(n)
    for _ in range(5):
        off = rng.normal(size=n - 1)
        diag = rng.uniform(0.1, 3.0, n) + np.abs(np.pad(off, (0, 1)))
        diag += np.abs(np.pad(off, (1, 0)))
        rhs = rng.normal(size=n)
        got = solve_tridiag(diag, off, rhs)
        assert got.tobytes() == banded_solve(diag, off, rhs).tobytes()


def test_tridiagonal_solve_refuses_a_singular_system():
    # the first two rows are equal
    diag, off = np.array([1.0, 1.0, 1.0]), np.array([1.0, 0.0])
    with pytest.raises(LinAlgError, match="singular"):
        solve_tridiag(diag, off, np.ones(3))


@pytest.mark.parametrize("where", ["diag", "off", "rhs"])
def test_tridiagonal_solve_refuses_a_non_finite_system(where):
    parts = {"diag": np.full(4, 2.0), "off": np.full(3, 0.5),
             "rhs": np.ones(4)}
    parts[where][1] = np.nan
    with pytest.raises(ValueError, match="infs or NaNs"):
        solve_tridiag(parts["diag"], parts["off"], parts["rhs"])
