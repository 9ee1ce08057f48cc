"""Damped Newton iteration on a tridiagonal system, and the distortion
derivatives it consumes, shared by the single-distribution quantizer and
the recursive marginal engine.

The objective's Hessian is symmetric tridiagonal, so each iteration is an
O(N) banded solve.  A full Newton step is accepted only if the trial grid
passes :func:`grid_fault` and does not increase the gradient sup-norm;
otherwise the step is halved, up to 30 times, and as a last resort one
Lloyd centroid step replaces the Newton step.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Optional

import numpy as np
from scipy.linalg import LinAlgError
from scipy.linalg.lapack import dgtsv

GRAD_TOL = 1e-12        # early exit: below Phi-evaluation accuracy
DIAG_FLOOR = 1e-12      # keeps the banded solve nonsingular for empty regions
MAX_HALVINGS = 30


@dataclass
class StepEval:
    """Gradient, Hessian bands and Lloyd centroids at one candidate grid."""

    grad: np.ndarray        # length N
    hess_diag: np.ndarray   # length N
    hess_off: np.ndarray    # length N-1 (super/sub diagonal, symmetric)
    centroids: np.ndarray   # conditional means per region (Lloyd update)
    aux: Any = None         # caller-specific payload (probabilities, matrices)


def voronoi_edges(gam: np.ndarray, lo: float, hi: float) -> np.ndarray:
    """The N+1 region boundaries of a grid: ``lo``, the midpoints, ``hi``."""
    edges = np.empty(gam.size + 1)
    edges[0] = lo
    edges[-1] = hi
    edges[1:-1] = 0.5 * (gam[:-1] + gam[1:])
    return edges


def grid_fault(gam: np.ndarray, lo=-np.inf, hi=np.inf) -> Optional[str]:
    """Why the float array ``gam`` is not a grid on the open (lo, hi), or
    None.  Adjacent floats can have equal midpoints, so the region
    boundaries must be strictly increasing too, not just the codewords."""
    if gam.ndim != 1 or gam.size == 0 or not np.all(np.isfinite(gam)):
        return "codewords must be a finite, nonempty 1-d vector"
    if np.any(np.diff(gam) <= 0.0):
        return "codewords must be strictly increasing"
    if not (gam[0] > lo and gam[-1] < hi):
        return "codewords must lie strictly inside the support"
    if np.any(np.diff(voronoi_edges(gam, lo, hi)) <= 0.0):
        return "codewords are too close: region boundaries collapse"
    return None


def step_eval(gam, mass, loc_moment, scale_moment, edge_density,
              aux=None) -> StepEval:
    """Distortion derivatives and centroids from per-region quantities.

    ``mass`` and ``loc_moment + scale_moment`` are each region's
    probability and first partial moment, ``edge_density`` the density at
    the inner boundaries (formulas in :mod:`rmquant.vq1d`).  The moment
    comes in two parts, summed in this order; a single law passes 0.0 as
    ``loc_moment``.
    """
    grad = 2.0 * (gam * mass - loc_moment - scale_moment)
    off = -0.5 * edge_density * (gam[1:] - gam[:-1])
    diag = 2.0 * mass
    diag[:-1] += off
    diag[1:] += off
    occupied = mass > 1e-300
    cent = np.where(occupied,
                    (loc_moment + scale_moment) / np.where(occupied, mass, 1.0),
                    gam)
    return StepEval(grad=grad, hess_diag=diag, hess_off=off, centroids=cent,
                    aux=aux)


def solve_tridiag(diag, off, rhs):
    """Solve the symmetric tridiagonal system H x = rhs.

    One LAPACK ``dgtsv`` call, the routine ``scipy.linalg.solve_banded``
    runs for a (1, 1) band, with its two errors: ValueError for a
    non-finite band or right-hand side, LinAlgError for a singular H.
    """
    n = diag.shape[0]
    if n == 1:
        return rhs / diag
    if not all(np.isfinite(a).all() for a in (diag, off, rhs)):
        raise ValueError("array must not contain infs or NaNs")
    _, _, _, x, info = dgtsv(off, diag, off, rhs)
    if info > 0:
        raise LinAlgError("singular matrix")
    return x


def damped_newton(gamma0: np.ndarray,
                  evaluate: Callable[[np.ndarray], StepEval],
                  n_iter: int,
                  lo: float = -np.inf,
                  hi: float = np.inf):
    """Run up to ``n_iter`` safeguarded Newton steps from ``gamma0``.

    ``evaluate`` maps a grid to a :class:`StepEval`.  Every grid it is
    given after ``gamma0`` passes :func:`grid_fault` on the open bounds
    ``lo``/``hi``.  Returns the final grid together with its
    evaluation, which is always consistent with the returned grid.
    """
    gam = np.asarray(gamma0, dtype=float)
    ev = evaluate(gam)
    for _ in range(n_iter):
        g0 = float(np.max(np.abs(ev.grad)))
        if not np.isfinite(g0) or g0 < GRAD_TOL:
            break
        step = solve_tridiag(np.maximum(ev.hess_diag, DIAG_FLOOR),
                             ev.hess_off, ev.grad)
        accepted = None
        alpha = 1.0
        for _ in range(MAX_HALVINGS + 1):
            trial = gam - alpha * step
            if grid_fault(trial, lo, hi) is None:
                trial_ev = evaluate(trial)
                gt = float(np.max(np.abs(trial_ev.grad)))
                if gt <= g0 or gt < GRAD_TOL:
                    accepted = (trial, trial_ev)
                    break
            alpha *= 0.5
        if accepted is None:
            # Lloyd fallback: move every codeword to its region centroid.
            trial = ev.centroids
            if grid_fault(trial, lo, hi) is not None:
                break  # nothing safe left to do; keep the current grid
            accepted = (trial, evaluate(trial))
        gam, ev = accepted
    return gam, ev
