"""Optimal quantization of a scalar distribution by Newton-Raphson.

A quantizer is a strictly increasing grid of N codewords; its Voronoi
regions on the support are the intervals between consecutive midpoints.
The squared-error distortion, its gradient and its tridiagonal Hessian
all reduce to differences of the distribution's cdf and first lower
partial expectation across the region boundaries; since the regions span
the support, D needs only the second moment E[X^2] besides:

    D        = E[X^2] - sum_i g_i (2 dM1_i - g_i dF_i)
    dD/dg_i  = 2 g_i dF_i - 2 dM1_i
    d2D/dg_i^2        = 2 dF_i + (f(r+_i)(g_i - g_{i+1}) + f(r-_i)(g_{i-1} - g_i)) / 2
    d2D/dg_i dg_{i+1} = f(r+_i)(g_i - g_{i+1}) / 2

where dF_i = F(r+_i) - F(r-_i) etc.  Setting the gradient to zero is the
centroid (Lloyd) condition: each codeword equals the conditional mean of
its region.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from ._newton import (StepEval, damped_newton, grid_fault, step_eval,
                      voronoi_edges)
from .distributions import ScalarDistribution


@dataclass(frozen=True)
class Quantizer:
    """A grid of codewords with their region probabilities."""

    codewords: np.ndarray
    probabilities: np.ndarray

    def __post_init__(self):
        cw = checked_grid(self.codewords)
        pr = np.asarray(self.probabilities, dtype=float)
        object.__setattr__(self, "codewords", cw)
        object.__setattr__(self, "probabilities", pr)
        if pr.shape != cw.shape:
            raise ValueError("codewords and probabilities must be 1-d and aligned")
        if not np.all((pr >= -1e-12) & (pr <= 1.0 + 1e-12)):
            raise ValueError("probabilities must lie in [0, 1]")


@dataclass(frozen=True)
class RegionBounds:
    """Per-region lower/upper boundaries (Voronoi cells of the grid)."""

    lowers: np.ndarray
    uppers: np.ndarray

    @property
    def edges(self) -> np.ndarray:
        """The N+1 distinct boundary points, first lower through last upper."""
        return np.concatenate([self.lowers, self.uppers[-1:]])


def checked_grid(codewords, support=(-np.inf, np.inf)) -> np.ndarray:
    """``codewords`` as a float array; a ValueError unless they are a grid
    on ``support`` (:func:`rmquant._newton.grid_fault`)."""
    gam = np.asarray(codewords, dtype=float)
    fault = grid_fault(gam, *support)
    if fault is not None:
        raise ValueError(fault)
    return gam


def region_boundaries(codewords, support=(-np.inf, np.inf)) -> RegionBounds:
    """Voronoi region bounds: midpoints inside, support ends outside."""
    edges = voronoi_edges(checked_grid(codewords, support), *support)
    return RegionBounds(lowers=edges[:-1], uppers=edges[1:])


def _edge_diffs(dist: ScalarDistribution, edges: np.ndarray):
    """cdf and M1 increments per region, plus pdf at the inner edges."""
    f, F, M1 = dist.fFM(edges)
    return np.diff(F), np.diff(M1), f[1:-1]


def distortion(dist: ScalarDistribution, codewords) -> float:
    """Expected squared quantization error of the grid under ``dist``.

    Requires the distribution's ``second_moment``.
    """
    if dist.second_moment is None:
        raise ValueError("distortion needs the distribution's second_moment")
    gam = np.asarray(codewords, dtype=float)
    dF, dM1, _ = _edge_diffs(dist, region_boundaries(gam, dist.support).edges)
    return float(dist.second_moment - np.sum(gam * (2.0 * dM1 - gam * dF)))


def distortion_gradient(dist: ScalarDistribution, codewords) -> np.ndarray:
    """Gradient of the distortion with respect to each codeword."""
    return _evaluate(dist, checked_grid(codewords, dist.support)).grad


def distortion_hessian(dist: ScalarDistribution, codewords) -> np.ndarray:
    """Dense symmetric tridiagonal Hessian of the distortion."""
    ev = _evaluate(dist, checked_grid(codewords, dist.support))
    off = ev.hess_off
    return np.diag(ev.hess_diag) + np.diag(off, 1) + np.diag(off, -1)


def _evaluate(dist: ScalarDistribution, gam: np.ndarray) -> StepEval:
    dF, dM1, f_inner = _edge_diffs(dist, voronoi_edges(gam, *dist.support))
    return step_eval(gam, dF, 0.0, dM1, f_inner, aux=dF)


def newton_quantize(dist: ScalarDistribution, gamma0, n_max: int) -> Quantizer:
    """Quantize ``dist`` starting from the grid ``gamma0``.

    Runs at most ``n_max`` safeguarded Newton iterations (early exit once
    the gradient sup-norm falls below 1e-12) and returns the final grid
    with the probabilities of its regions.
    """
    if n_max < 1:
        raise ValueError("n_max must be >= 1")
    gam, ev = damped_newton(checked_grid(gamma0, dist.support),
                            lambda g: _evaluate(dist, g), n_max,
                            *dist.support)
    return Quantizer(codewords=gam, probabilities=np.maximum(ev.aux, 0.0))


def initial_guess(family: str, n: int, lam: Optional[float] = None) -> np.ndarray:
    """Starting grids that put Newton in the basin of attraction.

    ``normal``: n equally spaced points spanning about +/-2.75.
    ``ncx2``: squares of an affine ramp whose placement switches on
    sqrt(lam) = 2.5, matching the bimodal-to-Gaussian shape transition of
    the 1-dof noncentral chi-squared family.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    k = np.arange(1, n + 1, dtype=float)
    if family == "normal":
        return 5.5 * k / (n + 1) - 2.75
    if family == "ncx2":
        if lam is None or lam < 0.0:
            raise ValueError("ncx2 initial guess needs lam >= 0")
        sl = np.sqrt(lam)
        if sl < 2.5:
            return ((3.0 + sl) * k / n) ** 2
        return (5.0 * k / (n + 1) - 2.5 + sl) ** 2
    raise ValueError(f"unknown family {family!r}")
