"""Independent reference prices and distributions.

Three oracles validate the quantization pricers without sharing any of
their numerical machinery (only the normal cdf is common):

* Black-Scholes closed forms for GBM European options.
* A Monte Carlo engine with counter-based per-path random streams,
  optional exact lognormal stepping for GBM, and absorbing/reflecting
  behaviour at zero for models that need it.
* A Crank-Nicolson finite-difference solver for Bermudan (and European)
  claims under a local-volatility model.  Its implicit operator is
  factored once per solve (LAPACK ``dgttrf``).  Each time step builds
  the right-hand side in place, on views made before the march, and
  back-substitutes it (``dgttrs``).  The payoff is checked for infs and
  NaNs at every node before the march, and the grid before each exercise
  and after the last step, not at every step.

Random stream discipline: path ``p`` always consumes the same slots of a
Philox counter stream keyed by the seed, so enlarging the path count
extends results without reshuffling earlier paths, and chunked generation
is bit-identical to one-shot generation.  That makes the paths' chunks
independent: ``simulate_terminal`` runs them on the thread pool of
``rmquant._pool``, each writing its own slice of the outputs, so its
output is the same at any worker count.  Each worker draws every chunk
it runs into the one normals buffer it holds for the call and steps the
chunk's states in place, so memory is set by the paths in flight, not
by the path count.  The fills (Philox draws and ``ndtri``) release the
interpreter lock and run on every worker at once, but only one worker
steps at a time: a step is a few numpy calls on one chunk, and two
workers stepping together hand the interpreter lock back and forth
between those calls and take longer than one after the other.  The
steps read their normals from a small step-major tile, refilled from
the stepping worker's buffer every few steps, so each step reads
contiguous memory.
"""

from __future__ import annotations

import threading
import warnings
from dataclasses import dataclass
from typing import Sequence, Tuple

import numpy as np
from numpy.random import Generator, Philox
from scipy.linalg import LinAlgError
from scipy.linalg.lapack import dgttrf, dgttrs
from scipy.special import ndtr, ndtri

from . import _pool
from .distributions import ScalarDistribution
from .pricing import VanillaPayoff
from .sde_models import SdeModel, integer_fields

# Paths in flight at once: each of the pool's workers simulates chunks of
# _CHUNK_PATHS / workers paths, drawing every chunk's normals into the one
# chunk x slots buffer it holds for the call, so the buffers together take
# about 29.5 MB at 1200 steps whatever the worker count.  One worker steps
# while the others fill, so the fills, which take most of the time, keep
# every core busy at this size.
_CHUNK_PATHS = 3072
# Steps read their normals from a step-major (_TILE_STEPS x chunk) tile,
# refilled every _TILE_STEPS steps in pieces of _TILE_PATHS paths, so each
# step reads a contiguous row, not a column of the paths x slots buffer.
# _TILE_STEPS normals are one 64-byte line of a path's row.
_TILE_STEPS = 8
_TILE_PATHS = 512


@dataclass(frozen=True)
class McConfig:
    """Monte Carlo run description; ``seed`` makes the run reproducible."""

    paths: int
    steps: int
    seed: int
    monitoring_stride: int = 1

    def __post_init__(self):
        integer_fields(self, "paths", "steps", "seed", "monitoring_stride")
        if self.paths < 1:
            raise ValueError("paths must be >= 1")
        if self.steps < 1:
            raise ValueError("steps must be >= 1")
        if self.monitoring_stride < 1 or self.steps % self.monitoring_stride:
            raise ValueError("steps must be divisible by monitoring_stride")
        if not 0 <= self.seed < 2 ** 128:   # the Philox key's range
            raise ValueError(f"seed must lie in [0, 2**128), got {self.seed}")


@dataclass(frozen=True)
class FdConfig:
    """Crank-Nicolson grid: time steps, space increments, upper bound."""

    time_steps: int
    space_steps: int
    s_max_mult: float = 4.0

    def __post_init__(self):
        integer_fields(self, "time_steps", "space_steps")
        if self.time_steps < 1:
            raise ValueError(f"time_steps must be >= 1, got {self.time_steps}")
        # scipy's dgttrf and dgttrs wrappers refuse a system of fewer than
        # three unknowns, the interior nodes
        if self.space_steps < 4:
            raise ValueError(f"space_steps must be >= 4, got {self.space_steps}")
        if not 0.0 < self.s_max_mult < np.inf:
            raise ValueError(f"s_max_mult must be positive and finite, "
                             f"got {self.s_max_mult}")


def black_scholes(kind: str, s0: float, strike: float, r: float,
                  sigma: float, T: float) -> float:
    """Black-Scholes value of a European call or put."""
    if kind not in ("call", "put"):
        raise ValueError(f"kind must be 'call' or 'put', got {kind!r}")
    if min(s0, strike, sigma, T) <= 0.0:
        raise ValueError("s0, strike, sigma and T must be positive")
    st = sigma * np.sqrt(T)
    d1 = (np.log(s0 / strike) + (r + 0.5 * sigma * sigma) * T) / st
    d2 = d1 - st
    disc_k = strike * np.exp(-r * T)
    if kind == "call":
        return float(s0 * ndtr(d1) - disc_k * ndtr(d2))
    return float(disc_k * ndtr(-d2) - s0 * ndtr(-d1))


def _slots(steps: int) -> int:
    """Stream draws per path: ``steps`` rounded up to a multiple of 4."""
    return 4 * ((steps + 3) // 4)


def _fill_normals(u: np.ndarray, seed: int, path_start: int,
                  steps: int) -> np.ndarray:
    """``path_normals`` for ``len(u)`` paths, drawn into ``u``, a C-ordered
    (paths x slots) float64 array; returns the normals' view of ``u``."""
    bg = Philox(key=seed)
    bg.advance(path_start * u.shape[1] // 4)
    Generator(bg).random(out=u)
    z = u[:, :steps]
    z += 2.0 ** -54
    return ndtri(z, out=z)


def path_normals(seed: int, path_start: int, n_paths: int,
                 steps: int) -> np.ndarray:
    """Standard normal draws for paths [path_start, path_start + n_paths).

    Each path owns a fixed block of the Philox stream: ``slots`` draws per
    path where ``slots`` rounds ``steps`` up to a multiple of 4 (Philox
    advances in blocks of four 64-bit outputs).  Uniform draws are mapped
    through the inverse normal cdf in place, one draw per normal, so the
    path-to-slot mapping is exact.  The result is a view of the uniforms'
    array; when ``steps`` is not a multiple of 4 its rows are strided.
    """
    u = np.empty((n_paths, _slots(steps)))
    return _fill_normals(u, seed, path_start, steps)


def simulate_terminal(model: SdeModel, s0: float, T: float, cfg: McConfig,
                      boundary: str = "free", stepping: str = "euler",
                      want_running_max: bool = False):
    """Terminal states (and optionally the running monitored maximum).

    ``stepping`` is ``euler`` or ``gbm_exact`` (exact lognormal one-step
    transitions; GBM only).  The running maximum starts at ``s0`` and is
    refreshed every ``monitoring_stride`` steps.
    """
    if stepping not in ("euler", "gbm_exact"):
        raise ValueError(f"unknown stepping {stepping!r}")
    if stepping == "gbm_exact" and model.kind != "gbm":
        raise ValueError("exact stepping is only available for GBM")
    if boundary not in ("free", "absorbing", "reflecting"):
        raise ValueError(f"unknown boundary {boundary!r}")
    dt = T / cfg.steps
    sq = np.sqrt(dt)
    if stepping == "gbm_exact":
        p = model.params
        loc = (p.r - 0.5 * p.sigma ** 2) * dt
        scale = p.sigma * sq
    chunk = _CHUNK_PATHS // _pool.workers()
    shape = (min(chunk, cfg.paths), _slots(cfg.steps))
    term = np.full(cfg.paths, float(s0))
    running = np.full(cfg.paths, float(s0))
    # One normals buffer per worker, refilled for every chunk it runs; the
    # buffers are freed with ``local`` when the call returns.  Workers fill
    # at once but step one at a time, under ``stepper``, so one tile serves
    # the call and one set of step temporaries is live at a time.
    local = threading.local()
    stepper = threading.Lock()
    tiles = np.empty((_TILE_STEPS, shape[0]))

    def run(start):
        # Chunks own disjoint slices of the outputs and step them in place.
        s = term[start:start + chunk]
        smax = running[start:start + chunk]
        n = s.size
        if not hasattr(local, "normals"):
            local.normals = np.empty(shape)
        z = _fill_normals(local.normals[:n], cfg.seed, start, cfg.steps)
        with stepper:
            ta, tb = np.empty(n), np.empty(n)
            s_eval = np.empty(n) if boundary == "absorbing" else s
            dead = np.zeros(n, dtype=bool)
            # Each step keeps the operands and order of its plain formula, so
            # the values are unchanged; what model.a and model.b return is only
            # read, since a model may return its input.
            for j in range(cfg.steps):
                k = j % _TILE_STEPS
                if k == 0:
                    # the normals of the next _TILE_STEPS steps, fewer at the
                    # end, become the tile's rows
                    tile = tiles[:min(_TILE_STEPS, cfg.steps - j), :n]
                    for p0 in range(0, n, _TILE_PATHS):
                        p1 = p0 + _TILE_PATHS
                        np.copyto(tile[:, p0:p1], z[p0:p1, j:j + len(tile)].T)
                zj = tile[k]
                if stepping == "gbm_exact":
                    # s = s * exp(loc + scale * z)
                    np.multiply(scale, zj, out=ta)
                    np.add(loc, ta, out=ta)
                    np.exp(ta, out=ta)
                    s *= ta
                else:
                    if boundary == "absorbing":
                        # dead paths sit at 0 and are evaluated at 1
                        np.copyto(s_eval, s)
                        np.copyto(s_eval, 1.0, where=dead)
                    # s = s + (a(s) dt + b(s) sq z)
                    np.multiply(model.a(s_eval), dt, out=ta)
                    np.multiply(model.b(s_eval), sq, out=tb)
                    tb *= zj
                    ta += tb
                    s += ta
                    if boundary == "absorbing":
                        # a path dies at its first step to <= 0 and stays at 0
                        dead |= s <= 0.0
                        np.copyto(s, 0.0, where=dead)
                    elif boundary == "reflecting":
                        np.abs(s, out=s)
                if want_running_max and (j + 1) % cfg.monitoring_stride == 0:
                    np.maximum(smax, s, out=smax)

    _pool.pmap(run, range(0, cfg.paths, chunk))
    if want_running_max:
        return term, running
    return term


def mc_estimate(vals: np.ndarray) -> Tuple[float, float]:
    """Mean and standard error of discounted path payoffs (SE 0 for one path)."""
    mean = float(np.mean(vals))
    if vals.size == 1:
        return mean, 0.0
    return mean, float(np.std(vals, ddof=1) / np.sqrt(vals.size))


def empirical_cdf(model: SdeModel, s0: float, t: float, samples: int,
                  seed: int, stepping: str = "euler", steps: int = 1200,
                  boundary: str = "free") -> ScalarDistribution:
    """Step-function CDF (and partial first moment) of simulated states.

    Serves as the reference marginal where no closed form is in scope.
    Its density is 0, the derivative of the step function between atoms.
    """
    if samples < 1:
        raise ValueError("need at least one sample")
    cfg = McConfig(paths=samples, steps=steps, seed=seed)
    term = np.sort(simulate_terminal(model, s0, t, cfg, boundary, stepping))
    prefix = np.concatenate([[0.0], np.cumsum(term)]) / samples

    def fFM(x):
        x = np.asarray(x, dtype=float)
        return (np.zeros_like(x),
                np.searchsorted(term, x, side="right") / samples,
                prefix[np.searchsorted(term, x, side="left")])

    return ScalarDistribution(fFM=fFM, support=(-np.inf, np.inf))


def cn_bermudan(model: SdeModel, s0: float, T: float, r: float,
                payoff: VanillaPayoff, exercise_dates: Sequence[float],
                cfg: FdConfig) -> float:
    """Crank-Nicolson value with optional early exercise dates.

    Solves v_t + b(s)^2/2 v_ss + a(s) v_s - r v = 0 backward from the
    terminal payoff on [0, s_max_mult * s0].  Boundary conditions: the
    value is pinned to the intrinsic payoff at s = 0 and the second
    derivative vanishes at the upper edge.  At each exercise date the
    element-wise max with the intrinsic payoff is applied.  With no
    exercise dates this is a European solver.
    """
    if cfg.time_steps < 50 or cfg.space_steps < 100:
        warnings.warn("coarse Crank-Nicolson grid; values near payoff kinks "
                      "may oscillate", stacklevel=2)
    m = cfg.space_steps
    s_max = cfg.s_max_mult * s0
    ds = s_max / m
    s = np.linspace(0.0, s_max, m + 1)
    dtf = T / cfg.time_steps

    v = payoff.values(s)
    v0 = float(v[0])  # intrinsic value pinned at s = 0; v[0] stays v0

    si = s[1:-1]
    adv = model.a(si)
    dif = 0.5 * model.b(si) ** 2
    # Tridiagonal generator L on the interior nodes.
    l_low = dif / ds ** 2 - adv / (2.0 * ds)
    l_mid = -2.0 * dif / ds ** 2 - r
    l_up = dif / ds ** 2 + adv / (2.0 * ds)

    def bands(sign):
        low = sign * 0.5 * dtf * l_low
        mid = 1.0 + sign * 0.5 * dtf * l_mid
        up = sign * 0.5 * dtf * l_up
        # Fold the zero-gamma condition v_M = 2 v_{M-1} - v_{M-2} into the
        # last interior row so the system stays tridiagonal.
        mid[-1] += 2.0 * up[-1]
        low[-1] -= up[-1]
        up[-1] = 0.0
        return low, mid, up

    a_low, a_mid, a_up = bands(-1.0)
    b_low, b_mid, b_up = bands(+1.0)

    exercise_steps = set()
    for d in exercise_dates:
        if not 0.0 < d <= T:
            raise ValueError("exercise dates must lie in (0, T]")
        n = int(round((T - d) / dtf))
        if 1 <= n <= cfg.time_steps:
            exercise_steps.add(n)

    # Factor the implicit operator once.  dgttrf and dgttrs are the factor
    # and solve halves of the dgtsv that solve_banded((1, 1), ...) runs, so
    # every step's values are unchanged.  Its singularity error is kept, and
    # its finiteness error: the bands are checked here, the payoff at every
    # node before the march, and the grid before each exercise and after
    # the last step.  A non-finite value that reaches a right-hand side
    # stays non-finite through the sums, the products by finite factors and
    # the divisions by checked pivots; only np.maximum could turn an -inf
    # into the payoff's value.  The payoff's top node enters the grid only
    # through an exercise and the next step overwrites it, so it is checked
    # up front, whatever the exercise dates.
    *lu, info = dgttrf(*(np.asarray_chkfinite(x)
                         for x in (a_low[1:], a_mid, a_up[:-1])))
    if info > 0:
        raise LinAlgError("singular matrix")

    # Each step works on views made here; v is only written in place.
    intrinsic = np.asarray_chkfinite(v).copy()
    inner, below, above = v[1:-1], v[1:-2], v[2:-1]
    rhs = np.empty(m - 1)
    term = np.empty(m - 1)
    rhs_lo, term_lo, b_lo = rhs[1:], term[1:], b_low[1:]
    rhs_hi, term_hi, b_hi = rhs[:-1], term[:-1], b_up[:-1]
    rhs0 = (b_low[0] - a_low[0]) * v0
    for n in range(1, cfg.time_steps + 1):
        np.multiply(b_mid, inner, out=rhs)
        np.multiply(b_lo, below, out=term_lo)
        rhs_lo += term_lo
        np.multiply(b_hi, above, out=term_hi)
        rhs_hi += term_hi
        rhs[0] += rhs0
        x, _ = dgttrs(*lu, rhs, overwrite_b=True)   # x is rhs, overwritten
        inner[...] = x
        v[-1] = 2.0 * x[-1] - x[-2]
        if n in exercise_steps:
            np.asarray_chkfinite(v)
            np.maximum(v, intrinsic, out=v)
    np.asarray_chkfinite(v)
    return float(np.interp(s0, s, v))
