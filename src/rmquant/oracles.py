"""Independent reference prices and distributions.

Three oracles validate the quantization pricers without sharing any of
their numerical machinery (only the normal cdf is common):

* Black-Scholes closed forms for GBM European options.
* A Monte Carlo engine with counter-based per-path random streams,
  optional exact lognormal stepping for GBM, and absorbing/reflecting
  behaviour at zero for models that need it.
* A Crank-Nicolson finite-difference solver for Bermudan (and European)
  claims under a local-volatility model.

Random stream discipline: path ``p`` always consumes the same slots of a
Philox counter stream keyed by the seed, so enlarging the path count
extends results without reshuffling earlier paths, and chunked generation
is bit-identical to one-shot generation.  That makes the paths' chunks
independent: ``simulate_terminal`` runs them on the thread pool of
``rmquant._pool`` and concatenates them in path order, so its output is
the same at any worker count.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import Sequence, Tuple

import numpy as np
from numpy.random import Generator, Philox
from scipy.linalg import solve_banded
from scipy.special import ndtr, ndtri

from . import _pool
from .distributions import ScalarDistribution
from .pricing import VanillaPayoff
from .sde_models import SdeModel

# Paths in flight at once: each of the pool's workers simulates a chunk of
# _CHUNK_PATHS / workers paths, so the chunks' normal matrices together
# stay around 150 MB at 1200 steps whatever the worker count.
_CHUNK_PATHS = 16384


@dataclass(frozen=True)
class McConfig:
    """Monte Carlo run description; ``seed`` makes the run reproducible."""

    paths: int
    steps: int
    seed: int
    monitoring_stride: int = 1

    def __post_init__(self):
        if self.paths < 1:
            raise ValueError("paths must be >= 1")
        if self.steps < 1:
            raise ValueError("steps must be >= 1")
        if self.monitoring_stride < 1 or self.steps % self.monitoring_stride:
            raise ValueError("steps must be divisible by monitoring_stride")


@dataclass(frozen=True)
class FdConfig:
    """Crank-Nicolson grid: time steps, space increments, upper bound."""

    time_steps: int
    space_steps: int
    s_max_mult: float = 4.0

    def __post_init__(self):
        if self.time_steps < 1 or self.space_steps < 3:
            raise ValueError("grid sizes must be positive (>= 3 space steps)")
        if not self.s_max_mult > 0.0:
            raise ValueError("s_max_mult must be positive")


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


def path_normals(seed: int, path_start: int, n_paths: int,
                 steps: int) -> np.ndarray:
    """Standard normal draws for paths [path_start, path_start + n_paths).

    Each path owns a fixed block of the Philox stream: ``slots`` draws per
    path where ``slots`` rounds ``steps`` up to a multiple of 4 (Philox
    advances in blocks of four 64-bit outputs).  Uniform draws are mapped
    through the inverse normal cdf, one draw per normal, so the
    path-to-slot mapping is exact.
    """
    slots = 4 * ((steps + 3) // 4)
    bg = Philox(key=seed)
    bg.advance(path_start * slots // 4)
    u = Generator(bg).random((n_paths, slots))
    return ndtri(u[:, :steps] + 2.0 ** -54)


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

    def run(start):
        n = min(chunk, cfg.paths - start)
        z = path_normals(cfg.seed, start, n, cfg.steps)
        s = np.full(n, float(s0))
        smax = np.full(n, float(s0))
        dead = np.zeros(n, dtype=bool)
        for j in range(cfg.steps):
            if stepping == "gbm_exact":
                s = s * np.exp(loc + scale * z[:, j])
            else:
                s_eval = np.where(dead, 1.0, s)
                step = model.a(s_eval) * dt + model.b(s_eval) * sq * z[:, j]
                s_new = np.where(dead, 0.0, s + step)
                if boundary == "absorbing":
                    dead = dead | (s_new <= 0.0)
                    s = np.where(dead, 0.0, s_new)
                elif boundary == "reflecting":
                    s = np.abs(s_new)
                else:
                    s = s_new
            if want_running_max and (j + 1) % cfg.monitoring_stride == 0:
                np.maximum(smax, s, out=smax)
        return s, smax

    terminal, running = zip(*_pool.pmap(run, range(0, cfg.paths, chunk)))
    term = np.concatenate(terminal)
    if want_running_max:
        return term, np.concatenate(running)
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

    return ScalarDistribution(fFM=fFM, m2=None, support=(-np.inf, np.inf))


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
    v0 = float(v[0])  # intrinsic value pinned at s = 0

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
        mid = mid.copy()
        low = low.copy()
        up = up.copy()
        mid[-1] += 2.0 * up[-1]
        low[-1] -= up[-1]
        up[-1] = 0.0
        return low, mid, up

    a_low, a_mid, a_up = bands(-1.0)
    b_low, b_mid, b_up = bands(+1.0)

    ab = np.zeros((3, m - 1))
    ab[0, 1:] = a_up[:-1]
    ab[1] = a_mid
    ab[2, :-1] = a_low[1:]

    exercise_steps = set()
    for d in exercise_dates:
        if not 0.0 < d <= T:
            raise ValueError("exercise dates must lie in (0, T]")
        n = int(round((T - d) / dtf))
        if 1 <= n <= cfg.time_steps:
            exercise_steps.add(n)

    intrinsic = payoff.values(s)
    for n in range(1, cfg.time_steps + 1):
        inner = v[1:-1]
        rhs = b_mid * inner
        rhs[1:] += b_low[1:] * inner[:-1]
        rhs[:-1] += b_up[:-1] * inner[1:]
        rhs[0] += (b_low[0] - a_low[0]) * v0
        inner_new = solve_banded((1, 1), ab, rhs)
        v = np.empty_like(v)
        v[0] = v0
        v[1:-1] = inner_new
        v[-1] = 2.0 * inner_new[-1] - inner_new[-2]
        if n in exercise_steps:
            np.maximum(v, intrinsic, out=v)
    return float(np.interp(s0, s, v))
