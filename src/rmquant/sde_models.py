"""Scalar diffusion models: drift/diffusion coefficients and derivatives.

Each model exposes the drift a(x), the diffusion b(x) and their first and
second derivatives as vectorized callables, which is everything the
higher-order one-step schemes need.  Two models are provided:

    GBM:  dS = r S dt + sigma S dW           on (0, inf)
    CEV:  dS = r S dt + sigma S^alpha dW     on (0, inf)

For CEV the level coefficient is specified through the instantaneous
lognormal volatility: sigma = sigma_ln * s0^(1 - alpha), so that the
local relative volatility at the initial spot equals sigma_ln.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from typing import Callable, Tuple

import numpy as np
from scipy.special import ndtr

from .distributions import ScalarDistribution, norm_pdf

_CEV_EVAL_FLOOR = 1e-12  # guards x^(alpha-2) against underflow near zero


@dataclass(frozen=True)
class SdeModel:
    """Drift/diffusion functions with exact derivatives on a state domain.

    ``state_domain`` is the support of the continuous-time process;
    ``coef_domain`` is where the coefficient functions can actually be
    evaluated.  They differ for GBM: the process lives on (0, inf) but its
    linear coefficients extend to the whole line, so the discretized chain
    may carry (tiny-mass) negative codewords without failing.  CEV's
    power-law diffusion is undefined below zero, so there the two domains
    coincide and the quantization engine aborts if a grid escapes.
    """

    a: Callable
    a_x: Callable
    a_xx: Callable
    b: Callable
    b_x: Callable
    b_xx: Callable
    state_domain: Tuple[float, float]
    coef_domain: Tuple[float, float] = (-np.inf, np.inf)
    kind: str = "custom"
    params: object = None


def _check_fields(params, positive):
    """Refuse, naming it, a NaN or infinite ``r`` or ``positive`` field of
    ``params``, or a ``positive`` field that is not > 0."""
    for name in ("r", *positive):
        value = getattr(params, name)
        if not np.isfinite(value):
            raise ValueError(f"{name} must be finite, got {value}")
        if name in positive and not value > 0.0:
            raise ValueError(f"{name} must be positive")


def integer_fields(cfg, *names):
    """Store each named field of the frozen dataclass ``cfg`` as a Python
    int, or refuse it, naming it: a float size or seed would otherwise be
    truncated or fail deep inside a run."""
    for name in names:
        value = getattr(cfg, name)
        try:
            value = operator.index(value)
        except TypeError:
            raise ValueError(f"{name} must be an integer, got {value!r}") from None
        object.__setattr__(cfg, name, value)


@dataclass(frozen=True)
class GbmParams:
    s0: float
    r: float
    sigma: float

    def __post_init__(self):
        _check_fields(self, positive=("s0", "sigma"))


@dataclass(frozen=True)
class CevParams:
    s0: float
    r: float
    alpha: float
    sigma_ln: float

    def __post_init__(self):
        _check_fields(self, positive=("s0", "sigma_ln"))
        if not 0.0 < self.alpha < 1.0:
            raise ValueError("alpha must lie in (0, 1)")

    @property
    def sigma(self) -> float:
        """Level coefficient sigma = sigma_ln * s0^(1 - alpha)."""
        return self.sigma_ln * self.s0 ** (1.0 - self.alpha)


def gbm_model(p: GbmParams) -> SdeModel:
    """Geometric Brownian motion: linear drift and diffusion."""
    r, sigma = p.r, p.sigma
    return SdeModel(
        a=lambda x: r * np.asarray(x, dtype=float),
        a_x=lambda x: np.full_like(np.asarray(x, dtype=float), r),
        a_xx=lambda x: np.zeros_like(np.asarray(x, dtype=float)),
        b=lambda x: sigma * np.asarray(x, dtype=float),
        b_x=lambda x: np.full_like(np.asarray(x, dtype=float), sigma),
        b_xx=lambda x: np.zeros_like(np.asarray(x, dtype=float)),
        state_domain=(0.0, np.inf),
        coef_domain=(-np.inf, np.inf),
        kind="gbm",
        params=p,
    )


class CoefficientDomainError(ValueError):
    """A coefficient was evaluated off its domain: a numerical failure."""


def _cev_positive(x):
    """``x`` as a float array, floored at ``_CEV_EVAL_FLOOR``; refuses a
    state <= 0.  One ``min`` pass clears the common input: a NaN makes the
    minimum NaN, which takes the full check."""
    x = np.asarray(x, dtype=float)
    if x.size and x.min() >= _CEV_EVAL_FLOOR:
        return x
    if np.any(x <= 0.0):
        raise CoefficientDomainError(
            "CEV coefficients are only defined for x > 0; for processes that "
            "can reach zero, rerun with an absorbing or reflecting boundary")
    return np.maximum(x, _CEV_EVAL_FLOOR)


def cev_model(p: CevParams) -> SdeModel:
    """Constant elasticity of variance: power-law diffusion sigma x^alpha.

    The diffusion derivatives blow up at zero for alpha < 1, so evaluation
    at x <= 0 is rejected; callers must keep the state strictly positive
    (the quantization engine's boundary modes guarantee this).
    """
    r, alpha, sigma = p.r, p.alpha, p.sigma

    def b(x):
        return sigma * _cev_positive(x) ** alpha

    def b_x(x):
        return sigma * alpha * _cev_positive(x) ** (alpha - 1.0)

    def b_xx(x):
        return sigma * alpha * (alpha - 1.0) * _cev_positive(x) ** (alpha - 2.0)

    return SdeModel(
        a=lambda x: r * np.asarray(x, dtype=float),
        a_x=lambda x: np.full_like(np.asarray(x, dtype=float), r),
        a_xx=lambda x: np.zeros_like(np.asarray(x, dtype=float)),
        b=b,
        b_x=b_x,
        b_xx=b_xx,
        state_domain=(0.0, np.inf),
        coef_domain=(0.0, np.inf),
        kind="cev",
        params=p,
    )


def gbm_exact_marginal(p: GbmParams, t: float) -> ScalarDistribution:
    """Exact lognormal law of the GBM state at time t > 0.

    Used as the reference distribution in marginal-error studies; the
    partial expectations are the standard lognormal ones, e.g.
    E[S 1{S < x}] = s0 e^{r t} Phi(z - s) with z the log-moneyness score.
    """
    if not t > 0.0:
        raise ValueError("t must be positive")
    mu = (p.r - 0.5 * p.sigma ** 2) * t
    s = p.sigma * np.sqrt(t)
    mean = p.s0 * np.exp(p.r * t)
    mean2 = p.s0 ** 2 * np.exp((2.0 * p.r + p.sigma ** 2) * t)

    def fFM(x):
        x = np.asarray(x, dtype=float)
        pos = x > 0.0
        finite = np.isfinite(x)
        xs = np.where(pos & finite, x, 1.0)
        z = (np.log(xs / p.s0) - mu) / s
        return (np.where(pos & finite, norm_pdf(z) / (xs * s), 0.0),
                np.where(pos, np.where(finite, ndtr(z), 1.0), 0.0),
                np.where(pos, np.where(finite, mean * ndtr(z - s), mean), 0.0))

    return ScalarDistribution(fFM=fFM, second_moment=mean2, support=(0.0, np.inf))
