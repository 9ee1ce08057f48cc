"""Scalar distribution kernels: pdf, cdf and lower partial expectations.

Everything the quantization engine needs from a distribution is the triple

    f(x)   = density,
    F(x)   = P(X <= x),
    M1(x)  = E[X * 1{X < x}]   (first lower partial expectation),

plus, for distortion estimates only, M2(x) = E[X^2 * 1{X < x}].  Two laws
are supported in closed form: the standard normal and the noncentral
chi-squared with one degree of freedom, which can be written entirely in
terms of the normal pdf/cdf.  A reflection transform folds mass below a
boundary back onto the support, again in closed form.

All kernels are vectorized over numpy arrays, accept +/-inf arguments and
return the exact limit values there (no NaNs leak out of limit cases).
Phi is evaluated through scipy's erfc-based ``ndtr``, accurate to close to
machine precision over the whole real line.

The ncx2 (f, F, M1) kernel drops its second normal lobe, Phi(x-) and
phi(x-) with x- = -sqrt(x) - sqrt(lam), wherever x- <= -LOBE_CUT = -10.
What it drops is a tail of the law, so the absolute error is at most
Phi(-10) = 7.6e-24 in F, E[Z^2 1{Z < -10}] = 7.8e-22 in M1 and
phi(10) / (2 sqrt(x)) = 3.9e-23 / sqrt(x) in f.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Tuple

import numpy as np
from scipy.special import ndtr

_INV_SQRT_2PI = 1.0 / np.sqrt(2.0 * np.pi)

# ncx2_fFM drops the second lobe where x- <= -LOBE_CUT (module docstring).
LOBE_CUT = 10.0

# Real-line support, used as the default for the standard normal.
REAL_LINE = (-np.inf, np.inf)


def _phi(u, out):
    """Standard normal density of the array ``u``, written to ``out``."""
    np.multiply(u, -0.5, out=out)
    out *= u
    np.exp(out, out=out)
    out *= _INV_SQRT_2PI
    return out


def norm_pdf(x):
    """Standard normal density; exact 0 at +/-inf."""
    x = np.asarray(x, dtype=float)
    return _phi(x, np.empty_like(x))[()]


def norm_cdf(x):
    """Standard normal distribution function (erfc-based)."""
    return ndtr(np.asarray(x, dtype=float))


def norm_m2(x):
    """Second lower partial expectation of the standard normal.

    M2(x) = F(x) - x * f(x); the x*f(x) term vanishes in both tails.
    """
    x = np.asarray(x, dtype=float)
    xf = np.where(np.isfinite(x), x, 0.0)
    return ndtr(x) - xf * norm_pdf(x)


def norm_fFM(x):
    """Fused (pdf, cdf, M1) of the standard normal."""
    x = np.asarray(x, dtype=float)
    p = norm_pdf(x)
    return p, ndtr(x), -p


def _split_sqrt(x, lam):
    """sqrt helpers for the 1-dof noncentral chi-squared kernels.

    Returns (positive mask, finite mask, sqrt(x), x_plus, x_minus) where
    x_plus/minus are +/-sqrt(x) - sqrt(lam), computed on a safely clipped
    copy of x so that nonpositive or infinite entries never produce NaN
    intermediates (those entries are masked out by the callers).
    """
    x = np.asarray(x, dtype=float)
    pos = x > 0.0
    finite = np.isfinite(x)
    xs = np.sqrt(np.where(pos & finite, x, 1.0))
    sl = np.sqrt(lam)
    return pos, finite, xs, xs - sl, -xs - sl


def ncx2_fFM(x, lam):
    """Fused (pdf, cdf, M1) of the noncentral chi-squared law with 1 dof.

    With x+- = +-sqrt(x) - sqrt(lam):

        f(x)  = (phi(x+) + phi(x-)) / (2 sqrt(x))
        F(x)  = Phi(x+) - Phi(x-)
        M1(x) = (1 + lam) F(x) + phi(x+) x- - phi(x-) x+

    on x > 0; all are 0 for x <= 0, and (0, 1, 1 + lam) at x = inf.
    ``lam`` broadcasts against ``x`` (e.g. one noncentrality per row).

    The second lobe, Phi(x-) and phi(x-), is evaluated only on the cells
    where x- > -LOBE_CUT, a sliver near x = 0 that is empty once
    sqrt(lam) >= LOBE_CUT; elsewhere it is taken as 0.  Every term is
    evaluated in the order written above, so the cells of the sliver
    match these formulas bit for bit.
    """
    x = np.asarray(x, dtype=float)
    lam = np.asarray(lam, dtype=float)
    shape = np.broadcast_shapes(x.shape, lam.shape)
    x = np.broadcast_to(x, shape or (1,))   # a 0-d x is one cell
    live = x > 0.0
    live &= x < np.inf
    # Cells off the support get sqrt(x) = LOBE_CUT, which keeps them out
    # of the sliver; their values are zeroed below.
    xs = np.where(live, x, LOBE_CUT * LOBE_CUT)
    np.sqrt(xs, out=xs)
    sl = np.sqrt(lam)
    xp = xs - sl
    xm = np.subtract(-sl, xs)               # -xs - sl, bit for bit
    F = ndtr(xp)
    pp = _phi(xp, np.empty_like(xp))
    # The second lobe on its sliver, by flat index.  ravel() is a view
    # here: every buffer above is new and C-contiguous.
    sliver = np.flatnonzero(xm > -LOBE_CUT)
    xm_l = xm.ravel()[sliver]
    pm = _phi(xm_l, np.empty_like(xm_l))
    F.ravel()[sliver] -= ndtr(xm_l)
    f_l = (pp.ravel()[sliver] + pm) / (2.0 * xs.ravel()[sliver])
    pm_xp = pm * xp.ravel()[sliver]
    M1 = np.multiply(F, 1.0 + lam)
    M1 += np.multiply(pp, xm, out=xm)
    f = np.divide(pp, np.multiply(xs, 2.0, out=xs), out=pp)
    M1.ravel()[sliver] -= pm_xp
    f.ravel()[sliver] = f_l
    f *= live
    F *= live
    M1 *= live
    top = x == np.inf
    F[top] = 1.0
    M1[top] = np.broadcast_to(1.0 + lam, x.shape)[top]
    return f.reshape(shape), F.reshape(shape), M1.reshape(shape)


def _phi_poly_ints(z):
    """Antiderivatives of z^k * phi(z) for k = 0..4, limit-safe at +/-inf."""
    z = np.asarray(z, dtype=float)
    F = ndtr(z)
    p = norm_pdf(z)
    zf = np.where(np.isfinite(z), z, 0.0)
    i0 = F
    i1 = -p
    i2 = F - zf * p
    i3 = -(zf * zf + 2.0) * p
    i4 = 3.0 * F - (zf ** 3 + 3.0 * zf) * p
    return i0, i1, i2, i3, i4


def ncx2_m2(x, lam):
    """Second lower partial expectation of the 1-dof noncentral chi-squared.

    With X = (Z + mu)^2, mu = sqrt(lam), expand E[(Z+mu)^4 1{x- < Z < x+}]
    binomially into moments of the truncated normal.  M2(inf) equals
    E[X^2] = lam^2 + 6 lam + 3.
    """
    lam = np.asarray(lam, dtype=float)
    mu = np.sqrt(lam)
    pos, finite, _, xp, xm = _split_sqrt(x, lam)
    d = [u - v for u, v in zip(_phi_poly_ints(xp), _phi_poly_ints(xm))]
    val = (mu ** 4) * d[0] + 4.0 * mu ** 3 * d[1] + 6.0 * mu ** 2 * d[2] \
        + 4.0 * mu * d[3] + d[4]
    full = lam * lam + 6.0 * lam + 3.0
    out = np.where(pos, np.where(finite, val, full), 0.0)
    return out


def reflect_fFM(law, x, xbar):
    """Fold the (f, F, M1) triple that ``law`` maps ``x`` to about ``xbar``:

        f~(x)  = f(x) + f(2 xbar - x)
        F~(x)  = F(x) - F(2 xbar - x)
        M1~(x) = M1(x) + M1(2 xbar - x) - 2 xbar F(2 xbar - x)

    ``xbar`` broadcasts against ``x``.  M1~ drops per-law constants, which
    cancel in the differences of M1 that quantization consumes.
    """
    x = np.asarray(x, dtype=float)
    f1, F1, M1 = law(x)
    f2, F2, M2 = law(2.0 * xbar - x)
    return f1 + f2, F1 - F2, M1 + M2 - 2.0 * xbar * F2


def reflect_m2(m2, law, x, xbar):
    """Fold of the second lower partial expectation, constants dropped:

        M2~(x) = M2(x) - M2(x') + 4 xbar M1(x') - 4 xbar^2 F(x'),  x' = 2 xbar - x
    """
    x = np.asarray(x, dtype=float)
    xr = 2.0 * xbar - x
    _, Fr, M1r = law(xr)
    return m2(x) - m2(xr) + 4.0 * xbar * M1r - 4.0 * xbar * xbar * Fr


@dataclass(frozen=True)
class ScalarDistribution:
    """One fused callable ``fFM`` on a stated support interval.

    ``fFM(x)`` returns the (pdf, cdf, M1) triple, like one row of
    ``UpdateBatch.law_fFM``; ``pdf``, ``cdf`` and ``m1`` each return one part.
    ``m2`` is optional and only needed for numerical distortion estimates.
    All callables are vectorized over numpy arrays and return exact limit
    values at the support endpoints.  Instances are immutable and safe for
    concurrent reads.
    """

    fFM: Callable
    m2: Optional[Callable] = None
    support: Tuple[float, float] = REAL_LINE

    def pdf(self, x):
        return self.fFM(x)[0]

    def cdf(self, x):
        return self.fFM(x)[1]

    def m1(self, x):
        return self.fFM(x)[2]


@dataclass(frozen=True)
class Ncx2Params:
    """Noncentrality parameter of the 1-dof noncentral chi-squared law."""

    lam: float

    def __post_init__(self):
        if not self.lam >= 0.0:
            raise ValueError(f"noncentrality must be >= 0, got {self.lam}")


def std_normal_funcs() -> ScalarDistribution:
    """Standard normal triple (phi, Phi, -phi) on the real line."""
    return ScalarDistribution(fFM=norm_fFM, m2=norm_m2, support=REAL_LINE)


def ncx2_1_funcs(params: Ncx2Params) -> ScalarDistribution:
    """Noncentral chi-squared (1 dof) triple on [0, inf).

    All three parts are 0 for x <= 0 and take their exact limits at
    infinity: F(inf) = 1, M1(inf) = 1 + lam.
    """
    lam = float(params.lam)
    return ScalarDistribution(
        fFM=lambda x: ncx2_fFM(x, lam),
        m2=lambda x: ncx2_m2(x, lam),
        support=(0.0, np.inf),
    )


def reflect_funcs(base: ScalarDistribution, xbar: float) -> ScalarDistribution:
    """Fold the mass of ``base`` below ``xbar`` back onto [xbar, inf).

    ``base.fFM`` goes straight to :func:`reflect_fFM` and :func:`reflect_m2`.
    Inputs below xbar are clamped to xbar, so differences across the
    boundary vanish; the density is 0 there.
    """
    hi = base.support[1]
    if not xbar < hi:
        raise ValueError("reflection point must lie below the support's upper end")
    xb = float(xbar)

    def fFM(x):
        x = np.asarray(x, dtype=float)
        f, F, M1 = reflect_fFM(base.fFM, np.maximum(x, xb), xb)
        return np.where(x >= xb, f, 0.0), F, M1

    return ScalarDistribution(
        fFM=fFM,
        m2=None if base.m2 is None
        else lambda x: reflect_m2(base.m2, base.fFM, np.maximum(x, xb), xb),
        support=(xb, hi),
    )
