"""Scalar distribution kernels: pdf, cdf and first lower partial expectation.

Everything the quantization engine needs from a distribution is the triple

    f(x)   = density,
    F(x)   = P(X <= x),
    M1(x)  = E[X * 1{X < x}]   (first lower partial expectation).

A distortion value needs one number more, the second moment E[X^2]: the
regions span the support, so the squared error is E[X^2] less terms in the
differences of F and M1 (see ``vq1d``).  Two laws are supported in closed
form: the standard normal and the noncentral chi-squared with one degree
of freedom, which can be written entirely in terms of the normal pdf/cdf.
One reflection fold serves every law: it folds mass below a boundary back
onto the support, skipping where the mirrored ncx2 argument is below 0.

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


def norm_fFM(x):
    """Fused (pdf, cdf, M1) of the standard normal."""
    x = np.asarray(x, dtype=float)
    p = norm_pdf(x)
    return p, ndtr(x), -p


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
    match these formulas bit for bit.  Off the support (x <= 0, +inf and
    NaN) x+ is -inf, which makes phi(x+), Phi(x+) and so all three parts
    exactly 0 there with no further pass.

    ``x`` may have any memory layout: it is made C-contiguous once
    broadcast, so that the sliver's flat indices address every buffer
    derived from it.
    """
    x = np.asarray(x, dtype=float)
    lam = np.asarray(lam, dtype=float)
    shape = np.broadcast_shapes(x.shape, lam.shape)
    x = np.ascontiguousarray(np.broadcast_to(x, shape or (1,)))  # 0-d: 1 cell
    live = x > 0.0
    live &= x < np.inf
    # Cells off the support get sqrt(x) = LOBE_CUT, which keeps them out
    # of the sliver, and x+ = -inf.
    xs = np.where(live, x, LOBE_CUT * LOBE_CUT)
    np.sqrt(xs, out=xs)
    sl = np.sqrt(lam)
    xp = np.where(live, xs, -np.inf)
    xp -= sl
    xm = np.subtract(-sl, xs)               # -xs - sl, bit for bit
    F = ndtr(xp)
    pp = _phi(xp, np.empty_like(xp))
    # The second lobe on its sliver, by flat index.  ravel() is a view
    # here: every buffer above is new and C-contiguous, like x.
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
    top = x == np.inf
    F[top] = 1.0
    M1[top] = np.broadcast_to(1.0 + lam, x.shape)[top]
    return f.reshape(shape), F.reshape(shape), M1.reshape(shape)


def reflect_fFM(law, x, xbar, lo=-np.inf):
    """Fold the (f, F, M1) triple that ``law`` maps ``x`` to about ``xbar``:

        f~(x)  = f(x) + f(2 xbar - x)
        F~(x)  = F(x) - F(2 xbar - x)
        M1~(x) = M1(x) + M1(2 xbar - x) - 2 xbar F(2 xbar - x)

    It is the one fold, for every law.  ``xbar`` and ``lo`` broadcast
    against ``x``; ``law`` is exactly 0 below ``lo`` (0 for ncx2; -inf for
    a Gaussian or a folded law), so the mirrored law is evaluated only on
    the last-axis columns from the first to the last where some
    2 xbar - x >= lo.  The fold is built in place in the fresh arrays
    ``law`` returns, with the whole-array fold's bits.  M1~ drops per-law
    constants, which cancel in the differences quantization consumes.
    """
    x = np.asarray(x, dtype=float)
    out = tuple(np.asarray(a) for a in law(x))
    xb2 = 2.0 * xbar
    y = np.atleast_1d(xb2 - x)
    live = np.flatnonzero(np.any(y >= lo, axis=tuple(range(y.ndim - 1))))
    cols = slice(live[0], live[-1] + 1) if live.size else slice(0)
    f2, F2, M2 = law(y[..., cols])
    f, F, M1 = (np.atleast_1d(a)[..., cols] for a in out)   # views of out
    f += f2
    F -= F2
    # (M1 + M2) - 2 xbar F2 in M2's buffer; + and * commute bit for bit.
    M2 += M1
    M2 -= np.multiply(F2, np.broadcast_to(xb2, y.shape)[..., cols], out=F2)
    M1[...] = M2
    return tuple(a[()] for a in out)


@dataclass(frozen=True)
class ScalarDistribution:
    """One fused callable ``fFM`` on a stated support interval.

    ``fFM(x)`` returns the (pdf, cdf, M1) triple, like one row of
    ``UpdateBatch.law_fFM``; ``pdf``, ``cdf`` and ``m1`` each return one part.
    ``second_moment`` is E[X^2], optional and only needed for distortion
    values.  All callables are vectorized over numpy arrays and return exact
    limit values at the support endpoints.  Instances are immutable and safe
    for concurrent reads.
    """

    fFM: Callable
    second_moment: Optional[float] = None
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
        if not 0.0 <= self.lam < np.inf:
            raise ValueError(
                f"noncentrality must be finite and >= 0, got {self.lam}")


def std_normal_funcs() -> ScalarDistribution:
    """Standard normal triple (phi, Phi, -phi) on the real line."""
    return ScalarDistribution(fFM=norm_fFM, second_moment=1.0, support=REAL_LINE)


def ncx2_1_funcs(params: Ncx2Params) -> ScalarDistribution:
    """Noncentral chi-squared (1 dof) triple on [0, inf).

    All three parts are 0 for x <= 0 and take their exact limits at
    infinity: F(inf) = 1, M1(inf) = 1 + lam.  With X = (Z + sqrt(lam))^2,
    E[X^2] = E[(Z + sqrt(lam))^4] = lam^2 + 6 lam + 3.
    """
    lam = float(params.lam)
    return ScalarDistribution(
        fFM=lambda x: ncx2_fFM(x, lam),
        second_moment=lam * lam + 6.0 * lam + 3.0,
        support=(0.0, np.inf),
    )


def reflect_funcs(base: ScalarDistribution, xbar: float) -> ScalarDistribution:
    """Fold the mass of ``base`` below ``xbar`` back onto [xbar, inf).

    ``base.fFM`` goes to :func:`reflect_fFM` with no ``lo`` (a folded base's
    M1 is not 0 below its support), on inputs clamped to xbar: differences
    across the boundary vanish and the density is 0 below xbar.  The fold
    adds 4 xbar E[(xbar - X) 1{X < xbar}] to the second moment, read from
    differences across [support low, xbar], in which M1's constants cancel.
    """
    hi = base.support[1]
    if not -np.inf < xbar < hi:
        raise ValueError("reflection point must be finite and lie below the "
                         "support's upper end")
    xb = float(xbar)

    def fFM(x):
        x = np.asarray(x, dtype=float)
        f, F, M1 = reflect_fFM(base.fFM, np.maximum(x, xb), xb)
        return np.where(x >= xb, f, 0.0), F, M1

    second_moment = None
    if base.second_moment is not None:
        _, F, M1 = base.fFM(np.array([base.support[0], xb]))
        below = xb * (F[1] - F[0]) - (M1[1] - M1[0])
        second_moment = base.second_moment + 4.0 * xb * below
    return ScalarDistribution(fFM=fFM, second_moment=second_moment,
                              support=(xb, hi))
