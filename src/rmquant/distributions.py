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

Each law has one implementation, :func:`norm_into` and :func:`ncx2_into`,
and the fold one, :func:`reflect_fFM`.  They write into arrays the caller
gives and take their temporaries from a :class:`Workspace`, which the
quantization engine keeps in each thread for a run; ``norm_fFM`` and
``ncx2_fFM`` call them with fresh arrays.  They use full passes and masked
copies, never masked ufunc loops (half the speed here), and never
``where=`` on a ``scipy.special`` ufunc (it has crashed ``ndtr``).

The ncx2 (f, F, M1) kernel drops its second normal lobe, Phi(x-) and
phi(x-) with x- = -sqrt(x) - sqrt(lam), wherever x- <= -LOBE_CUT = -10.
What it drops is a tail of the law, so the absolute error is at most
Phi(-10) = 7.6e-24 in F, E[Z^2 1{Z < -10}] = 7.8e-22 in M1 and
phi(10) / (2 sqrt(x)) = 3.9e-23 / sqrt(x) in f.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional, Tuple

import numpy as np
from scipy.special import ndtr

_INV_SQRT_2PI = 1.0 / np.sqrt(2.0 * np.pi)

# ncx2_fFM drops the second lobe where x- <= -LOBE_CUT (module docstring).
LOBE_CUT = 10.0

# ncx2_into's cap on sqrt(x): there Phi(x+) = 1 and phi(x+) = phi(x-) = 0
# exactly, as at x = +inf, and (x+)^2 stays finite.
_SQRT_CAP = 1e150

# Real-line support, used as the default for the standard normal.
REAL_LINE = (-np.inf, np.inf)


class Workspace:
    """Named scratch buffers that one thread reuses from call to call.

    ``take(name, shape)`` returns a C-contiguous array of ``shape`` at the
    start of the buffer ``name``, which grows when it is too small; it
    overwrites what the last ``take`` of that name returned.  A new
    Workspace hands out fresh arrays, which is how the allocating forms
    below call the kernels.
    """

    def __init__(self):
        self._buffers = {}
        self._views = {}

    def take(self, name, shape, dtype=float):
        view = self._views.get(name)
        if view is not None and view.shape == shape:
            return view
        size = math.prod(shape)
        buf = self._buffers.get(name)
        if buf is None or buf.size < size:
            buf = self._buffers[name] = np.empty(size, dtype)
        view = self._views[name] = buf[:size].reshape(shape)
        return view


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


def norm_into(x, out):
    """The normal triple at ``x`` written to ``out`` = (f, F, M1), arrays
    of x's shape; M1 = -f is left out if ``out[2]`` is None."""
    f, F, M1 = out
    _phi(x, f)
    ndtr(x, out=F)
    if M1 is not None:
        np.negative(f, out=M1)
    return out


def norm_fFM(x):
    """Fused (pdf, cdf, M1) of the standard normal."""
    x = np.asarray(x, dtype=float)
    return tuple(a[()] for a in norm_into(x, _fresh(x.shape)))


def ncx2_into(x, lam, out, ws):
    """The ncx2 triple of :func:`ncx2_fFM` written to ``out`` = (f, F, M1),
    C-contiguous arrays of the shape ``x`` and ``lam`` broadcast to, with
    its temporaries taken from the :class:`Workspace` ``ws``.  ``x`` may
    have any memory layout: it is only read, cell by cell."""
    f, F, M1 = out
    shape = f.shape
    dead = np.greater(x, 0.0, out=ws.take("ncx2.dead", shape, bool))
    np.logical_not(dead, out=dead)          # x <= 0 or NaN
    # Cells off the support get sqrt(x) = LOBE_CUT, which keeps them out
    # of the sliver, and x+ = 0, where Phi and phi are cheap; both are then
    # set to their limit 0, which makes all three parts 0.  sqrt(x) is
    # capped at _SQRT_CAP, so x = +inf gets x+ and x- finite, and so F = 1,
    # f = 0 and M1 = 1 + lam from the formulas.
    xs = ws.take("ncx2.xs", shape)
    with np.errstate(invalid="ignore"):
        np.sqrt(x, out=xs)
    np.copyto(xs, LOBE_CUT, where=dead)
    np.minimum(xs, _SQRT_CAP, out=xs)
    sl = np.sqrt(lam)
    xp = np.subtract(xs, sl, out=ws.take("ncx2.xp", shape))
    np.copyto(xp, 0.0, where=dead)
    xm = np.subtract(-sl, xs, out=ws.take("ncx2.xm", shape))   # -xs - sl
    ndtr(xp, out=F)
    np.copyto(F, 0.0, where=dead)
    pp = _phi(xp, f)                        # phi(x+), divided below
    np.copyto(pp, 0.0, where=dead)
    # The second lobe on its sliver, by flat index into the C-contiguous
    # buffers; no cell is in it if every sqrt(lam) >= LOBE_CUT.
    lobe = None
    if sl.min() < LOBE_CUT:
        sliver = np.flatnonzero(np.greater(xm, -LOBE_CUT, out=dead))
        xm_l = xm.ravel()[sliver]
        pm = _phi(xm_l, np.empty_like(xm_l))
        F.ravel()[sliver] -= ndtr(xm_l)
        lobe = (sliver, (pp.ravel()[sliver] + pm) / (2.0 * xs.ravel()[sliver]),
                pm * xp.ravel()[sliver])
    np.multiply(F, 1.0 + lam, out=M1)
    M1 += np.multiply(pp, xm, out=xm)
    np.divide(pp, np.multiply(xs, 2.0, out=xs), out=f)
    if lobe is not None:
        sliver, f_l, pm_xp = lobe
        M1.ravel()[sliver] -= pm_xp
        f.ravel()[sliver] = f_l
    return out


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
    match these formulas bit for bit.  Off the support (x <= 0 and NaN)
    Phi(x+) and phi(x+) are set to 0, which makes all three parts exactly
    0; at x = +inf the formulas give the limits.  The one implementation
    is :func:`ncx2_into`; this form gives it fresh arrays.
    """
    x = np.asarray(x, dtype=float)
    lam = np.asarray(lam, dtype=float)
    shape = np.broadcast_shapes(x.shape, lam.shape)
    out = ncx2_into(np.broadcast_to(x, shape or (1,)), lam,   # 0-d: 1 cell
                    _fresh(shape or (1,)), Workspace())
    return tuple(a.reshape(shape) for a in out)


def _fresh(shape):
    return tuple(np.empty(shape) for _ in range(3))


def reflect_fFM(law, x, xbar, lo=-np.inf, out=None, ws=None):
    """Fold the (f, F, M1) triple of ``law`` at ``x`` about ``xbar``:

        f~(x)  = f(x) + f(2 xbar - x)
        F~(x)  = F(x) - F(2 xbar - x)
        M1~(x) = M1(x) + M1(2 xbar - x) - 2 xbar F(2 xbar - x)

    It is the one fold, for every law.  ``law(y, rows)`` returns the
    unfolded triple at ``y``, the mirrored arguments of the rows ``rows``
    (a slice of the first axis of a 2-d ``x``; a 0-d or 1-d ``x`` is one
    row).  ``xbar`` and ``lo`` broadcast against ``x``; ``law`` is exactly
    0 below ``lo`` (0 for ncx2; -inf for a Gaussian or a folded law), so
    the mirrored law is evaluated only on the block from the first to the
    last row and column where some 2 xbar - x >= lo, and on every cell if
    ``lo`` is -inf throughout.  ``out`` is the triple of ``law`` at ``x``,
    folded in place and returned (by default ``law(x, all rows)``, fresh);
    an M1 of None in it and in the mirrored triple stands for -f, as for
    the normal law, and then M1~ = -f~ - 2 xbar F2 is written to a buffer
    of the :class:`Workspace` ``ws``, which also holds the mirrored
    arguments.  The values are the whole-array fold's bit for bit.  M1~
    drops per-law constants, which cancel in the differences quantization
    consumes.
    """
    x = np.asarray(x, dtype=float)
    if out is None:
        out = tuple(np.asarray(a) for a in law(x, slice(None)))
    ws = Workspace() if ws is None else ws
    x2 = np.atleast_2d(x)
    xb2 = np.broadcast_to(2.0 * xbar, x2.shape)
    y = np.subtract(xb2, x2, out=ws.take("fold.y", x2.shape))
    rows = cols = slice(None)
    if np.max(lo) > -np.inf:
        live = np.greater_equal(y, lo,
                                out=ws.take("fold.live", x2.shape, bool))
        cols = np.flatnonzero(live.any(axis=0))
        if not cols.size:
            return tuple(a[()] for a in out)
        cols = slice(cols[0], cols[-1] + 1)
        rows = np.flatnonzero(live[:, cols].any(axis=1))
        rows = slice(rows[0], rows[-1] + 1)
    f2, F2, M2 = law(y[rows, cols], rows)
    f, F, M1 = out
    f_b, F_b = (np.atleast_2d(a)[rows, cols] for a in (f, F))   # views
    f_b += f2
    F_b -= F2
    if M1 is None:    # -a - b is -(a + b) bit for bit
        M1 = np.negative(f, out=ws.take("fold.M1", f.shape))
        M1_b = M1[rows, cols]
    else:             # + commutes bit for bit
        M1_b = np.atleast_2d(M1)[rows, cols]
        M1_b += M2
    M1_b -= np.multiply(F2, xb2[rows, cols], out=F2)
    return tuple(a[()] for a in (f, F, M1))


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
        f, F, M1 = reflect_fFM(lambda y, rows: base.fFM(y),
                               np.maximum(x, xb), xb)
        return np.where(x >= xb, f, 0.0), F, M1

    second_moment = None
    if base.second_moment is not None:
        _, F, M1 = base.fFM(np.array([base.support[0], xb]))
        below = xb * (F[1] - F[0]) - (M1[1] - M1[0])
        second_moment = base.second_moment + 4.0 * xb * below
    return ScalarDistribution(fFM=fFM, second_moment=second_moment,
                              support=(xb, hi))
