"""One-step scheme updates written in affine form U = m Z + c.

Conditional on the current state, each supported scheme's one-step update
is an affine transform of a single innovation Z with a known law:

    euler     U = b sqrt(dt) Z + (x + a dt),                Z ~ N(0, 1)
    milstein  U = (b b' dt / 2) Z + c,                      Z ~ ncx2(1, lam)
    weak2     U = (b b' dt / 2) Z + c,                      Z ~ ncx2(1, lam)

For the two higher-order schemes the quadratic Z^2 term is absorbed by
completing the square, which turns the Gaussian innovation into a
noncentral chi-squared one with one degree of freedom.  The offsets and
noncentralities are

    milstein  c   = x + (a - b b'/2) dt - b / (2 b')
              lam = 1 / (dt b'^2)
    weak2     c   = x + (a - b b'/2) dt + (a a' + a'' b^2 / 2) dt^2 / 2
                    - beta^2 / (2 b b')
              lam = beta^2 / (b^2 b'^2 dt)
              beta = b + (a' b + a b' + b'' b^2 / 2) dt / 2

Both completions reproduce the scheme's conditional mean exactly:
x + a dt for milstein, plus (a a' + a'' b^2 / 2) dt^2 / 2 for weak2.
Where b b' dt is numerically degenerate the noncentral form is
meaningless (lam diverges); those states fall back to the euler update
and are flagged.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .distributions import ncx2_fFM, norm_fFM, reflect_fFM
from .sde_models import SdeModel

GAUSSIAN = "gaussian"
NCX2 = "ncx2"

# Below this, b b' dt carries no information relative to the state scale.
DEGENERACY_THRESHOLD = 1e-12


@dataclass(frozen=True)
class AffineUpdate:
    """One-step update U = m Z + c for a single originating state.

    ``kind`` is the law of Z (``gaussian`` or ``ncx2`` with noncentrality
    ``lam``); ``fallback`` marks higher-order updates that degenerated to
    euler.  ``m`` may be negative in general; consumers must apply the sign
    conventions when turning state intervals into Z intervals.
    """

    m: float
    c: float
    kind: str = GAUSSIAN
    lam: float = 0.0
    fallback: bool = False

    def mean(self) -> float:
        ez = 1.0 + self.lam if self.kind == NCX2 else 0.0
        return self.m * ez + self.c

    def variance(self) -> float:
        vz = 2.0 * (1.0 + 2.0 * self.lam) if self.kind == NCX2 else 1.0
        return self.m * self.m * vz


class UpdateBatch:
    """Vectorized view of the per-state updates for one time step.

    Stores the affine coefficients and innovation parameters as arrays and
    evaluates the innovation (pdf, cdf, m1) row-wise on matrices of
    normalized arguments; rows may mix Gaussian and noncentral laws.  An
    optional per-row reflection point folds each law's mass below it back
    onto the support.
    """

    def __init__(self, m, c, lam, is_ncx2, fallback):
        self.m = np.asarray(m, dtype=float)
        self.c = np.asarray(c, dtype=float)
        self.lam = np.asarray(lam, dtype=float)
        self.is_ncx2 = np.asarray(is_ncx2, dtype=bool)
        self.fallback = np.asarray(fallback, dtype=bool)

    @property
    def size(self) -> int:
        return self.m.shape[0]

    def rows(self, sl: slice) -> "UpdateBatch":
        """The updates of the rows ``sl``, as views of these arrays."""
        return UpdateBatch(self.m[sl], self.c[sl], self.lam[sl],
                           self.is_ncx2[sl], self.fallback[sl])

    def _base_fFM(self, z):
        """(pdf, cdf, m1) of each row's innovation at the matrix z."""
        z = np.asarray(z, dtype=float)
        if not np.any(self.is_ncx2):
            return norm_fFM(z)
        nc = ncx2_fFM(z, self.lam[:, None])
        if np.all(self.is_ncx2):
            return nc
        # Mixed rows (euler fallback inside a higher-order step).
        mask = self.is_ncx2[:, None]
        return tuple(np.where(mask, a, b) for a, b in zip(nc, norm_fFM(z)))

    def law_fFM(self, z, xbar=None):
        """Innovation (pdf, cdf, m1) at z; reflected about xbar if given.

        ``z`` has one row per state; ``xbar`` (if any) is one reflection
        point per row.  The reflected m1 omits per-row constants, which
        cancel in the differences consumed by the quantization engine.

        Every law takes the one fold, :func:`reflect_fFM`.  An ncx2 row is
        0 below 0, so the mirrored law is evaluated only on the columns from
        the first to the last where some row has 2 xbar - z >= 0; a batch
        with a Gaussian row, which is 0 nowhere, folds every column.
        """
        if xbar is None:
            return self._base_fFM(z)
        lo = np.where(self.is_ncx2, 0.0, -np.inf)[:, None]
        return reflect_fFM(self._base_fFM, z,
                           np.asarray(xbar, dtype=float)[:, None], lo)


def euler_updates(model: SdeModel, x, dt: float) -> UpdateBatch:
    """Vectorized euler updates for the states ``x``."""
    x = np.atleast_1d(np.asarray(x, dtype=float))
    if not dt > 0.0:
        raise ValueError("dt must be positive")
    m = model.b(x) * np.sqrt(dt)
    c = x + model.a(x) * dt
    zeros = np.zeros_like(x)
    return UpdateBatch(m, c, zeros, zeros.astype(bool), zeros.astype(bool))


def _completed_square(model: SdeModel, x, dt: float, weak2: bool) -> UpdateBatch:
    x = np.atleast_1d(np.asarray(x, dtype=float))
    if not dt > 0.0:
        raise ValueError("dt must be positive")
    a = model.a(x)
    b = model.b(x)
    bx = model.b_x(x)
    bbx = b * bx
    degen = np.abs(bbx) * dt < DEGENERACY_THRESHOLD * np.maximum(1.0, np.abs(x))
    safe_bbx = np.where(degen, 1.0, bbx)
    safe_bx = np.where(degen, 1.0, bx)

    m = 0.5 * bbx * dt
    if weak2:
        ax = model.a_x(x)
        axx = model.a_xx(x)
        bxx = model.b_xx(x)
        beta = b + 0.5 * (ax * b + a * bx + 0.5 * bxx * b * b) * dt
        c = (x + (a - 0.5 * bbx) * dt
             + 0.5 * (a * ax + 0.5 * axx * b * b) * dt * dt
             - beta * beta / (2.0 * safe_bbx))
        lam = (beta / (safe_bbx * np.sqrt(dt))) ** 2
    else:
        c = x + (a - 0.5 * bbx) * dt - 0.5 * b / safe_bx
        lam = 1.0 / (dt * safe_bx ** 2)

    if np.any(degen):
        euler = euler_updates(model, x, dt)
        m = np.where(degen, euler.m, m)
        c = np.where(degen, euler.c, c)
        lam = np.where(degen, 0.0, lam)
    return UpdateBatch(m, c, lam, ~degen, degen)


def milstein_updates(model: SdeModel, x, dt: float) -> UpdateBatch:
    """Vectorized milstein updates (noncentral chi-squared innovations)."""
    return _completed_square(model, x, dt, weak2=False)


def weak2_updates(model: SdeModel, x, dt: float) -> UpdateBatch:
    """Vectorized simplified weak order 2.0 updates."""
    return _completed_square(model, x, dt, weak2=True)


def _single(batch: UpdateBatch) -> AffineUpdate:
    return AffineUpdate(m=float(batch.m[0]), c=float(batch.c[0]),
                        kind=NCX2 if batch.is_ncx2[0] else GAUSSIAN,
                        lam=float(batch.lam[0]),
                        fallback=bool(batch.fallback[0]))


def euler_update(model: SdeModel, gamma: float, dt: float) -> AffineUpdate:
    """Euler update of one state: m = b sqrt(dt), c = gamma + a dt."""
    return _single(euler_updates(model, [gamma], dt))


def milstein_update(model: SdeModel, gamma: float, dt: float) -> AffineUpdate:
    """Milstein update of one state, completed-square form."""
    return _single(milstein_updates(model, [gamma], dt))


def weak2_update(model: SdeModel, gamma: float, dt: float) -> AffineUpdate:
    """Simplified weak order 2.0 update of one state."""
    return _single(weak2_updates(model, [gamma], dt))


SCHEME_BUILDERS = {
    "euler": euler_updates,
    "milstein": milstein_updates,
    "weak2": weak2_updates,
}
