"""Recursive marginal quantization of a scalar diffusion.

The state distribution after each time step is a mixture: conditional on
the previous step's quantizer, every codeword contributes one affine
update m Z + c with a known innovation law.  Each step therefore
quantizes that mixture with a damped Newton iteration whose gradient and
tridiagonal Hessian are assembled from three matrices, all evaluated at
the normalized region boundaries R[i, j] = (r[j] - c_i) / m_i:

    P[i, j] = sgn(m_i) (F_i(R+) - F_i(R-))      transition probabilities
    M[i, j] = M1_i(R+) - M1_i(R-)               partial-moment increments
    f[i, j] = f_i(R+)                           densities at inner bounds

The chain (grids, probabilities, transition matrices) is an inhomogeneous
discrete-time Markov chain used directly by the pricers.

Zero boundary handling: in ``absorbing`` mode the innovation domain of
each update is left-truncated at -c_i / m_i (the image of state zero) and
the missing mass accumulates in an extra zero-valued codeword that only
transitions to itself.  In ``reflecting`` mode the same truncation is
applied and every innovation law is replaced by its reflection about
-c_i / m_i, so no mass is lost.
"""

from __future__ import annotations

import json
import operator
from dataclasses import dataclass
from typing import IO, List, Optional

import numpy as np

from . import _pool
from ._newton import damped_newton, step_eval, voronoi_edges
from .affine_schemes import SCHEME_BUILDERS, UpdateBatch
from .sde_models import SdeModel
from .vq1d import Quantizer, initial_guess

FREE = "free"
ABSORBING = "absorbing"
REFLECTING = "reflecting"
BOUNDARY_MODES = (FREE, ABSORBING, REFLECTING)

PROB_FLOOR = 1e-14  # previous-step components below this are skipped
ROW_SUM_TOL = 1e-12  # loaded transition rows may exceed mass 1 by this
MARKOV_TOL = 1e-10  # loaded |p_k P_k - p_{k+1}| may not exceed this
_BLOCK_CELLS = 65536  # law cells per row block of the transition assembly

GRID_SCHEMA = "rmquant.grid.v1"
SEQUENCE_SCHEMA = "rmquant.sequence.v1"


class RmqError(Exception):
    """Numerical failure inside the recursive quantization."""


class CodewordDomainError(RmqError):
    """A step produced codewords outside the model's state domain."""

    def __init__(self, step: int, message: str):
        super().__init__(message)
        self.step = step


@dataclass(frozen=True)
class Schedule:
    """Time grid and iteration budget of a quantization run."""

    T: float
    K: int
    n_per_step: int = 200   # the cardinality of every step's quantizer
    n_max_vq: int = 50
    n_max_rmq: int = 5

    def __post_init__(self):
        if not 0.0 < self.T < np.inf:
            raise ValueError(f"T must be positive and finite, got {self.T!r}")
        for name in ("K", "n_per_step", "n_max_vq", "n_max_rmq"):
            value = getattr(self, name)
            try:
                value = operator.index(value)
            except TypeError:
                raise ValueError(f"{name} must be an integer, got {value!r}") from None
            if value < 1:
                raise ValueError(f"{name} must be >= 1, got {value}")
            object.__setattr__(self, name, value)

    @property
    def dt(self) -> float:
        return self.T / self.K


def _validate_boundary(boundary: str):
    if boundary not in BOUNDARY_MODES:
        raise ValueError(f"boundary must be one of {BOUNDARY_MODES}, got {boundary!r}")


def _require_positive_scale(batch: UpdateBatch, boundary: str):
    if boundary != FREE and np.any(batch.m <= 0.0):
        raise RmqError(
            "absorbing/reflecting modes require a positive affine scale m "
            "for every state; got min m = %.3g" % float(np.min(batch.m))
        )


def _normalized_edges(batch: UpdateBatch, x: np.ndarray, boundary: str):
    """State points ``x`` in each row's innovation coordinates
    (x - c_i) / m_i, and the rows' reflection points (None unless
    reflecting)."""
    z = np.subtract(x[None, :], batch.c[:, None])
    z /= batch.m[:, None]
    xbar = -batch.c / batch.m if boundary == REFLECTING else None
    return z, xbar


def _assemble(batch: UpdateBatch, edges: np.ndarray, boundary: str,
              out=(None, None, None)):
    """(P, M, f) of the rows of ``batch``, with f at every edge.

    Fresh matrices unless ``out`` holds three to write them into.
    """
    P, M, f = out
    fz, F, M1 = batch.law_fFM(*_normalized_edges(batch, edges, boundary))
    P = np.subtract(F[:, 1:], F[:, :-1], out=P)
    if not np.all(batch.m > 0.0):
        P *= np.sign(batch.m)[:, None]
    np.maximum(P, 0.0, out=P)
    M = np.subtract(M1[:, 1:], M1[:, :-1], out=M)
    if f is None:
        return P, M, fz
    f[:, 1:-1] = fz[:, 1:-1]
    return P, M, f


def _z_matrices(batch: UpdateBatch, next_codewords: np.ndarray,
                boundary: str):
    """(P, M, f) on one candidate next grid: transition probabilities and
    first-partial-moment increments, N_k x N_next, and the densities at the
    inner boundaries, N_k x (N_next - 1).

    Every row depends on its own update alone, so large matrices are
    assembled in row blocks of about ``_BLOCK_CELLS`` cells spread over the
    thread pool; each cell gets the same bits as in one whole-matrix pass.
    A matrix of one block takes that pass directly, into fresh arrays
    (writing it into preallocated ones costs page faults on every call).
    """
    edges = voronoi_edges(next_codewords,
                          -np.inf if boundary == FREE else 0.0, np.inf)
    n, rows = batch.size, -(-_BLOCK_CELLS // edges.size)
    if n <= rows:
        P, M, f = _assemble(batch, edges, boundary)
    else:
        # f keeps the layout of a whole-matrix pass: the inner columns of
        # an n x (N+1) array, which the evaluator's matvec reads.
        out = (np.empty((n, edges.size - 1)), np.empty((n, edges.size - 1)),
               np.empty((n, edges.size)))

        def fill(lo):
            sl = slice(lo, lo + rows)
            _assemble(batch.rows(sl), edges, boundary, tuple(a[sl] for a in out))

        _pool.pmap(fill, range(0, n, rows))
        P, M, f = out
    return P, M, f[:, 1:-1]


def _mixture_evaluator(prev_p: np.ndarray, batch: UpdateBatch, boundary: str):
    """Closure computing gradient/Hessian/centroids of the mixture distortion."""
    absm = np.abs(batch.m)
    pw = np.where(prev_p < PROB_FLOOR, 0.0, prev_p)
    p_c = pw * batch.c
    p_m = pw * absm
    p_f = pw / absm

    def evaluate(gam: np.ndarray):
        # aux keeps M and f alive with P: freed at once, their pages go back
        # to the OS and every evaluation faults them in again (N=200: +25%).
        P, M, f = mats = _z_matrices(batch, gam, boundary)
        return step_eval(gam, pw @ P, p_c @ P, p_m @ M, p_f @ f, aux=mats)

    return evaluate


def implied_marginal_cdf(x, prev: Quantizer, batch: UpdateBatch,
                         boundary: str = FREE, zero_mass: float = 0.0):
    """Distribution function of the one-step mixture implied by ``prev``.

    F(x) = sum_i p_i [ H(-m_i) + sgn(m_i) F_i((x - c_i) / m_i) ] in free
    mode.  Under ``absorbing`` the result includes the atom at zero of
    size ``zero_mass`` plus the newly absorbed mass; under ``reflecting``
    each component law is reflected (and ``zero_mass`` is 0).  Vectorized
    over ``x``.
    """
    _validate_boundary(boundary)
    _require_positive_scale(batch, boundary)
    xs = np.atleast_1d(np.asarray(x, dtype=float))
    p = prev.probabilities
    _, F, _ = batch.law_fFM(*_normalized_edges(batch, xs, boundary))
    if boundary == FREE:
        heavi = (batch.m < 0.0).astype(float)[:, None]
        out = p @ (heavi + np.sign(batch.m)[:, None] * F)
    else:
        out = np.where(xs < 0.0, 0.0, zero_mass + p @ F)
    out = np.clip(out, 0.0, 1.0)
    return out if np.ndim(x) else float(out[0])


class QuantizationSequence:
    """Per-step quantizers, probabilities and transition matrices.

    In absorbing mode every stored grid carries the zero state in front
    (codeword 0 with the accumulated absorbed mass) and the transition
    matrices carry the matching absorbing row/column.  Instances are
    immutable by convention once built and safe to share across threads.
    """

    def __init__(self, *, scheme: str, boundary: str, model_kind: str,
                 s0: float, horizon: float, codewords: List[np.ndarray],
                 probabilities: List[np.ndarray],
                 transitions: List[np.ndarray]):
        self.scheme = scheme
        self.boundary = boundary
        self.model_kind = model_kind
        self.s0 = float(s0)
        self.horizon = float(horizon)
        self.codewords = codewords
        self.probabilities = probabilities
        self.transitions = transitions

    @property
    def zero_state_mass(self) -> Optional[np.ndarray]:
        """Per-step mass of the zero trap state (absorbing mode only)."""
        if self.boundary != ABSORBING:
            return None
        return np.array([p[0] for p in self.probabilities])

    @property
    def n_steps(self) -> int:
        return len(self.codewords)

    @property
    def dt(self) -> float:
        return self.horizon / self.n_steps

    def terminal_mean(self) -> float:
        """First moment of the final-step quantizer."""
        return float(self.probabilities[-1] @ self.codewords[-1])

    def live_quantizer(self, k: int):
        """(Quantizer, zero mass) of step k (1-based), augmentation stripped."""
        cw = self.codewords[k - 1]
        p = self.probabilities[k - 1]
        if self.boundary == ABSORBING:
            return Quantizer(cw[1:], p[1:]), float(p[0])
        return Quantizer(cw, p), 0.0

    # -- serialization ---------------------------------------------------

    def to_json_dict(self) -> dict:
        doc = {
            "schema": SEQUENCE_SCHEMA,
            "model": self.model_kind,
            "scheme": self.scheme,
            "boundary": self.boundary,
            "s0": self.s0,
            "horizon": self.horizon,
            "steps": [
                {
                    "step": k + 1,
                    "time": (k + 1) * self.dt,
                    "codewords": self.codewords[k].tolist(),
                    "probabilities": self.probabilities[k].tolist(),
                }
                for k in range(self.n_steps)
            ],
            "transitions": [P.tolist() for P in self.transitions],
        }
        if self.boundary == ABSORBING:
            doc["zero_state_mass"] = self.zero_state_mass.tolist()
        return doc

    def dump_json(self, fh: IO[str]):
        json.dump(self.to_json_dict(), fh)
        fh.write("\n")

    def dump_csv(self, fh: IO[str]):
        """Grid dump: one row per codeword, 17 significant digits."""
        fh.write(f"# schema: {GRID_SCHEMA}\n")
        fh.write("step,time,index,codeword,probability\n")
        for k in range(self.n_steps):
            t = (k + 1) * self.dt
            cw = self.codewords[k]
            pr = self.probabilities[k]
            for j in range(cw.size):
                fh.write(f"{k + 1},{t:.17g},{j},{cw[j]:.17g},{pr[j]:.17g}\n")

    @classmethod
    def from_json_dict(cls, doc: dict) -> "QuantizationSequence":
        if doc.get("schema") != SEQUENCE_SCHEMA:
            raise ValueError(f"unsupported sequence schema {doc.get('schema')!r}")
        _require_fields(doc, "model", "scheme", "boundary", "s0", "horizon",
                        "steps", "transitions")
        for s in doc["steps"]:
            _require_fields(s, "codewords", "probabilities")
        codewords = [np.asarray(s["codewords"], dtype=float) for s in doc["steps"]]
        probabilities = [np.asarray(s["probabilities"], dtype=float)
                         for s in doc["steps"]]
        transitions = [np.asarray(P, dtype=float) for P in doc["transitions"]]
        _check_chain(doc, codewords, probabilities, transitions)
        return cls(
            scheme=doc["scheme"],
            boundary=doc["boundary"],
            model_kind=doc["model"],
            s0=doc["s0"],
            horizon=doc["horizon"],
            codewords=codewords,
            probabilities=probabilities,
            transitions=transitions,
        )


def _require_fields(doc: dict, *names: str):
    """Raise ValueError if ``doc`` lacks any of the fields ``names``."""
    missing = [n for n in names if n not in doc]
    if missing:
        raise ValueError(f"inconsistent sequence: missing field "
                         f"{', '.join(map(repr, missing))}")


def _check_chain(doc, codewords, probabilities, transitions):
    """Raise ValueError unless the header fields of ``doc`` are usable and
    the arrays read from it form a consistent Markov chain."""
    def need(ok, what):
        if not ok:
            raise ValueError(f"inconsistent sequence: {what}")

    s0, horizon, scheme = doc["s0"], doc["horizon"], doc["scheme"]
    need(isinstance(s0, (int, float)) and np.isfinite(s0),
         f"s0 {s0!r} is not a finite number")
    need(isinstance(horizon, (int, float)) and 0.0 < horizon < np.inf,
         f"horizon {horizon!r} is not a positive finite number")
    need(scheme in tuple(SCHEME_BUILDERS), f"unknown scheme {scheme!r}")
    need(codewords and len(transitions) == len(codewords) - 1,
         f"{len(codewords)} grids but {len(transitions)} transition matrices")
    for k, (cw, p) in enumerate(zip(codewords, probabilities), start=1):
        need(cw.ndim == 1 and cw.size > 0 and p.shape == cw.shape,
             f"step {k} codewords and probabilities are not aligned vectors")
        need(np.all(np.isfinite(cw)) and np.all(np.diff(cw) > 0.0),
             f"step {k} codewords are not strictly increasing")
        need(np.all(p >= 0.0) and p.sum() <= 1.0 + MARKOV_TOL,
             f"step {k} probabilities are negative or exceed mass 1")
    for k, P in enumerate(transitions, start=1):
        need(P.shape == (codewords[k - 1].size, codewords[k].size),
             f"transition {k} has shape {P.shape}")
        need(np.all(P >= 0.0) and np.all(P.sum(axis=1) <= 1.0 + ROW_SUM_TOL),
             f"transition {k} has negative entries or row sums above 1")
        drift = np.max(np.abs(probabilities[k - 1] @ P - probabilities[k]))
        need(drift <= MARKOV_TOL,
             f"step {k + 1} probabilities differ from p_{k} P_{k} by {drift:.3g}")
    need(doc["boundary"] in BOUNDARY_MODES, f"unknown boundary {doc['boundary']!r}")
    if doc["boundary"] != ABSORBING:
        return
    for k, cw in enumerate(codewords, start=1):
        need(cw[0] == 0.0, f"step {k} does not start with the zero state")
    for k, P in enumerate(transitions, start=1):
        need(P[0, 0] == 1.0 and np.all(P[0, 1:] == 0.0),
             f"transition {k} does not keep the zero state absorbing")
    if doc.get("zero_state_mass") is not None:
        zs = np.asarray(doc["zero_state_mass"], dtype=float)
        p0 = np.array([p[0] for p in probabilities])
        need(zs.shape == p0.shape and np.all(np.abs(zs - p0) <= MARKOV_TOL),
             "zero_state_mass differs from the zero state's probabilities")


def load_sequence_json(fh: IO[str]) -> QuantizationSequence:
    return QuantizationSequence.from_json_dict(json.load(fh))


def _step1_guess(batch: UpdateBatch, n: int, boundary: str) -> np.ndarray:
    """Map the single-law starting grid through the first affine update."""
    if batch.is_ncx2[0]:
        z0 = initial_guess("ncx2", n, float(batch.lam[0]))
    else:
        z0 = initial_guess("normal", n)
    g = np.sort(batch.m[0] * z0 + batch.c[0])
    if boundary != FREE and g[0] <= 0.0:
        if g[-1] <= 0.0:
            raise RmqError("first-step guess lies entirely below zero; the "
                           "model/step size is incompatible with a zero boundary")
        lo = g[-1] * 1e-8
        g = lo + (g - g[0]) * (g[-1] - lo) / (g[-1] - g[0])
    return g


def _check_domain(gam: np.ndarray, model: SdeModel, step: int):
    """Abort before the next step would evaluate coefficients off-domain."""
    lo, hi = model.coef_domain
    if np.all(np.isfinite(gam)) and np.all(gam > lo) and np.all(gam < hi):
        return
    bad = float(np.min(gam)) if np.all(np.isfinite(gam)) else np.nan
    raise CodewordDomainError(
        step,
        f"step {step}: quantizer left the coefficient domain ({lo:g}, {hi:g}) "
        f"(min codeword {bad:.6g}); for processes that can reach zero, "
        f"rerun with an absorbing or reflecting boundary",
    )


def rmq_run(model: SdeModel, scheme: str, s0: float, sched: Schedule,
            boundary: str = FREE) -> QuantizationSequence:
    """Quantize the discretized diffusion over the whole schedule.

    Step one quantizes the exact one-step conditional law from ``s0``
    (a single-component mixture) with the schedule's VQ iteration budget;
    every later step starts from the previous grid and spends the smaller
    recursive budget.  Probabilities are propagated through the transition
    matrices recomputed at each accepted grid.
    """
    _validate_boundary(boundary)
    if scheme not in SCHEME_BUILDERS:
        raise ValueError(f"unknown scheme {scheme!r}; expected one of "
                         f"{tuple(SCHEME_BUILDERS)}")
    lo_dom, hi_dom = model.state_domain
    if not (lo_dom < s0 < hi_dom):
        raise ValueError("s0 must lie inside the model's state domain")
    build = SCHEME_BUILDERS[scheme]
    dt = sched.dt
    newton_lo = 0.0 if boundary != FREE else None

    prev_cw = np.array([float(s0)])
    prev_p = np.array([1.0])

    codewords: List[np.ndarray] = []
    probabilities: List[np.ndarray] = []
    transitions: List[np.ndarray] = []

    for k in range(1, sched.K + 1):
        batch = build(model, prev_cw, dt)
        _require_positive_scale(batch, boundary)
        if k == 1:
            guess = _step1_guess(batch, sched.n_per_step, boundary)
            n_iter = sched.n_max_vq
        else:
            guess = prev_cw
            n_iter = sched.n_max_rmq
        evaluate = _mixture_evaluator(prev_p, batch, boundary)
        gam, ev = damped_newton(guess, evaluate, n_iter, lo=newton_lo)
        _check_domain(gam, model, k)
        P = ev.aux[0]
        p_next = prev_p @ P
        if boundary == ABSORBING:
            aug = np.zeros((P.shape[0] + 1, P.shape[1] + 1))
            aug[0, 0] = 1.0
            aug[1:, 0] = np.maximum(1.0 - P.sum(axis=1), 0.0)
            aug[1:, 1:] = P
            # Store the augmented probabilities as products of the stored
            # augmented transitions so the Markov identity holds exactly
            # as stored; step 1 starts from all mass on s0.
            last_p = probabilities[-1] if k > 1 else np.array([0.0, 1.0])
            codewords.append(np.concatenate([[0.0], gam]))
            probabilities.append(last_p @ aug)
            P = aug
        else:
            codewords.append(gam)
            probabilities.append(p_next)
        if k > 1:
            transitions.append(P)
        prev_cw, prev_p = gam, p_next

    return QuantizationSequence(
        scheme=scheme,
        boundary=boundary,
        model_kind=model.kind,
        s0=s0,
        horizon=sched.T,
        codewords=codewords,
        probabilities=probabilities,
        transitions=transitions,
    )
