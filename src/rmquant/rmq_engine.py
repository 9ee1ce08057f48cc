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

Assembly: each Newton evaluation splits the next grid's regions into
column blocks over all rows, and each thread assembles its blocks in
buffers it keeps for the whole run (a ``distributions.Workspace``); only
P, which becomes the step's transition matrix, is a fresh array.  A
reflecting fold evaluates the mirrored law on one block of rows and
columns.  Every array is that of one whole-matrix pass, bit for bit.
"""

from __future__ import annotations

import dataclasses
import json
import threading
from dataclasses import dataclass
from typing import IO, List, Optional

import numpy as np

from . import _pool
from ._newton import damped_newton, grid_fault, step_eval, voronoi_edges
from .affine_schemes import SCHEME_BUILDERS, UpdateBatch
from .distributions import Workspace
from .sde_models import (CevParams, GbmParams, SdeModel, cev_model, gbm_model,
                         integer_fields)
from .vq1d import Quantizer, checked_grid, initial_guess

FREE = "free"
ABSORBING = "absorbing"
REFLECTING = "reflecting"
# each boundary mode's lower end of the state, the Newton grids' open bound
STATE_LOWER_END = {FREE: -np.inf, ABSORBING: 0.0, REFLECTING: 0.0}
BOUNDARY_MODES = tuple(STATE_LOWER_END)

MARKOV_TOL = 1e-10  # loaded probabilities may differ from the replay by this
_BLOCK_CELLS = 65536  # law cells per column block of a Newton evaluation

# model kinds a sequence dump can rebuild: (parameter type, constructor)
MODELS = {"gbm": (GbmParams, gbm_model), "cev": (CevParams, cev_model)}
GRID_SCHEMA = "rmquant.grid.v1"
SEQUENCE_SCHEMA = "rmquant.sequence.v2"


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
        names = ("K", "n_per_step", "n_max_vq", "n_max_rmq")
        integer_fields(self, *names)
        for name in names:
            value = getattr(self, name)
            if value < 1:
                raise ValueError(f"{name} must be >= 1, got {value}")

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


def _normalized_edges(batch: UpdateBatch, x: np.ndarray, boundary: str,
                      ws: Optional[Workspace] = None):
    """State points ``x`` in each row's innovation coordinates
    (x - c_i) / m_i, and the rows' reflection points (None unless
    reflecting)."""
    ws = Workspace() if ws is None else ws
    z = np.subtract(x, batch.c[:, None],
                    out=ws.take("z", (batch.size, x.size)))
    z /= batch.m[:, None]
    xbar = -batch.c / batch.m if boundary == REFLECTING else None
    return z, xbar


def _z_matrices(batch: UpdateBatch, edges: np.ndarray, boundary: str,
                ws: Optional[Workspace] = None):
    """(P, M, f) of every row of ``batch`` on the regions between
    consecutive ``edges``: transition probabilities and first-partial-moment
    increments, one column per region, and the densities at every edge.
    P is a view of a fresh array, M and f views of buffers of the
    :class:`Workspace` ``ws`` if one is given."""
    ws = Workspace() if ws is None else ws
    fz, F, M1 = batch.law_fFM(*_normalized_edges(batch, edges, boundary, ws),
                              ws=ws, m1=False)
    # P and M are views of differences taken along the flattened arrays in
    # one loop each (numpy makes a loop call per row of a 2-d slice); each
    # row's last difference spans two rows and is dropped.
    dP = np.empty(F.shape)
    np.subtract(F.ravel()[1:], F.ravel()[:-1], out=dP.ravel()[:-1])
    P = dP[:, :-1]
    if not batch.m.min() > 0.0:
        P *= np.sign(batch.m)[:, None]
    np.maximum(dP, 0.0, out=dP)
    dM = ws.take("M", F.shape)
    if M1 is None:    # normal rows: M1 = -f, and -a - -b is b - a bit for bit
        np.subtract(fz.ravel()[:-1], fz.ravel()[1:], out=dM.ravel()[:-1])
    else:
        np.subtract(M1.ravel()[1:], M1.ravel()[:-1], out=dM.ravel()[:-1])
    return P, dM[:, :-1], fz


def _next_edges(next_codewords: np.ndarray, boundary: str) -> np.ndarray:
    return voronoi_edges(next_codewords, STATE_LOWER_END[boundary], np.inf)


def _column_blocks(rows: int, regions: int):
    """(start, end) columns of the blocks of about ``_BLOCK_CELLS`` law
    cells.  Each starts on a multiple of 8 columns and the last has at least
    8, so BLAS matrix-vector kernels sum every column as in one whole-matrix
    product (on OpenBLAS a block of 1-3 columns gets other bits)."""
    blocks = -(-rows * (regions + 1) // _BLOCK_CELLS)
    width = -(-regions // (8 * blocks)) * 8
    cuts = [*range(0, max(regions - 7, 1), width), regions]
    return list(zip(cuts[:-1], cuts[1:]))


def _mixture_evaluator(prev_p: np.ndarray, batch: UpdateBatch, boundary: str,
                       local: Optional[threading.local] = None):
    """Closure computing gradient/Hessian/centroids of the mixture distortion.

    Its four mixture sums are ``pw @ P``, ``p_c @ P``, ``p_m @ M`` and
    ``p_f @ f``.  An evaluation splits the next grid's regions into the
    column blocks of :func:`_column_blocks`, over all rows, spread over the
    thread pool.  Each block returns its columns of P and of the four sums;
    M and f never exist whole.  Cells are elementwise and each column's
    sum runs over all rows as in one whole-matrix product, so the bits do
    not depend on the split or the thread count.  The evaluation's ``aux``
    is the list of its P column blocks.

    Every thread assembles its blocks in one :class:`Workspace` of its
    own, which it keeps in ``local`` (by default the evaluator's own) from
    its first block on; only P is a fresh array.  :func:`_chain` passes one
    ``local`` per run, so every step reuses the pages of the one before.
    """
    pw, absm = prev_p, np.abs(batch.m)
    p_c = pw * batch.c
    p_m = pw * absm
    p_f = pw / absm
    local = threading.local() if local is None else local

    def evaluate(gam: np.ndarray):
        n = gam.size
        edges = _next_edges(gam, boundary)

        def block(cut):
            ws = getattr(local, "ws", None)
            if ws is None:
                ws = local.ws = Workspace()
            a, b = cut
            P, M, f = _z_matrices(batch, edges[a:b + 1], boundary, ws)
            # the densities at the inner edges: all but the block's first,
            # and the last block drops the +inf edge
            f = f[:, 1:n - a]
            return P, (pw @ P, p_c @ P, p_m @ M, p_f @ f)

        P, sums = zip(*_pool.pmap(block, _column_blocks(batch.size, n)))
        return step_eval(gam, *map(np.concatenate, zip(*sums)), aux=list(P))

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


@dataclass(eq=False, repr=False, kw_only=True)
class QuantizationSequence:
    """Per-step quantizers, probabilities and transition matrices.

    In absorbing mode every stored grid carries the zero state in front
    (codeword 0 with the accumulated absorbed mass) and the transition
    matrices carry the matching absorbing row/column.  ``params`` holds the
    model's parameters (None for a custom model or a hand-built sequence).
    Instances are immutable by convention once built and safe to share
    across threads.
    """

    scheme: str
    boundary: str
    model_kind: str
    s0: float
    horizon: float
    codewords: List[np.ndarray]
    probabilities: List[np.ndarray]
    transitions: List[np.ndarray]
    params: object = None

    def __post_init__(self):
        self.s0, self.horizon = float(self.s0), float(self.horizon)

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
        if not 1 <= k <= self.n_steps:
            raise ValueError(f"step must be in 1..{self.n_steps}, got {k}")
        cw = self.codewords[k - 1]
        p = self.probabilities[k - 1]
        if self.boundary == ABSORBING:
            return Quantizer(cw[1:], p[1:]), float(p[0])
        return Quantizer(cw, p), 0.0

    # -- serialization ---------------------------------------------------

    def to_json_dict(self) -> dict:
        """The run (model, parameters, scheme, boundary, s0, horizon) and
        each step's grid.  The transition matrices follow from these and
        are recomputed on load, so a custom model cannot be written."""
        if self.model_kind not in MODELS or self.params is None:
            raise ValueError(f"cannot write model {self.model_kind!r} as JSON: "
                             f"its parameters are not stored; dump it as CSV")
        return {
            "schema": SEQUENCE_SCHEMA,
            "model": self.model_kind,
            "params": dataclasses.asdict(self.params),
            "scheme": self.scheme,
            "boundary": self.boundary,
            "s0": self.s0,
            "horizon": self.horizon,
            "steps": [{"codewords": cw.tolist(), "probabilities": p.tolist()}
                      for cw, p in zip(self.codewords, self.probabilities)],
        }

    def dump_json(self, fh: IO[str]):
        json.dump(self.to_json_dict(), fh)
        fh.write("\n")

    def dump_csv(self, fh: IO[str]):
        """Grid dump: one row per codeword, 17 significant digits."""
        fh.write(f"# schema: {GRID_SCHEMA}\n")
        fh.write("step,time,index,codeword,probability\n")
        for k, (cw, pr) in enumerate(zip(self.codewords, self.probabilities),
                                     start=1):
            t = k * self.dt
            for j in range(cw.size):
                fh.write(f"{k},{t:.17g},{j},{cw[j]:.17g},{pr[j]:.17g}\n")


def _require_fields(doc: dict, *names: str):
    """Raise ValueError if ``doc`` lacks any of the fields ``names``."""
    missing = [n for n in names if n not in doc]
    if missing:
        raise ValueError(f"missing field {', '.join(map(repr, missing))}")


def _replay(doc: dict) -> QuantizationSequence:
    if doc.get("schema") != SEQUENCE_SCHEMA:
        raise ValueError(f"unsupported schema {doc.get('schema')!r}, "
                         f"expected {SEQUENCE_SCHEMA!r}")
    _require_fields(doc, "model", "params", "scheme", "boundary", "s0",
                    "horizon", "steps")
    if doc["model"] not in MODELS:
        raise ValueError(f"unknown model {doc['model']!r}")
    params_type, build_model = MODELS[doc["model"]]
    model = build_model(params_type(**doc["params"]))
    boundary = doc["boundary"]
    _validate_boundary(boundary)
    if not isinstance(doc["steps"], list) or not doc["steps"]:
        raise ValueError("steps must be a non-empty list")
    try:
        sched = Schedule(T=doc["horizon"], K=len(doc["steps"]))
    except (TypeError, ValueError) as exc:
        raise ValueError(f"horizon: {exc}") from None
    absorbing = boundary == ABSORBING
    support = (STATE_LOWER_END[boundary], np.inf)
    grids, probs = [], []   # each step's live grid and stored probabilities
    for k, s in enumerate(doc["steps"], start=1):
        try:
            _require_fields(s, "codewords", "probabilities")
            cw = np.asarray(s["codewords"], dtype=float)
            grids.append(checked_grid(cw[1:] if absorbing else cw, support))
            if absorbing and cw[0] != 0.0:
                raise ValueError("the zero state's codeword must be 0")
            probs.append(np.asarray(s["probabilities"], dtype=float))
        except (LookupError, TypeError, ValueError) as exc:
            raise ValueError(f"step {k}: {exc}") from None
    # the stored grids stand in for Newton: a zero budget only evaluates them
    chain = _chain(model, doc["scheme"], doc["s0"], sched, boundary,
                   lambda k, batch, prev_cw: (grids[k - 1], 0))

    def checked():
        # each step is compared as it is replayed, so a bad one stops the
        # replay before any later step is computed
        for k, (p, step) in enumerate(zip(probs, chain), start=1):
            if p.shape != step[1].shape:
                raise ValueError(f"step {k}: {p.size} probabilities for "
                                 f"{step[1].size} codewords")
            drift = np.max(np.abs(p - step[1]))
            if not drift <= MARKOV_TOL:
                raise ValueError(f"step {k}: probabilities differ from the "
                                 f"replayed chain by {drift:.3g}")
            yield step

    return _sequence(model, doc["scheme"], doc["s0"], sched, boundary,
                     checked())


def load_sequence_json(fh: IO[str]) -> QuantizationSequence:
    """Rebuild the run that the JSON document in ``fh`` describes and
    replay its recursion on the stored grids, which recomputes every
    transition matrix.

    Each stored grid must pass the grid rule, an absorbing zero state must
    stay at codeword 0, and each step's probabilities must match the
    replayed chain within ``MARKOV_TOL``; the first step that fails stops
    the replay.  Any failure raises a ValueError that names the step or
    field.  Returns the replayed sequence, bit-identical to the run on the
    build that wrote the document.
    """
    doc = json.load(fh)
    try:
        return _replay(doc)
    except (AttributeError, LookupError, TypeError, ValueError,
            RmqError) as exc:
        raise ValueError(f"inconsistent sequence: {exc}") from exc


def _step1_guess(batch: UpdateBatch, n: int, boundary: str) -> np.ndarray:
    """Map the single-law starting grid through the first affine update."""
    z0 = (initial_guess("ncx2", n, float(batch.lam[0])) if batch.is_ncx2[0]
          else initial_guess("normal", n))
    g = np.sort(batch.m[0] * z0 + batch.c[0])
    if boundary != FREE and g[0] <= 0.0:
        if g[-1] <= 0.0:
            raise RmqError("first-step guess lies entirely below zero; the "
                           "model/step size is incompatible with a zero boundary")
        lo = g[-1] * 1e-8
        g = lo + (g - g[0]) * (g[-1] - lo) / (g[-1] - g[0])
    return g


def _check_domain(gam: np.ndarray, model: SdeModel, step: int):
    """Abort before the next step would evaluate coefficients off-domain,
    or build its regions on a grid that :func:`grid_fault` refuses."""
    lo, hi = model.coef_domain
    outside = gam[~((gam > lo) & (gam < hi))]   # NaN and +-inf too
    if outside.size:
        raise CodewordDomainError(step, (
            f"step {step}: quantizer left the coefficient domain ({lo:g}, "
            f"{hi:g}) (codeword {outside[0]:.6g}); for processes that can "
            f"reach zero, rerun with an absorbing or reflecting boundary"))
    fault = grid_fault(gam)
    if fault is not None:
        raise RmqError(f"step {step}: {fault}; the step's spread is below "
                       f"the resolution of the state")


def _chain(model: SdeModel, scheme: str, s0: float, sched: Schedule,
           boundary: str, start):
    """The steps of a run, as :func:`rmq_steps` yields them; the arguments
    are checked at once, each step computed as it is drawn.

    ``start(k, batch, prev_cw)`` returns step k's starting grid and its
    Newton budget, where ``batch`` holds the affine updates out of
    ``prev_cw``.  :func:`damped_newton` refines the grid on the step's
    mixture (:func:`_mixture_evaluator`), and the transition matrix is
    that of its final evaluation; a budget of 0 keeps the starting grid.
    """
    _validate_boundary(boundary)
    if scheme not in SCHEME_BUILDERS:
        raise ValueError(f"unknown scheme {scheme!r}; expected one of "
                         f"{tuple(SCHEME_BUILDERS)}")
    lo_dom, hi_dom = model.state_domain
    if not (lo_dom < s0 < hi_dom):
        raise ValueError("s0 must lie inside the model's state domain")
    build = SCHEME_BUILDERS[scheme]

    def steps():
        # Only the last grid and probabilities carry over, so a consumer
        # that drops each step holds no earlier matrix.  prev_p weights the
        # next mixture; absorbing mode stores it behind the absorbed mass.
        # local keeps each thread's workspace until the run ends.
        prev_cw, prev_p, absorbed = np.array([float(s0)]), np.array([1.0]), 0.0
        local = threading.local()
        for k in range(1, sched.K + 1):
            batch = build(model, prev_cw, sched.dt)
            _require_positive_scale(batch, boundary)
            guess, budget = start(k, batch, prev_cw)
            gam, ev = damped_newton(
                guess, _mixture_evaluator(prev_p, batch, boundary, local),
                budget, lo=STATE_LOWER_END[boundary])
            _check_domain(gam, model, k)
            P = np.concatenate(ev.aux, 1)
            del ev   # else held while the next step runs
            p = prev_p @ P
            if boundary == ABSORBING:
                lost = np.maximum(1.0 - P.sum(axis=1), 0.0)
                absorbed += prev_p @ lost
                P = np.pad(P, ((1, 0), (1, 0)))
                P[0, 0], P[1:, 0] = 1.0, lost
                cw = np.concatenate([[0.0], gam])
                stored = np.concatenate([[absorbed], p])
            else:
                cw, stored = gam, p
            prev_cw, prev_p = gam, p
            yield cw, stored, P if k > 1 else None

    return steps()


def _sequence(model: SdeModel, scheme: str, s0: float, sched: Schedule,
              boundary: str, steps) -> QuantizationSequence:
    """The sequence of a run from the whole stream of its steps."""
    codewords, probabilities, transitions = map(list, zip(*steps))
    return QuantizationSequence(
        scheme=scheme, boundary=boundary, model_kind=model.kind, s0=s0,
        horizon=sched.T, codewords=codewords, probabilities=probabilities,
        transitions=transitions[1:], params=model.params)


def rmq_steps(model: SdeModel, scheme: str, s0: float, sched: Schedule,
              boundary: str = FREE):
    """Quantize the discretized diffusion one step at a time.

    Yields each step's (codewords, probabilities, incoming transition
    matrix, None at step 1), as :func:`rmq_run` stores them, so a consumer
    that keeps only the last step holds one matrix.  Step one quantizes the
    exact one-step conditional law from ``s0`` (a single-component mixture)
    with the schedule's VQ iteration budget; every later step starts from
    the previous grid and spends the smaller recursive budget.
    """
    def start(k, batch, prev_cw):
        if k == 1:
            guess = _step1_guess(batch, sched.n_per_step, boundary)
            return guess, sched.n_max_vq
        return prev_cw, sched.n_max_rmq

    return _chain(model, scheme, s0, sched, boundary, start)


def rmq_run(model: SdeModel, scheme: str, s0: float, sched: Schedule,
            boundary: str = FREE) -> QuantizationSequence:
    """Every step of :func:`rmq_steps`, collected into a sequence."""
    return _sequence(model, scheme, s0, sched, boundary,
                     rmq_steps(model, scheme, s0, sched, boundary))
