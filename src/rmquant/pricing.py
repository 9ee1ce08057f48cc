"""Claim pricing on a quantization sequence.

All three pricers are plain matrix arithmetic on the stored grids,
probabilities and transition matrices.  The zero state added by the
absorbing boundary participates exactly like any other codeword with
value zero (full strike value for a put).  Pricing many payoffs over one
sequence is safe to run concurrently: nothing here mutates the sequence.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .rmq_engine import QuantizationSequence


@dataclass(frozen=True)
class VanillaPayoff:
    """Terminal payoff: call or put with a strike."""

    kind: str
    strike: float = 0.0

    def __post_init__(self):
        if self.kind not in ("call", "put"):
            raise ValueError(f"unknown payoff kind {self.kind!r}")
        if not 0.0 <= self.strike < np.inf:
            raise ValueError(
                f"strike must be finite and >= 0, got {self.strike}")

    def values(self, s) -> np.ndarray:
        s = np.asarray(s, dtype=float)
        if self.kind == "call":
            return np.maximum(s - self.strike, 0.0)
        return np.maximum(self.strike - s, 0.0)


@dataclass(frozen=True)
class BarrierSpec:
    """Up-and-out barrier monitored at the sequence's step times."""

    level: float

    def __post_init__(self):
        if not self.level > 0.0:
            raise ValueError(
                f"barrier level must be positive, got {self.level}")


def european_price(seq: QuantizationSequence, payoff: VanillaPayoff,
                   r: float) -> float:
    """Discounted expectation of the payoff over the terminal quantizer."""
    h = payoff.values(seq.codewords[-1])
    return float(np.exp(-r * seq.horizon) * (seq.probabilities[-1] @ h))


def bermudan_price(seq: QuantizationSequence, payoff: VanillaPayoff,
                   r: float) -> float:
    """Backward dynamic programming value with exercise at every step time.

    h_K = H(grid_K); going backward, each step's value is the element-wise
    max of immediate exercise and the discounted continuation through the
    transition matrix; the root value discounts the step-1 vector through
    the initial probabilities.
    """
    disc = np.exp(-r * seq.dt)
    h = payoff.values(seq.codewords[-1])
    for k in range(seq.n_steps - 1, 0, -1):
        cont = disc * (seq.transitions[k - 1] @ h)
        h = np.maximum(payoff.values(seq.codewords[k - 1]), cont)
    return float(disc * (seq.probabilities[0] @ h))


def barrier_up_out_price(seq: QuantizationSequence, payoff: VanillaPayoff,
                         barrier: BarrierSpec, r: float) -> float:
    """Discretely monitored up-and-out price, carried on the states.

    The surviving mass is masked by 1{codeword < L} on each grid, then moved
    through the next transition matrix; inception counts as a monitoring
    date, so a barrier at or below the initial state prices to zero.
    """
    L = barrier.level
    row = seq.probabilities[0] * ((seq.s0 < L) & (seq.codewords[0] < L))
    for P, cw in zip(seq.transitions, seq.codewords[1:]):
        row = (row @ P) * (cw < L)
    h = payoff.values(seq.codewords[-1])
    return float(np.exp(-r * seq.horizon) * (row @ h))
