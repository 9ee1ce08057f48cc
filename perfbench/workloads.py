"""The benchmark's workloads: set-up, one timed pass, and output checks.

Model and schedule parameters are the paper's, because the acceptance
bounds the checks apply are stated for them.  The workload seed only
draws the pricing book (strikes and barrier levels) and the Monte Carlo
seed.  Library calls go through module attributes (``rq.rmq_run``, not a
local alias) so that the traced run sees them.

Every ``rmq_run``, price and CLI call is one operation.  A failed check
counts as a failed operation; nothing is retried.
"""

from __future__ import annotations

import contextlib
import io
import math
import time
import traceback
from typing import Dict, List

import numpy as np

import rmquant as rq
from rmquant import cli

T = 1.0
GBM = rq.GbmParams(s0=100.0, r=0.05, sigma=0.3)
CEV_LOW_ALPHA = rq.CevParams(s0=0.5, r=0.05, alpha=0.35, sigma_ln=0.5)
PAPER = rq.Schedule(T=T, K=12, n_per_step=200, n_max_vq=50, n_max_rmq=5)
FD = rq.FdConfig(time_steps=600, space_steps=800, s_max_mult=4.0)

# Acceptance bounds, as tests/test_acceptance.py states them.
PRICE_GATE = 0.05          # weak2 vs Black-Scholes / Crank-Nicolson
DOMINANCE_TOL = 1e-12      # bermudan >= european, barrier <= european
MASS_TOL = 1e-10           # sum of probabilities
SLOPE_RANGE = (1.6, 2.3)   # weak2 weak-order slope

N_STRIKES = 81
N_LEVELS = 46


class Ledger:
    """Operations attempted and failed during the timed passes."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.failures: List[str] = []

    def op(self, label, fn, *args):
        """Run one operation; an exception counts as its failure."""
        self.attempted += 1
        try:
            return fn(*args)
        except Exception:  # the benchmark must go on to report the failure
            self.fail(label, traceback.format_exc(limit=2).strip())
            return None

    def skipped(self, label, count):
        """Operations that could not run because one they need failed."""
        self.attempted += count
        for _ in range(count):
            self.fail(label, "skipped: prerequisite failed")

    def check(self, ok, label, detail=""):
        if not ok:
            self.fail(label, detail)
        return bool(ok)

    def fail(self, label, detail=""):
        self.failed += 1
        if len(self.failures) < 20:
            self.failures.append(f"{label}: {detail}" if detail else label)


def _stratified(rng, lo, hi, n):
    """One uniform draw in each of n equal cells of [lo, hi], ascending."""
    return lo + (hi - lo) * (np.arange(n) + rng.random(n)) / n


# -- paper_grids ----------------------------------------------------------

PAPER_CASES = (
    ("gbm", "euler", rq.FREE),
    ("gbm", "milstein", rq.FREE),
    ("gbm", "weak2", rq.FREE),
    ("cev", "euler", rq.ABSORBING),
    ("cev", "euler", rq.REFLECTING),
    ("cev", "weak2", rq.ABSORBING),
    ("cev", "weak2", rq.REFLECTING),
)


class PaperGrids:
    """Seven paper-configuration sequences, each repricing the whole book."""

    name = "paper_grids"

    def setup(self, seed: int) -> dict:
        rng = np.random.default_rng(seed)
        strike_mult = _stratified(rng, 0.6, 1.4, N_STRIKES)
        level_mult = _stratified(rng, 1.05, 1.5, N_LEVELS)
        gbm = rq.gbm_model(GBM)
        strikes = strike_mult * GBM.s0
        dates = [k * T / PAPER.K for k in range(1, PAPER.K)]
        refs = {
            "put": [rq.black_scholes("put", GBM.s0, k, GBM.r, GBM.sigma, T)
                    for k in strikes],
            "call": [rq.black_scholes("call", GBM.s0, k, GBM.r, GBM.sigma, T)
                     for k in strikes],
            "bermudan": [rq.cn_bermudan(gbm, GBM.s0, T, GBM.r,
                                        rq.VanillaPayoff("put", float(k)),
                                        dates, FD) for k in strikes],
        }
        return {
            "models": {"gbm": (gbm, GBM), "cev": (rq.cev_model(CEV_LOW_ALPHA),
                                                  CEV_LOW_ALPHA)},
            "strike_mult": strike_mult,
            "level_mult": level_mult,
            "refs": refs,
        }

    def run_pass(self, ctx: dict, ledger: Ledger) -> Dict[str, float]:
        windows = []
        errs = []
        book_size = 2 * N_STRIKES + 1 + N_STRIKES + N_LEVELS
        for kind, scheme, boundary in PAPER_CASES:
            model, params = ctx["models"][kind]
            label = f"{kind}/{scheme}/{boundary}"
            t0 = time.perf_counter()
            seq = ledger.op(f"rmq_run {label}", rq.rmq_run, model, scheme,
                            params.s0, PAPER, boundary)
            windows.append((t0, time.perf_counter()))
            if seq is None:
                ledger.skipped(f"book {label}", book_size)
                continue
            if kind == "cev":
                self._check_cev(seq, boundary, label, ledger)
            errs += self._price_book(seq, ctx, params, label,
                                     kind == "gbm" and scheme == "weak2",
                                     ledger)
        return {"quantize_s": sum(t1 - t0 for t0, t1 in windows),
                "quantize_windows": windows,
                "price_err_max": max(errs) if errs else math.inf}

    @staticmethod
    def _check_cev(seq, boundary, label, ledger):
        live = seq.codewords[-1][1:] if boundary == rq.ABSORBING else seq.codewords[-1]
        ledger.check(live.size > 0 and np.all(live > 0.0), f"{label} live > 0")
        worst = max(abs(float(p.sum()) - 1.0) for p in seq.probabilities)
        ledger.check(worst <= MASS_TOL, f"{label} sum p", f"|sum p - 1| = {worst:.3g}")
        if boundary == rq.ABSORBING:
            ledger.check(np.all(np.diff(seq.zero_state_mass) >= -1e-15),
                         f"{label} zero mass non-decreasing")

    @staticmethod
    def _price_book(seq, ctx, params, label, against_refs, ledger):
        s0, r = params.s0, params.r
        strikes = ctx["strike_mult"] * s0
        refs = ctx["refs"]
        errs = []
        puts, calls, berms = [], [], []
        for k in strikes:
            put = rq.VanillaPayoff("put", float(k))
            puts.append(ledger.op(f"european put {label}", rq.european_price, seq, put, r))
            calls.append(ledger.op(f"european call {label}", rq.european_price, seq,
                                   rq.VanillaPayoff("call", float(k)), r))
            berms.append(ledger.op(f"bermudan {label}", rq.bermudan_price, seq, put, r))
        atm = rq.VanillaPayoff("put", s0)
        atm_put = ledger.op(f"european atm {label}", rq.european_price, seq, atm, r)
        barriers = [ledger.op(f"barrier {label}", rq.barrier_up_out_price, seq, atm,
                              rq.BarrierSpec(level=float(m * s0)), r)
                    for m in ctx["level_mult"]]

        for i, (p, b) in enumerate(zip(puts, berms)):
            if p is not None and b is not None:
                ledger.check(b >= p - DOMINANCE_TOL, f"{label} bermudan >= european",
                             f"strike {strikes[i]:.6g}: {b!r} < {p!r}")
        done = [b for b in barriers if b is not None]
        if atm_put is not None:
            ledger.check(all(b <= atm_put + DOMINANCE_TOL for b in done),
                         f"{label} barrier <= european")
        ledger.check(all(np.diff(done) >= -DOMINANCE_TOL),
                     f"{label} barrier non-decreasing in level")
        if against_refs:
            for name, got in (("put", puts), ("call", calls), ("bermudan", berms)):
                for i, (price, ref) in enumerate(zip(got, refs[name])):
                    if price is None:
                        continue
                    err = abs(price - ref)
                    errs.append(err)
                    ledger.check(err <= PRICE_GATE, f"{label} {name} vs reference",
                                 f"strike {strikes[i]:.6g}: |{price!r} - {ref!r}|")
        return errs


# -- weak_order_sweep -----------------------------------------------------

SWEEP_KS = (4, 8, 16, 32)
SWEEP_N = 1000


class WeakOrderSweep:
    """GBM weak2 at N=1000 over K = 4..32, ending with the weak-order slope."""

    name = "weak_order_sweep"

    def setup(self, seed: int) -> dict:
        return {"model": rq.gbm_model(GBM),
                "target": GBM.s0 * math.exp(GBM.r * T)}

    def run_pass(self, ctx: dict, ledger: Ledger) -> Dict[str, float]:
        windows = []
        errs = []
        for K in SWEEP_KS:
            sched = rq.Schedule(T=T, K=K, n_per_step=SWEEP_N, n_max_vq=50,
                                n_max_rmq=5)
            t0 = time.perf_counter()
            seq = ledger.op(f"rmq_run weak2 K={K}", rq.rmq_run, ctx["model"],
                            "weak2", GBM.s0, sched, rq.FREE)
            windows.append((t0, time.perf_counter()))
            if seq is not None:
                errs.append(abs(seq.terminal_mean() - ctx["target"]))
        slope = math.nan
        if len(errs) == len(SWEEP_KS):
            slope = float(np.polyfit(np.log2(1.0 / np.array(SWEEP_KS, dtype=float)),
                                     np.log2(np.maximum(errs, 1e-300)), 1)[0])
        ledger.check(SLOPE_RANGE[0] <= slope <= SLOPE_RANGE[1],
                     "weak2 weak-order slope", f"beta = {slope!r}")
        return {"quantize_s": sum(t1 - t0 for t0, t1 in windows),
                "quantize_windows": windows,
                "price_err_max": max(errs) if errs else math.inf,
                "order_slope_err": abs(slope - 2.0)}


# -- cli_reference --------------------------------------------------------

MC_PATHS = "131072"  # 8 chunks of the Monte Carlo engine's 16384-path chunk


def _cli_commands(mc_seed: int):
    """(argv, output schema, extra check) of each CLI command in a pass."""
    s = str(mc_seed)
    cev = ["--model", "cev", "--s0", "0.5", "--alpha", "0.35", "--sigma-ln", "0.5",
           "--boundary", "reflecting"]
    return [
        (["price", "european", "--strikes", "0.7:1.3:13"], "prices", "gate"),
        (["price", "bermudan", "--strikes", "0.8:1.2:5"], "prices", "gate"),
        (["price", "barrier", "--seed", s, "--mc-paths", MC_PATHS], "prices", "barrier"),
        (["price", "european", *cev, "--seed", s, "--mc-paths", MC_PATHS,
          "--strikes", "0.8:1.2:5"], "prices", None),
        (["vq", "--dist", "normal", "--n", "50", "--iters", "20"], "vq", None),
        (["vq", "--dist", "ncx2", "--lambda", "4", "--n", "50"], "vq", None),
        (["rmq", "--model", "gbm", "--scheme", "weak2", "--N", "200", "--K", "12"],
         "grid", None),
        (["rmq", *cev], "grid", None),
    ]


def _parse_table(text: str, schema: str):
    """Rows of an ``rmquant.<schema>.v1`` CSV table as dicts of strings."""
    lines = text.splitlines()
    if len(lines) < 3 or lines[0] != f"# schema: rmquant.{schema}.v1":
        raise ValueError(f"expected an rmquant.{schema}.v1 table, got "
                         f"{lines[:1]!r}")
    header = lines[1].split(",")
    rows = [dict(zip(header, line.split(","))) for line in lines[2:]]
    if any(len(row) != len(header) for row in rows):
        raise ValueError("ragged table")
    return rows


class CliReference:
    """``cli.main`` in-process, stdout captured: price and README commands."""

    name = "cli_reference"

    def setup(self, seed: int) -> dict:
        mc_seed = int(np.random.default_rng(seed).integers(1, 2**31 - 1))
        return {"commands": _cli_commands(mc_seed)}

    def run_pass(self, ctx: dict, ledger: Ledger) -> Dict[str, float]:
        # Each command runs once; the time to grids is that of cli.main on
        # the vq and rmq commands.
        windows = []
        errs = []
        for cmd in ctx["commands"]:
            window = self._call(cmd, ledger, errs)
            if cmd[1] != "prices":
                windows.append(window)
        return {"quantize_s": sum(t1 - t0 for t0, t1 in windows),
                "quantize_windows": windows,
                "price_err_max": max(errs) if errs else math.inf}

    def _call(self, command, ledger, errs):
        """Run one CLI command and check its output; the (start, end) of cli.main."""
        argv, schema, check = command
        label = " ".join(argv[:2])
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            t0 = time.perf_counter()
            rc = ledger.op(label, cli.main, argv)
            window = (t0, time.perf_counter())
        if rc is None or not ledger.check(
                rc == 0, f"{label} exit code",
                f"{rc!r}: {err.getvalue().strip()[:200]}"):
            return window
        try:
            rows = _parse_table(out.getvalue(), schema)
        except ValueError as exc:
            ledger.fail(f"{label} output", str(exc))
            return window
        errs += self._check_rows(rows, schema, check, label, ledger)
        return window

    @staticmethod
    def _check_rows(rows, schema, check, label, ledger):
        if schema == "prices":
            prices = [float(row["price"]) for row in rows]
            ledger.check(all(math.isfinite(p) for p in prices) and prices,
                         f"{label} finite prices")
            if check == "barrier":
                ledger.check(all(np.diff(prices) >= -DOMINANCE_TOL),
                             f"{label} barrier non-decreasing in level")
            if check == "gate":
                errs = [abs(float(row["price"]) - float(row["reference"]))
                        for row in rows]
                ledger.check(max(errs) <= PRICE_GATE, f"{label} vs reference",
                             f"max error {max(errs)!r}")
                return errs
            return []
        cw = np.array([float(row["codeword"]) for row in rows])
        pr = np.array([float(row["probability"]) for row in rows])
        steps = [int(row["step"]) for row in rows] if schema == "grid" else [0] * len(rows)
        ok = bool(np.all(np.isfinite(cw)))
        for k in sorted(set(steps)):
            ok &= abs(float(pr[np.array(steps) == k].sum()) - 1.0) <= MASS_TOL
        ledger.check(ok, f"{label} grid finite with unit mass")
        return []


WORKLOADS = {w.name: w for w in (PaperGrids(), WeakOrderSweep(), CliReference())}
