"""Spans around rmquant's public callables, and the per-layer metrics.

The traced run wraps the callables listed in ``HOOKS`` from outside the
library; nothing under ``src/`` is edited.  Each hook names its target as
``"module:qualname"`` and is resolved when the hooks are installed, so a
target that a refactor renames or deletes is reported as a missing layer
and the run goes on.  A module-level target is also rebound wherever a
loaded ``rmquant`` module holds it under another name (``cli.rmq_run`` or
``rmq_engine.damped_newton``, say), because those aliases are what the
library calls.  ``uninstall`` puts every original back, so untraced
passes execute unpatched code.

Spans are kept in memory: name, start, end, parent and the id of the
workload pass they belong to.  A layer's self time is its span's duration
minus that of its direct children.
"""

from __future__ import annotations

import importlib
import inspect
import sys
import time
from collections import defaultdict
from dataclasses import dataclass, field
from statistics import median
from typing import Callable, Dict, List, Optional

import numpy as np

LIVE_EPS = 1e-22         # a transition entry above this counts as live
BYTES_PER_CELL = 32      # float64 z read, pdf/cdf/m1 written (computed, not measured)
DEFAULT_GRAD_TOL = 1e-12
LAW_FAMILIES = ("gauss", "ncx2", "gauss_refl", "ncx2_refl")

LAW = "affine_schemes.law"
ASSEMBLY = "rmq_engine.assembly"
RMQ_RUN = "rmq_engine.rmq_run"
NEWTON = "newton.damped_newton"
SOLVE = "newton.solve_tridiag"
VQ = "vq1d.newton_quantize"
EUROPEAN = "pricing.european"
BERMUDAN = "pricing.bermudan"
BARRIER = "pricing.barrier"
CN = "oracles.cn"
MC = "oracles.mc"
CLI = "cli.main"


@dataclass
class Span:
    name: str
    start: float
    parent: int
    pass_id: str
    end: float = 0.0
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """In-memory span recorder; ``pass_id`` labels the spans begun next."""

    def __init__(self):
        self.spans: List[Span] = []
        self.pass_id = "setup"
        self._stack: List[int] = []

    def begin(self, name: str) -> Span:
        parent = self._stack[-1] if self._stack else -1
        span = Span(name, time.perf_counter(), parent, self.pass_id)
        self._stack.append(len(self.spans))
        self.spans.append(span)
        return span

    def end(self, span: Span):
        span.end = time.perf_counter()
        self._stack.pop()

    def to_records(self) -> List[dict]:
        return [{"name": s.name, "start": s.start, "end": s.end,
                 "parent": s.parent, "pass": s.pass_id, **s.attrs}
                for s in self.spans]


# -- probes: read counts from a call's arguments and result ---------------

def _law_probe(span, args):
    batch, z = args.get("self"), args.get("z")
    kind = "ncx2" if np.any(getattr(batch, "is_ncx2", False)) else "gauss"
    if args.get("xbar") is not None:
        kind += "_refl"
    span.attrs["family"] = kind
    span.attrs["cells"] = int(np.size(z))
    return None


def _assembly_probe(span, args):
    def after(out):
        P = np.asarray(out[0])
        span.attrs["live"] = int(np.count_nonzero(P > LIVE_EPS))
        span.attrs["entries"] = int(P.size)
    return after


def _newton_probe(span, args):
    evaluate = args.get("evaluate")
    if callable(evaluate):
        span.attrs["evals"] = 0

        def counted(gam):
            span.attrs["evals"] += 1
            return evaluate(gam)
        args["evaluate"] = counted

    def after(out):
        grad = getattr(out[1], "grad", None)
        if grad is not None:
            span.attrs["grad_supnorm"] = float(np.max(np.abs(grad)))
    return after


def _mc_probe(span, args):
    cfg = args.get("cfg")
    if cfg is not None:
        span.attrs["path_steps"] = int(cfg.paths) * int(cfg.steps)
    return None


@dataclass(frozen=True)
class Hook:
    layer: str
    target: str
    probe: Optional[Callable] = None


HOOKS = (
    Hook(LAW, "rmquant.affine_schemes:UpdateBatch.law_fFM", _law_probe),
    Hook(ASSEMBLY, "rmquant.rmq_engine:_z_matrices", _assembly_probe),
    Hook(RMQ_RUN, "rmquant.rmq_engine:rmq_run"),
    Hook(NEWTON, "rmquant._newton:damped_newton", _newton_probe),
    Hook(SOLVE, "rmquant._newton:solve_tridiag"),
    Hook(VQ, "rmquant.vq1d:newton_quantize"),
    Hook(EUROPEAN, "rmquant.pricing:european_price"),
    Hook(BERMUDAN, "rmquant.pricing:bermudan_price"),
    Hook(BARRIER, "rmquant.pricing:barrier_up_out_price"),
    Hook(CN, "rmquant.oracles:cn_bermudan"),
    Hook(MC, "rmquant.oracles:simulate_terminal", _mc_probe),
    Hook(CLI, "rmquant.cli:main"),
)


def _resolve(target: str):
    """(owner, attribute name, original) of ``module:qualname``."""
    mod_name, qualname = target.split(":")
    owner = importlib.import_module(mod_name)
    *path, attr = qualname.split(".")
    for part in path:
        owner = getattr(owner, part)
    if attr not in vars(owner):
        raise AttributeError(f"{qualname} not found in {mod_name}")
    return owner, attr, vars(owner)[attr]


def _make_wrapper(tracer: Tracer, hook: Hook, original: Callable):
    sig = None
    if hook.probe is not None:
        try:
            sig = inspect.signature(original)
        except (TypeError, ValueError):
            sig = None

    def wrapper(*args, **kwargs):
        span = tracer.begin(hook.layer)
        try:
            after = None
            if sig is not None:
                try:
                    bound = sig.bind(*args, **kwargs)
                except TypeError:
                    bound = None
                if bound is not None:
                    after = hook.probe(span, bound.arguments)
                    args, kwargs = bound.args, bound.kwargs
            out = original(*args, **kwargs)
            if after is not None:
                after(out)
            return out
        finally:
            tracer.end(span)

    return wrapper


class Installed:
    """Hooks in place on one tracer; ``uninstall`` restores the originals."""

    def __init__(self, tracer: Tracer, hooks=HOOKS):
        self.missing: Dict[str, str] = {}
        self._undo = []
        for hook in hooks:
            try:
                owner, attr, original = _resolve(hook.target)
            except (ImportError, AttributeError, ValueError) as exc:
                self.missing[hook.layer] = f"{hook.target}: {exc}"
                continue
            wrapper = _make_wrapper(tracer, hook, original)
            self._patch(owner, attr, wrapper)
            if inspect.ismodule(owner):
                for mod in list(sys.modules.values()):
                    name = getattr(mod, "__name__", "")
                    if mod is owner or not (name == "rmquant"
                                            or name.startswith("rmquant.")):
                        continue
                    for alias, value in list(vars(mod).items()):
                        if value is original:
                            self._patch(mod, alias, wrapper)

    def _patch(self, owner, attr, value):
        self._undo.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def uninstall(self):
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)


# -- per-layer metrics from one set of spans -----------------------------

def layer_metrics(spans: List[Span], ids: List[int],
                  grad_tol: float = DEFAULT_GRAD_TOL) -> Dict[str, float]:
    """Per-layer metrics of the spans ``ids`` (indices into ``spans``).

    Every per-layer metric is present; a layer that recorded no span
    reports zeros.
    """
    chosen = set(ids)
    child_time = defaultdict(float)
    children = defaultdict(list)
    for i in ids:
        p = spans[i].parent
        if p in chosen:
            child_time[p] += spans[i].duration
            children[p].append(i)

    def self_time(i):
        return spans[i].duration - child_time[i]

    def named(name):
        return [i for i in ids if spans[i].name == name]

    in_run = {}  # parents are recorded before their children
    for i in ids:
        p = spans[i].parent
        in_run[i] = p in chosen and (spans[p].name == RMQ_RUN or in_run[p])

    m: Dict[str, float] = {}
    laws = named(LAW)
    for fam in LAW_FAMILIES:
        sel = [i for i in laws if spans[i].attrs.get("family") == fam]
        cells = sum(spans[i].attrs["cells"] for i in sel)
        secs = sum(spans[i].duration for i in sel)
        key = f"{LAW}.{fam}"
        m[f"{key}.calls"] = len(sel)
        m[f"{key}.cells"] = cells
        m[f"{key}.s"] = secs
        m[f"{key}.ns_per_cell"] = secs / cells * 1e9 if cells else 0.0
    all_cells = sum(spans[i].attrs.get("cells", 0) for i in laws)
    m[f"{LAW}.bytes_computed"] = BYTES_PER_CELL * all_cells

    asm = named(ASSEMBLY)
    entries = sum(spans[i].attrs.get("entries", 0) for i in asm)
    m[f"{ASSEMBLY}.calls"] = len(asm)
    m[f"{ASSEMBLY}.self_s"] = sum(self_time(i) for i in asm)
    m[f"{ASSEMBLY}.live_frac"] = (
        sum(spans[i].attrs.get("live", 0) for i in asm) / entries
        if entries else 0.0)

    runs = named(RMQ_RUN)
    steps = [c for r in runs for c in children[r] if spans[c].name == NEWTON]
    first_steps = [min((c for c in children[r] if spans[c].name == NEWTON),
                       default=None) for r in runs]
    evals = sum(spans[i].attrs.get("evals", 0) for i in steps)
    run_s = sum(spans[i].duration for i in runs)
    law_in_runs = [i for i in laws if in_run[i]]
    m[f"{RMQ_RUN}.calls"] = len(runs)
    m[f"{RMQ_RUN}.s"] = run_s
    m["rmq_engine.steps"] = len(steps)
    m["rmq_engine.evals"] = evals
    m["rmq_engine.evals_per_step"] = evals / len(steps) if steps else 0.0
    m["rmq_engine.step1_evals"] = sum(spans[i].attrs.get("evals", 0)
                                      for i in first_steps if i is not None)
    m["rmq_engine.law_cells_per_eval"] = (
        sum(spans[i].attrs.get("cells", 0) for i in law_in_runs) / evals
        if evals else 0.0)
    m["rmq_engine.other_s"] = (sum(self_time(i) for i in runs)
                               + sum(self_time(i) for i in steps))

    newtons = named(NEWTON)
    solves = named(SOLVE)
    iters = {i: sum(1 for c in children[i] if spans[c].name == SOLVE)
             for i in newtons}
    norms = [spans[i].attrs["grad_supnorm"] for i in newtons
             if "grad_supnorm" in spans[i].attrs]
    m["newton.iters"] = sum(iters.values())
    m["newton.extra_evals"] = sum(
        spans[i].attrs.get("evals", 0) - 1 - iters[i] for i in newtons
        if "evals" in spans[i].attrs)
    m["newton.solve_s"] = sum(spans[i].duration for i in solves)
    m["newton.grad_supnorm_max"] = max(norms, default=0.0)
    m["newton.unconverged_steps"] = sum(1 for g in norms if not g < grad_tol)

    for name in (EUROPEAN, BERMUDAN, BARRIER, CN, VQ, CLI):
        sel = named(name)
        m[f"{name}.calls"] = len(sel)
        m[f"{name}.s"] = sum(spans[i].duration for i in sel)
    mc = named(MC)
    mc_s = sum(spans[i].duration for i in mc)
    m[f"{MC}.calls"] = len(mc)
    m[f"{MC}.s"] = mc_s
    m[f"{MC}.path_steps_per_s"] = (
        sum(spans[i].attrs.get("path_steps", 0) for i in mc) / mc_s
        if mc_s else 0.0)
    m["cli.self_s"] = sum(self_time(i) for i in named(CLI))
    return m


# Counts the numpy path makes deterministic: identical on every pass and
# every run of the same source.
EXACT_COUNT_SUFFIXES = (".calls", ".cells", ".live_frac", ".bytes_computed")
EXACT_COUNT_NAMES = ("rmq_engine.steps", "rmq_engine.evals",
                     "rmq_engine.evals_per_step", "rmq_engine.step1_evals",
                     "newton.iters", "newton.extra_evals",
                     "newton.grad_supnorm_max", "newton.unconverged_steps")


def exact_counts(metrics: Dict[str, float]) -> Dict[str, float]:
    return {k: v for k, v in sorted(metrics.items())
            if k in EXACT_COUNT_NAMES or k.endswith(EXACT_COUNT_SUFFIXES)}


def per_pass_metrics(tracer: Tracer, grad_tol: float = DEFAULT_GRAD_TOL):
    """Metrics of the traced set-up plus each traced pass, one dict per pass."""
    by_pass = defaultdict(list)
    for i, s in enumerate(tracer.spans):
        by_pass[s.pass_id].append(i)
    setup = by_pass.pop("setup", [])
    return [layer_metrics(tracer.spans, setup + ids, grad_tol)
            for _, ids in sorted(by_pass.items())]


def median_metrics(per_pass: List[Dict[str, float]]) -> Dict[str, float]:
    return {k: median(d[k] for d in per_pass) for k in per_pass[0]}
