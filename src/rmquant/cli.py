"""Command-line driver: quantize, run the recursion, price, and report.

Commands
--------
vq           quantize a single distribution (normal or ncx2)
rmq          run the recursive quantization and dump the grids
price        price european / bermudan / barrier claims with references
convergence  first-moment weak-order study over a list of step counts
dist-error   implied-vs-reference terminal cdf error profile

Every command is deterministic given its flags; ``price`` and
``dist-error``, the commands with Monte Carlo references, take ``--seed``
and require it where a reference is simulated.  A flag that the run would
not read is a usage error, not silently dropped: each command, and each
``price`` instrument, declares only the flags it reads, and the run
refuses those that its model leaves unread.  A ``--config`` file of
``key=value`` lines supplies defaults that explicit flags override: each
key is a long flag name without ``--`` (``N=200``, ``iters-rmq=10``,
``lambda=4``) and is checked exactly like that flag.
Exit codes: 0 success, 1 numerical failure, 2 usage error.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from collections import deque
from contextlib import nullcontext
from typing import Dict, List, Optional

import numpy as np

from .affine_schemes import SCHEME_BUILDERS
from .distributions import Ncx2Params, ncx2_1_funcs, std_normal_funcs
from .oracles import (FdConfig, McConfig, black_scholes, cn_bermudan,
                      empirical_cdf, mc_estimate, simulate_terminal)
from .pricing import (BarrierSpec, VanillaPayoff, barrier_up_out_price,
                      bermudan_price, european_price)
from .rmq_engine import (BOUNDARY_MODES, FREE, RmqError, Schedule,
                         implied_marginal_cdf, rmq_run, rmq_steps)
from .sde_models import (CevParams, CoefficientDomainError, GbmParams,
                         cev_model, gbm_exact_marginal, gbm_model)
from .vq1d import Quantizer, distortion_gradient, initial_guess, newton_quantize

EXIT_OK = 0
EXIT_NUMERICAL = 1
EXIT_USAGE = 2

PRICES_SCHEMA = "rmquant.prices.v1"
VQ_SCHEMA = "rmquant.vq.v1"
CONVERGENCE_SCHEMA = "rmquant.convergence.v1"
DIST_ERROR_SCHEMA = "rmquant.dist-error.v1"

ALL_SCHEMES = tuple(SCHEME_BUILDERS)
MC_PATHS = 1_000_000    # Monte Carlo reference defaults
MC_STEPS = 1200
GBM_SIGMA, CEV_ALPHA, CEV_SIGMA_LN = 0.3, 0.7, 0.3   # model parameter defaults


def _parse_range(text: str) -> np.ndarray:
    """``start:stop:count`` inclusive linear grid."""
    parts = text.split(":")
    if len(parts) != 3:
        raise argparse.ArgumentTypeError(
            f"expected start:stop:count, got {text!r}")
    try:
        lo, hi, n = float(parts[0]), float(parts[1]), int(parts[2])
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None
    if not (np.isfinite(lo) and np.isfinite(hi)):
        raise argparse.ArgumentTypeError("start and stop must be finite")
    if n < 1:
        raise argparse.ArgumentTypeError("count must be >= 1")
    return np.linspace(lo, hi, n)


def _parse_int_list(text: str) -> List[int]:
    try:
        return [int(tok) for tok in text.split(",") if tok.strip()]
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _parse_schemes(text: str) -> List[str]:
    if text == "all":
        return list(ALL_SCHEMES)
    out = [tok.strip() for tok in text.split(",")]
    for tok in out:
        if tok not in SCHEME_BUILDERS:
            raise argparse.ArgumentTypeError(f"unknown scheme {tok!r}")
    return out


def _model_args(sp):
    sp.add_argument("--model", choices=("gbm", "cev"), default="gbm")
    sp.add_argument("--s0", type=float, default=100.0)
    sp.add_argument("--r", type=float, default=0.05)
    # None until _build_model, so that the other model's flags are refused
    sp.add_argument("--sigma", type=float, default=None,
                    help=f"GBM volatility (default {GBM_SIGMA})")
    sp.add_argument("--alpha", type=float, default=None,
                    help=f"CEV elasticity (default {CEV_ALPHA})")
    sp.add_argument("--sigma-ln", type=float, default=None, dest="sigma_ln",
                    help=f"CEV instantaneous lognormal volatility "
                         f"(default {CEV_SIGMA_LN})")


def _run_args(sp, default_n=200, with_k=True):
    sp.add_argument("--T", type=float, default=1.0)
    if with_k:
        sp.add_argument("--K", type=int, default=12)
    sp.add_argument("--N", type=int, default=default_n)
    sp.add_argument("--iters-vq", type=int, default=50, dest="iters_vq")
    sp.add_argument("--iters-rmq", type=int, default=5, dest="iters_rmq")
    sp.add_argument("--boundary", choices=BOUNDARY_MODES, default=FREE)


def _mc_args(sp):
    sp.add_argument("--seed", type=int, default=None,
                    help="seed for Monte Carlo references")
    sp.add_argument("--mc-paths", type=int, default=None, dest="mc_paths",
                    help=f"Monte Carlo paths (default {MC_PATHS})")
    sp.add_argument("--mc-steps", type=int, default=None, dest="mc_steps",
                    help=f"Monte Carlo time steps (default {MC_STEPS})")


def _mc_sizes(ns):
    """(paths, steps) of a Monte Carlo reference, defaults filled in."""
    return (MC_PATHS if ns.mc_paths is None else ns.mc_paths,
            MC_STEPS if ns.mc_steps is None else ns.mc_steps)


def _model_rules(ns):
    """``_refuse_unread`` rules for the parameter flags of the other model."""
    gbm = ns.model == "gbm"
    return [(gbm, "a GBM run has no CEV parameters",
             {"--alpha": ns.alpha, "--sigma-ln": ns.sigma_ln}),
            (not gbm, "a CEV run has no GBM volatility", {"--sigma": ns.sigma})]


def _mc_flags(ns):
    return {"--seed": ns.seed, "--mc-paths": ns.mc_paths, "--mc-steps": ns.mc_steps}


def _refuse_unread(rules):
    """Raise ValueError, naming every refused flag, if this run was given
    flags it would not read.  ``rules`` holds ``(applies, reason,
    {flag: value})``; where a rule applies, the flags whose value is not
    None are refused."""
    refused = []
    for applies, reason, flags in rules:
        given = [flag for flag, value in flags.items() if value is not None]
        if applies and given:
            refused.append(f"{', '.join(given)}: {reason}")
    if refused:
        raise ValueError("; ".join(refused))


def _common_args(sp):
    sp.add_argument("--config", help="key=value defaults file")
    sp.add_argument("--out", help="output path (default: stdout)")
    sp.add_argument("--format", choices=("csv", "json"), default="csv")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rmquant",
        description="Recursive marginal quantization of scalar SDEs",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    vq = sub.add_parser("vq", help="quantize a single distribution")
    vq.add_argument("--dist", choices=("normal", "ncx2"), required=True)
    vq.add_argument("--lambda", type=float, default=None, dest="lam",
                    help="ncx2 noncentrality")
    vq.add_argument("--n", type=int, default=50)
    vq.add_argument("--iters", type=int, default=20)
    _common_args(vq)
    vq.set_defaults(func=cmd_vq)

    rmq = sub.add_parser("rmq", help="run the recursive quantization")
    rmq.add_argument("--scheme", choices=ALL_SCHEMES, default="euler")
    _model_args(rmq)
    _run_args(rmq)
    _common_args(rmq)
    rmq.set_defaults(func=cmd_rmq)

    price = sub.add_parser("price", help="price claims on the grids")
    instruments = price.add_subparsers(dest="instrument", required=True)
    for name in ("european", "bermudan", "barrier"):
        sp = instruments.add_parser(name, help=f"price {name} claims")
        sp.add_argument("--scheme", choices=ALL_SCHEMES, default="weak2")
        sp.add_argument("--kind", choices=("put", "call"), default="put")
        # a barrier claim has one strike, a vanilla one a strike or a grid
        strike = sp if name == "barrier" else sp.add_mutually_exclusive_group()
        strike.add_argument("--strike", type=float, default=None,
                            help="absolute strike (default: at the money)")
        if name == "barrier":
            sp.add_argument("--levels", type=_parse_range, default="1.05:1.5:10",
                            help="barrier levels as multiples of the strike "
                                 "(default %(default)s)")
        else:
            strike.add_argument("--strikes", type=_parse_range, default=None,
                                help="strike grid as multiples of s0 "
                                     "(start:stop:count)")
        if name == "bermudan":
            for flag, default in (("--fd-time-steps", 600),
                                  ("--fd-space-steps", 800),
                                  ("--fd-smax-mult", 4.0)):
                sp.add_argument(flag, type=type(default), default=default,
                                help="Crank-Nicolson reference grid "
                                     "(default %(default)s)")
        else:
            _mc_args(sp)
        _model_args(sp)
        _run_args(sp)
        _common_args(sp)
        sp.set_defaults(func=cmd_price)

    # No abbreviations here: "--K" would silently read as "--K-list".
    conv = sub.add_parser("convergence", help="weak-order slope study",
                          allow_abbrev=False)
    conv.add_argument("--schemes", type=_parse_schemes, default=list(ALL_SCHEMES))
    conv.add_argument("--K-list", type=_parse_int_list,
                      default=[2, 4, 8, 16, 32, 64], dest="k_list")
    _model_args(conv)
    _run_args(conv, default_n=1000, with_k=False)
    _common_args(conv)
    conv.set_defaults(func=cmd_convergence)

    de = sub.add_parser("dist-error", help="terminal cdf error profile")
    de.add_argument("--schemes", type=_parse_schemes, default=list(ALL_SCHEMES))
    de.add_argument("--grid-points", type=int, default=1000,
                    dest="grid_points")
    _mc_args(de)
    _model_args(de)
    _run_args(de)
    _common_args(de)
    de.set_defaults(func=cmd_dist_error)

    return parser


def _read_config(path: str) -> Dict[str, str]:
    out = {}
    with open(path) as fh:
        for line in fh:
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise ValueError(f"config line without '=': {line!r}")
            key, val = line.split("=", 1)
            out[key.strip()] = val.strip()
    return out


def _build_model(ns):
    if ns.model == "gbm":
        params = GbmParams(s0=ns.s0, r=ns.r,
                           sigma=GBM_SIGMA if ns.sigma is None else ns.sigma)
        return gbm_model(params), params
    params = CevParams(
        s0=ns.s0, r=ns.r, alpha=CEV_ALPHA if ns.alpha is None else ns.alpha,
        sigma_ln=CEV_SIGMA_LN if ns.sigma_ln is None else ns.sigma_ln)
    return cev_model(params), params


def _schedule(ns, K: int) -> Schedule:
    return Schedule(T=ns.T, K=K, n_per_step=ns.N,
                    n_max_vq=ns.iters_vq, n_max_rmq=ns.iters_rmq)


def _check_out(path: Optional[str]):
    """Refuse, before anything is computed, an ``--out`` that could not be
    opened for writing: its directory must exist and the path must not be
    a directory.  Nothing is created; :func:`_open_out` opens the file."""
    if not path:
        return
    parent = os.path.dirname(path) or os.curdir
    if not os.path.isdir(parent):
        raise ValueError(f"--out {path!r}: no directory {parent!r}")
    if os.path.isdir(path):
        raise ValueError(f"--out {path!r}: is a directory")


def _open_out(ns):
    """The output stream; a ``--out`` that cannot be opened is a usage
    error.  Opened only when the results are written, so a refused run
    leaves no file (:func:`_check_out` refuses most bad paths first)."""
    if not ns.out:
        return nullcontext(sys.stdout)
    try:
        return open(ns.out, "w")
    except OSError as exc:
        raise ValueError(f"--out {ns.out!r}: {exc.strerror or exc}") from None


def _fmt(v) -> str:
    if v is None:
        return ""
    return f"{v:.17g}" if isinstance(v, (int, float)) else str(v)


def _write_table(ns, schema: str, columns: List[str], rows: List[dict]):
    with _open_out(ns) as fh:
        if ns.format == "json":
            json.dump({"schema": schema, "rows": rows}, fh)
            fh.write("\n")
        else:
            fh.write(f"# schema: {schema}\n")
            fh.write(",".join(columns) + "\n")
            for row in rows:
                fh.write(",".join(_fmt(row.get(c)) for c in columns) + "\n")


# ----------------------------------------------------------------------
# commands
# ----------------------------------------------------------------------

def cmd_vq(ns) -> int:
    _refuse_unread([(ns.dist == "normal", "only ncx2 has a noncentrality",
                     {"--lambda": ns.lam})])
    if ns.dist == "ncx2":
        if ns.lam is None:
            raise ValueError("--dist ncx2 requires --lambda")
        dist = ncx2_1_funcs(Ncx2Params(lam=ns.lam))
        guess = initial_guess("ncx2", ns.n, ns.lam)
    else:
        dist = std_normal_funcs()
        guess = initial_guess("normal", ns.n)
    quant = newton_quantize(dist, guess, ns.iters)
    gnorm = float(np.max(np.abs(distortion_gradient(dist, quant.codewords))))

    rows = [{"index": i, "codeword": float(c), "probability": float(p)}
            for i, (c, p) in enumerate(zip(quant.codewords,
                                           quant.probabilities))]
    _write_table(ns, VQ_SCHEMA, ["index", "codeword", "probability"], rows)
    if gnorm >= 1e-8:
        print(f"vq: did not converge (gradient sup-norm {gnorm:.3g} >= 1e-8 "
              f"after {ns.iters} iterations)", file=sys.stderr)
        return EXIT_NUMERICAL
    return EXIT_OK


def cmd_rmq(ns) -> int:
    _refuse_unread(_model_rules(ns))
    model, params = _build_model(ns)
    seq = rmq_run(model, ns.scheme, params.s0, _schedule(ns, ns.K), ns.boundary)
    with _open_out(ns) as fh:
        (seq.dump_json if ns.format == "json" else seq.dump_csv)(fh)
    return EXIT_OK


def _monitoring_stride(mc_steps: int, K: int) -> int:
    if mc_steps % K:
        raise ValueError("--mc-steps must be divisible by K for monitored "
                         "barrier references")
    return mc_steps // K


def cmd_price(ns) -> int:
    barrier = ns.instrument == "barrier"
    european = ns.instrument == "european"
    mc_ref = barrier or (european and ns.model == "cev")
    rules = _model_rules(ns)
    if european:   # the other instruments declare only the flags they read
        rules.append((not mc_ref, "a GBM european has no Monte Carlo reference",
                      _mc_flags(ns)))
    _refuse_unread(rules)
    if mc_ref and ns.seed is None:
        what = "barrier" if barrier else "CEV european"
        raise ValueError(f"{what} references need --seed")
    model, params = _build_model(ns)
    kind = ns.kind
    r = ns.r
    atm = ns.strike if ns.strike is not None else params.s0
    strikes = (np.array([atm]) if barrier or ns.strikes is None
               else ns.strikes * params.s0)
    # Built before the run, so that a bad K, strike, barrier level, grid or
    # Monte Carlo size is refused at once.
    sched = _schedule(ns, ns.K)
    payoffs = [VanillaPayoff(kind=kind, strike=float(k)) for k in strikes]
    if barrier:
        barriers = [BarrierSpec(level=float(level)) for level in ns.levels * atm]
    if ns.instrument == "bermudan":
        fd_cfg = FdConfig(ns.fd_time_steps, ns.fd_space_steps, ns.fd_smax_mult)
    if mc_ref:
        paths, steps = _mc_sizes(ns)
        stride = _monitoring_stride(steps, ns.K) if barrier else 1
        mc_cfg = McConfig(paths=paths, steps=steps, seed=ns.seed,
                          monitoring_stride=stride)
    seq = rmq_run(model, ns.scheme, params.s0, sched, ns.boundary)
    mc_boundary = ns.boundary if ns.model == "cev" else FREE
    if mc_ref:
        mc = simulate_terminal(model, params.s0, ns.T, mc_cfg, mc_boundary,
                               want_running_max=barrier)
    disc = np.exp(-r * ns.T)

    rows = []

    def add_row(x, price, ref, se=None):
        rows.append({"scheme": ns.scheme, "instrument": ns.instrument,
                     "strike_or_level": float(x), "price": price,
                     "reference": ref, "abs_error": abs(price - ref),
                     "std_error": se})

    if european:
        for strike, payoff in zip(strikes, payoffs):
            if ns.model == "gbm":
                ref, se = black_scholes(kind, params.s0, float(strike), r,
                                        params.sigma, ns.T), None
            else:
                ref, se = mc_estimate(disc * payoff.values(mc))
            add_row(strike, european_price(seq, payoff, r), ref, se)
    elif ns.instrument == "bermudan":
        dates = [k * ns.T / ns.K for k in range(1, ns.K)]
        for strike, payoff in zip(strikes, payoffs):
            add_row(strike, bermudan_price(seq, payoff, r),
                    cn_bermudan(model, params.s0, ns.T, r, payoff, dates,
                                fd_cfg))
    else:
        payoff = payoffs[0]
        term, smax = mc
        base = disc * payoff.values(term)
        for spec in barriers:
            price = barrier_up_out_price(seq, payoff, spec, r)
            add_row(spec.level, price, *mc_estimate(base * (smax < spec.level)))
    _write_table(ns, PRICES_SCHEMA,
                 ["scheme", "instrument", "strike_or_level", "price",
                  "reference", "abs_error", "std_error"], rows)
    return EXIT_OK


def cmd_convergence(ns) -> int:
    if len(set(ns.k_list)) < 3:
        raise ValueError("need at least 3 distinct K values to regress a slope")
    _refuse_unread(_model_rules(ns))
    model, params = _build_model(ns)
    # Built before the first run, so that a bad K is refused at once.
    schedules = [_schedule(ns, K) for K in ns.k_list]
    target = params.s0 * np.exp(params.r * ns.T)
    rows = []
    for scheme in ns.schemes:
        errs = []
        for K, sched in zip(ns.k_list, schedules):
            # only the terminal law is read: keep one step, not the run
            cw, p, _ = deque(rmq_steps(model, scheme, params.s0, sched,
                                       ns.boundary), maxlen=1).pop()
            err = abs(float(p @ cw) - target)
            errs.append(max(err, 1e-300))
            rows.append({"scheme": scheme, "kind": "point", "K": K,
                         "dt": ns.T / K, "abs_error": err, "beta": None})
        slope = np.polyfit(np.log2(np.array(ns.k_list, dtype=float) ** -1),
                           np.log2(errs), 1)[0]
        rows.append({"scheme": scheme, "kind": "slope", "K": None,
                     "dt": None, "abs_error": None, "beta": float(slope)})
    _write_table(ns, CONVERGENCE_SCHEMA,
                 ["scheme", "kind", "K", "dt", "abs_error", "beta"], rows)
    return EXIT_OK


def cmd_dist_error(ns) -> int:
    if ns.grid_points < 1:
        raise ValueError("--grid-points must be >= 1")
    _refuse_unread([(ns.model == "gbm", "only CEV has a Monte Carlo reference; "
                     "GBM uses the exact marginal", _mc_flags(ns)),
                    *_model_rules(ns)])
    model, params = _build_model(ns)
    sched = _schedule(ns, ns.K)   # a bad K is refused before the reference
    if ns.model == "gbm":
        ref = gbm_exact_marginal(params, ns.T)
        mu = (params.r - 0.5 * params.sigma ** 2) * ns.T
        sd = params.sigma * np.sqrt(ns.T)
        from scipy.special import ndtri
        lo = params.s0 * np.exp(mu + sd * ndtri(1e-5))
        hi = params.s0 * np.exp(mu + sd * ndtri(1.0 - 1e-5))
    else:
        if ns.seed is None:
            raise ValueError("CEV references need --seed")
        paths, steps = _mc_sizes(ns)
        ref = empirical_cdf(model, params.s0, ns.T, paths, ns.seed,
                            steps=steps, boundary=ns.boundary)
        lo, hi = None, None  # set from the first scheme's terminal grid

    rows = []
    sups = []
    grid = None
    for scheme in ns.schemes:
        seq = rmq_run(model, scheme, params.s0, sched, ns.boundary)
        if seq.n_steps > 1:
            # terminal law implied by the next-to-last quantizer
            prev, zero_mass = seq.live_quantizer(seq.n_steps - 1)
        else:
            prev = Quantizer(np.array([params.s0]), np.array([1.0]))
            zero_mass = 0.0
        updates = SCHEME_BUILDERS[scheme](model, prev.codewords, seq.dt)
        if grid is None:
            if lo is None:
                gk = seq.codewords[-1]
                lo, hi = 0.0, 1.25 * float(gk[-1])
            grid = np.linspace(lo, hi, ns.grid_points)
        implied = implied_marginal_cdf(grid, prev, updates, ns.boundary,
                                       zero_mass)
        err = implied - ref.cdf(grid)
        sup = float(np.max(np.abs(err)))
        sups.append((scheme, sup))
        for x, e in zip(grid, err):
            rows.append({"scheme": scheme, "kind": "point", "x": float(x),
                         "error": float(e), "sup_error": None})
    for scheme, sup in sups:
        rows.append({"scheme": scheme, "kind": "sup", "x": None,
                     "error": None, "sup_error": sup})
    _write_table(ns, DIST_ERROR_SCHEMA,
                 ["scheme", "kind", "x", "error", "sup_error"], rows)
    return EXIT_OK


def main(argv: Optional[List[str]] = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = build_parser()
    first = argv[1] if argv[:1] == ["price"] and len(argv) > 1 else ""
    if first.startswith("-") and first not in ("-h", "--help"):
        # argparse would take the flag's value for the instrument
        parser.error(f"price: the instrument comes right after 'price' and "
                     f"the flags follow it; got {first!r} first")
    ns = parser.parse_args(argv)
    try:
        if ns.config:
            # Config lines become flags ahead of the explicit ones, which win.
            try:
                cfg = _read_config(ns.config)
            except (OSError, ValueError) as exc:
                raise ValueError(f"config error: {exc}") from None
            words = 2 if ns.command == "price" else 1   # price <instrument>
            ns, unknown = parser.parse_known_args(
                argv[:words] + [f"--{key.replace('_', '-')}={value}"
                                for key, value in cfg.items()] + argv[words:])
            if unknown:
                raise ValueError("config error: unknown config key " + ", ".join(
                    tok.lstrip("-").split("=", 1)[0] for tok in unknown))
        _check_out(ns.out)
        return ns.func(ns)
    except (RmqError, CoefficientDomainError) as exc:
        print(f"rmquant: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except ValueError as exc:
        print(f"rmquant: {exc}", file=sys.stderr)
        return EXIT_USAGE


def entry():  # console-script target
    sys.exit(main())


if __name__ == "__main__":
    entry()
