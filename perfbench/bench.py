"""Benchmark body: one workload, one seed, traced or untraced.

Imported by ``run.py`` once the thread count is pinned and ``src/`` is on
the path.  Untraced (``--trace 0``) it times ``IMPORT_REPEATS`` imports
of rmquant in fresh interpreters and ``SETUP_REPEATS`` set-ups of the
workload, runs timed passes for ``--seconds`` and reports the end-to-end
metrics as medians over passes.  Import, set-up and pass timings are divided by
their machine-speed factor (see speed.py).  Traced (``--trace 1``) it
spends half the budget on untraced passes and half on traced ones,
reports the per-layer metrics of the traced set-up plus one pass (median
over traced passes), the tracing overhead, and checks that the exact
counts repeat.  Metric names and units come from BENCHMARK.json.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import importlib.util
import json
import math
import os
import platform
import resource
import subprocess
import sys
import time
from pathlib import Path
from statistics import median

from run import SRC, THREAD_VARS
from speed import SpeedSampler

ROOT = SRC.parent
WORKLOAD_NAMES = ("paper_grids", "weak_order_sweep", "cli_reference")
OUT_DIR = ROOT / ".bench_build" / "perfbench"
SETUP_REPEATS = 3
IMPORT_REPEATS = 5


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description="Run one rmquant benchmark workload.")
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True,
                    help="time budget of the timed passes")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0,
                    help="1: traced run reporting the per-layer metrics")
    args = ap.parse_args(argv)
    if not args.seconds > 0:
        ap.error("--seconds must be positive")
    return args


def source_digest() -> str:
    """Hash of the rmquant and benchmark sources: what "the same code" means."""
    h = hashlib.sha256()
    files = [*(SRC / "rmquant").rglob("*.py"), *Path(__file__).parent.glob("*.py")]
    for path in sorted(files):
        h.update(str(path.relative_to(ROOT)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def environment(digest: str) -> dict:
    import numpy
    import scipy
    cpu = ""
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), "")
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "cpu_model": cpu or platform.processor(),
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "numba_importable": importlib.util.find_spec("numba") is not None,
        "threadpoolctl_importable":
            importlib.util.find_spec("threadpoolctl") is not None,
        "thread_env": {v: os.environ.get(v) for v in THREAD_VARS},
        "source_sha256": digest,
    }


def timed(sampler, fn, *args):
    """(result, raw seconds, speed factor) of one call under ``sampler``."""
    before = time.perf_counter()
    sampler.sample()
    t0 = time.perf_counter()
    out = fn(*args)
    secs = time.perf_counter() - t0
    sampler.sample()
    return out, secs, sampler.factor((before, time.perf_counter()))


def run_passes(workload, ctx, ledger, budget, sampler, tracer=None):
    """Timed passes until the next one would overrun ``budget`` (at least one).

    Each pass's result gains its raw ``wall_s`` and its ``speed`` factor,
    and ``quantize_speed``: the factor while the pass was building grids.
    """
    parts = []
    start = time.perf_counter()
    while True:
        if tracer is not None:
            tracer.pass_id = f"pass{len(parts):04d}"
        part, secs, speed = timed(sampler, workload.run_pass, ctx, ledger)
        grids = sampler.factor(*part.pop("quantize_windows"))
        parts.append({**part, "wall_s": secs, "speed": speed,
                      "quantize_speed": speed if grids is None else grids})
        if (time.perf_counter() - start
                + median(p["wall_s"] for p in parts) > budget):
            return parts


def reference_seconds(parts, key):
    """Median over timed calls of ``key`` divided by the call's speed factor."""
    return median(p[key] / p["speed"] for p in parts)


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6


# numpy and scipy are loaded first: every version of rmquant needs them,
# and their load time swings twofold with the host's load.  The probe
# times the speed kernel just before and after the import, and prints the
# import time with the speed factor of that moment.
IMPORT_PROBE = """\
import statistics, sys, time
import numpy, scipy.special, scipy.linalg
sys.path.insert(0, sys.argv[1])
import speed
kernel = [speed.kernel_seconds() for _ in range(15)]
t0 = time.perf_counter()
import rmquant, rmquant.cli
secs = time.perf_counter() - t0
kernel += [speed.kernel_seconds() for _ in range(15)]
print(secs, statistics.median(kernel) / speed.REFERENCE_S)
"""


def import_seconds() -> dict:
    """Time to import rmquant inside a fresh interpreter, and its speed factor."""
    proc = subprocess.run(
        [sys.executable, "-c", IMPORT_PROBE, str(Path(__file__).parent)],
        cwd=ROOT, capture_output=True, text=True, check=True, timeout=60)
    secs, speed = map(float, proc.stdout.split())
    return {"s": secs, "speed": speed}


def untraced(workload, args, ledger):
    imports = [import_seconds() for _ in range(IMPORT_REPEATS)]
    setups = []
    with SpeedSampler() as sampler:
        for _ in range(SETUP_REPEATS):
            ctx, secs, speed = timed(sampler, workload.setup, args.seed)
            setups.append({"s": secs, "speed": speed})
        parts = run_passes(workload, ctx, ledger, args.seconds, sampler)
    values = {
        "setup_s": (reference_seconds(imports, "s")
                    + reference_seconds(setups, "s")),
        "wall_s": reference_seconds(parts, "wall_s"),
        "quantize_s": median(p["quantize_s"] / p["quantize_speed"] for p in parts),
        "price_err_max": median(p["price_err_max"] for p in parts),
        "peak_rss_mb": peak_rss_mb(),
        "ops_ok_frac": 1.0 - min(ledger.failed, ledger.attempted) / ledger.attempted,
    }
    return values, {"passes": len(parts), "imports": imports, "setups": setups,
                    "pass_results": parts}


def check_exact_counts(per_pass, workload_name, digest, ledger, tracing):
    """Exact counts must repeat on every traced pass and every run of this source."""
    counts = [tracing.exact_counts(m) for m in per_pass]
    for i, c in enumerate(counts[1:], start=1):
        diff = sorted(k for k in c if c[k] != counts[0][k])
        ledger.check(not diff, "exact counts repeat across passes",
                     f"pass {i}: {diff}")
    path = OUT_DIR / f"exact-counts-{workload_name}-{digest[:16]}.json"
    if path.is_file():
        before = json.loads(path.read_text())
        diff = sorted(k for k in set(before) | set(counts[0])
                      if before.get(k) != counts[0].get(k))
        ledger.check(not diff, "exact counts repeat across runs", f"{diff}")
    else:
        path.write_text(json.dumps(counts[0], indent=1) + "\n")
    return counts[0]


def traced(workload, args, ledger, digest):
    import tracing
    tracer = tracing.Tracer()
    with SpeedSampler() as sampler:
        ctx = workload.setup(args.seed)
        plain = run_passes(workload, ctx, ledger, args.seconds / 2, sampler)
        hooks = tracing.Installed(tracer)
        try:
            ctx = workload.setup(args.seed)
            parts = run_passes(workload, ctx, ledger, args.seconds / 2, sampler,
                               tracer)
        finally:
            hooks.uninstall()
    grad_tol = getattr(sys.modules.get("rmquant._newton"), "GRAD_TOL",
                       tracing.DEFAULT_GRAD_TOL)
    per_pass = tracing.per_pass_metrics(tracer, grad_tol)
    values = tracing.median_metrics(per_pass)
    values["trace.overhead_pct"] = 100.0 * (
        reference_seconds(parts, "wall_s") / reference_seconds(plain, "wall_s") - 1.0)
    values["rmq_engine.order_slope_err"] = median(
        p.get("order_slope_err", 0.0) for p in parts)
    counts = check_exact_counts(per_pass, workload.name, digest, ledger, tracing)
    info = {"passes_untraced": len(plain), "passes_traced": len(parts),
            "pass_results_untraced": plain, "pass_results": parts,
            "missing_layers": hooks.missing, "exact_counts": counts,
            "spans": tracer.to_records()}
    return values, info


def select(values: dict, wanted: list) -> dict:
    """Every wanted metric exactly once, with its unit from BENCHMARK.json."""
    names = [m["name"] for m in wanted]
    unknown = sorted(set(values) - set(names))
    absent = sorted(set(names) - set(values))
    if unknown or absent:
        raise RuntimeError(f"metric set mismatch: unknown {unknown}, absent {absent}")
    # JSON has no infinity; a non-finite value (nothing measured) is reported
    # as the largest double, and the run is already marked incorrect.
    return {m["name"]: {"value": float(values[m["name"]])
                        if math.isfinite(values[m["name"]]) else sys.float_info.max,
                        "unit": m["unit"]}
            for m in wanted}


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "rmquant" / "__init__.py").is_file():
        print(f"perfbench: no rmquant source tree under {SRC}", file=sys.stderr)
        return 2
    rmquant = importlib.import_module("rmquant")
    if not Path(rmquant.__file__).resolve().is_relative_to(SRC.resolve()):
        print(f"perfbench: rmquant imported from {rmquant.__file__}, "
              f"not from {SRC}", file=sys.stderr)
        return 2

    from workloads import WORKLOADS, Ledger
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    workload = WORKLOADS[args.workload]
    digest = source_digest()
    env = environment(digest)
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    ledger = Ledger()
    if args.trace:
        values, info = traced(workload, args, ledger, digest)
        wanted = spec["per_layer"]
    else:
        values, info = untraced(workload, args, ledger)
        wanted = spec["end_to_end"]
    metrics = select(values, wanted)
    failed = min(ledger.failed, ledger.attempted)

    record = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace, "env": env,
              "attempted": ledger.attempted, "failed": failed,
              "failures": ledger.failures, "metrics": metrics, **info}
    out = OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(record) + "\n")

    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace} "
          f"attempted={ledger.attempted} failed={failed} record={out.relative_to(ROOT)}")
    print("env " + json.dumps(env))
    for key in ("passes", "passes_untraced", "passes_traced"):
        if key in info:
            print(f"{key} = {info[key]}")
    if info.get("missing_layers"):
        for layer, reason in info["missing_layers"].items():
            print(f"missing layer {layer}: {reason}")
    for line in ledger.failures:
        print(f"FAILED {line}")
    results = info["pass_results"]
    print(f"raw pass time median = {median(p['wall_s'] for p in results)!r} s; "
          f"speed factor median = {median(p['speed'] for p in results)!r}")
    for name, m in metrics.items():
        print(f"{name} = {m['value']!r} {m['unit']}")
    print(json.dumps({"correct": failed == 0, "attempted": ledger.attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
