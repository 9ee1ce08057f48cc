"""Self-tests of the benchmark itself.

    python3 perfbench/selftest.py

They check that every metric named in BENCHMARK.json is printed once with
its unit, that a deliberately wrong reference trips its check and counts
as a failed operation, that the tracing hooks restore the original
callables and report a vanished target as missing, and that the
benchmark refuses to run without the rmquant sources.  The two full runs
take about half a minute.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.dont_write_bytecode = True
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import rmquant as rq  # noqa: E402
import tracing  # noqa: E402
from bench import select  # noqa: E402
from workloads import Ledger, PaperGrids  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_benchmark(*args, cwd=ROOT):
    return subprocess.run([sys.executable, str(cwd / "perfbench" / "run.py"), *args],
                          cwd=cwd, capture_output=True, text=True, timeout=170)


class MetricSet(unittest.TestCase):
    def check_run(self, trace, section):
        proc = run_benchmark("--workload", "paper_grids", "--seed", "3",
                             "--seconds", "1", "--trace", str(trace))
        self.assertEqual(proc.returncode, 0, proc.stderr)
        lines = proc.stdout.strip().splitlines()
        result = json.loads(lines[-1])
        self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(result["correct"])
        self.assertEqual(result["failed"], 0)
        wanted = SPEC[section]
        self.assertEqual(list(result["metrics"]), [m["name"] for m in wanted])
        for m in wanted:
            self.assertEqual(result["metrics"][m["name"]]["unit"], m["unit"])
            printed = [ln for ln in lines[:-1] if ln.startswith(m["name"] + " = ")]
            self.assertEqual(len(printed), 1, m["name"])
            self.assertTrue(printed[0].endswith(" " + m["unit"]), printed[0])

    def test_end_to_end_metrics_printed_once_with_unit(self):
        self.check_run(0, "end_to_end")

    def test_per_layer_metrics_printed_once_with_unit(self):
        self.check_run(1, "per_layer")

    def test_select_rejects_a_missing_or_unknown_metric(self):
        wanted = SPEC["end_to_end"]
        values = {m["name"]: 1.0 for m in wanted}
        self.assertEqual(list(select(values, wanted)), [m["name"] for m in wanted])
        with self.assertRaises(RuntimeError):
            select({k: v for k, v in values.items() if k != "setup_s"}, wanted)
        with self.assertRaises(RuntimeError):
            select({**values, "extra_s": 1.0}, wanted)


class WrongReference(unittest.TestCase):
    def test_wrong_reference_counts_as_failed(self):
        workload = PaperGrids()
        ctx = workload.setup(5)
        ledger = Ledger()
        workload.run_pass(ctx, ledger)
        self.assertEqual(ledger.failed, 0, ledger.failures)
        ctx["refs"]["put"][40] += 1.0
        ledger = Ledger()
        workload.run_pass(ctx, ledger)
        self.assertEqual(ledger.failed, 1)
        self.assertIn("put vs reference", ledger.failures[0])


def bindings():
    """Every place a hooked callable is bound, with its current value."""
    out = {}
    for hook in tracing.HOOKS:
        owner, attr, original = tracing._resolve(hook.target)
        out[(owner, attr)] = original
        for mod in list(sys.modules.values()):
            if getattr(mod, "__name__", "").startswith("rmquant"):
                for alias, value in vars(mod).items():
                    if value is original:
                        out[(mod, alias)] = value
    return out


class Hooks(unittest.TestCase):
    def test_hooks_wrap_and_restore_the_originals(self):
        before = bindings()
        tracer = tracing.Tracer()
        hooks = tracing.Installed(tracer)
        try:
            self.assertEqual(hooks.missing, {})
            for (owner, attr), original in before.items():
                self.assertIsNot(vars(owner)[attr], original, attr)
            tracer.pass_id = "pass0000"
            rq.rmq_run(rq.gbm_model(rq.GbmParams(100.0, 0.05, 0.3)), "weak2",
                       100.0, rq.Schedule(T=1.0, K=2, n_per_step=20))
        finally:
            hooks.uninstall()
        for (owner, attr), original in before.items():
            self.assertIs(vars(owner)[attr], original, attr)
        m = tracing.per_pass_metrics(tracer)[0]
        self.assertEqual(m["rmq_engine.rmq_run.calls"], 1)
        self.assertEqual(m["rmq_engine.steps"], 2)
        self.assertEqual(m["rmq_engine.assembly.calls"], m["rmq_engine.evals"])
        self.assertGreater(m["affine_schemes.law.ncx2.cells"], 0)

    def test_missing_target_is_reported_not_raised(self):
        hooks = tracing.Installed(tracing.Tracer(), hooks=(
            tracing.Hook("gone.attr", "rmquant.rmq_engine:_no_such_function"),
            tracing.Hook("gone.module", "rmquant._no_such_module:f"),
        ))
        hooks.uninstall()
        self.assertEqual(set(hooks.missing), {"gone.attr", "gone.module"})

    def test_self_time_excludes_children(self):
        tracer = tracing.Tracer()
        outer = tracer.begin(tracing.CLI)
        inner = tracer.begin(tracing.RMQ_RUN)
        tracer.end(inner)
        tracer.end(outer)
        m = tracing.layer_metrics(tracer.spans, [0, 1])
        self.assertAlmostEqual(m["cli.self_s"], outer.duration - inner.duration)


class NoSources(unittest.TestCase):
    def test_refuses_without_the_rmquant_sources(self):
        bare = ROOT / ".bench_build" / "selftest-bare"
        shutil.rmtree(bare, ignore_errors=True)
        shutil.copytree(HERE, bare / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        try:
            proc = run_benchmark("--workload", "paper_grids", "--seed", "1",
                                 "--seconds", "1", "--trace", "0", cwd=bare)
        finally:
            shutil.rmtree(bare, ignore_errors=True)
        self.assertNotEqual(proc.returncode, 0)
        self.assertNotIn('"correct"', proc.stdout)


if __name__ == "__main__":
    unittest.main()
