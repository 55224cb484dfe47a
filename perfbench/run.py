"""dpminimax benchmark: seeded workloads through ``dpminimax.cli.main``.

Usage, from the root of a source checkout::

    python3 perfbench/run.py --workload mc_small_data --seed 1 --seconds 30 --trace 0

Set-up imports dpminimax in fresh interpreters and builds the workload's
operations from the seed.  The run then repeats passes over the operations,
one after another in this process, until the next pass would end after
``--seconds``; it always completes at least one pass.  Every operation's
outputs are checked, and within the run every (argv, seed) must write the
same bytes each time.  ``--trace 0`` prints the end-to-end metrics; ``--trace
1`` spends half the time untraced and half traced and prints the per-layer
split.  The last line of standard output is the JSON result.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import importlib.util
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback

import workloads
from hostspeed import HostSpeed
from tracing import Tracer, instrument

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
SCRATCH = os.path.join(ROOT, ".perfbench_tmp")
BLAS_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_REPEATS = 5
PROBES = 4
IMPORT_PROBE = (
    "import time\n"
    "t0 = time.perf_counter()\n"
    "import numpy\n"
    "t1 = time.perf_counter()\n"
    "import dpminimax\n"
    "t2 = time.perf_counter()\n"
    "print(t1 - t0, t2 - t0)\n"
)

END_TO_END = {
    "setup_s": "s",
    "run_s": "s",
    "trials_per_s": "1/s",
    "checks_per_s": "1/s",
    "peak_rss_mb": "MB",
}
PER_LAYER = {
    "rng.derived_rng.calls": "count",
    "rng.derived_rng.s": "s",
    "experiments.monte_carlo_risk.s": "s",
    "experiments.monte_carlo_risk.self_s": "s",
    "experiments.cells": "count",
    "experiments.trials": "count",
    "mechanisms.laplace_mean.s": "s",
    "mechanisms.gaussian_mean.s": "s",
    "mechanisms.sample.s": "s",
    "mechanisms.dp_sgml_batch.s": "s",
    "mechanisms.dp_sgml_batch.self_s": "s",
    "mechanisms.mle_pga.calls": "count",
    "mechanisms.mle_pga.s": "s",
    "mechanisms.mle_pga.iters": "count",
    "mechanisms.estimate_xi2.s": "s",
    "kernels.dpsgml_trials.s": "s",
    "kernels.dpsgml_trials.steps": "count",
    "kernels.dpsgml_trials.bytes": "B",
    "kernels.races_winners.s": "s",
    "kernels.pair_assignments.s": "s",
    "bounds.calls": "count",
    "bounds.s": "s",
    "divergences.calls": "count",
    "divergences.s": "s",
    "verify.verify_privacy.s": "s",
    "verify.verify_group_privacy.s": "s",
    "verify.verify_kl_dp.s": "s",
    "verify.verify_admissibility.s": "s",
    "verify.verify_transport_bound.s": "s",
    "verify.similarity.calls": "count",
    "verify.events_enumerated": "count",
    "verify.test_maps_enumerated": "count",
    "couplings.sample.s": "s",
    "couplings.draws": "count",
    "couplings.min_disagreement_lp.s": "s",
    "simplex.solve_min.calls": "count",
    "simplex.solve_min.s": "s",
    "packings.varshamov_gilbert.s": "s",
    "packings.words": "count",
    "cli.main.s": "s",
    "cli.main.self_s": "s",
    "cli.report_bytes": "B",
    "setup.import_s": "s",
    "setup.numpy_import_s": "s",
    "trace.overhead": "ratio",
}


class Recorder:
    """Runs operations, checks their outputs and keeps per-operation results.

    Each successful execution keeps its wall-clock interval; ``times``
    rescales it to the nominal host speed (see hostspeed.py).
    """

    def __init__(self, ops, dp, scratch: str, speed: HostSpeed):
        self.ops = ops
        self.dp = dp
        self.scratch = scratch
        self.speed = speed
        self.intervals = {op.key: [] for op in ops}
        self.counts = {}
        self.report_bytes = {}
        self.digests = {}
        self.failures = []  # (operation key, problem)
        self.attempted = 0
        self.failed = 0

    def reset_times(self) -> None:
        self.intervals = {op.key: [] for op in self.ops}

    def times(self, key: str, wall: bool = False) -> list[float]:
        if wall:
            return [(end - start) * 1e-9 for start, end in self.intervals[key]]
        return [self.speed.normalize(start, end) for start, end in self.intervals[key]]

    def _execute(self, op):
        outdir = os.path.join(self.scratch, f"op{self.ops.index(op)}")
        shutil.rmtree(outdir, ignore_errors=True)
        os.makedirs(outdir)
        value = None
        if op.argv is not None:
            argv = [*op.argv, "--out", os.path.join(outdir, op.out)]
            sink = io.StringIO()
            with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
                start = time.perf_counter_ns()
                rc = self.dp.cli.main(argv)
                end = time.perf_counter_ns()
        else:
            start = time.perf_counter_ns()
            value = op.call(self.dp)
            end = time.perf_counter_ns()
            rc = 0
        files = {}
        for name in sorted(os.listdir(outdir)):
            with open(os.path.join(outdir, name), "rb") as handle:
                files[name] = handle.read()
        if value is not None:
            files["<value>"] = op.serialize(value)
        return (start, end), workloads.Outcome(rc=rc, files=files, value=value)

    def run(self, op) -> None:
        self.attempted += 1
        try:
            interval, outcome = self._execute(op)
            problems, counts = op.check(outcome)
        except Exception as exc:  # an operation that crashes is a failed operation
            self.failures.append((op.key, f"{type(exc).__name__}: {exc}"))
            self.failed += 1
            traceback.print_exc(file=sys.stderr)
            return
        self.intervals[op.key].append(interval)
        self.counts[op.key] = counts
        self.report_bytes[op.key] = sum(len(b) for name, b in outcome.files.items() if name != "<value>")
        digest = hashlib.sha256()
        for name, data in outcome.files.items():
            digest.update(name.encode() + b"\0" + data)
        first = self.digests.setdefault(op.key, digest.hexdigest())
        if first != digest.hexdigest():
            problems.append("output bytes differ from an earlier run of the same argv and seed")
        if problems:
            self.failures += [(op.key, problem) for problem in problems]
            self.failed += 1

    def pass_seconds(self, wall: bool = False) -> float:
        """One pass: the sum over operations of each operation's median time."""
        return sum(statistics.median(t) for op in self.ops if (t := self.times(op.key, wall)))

    def total(self, kind: str) -> int:
        return sum(c.get(kind, 0) for c in self.counts.values())


def run_passes(rec: Recorder, seconds: float, tracer=None) -> list[dict]:
    """Repeat passes until the next would end after ``seconds``; return the
    traced per-pass totals, times at the nominal host speed (empty when
    untraced)."""
    per_pass = []
    pass_times = []
    begin = time.perf_counter()
    with instrument(tracer) if tracer is not None else contextlib.nullcontext():
        while True:
            before = tracer.snapshot() if tracer is not None else None
            start = time.perf_counter_ns()
            for op in rec.ops:
                rec.run(op)
            end = time.perf_counter_ns()
            pass_times.append((end - start) * 1e-9)
            if tracer is not None:
                after = tracer.snapshot()
                factor = rec.speed.factor(start, end)
                per_pass.append({
                    k: (v - before.get(k, 0)) * (factor if k.endswith((".s", ".self_s")) else 1)
                    for k, v in after.items()
                })
            if time.perf_counter() - begin + statistics.median(pass_times) > seconds:
                return per_pass


def measure_setup(workload: str, seed: int, env: dict, scale: float, speed: HostSpeed):
    """Median of SETUP_REPEATS fresh-interpreter imports plus input builds,
    at the nominal host speed.  The process pins itself to one CPU, which the
    child interpreters inherit; sampling pauses while a child runs there, and
    probes just before and after it give its speed."""
    totals, imports, numpy_imports = [], [], []
    affinity = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {min(affinity)})
    try:
        for _ in range(SETUP_REPEATS):
            speed.probe(PROBES)
            start = time.perf_counter_ns()
            with speed.paused():
                proc = subprocess.run(
                    [sys.executable, "-c", IMPORT_PROBE], env=env, cwd=ROOT,
                    capture_output=True, text=True, timeout=120, check=True,
                )
            end = time.perf_counter_ns()
            speed.probe(PROBES)
            numpy_s, import_s = (float(x) for x in proc.stdout.split())
            factor = speed.factor(start, end)
            build_start = time.perf_counter_ns()
            ops = workloads.build(workload, seed, scale)
            build_s = speed.normalize(build_start, time.perf_counter_ns())
            totals.append(import_s * factor + build_s)
            imports.append(import_s * factor)
            numpy_imports.append(numpy_s * factor)
    finally:
        os.sched_setaffinity(0, affinity)
    return ops, {
        "setup_s": statistics.median(totals),
        "setup.import_s": statistics.median(imports),
        "setup.numpy_import_s": statistics.median(numpy_imports),
    }


def _git_commit() -> str:
    head = os.path.join(ROOT, ".git", "HEAD")
    try:
        with open(head) as handle:
            ref = handle.read().strip()
        if not ref.startswith("ref: "):
            return ref
        with open(os.path.join(ROOT, ".git", ref[5:])) as handle:
            return handle.read().strip()
    except OSError:
        return "unknown (not a git checkout)"


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment(dp) -> dict:
    import numpy

    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "numba_present": importlib.util.find_spec("numba") is not None,
        "kernel_backend": dp._kernels.backend(),
        "blas_threads": {var: os.environ.get(var) for var in BLAS_VARS},
        "git_commit": _git_commit(),
    }


def per_layer_metrics(per_pass: list[dict], rec: Recorder, setup: dict) -> dict:
    values = {}
    for name in PER_LAYER:
        samples = [p.get(name, 0) for p in per_pass]
        values[name] = statistics.median(samples) if samples else 0
    values["experiments.cells"] = rec.total("cells")
    values["experiments.trials"] = rec.total("cell_trials")
    values["cli.report_bytes"] = sum(rec.report_bytes.get(op.key, 0) for op in rec.ops if op.argv is not None)
    values["setup.import_s"] = setup["setup.import_s"]
    values["setup.numpy_import_s"] = setup["setup.numpy_import_s"]
    return values


def measure(workload: str, seed: int, seconds: float, trace: bool, scale: float = 1.0):
    """Run one benchmark invocation; return (result, recorder, tracer, environment)."""
    for var in BLAS_VARS:
        os.environ[var] = "1"
    env = dict(os.environ, PYTHONPATH=SRC)
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    import dpminimax
    import dpminimax.cli

    os.makedirs(SCRATCH, exist_ok=True)
    scratch = tempfile.mkdtemp(dir=SCRATCH)
    tracer = None
    try:
        with HostSpeed() as speed:
            ops, setup = measure_setup(workload, seed, env, scale, speed)
            rec = Recorder(ops, dpminimax, scratch, speed)
            if trace:
                # Traced outputs are checked against the untraced digests too.
                run_passes(rec, seconds / 2.0)
                untraced_s = rec.pass_seconds()
                rec.reset_times()
                tracer = Tracer()
                per_pass = run_passes(rec, seconds / 2.0, tracer)
                metrics = per_layer_metrics(per_pass, rec, setup)
                metrics["trace.overhead"] = rec.pass_seconds() / untraced_s - 1.0 if untraced_s else 0.0
                units = PER_LAYER
            else:
                run_passes(rec, seconds)
                pass_s = rec.pass_seconds()
                metrics = {
                    "setup_s": setup["setup_s"],
                    "run_s": pass_s,
                    "trials_per_s": rec.total("trials") / pass_s if pass_s else 0.0,
                    "checks_per_s": rec.total("checks") / pass_s if pass_s else 0.0,
                    "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                }
                units = END_TO_END
        env_block = environment(dpminimax)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
        with contextlib.suppress(OSError):
            os.rmdir(SCRATCH)
    result = {
        "correct": not rec.failures,
        "attempted": rec.attempted,
        "failed": rec.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    return result, rec, tracer, env_block


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "dpminimax", "__init__.py")):
        print(f"error: no dpminimax source under {SRC}; run from a source checkout", file=sys.stderr)
        return 2

    result, rec, _, env_block = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    print("env " + json.dumps(env_block, sort_keys=True))
    for op in rec.ops:
        times, wall = rec.times(op.key), rec.times(op.key, wall=True)
        medians = f"{statistics.median(times):.4f} wall {statistics.median(wall):.4f}" if times else "-"
        print(f"op {op.key!r}: runs={len(times)} median_s={medians} work={rec.counts.get(op.key, {})}")
    samples = rec.speed.durations
    print(f"pass_s {rec.pass_seconds():.4f} wall {rec.pass_seconds(wall=True):.4f}; micro-reference "
          f"median {statistics.median(samples) * 1e-6:.3f} ms over {len(samples)} samples")
    for key, problem in rec.failures:
        print(f"FAILED {key!r}: {problem}")
    print(f"ops_failed_frac {result['failed'] / max(result['attempted'], 1):.6g}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
