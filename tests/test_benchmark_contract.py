"""The benchmark's tracer addresses dpminimax names by module attribute.

Renaming or folding away any wrapped name breaks the per-layer split of
``perfbench/run.py``; this test catches that without running a workload.
"""

import importlib.util
import json
import os
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest

from dpminimax import (
    _kernels,
    cli,
    derived_rng,
    dp_sgml_batch,
    dp_sgml_config,
    gaussian_mean_model,
)
from dpminimax.mechanisms import _BATCH_CHUNK

ROOT = Path(__file__).resolve().parents[1]
TRACING = ROOT / "perfbench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_resolves_and_restores_every_wrapped_name():
    tracing = _load_tracing()
    original = _kernels.dpsgml_trials
    with tracing.instrument(tracing.Tracer()):
        assert _kernels.dpsgml_trials is not original
    assert _kernels.dpsgml_trials is original


def test_tracer_reads_the_dpsgml_kernel_arguments():
    # The tracer counts steps from the kernel's positional (data, theta0,
    # batch_idx) arguments; a reordered signature would miscount them.
    tracing = _load_tracing()
    model = gaussian_mean_model(2, radius=5.0)
    trials, n, m = 3, 40, 8
    cfg = dp_sgml_config(n, 2, 1.0, model, m)
    data = np.stack([model.sample(np.zeros(2), n, derived_rng(60, t)) for t in range(trials)])
    tracer = tracing.Tracer()
    with tracing.instrument(tracer):
        dp_sgml_batch(data, model, cfg, 61)
    assert tracer.counters["kernels.dpsgml_trials.steps"] == trials * cfg.K * m
    assert tracer.counters["kernels.dpsgml_trials.bytes"] == trials * cfg.K * m * 2 * 8
    assert tracer.calls["kernels.dpsgml_trials"] == 1
    assert tracer.busy_ns["kernels.dpsgml_trials"] > 0


@pytest.mark.parametrize(
    "flags, kernel, other",
    [
        (("pair", "--p", "0.2,0.5,0.3", "--q", "0:0.4,3:0.6"), "pair_assignments", "races_winners"),
        (("races", "--marginals", "0.2,0.5,0.3;0:0.4,3:0.6;0.6,0.4"), "races_winners", "pair_assignments"),
    ],
    ids=["pair", "races"],
)
def test_a_traced_couple_run_calls_its_kernel_once_per_sample(tmp_path, flags, kernel, other):
    # The tracer wraps both coupling kernels by name and reads no argument of
    # either; one couple run is one sample, and every draw is counted.
    tracing = _load_tracing()
    trials = 3000
    argv = ["couple", *flags, "--trials", str(trials), "--seed", "9"]
    assert cli.main([*argv, "--out", str(tmp_path / "untraced.json")]) == 0
    tracer = tracing.Tracer()
    with tracing.instrument(tracer):
        assert cli.main([*argv, "--out", str(tmp_path / "traced.json")]) == 0
    assert tracer.calls["couplings.sample"] == 1
    assert tracer.calls[f"kernels.{kernel}"] == 1
    assert tracer.calls[f"kernels.{other}"] == 0
    assert tracer.counters["couplings.draws"] == trials
    assert (tmp_path / "traced.json").read_bytes() == (tmp_path / "untraced.json").read_bytes()


def test_a_forked_traced_couple_run_counts_the_draws_of_the_parent_range(tmp_path, workers):
    # Each range's draws are counted in the process that draws them: with
    # two workers the tracer sees the first half only, and no byte moves.
    tracing = _load_tracing()
    argv = ["couple", "races", "--marginals", "0.2,0.5,0.3;0:0.4,3:0.6", "--trials", "3000", "--seed", "9"]
    assert cli.main([*argv, "--out", str(tmp_path / "serial.json")]) == 0
    workers.cpus = 2
    tracer = tracing.Tracer()
    with tracing.instrument(tracer):
        assert cli.main([*argv, "--out", str(tmp_path / "forked.json")]) == 0
    assert workers.forks == 1
    assert tracer.counters["couplings.draws"] == 1500
    assert (tmp_path / "forked.json").read_bytes() == (tmp_path / "serial.json").read_bytes()


def test_a_traced_dpsgml_run_computes_xi2_once_per_cell_from_no_stream(tmp_path):
    # xi^2 is exact: each dp_sgml cell calls estimate_xi2 once, and no cell
    # derives a stream through derived_rng.
    tracing = _load_tracing()
    argv = ["experiment", "dpsgml", "--d", "5", "--ns", "200,300", "--rho", "0.5", "--trials", "100"]
    assert cli.main([*argv, "--out", str(tmp_path / "untraced.json")]) == 0
    tracer = tracing.Tracer()
    with tracing.instrument(tracer):
        assert cli.main([*argv, "--out", str(tmp_path / "traced.json")]) == 0
    for suffix in ("json", "csv"):
        traced = (tmp_path / f"traced.{suffix}").read_bytes()
        assert traced == (tmp_path / f"untraced.{suffix}").read_bytes()
    cells = json.loads((tmp_path / "traced.json").read_text())["report"]["cells"]
    assert tracer.calls["mechanisms.estimate_xi2"] == sum(c["mechanism"] == "dp_sgml" for c in cells) == 2
    assert tracer.calls["rng.derived_rng"] == 0


def test_a_traced_gaussian_run_stays_serial_and_matches_an_untraced_run(tmp_path, monkeypatch):
    # Each cell draws its sample means from one stream on the calling thread:
    # the traced model's sample is never called, no thread starts, and the
    # report is the untraced bytes.
    starts = []
    original_start = threading.Thread.start

    def start(self):
        starts.append(self)
        original_start(self)

    monkeypatch.setattr(threading.Thread, "start", start)
    tracing = _load_tracing()
    argv = ["experiment", "gaussian", "--d", "66", "--ns", "100,200", "--eps", "0.1", "--rho", "0.01",
            "--trials", "101"]
    assert cli.main([*argv, "--out", str(tmp_path / "untraced.json")]) == 0
    tracer = tracing.Tracer()
    with tracing.instrument(tracer):
        assert cli.main([*argv, "--out", str(tmp_path / "traced.json")]) == 0
    for suffix in ("json", "csv"):
        traced = (tmp_path / f"traced.{suffix}").read_bytes()
        assert traced == (tmp_path / f"untraced.{suffix}").read_bytes()
    cells = json.loads((tmp_path / "traced.json").read_text())["report"]["cells"]
    assert tracer.calls["mechanisms.gaussian_mean_model"] == 1
    assert tracer.calls["mechanisms.sample"] == 0
    assert tracer.calls["rng.derived_rng"] == len(cells) == 6
    assert starts == []


def test_tracer_counts_one_dpsgml_kernel_call_per_chunk():
    tracing = _load_tracing()
    model = gaussian_mean_model(2, radius=5.0)
    trials, n, m = _BATCH_CHUNK + 3, 40, 8
    cfg = dp_sgml_config(n, 2, 1.0, model, m)
    data = np.stack([model.sample(np.zeros(2), n, derived_rng(62, t)) for t in range(trials)])
    tracer = tracing.Tracer()
    with tracing.instrument(tracer):
        dp_sgml_batch(data, model, cfg, 63)
    assert tracer.calls["kernels.dpsgml_trials"] == 2
    assert tracer.counters["kernels.dpsgml_trials.steps"] == trials * cfg.K * m


def test_a_forked_traced_dpsgml_call_counts_the_steps_of_an_in_process_one(workers):
    # The parent reads the step count from the chunk's batch_idx shape, whose
    # rows other than the first range's are drawn in the children.
    tracing = _load_tracing()
    model = gaussian_mean_model(2, radius=5.0)
    trials, n, m = 6, 40, 8
    cfg = dp_sgml_config(n, 2, 1.0, model, m)
    data = np.stack([model.sample(np.zeros(2), n, derived_rng(64, t)) for t in range(trials)])
    steps, rows = [], []
    for cpus in (1, 3):
        workers.cpus = cpus
        tracer = tracing.Tracer()
        with tracing.instrument(tracer):
            rows.append(dp_sgml_batch(data, model, cfg, 65).tobytes())
        steps.append(tracer.counters["kernels.dpsgml_trials.steps"])
        assert tracer.calls["kernels.dpsgml_trials"] == 1
    assert workers.forks == 2
    assert steps == [trials * cfg.K * m] * 2
    assert rows[0] == rows[1]


def test_import_starts_no_thread_and_no_executor():
    # setup_s times a fresh-interpreter import, which must start no thread or executor.
    probe = (
        "import sys, threading\n"
        "import dpminimax\n"
        "print(threading.active_count(), 'concurrent.futures' in sys.modules)\n"
    )
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    out = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True, text=True,
                         check=True, timeout=120)
    assert out.stdout.split() == ["1", "False"]
