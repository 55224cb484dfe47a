"""The benchmark's tracer addresses dpminimax names by module attribute.

Renaming or folding away any wrapped name breaks the per-layer split of
``perfbench/run.py``; this test catches that without running a workload.
"""

import importlib.util
from pathlib import Path

import numpy as np

from dpminimax import _kernels, derived_rng, dp_sgml_batch, dp_sgml_config, gaussian_mean_model

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


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
