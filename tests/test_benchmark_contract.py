"""The benchmark's tracer addresses dpminimax names by module attribute.

Renaming or folding away any wrapped name breaks the per-layer split of
``perfbench/run.py``; this test catches that without running a workload.
"""

import importlib.util
from pathlib import Path

from dpminimax import _kernels

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
