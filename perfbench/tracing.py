"""In-memory span tracer and the instrumentation of dpminimax's public names.

Tracing wraps, for the duration of a traced pass only, the names that
dpminimax's modules look up at call time (``dpminimax.experiments.derived_rng``,
``dpminimax.cli.run_uniform``, ...) and restores them afterwards.  No file
under ``src/`` is edited.  Each span records its name, start, end and parent;
``busy`` time counts only the outermost span of a name (or layer), and
``self`` time is a span's duration minus the time its child spans cover.
Clock readings are integer nanoseconds, so self time is never negative.
"""

from __future__ import annotations

import contextlib
import dataclasses
import functools
import importlib
import time
from array import array
from collections import defaultdict


def layer_of(name: str) -> str:
    return name.split(".", 1)[0]


class Tracer:
    """Records nested spans and counters; single-threaded by design."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.starts = array("q")
        self.ends = array("q")
        self.span_names = array("i")
        self.parents = array("i")
        self._stack: list[int] = []
        self._child_ns: list[int] = []
        self._name_depth: dict[str, int] = defaultdict(int)
        self._layer_depth: dict[str, int] = defaultdict(int)
        self.calls: dict[str, int] = defaultdict(int)
        self.busy_ns: dict[str, int] = defaultdict(int)
        self.self_ns: dict[str, int] = defaultdict(int)
        self.layer_calls: dict[str, int] = defaultdict(int)
        self.layer_busy_ns: dict[str, int] = defaultdict(int)
        self.counters: dict[str, int] = defaultdict(int)

    def _name_id(self, name: str) -> int:
        idx = self._ids.get(name)
        if idx is None:
            idx = self._ids[name] = len(self.names)
            self.names.append(name)
        return idx

    def open(self, name: str) -> int:
        idx = len(self.starts)
        self.span_names.append(self._name_id(name))
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.ends.append(-1)
        self._stack.append(idx)
        self._child_ns.append(0)
        self._name_depth[name] += 1
        self._layer_depth[layer_of(name)] += 1
        self.starts.append(time.perf_counter_ns())
        return idx

    def close(self, idx: int) -> None:
        end = time.perf_counter_ns()
        self.ends[idx] = end
        duration = end - self.starts[idx]
        name = self.names[self.span_names[idx]]
        layer = layer_of(name)
        self._stack.pop()
        self.self_ns[name] += duration - self._child_ns.pop()
        if self._child_ns:
            self._child_ns[-1] += duration
        self.calls[name] += 1
        self._name_depth[name] -= 1
        if self._name_depth[name] == 0:
            self.busy_ns[name] += duration
        self._layer_depth[layer] -= 1
        if self._layer_depth[layer] == 0:
            self.layer_calls[layer] += 1
            self.layer_busy_ns[layer] += duration

    def current(self) -> str | None:
        return self.names[self.span_names[self._stack[-1]]] if self._stack else None

    def wrap(self, name: str, fn, on_call=None, on_return=None):
        """Return fn wrapped in a span; the hooks may count or replace the result."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if on_call is not None:
                on_call(self, *args, **kwargs)
            idx = self.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(idx)
            return result if on_return is None else on_return(self, result)

        return wrapper

    def count_calls(self, counter: str, fn, when_inside: str | None = None):
        """Return fn wrapped to bump a counter (no span), optionally only
        when the innermost open span is ``when_inside``."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if when_inside is None or self.current() == when_inside:
                self.counters[counter] += 1
            return fn(*args, **kwargs)

        return wrapper

    def snapshot(self) -> dict:
        """Totals so far, keyed by metric-style names (times in seconds)."""
        out: dict[str, float] = {}
        for name in self.calls:
            out[f"{name}.calls"] = self.calls[name]
            out[f"{name}.s"] = self.busy_ns[name] * 1e-9
            out[f"{name}.self_s"] = self.self_ns[name] * 1e-9
        for layer in self.layer_calls:
            out[f"{layer}.calls"] = self.layer_calls[layer]
            out[f"{layer}.s"] = self.layer_busy_ns[layer] * 1e-9
        out.update(self.counters)
        return out

    def spans(self):
        """Yield (name, start_ns, end_ns, parent_index) for every span."""
        for i in range(len(self.starts)):
            yield self.names[self.span_names[i]], self.starts[i], self.ends[i], self.parents[i]


# ------------------------------------------------------------- instrumentation


def _events(m, pairs: int) -> int:
    return pairs * (2 ** m.n_outputs - 1)


def _count_privacy(tr: Tracer, m, c, *args, **kwargs) -> None:
    # Computed from the instance size: the enumeration a holding verdict
    # runs in full (a refuted one stops at its witness).
    if c.is_dp:
        tr.counters["verify.events_enumerated"] += _events(m, m.n_datasets * m.n * (m.alphabet_size - 1))


def _count_group(tr: Tracer, m, c, *args, **kwargs) -> None:
    if c.is_dp:
        tr.counters["verify.events_enumerated"] += _events(m, m.n_datasets * (m.n_datasets - 1))


def _count_admissibility(tr: Tracer, m, c, kind, N, *args, **kwargs) -> None:
    tr.counters["verify.test_maps_enumerated"] += m.n_datasets**N * N**m.n_outputs


def _count_transport(tr: Tracer, m, c, kind, marginals, *args, **kwargs) -> None:
    tr.counters["verify.test_maps_enumerated"] += len(tuple(marginals)) ** m.n_outputs


def _count_dpsgml_kernel(tr: Tracer, data, theta0, batch_idx, *args, **kwargs) -> None:
    trials, K, m = batch_idx.shape
    d = data.shape[2]
    tr.counters["kernels.dpsgml_trials.steps"] += trials * K * m
    tr.counters["kernels.dpsgml_trials.bytes"] += trials * K * m * d * 8


def _count_draws(tr: Tracer, sampler, trials, *args, **kwargs) -> None:
    if sampler.kind != "product_lift":  # a lift's base draws are counted by the base
        tr.counters["couplings.draws"] += int(trials)


def _count_words(tr: Tracer, code):
    tr.counters["packings.words"] += code.size
    return code


def _traced_model(tr: Tracer, model):
    """Give a model built by gaussian_mean_model a span on sample and a
    counter on grad (grad calls inside mle_pga are its iterations)."""
    return dataclasses.replace(
        model,
        sample=tr.wrap("mechanisms.sample", model.sample),
        grad=tr.count_calls("mechanisms.mle_pga.iters", model.grad, when_inside="mechanisms.mle_pga"),
    )


# (module, attribute, span name, on_call, on_return)
_SPANS = [
    ("dpminimax.cli", "main", "cli.main", None, None),
    ("dpminimax.packings", "varshamov_gilbert", "packings.varshamov_gilbert", None, _count_words),
    ("dpminimax.couplings", "solve_min", "simplex.solve_min", None, None),
    ("dpminimax.experiments", "monte_carlo_risk", "experiments.monte_carlo_risk", None, None),
    ("dpminimax.cli", "gaussian_mean_model", "mechanisms.gaussian_mean_model", None, _traced_model),
    ("dpminimax.experiments", "gaussian_mean_model", "mechanisms.gaussian_mean_model", None, _traced_model),
    ("dpminimax.cli", "verify_privacy", "verify.verify_privacy", _count_privacy, None),
    ("dpminimax.cli", "verify_group_privacy", "verify.verify_group_privacy", _count_group, None),
    ("dpminimax.cli", "verify_kl_dp", "verify.verify_kl_dp", None, None),
    ("dpminimax.cli", "verify_admissibility", "verify.verify_admissibility", _count_admissibility, None),
    ("dpminimax.cli", "verify_transport_bound", "verify.verify_transport_bound", _count_transport, None),
    ("dpminimax._kernels", "dpsgml_trials", "kernels.dpsgml_trials", _count_dpsgml_kernel, None),
]
_SPANS += [
    (module, "derived_rng", "rng.derived_rng", None, None)
    for module in ("dpminimax.experiments", "dpminimax.mechanisms", "dpminimax.couplings",
                   "dpminimax.packings", "dpminimax.verify")
]
_SPANS += [
    (module, attr, f"{layer}.{attr}", None, None)
    for module, layer, attrs in (
        ("dpminimax.cli", "experiments", ("run_bernoulli", "run_gaussian", "run_uniform", "run_dpsgml")),
        ("dpminimax.cli", "bounds", ("le_cam_private", "fano_private")),
        ("dpminimax.cli", "divergences", ("tv",)),
        ("dpminimax.cli", "couplings", ("estimate_disagreement", "exponential_races", "maximal_pair",
                                        "min_disagreement_lp", "product_lift", "shared_uniform_bernoulli")),
        ("dpminimax.cli", "mechanisms", ("rr_kernel", "rr_sum_kernel", "identity_kernel")),
        ("dpminimax.experiments", "mechanisms", ("laplace_mean", "gaussian_mean", "dp_sgml_batch",
                                                 "mle_pga", "estimate_xi2")),
        ("dpminimax.experiments", "bounds", ("le_cam_private", "kl_quadratic_bounds", "minimax_from_packing")),
        ("dpminimax.experiments", "divergences", ("closed_form", "pinsker_tv_upper")),
        ("dpminimax.verify", "divergences", ("tv",)),
        ("dpminimax.verify", "couplings", ("exponential_races",)),
        ("dpminimax._kernels", "kernels", ("races_winners", "pair_assignments")),
    )
    for attr in attrs
]


@contextlib.contextmanager
def instrument(tracer: Tracer):
    """Install the wrappers for the duration of the block, then restore."""
    saved = []
    try:
        for module_name, attr, name, on_call, on_return in _SPANS:
            module = importlib.import_module(module_name)
            original = getattr(module, attr)
            saved.append((module, attr, original))
            setattr(module, attr, tracer.wrap(name, original, on_call, on_return))
        verify = importlib.import_module("dpminimax.verify")
        saved.append((verify, "similarity", verify.similarity))
        verify.similarity = tracer.count_calls("verify.similarity.calls", verify.similarity)
        sampler = importlib.import_module("dpminimax.couplings").CouplingSampler
        saved.append((sampler, "sample", sampler.sample))
        sampler.sample = tracer.wrap("couplings.sample", sampler.sample, _count_draws)
        yield tracer
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)
