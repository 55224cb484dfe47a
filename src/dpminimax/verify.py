"""Exact verification on tiny finite mechanisms.

Datasets are vectors over a small integer alphabet and mechanisms are
explicit stochastic kernels; every dataset pair or tuple is enumerated.
Events and tests need no enumeration: the worst event for (eps, delta)-DP
is {o : p_o > e^eps q_o}, whose excess is the hockey-stick divergence, and
the test with least average error picks argmax_i P(M(X_i) = o) per output.
The checks are exact up to stated numerical tolerances, except the
exponential-races leg of the transport bound which is Monte-Carlo with a
3-sigma slack.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from ._rng import derived_rng
from .bounds import PrivacyConstraint
from .couplings import CouplingSampler, exponential_races
from .divergences import DiscreteDistribution, _kl_weights, _renyi_weights, tv
from .errors import (
    ArityMismatch,
    DomainError,
    KindConstraintMismatch,
    LengthMismatch,
    TooLarge,
)

__all__ = [
    "Dataset",
    "FiniteMechanism",
    "PrivacyCheck",
    "AdmissibilityCheck",
    "hamming",
    "midpoint_anchor",
    "similarity",
    "verify_privacy",
    "verify_group_privacy",
    "verify_kl_dp",
    "verify_admissibility",
    "verify_transport_bound",
]

_MAX_DATASETS = 64
_MAX_OUTPUTS = 8
_MAX_ADMISSIBILITY_WORK = 1_000_000
_ALPHA_GRID = tuple(1.0 + 2.0 ** (-k) for k in range(21)) + (2.0, 4.0, 8.0, 16.0)
_ALPHA_MAX = 16.0
_RACES_TRIALS = 20_000
_DP_TOL = 1e-12
_KL_TOL = 1e-10


@dataclass(frozen=True)
class Dataset:
    """A length-n vector over the integer alphabet {0, ..., alphabet_size - 1}."""

    entries: tuple[int, ...]
    alphabet_size: int

    def __post_init__(self):
        if len(self.entries) < 1:
            raise DomainError("dataset must have at least one entry")
        if self.alphabet_size < 1:
            raise DomainError("alphabet_size must be >= 1")
        if any(not 0 <= e < self.alphabet_size for e in self.entries):
            raise DomainError("entries must lie in the alphabet")

    @property
    def n(self) -> int:
        return len(self.entries)


def hamming(a: Dataset, b: Dataset) -> int:
    """Number of coordinates where the two datasets differ."""
    if a.n != b.n:
        raise LengthMismatch(f"datasets of length {a.n} and {b.n}")
    return sum(1 for x, y in zip(a.entries, b.entries) if x != y)


def midpoint_anchor(a: Dataset, b: Dataset) -> Dataset:
    """Anchor at ceil(h/2) steps from both datasets.

    Of the positions where the datasets disagree (in ascending index order),
    the first ceil(h/2) take a's entry and the rest take b's.
    """
    h = hamming(a, b)
    take_from_a = (h + 1) // 2
    entries = list(b.entries)
    seen = 0
    for i, (x, y) in enumerate(zip(a.entries, b.entries)):
        if x != y:
            if seen < take_from_a:
                entries[i] = x
            seen += 1
    return Dataset(entries=tuple(entries), alphabet_size=a.alphabet_size)


@dataclass(frozen=True)
class FiniteMechanism:
    """Explicit stochastic kernel from {0..alphabet_size-1}^n to finite outputs.

    Row ``dataset_index(X)`` of ``kernel`` is the output law of the mechanism
    on input X; dataset indices enumerate entries in mixed radix, first
    coordinate most significant.
    """

    alphabet_size: int
    n: int
    outputs: tuple
    kernel: np.ndarray = field(compare=False)

    def __post_init__(self):
        if self.alphabet_size < 1 or self.n < 1:
            raise DomainError("alphabet_size and n must be >= 1")
        if len(self.outputs) < 1:
            raise DomainError("need at least one output label")
        kernel = np.ascontiguousarray(np.asarray(self.kernel, dtype=float))
        expected = (self.n_datasets, len(self.outputs))
        if kernel.shape != expected:
            raise DomainError(f"kernel must have shape {expected}")
        if not np.all(np.isfinite(kernel)):
            raise DomainError("kernel entries must be finite")
        if np.any(kernel < 0.0):
            raise DomainError("kernel entries must be non-negative")
        if np.any(np.abs(kernel.sum(axis=1) - 1.0) > 1e-12):
            raise DomainError("kernel rows must sum to 1 within 1e-12")
        object.__setattr__(self, "kernel", kernel)

    @property
    def n_datasets(self) -> int:
        return self.alphabet_size**self.n

    @property
    def n_outputs(self) -> int:
        return len(self.outputs)

    def dataset_index(self, dataset: Dataset) -> int:
        if dataset.n != self.n or dataset.alphabet_size != self.alphabet_size:
            raise DomainError("dataset does not match the mechanism's domain")
        idx = 0
        for e in dataset.entries:
            idx = idx * self.alphabet_size + e
        return idx

    def datasets(self) -> list[Dataset]:
        return [
            Dataset(entries=combo, alphabet_size=self.alphabet_size)
            for combo in itertools.product(range(self.alphabet_size), repeat=self.n)
        ]

    def row(self, dataset: Dataset) -> np.ndarray:
        return self.kernel[self.dataset_index(dataset)]


@dataclass(frozen=True)
class PrivacyCheck:
    holds: bool
    witness: Optional[tuple] = None


@dataclass(frozen=True)
class AdmissibilityCheck:
    holds: bool
    worst_gap: float
    witness: Optional[tuple] = None


def similarity(
    c: PrivacyConstraint,
    kind: str,
    datasets,
    anchor: Optional[Dataset] = None,
    j: Optional[int] = None,
) -> float:
    """Evaluate an admissible similarity function on a tuple of datasets.

    DP kinds: "global_anchor" (needs anchor), "projection_anchor" (needs j),
    "lecam_match" (N=2), "pairwise_anchor", "fano_match" (delta=0 only).
    zCDP kinds: "lecam_match" (N=2), "fano_match".
    """
    datasets = tuple(datasets)
    N = len(datasets)
    if N < 1:
        raise ArityMismatch("need at least one dataset")
    if c.kind == "zcdp":
        if kind == "lecam_match":
            if N != 2:
                raise ArityMismatch("lecam_match requires exactly two datasets")
            h = hamming(datasets[0], datasets[1])
            return 0.5 * (1.0 - math.sqrt(c.rho / 2.0) * h)
        if kind == "fano_match":
            if N < 2:
                raise ArityMismatch("fano_match requires at least two datasets")
            total = sum(
                hamming(a, b) ** 2 for a in datasets for b in datasets
            )
            return 1.0 - (1.0 + (c.rho / N**2) * total) / math.log(N)
        raise KindConstraintMismatch(f"kind {kind!r} is not defined for zCDP")
    if not c.is_dp:
        raise KindConstraintMismatch("similarity needs a DP or zCDP constraint")
    eps, delta = c.eps_delta()

    if kind in ("global_anchor", "projection_anchor"):
        if kind == "projection_anchor":
            if j is None or not 0 <= j < N:
                raise DomainError("projection_anchor needs an index j in [0, N)")
            anchor = datasets[j]
        if anchor is None:
            raise DomainError("global_anchor needs an anchor dataset")
        hmax = max(hamming(x, anchor) for x in datasets)
        return (N - 1) / N * math.exp(-eps * hmax) - math.exp(-eps) * delta * hmax
    if kind == "lecam_match":
        if N != 2:
            raise ArityMismatch("lecam_match requires exactly two datasets")
        half = (hamming(datasets[0], datasets[1]) + 1) // 2
        return 0.5 * math.exp(-eps * half) - math.exp(-eps) * delta * half
    if kind == "pairwise_anchor":
        if N < 2:
            raise ArityMismatch("pairwise_anchor requires at least two datasets")
        total = 0.0
        for i in range(N):
            for k in range(N):
                if i == k:
                    continue
                half = (hamming(datasets[i], datasets[k]) + 1) // 2
                total += math.exp(-eps * half) - 2.0 * math.exp(-eps) * delta * half
        return total / (2 * N * (N - 1))
    if kind == "fano_match":
        if delta != 0.0:
            raise KindConstraintMismatch("DP fano_match is defined for delta = 0 only")
        if N < 2:
            raise ArityMismatch("fano_match requires at least two datasets")
        total = sum(hamming(a, b) for a in datasets for b in datasets)
        return 1.0 - (1.0 + (eps / N**2) * total) / math.log(N)
    raise KindConstraintMismatch(f"unknown similarity kind {kind!r}")


def _check_caps(m: FiniteMechanism) -> None:
    if m.n_datasets > _MAX_DATASETS:
        raise TooLarge(f"{m.n_datasets} datasets exceeds cap {_MAX_DATASETS}")
    if m.n_outputs > _MAX_OUTPUTS:
        raise TooLarge(f"{m.n_outputs} outputs exceeds cap {_MAX_OUTPUTS}")


def _dp_pair_holds(p: np.ndarray, q: np.ndarray, eps: float, delta: float):
    """Worst event for P(S) <= e^eps Q(S) + delta, or None when all pass.

    The event {o : p_o > e^eps q_o} maximises P(S) - e^eps Q(S), and that
    maximum is the hockey-stick divergence sum_o (p_o - e^eps q_o)_+.
    """
    excess = p - math.exp(eps) * q
    mask = excess > 0.0
    if excess[mask].sum() > delta + _DP_TOL:
        return mask
    return None


def _max_log_ratio(p: np.ndarray, q: np.ndarray) -> float:
    if np.any((q <= 0.0) & (p > 0.0)):
        return math.inf
    live = p > 0.0
    if not np.any(live):
        return 0.0
    return float(np.max(np.log(p[live] / q[live])))


def _zcdp_pair_holds(p: np.ndarray, q: np.ndarray, rho_bound: float):
    """Worst alpha for D_alpha <= rho_bound * alpha, or None when all pass.

    The grid covers alpha in (1, 16]; the tail alpha > 16 is certified by
    D_infinity <= 16 * rho_bound, since D_alpha is non-decreasing in alpha.
    """
    for alpha in _ALPHA_GRID:
        if _renyi_weights(p, q, alpha) > rho_bound * alpha + _DP_TOL:
            return alpha
    if _max_log_ratio(p, q) > rho_bound * _ALPHA_MAX + _DP_TOL:
        return math.inf
    return None


def _pair_violation(m: FiniteMechanism, a: Dataset, b: Dataset, c: PrivacyConstraint, k: int):
    """Worst event (DP) or alpha (zCDP) where c fails from a to b at distance k.

    Returns None when the k-fold group form of c holds for the pair; at k = 1
    the group bounds are exactly eps, delta and rho.
    """
    p, q = m.row(a), m.row(b)
    if c.is_dp:
        eps, delta = c.eps_delta()
        mask = _dp_pair_holds(p, q, k * eps, delta * k * math.exp(eps * (k - 1)))
        if mask is None:
            return None
        return tuple(o for o, keep in zip(m.outputs, mask) if keep)
    if c.kind == "zcdp":
        return _zcdp_pair_holds(p, q, c.rho * k * k)
    raise KindConstraintMismatch("group privacy needs DP or zCDP")


def verify_privacy(m: FiniteMechanism, c: PrivacyConstraint) -> PrivacyCheck:
    """Check the privacy constraint over all neighboring datasets.

    DP checks the worst event of each pair in closed form; zCDP checks Renyi
    divergences on a fixed alpha grid plus the max-log-ratio tail.  Returns a
    violating witness (dataset pair plus worst event or alpha) when the check
    fails.
    """
    _check_caps(m)
    if c.kind == "none":
        return PrivacyCheck(holds=True)
    datasets = m.datasets()
    for a in datasets:
        for b in datasets:
            if hamming(a, b) != 1:
                continue
            bad = _pair_violation(m, a, b, c, 1)
            if bad is not None:
                return PrivacyCheck(holds=False, witness=(a, b, bad))
    return PrivacyCheck(holds=True)


def verify_group_privacy(m: FiniteMechanism, c: PrivacyConstraint) -> bool:
    """Check the k-fold group form of the constraint over all dataset pairs.

    DP at distance k: P(S) <= e^{k eps} Q(S) + delta k e^{eps (k-1)}.
    zCDP at distance k: D_alpha <= rho k^2 alpha.
    """
    _check_caps(m)
    datasets = m.datasets()
    for a in datasets:
        for b in datasets:
            k = hamming(a, b)
            if k != 0 and _pair_violation(m, a, b, c, k) is not None:
                return False
    return True


def verify_kl_dp(m: FiniteMechanism, epsilon: float) -> bool:
    """Check KL(M(X) || M(Y)) <= epsilon * hamming(X, Y) for all pairs.

    An infinite KL (an output reachable from X but not from Y) always fails.
    """
    _check_caps(m)
    if not 0.0 < epsilon < math.inf:
        raise DomainError("epsilon must be positive and finite")
    datasets = m.datasets()
    for a in datasets:
        for b in datasets:
            h = hamming(a, b)
            if h == 0:
                continue
            kl = _kl_weights(m.row(a), m.row(b))
            if math.isinf(kl) or kl > epsilon * h + _KL_TOL:
                return False
    return True


def _resolve_anchor(kind, anchors, tup, j):
    if kind != "global_anchor":
        return None
    if anchors is not None:
        return anchors(tup)
    if len(tup) == 2:
        return midpoint_anchor(tup[0], tup[1])
    raise DomainError("global_anchor with N > 2 needs an anchors callable")


def verify_admissibility(
    m: FiniteMechanism,
    c: PrivacyConstraint,
    kind: str,
    N: int,
    anchors: Optional[Callable] = None,
    j: int = 0,
) -> AdmissibilityCheck:
    """Check avg_i P(psi(M(X_i)) != i) >= similarity on every instance.

    Enumerates every N-tuple of datasets.  The least average error over test
    maps psi comes from the per-output rule psi(o) = argmax_i P(M(X_i) = o),
    ties going to the lowest label.  worst_gap is the minimal slack seen; a
    witness (tuple, psi) is reported when some instance violates the bound.
    """
    _check_caps(m)
    if N < 2:
        raise ArityMismatch("admissibility needs N >= 2")
    work = (m.n_datasets**N) * (N**m.n_outputs)
    if work > _MAX_ADMISSIBILITY_WORK:
        raise TooLarge(f"enumeration size {work} exceeds cap {_MAX_ADMISSIBILITY_WORK}")
    datasets = m.datasets()
    worst_gap = math.inf
    witness = None
    for tup in itertools.product(datasets, repeat=N):
        anchor = _resolve_anchor(kind, anchors, tup, j)
        s = similarity(c, kind, tup, anchor=anchor, j=j if kind == "projection_anchor" else None)
        rows = np.stack([m.row(x) for x in tup])
        psi = tuple(int(i) for i in rows.argmax(axis=0))
        # A plain loop, not np.sum: pairwise summation would change the last bit.
        correct = 0.0
        for o, label in enumerate(psi):
            correct += rows[label, o]
        err = 1.0 - correct / N
        gap = err - s
        if gap < worst_gap:
            worst_gap = gap
            if gap < -_DP_TOL:
                witness = (tup, psi)
    return AdmissibilityCheck(holds=witness is None, worst_gap=worst_gap, witness=witness)


def _exact_min_max_error(m: FiniteMechanism, pushforwards: np.ndarray) -> float:
    """min over test maps of max_i P(psi != i), by full enumeration."""
    N = pushforwards.shape[0]
    best = math.inf
    for psi in itertools.product(range(N), repeat=m.n_outputs):
        worst = 0.0
        for i in range(N):
            correct = sum(pushforwards[i, o] for o, label in enumerate(psi) if label == i)
            worst = max(worst, 1.0 - correct)
        best = min(best, worst)
    return best


def verify_transport_bound(
    m: FiniteMechanism,
    c: PrivacyConstraint,
    kind: str,
    marginals,
) -> bool:
    """Check min_psi max_i P(psi(M(X_i)) != i) >= E[similarity] under couplings.

    Marginals are distributions over dataset indices.  The left side is exact.
    The right side is evaluated under the independent coupling (exact
    expectation) and the exponential-races coupling (Monte-Carlo, compared
    with a 3-sigma slack).  With constraint kind "none" and N=2 the classical
    bound (1 - tv(P1, P2)) / 2 is checked instead.
    """
    _check_caps(m)
    marginals = tuple(marginals)
    N = len(marginals)
    if N < 2:
        raise ArityMismatch("need at least two marginals")
    datasets = m.datasets()
    for dist in marginals:
        atoms, _ = dist.support()
        if any(not 0 <= a < m.n_datasets for a in atoms):
            raise DomainError("marginal atoms must be dataset indices")
    pushforwards = np.stack(
        [
            sum(dist.prob(i) * m.kernel[i] for i in range(m.n_datasets))
            for dist in marginals
        ]
    )
    lhs = _exact_min_max_error(m, pushforwards)

    if c.kind == "none":
        if N != 2:
            raise ArityMismatch("classical transport check needs N = 2")
        return lhs >= (1.0 - tv(marginals[0], marginals[1])) / 2.0 - _DP_TOL

    def s_of_indices(indices) -> float:
        tup = tuple(datasets[i] for i in indices)
        anchor = midpoint_anchor(tup[0], tup[1]) if kind == "global_anchor" and N == 2 else None
        return similarity(c, kind, tup, anchor=anchor, j=0 if kind == "projection_anchor" else None)

    supports = [dist.support() for dist in marginals]
    independent = 0.0
    for combo in itertools.product(*(range(len(a)) for a, _ in supports)):
        weight = 1.0
        indices = []
        for mi, pos in enumerate(combo):
            atoms, weights = supports[mi]
            weight *= weights[pos]
            indices.append(atoms[pos])
        independent += weight * s_of_indices(indices)
    if lhs < independent - _DP_TOL:
        return False

    sampler: CouplingSampler = exponential_races(marginals)
    draws = sampler.sample(_RACES_TRIALS, seed=0)
    uniq, counts = np.unique(draws, axis=0, return_counts=True)
    values = np.array([s_of_indices(row) for row in uniq])
    weights = counts / counts.sum()
    mean = float(np.sum(weights * values))
    var = float(np.sum(weights * (values - mean) ** 2))
    stderr = math.sqrt(var / _RACES_TRIALS)
    return lhs >= mean - 3.0 * stderr - _DP_TOL
