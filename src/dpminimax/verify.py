"""Exact verification on tiny finite mechanisms.

Datasets are vectors over a small integer alphabet and mechanisms are
explicit stochastic kernels; every dataset pair or tuple is enumerated by
index, and pair distances are read from one Hamming table.
A privacy check reads one table of dataset pairs at distance k, holding
p = M(X_i) and the privacy loss L = ln(p/q) against q = M(X_j) of each
output (see divergences._privacy_loss), through one functional of L under p.
(Group) DP compares the hockey-stick divergence sum_o p_o (1 - e^(k eps -
L_o))_+, the excess of the worst event {o : L_o > k eps}, with delta_k, and
KL-DP compares the mean loss sum_o p_o L_o with eps k.  zCDP reads max L =
D_infinity and the convex K(s) = ln sum_o p_o e^(s L_o) = (alpha - 1) D_alpha
at s = alpha - 1: a bisection of [1, 1 + D_infinity / rho] in which each
piece's chord lies below rho alpha (alpha - 1) certifies the whole range,
and D_alpha <= D_infinity every larger alpha.
The test with least average error picks argmax_i P(M(X_i) = o) per output.
The transport bound solves two small linear programs: the least worst-case
error over randomized tests, and the optimal transport value of the
similarity over all couplings of the marginals.  The checks are exact up to
stated numerical tolerances.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from ._rng import derived_rng  # noqa: F401  (wrapped by perfbench/tracing.py)
from ._simplex import solve_min
from .bounds import PrivacyConstraint
from .couplings import _coupling_polytope
from .couplings import exponential_races  # noqa: F401  (wrapped by perfbench/tracing.py)
from .divergences import DiscreteDistribution, _cgf, _kl_weights, _privacy_loss, tv
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
_ALPHA_BISECTIONS = 4096
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


def _word_distances(alphabet_size: int, n: int) -> np.ndarray:
    """(D, D) Hamming distances of the words of n letters, in FiniteMechanism's
    mixed-radix order (first letter most significant)."""
    words = np.array(list(itertools.product(range(alphabet_size), repeat=n)))
    return np.sum(words[:, None, :] != words[None, :, :], axis=2)


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
        hmax = max(_anchor_distances(datasets, anchor))
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


def _anchor_distances(datasets, anchor: Optional[Dataset]) -> list[int]:
    """Hamming distance of each dataset to the anchor, the only part of a
    tuple that global_anchor and projection_anchor read."""
    if anchor is None:
        raise DomainError("global_anchor needs an anchor dataset")
    return [hamming(x, anchor) for x in datasets]


def _check_caps(m: FiniteMechanism) -> None:
    if m.n_datasets > _MAX_DATASETS:
        raise TooLarge(f"{m.n_datasets} datasets exceeds cap {_MAX_DATASETS}")
    if m.n_outputs > _MAX_OUTPUTS:
        raise TooLarge(f"{m.n_outputs} outputs exceeds cap {_MAX_OUTPUTS}")


def _exp(x: float) -> float:
    """e^x, or inf where it overflows a float."""
    try:
        return math.exp(x)
    except OverflowError:
        return math.inf


def _zcdp_pair_holds(p: np.ndarray, loss: np.ndarray, rho_bound: float):
    """An alpha where D_alpha > rho_bound * alpha, or None when certified, for
    one row p and its privacy loss L = ln(p/q) (see divergences._privacy_loss).

    With s = alpha - 1 the bound reads K(s) <= g(s) = rho_bound s (s + 1) +
    _DP_TOL s, where K(s) = (alpha - 1) D_alpha is convex with K(0) = 0 (see
    divergences._cgf).  So K lies below its chord on any [a, b], and the
    chord lies below g exactly when g minus the chord, a convex quadratic,
    is non-negative at its vertex clamped to [a, b].  Beyond top = max L
    / rho_bound - 1, K(s) <= s max L <= g(s).  [0, top] is bisected
    until every piece passes; the witness is a midpoint alpha that fails, or
    an (a, b) alpha interval still open after _ALPHA_BISECTIONS bisections.
    An infinite max L fails at alpha = 2.
    """
    top = float(loss.max()) / rho_bound - 1.0
    if math.isinf(top):
        return 2.0

    def bound(s):
        return rho_bound * s * (s + 1.0) + _DP_TOL * s

    pieces = [(0.0, 0.0, top, _cgf(p, loss, top))] if top > 0.0 else []
    bisections = 0
    while pieces:
        a, ka, b, kb = pieces.pop()
        slope = (kb - ka) / (b - a)
        s = min(max((slope - rho_bound - _DP_TOL) / (2.0 * rho_bound), a), b)
        if ka + slope * (s - a) <= bound(s):
            continue
        if bisections == _ALPHA_BISECTIONS:
            return (1.0 + a, 1.0 + b)
        bisections += 1
        mid = 0.5 * (a + b)
        kmid = _cgf(p, loss, mid)
        if kmid > bound(mid):
            return 1.0 + mid
        pieces += [(a, ka, mid, kmid), (mid, kmid, b, kb)]
    return None


def _pair_table(m: FiniteMechanism, max_distance: int):
    """Every pair of dataset indices at Hamming distance 0 < k <= max_distance,
    in row-major order: arrays i, j, k, the rows p = M(X_i) and the privacy
    loss L = ln(p/q) against q = M(X_j), one (pair, output) entry each."""
    h = _word_distances(m.alphabet_size, m.n)
    i, j = np.nonzero((h > 0) & (h <= max_distance))
    p = m.kernel[i]
    return i, j, h[i, j], p, _privacy_loss(p, m.kernel[j])


def _first_violation(m: FiniteMechanism, c: PrivacyConstraint, max_distance: int):
    """(i, j, witness) for the first pair in row-major order where the k-fold
    group form of c fails, or None; at k = 1 the group bounds are exactly eps,
    delta and rho.  The DP witness is the worst event {o : L_o > k eps}, the
    zCDP one an alpha or alpha interval (see _zcdp_pair_holds)."""
    i, j, k, p, loss = _pair_table(m, max_distance)
    if c.is_dp:
        eps, delta = c.eps_delta()
        group_delta = [delta * d * _exp(eps * (d - 1)) if delta > 0.0 else 0.0
                       for d in range(max_distance + 1)]
        k_eps = (k * eps)[:, None]
        excess = np.sum(p * -np.expm1(np.minimum(k_eps - loss, 0.0)), axis=1)
        bad = np.flatnonzero(excess > np.take(group_delta, k) + _DP_TOL)
        if bad.size == 0:
            return None
        t = bad[0]
        return int(i[t]), int(j[t]), tuple(o for o, out in zip(m.outputs, loss[t] > k_eps[t]) if out)
    for t, d in enumerate(k.tolist()):
        alpha = _zcdp_pair_holds(p[t], loss[t], c.rho * d * d)
        if alpha is not None:
            return int(i[t]), int(j[t]), alpha
    return None


def verify_privacy(m: FiniteMechanism, c: PrivacyConstraint) -> PrivacyCheck:
    """Check the privacy constraint over all neighboring datasets.

    DP checks the worst event of each pair in closed form; zCDP certifies
    D_alpha <= rho * alpha for every alpha > 1 from chords of the convex
    (alpha - 1) D_alpha on a bisection of [1, 1 + D_infinity / rho], and from
    D_alpha <= D_infinity beyond it.  Returns a violating witness (dataset
    pair plus worst event, or alpha or alpha interval) when the check fails.
    """
    _check_caps(m)
    if c.kind == "none":
        return PrivacyCheck(holds=True)
    bad = _first_violation(m, c, 1)
    if bad is None:
        return PrivacyCheck(holds=True)
    i, j, witness = bad
    datasets = m.datasets()
    return PrivacyCheck(holds=False, witness=(datasets[i], datasets[j], witness))


def verify_group_privacy(m: FiniteMechanism, c: PrivacyConstraint) -> bool:
    """Check the k-fold group form of the constraint over all dataset pairs.

    DP at distance k: P(S) <= e^{k eps} Q(S) + delta k e^{eps (k-1)}.
    zCDP at distance k: D_alpha <= rho k^2 alpha.
    """
    _check_caps(m)
    if not (c.is_dp or c.kind == "zcdp"):
        raise KindConstraintMismatch("group privacy needs DP or zCDP")
    return _first_violation(m, c, m.n) is None


def verify_kl_dp(m: FiniteMechanism, epsilon: float) -> bool:
    """Check KL(M(X) || M(Y)) <= epsilon * hamming(X, Y) for all pairs.

    KL is the mean privacy loss under M(X); an infinite KL (an output
    reachable from X but not from Y) always fails.
    """
    _check_caps(m)
    if not 0.0 < epsilon < math.inf:
        raise DomainError("epsilon must be positive and finite")
    _, _, k, p, loss = _pair_table(m, m.n)
    return all(_kl_weights(pt, lt) <= epsilon * d + _KL_TOL for pt, lt, d in zip(p, loss, k.tolist()))


def _similarity_at(c: PrivacyConstraint, kind: str, tup: tuple, anchors=None, j: int = 0) -> float:
    """similarity on a dataset tuple under the one anchor rule: global_anchor
    takes anchors(tup), or the midpoint of a pair; projection_anchor takes j."""
    anchor = None
    if kind == "global_anchor":
        if anchors is not None:
            anchor = anchors(tup)
        elif len(tup) == 2:
            anchor = midpoint_anchor(*tup)
        else:
            raise DomainError("global_anchor has a default anchor only for N = 2")
    return similarity(c, kind, tup, anchor=anchor, j=j if kind == "projection_anchor" else None)


def _similarities(
    m: FiniteMechanism, c: PrivacyConstraint, kind: str, idx: np.ndarray, anchors=None, j: int = 0
) -> np.ndarray:
    """_similarity_at on every row of idx, a (T, N) array of dataset indices.

    A similarity reads its tuple only through Hamming distances: those of
    every pair, those to x_j for projection_anchor, and those to the tuple's
    anchor for global_anchor with an anchors callable.  Rows that share
    these distances share the value, so similarity runs once per distinct
    pattern, on the pattern's first row, in row order: its kind, arity and
    j errors come from the first row, as a loop over the rows raises them.
    """
    datasets = m.datasets()
    # Distances are at most n <= 6 for two or more letters, and 0 for one.
    h = _word_distances(m.alphabet_size, m.n).astype(np.uint8)
    N = idx.shape[1]
    if kind == "global_anchor" and anchors is not None:
        tuples = [tuple(datasets[i] for i in row) for row in idx.tolist()]
        pattern = np.array([_anchor_distances(tup, anchors(tup)) for tup in tuples], dtype=np.int64)
    elif kind == "projection_anchor" and 0 <= j < N:
        pattern = h[idx, idx[:, j : j + 1]]
    else:
        upper, lower = np.array(list(itertools.combinations(range(N), 2))).T
        pattern = h[idx[:, upper], idx[:, lower]]
    # One void item per row: a 1-d unique, far faster than unique(axis=0).
    rows = np.ascontiguousarray(pattern)
    rows = rows.view(np.dtype((np.void, rows.itemsize * rows.shape[1]))).reshape(-1)
    _, first, inverse = np.unique(rows, return_index=True, return_inverse=True)
    order = np.argsort(first)
    values = np.empty(first.shape[0])
    for u, row in zip(order.tolist(), idx[first[order]].tolist()):
        values[u] = _similarity_at(c, kind, tuple(datasets[i] for i in row), anchors, j)
    return values[inverse]


def verify_admissibility(
    m: FiniteMechanism,
    c: PrivacyConstraint,
    kind: str,
    N: int,
    anchors: Optional[Callable] = None,
    j: int = 0,
) -> AdmissibilityCheck:
    """Check avg_i P(psi(M(X_i)) != i) >= similarity on every instance.

    Checks every N-tuple of dataset indices in one vectorized pass.  The
    least average error over test maps psi comes from the per-output rule
    psi(o) = argmax_i P(M(X_i) = o), ties going to the lowest label, so the
    correct mass of a tuple is the sum over outputs of the column maxima of
    its N kernel rows, added in output order.  similarity runs once per
    distinct Hamming pattern (see _similarities).  worst_gap is the minimal
    slack; a witness (tuple, psi), the first tuple in index order at that
    slack, is reported when it violates the bound.
    """
    _check_caps(m)
    if N < 2:
        raise ArityMismatch("admissibility needs N >= 2")
    D = m.n_datasets
    # Each of the D^N tuples costs an argmax over N rows of k outputs.
    work = (D**N) * N * m.n_outputs
    if work > _MAX_ADMISSIBILITY_WORK:
        raise TooLarge(f"enumeration size {work} exceeds cap {_MAX_ADMISSIBILITY_WORK}")
    # Row t holds the N digits of t in base D: itertools.product order.
    idx = np.arange(D**N)[:, None] // D ** np.arange(N - 1, -1, -1) % D
    s = _similarities(m, c, kind, idx, anchors, j)
    best = m.kernel[idx].max(axis=1)
    # A plain loop over outputs, not np.sum: pairwise summation would change the last bit.
    correct = np.zeros(idx.shape[0])
    for o in range(m.n_outputs):
        correct += best[:, o]
    gap = 1.0 - correct / N - s
    t = int(np.argmin(gap))
    witness = None
    if gap[t] < -_DP_TOL:
        datasets = m.datasets()
        psi = tuple(int(i) for i in m.kernel[idx[t]].argmax(axis=0))
        witness = (tuple(datasets[i] for i in idx[t]), psi)
    return AdmissibilityCheck(holds=witness is None, worst_gap=gap[t], witness=witness)


def _min_max_error(pushforwards: np.ndarray) -> float:
    """min over randomized tests psi of max_i P(psi(M(X_i)) != i), as an LP.

    Variables are psi(i|o) >= 0 (hypothesis-major), t and one slack per
    hypothesis: minimise t subject to sum_i psi(i|o) = 1 for every output o
    and sum_o psi(i|o) P_i(o) + t - slack_i = 1 for every hypothesis i.
    """
    N, k = pushforwards.shape
    A = np.zeros((k + N, N * k + 1 + N))
    A[:k, : N * k] = np.tile(np.eye(k), N)
    A[k:, : N * k] = np.eye(N).repeat(k, axis=1) * pushforwards.ravel()
    A[k:, N * k] = 1.0
    A[k:, N * k + 1 :] = -np.eye(N)
    cost = np.zeros(A.shape[1])
    cost[N * k] = 1.0
    value, _ = solve_min(cost, A, np.ones(k + N))
    return value


def _max_expected_similarity(m: FiniteMechanism, c: PrivacyConstraint, kind: str, marginals) -> float:
    """max over couplings pi of the marginals of E_pi[similarity], as an LP.

    The variables are the masses pi puts on the joint atoms of the marginal
    supports (TooLarge above 10^4 of them).  The similarity at the atoms comes
    from one call per distinct Hamming pattern (see _similarities).  For
    global_anchor with N = 2 the anchor is the midpoint of the pair;
    projection_anchor projects on j = 0.
    """
    combos, A, b = _coupling_polytope(marginals)
    neg_max, _ = solve_min(-_similarities(m, c, kind, combos), A, b)
    return -neg_max


def verify_transport_bound(
    m: FiniteMechanism,
    c: PrivacyConstraint,
    kind: str,
    marginals,
) -> bool:
    """Check min_psi max_i P(psi(M(X_i)) != i) >= max_pi E_pi[similarity].

    Marginals are distributions over dataset indices and X_i is drawn from
    the i-th.  The left side is the least worst-case error over randomized
    tests psi; the right side is the optimal transport value of the
    similarity over the coupling polytope of the marginals (at most 10^4
    joint atoms, else TooLarge), which covers every coupling at once.  Both
    are linear programs solved exactly by the dense simplex (pivot tolerance
    1e-9).  With constraint kind "none" and N=2 the classical bound
    (1 - tv(P1, P2)) / 2 is checked instead.
    """
    _check_caps(m)
    marginals = tuple(marginals)
    N = len(marginals)
    if N < 2:
        raise ArityMismatch("need at least two marginals")
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
    lhs = _min_max_error(pushforwards)

    if c.kind == "none":
        if N != 2:
            raise ArityMismatch("classical transport check needs N = 2")
        return lhs >= (1.0 - tv(marginals[0], marginals[1])) / 2.0 - _DP_TOL

    return lhs >= _max_expected_similarity(m, c, kind, marginals) - _DP_TOL
