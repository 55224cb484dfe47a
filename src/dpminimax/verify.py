"""Exact verification on tiny finite mechanisms.

Datasets are vectors over a small integer alphabet and mechanisms are
explicit stochastic kernels; every dataset pair or tuple is enumerated by
index, and pair distances are read from one Hamming table, over which each
similarity's closed form runs as array code on all tuples at once.
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

import functools
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
_ANCHOR_KINDS = ("global_anchor", "projection_anchor")
_SIMILARITY_KINDS = (*_ANCHOR_KINDS, "lecam_match", "pairwise_anchor", "fano_match")


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


def _digits(base: int, length: int) -> np.ndarray:
    """(base^length, length) digits of 0, ..., base^length - 1, first digit
    most significant: the rows of itertools.product(range(base), repeat=length)."""
    return np.arange(base**length)[:, None] // base ** np.arange(length - 1, -1, -1) % base


@functools.cache
def _word_distances(alphabet_size: int, n: int) -> np.ndarray:
    """(D, D) Hamming distances of the words of n letters, in FiniteMechanism's
    mixed-radix order (first letter most significant).  Built once per
    (alphabet_size, n) and shared, so it is read-only."""
    words = _digits(alphabet_size, n)
    table = np.sum(words[:, None, :] != words[None, :, :], axis=2)
    table.setflags(write=False)
    return table


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
        words = _digits(self.alphabet_size, self.n).tolist()
        return [Dataset(entries=tuple(word), alphabet_size=self.alphabet_size) for word in words]

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

    The arguments are checked in one order (see _similarity_values): the
    kind against c, which admits _similarity_kinds(c), then N ("lecam_match"
    needs N = 2), then j ("projection_anchor" needs one in [0, N)), then the
    distances, where "global_anchor" needs anchor.
    """
    datasets = tuple(datasets)

    def dist():
        if kind in _ANCHOR_KINDS:
            return [_anchor_distances(datasets, datasets[j] if kind == "projection_anchor" else anchor)]
        return [[hamming(a, b) for a, b in itertools.combinations(datasets, 2)]]

    return float(_similarity_values(c, kind, len(datasets), dist, j)[0])


def _similarity_kinds(c: PrivacyConstraint) -> tuple[str, ...]:
    """The similarity kinds defined under c, in _SIMILARITY_KINDS order: all
    five under DP, less fano_match when delta > 0; lecam_match and
    fano_match under zCDP; none without a constraint."""
    if c.kind == "zcdp":
        return ("lecam_match", "fano_match")
    if not c.is_dp:
        return ()
    return _SIMILARITY_KINDS if c.eps_delta()[1] == 0.0 else _SIMILARITY_KINDS[:-1]


def _suite_kinds(c: PrivacyConstraint, N: int = 2) -> list[str]:
    """The similarity kinds a suite checks under c with N datasets: those c
    admits, less global_anchor (whose default anchor is a pair's midpoint)
    and lecam_match, defined for two datasets only, at any other N."""
    return [k for k in _similarity_kinds(c) if N == 2 or k not in ("global_anchor", "lecam_match")]


def _similarity_values(c: PrivacyConstraint, kind: str, N: int, dist, j: Optional[int]) -> np.ndarray:
    """Each similarity kind's closed form, on T tuples of N datasets at once.

    The checks run in one order: the kind against c, then N, then
    projection_anchor's index j, then dist(), which returns the (T, N)
    distances to the anchor for the anchor kinds (the anchor rules and
    unequal lengths raise there) and the (T, N(N-1)/2) pair distances in
    itertools.combinations order for the others.  Values keep the scalar
    formula's bits: e^(-eps s) is math.exp at integer s, pairwise_anchor
    adds in ordered-pair order, fano_match sums integers.
    """
    if N < 1:
        raise ArityMismatch("need at least one dataset")
    if kind not in _similarity_kinds(c):
        raise KindConstraintMismatch(f"similarity kind {kind!r} is not defined under {c.label()}")
    if kind == "lecam_match" and N != 2:
        raise ArityMismatch("lecam_match requires exactly two datasets")
    if kind in ("pairwise_anchor", "fano_match") and N < 2:
        raise ArityMismatch(f"{kind} requires at least two datasets")
    if kind == "projection_anchor" and (j is None or not 0 <= j < N):
        raise DomainError("projection_anchor needs an index j in [0, N)")
    h = np.asarray(dist(), dtype=np.int64)
    if kind == "fano_match":
        scale, cost = (c.rho, h * h) if c.kind == "zcdp" else (c.eps_delta()[0], h)
        return 1.0 - (1.0 + (scale / N**2) * (2 * np.sum(cost, axis=1))) / math.log(N)
    if c.kind == "zcdp":
        return 0.5 * (1.0 - math.sqrt(c.rho / 2.0) * h[:, 0])
    eps, delta = c.eps_delta()
    # The anchor kinds read the farthest dataset, the pair kinds half of each distance.
    s = h.max(axis=1) if kind in _ANCHOR_KINDS else (h + 1) // 2
    e = np.array([math.exp(-eps * d) for d in range(int(h.max()) + 1)])[s]
    if kind in _ANCHOR_KINDS:
        return (N - 1) / N * e - math.exp(-eps) * delta * s
    if kind == "lecam_match":
        return 0.5 * e[:, 0] - math.exp(-eps) * delta * s[:, 0]
    # Each pair's term once per ordered pair, in itertools.permutations order;
    # cumsum adds them one after another, as the scalar loop does.
    pair = np.zeros((N, N), dtype=np.int64)
    pair[_upper(N)] = np.arange(h.shape[1])
    terms = (e - 2.0 * math.exp(-eps) * delta * s)[:, (pair + pair.T)[~np.eye(N, dtype=bool)]]
    return np.cumsum(terms, axis=1)[:, -1] / (2 * N * (N - 1))


def _upper(N: int) -> np.ndarray:
    """(N, N) mask of the pairs i < j, in itertools.combinations order row-major."""
    return np.arange(N)[:, None] < np.arange(N)


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
    if c.kind == "none":
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
    return bool(np.all(_kl_weights(p, loss) <= epsilon * k + _KL_TOL))


def _similarities(
    m: FiniteMechanism, c: PrivacyConstraint, kind: str, idx: np.ndarray, anchors=None, j: int = 0
) -> np.ndarray:
    """similarity on every row of idx, a (T, N) array of dataset indices, in
    one array pass (see _similarity_values) over distances gathered from one
    Hamming table: those of every pair, those to x_j for projection_anchor,
    and for global_anchor those to anchors(tuple), called once per row, or to
    the midpoint of a pair at distance h, h // 2 and (h + 1) // 2.
    """
    N = idx.shape[1]

    def dist():
        h = _word_distances(m.alphabet_size, m.n)
        if kind == "projection_anchor":
            return h[idx, idx[:, j : j + 1]]
        if kind == "global_anchor":
            if anchors is not None:
                datasets = m.datasets()
                rows = [tuple(datasets[i] for i in row) for row in idx.tolist()]
                return [_anchor_distances(tup, anchors(tup)) for tup in rows]
            if N != 2:
                raise DomainError("global_anchor has a default anchor only for N = 2")
            return (h[idx[:, :1], idx[:, 1:]] + [0, 1]) // 2
        upper, lower = np.nonzero(_upper(N))
        return h[idx[:, upper], idx[:, lower]]

    return _similarity_values(c, kind, N, dist, j)


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
    its N kernel rows, added in output order, and the similarities come from
    one array pass (see _similarities).  worst_gap is the minimal slack; a
    witness (tuple, psi), the first tuple in index order at that slack, is
    reported when it violates the bound.
    """
    _check_caps(m)
    if N < 2:
        raise ArityMismatch("admissibility needs N >= 2")
    # Each of the D^N tuples costs an argmax over N rows of k outputs, and
    # reads N distances to an anchor or the N(N-1)/2 of its pairs.
    reads = N if kind in _ANCHOR_KINDS else N * (N - 1) // 2
    work = m.n_datasets**N * (N * m.n_outputs + reads)
    if work > _MAX_ADMISSIBILITY_WORK:
        raise TooLarge(f"enumeration size {work} exceeds cap {_MAX_ADMISSIBILITY_WORK}")
    idx = _digits(m.n_datasets, N)
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
    supports (TooLarge above 10^4 of them), and the similarities at the atoms
    come from one array pass (see _similarities).  For global_anchor with
    N = 2 the anchor is the midpoint of the pair; projection_anchor projects
    on j = 0.
    """
    combos, A, b = _coupling_polytope(marginals)
    neg_max, _ = solve_min(-_similarities(m, c, kind, combos), A, b)
    return -neg_max


def _transport_left_side(m: FiniteMechanism, marginals) -> float:
    """min_psi max_i P(psi(M(X_i)) != i) for the marginals' pushforwards
    through m, after the checks on m and the marginals that every kind of
    transport check makes first."""
    _check_caps(m)
    marginals = tuple(marginals)
    if len(marginals) < 2:
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
    return _min_max_error(pushforwards)


def verify_transport_bound(
    m: FiniteMechanism,
    c: PrivacyConstraint,
    kind: str,
    marginals,
    *,
    left_side: Optional[float] = None,
) -> bool:
    """Check min_psi max_i P(psi(M(X_i)) != i) >= max_pi E_pi[similarity].

    Marginals are distributions over dataset indices and X_i is drawn from
    the i-th.  The left side is the least worst-case error over randomized
    tests psi; the right side is the optimal transport value of the
    similarity over the coupling polytope of the marginals (at most 10^4
    joint atoms, else TooLarge), which covers every coupling at once.  Both
    are linear programs solved exactly by the dense simplex (pivot tolerance
    1e-9).  With constraint kind "none" and N=2 the classical bound
    (1 - tv(P1, P2)) / 2 is checked instead.  The left side depends only on
    m and the marginals: a caller checking several kinds may pass the value
    of _transport_left_side(m, marginals) as left_side to solve it once.
    """
    marginals = tuple(marginals)
    lhs = _transport_left_side(m, marginals) if left_side is None else left_side

    if c.kind == "none":
        if len(marginals) != 2:
            raise ArityMismatch("classical transport check needs N = 2")
        return lhs >= (1.0 - tv(marginals[0], marginals[1])) / 2.0 - _DP_TOL

    return lhs >= _max_expected_similarity(m, c, kind, marginals) - _DP_TOL
