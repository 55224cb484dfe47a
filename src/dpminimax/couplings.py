"""Couplings of finite marginals and their disagreement structure.

A coupling sampler draws joint realizations (X_1, ..., X_N) whose i-th
component is exactly distributed as the i-th marginal.  Draw t consumes a
fixed-size block of a counter-based stream derived from the seed, so
estimates are reproducible and independent of how draws are partitioned
across workers.

One routine, _draw_range, makes every draw: it walks a range of draws
from the single stream derived_rng(seed), positioned once at the range's
first uniform, and builds the per-kind weights once per range.  It takes
the draws in chunks small enough that every chunk-sized array stays below
glibc's default 128 KiB mmap threshold, so chunk temporaries are reused
from the heap arena instead of being mapped, faulted in and unmapped
chunk after chunk.  sample() stores the chunks, and a disagreement count
counts each chunk as it comes and keeps none.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from typing import Callable, NamedTuple, Optional

import numpy as np

from . import _kernels
from ._rng import derived_rng
from ._simplex import solve_min
from .divergences import DiscreteDistribution, tv
from .errors import DegenerateMarginal, DomainError, TooLarge

__all__ = [
    "CouplingSampler",
    "DisagreementMatrix",
    "maximal_pair",
    "shared_uniform_bernoulli",
    "exponential_races",
    "product_lift",
    "estimate_disagreement",
    "exact_disagreement",
    "min_disagreement_lp",
]

_LP_CAP = 10_000

# glibc's default mmap threshold (M_MMAP_THRESHOLD).  malloc serves a block
# of 128 KiB or more with a fresh mmap, whose pages fault in on first touch
# and are unmapped on free, unless the free of a larger block has raised
# the (dynamic) threshold; a smaller block is reused from the heap arena.
_MMAP_THRESHOLD = 128 * 1024

# Bytes of the widest chunk-sized array of a draw range: one page below the
# threshold, leaving room for malloc's header, so that no chunk's uniforms,
# clocks, atoms or kernel temporaries are mapped and faulted in per chunk.
_CHUNK_BYTES = _MMAP_THRESHOLD - 4096

# From this many uniforms (trials * draw_budget()) on, estimate_disagreement
# counts its draws in forked ranges (_kernels.run_ranges).  On a 2-CPU Xeon
# VM a fork round trip of a 43 MB process takes 3-4 ms, and a 2-range count
# breaks even between 2**17 and 2**18 uniforms (about 10-18 ms of counting).
_FORK_MIN_UNIFORMS = 2**18


@dataclass(frozen=True)
class DisagreementMatrix:
    """Empirical pairwise disagreement rates with binomial standard errors."""

    estimates: np.ndarray = field(compare=False)
    stderr: np.ndarray = field(compare=False)
    trials: int = 0
    seed: int = 0


@dataclass(frozen=True)
class CouplingSampler:
    """A joint sampler over N finite marginals.

    kind is "maximal_pair" (two marginals), "shared_uniform" (two or more, on
    atoms 0 and 1), "races" (two or more) or "product_lift": n >= 1 independent
    draws of a plain base sampler on the base's marginals, an n-vector per
    marginal, disagreeing when any coordinate does.  Checked when it is built.
    """

    kind: str
    marginals: tuple[DiscreteDistribution, ...]
    base: Optional["CouplingSampler"] = None
    n: int = 1

    def __post_init__(self) -> None:
        if self.kind == "product_lift":
            if self.base is None:
                raise DomainError("a product lift needs a base sampler")
            if self.base.kind == "product_lift":
                raise DomainError("nested product lifts are not supported")
            if self.n < 1:
                raise DomainError("n must be >= 1")
            law, base_law = _weights(self.marginals), _weights(self.base.marginals)
            if law[0] != base_law[0] or not np.array_equal(law[1], base_law[1]):
                raise DomainError("a product lift takes its base's marginals")
        elif self.kind not in _LAWS:
            raise DomainError(f"unknown coupling kind {self.kind!r}")
        elif self.base is not None or self.n != 1:
            raise DomainError(f"a {self.kind} sampler takes no base and n = 1")
        elif len(self.marginals) < 2:
            raise DomainError("need at least two marginals")
        elif self.kind == "maximal_pair" and len(self.marginals) != 2:
            raise DomainError("a maximal pair couples exactly two marginals")
        elif self.kind == "shared_uniform" and any(set(m.support()[0]) - {0, 1} for m in self.marginals):
            raise DegenerateMarginal("shared_uniform couples marginals on atoms 0 and 1 only")

    @property
    def n_marginals(self) -> int:
        return len(self.marginals)

    @property
    def _unit(self) -> "CouplingSampler":
        """The plain sampler of one base draw: a lift's base, else self."""
        return self if self.base is None else self.base

    def draw_budget(self) -> int:
        """Number of stream variates one draw consumes."""
        return self.n * _LAWS[self._unit.kind].budget(self.marginals)

    def sample(self, trials: int, seed: int, start: int = 0, each=None) -> Optional[np.ndarray]:
        """Draw the ``trials`` joint realizations start, ..., start + trials - 1.

        Returns (trials, N) atom labels, or (trials, N, n) for product lifts.
        Draw t reads the draw_budget() uniforms from uniform t * draw_budget()
        of the one stream derived_rng(seed) on, so sample(k, seed, start) is
        bit for bit the slice [start:] of sample(start + k, seed); a lift's
        realization t is its base's draws t * n, ..., t * n + n - 1.  The
        draws are made by _draw_range, a chunk at a time.

        With each given, nothing is stored or returned: each(atoms) is called
        on every chunk in order, atoms a (k, n, N) int64 array of the chunk's
        k realizations (n = 1 unless a lift) that is valid during the call only.
        """
        if trials < 1:
            raise DomainError("trials must be >= 1")
        if start < 0:
            raise DomainError("start must be >= 0")
        chunks = _draw_range(self, seed, start, trials)
        if each is not None:
            for atoms in chunks:
                each(atoms)
            return None
        out = np.empty((trials, self.n, self.n_marginals), dtype=np.int64)
        lo = 0
        for atoms in chunks:
            out[lo:lo + atoms.shape[0]] = atoms
            lo += atoms.shape[0]
        return out.reshape(trials, self.n_marginals) if self.base is None else out.transpose(0, 2, 1)


def _draw_range(sampler: CouplingSampler, seed: int, start: int, count: int):
    """Yield the realizations start, ..., start + count - 1 of sampler, in
    order, as (k, n, N) int64 atoms, _chunk_rows(sampler) realizations at
    a time.  The one stream derived_rng(seed) is positioned once, at the
    first uniform of the range, and each chunk's uniforms are the next
    ones; the per-kind weights are built once.
    """
    budget = sampler._unit.draw_budget()
    assign = _LAWS[sampler._unit.kind].assigner(sampler.marginals)
    n, N = sampler.n, sampler.n_marginals
    rows = _chunk_rows(sampler)
    rng = derived_rng(seed)
    # One Philox block holds four uniforms: skip whole blocks, then the
    # words of the block the first draw starts in.
    word = start * n * budget
    rng.bit_generator.advance(word // 4)
    rng.bit_generator.random_raw(word % 4)
    u = np.empty((min(rows, count) * n, budget))
    for lo in range(0, count, rows):
        k = min(rows, count - lo)
        chunk = u[:k * n]
        rng.random(out=chunk)
        yield assign(chunk).reshape(k, n, N)


def _chunk_rows(sampler: CouplingSampler) -> int:
    """Realizations per chunk of a draw range: whole realizations, and so
    few that the widest chunk-sized array, the uniforms, clocks or atoms
    of its base draws at 8 bytes an item, stays within _CHUNK_BYTES."""
    width = max(sampler._unit.draw_budget(), sampler.n_marginals)
    return max(1, _CHUNK_BYTES // (8 * sampler.n * width))


def _universe(marginals) -> list[int]:
    """The sorted union of the marginals' supports."""
    return sorted(set().union(*(m.support()[0] for m in marginals)))


def _weights(marginals) -> tuple[list[int], np.ndarray]:
    """The marginals' universe and their (N, atoms) weights on it."""
    atoms = _universe(marginals)
    return atoms, np.array([[m.prob(a) for a in atoms] for m in marginals])


def _maximal_pair_assigner(marginals):
    atoms, (pw, qw) = _weights(marginals)
    common = np.minimum(pw, qw)
    mass = float(common.sum())
    tvd = 1.0 - mass
    common_w = common / mass if mass > 0.0 else common
    if tvd > 1e-15:
        parts = (common_w, (pw - common) / tvd, (qw - common) / tvd, mass)
    else:
        # Equal up to rounding: every draw agrees, so the residuals are never read.
        parts = (common_w, np.zeros_like(pw), np.zeros_like(qw), 1.0)
    return lambda u: _kernels.pair_assignments(u, atoms, *parts)


def _shared_uniform_assigner(marginals):
    ps = np.array([m.prob(1) for m in marginals])
    return lambda u: (u[:, :1] < ps[None, :]).astype(np.int64)


def _shared_uniform_exact(marginals) -> np.ndarray:
    ps = np.array([m.prob(1) for m in marginals])
    return np.abs(ps[:, None] - ps[None, :])


def _races_assigner(marginals):
    universe, probs = _weights(marginals)
    atoms = np.asarray(universe, dtype=np.int64)

    def assign(u):
        # The clocks -log1p(-u), computed in place over u: no chunk-sized temporary.
        clocks = np.negative(np.log1p(np.negative(u, out=u), out=u), out=u)
        return atoms[_kernels.races_winners(clocks, probs)]

    return assign


def _races_exact(marginals) -> np.ndarray:
    _, probs = _weights(marginals)
    exact = np.zeros((len(marginals), len(marginals)))
    for i, j in itertools.combinations(range(len(marginals)), 2):
        common = np.flatnonzero((probs[i] > 0.0) & (probs[j] > 0.0))
        # ratio[x, y] = max(p_i(y) / p_i(x), p_j(y) / p_j(x)), x in the common support.
        ratio = np.maximum(probs[i] / probs[i, common, None], probs[j] / probs[j, common, None])
        # Not below 0.0: equal marginals' collision sum may round past 1.
        exact[i, j] = max(0.0, 1.0 - float(np.sum(1.0 / ratio.sum(axis=1))))
    return exact


class _Law(NamedTuple):
    budget: Callable  # the stream variates one draw consumes
    assigner: Callable  # the map of a chunk's (draws, budget) uniforms to its (draws, N) atoms
    exact: Callable  # the (N, N) disagreement probabilities, read on and above the diagonal


_LAWS = {
    "maximal_pair": _Law(lambda ms: 3, _maximal_pair_assigner,
                         lambda ms: np.array([[0.0, tv(*ms)], [0.0, 0.0]])),
    "shared_uniform": _Law(lambda ms: 1, _shared_uniform_assigner, _shared_uniform_exact),
    "races": _Law(lambda ms: len(_universe(ms)), _races_assigner, _races_exact),
}


def maximal_pair(p: DiscreteDistribution, q: DiscreteDistribution) -> CouplingSampler:
    """Maximal coupling of two marginals: P(X != Y) equals tv(p, q) exactly."""
    return CouplingSampler("maximal_pair", (p, q))


def shared_uniform_bernoulli(ps) -> CouplingSampler:
    """Couple Bernoulli(p_i) through one shared uniform: X_i = 1{U < p_i}.

    Pairwise disagreement is exactly |p_i - p_j|.
    """
    ps = [float(p) for p in ps]
    if any(not 0.0 <= p <= 1.0 for p in ps):
        raise DegenerateMarginal("Bernoulli parameters must lie in [0, 1]")
    return CouplingSampler("shared_uniform", tuple(DiscreteDistribution.bernoulli(p) for p in ps))


def exponential_races(marginals) -> CouplingSampler:
    """Race coupling: shared Exp(1) clocks T_x, X_i = argmin_x T_x / p_i(x).

    Marginals are exact; pairwise disagreement is exact_disagreement's
    P-MinHash value, at most 2 tv / (1 + tv).
    """
    return CouplingSampler("races", tuple(marginals))


def product_lift(base: CouplingSampler, n: int) -> CouplingSampler:
    """n-fold product coupling: n independent base draws per realization.

    Componentwise Hamming distance between X_i and X_j is Binomial(n, delta_ij)
    where delta_ij is the base disagreement probability.
    """
    return CouplingSampler("product_lift", base.marginals, base=base, n=n)


def estimate_disagreement(sampler: CouplingSampler, trials: int, seed: int) -> DisagreementMatrix:
    """Monte-Carlo pairwise disagreement matrix for a coupling sampler.

    The draws of sampler.sample(trials, seed) are counted in contiguous
    ranges of draws, in forked children when the call reads at least
    _FORK_MIN_UNIFORMS uniforms (_kernels.run_ranges), and the ranges' int64
    counts are summed.  A range is one sample(k, seed, start) call that
    hands each chunk of draws to the count and keeps none, so memory holds
    one chunk's atoms however many trials are asked for.  An estimate is an
    integer count over trials, so it is the same bits at any worker count,
    and those of the mean of the one-shot draw's 0/1 outcomes.
    """
    if trials < 1:
        raise DomainError("trials must be >= 1")
    N = sampler.n_marginals
    large = trials * sampler.draw_budget() >= _FORK_MIN_UNIFORMS
    counts = np.sum(
        _kernels.run_ranges(lambda lo, hi: _count_disagreements(sampler, seed, lo, hi),
                            trials, lambda lo, hi: (N, N), np.int64, large),
        axis=0,
    )
    est = (counts + counts.T) / trials
    stderr = np.sqrt(est * (1.0 - est) / trials)
    return DisagreementMatrix(estimates=est, stderr=stderr, trials=trials, seed=seed)


def _count_disagreements(sampler: CouplingSampler, seed: int, lo: int, hi: int) -> np.ndarray:
    """(N, N) counts of the draws lo..hi-1 in which components i < j
    disagree, at [i, j]; zero on and below the diagonal."""
    N, n = sampler.n_marginals, sampler.n
    counts = np.zeros((N, N), dtype=np.int64)

    def count(draws):
        # A plain draw is a lift of length 1: components disagree when any coordinate does.
        for i in range(N):
            for j in range(i + 1, N):
                # One coordinate of the short lift axis at a time: faster than any(axis=1).
                dis = draws[:, 0, i] != draws[:, 0, j]
                for c in range(1, n):
                    dis |= draws[:, c, i] != draws[:, c, j]
                counts[i, j] += np.count_nonzero(dis)

    sampler.sample(hi - lo, seed, lo, each=count)
    return counts


def exact_disagreement(sampler: CouplingSampler) -> np.ndarray:
    """The exact pairwise disagreement matrix P(X_i != X_j) of a sampler.

    Maximal pair: tv(p, q).  Shared uniform: |p_i - p_j|.  Races: one minus
    the P-MinHash collision probability ("Maximally consistent sampling and
    the Jaccard index of probability distributions", Moulton and Jiang,
    ICDM 2018), sum over the common support of
    1 / sum_y max(p_i(y) / p_i(x), p_j(y) / p_j(x)).  Product lift of n:
    1 - (1 - delta_ij)^n, delta the base's matrix.  Symmetric, zero diagonal.
    """
    exact = _LAWS[sampler._unit.kind].exact(sampler.marginals)
    exact = np.maximum(exact, exact.T)
    return exact if sampler.base is None else 1.0 - (1.0 - exact) ** sampler.n


def _coupling_polytope(marginals):
    """Joint atoms and equality constraints of the coupling polytope.

    The joint atoms are the product of the marginal supports in
    ``itertools.product`` order, returned as an (n_vars, N) array; row
    (i, a) of A, ordered by marginal and then by support order, requires
    the coupling to put mass b = P_i(a) on joint atoms whose i-th component
    is a.  Raises TooLarge above 10^4 joint atoms.
    """
    supports = []
    for m in marginals:
        atoms, w = m.support()
        if len(atoms) == 0:
            raise DegenerateMarginal("marginal with empty support")
        supports.append((atoms, w))
    n_vars = math.prod(len(atoms) for atoms, _ in supports)
    if n_vars > _LP_CAP:
        raise TooLarge(f"joint support {n_vars} exceeds cap {_LP_CAP}")

    combos = np.array(list(itertools.product(*(atoms for atoms, _ in supports))), dtype=np.int64)
    A = np.concatenate(
        [combos[None, :, i] == np.array(atoms)[:, None] for i, (atoms, _) in enumerate(supports)]
    ).astype(np.float64)
    b = np.concatenate([w for _, w in supports])
    return combos, A, b


def min_disagreement_lp(marginals) -> float:
    """Exact minimum of sum_{i<j} P(X_i != X_j) over all couplings.

    Solves the coupling polytope LP on the product of the marginal supports
    (capped at 10^4 joint atoms) with a deterministic dense simplex.  For two
    marginals the optimum equals tv(P, Q).
    """
    marginals = tuple(marginals)
    N = len(marginals)
    if N < 2:
        raise DomainError("need at least two marginals")
    combos, A, b = _coupling_polytope(marginals)
    cost = np.zeros(combos.shape[0])
    for i in range(N):
        for j in range(i + 1, N):
            cost += combos[:, i] != combos[:, j]
    value, _ = solve_min(cost, A, b)
    return value
