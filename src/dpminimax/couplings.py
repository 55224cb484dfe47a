"""Couplings of finite marginals and their disagreement structure.

A coupling sampler draws joint realizations (X_1, ..., X_N) whose i-th
component is exactly distributed as the i-th marginal.  Draw t consumes a
fixed-size block of a counter-based stream derived from the seed, so
estimates are reproducible and independent of how draws are partitioned
across workers.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from . import _kernels
from ._rng import derived_rng
from ._simplex import solve_min
from .divergences import DiscreteDistribution
from .errors import DegenerateMarginal, DomainError, TooLarge

__all__ = [
    "CouplingSampler",
    "DisagreementMatrix",
    "maximal_pair",
    "shared_uniform_bernoulli",
    "exponential_races",
    "product_lift",
    "estimate_disagreement",
    "min_disagreement_lp",
]

_LP_CAP = 10_000

# Draws per chunk of uniforms, and base draws per chunk that
# estimate_disagreement counts: the uniforms, a helper's temporaries and the
# atoms counted are sized for one chunk, however many draws are asked for.
_DRAW_CHUNK = 16_384


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

    kind is one of "maximal_pair", "shared_uniform", "races", "product_lift".
    For "product_lift" each draw is an n-vector per marginal and two
    components disagree when any coordinate differs.
    """

    kind: str
    marginals: tuple[DiscreteDistribution, ...]
    base: Optional["CouplingSampler"] = None
    n: int = 1

    @property
    def n_marginals(self) -> int:
        return len(self.marginals)

    def draw_budget(self) -> int:
        """Number of stream variates one draw consumes."""
        if self.kind == "maximal_pair":
            return 3
        if self.kind == "shared_uniform":
            return 1
        if self.kind == "races":
            return len(_universe(self.marginals))
        if self.kind == "product_lift":
            return self.n * self.base.draw_budget()
        raise DomainError(f"unknown coupling kind {self.kind!r}")

    def sample(self, trials: int, seed: int, start: int = 0) -> np.ndarray:
        """Draw the ``trials`` joint realizations start, ..., start + trials - 1.

        Returns (trials, N) atom labels, or (trials, N, n) for product lifts.
        Draw t reads the draw_budget() uniforms from uniform t * draw_budget()
        of the one stream derived_rng(seed) on, so sample(k, seed, start) is
        bit for bit the slice [start:] of sample(start + k, seed); a lift's
        draws are its base's draws from start * n on.  The uniforms are taken
        _DRAW_CHUNK draws at a time, so the memory used is proportional to
        the output.
        """
        if trials < 1:
            raise DomainError("trials must be >= 1")
        if start < 0:
            raise DomainError("start must be >= 0")
        if self.kind == "product_lift":
            flat = self.base.sample(trials * self.n, seed, start * self.n)
            return flat.reshape(trials, self.n, -1).transpose(0, 2, 1)
        budget = self.draw_budget()  # raises DomainError for an unknown kind
        assign = _SAMPLERS[self.kind]
        rng = derived_rng(seed)
        # One Philox block holds four uniforms: skip whole blocks, then the
        # words of the block the first draw starts in.
        word = start * budget
        rng.bit_generator.advance(word // 4)
        rng.bit_generator.random_raw(word % 4)
        out = np.empty((trials, self.n_marginals), dtype=np.int64)
        for lo in range(0, trials, _DRAW_CHUNK):
            hi = min(lo + _DRAW_CHUNK, trials)
            out[lo:hi] = assign(self.marginals, rng.random((hi - lo, budget)))
        return out


def _universe(marginals) -> list[int]:
    atoms: set[int] = set()
    for m in marginals:
        support, _ = m.support()
        atoms.update(support)
    return sorted(atoms)


def _sample_maximal_pair(marginals, u: np.ndarray) -> np.ndarray:
    p, q = marginals
    atoms = _universe(marginals)
    pw = np.array([p.prob(a) for a in atoms])
    qw = np.array([q.prob(a) for a in atoms])
    common = np.minimum(pw, qw)
    mass = float(common.sum())
    tvd = 1.0 - mass
    common_w = common / mass if mass > 0.0 else common
    if tvd > 1e-15:
        return _kernels.pair_assignments(u, atoms, common_w, (pw - common) / tvd, (qw - common) / tvd, mass)
    # Equal up to rounding: every draw agrees, so the residuals are never read.
    return _kernels.pair_assignments(u, atoms, common_w, np.zeros_like(pw), np.zeros_like(qw), 1.0)


def _sample_shared_uniform(marginals, u: np.ndarray) -> np.ndarray:
    ps = np.array([m.prob(1) for m in marginals])
    return (u[:, :1] < ps[None, :]).astype(np.int64)


def _sample_races(marginals, u: np.ndarray) -> np.ndarray:
    """The race winners of a chunk; u is overwritten with the clocks."""
    atoms = _universe(marginals)
    probs = np.array([[m.prob(a) for a in atoms] for m in marginals])
    # -log1p(-u), computed in place: no chunk-sized temporary.
    clocks = np.negative(np.log1p(np.negative(u, out=u), out=u), out=u)
    winners = _kernels.races_winners(clocks, probs)
    return np.asarray(atoms, dtype=np.int64)[winners]


# Atoms of a chunk of draws from its (draws, draw_budget) uniforms, per kind.
_SAMPLERS = {
    "maximal_pair": _sample_maximal_pair,
    "shared_uniform": _sample_shared_uniform,
    "races": _sample_races,
}


def maximal_pair(p: DiscreteDistribution, q: DiscreteDistribution) -> CouplingSampler:
    """Maximal coupling of two marginals: P(X != Y) equals tv(p, q) exactly."""
    return CouplingSampler("maximal_pair", (p, q))


def shared_uniform_bernoulli(ps) -> CouplingSampler:
    """Couple Bernoulli(p_i) through one shared uniform: X_i = 1{U < p_i}.

    Pairwise disagreement is exactly |p_i - p_j|.
    """
    ps = [float(p) for p in ps]
    if len(ps) < 2:
        raise DomainError("need at least two marginals")
    if any(not 0.0 <= p <= 1.0 for p in ps):
        raise DegenerateMarginal("Bernoulli parameters must lie in [0, 1]")
    marginals = tuple(DiscreteDistribution.bernoulli(p) for p in ps)
    return CouplingSampler("shared_uniform", marginals)


def exponential_races(marginals) -> CouplingSampler:
    """Race coupling: shared Exp(1) clocks T_x, X_i = argmin_x T_x / p_i(x).

    Marginals are exact; pairwise disagreement satisfies
    P(X_i != X_j) <= 2 tv / (1 + tv), checked statistically in tests.
    """
    marginals = tuple(marginals)
    if len(marginals) < 2:
        raise DomainError("need at least two marginals")
    return CouplingSampler("races", marginals)


def product_lift(base: CouplingSampler, n: int) -> CouplingSampler:
    """n-fold product coupling: n independent base draws per realization.

    Componentwise Hamming distance between X_i and X_j is Binomial(n, delta_ij)
    where delta_ij is the base disagreement probability.
    """
    if base.kind == "product_lift":
        raise DomainError("nested product lifts are not supported")
    if n < 1:
        raise DomainError("n must be >= 1")
    return CouplingSampler("product_lift", base.marginals, base=base, n=n)


def estimate_disagreement(sampler: CouplingSampler, trials: int, seed: int) -> DisagreementMatrix:
    """Monte-Carlo pairwise disagreement matrix for a coupling sampler.

    The draws of sampler.sample(trials, seed) are drawn and counted one chunk
    of _DRAW_CHUNK // n realizations at a time, each through
    sampler.sample(k, seed, start): memory holds one chunk's atoms, however
    many trials are asked for, and the estimates are those of the one-shot
    draw bit for bit (a count over trials is the mean of the 0/1 outcomes).
    """
    if trials < 1:
        raise DomainError("trials must be >= 1")
    N = sampler.n_marginals
    chunk = max(1, _DRAW_CHUNK // sampler.n)
    counts = np.zeros((N, N), dtype=np.int64)
    for start in range(0, trials, chunk):
        # A plain draw is a lift of length 1: components disagree when any coordinate does.
        draws = sampler.sample(min(chunk, trials - start), seed, start).reshape(-1, N, sampler.n)
        for i in range(N):
            for j in range(i + 1, N):
                # One column of the short lift axis at a time: faster than any(axis=1).
                dis = draws[:, i, 0] != draws[:, j, 0]
                for c in range(1, sampler.n):
                    dis |= draws[:, i, c] != draws[:, j, c]
                counts[i, j] += np.count_nonzero(dis)
    est = (counts + counts.T) / trials
    stderr = np.sqrt(est * (1.0 - est) / trials)
    return DisagreementMatrix(estimates=est, stderr=stderr, trials=trials, seed=seed)


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
