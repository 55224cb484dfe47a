"""Statistical divergences on finite distributions and closed-form families.

All divergences use the natural logarithm.  Infinite values (absolute
continuity failures) are returned as ``math.inf`` and propagate through
downstream bounds; they are never raised as errors.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError, LengthMismatch, UnsupportedPair

__all__ = [
    "DiscreteDistribution",
    "Bernoulli",
    "IsotropicGaussian",
    "UniformSupport",
    "tv",
    "kl",
    "renyi",
    "closed_form",
    "pinsker_tv_upper",
    "tensorize_kl",
]

_WEIGHT_TOL = 1e-9


@dataclass(frozen=True)
class DiscreteDistribution:
    """A probability distribution on a finite set of integer-labelled atoms.

    Weights must be non-negative and sum to 1 within 1e-9; they are
    renormalized exactly on construction.  Atom labels must be distinct.
    """

    atoms: tuple[int, ...]
    weights: np.ndarray = field(compare=False)

    def __post_init__(self) -> None:
        atoms = tuple(int(a) for a in self.atoms)
        w = np.asarray(self.weights, dtype=np.float64)
        if w.ndim != 1 or len(atoms) != w.shape[0]:
            raise LengthMismatch("atoms and weights must be 1-d and aligned")
        if len(set(atoms)) != len(atoms):
            raise DomainError("atom labels must be distinct")
        if len(atoms) == 0:
            raise DomainError("a distribution needs at least one atom")
        if np.any(np.isnan(w)):
            raise DomainError("weights must not be nan")
        if np.any(w < -1e-15):
            raise DomainError("weights must be non-negative")
        w = np.clip(w, 0.0, None)
        total = float(w.sum())
        if abs(total - 1.0) > _WEIGHT_TOL:
            raise DomainError(f"weights sum to {total}, not 1")
        object.__setattr__(self, "atoms", atoms)
        object.__setattr__(self, "weights", w / total)

    @classmethod
    def from_weights(cls, weights) -> "DiscreteDistribution":
        """Distribution on atoms 0..k-1 with the given weights."""
        w = np.asarray(weights, dtype=np.float64)
        return cls(tuple(range(w.shape[0])), w)

    @classmethod
    def bernoulli(cls, p: float) -> "DiscreteDistribution":
        if not 0.0 <= p <= 1.0:
            raise DomainError("Bernoulli parameter must lie in [0, 1]")
        return cls((0, 1), np.array([1.0 - p, p]))

    def prob(self, atom: int) -> float:
        try:
            return float(self.weights[self.atoms.index(atom)])
        except ValueError:
            return 0.0

    def support(self) -> tuple[tuple[int, ...], np.ndarray]:
        """Atoms with strictly positive weight, and their weights."""
        keep = self.weights > 0.0
        return (
            tuple(a for a, k in zip(self.atoms, keep) if k),
            self.weights[keep],
        )


def _aligned(p: DiscreteDistribution, q: DiscreteDistribution):
    """Weight vectors of p and q on the sorted union of their atoms."""
    atoms = sorted(set(p.atoms) | set(q.atoms))
    pw = np.array([p.prob(a) for a in atoms])
    qw = np.array([q.prob(a) for a in atoms])
    return np.asarray(atoms), pw, qw


def tv(p: DiscreteDistribution, q: DiscreteDistribution) -> float:
    """Total variation distance, (1/2) sum_x |p(x) - q(x)|, in [0, 1]."""
    _, pw, qw = _aligned(p, q)
    return float(0.5 * np.abs(pw - qw).sum())


def kl(p: DiscreteDistribution, q: DiscreteDistribution) -> float:
    """KL(p || q) = sum_x p(x) ln(p(x)/q(x)).

    Terms with p(x) = 0 contribute 0; any atom with p(x) > 0 = q(x) makes
    the divergence +inf.
    """
    _, pw, qw = _aligned(p, q)
    return float(_kl_weights(pw, _privacy_loss(pw, qw)))


def renyi(alpha: float, p: DiscreteDistribution, q: DiscreteDistribution) -> float:
    """Renyi divergence D_alpha(p || q) for alpha > 1.

    D_alpha = (1/(alpha-1)) ln sum_x p(x)^alpha q(x)^(1-alpha), with the
    convention that any atom with p(x) > 0 = q(x) gives +inf.  The sum is
    taken in log space (see _cgf), so it neither overflows nor underflows
    at large alpha.
    """
    if not alpha > 1.0:
        raise DomainError("renyi is defined here for alpha > 1")
    _, pw, qw = _aligned(p, q)
    return _renyi_weights(pw, qw, alpha)


def _privacy_loss(p: np.ndarray, q: np.ndarray) -> np.ndarray:
    """The privacy loss L = ln(p / q), elementwise on arrays of any shape: the
    bits of ln(p / q) wherever that ratio is finite, ln p - ln q where it
    overflows (q subnormal), +inf where p > 0 = q and -inf where p = 0.  It
    is the only code that handles zero, subnormal or overflowing weights."""
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        ratio = p / q
        loss = np.log(ratio)
        over = np.isinf(ratio)
        loss[over] = np.log(p[over]) - np.log(q[over])
    loss[p == 0.0] = -np.inf
    return loss


def _kl_weights(pw: np.ndarray, loss: np.ndarray) -> np.ndarray:
    """KL = sum_x p(x) L(x) over the atoms p charges (L > -inf), along the last
    axis of (..., k) weight rows and their privacy loss (see _privacy_loss)."""
    terms = np.multiply(pw, loss, out=np.zeros(loss.shape), where=loss > -np.inf)
    return np.sum(terms, axis=-1)


def _cgf(pw: np.ndarray, loss: np.ndarray, s: float) -> float:
    """K(s) = ln sum_x p(x) e^(s L(x)) over the atoms p charges, for one weight
    vector and its privacy loss L = ln(p/q) (see _privacy_loss).

    K is the cumulant generating function of the privacy loss under p, so it
    is convex with K(0) = 0, and K(alpha - 1) = (alpha - 1) D_alpha.
    It is summed in log space over x = ln p + s L, so no power of p or q is
    formed.  Where some x exceeds 0 it is the log-sum-exp shifted by max x.
    Otherwise every p e^(s L) is at most 1 and K = log1p(sum_x p (e^(s L) - 1)),
    each term taken as p expm1(s L) or, where s L > 0, as e^x (1 - e^(-s L)):
    then no term overflows, and near s = 0 the rounding of K shrinks with s.
    An infinite L (p(x) > 0 = q(x)) gives +inf.
    """
    live = loss > -np.inf
    p = pw[live]
    sl = s * loss[live]
    x = np.log(p) + sl
    shift = float(x.max())
    if shift == math.inf:
        return math.inf
    if shift > 0.0:
        return shift + math.log(float(np.sum(np.exp(x - shift))))
    terms = p * np.expm1(np.minimum(sl, 0.0)) - np.exp(x) * np.expm1(-np.maximum(sl, 0.0))
    return math.log1p(float(np.sum(terms)))


def _renyi_weights(pw: np.ndarray, qw: np.ndarray, alpha: float) -> float:
    """D_alpha = K(alpha - 1) / (alpha - 1) between two aligned weight vectors
    (see renyi and _cgf)."""
    return _cgf(pw, _privacy_loss(pw, qw), alpha - 1.0) / (alpha - 1.0)


@dataclass(frozen=True)
class Bernoulli:
    """Bernoulli(theta) on {0, 1}."""

    theta: float

    def __post_init__(self) -> None:
        if not 0.0 <= self.theta <= 1.0:
            raise DomainError("Bernoulli parameter must lie in [0, 1]")

    def discrete(self) -> DiscreteDistribution:
        return DiscreteDistribution.bernoulli(self.theta)


@dataclass(frozen=True)
class IsotropicGaussian:
    """N(mean, sigma^2 I_d)."""

    mean: tuple[float, ...]
    sigma: float

    def __post_init__(self) -> None:
        if not self.sigma > 0.0:
            raise DomainError("sigma must be positive")
        object.__setattr__(self, "mean", tuple(float(m) for m in self.mean))


@dataclass(frozen=True)
class UniformSupport:
    """Uniform[0, theta] with theta > 0."""

    theta: float

    def __post_init__(self) -> None:
        if not self.theta > 0.0:
            raise DomainError("theta must be positive")


def closed_form(a, b, divergence: str = "kl", n: int = 1) -> float:
    """Closed-form divergence between two members of the same family.

    Supported pairs:

    * ``Bernoulli``/``kl``: theta1 ln(theta1/theta2) + (1-theta1) ln((1-theta1)/(1-theta2)),
      times n (products tensorize KL exactly).
    * ``Bernoulli``/``tv``: |theta1 - theta2| (single sample only).
    * ``IsotropicGaussian``/``kl``: ||m2 - m1||^2 / (2 sigma^2), times n; requires equal sigma.
    * ``UniformSupport``/``tv``: 1 - (min(theta1, theta2)/max(theta1, theta2))^n,
      the exact n-fold product total variation.

    Anything else raises UnsupportedPair.
    """
    if n < 1:
        raise DomainError("n must be >= 1")
    if type(a) is not type(b):
        raise UnsupportedPair(f"mixed families {type(a).__name__}/{type(b).__name__}")
    if divergence not in ("kl", "tv"):
        raise DomainError(f"unknown divergence kind {divergence!r}")

    if isinstance(a, Bernoulli):
        if divergence == "tv":
            if n != 1:
                raise UnsupportedPair("product Bernoulli TV has no closed form here")
            return abs(a.theta - b.theta)
        return tensorize_kl(kl(a.discrete(), b.discrete()), n)

    if isinstance(a, IsotropicGaussian):
        if divergence != "kl":
            raise UnsupportedPair("Gaussian TV has no closed form here")
        if len(a.mean) != len(b.mean):
            raise LengthMismatch("Gaussian means must have equal dimension")
        if a.sigma != b.sigma:
            raise UnsupportedPair("Gaussian KL needs equal scales")
        d2 = float(np.sum((np.asarray(b.mean) - np.asarray(a.mean)) ** 2))
        return tensorize_kl(d2 / (2.0 * a.sigma**2), n)

    if isinstance(a, UniformSupport):
        if divergence != "tv":
            raise UnsupportedPair("Uniform KL is not provided")
        lo, hi = min(a.theta, b.theta), max(a.theta, b.theta)
        return 1.0 - (lo / hi) ** n

    raise UnsupportedPair(f"unsupported family {type(a).__name__}")


def pinsker_tv_upper(kl_value: float) -> float:
    """Pinsker bound: tv <= min(1, sqrt(KL/2))."""
    if kl_value < 0.0:
        raise DomainError("KL must be non-negative")
    if math.isinf(kl_value):
        return 1.0
    return min(1.0, math.sqrt(kl_value / 2.0))


def tensorize_kl(kl_value: float, n: int) -> float:
    """KL between n-fold products of the same pair: exactly n * KL."""
    if n < 1:
        raise DomainError("n must be >= 1")
    if kl_value < 0.0:
        raise DomainError("KL must be non-negative")
    return n * kl_value
