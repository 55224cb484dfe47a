"""Packings of parameter space for multi-hypothesis lower bounds.

A packing is a finite set of parameters pairwise separated by at least 2 * omega.
Two-point packings cover scalar problems; Varshamov-Gilbert binary codes scaled
into a Euclidean ball cover high-dimensional ones.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from ._rng import derived_rng
from .errors import BudgetExhausted, DomainError, OutOfSpace

__all__ = [
    "BinaryCode",
    "Packing",
    "varshamov_gilbert",
    "scale_code",
    "two_point",
]

_GREEDY_BUDGET = 1_000_000
_GREEDY_RESTARTS = 10
_BLOCK = 1024
# Candidates scored per product, and kept words per product: a candidate chunk
# against a kept chunk stays under a few MB of float64 at any target.
_CANDIDATE_CHUNK = 64
_KEPT_CHUNK = 2048
# Rows per block of BinaryCode's distance check.
_CHECK_BLOCK = 128


def _product_dtype(d: int):
    """float32 when every Hamming product of words of length d is exact in
    it, an integer below 2**24; float64 above that."""
    return np.float32 if d < 2**24 else np.float64


def _hamming(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """(len(a), len(b)) Hamming distances between the rows of 0/1 arrays,
    as float32 below 2**24 bits a row and float64 from there on.

    |x - y| = x + y - 2xy for bits, so one product gives them all.  Every
    partial sum and value is an integer of magnitude at most the word
    length, but for the doubled product -2 a.b, which is even and at most
    twice it, so all are exact; float32 halves the product's work.
    """
    dtype = _product_dtype(a.shape[1])
    a = np.asarray(a, dtype=dtype)
    b = np.asarray(b, dtype=dtype)
    dist = a @ b.T
    dist *= -2.0
    dist += a.sum(axis=1)[:, None]
    dist += b.sum(axis=1)[None, :]
    return dist


@dataclass(frozen=True)
class BinaryCode:
    """N binary words of length d with pairwise Hamming distance >= min_distance."""

    d: int
    zeta: float
    min_distance: int
    words: np.ndarray = field(compare=False)

    def __post_init__(self):
        words = np.ascontiguousarray(np.asarray(self.words, dtype=np.int8))
        if words.ndim != 2 or words.shape[1] != self.d or words.shape[0] < 1:
            raise DomainError("words must be a non-empty (N, d) array")
        if not np.all((words == 0) | (words == 1)):
            raise DomainError("words must be binary")
        object.__setattr__(self, "words", words)
        if self.size > 1 and self.realized_min_distance() < self.min_distance:
            raise DomainError("pairwise Hamming distance below min_distance")

    @property
    def size(self) -> int:
        return int(self.words.shape[0])

    def realized_min_distance(self) -> int:
        """Smallest pairwise Hamming distance; min_distance when only one word."""
        if self.size < 2:
            return self.min_distance
        # Converted once.  Each block of rows is checked against the words at
        # and after its first row: one triangle of the distance matrix, a
        # block at a time.
        words = self.words.astype(_product_dtype(self.d))
        best = self.d
        for start in range(0, self.size - 1, _CHECK_BLOCK):
            dist = _hamming(words[start:start + _CHECK_BLOCK], words[start:])
            rows = np.arange(dist.shape[0])
            dist[rows, rows] = self.d + 1
            best = min(best, int(dist.min()))
        return best


@dataclass(frozen=True)
class Packing:
    """Parameters pairwise separated by >= 2 * omega under the stated metric."""

    points: tuple
    omega: float
    metric: str

    def __post_init__(self):
        if self.metric not in ("abs_diff", "euclidean"):
            raise DomainError(f"unknown metric {self.metric!r}")
        if len(self.points) < 1:
            raise DomainError("packing needs at least one point")
        if self.omega < 0.0:
            raise DomainError("omega must be non-negative")

    @property
    def size(self) -> int:
        return len(self.points)

    def distance(self, i: int, j: int) -> float:
        a, b = self.points[i], self.points[j]
        if self.metric == "abs_diff":
            return abs(float(a) - float(b))
        return float(np.linalg.norm(np.asarray(a, dtype=float) - np.asarray(b, dtype=float)))

    def min_pairwise_distance(self) -> float:
        best = math.inf
        for i in range(self.size):
            for j in range(i + 1, self.size):
                best = min(best, self.distance(i, j))
        return best

    def validate(self) -> None:
        """Check every pair is separated by at least 2 * omega."""
        if self.size < 2:
            return
        if self.min_pairwise_distance() < 2.0 * self.omega - 1e-12:
            raise DomainError("packing violates pairwise distance >= 2 * omega")


def _target_size(d: int, zeta: float) -> int | float:
    exponent = zeta * zeta * d / 2.0
    # Past e^700 the target is beyond any budget, and math.exp would overflow.
    return math.ceil(math.exp(exponent)) if exponent < 700.0 else math.inf


def _greedy_restart(rng, target: int, required: int, d: int):
    """Words kept by one restart: candidates are drawn in blocks of 1024 rows
    and kept in order when at Hamming distance >= required from every word
    kept before them; stops at target words or after exactly _GREEDY_BUDGET
    candidates.  Returns (target, d) int8 words, or None."""
    kept = np.empty((target, d), dtype=np.int8)
    n_kept = 0
    drawn = 0
    while drawn < _GREEDY_BUDGET:
        block = rng.integers(0, 2, size=(_BLOCK, d), dtype=np.int8)[: _GREEDY_BUDGET - drawn]
        drawn += block.shape[0]
        for start in range(0, block.shape[0], _CANDIDATE_CHUNK):
            chunk = block[start:start + _CANDIDATE_CHUNK]
            # A candidate stays free while no word kept before it is closer
            # than required: first the words kept before the chunk, then each
            # row of the chunk as it is kept.
            free = np.ones(chunk.shape[0], dtype=bool)
            for k in range(0, n_kept, _KEPT_CHUNK):
                free &= _hamming(chunk, kept[k:min(n_kept, k + _KEPT_CHUNK)]).min(axis=1) >= required
            close = _hamming(chunk, chunk) < required
            for i in np.flatnonzero(free):
                if not free[i]:
                    continue
                kept[n_kept] = chunk[i]
                n_kept += 1
                if n_kept == target:
                    return kept
                free &= ~close[i]
    return None


def varshamov_gilbert(d: int, zeta: float, seed: int) -> BinaryCode:
    """Randomized greedy binary code with N >= ceil(e^{zeta^2 d / 2}) words
    at pairwise Hamming distance >= ceil((1/2 - zeta) d).

    Deterministic given (d, zeta, seed).  Each of up to 10 restarts draws at
    most 10^6 candidate words before giving up; a target above 10^6 words
    raises at once.
    """
    if d < 1:
        raise DomainError("d must be >= 1")
    if not 0.0 < zeta < 0.5:
        raise DomainError("zeta must lie in (0, 1/2)")
    target = _target_size(d, zeta)
    required = int(math.ceil((0.5 - zeta) * d))
    if target <= _GREEDY_BUDGET:
        for restart in range(_GREEDY_RESTARTS):
            words = _greedy_restart(derived_rng(seed, restart), target, required, d)
            if words is not None:
                return BinaryCode(d=d, zeta=zeta, min_distance=required, words=words)
    raise BudgetExhausted(
        f"greedy failed to reach {target} words at distance {required} "
        f"within {_GREEDY_RESTARTS} restarts of {_GREEDY_BUDGET} draws"
    )


def scale_code(code: BinaryCode, alpha: float, center, space=None) -> Packing:
    """Embed a binary code as points center + alpha * w_i.

    omega = alpha * sqrt(realized min distance) / 2, since squared Euclidean
    distance between embedded words equals alpha^2 times Hamming distance.
    When a space with a contains() method is supplied, every point must lie
    inside it.
    """
    if alpha < 0.0:
        raise DomainError("alpha must be non-negative")
    center = np.asarray(center, dtype=float)
    if center.shape != (code.d,):
        raise DomainError(f"center must have shape ({code.d},)")
    points = tuple(center + alpha * w for w in code.words.astype(float))
    if space is not None:
        for i, p in enumerate(points):
            if not space.contains(p):
                raise OutOfSpace(f"scaled word {i} leaves the parameter space")
    omega = alpha * math.sqrt(code.realized_min_distance()) / 2.0
    return Packing(points=points, omega=omega, metric="euclidean")


def two_point(theta1, theta2, metric: str = "abs_diff") -> Packing:
    """Two-hypothesis packing with omega equal to half the distance."""
    packing = Packing(points=(theta1, theta2), omega=0.0, metric=metric)
    dist = packing.distance(0, 1)
    if dist <= 0.0:
        raise DomainError("two_point requires distinct parameters")
    return Packing(points=(theta1, theta2), omega=dist / 2.0, metric=metric)
