"""Private estimators and the finite kernels used by the verifier.

Mean mechanisms add calibrated Laplace or Gaussian noise to a sample mean.
DP-SGML is noisy projected stochastic gradient ascent on a log-likelihood,
with gradient clipping enforcing the Lipschitz constant the privacy
calibration assumes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from . import _kernels
# derived_rng is unused here but stays a module attribute: the benchmark's
# tracer (perfbench/tracing.py) wraps it in this module by name.
from ._rng import derived_rng, trial_rngs  # noqa: F401
from .errors import DomainError, InsufficientBudget, NonFinite
from .verify import FiniteMechanism, _word_distances

__all__ = [
    "Ball",
    "Box",
    "ParametricModel",
    "DPSGMLConfig",
    "project",
    "laplace_mean",
    "gaussian_mean",
    "randomized_response",
    "rr_kernel",
    "rr_sum_kernel",
    "identity_kernel",
    "gaussian_mean_model",
    "dp_sgml_config",
    "dp_sgml",
    "dp_sgml_batch",
    "mle_pga",
    "estimate_xi2",
]

_BATCH_CHUNK = 128


@dataclass(frozen=True)
class Ball:
    """Closed Euclidean ball {x : ||x - center|| <= radius}."""

    center: tuple
    radius: float

    def __post_init__(self):
        if not self.radius > 0.0:
            raise DomainError(f"radius must be positive, got {self.radius!r}")
        center = tuple(float(c) for c in self.center)
        if not all(math.isfinite(c) for c in center):
            raise DomainError("center must be finite")
        object.__setattr__(self, "center", center)

    @property
    def dim(self) -> int:
        return len(self.center)

    @property
    def inradius(self) -> float:
        """Radius of the largest ball inside the space."""
        return self.radius

    def contains(self, point) -> bool:
        p = np.asarray(point, dtype=float)
        return float(np.linalg.norm(p - np.asarray(self.center))) <= self.radius + 1e-12

    def project(self, point) -> np.ndarray:
        """Project each row of a (..., d) array; the input comes back when none lies outside."""
        p = np.asarray(point, dtype=float)
        c = np.asarray(self.center)
        offset = p - c
        dist = np.sqrt(np.sum(offset * offset, axis=-1))
        outside = dist > self.radius
        if not np.any(outside):
            return p
        # A row inside keeps its own bits (c + (p - c) need not be p), so a
        # row's projection does not depend on the other rows.
        shrink = self.radius / np.maximum(dist, self.radius)
        return np.where(outside[..., None], c + offset * shrink[..., None], p)


@dataclass(frozen=True)
class Box:
    """Axis-aligned box with per-coordinate bounds."""

    lo: tuple
    hi: tuple

    def __post_init__(self):
        lo = tuple(float(x) for x in self.lo)
        hi = tuple(float(x) for x in self.hi)
        for name, bound in (("lo", lo), ("hi", hi)):
            if any(math.isnan(x) for x in bound):
                raise DomainError(f"{name} must not contain nan, got {bound!r}")
        if len(lo) != len(hi) or any(a > b for a, b in zip(lo, hi)):
            raise DomainError("box bounds must satisfy lo <= hi coordinatewise")
        object.__setattr__(self, "lo", lo)
        object.__setattr__(self, "hi", hi)

    @property
    def dim(self) -> int:
        return len(self.lo)

    @property
    def inradius(self) -> float:
        """Radius of the largest ball inside the box: half its narrowest side."""
        return min((b - a) / 2.0 for a, b in zip(self.lo, self.hi))

    def contains(self, point) -> bool:
        p = np.asarray(point, dtype=float)
        return bool(np.all(p >= np.asarray(self.lo) - 1e-12) and np.all(p <= np.asarray(self.hi) + 1e-12))

    def project(self, point) -> np.ndarray:
        return np.clip(np.asarray(point, dtype=float), self.lo, self.hi)


def project(space, point) -> np.ndarray:
    """Euclidean projection onto a Ball or Box."""
    return space.project(point)


def _check_unit_data(data: np.ndarray) -> None:
    if data.ndim != 1 or data.shape[0] < 1:
        raise DomainError("data must be a non-empty 1-D array")
    # Written so that nan, which fails every comparison, is rejected too.
    if not (data.min() >= 0.0 and data.max() <= 1.0):
        raise DomainError("data must lie in [0, 1]")


def _check_positive(name: str, value: float) -> None:
    """Require 0 < value < inf; nan fails the check."""
    if not 0.0 < value < math.inf:
        raise DomainError(f"{name} must be positive and finite")


def _laplace_noise(epsilon: float) -> Callable:
    """laplace_mean's noise: noise(n, rng, size=None) draws Laplace(1/(n epsilon))
    (size of them, if given), which makes the mean of n values in [0, 1]
    epsilon-DP."""
    _check_positive("epsilon", epsilon)
    return lambda n, rng, size=None: rng.laplace(0.0, 1.0 / (n * epsilon), size)


def _gaussian_noise(rho: float) -> Callable:
    """gaussian_mean's noise: noise(n, rng, size=None) draws (2/(n sqrt(rho)))
    times a standard normal (size of them, if given), which makes the mean of
    n values in [0, 1] rho-zCDP."""
    _check_positive("rho", rho)
    return lambda n, rng, size=None: (2.0 / (n * math.sqrt(rho))) * rng.standard_normal(size)


def laplace_mean(data, epsilon: float, rng: np.random.Generator, clamp: bool = False) -> float:
    """Sample mean plus Laplace(1/(n epsilon)) noise; epsilon-DP on [0,1] data.

    The output is not clamped to [0,1] unless ``clamp`` is set; clamping only
    reduces risk.
    """
    data = np.asarray(data, dtype=float)
    _check_unit_data(data)
    out = float(data.mean() + _laplace_noise(epsilon)(data.shape[0], rng))
    return min(1.0, max(0.0, out)) if clamp else out


def gaussian_mean(data, rho: float, rng: np.random.Generator, clamp: bool = False) -> float:
    """Sample mean plus (2/(n sqrt(rho))) standard-normal noise; rho-zCDP."""
    data = np.asarray(data, dtype=float)
    _check_unit_data(data)
    out = float(data.mean() + _gaussian_noise(rho)(data.shape[0], rng))
    return min(1.0, max(0.0, out)) if clamp else out


def _rr_keep_flip(epsilon: float) -> tuple[float, float]:
    """keep = 1/(1 + e^-eps) and flip = e^-eps/(1 + e^-eps), the chances
    randomized response keeps and flips a bit.  Neither is one minus the
    other, and no eps overflows.  keep / flip is e^eps to a few ulp while flip
    is normal (eps below 708.4); a subnormal flip is rounded, and ln(keep /
    flip) - eps is +2.96e-12 at eps = 720, -1.84e-7 at 730 and -0.56 at 745."""
    tail = math.exp(-epsilon)
    return 1.0 / (1.0 + tail), tail / (1.0 + tail)


def randomized_response(bit: int, epsilon: float, rng: np.random.Generator) -> int:
    """Return the true bit with probability e^eps / (1 + e^eps)."""
    if bit not in (0, 1):
        raise DomainError("bit must be 0 or 1")
    _check_positive("epsilon", epsilon)
    keep, _ = _rr_keep_flip(epsilon)
    return bit if rng.random() < keep else 1 - bit


def rr_kernel(epsilon: float, n: int = 1) -> FiniteMechanism:
    """Product randomized-response kernel on n bits; epsilon-DP.

    Outputs are bit vectors encoded as integers, first bit most significant.
    Entry (x, o) is keep^(n - h) flip^h, with h the Hamming distance of x and o.
    For eps in (709.78, 745.13] flip is subnormal and keep / flip overflows,
    so the verifiers take ln keep - ln flip there, which is finite but off eps
    by the rounding of flip (see _rr_keep_flip): at eps = 720 it exceeds eps
    by more than 1e-12, and pure eps-DP is refuted.  Above about 745.13 flip
    underflows to 0: the stored kernel is then deterministic, and the privacy
    and KL checks refute it.
    """
    _check_positive("epsilon", epsilon)
    if n < 1:
        raise DomainError("n must be >= 1")
    keep, flip = _rr_keep_flip(epsilon)
    h = _word_distances(2, n)
    kernel = keep ** (n - h) * flip**h
    return FiniteMechanism(alphabet_size=2, n=n, outputs=tuple(range(2**n)), kernel=kernel)


def rr_sum_kernel(epsilon: float, n: int = 2) -> FiniteMechanism:
    """Sum of per-bit randomized responses; epsilon-DP with n + 1 outputs:
    rr_kernel's columns summed by the weight of their output word."""
    full = rr_kernel(epsilon, n)
    weight = _word_distances(2, n)[0]
    kernel = full.kernel @ (weight[:, None] == np.arange(n + 1))
    return FiniteMechanism(alphabet_size=2, n=n, outputs=tuple(range(n + 1)), kernel=kernel)


def identity_kernel(alphabet_size: int = 2, n: int = 1) -> FiniteMechanism:
    """Deterministic identity mechanism; not differentially private."""
    size = alphabet_size**n
    return FiniteMechanism(
        alphabet_size=alphabet_size,
        n=n,
        outputs=tuple(range(size)),
        kernel=np.eye(size),
    )


@dataclass(frozen=True)
class ParametricModel:
    """A parametric family with log-likelihood gradients and curvature bounds.

    sample(theta, n, rng) returns an (n, dim) data array; loglik(X, theta)
    is batched over rows of X.  grad(X, theta) broadcasts over leading axes:
    X of shape (..., m, dim) and theta of shape (..., dim) give per-sample
    gradients of shape (..., m, dim), so DP-SGML runs every trial of a batch
    in one call.  space.project maps (..., dim) to (..., dim) row by row.
    lam and beta (finite) bound the strong concavity and smoothness of the
    log-likelihood, L is the gradient clip norm, gamma the coefficient of
    the quadratic KL upper bound.  mle(X, space) is the exact maximizer of
    the summed log-likelihood over space, broadcast like grad: X of shape
    (..., n, dim) gives (..., dim).  It takes the space as an argument so a
    model whose space is swapped by dataclasses.replace stays exact.
    """

    dim: int
    space: object
    sample: Callable = field(compare=False)
    loglik: Callable = field(compare=False)
    grad: Callable = field(compare=False)
    mle: Callable = field(compare=False)
    lam: float = 1.0
    beta: float = 1.0
    L: float = 1.0
    gamma: float = 0.5

    def __post_init__(self):
        if self.dim < 1:
            raise DomainError("dim must be >= 1")
        if not (math.isfinite(self.lam) and math.isfinite(self.beta)):
            raise DomainError("lam and beta must be finite")
        if not 0.0 < self.lam <= self.beta:
            raise DomainError("need 0 < lam <= beta")
        if self.L <= 0.0 or self.gamma <= 0.0:
            raise DomainError("L and gamma must be positive")
        if not (math.isfinite(self.L) and math.isfinite(self.gamma)):
            raise DomainError("L and gamma must be finite")


def gaussian_mean_model(
    d: int,
    sigma: float = 1.0,
    radius: float = 1.0,
    clip_norm: float = 1.0,
    smoothness: Optional[float] = None,
) -> ParametricModel:
    """Isotropic Gaussian location family on a centered ball of given radius.

    The log-likelihood is (1/sigma^2)-strongly concave and smooth;
    ``smoothness`` may declare a looser beta.  gamma = 1/(2 sigma^2) makes
    the quadratic KL bound exact: KL = gamma * ||theta' - theta||^2.
    """
    if not 0.0 < sigma < math.inf:
        raise DomainError("sigma must be positive and finite")
    curvature = 1.0 / (sigma * sigma)
    beta = curvature if smoothness is None else float(smoothness)
    if beta < curvature - 1e-12:
        raise DomainError("declared smoothness below the true curvature")
    inv_var = curvature

    def sample(theta, n, rng):
        theta = np.asarray(theta, dtype=float)
        return theta[None, :] + sigma * rng.standard_normal((n, d))

    def loglik(X, theta):
        X = np.atleast_2d(np.asarray(X, dtype=float))
        gap = X - np.asarray(theta, dtype=float)[None, :]
        return -0.5 * inv_var * np.sum(gap * gap, axis=1)

    def grad(X, theta):
        g = np.asarray(X, dtype=float) - np.asarray(theta, dtype=float)[..., None, :]
        g *= inv_var
        return g

    def mle(X, space):
        # Exact on a Ball or a Box: the log-likelihood is an isotropic quadratic.
        return space.project(np.asarray(X, dtype=float).mean(axis=-2))

    return ParametricModel(
        dim=d,
        space=Ball(center=(0.0,) * d, radius=radius),
        sample=sample,
        loglik=loglik,
        grad=grad,
        mle=mle,
        lam=curvature,
        beta=beta,
        L=float(clip_norm),
        gamma=curvature / 2.0,
    )


@dataclass(frozen=True)
class DPSGMLConfig:
    """Run parameters for noisy projected stochastic gradient ascent."""

    sigma2_noise: float
    K: int
    eta: float
    m: Optional[int]
    rho: float
    clip: float

    def __post_init__(self):
        if not 0.0 <= self.sigma2_noise < math.inf:
            raise DomainError("sigma2_noise must be non-negative and finite")
        for name in ("eta", "rho", "clip"):
            _check_positive(name, getattr(self, name))
        if self.K < 1:
            raise DomainError("K must be >= 1")
        if self.m is not None and self.m < 1:
            raise DomainError("batch size must be >= 1")


def dp_sgml_config(n: int, d: int, rho: float, model: ParametricModel, m: int) -> DPSGMLConfig:
    """Privacy calibration: sigma^2 = 4L^2/(rho lam n^2), eta = 1/(2 beta),
    K = ceil((2 beta / lam) ln(rho n^2 / d)).
    """
    if n < 1 or d < 1:
        raise DomainError("need n >= 1, d >= 1")
    _check_positive("rho", rho)
    if rho * n * n <= d * math.e:
        raise InsufficientBudget(f"rho n^2 = {rho * n * n:g} must exceed d e = {d * math.e:g}")
    sigma2 = 4.0 * model.L**2 / (rho * model.lam * n * n)
    eta = 1.0 / (2.0 * model.beta)
    K = int(math.ceil((2.0 * model.beta / model.lam) * math.log(rho * n * n / d)))
    return DPSGMLConfig(sigma2_noise=sigma2, K=K, eta=eta, m=m, rho=rho, clip=model.L)


def _run_trials(data: np.ndarray, model: ParametricModel, cfg: DPSGMLConfig, rngs) -> np.ndarray:
    """DP-SGML on (trials, n, dim) data; trial t draws from the t-th rng its
    initial normals, then its batch indices (when m is set), then its step
    noise."""
    data = np.asarray(data, dtype=float)
    if data.ndim != 3 or data.shape[2] != model.dim:
        raise DomainError(f"each trial's data must have shape (n, {model.dim})")
    trials, n, d = data.shape
    scale0 = math.sqrt(2.0 * cfg.sigma2_noise / model.lam)
    # Indices are drawn as int32 whenever n <= 2**31 - 1, which gives the
    # int64 draw's values and leaves the stream where it does, but stored in
    # the narrowest type that holds n - 1 (uint8 up to n = 256, uint16 up to
    # 65 536): the store is a cell's largest buffer.  Past uint32 it is int64,
    # so that the kernel's int64 row offsets never promote it to float.
    draw_dtype = np.int32 if n <= np.iinfo(np.int32).max else np.int64
    idx_dtype = np.min_scalar_type(n - 1) if n <= 2**32 else np.dtype(np.int64)
    out = np.empty((trials, d))
    # One iterator across all chunks: chunk c continues at trial c * _BATCH_CHUNK.
    for start in range(0, trials, _BATCH_CHUNK):
        size = min(_BATCH_CHUNK, trials - start)
        theta0 = np.empty((size, d))
        if cfg.m is None:
            batch_idx = np.broadcast_to(np.arange(n, dtype=idx_dtype), (size, cfg.K, n))
        else:
            batch_idx = np.empty((size, cfg.K, cfg.m), dtype=idx_dtype)
        step_noise = np.empty((size, cfg.K, d))
        for i, r in zip(range(size), rngs):
            theta0[i] = r.standard_normal(d)
            if cfg.m is not None:
                batch_idx[i] = r.integers(0, n, size=(cfg.K, cfg.m), dtype=draw_dtype)
            step_noise[i] = r.standard_normal((cfg.K, d))
        out[start:start + size] = _kernels.dpsgml_trials(
            data[start:start + size],
            model.space.project(scale0 * theta0),
            batch_idx,
            step_noise,
            model.grad,
            model.space.project,
            cfg.clip,
            cfg.eta,
            math.sqrt(cfg.sigma2_noise),
        )
    if not np.all(np.isfinite(out)):
        raise NonFinite("DP-SGML output is non-finite")
    return out


def dp_sgml(data, model: ParametricModel, cfg: DPSGMLConfig, rng: np.random.Generator) -> np.ndarray:
    """One run of DP-SGML on (n, dim) data; returns theta_K inside the space.

    This is the one-trial case of dp_sgml_batch: randomness is consumed in a
    fixed order (initial normals, all batch indices, all step noise), and a
    non-finite gradient or output raises NonFinite.
    """
    data = np.asarray(data, dtype=float)
    if data.ndim == 1:
        data = data[:, None]
    return _run_trials(data[None], model, cfg, iter((rng,)))[0]


def dp_sgml_batch(
    data: np.ndarray,
    model: ParametricModel,
    cfg: DPSGMLConfig,
    seed: int,
    *tags: int,
) -> np.ndarray:
    """Run DP-SGML on (trials, n, dim) data, trial t using derived stream t.

    Row t equals dp_sgml(data[t], ..., derived_rng(seed, *tags, t)) bit for
    bit, for any model, space and batch size: both run the same trial-batched
    kernel, and trial_rngs rewinds one Generator to each trial's counter.
    One exception: at d = 1 with m = None and n >= 65 536, the kernel's batch
    mean sums a one-trial batch in another order than a batch of several, so
    the two differ in the last bits.  The rows do not depend on how many
    worker processes the kernel runs.
    """
    return _run_trials(data, model, cfg, trial_rngs(seed, tags, len(data)))


def mle_pga(data, model: ParametricModel) -> np.ndarray:
    """Maximum-likelihood estimate over the model's parameter space.

    Returns model.mle, exact for every model, for (n, dim) data or a
    (..., n, dim) stack of datasets, one row each.  The name outlives the
    projected gradient ascent this replaced: callers and the benchmark's
    tracer use it.
    """
    data = np.asarray(data, dtype=float)
    if data.ndim == 1:
        data = data[:, None]
    theta = model.mle(data, model.space)
    if not (np.all(np.isfinite(data)) and np.all(np.isfinite(theta))):
        raise NonFinite("data or maximum-likelihood estimate is non-finite")
    return theta


def estimate_xi2(data, model: ParametricModel, theta_ml, m: int) -> float:
    """E||clipped batch-mean gradient at theta_ml||^2, exactly, over batches
    of m records drawn with replacement.

    With c_i the clipped per-record gradients and cbar their mean, a batch
    mean has mean cbar and covariance (mean_i c_i c_i^T - cbar cbar^T) / m,
    so the value is ||cbar||^2 + (mean_i ||c_i||^2 - ||cbar||^2) / m.  It
    draws no random number; a non-finite gradient raises NonFinite.
    """
    data = np.asarray(data, dtype=float)
    if data.ndim == 1:
        data = data[:, None]
    if m < 1:
        raise DomainError("m must be >= 1")
    # Each record is its own batch of one, so the clip has one implementation.
    grads = model.grad(data[:, None, :], np.asarray(theta_ml, dtype=float))
    clipped = _kernels.clipped_mean(grads, model.L)
    if not np.all(np.isfinite(clipped)):
        raise NonFinite("model gradient is non-finite")
    center = clipped.mean(axis=0)
    center_sq = float(center @ center)
    return center_sq + (float(np.mean(np.sum(clipped * clipped, axis=1))) - center_sq) / m
