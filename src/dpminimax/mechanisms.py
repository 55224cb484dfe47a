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
from .verify import FiniteMechanism

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
        if self.radius <= 0.0:
            raise DomainError("radius must be positive")
        object.__setattr__(self, "center", tuple(float(c) for c in self.center))

    @property
    def dim(self) -> int:
        return len(self.center)

    def contains(self, point) -> bool:
        p = np.asarray(point, dtype=float)
        return float(np.linalg.norm(p - np.asarray(self.center))) <= self.radius + 1e-12

    def project(self, point) -> np.ndarray:
        p = np.asarray(point, dtype=float)
        c = np.asarray(self.center)
        gap = p - c
        norm = float(np.linalg.norm(gap))
        if norm <= self.radius:
            return p
        return c + gap * (self.radius / norm)


@dataclass(frozen=True)
class Box:
    """Axis-aligned box with per-coordinate bounds."""

    lo: tuple
    hi: tuple

    def __post_init__(self):
        lo = tuple(float(x) for x in self.lo)
        hi = tuple(float(x) for x in self.hi)
        if len(lo) != len(hi) or any(a > b for a, b in zip(lo, hi)):
            raise DomainError("box bounds must satisfy lo <= hi coordinatewise")
        object.__setattr__(self, "lo", lo)
        object.__setattr__(self, "hi", hi)

    @property
    def dim(self) -> int:
        return len(self.lo)

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
    if np.any(data < 0.0) or np.any(data > 1.0):
        raise DomainError("data must lie in [0, 1]")


def laplace_mean(data, epsilon: float, rng: np.random.Generator, clamp: bool = False) -> float:
    """Sample mean plus Laplace(1/(n epsilon)) noise; epsilon-DP on [0,1] data.

    The output is not clamped to [0,1] unless ``clamp`` is set; clamping only
    reduces risk.
    """
    data = np.asarray(data, dtype=float)
    _check_unit_data(data)
    if epsilon <= 0.0:
        raise DomainError("epsilon must be positive")
    n = data.shape[0]
    out = float(data.mean() + rng.laplace(0.0, 1.0 / (n * epsilon)))
    return min(1.0, max(0.0, out)) if clamp else out


def gaussian_mean(data, rho: float, rng: np.random.Generator, clamp: bool = False) -> float:
    """Sample mean plus (2/(n sqrt(rho))) standard-normal noise; rho-zCDP."""
    data = np.asarray(data, dtype=float)
    _check_unit_data(data)
    if rho <= 0.0:
        raise DomainError("rho must be positive")
    n = data.shape[0]
    out = float(data.mean() + (2.0 / (n * math.sqrt(rho))) * rng.standard_normal())
    return min(1.0, max(0.0, out)) if clamp else out


def randomized_response(bit: int, epsilon: float, rng: np.random.Generator) -> int:
    """Return the true bit with probability e^eps / (1 + e^eps)."""
    if bit not in (0, 1):
        raise DomainError("bit must be 0 or 1")
    if epsilon <= 0.0:
        raise DomainError("epsilon must be positive")
    keep = math.exp(epsilon) / (1.0 + math.exp(epsilon))
    return bit if rng.random() < keep else 1 - bit


def rr_kernel(epsilon: float, n: int = 1) -> FiniteMechanism:
    """Product randomized-response kernel on n bits; epsilon-DP.

    Outputs are bit vectors encoded as integers, first bit most significant.
    """
    if not 0.0 < epsilon < math.inf:
        raise DomainError("epsilon must be positive and finite")
    if n < 1:
        raise DomainError("n must be >= 1")
    keep = math.exp(epsilon) / (1.0 + math.exp(epsilon))
    size = 2**n
    kernel = np.empty((size, size))
    for x in range(size):
        for o in range(size):
            h = bin(x ^ o).count("1")
            kernel[x, o] = keep ** (n - h) * (1.0 - keep) ** h
    return FiniteMechanism(alphabet_size=2, n=n, outputs=tuple(range(size)), kernel=kernel)


def rr_sum_kernel(epsilon: float, n: int = 2) -> FiniteMechanism:
    """Sum of per-bit randomized responses; epsilon-DP with n + 1 outputs."""
    if not 0.0 < epsilon < math.inf:
        raise DomainError("epsilon must be positive and finite")
    if n < 1:
        raise DomainError("n must be >= 1")
    keep = math.exp(epsilon) / (1.0 + math.exp(epsilon))
    size = 2**n
    kernel = np.zeros((size, n + 1))
    for x in range(size):
        bits = [(x >> (n - 1 - i)) & 1 for i in range(n)]
        dist = np.array([1.0])
        for b in bits:
            p_one = keep if b == 1 else 1.0 - keep
            nxt = np.zeros(dist.shape[0] + 1)
            nxt[: dist.shape[0]] += dist * (1.0 - p_one)
            nxt[1:] += dist * p_one
            dist = nxt
        kernel[x] = dist
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
    and grad(X, theta) are batched over rows of X.  lam and beta bound the
    strong concavity and smoothness of the log-likelihood, L is the gradient
    clip norm, gamma the coefficient of the quadratic KL upper bound.
    mean_grad_scale, when set, declares grad(x, theta) = (x - theta) * scale
    for a positive finite scale.  Such a linear-gradient model gets the
    exact MLE (the sample mean projected onto the space) from mle_pga and
    the batched trial kernel from dp_sgml_batch; any other model falls back
    to projected gradient ascent and per-trial runs.
    """

    dim: int
    space: object
    sample: Callable = field(compare=False)
    loglik: Callable = field(compare=False)
    grad: Callable = field(compare=False)
    lam: float = 1.0
    beta: float = 1.0
    L: float = 1.0
    gamma: float = 0.5
    mean_grad_scale: Optional[float] = None

    def __post_init__(self):
        if self.dim < 1:
            raise DomainError("dim must be >= 1")
        if not 0.0 < self.lam <= self.beta:
            raise DomainError("need 0 < lam <= beta")
        if self.L <= 0.0 or self.gamma <= 0.0:
            raise DomainError("L and gamma must be positive")
        if self.mean_grad_scale is not None and not 0.0 < self.mean_grad_scale < math.inf:
            raise DomainError("mean_grad_scale must be positive and finite")


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
    if sigma <= 0.0:
        raise DomainError("sigma must be positive")
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
        X = np.atleast_2d(np.asarray(X, dtype=float))
        return inv_var * (X - np.asarray(theta, dtype=float)[None, :])

    return ParametricModel(
        dim=d,
        space=Ball(center=(0.0,) * d, radius=radius),
        sample=sample,
        loglik=loglik,
        grad=grad,
        lam=curvature,
        beta=beta,
        L=float(clip_norm),
        gamma=curvature / 2.0,
        mean_grad_scale=inv_var,
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
        if self.sigma2_noise < 0.0 or self.eta <= 0.0 or self.K < 1 or self.clip <= 0.0:
            raise DomainError("invalid DP-SGML configuration")
        if self.m is not None and self.m < 1:
            raise DomainError("batch size must be >= 1")


def dp_sgml_config(n: int, d: int, rho: float, model: ParametricModel, m: int) -> DPSGMLConfig:
    """Privacy calibration: sigma^2 = 4L^2/(rho lam n^2), eta = 1/(2 beta),
    K = ceil((2 beta / lam) ln(rho n^2 / d)).
    """
    if n < 1 or d < 1 or rho <= 0.0:
        raise DomainError("need n >= 1, d >= 1, rho > 0")
    if rho * n * n <= d * math.e:
        raise InsufficientBudget(f"rho n^2 = {rho * n * n:g} must exceed d e = {d * math.e:g}")
    sigma2 = 4.0 * model.L**2 / (rho * model.lam * n * n)
    eta = 1.0 / (2.0 * model.beta)
    K = int(math.ceil((2.0 * model.beta / model.lam) * math.log(rho * n * n / d)))
    return DPSGMLConfig(sigma2_noise=sigma2, K=K, eta=eta, m=m, rho=rho, clip=model.L)


def _clipped_mean_grad(model: ParametricModel, batch: np.ndarray, theta: np.ndarray, clip: float) -> np.ndarray:
    g = np.atleast_2d(model.grad(batch, theta))
    if not np.all(np.isfinite(g)):
        raise NonFinite("model gradient is non-finite")
    norms = np.linalg.norm(g, axis=1)
    factors = np.where(norms > clip, clip / np.maximum(norms, 1e-300), 1.0)
    return (g * factors[:, None]).mean(axis=0)


def dp_sgml(data, model: ParametricModel, cfg: DPSGMLConfig, rng: np.random.Generator) -> np.ndarray:
    """One run of DP-SGML; returns theta_K inside the parameter space.

    Randomness is consumed in a fixed order (initial normals, all batch
    indices, all step noise) so a run is reproducible from its generator
    state regardless of batching strategy.
    """
    data = np.asarray(data, dtype=float)
    if data.ndim == 1:
        data = data[:, None]
    n = data.shape[0]
    if data.shape[1] != model.dim:
        raise DomainError("data dimension does not match the model")
    theta0_raw = rng.standard_normal(model.dim)
    if cfg.m is not None:
        batch_idx = rng.integers(0, n, size=(cfg.K, cfg.m))
    step_noise = rng.standard_normal((cfg.K, model.dim))

    scale0 = math.sqrt(2.0 * cfg.sigma2_noise / model.lam)
    theta = project(model.space, scale0 * theta0_raw)
    noise_std = math.sqrt(cfg.sigma2_noise)
    step_scale = math.sqrt(2.0 * cfg.eta)
    for k in range(cfg.K):
        batch = data if cfg.m is None else data[batch_idx[k]]
        gbar = _clipped_mean_grad(model, batch, theta, cfg.clip)
        theta = project(model.space, theta + cfg.eta * gbar + step_scale * noise_std * step_noise[k])
    return theta


def dp_sgml_batch(
    data: np.ndarray,
    model: ParametricModel,
    cfg: DPSGMLConfig,
    seed: int,
    *tags: int,
) -> np.ndarray:
    """Run dp_sgml on (trials, n, dim) data, trial t using derived stream t.

    Models exposing mean_grad_scale on a Ball run through the vectorized
    trial kernel in chunks; anything else falls back to per-trial runs.  Either
    path agrees with dp_sgml(data[t], ..., derived_rng(seed, *tags, t)): the
    trial streams come from trial_rngs, which derives them in bulk with the
    same bits.
    """
    data = np.asarray(data, dtype=float)
    if data.ndim != 3 or data.shape[2] != model.dim:
        raise DomainError("data must have shape (trials, n, dim)")
    trials, n, d = data.shape
    fast = (
        cfg.m is not None
        and model.mean_grad_scale is not None
        and isinstance(model.space, Ball)
    )
    if not fast:
        return np.stack(
            [dp_sgml(data[t], model, cfg, r) for t, r in enumerate(trial_rngs(seed, tags, trials))]
        )

    scale0 = math.sqrt(2.0 * cfg.sigma2_noise / model.lam)
    center = np.asarray(model.space.center)
    # Indices are drawn as int64 (the stream is unchanged) but stored as int32,
    # which halves the largest buffer, whenever n allows.
    idx_dtype = np.int32 if n <= np.iinfo(np.int32).max else np.int64
    out = np.empty((trials, d))
    # One iterator across all chunks: chunk c continues at trial c * _BATCH_CHUNK.
    rngs = trial_rngs(seed, tags, trials)
    for start in range(0, trials, _BATCH_CHUNK):
        stop = min(start + _BATCH_CHUNK, trials)
        size = stop - start
        theta0 = np.empty((size, d))
        batch_idx = np.empty((size, cfg.K, cfg.m), dtype=idx_dtype)
        step_noise = np.empty((size, cfg.K, d))
        for t, r in zip(range(start, stop), rngs):
            raw = r.standard_normal(d)
            batch_idx[t - start] = r.integers(0, n, size=(cfg.K, cfg.m))
            step_noise[t - start] = r.standard_normal((cfg.K, d))
            theta0[t - start] = project(model.space, scale0 * raw)
        out[start:stop] = _kernels.dpsgml_trials(
            data[start:stop],
            theta0,
            batch_idx,
            step_noise,
            model.mean_grad_scale,
            cfg.clip,
            cfg.eta,
            math.sqrt(cfg.sigma2_noise),
            center,
            model.space.radius,
        )
    return out


def mle_pga(data, model: ParametricModel, tol: float = 1e-10, max_iter: int = 100_000) -> np.ndarray:
    """Maximum-likelihood estimate over the model's parameter space.

    A linear-gradient model (mean_grad_scale set) has an isotropic quadratic
    log-likelihood, so its constrained maximizer is exactly the sample mean
    projected onto the space; tol and max_iter are then unused.  Other
    models fall back to deterministic projected gradient ascent: full-batch
    unclipped mean gradient with step 1/beta, stopped when the update norm
    falls below tol.
    """
    data = np.asarray(data, dtype=float)
    if data.ndim == 1:
        data = data[:, None]
    if model.mean_grad_scale is not None:
        mean = data.mean(axis=0)
        if not np.all(np.isfinite(mean)):
            raise NonFinite("sample mean is non-finite")
        return project(model.space, mean)
    if isinstance(model.space, Ball):
        theta = np.asarray(model.space.center, dtype=float)
    else:
        theta = (np.asarray(model.space.lo) + np.asarray(model.space.hi)) / 2.0
    step = 1.0 / model.beta
    for _ in range(max_iter):
        g = np.atleast_2d(model.grad(data, theta))
        if not np.all(np.isfinite(g)):
            raise NonFinite("model gradient is non-finite")
        nxt = project(model.space, theta + step * g.mean(axis=0))
        if float(np.linalg.norm(nxt - theta)) <= tol:
            return nxt
        theta = nxt
    return theta


def estimate_xi2(
    data,
    model: ParametricModel,
    theta_ml,
    m: int,
    trials: int,
    rng: np.random.Generator,
) -> tuple[float, float]:
    """Monte-Carlo estimate of E||clipped batch gradient at theta_ml||^2.

    Returns (estimate, stderr); batches of size m are drawn with replacement.
    """
    data = np.asarray(data, dtype=float)
    if data.ndim == 1:
        data = data[:, None]
    if m < 1 or trials < 1:
        raise DomainError("m and trials must be >= 1")
    theta_ml = np.asarray(theta_ml, dtype=float)
    n = data.shape[0]
    values = np.empty(trials)
    for t in range(trials):
        idx = rng.integers(0, n, size=m)
        gbar = _clipped_mean_grad(model, data[idx], theta_ml, model.L)
        values[t] = float(gbar @ gbar)
    return float(values.mean()), float(values.std(ddof=1) / math.sqrt(trials)) if trials > 1 else 0.0
