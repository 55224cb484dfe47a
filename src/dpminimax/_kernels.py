"""Hot numerical kernels, vectorized over trials in numpy.

Each kernel consumes pre-generated random inputs, so its callers fix the
random stream and the kernel is a pure function of its arguments.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "backend",
    "races_winners",
    "pair_assignments",
    "dpsgml_trials",
]


def backend() -> str:
    """Name of the kernel backend (numpy is the only one)."""
    return "numpy"


def races_winners(clocks: np.ndarray, probs: np.ndarray) -> np.ndarray:
    """Per-draw winners of the exponential races for each marginal.

    clocks: (trials, k) iid Exp(1) clocks shared across marginals per draw.
    probs:  (N, k) marginal weights on the shared atom universe.
    Returns (trials, N) indices into the universe: winner[t, i] is
    argmin_j clocks[t, j] / probs[i, j] over the atoms with probs[i, j] > 0.
    """
    clocks = np.ascontiguousarray(clocks, dtype=np.float64)
    probs = np.ascontiguousarray(probs, dtype=np.float64)
    out = np.empty((clocks.shape[0], probs.shape[0]), dtype=np.int64)
    for i in range(probs.shape[0]):
        live = probs[i] > 0.0
        ratio = np.where(live, clocks / np.where(live, probs[i], 1.0), np.inf)
        out[:, i] = np.argmin(ratio, axis=1)
    return out


def pair_assignments(u, agree_prob, common_cdf, pos_cdf, neg_cdf) -> np.ndarray:
    """Maximal-coupling draws for a pair from 3 uniforms per draw.

    Draw t agrees iff u[t,0] < agree_prob; agreeing draws sample the common
    part through u[t,1], disagreeing draws sample the two residuals through
    u[t,1] and u[t,2].  Returns (trials, 2) indices into the caller's atom
    arrays for the common/positive/negative parts respectively.
    """
    u = np.ascontiguousarray(u, dtype=np.float64)
    common_cdf = np.asarray(common_cdf, dtype=np.float64)
    pos_cdf = np.asarray(pos_cdf, dtype=np.float64)
    neg_cdf = np.asarray(neg_cdf, dtype=np.float64)
    out = np.empty((u.shape[0], 2), dtype=np.int64)
    agree = u[:, 0] < float(agree_prob)
    k = common_cdf.shape[0]
    idx = np.minimum(np.searchsorted(common_cdf, u[agree, 1], side="right"), k - 1)
    out[agree, 0] = idx
    out[agree, 1] = idx
    dis = ~agree
    if pos_cdf.shape[0] > 0:
        kp = pos_cdf.shape[0]
        kq = neg_cdf.shape[0]
        out[dis, 0] = np.minimum(np.searchsorted(pos_cdf, u[dis, 1], side="right"), kp - 1)
        out[dis, 1] = np.minimum(np.searchsorted(neg_cdf, u[dis, 2], side="right"), kq - 1)
    else:
        out[dis] = 0
    return out


def dpsgml_trials(
    data,
    theta0,
    batch_idx,
    step_noise,
    grad_scale: float,
    clip: float,
    eta: float,
    noise_std: float,
    center,
    radius: float,
) -> np.ndarray:
    """Run all DP-SGML trials for a ball-constrained linear-gradient model.

    data:       (trials, n, d) per-trial datasets.
    theta0:     (trials, d) projected initial points.
    batch_idx:  (trials, K, m) with-replacement batch indices, any integer
                dtype (kept as given, not widened).
    step_noise: (trials, K, d) standard normal injections.
    The per-sample gradient is (x - theta) * grad_scale, clipped to norm
    ``clip``; iterates are projected onto Ball(center, radius).
    """
    data = np.ascontiguousarray(data, dtype=np.float64)
    theta0 = np.ascontiguousarray(theta0, dtype=np.float64)
    batch_idx = np.ascontiguousarray(batch_idx)
    step_noise = np.ascontiguousarray(step_noise, dtype=np.float64)
    center = np.ascontiguousarray(center, dtype=np.float64)
    grad_scale, clip, eta, radius = float(grad_scale), float(clip), float(eta), float(radius)
    trials, n, d = data.shape
    K, m = batch_idx.shape[1], batch_idx.shape[2]
    # Row batch_idx[t, k, b] of trial t is row t * n + batch_idx[t, k, b] of flat.
    flat = data.reshape(trials * n, d)
    offsets = np.arange(trials, dtype=np.int64)[:, None] * n
    theta = theta0.copy()
    scale_noise = np.sqrt(2.0 * eta) * float(noise_std)
    for k in range(K):
        diff = np.take(flat, batch_idx[:, k, :] + offsets, axis=0)
        diff -= theta[:, None, :]
        diff *= grad_scale
        # Coordinate by coordinate: faster than a reduction over a short
        # axis, and the same summation order as np.sum for d < 8.
        sq = diff[..., 0] * diff[..., 0]
        for j in range(1, d):
            sq += diff[..., j] * diff[..., j]
        norms = np.sqrt(sq)
        factor = np.where(norms > clip, clip / norms, 1.0)
        grad = np.einsum("tbj,tb->tj", diff, factor) / m
        theta = theta + eta * grad + scale_noise * step_noise[:, k, :]
        offset = theta - center
        dist = np.sqrt(np.sum(offset * offset, axis=1))
        shrink = np.where(dist > radius, radius / np.where(dist > 0, dist, 1.0), 1.0)
        theta = center + offset * shrink[:, None]
    return theta
