"""Hot numerical kernels, with numba and pure-numpy implementations.

The numba path is used when numba imports cleanly and the environment
variable ``DPMINIMAX_DISABLE_NUMBA`` is unset/falsy; otherwise the numpy
path runs.  Both paths consume identical pre-generated random inputs, so
integer-valued kernels (coupling draws) agree exactly across backends and
float-valued kernels agree to rounding.
"""

from __future__ import annotations

import os

import numpy as np

__all__ = [
    "backend",
    "races_winners",
    "pair_assignments",
    "dpsgml_trials",
]

_DISABLE = os.environ.get("DPMINIMAX_DISABLE_NUMBA", "").strip().lower() in (
    "1",
    "true",
    "yes",
    "on",
)

try:
    if _DISABLE:
        raise ImportError("numba disabled by DPMINIMAX_DISABLE_NUMBA")
    from numba import njit

    HAVE_NUMBA = True
except ImportError:
    HAVE_NUMBA = False


def backend() -> str:
    """Name of the active kernel backend."""
    return "numba" if HAVE_NUMBA else "numpy"


# ---------------------------------------------------------------------------
# exponential races: winner[t, i] = argmin_j clocks[t, j] / probs[i, j]
# ---------------------------------------------------------------------------


def _races_winners_numpy(clocks: np.ndarray, probs: np.ndarray) -> np.ndarray:
    trials, k = clocks.shape
    n_marg = probs.shape[0]
    out = np.empty((trials, n_marg), dtype=np.int64)
    for i in range(n_marg):
        ratio = np.where(probs[i] > 0.0, clocks / np.where(probs[i] > 0.0, probs[i], 1.0), np.inf)
        out[:, i] = np.argmin(ratio, axis=1)
    return out


def _races_winners_loop(clocks, probs, out):  # pragma: no cover - numba body
    trials, k = clocks.shape
    n_marg = probs.shape[0]
    for t in range(trials):
        for i in range(n_marg):
            best = -1
            best_val = np.inf
            for j in range(k):
                if probs[i, j] > 0.0:
                    val = clocks[t, j] / probs[i, j]
                    if val < best_val:
                        best_val = val
                        best = j
            out[t, i] = best
    return out


# ---------------------------------------------------------------------------
# maximal pair coupling: fixed 3 uniforms per draw
# ---------------------------------------------------------------------------


def _pair_assignments_numpy(u, agree_prob, common_cdf, pos_cdf, neg_cdf):
    trials = u.shape[0]
    out = np.empty((trials, 2), dtype=np.int64)
    agree = u[:, 0] < agree_prob
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


def _pair_assignments_loop(u, agree_prob, common_cdf, pos_cdf, neg_cdf, out):  # pragma: no cover
    trials = u.shape[0]
    k = common_cdf.shape[0]
    kp = pos_cdf.shape[0]
    kq = neg_cdf.shape[0]
    for t in range(trials):
        if u[t, 0] < agree_prob:
            idx = np.searchsorted(common_cdf, u[t, 1], side="right")
            if idx >= k:
                idx = k - 1
            out[t, 0] = idx
            out[t, 1] = idx
        elif kp > 0:
            x = np.searchsorted(pos_cdf, u[t, 1], side="right")
            if x >= kp:
                x = kp - 1
            y = np.searchsorted(neg_cdf, u[t, 2], side="right")
            if y >= kq:
                y = kq - 1
            out[t, 0] = x
            out[t, 1] = y
        else:
            out[t, 0] = 0
            out[t, 1] = 0
    return out


# ---------------------------------------------------------------------------
# batched DP-SGML trials for models with gradient (x - theta) * grad_scale,
# parameter space = Euclidean ball(center, radius)
# ---------------------------------------------------------------------------


def _dpsgml_trials_numpy(
    data, theta0, batch_idx, step_noise, grad_scale, clip, eta, noise_std, center, radius
):
    trials, n, d = data.shape
    K, m = batch_idx.shape[1], batch_idx.shape[2]
    # Row batch_idx[t, k, b] of trial t is row t * n + batch_idx[t, k, b] of flat.
    flat = data.reshape(trials * n, d)
    offsets = np.arange(trials, dtype=np.int64)[:, None] * n
    theta = theta0.copy()
    scale_noise = np.sqrt(2.0 * eta) * noise_std
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


def _dpsgml_trials_loop(
    data, theta0, batch_idx, step_noise, grad_scale, clip, eta, noise_std, center, radius, out
):  # pragma: no cover - numba body
    trials, n, d = data.shape
    K, m = batch_idx.shape[1], batch_idx.shape[2]
    scale_noise = np.sqrt(2.0 * eta) * noise_std
    grad = np.empty(d)
    g = np.empty(d)
    for t in range(trials):
        theta = theta0[t].copy()
        for k in range(K):
            for j in range(d):
                grad[j] = 0.0
            for b in range(m):
                row = batch_idx[t, k, b]
                sq = 0.0
                for j in range(d):
                    g[j] = (data[t, row, j] - theta[j]) * grad_scale
                    sq += g[j] * g[j]
                norm = np.sqrt(sq)
                factor = 1.0
                if norm > clip:
                    factor = clip / norm
                for j in range(d):
                    grad[j] += g[j] * factor
            dist = 0.0
            for j in range(d):
                theta[j] = theta[j] + eta * grad[j] / m + scale_noise * step_noise[t, k, j]
                off = theta[j] - center[j]
                dist += off * off
            dist = np.sqrt(dist)
            if dist > radius:
                shrink = radius / dist
                for j in range(d):
                    theta[j] = center[j] + (theta[j] - center[j]) * shrink
        out[t] = theta
    return out


if HAVE_NUMBA:
    _races_winners_jit = njit(cache=True)(_races_winners_loop)
    _pair_assignments_jit = njit(cache=True)(_pair_assignments_loop)
    _dpsgml_trials_jit = njit(cache=True)(_dpsgml_trials_loop)


def races_winners(clocks: np.ndarray, probs: np.ndarray) -> np.ndarray:
    """Per-draw winners of the exponential races for each marginal.

    clocks: (trials, k) iid Exp(1) clocks shared across marginals per draw.
    probs:  (N, k) marginal weights on the shared atom universe.
    Returns (trials, N) indices into the universe.
    """
    clocks = np.ascontiguousarray(clocks, dtype=np.float64)
    probs = np.ascontiguousarray(probs, dtype=np.float64)
    if HAVE_NUMBA:
        out = np.empty((clocks.shape[0], probs.shape[0]), dtype=np.int64)
        return _races_winners_jit(clocks, probs, out)
    return _races_winners_numpy(clocks, probs)


def pair_assignments(u, agree_prob, common_cdf, pos_cdf, neg_cdf) -> np.ndarray:
    """Maximal-coupling draws for a pair from 3 uniforms per draw.

    Draw t agrees iff u[t,0] < agree_prob; agreeing draws sample the common
    part through u[t,1], disagreeing draws sample the two residuals through
    u[t,1] and u[t,2].  Returns (trials, 2) indices into the caller's atom
    arrays for the common/positive/negative parts respectively.
    """
    u = np.ascontiguousarray(u, dtype=np.float64)
    if HAVE_NUMBA:
        out = np.empty((u.shape[0], 2), dtype=np.int64)
        return _pair_assignments_jit(
            u,
            float(agree_prob),
            np.ascontiguousarray(common_cdf, dtype=np.float64),
            np.ascontiguousarray(pos_cdf, dtype=np.float64),
            np.ascontiguousarray(neg_cdf, dtype=np.float64),
            out,
        )
    return _pair_assignments_numpy(
        u,
        float(agree_prob),
        np.asarray(common_cdf, dtype=np.float64),
        np.asarray(pos_cdf, dtype=np.float64),
        np.asarray(neg_cdf, dtype=np.float64),
    )


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
    if HAVE_NUMBA:
        out = np.empty_like(theta0)
        return _dpsgml_trials_jit(
            data,
            theta0,
            batch_idx,
            step_noise,
            float(grad_scale),
            float(clip),
            float(eta),
            float(noise_std),
            center,
            float(radius),
            out,
        )
    return _dpsgml_trials_numpy(
        data,
        theta0,
        batch_idx,
        step_noise,
        float(grad_scale),
        float(clip),
        float(eta),
        float(noise_std),
        center,
        float(radius),
    )
