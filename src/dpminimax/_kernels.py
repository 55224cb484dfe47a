"""Hot numerical kernels, vectorized over trials in numpy, and the runner
that splits a large call into forked ranges.

The coupling kernels consume pre-generated random inputs, so their callers
fix the random stream and each kernel is a pure function of its arguments.
The DP-SGML kernel may instead take unwritten input buffers and a fill
that draws a trial range's rows into them from the range's own
counter-addressed streams, so its rows still depend only on its arguments.  The coupling
kernels return atoms, and no kernel needs a floating-point guard.

run_ranges splits a call over items 0..count-1 into contiguous ranges, one
per CPU the process may run on.  This process runs the first range; each
other range runs in a child made by ``os.fork()``, which writes its result
(an array of a shape and dtype the caller names) to a pipe and exits, and a
range whose child fails runs again in this process.  Two calls use it:

- dpsgml_trials, when a call makes at least ``_FORK_MIN_STEPS`` = 2**20
  index reads; its ranges hold two trials or more, each range draws and
  runs its own trials, and the rows are concatenated;
- couplings.estimate_disagreement, when a call reads at least
  ``couplings._FORK_MIN_UNIFORMS`` = 2**18 uniforms; each range draws and
  counts its own draws, and the N x N int64 counts are summed.

Every trial's draws and arithmetic, and every draw's count, are the same in
any range, so the results are the same bits at any worker count.  A call
stays in-process below its threshold, when one CPU is available, when
``os.fork`` does not exist, or when another thread is alive, because a
threaded process is never forked.
"""

from __future__ import annotations

import gc
import math
import os
import threading

import numpy as np

__all__ = [
    "backend",
    "races_winners",
    "pair_assignments",
    "clipped_mean",
    "dpsgml_trials",
    "run_ranges",
]


def backend() -> str:
    """Name of the kernel backend (numpy is the only one)."""
    return "numpy"


# Draws per race chunk: a chunk's transposed clocks and per-draw temporaries
# stay in cache.
_RACE_CHUNK = 8192


def races_winners(clocks: np.ndarray, probs: np.ndarray) -> np.ndarray:
    """Per-draw winners of the exponential races for each marginal.

    clocks: (trials, k) iid Exp(1) clocks shared across marginals per draw.
    probs:  (N, k) marginal weights on the shared atom universe.
    Returns (trials, N) indices into the universe: winner[t, i] is
    argmin_j clocks[t, j] / probs[i, j] over the atoms with probs[i, j] > 0
    (every row of probs has one), the lowest such j on a tie.
    """
    clocks = np.asarray(clocks, dtype=np.float64)
    probs = np.ascontiguousarray(probs, dtype=np.float64)
    live = [np.flatnonzero(p > 0.0) for p in probs]
    out = np.empty((clocks.shape[0], probs.shape[0]), dtype=np.int64)
    for start in range(0, clocks.shape[0], _RACE_CHUNK):
        # One row per atom, so each atom's clocks are contiguous.
        columns = np.ascontiguousarray(clocks[start:start + _RACE_CHUNK].T)
        for i, p in enumerate(probs):
            first, *rest = live[i]
            best = columns[first] / p[first]
            win = np.full(columns.shape[1], first, dtype=np.int64)
            for j in rest:
                ratio = columns[j] / p[j]
                # Strict < keeps the first minimum, as argmin does.
                win = np.where(ratio < best, j, win)
                np.minimum(best, ratio, out=best)
            out[start:start + _RACE_CHUNK, i] = win
    return out


def _inverse_cdf(atoms: np.ndarray, weights: np.ndarray, u: np.ndarray) -> np.ndarray:
    """One atom per uniform in u, by inverse CDF over the atoms of positive
    weight; a uniform past the last cumulative weight takes the last atom."""
    live = weights > 0.0
    cdf = np.cumsum(weights[live])
    return atoms[live][np.minimum(np.searchsorted(cdf, u, side="right"), cdf.shape[0] - 1)]


def pair_assignments(u, atoms, common, pos, neg, agree_prob: float) -> np.ndarray:
    """Maximal-coupling draws for a pair from 3 uniforms per draw.

    common, pos and neg are weights on the atoms, each summing to 1: the
    common part min(p, q) and the residuals of p and q.  Draw t agrees iff
    u[t,0] < agree_prob and takes a common atom through u[t,1]; otherwise it
    takes residual atoms through u[t,1] and u[t,2].  Returns (trials, 2) atoms.
    """
    u = np.ascontiguousarray(u, dtype=np.float64)
    atoms = np.asarray(atoms, dtype=np.int64)
    out = np.empty((u.shape[0], 2), dtype=np.int64)
    agree = u[:, 0] < float(agree_prob)
    out[agree] = _inverse_cdf(atoms, common, u[agree, 1])[:, None]
    out[~agree, 0] = _inverse_cdf(atoms, pos, u[~agree, 1])
    out[~agree, 1] = _inverse_cdf(atoms, neg, u[~agree, 2])
    return out


def clipped_mean(grads: np.ndarray, clip: float) -> np.ndarray:
    """Mean over axis 1 of grads (trials, m, d), each row first scaled down
    to norm ``clip`` (positive and finite) when longer; a zero row keeps
    factor 1.0, and a nan or inf row makes its mean nan."""
    m, d = grads.shape[1], grads.shape[2]
    # Coordinate by coordinate: faster than a reduction over a short axis,
    # and the same summation order as np.sum for d < 8.
    sq = grads[..., 0] * grads[..., 0]
    for j in range(1, d):
        sq += grads[..., j] * grads[..., j]
    factor = clip / np.maximum(np.sqrt(sq), clip)
    return np.einsum("tbj,tb->tj", grads, factor) / m


# Below this many index reads (trials * K * m) a DP-SGML call stays
# in-process: it takes a few tens of milliseconds at most, and a fork of a
# 60 MB process alone takes about 1 ms before the child's copy-on-write
# faults and exit.
_FORK_MIN_STEPS = 2**20


def dpsgml_trials(
    data,
    theta0,
    batch_idx,
    step_noise,
    grad,
    project,
    clip: float,
    eta: float,
    noise_std: float,
    fill=None,
) -> np.ndarray:
    """Run DP-SGML trials for any model on (trials, n, d) data, from the
    projected initial points theta0 (trials, d), with batch indices
    batch_idx (trials, K, m) in [0, n) of any integer dtype and standard
    normal step noise (trials, K, d).  Each step clips and averages
    grad(batch, theta), of shape (trials, m, d), and projects the iterate.

    fill(lo, hi), when given, writes rows lo..hi of theta0, batch_idx and
    step_noise in place, and is called in the process that runs those
    trials right before their steps; theta0 must then be float64, so that
    the rows it writes are the rows read.  Without it the inputs are read
    as given.

    Large calls run their trial ranges through run_ranges, in forked
    children (module docstring); a range whose child fails is filled and
    run again in this process, so an error raised by fill, grad or project
    reaches the caller as in a serial run.
    """
    data = np.ascontiguousarray(data, dtype=np.float64)
    theta0 = np.asarray(theta0, dtype=np.float64)
    trials = data.shape[0]

    def run(lo: int, hi: int) -> np.ndarray:
        if fill is not None:
            fill(lo, hi)
        return _steps(data[lo:hi], theta0[lo:hi], batch_idx[lo:hi], step_noise[lo:hi],
                      grad, project, clip, eta, noise_std)

    parts = run_ranges(run, trials, lambda lo, hi: (hi - lo, theta0.shape[1]), np.float64,
                       trials * batch_idx.shape[1] * batch_idx.shape[2] >= _FORK_MIN_STEPS,
                       # A one-trial clipped_mean sums in another order at d = 1 on a long batch.
                       min_size=2)
    return parts[0] if len(parts) == 1 else np.concatenate(parts)


def run_ranges(run, count: int, shape, dtype, large: bool, min_size: int = 1) -> list[np.ndarray]:
    """The results run(lo, hi) of the consecutive ranges [lo, hi) that
    cover 0..count-1, in order; shape(lo, hi) is the shape of a range's
    result, of the given dtype.

    A large call (large true) may split into one range per usable CPU,
    none shorter than min_size (module docstring); a small one is the one
    range [0, count), run here.  Each range but the first runs in a forked
    child, or here again when its child could not be made, exited non-zero
    or wrote short, so an error raised by run reaches the caller as in a
    serial run, and no child outlives the call.
    """
    bounds = _range_bounds(count, large, min_size)
    ranges = list(zip(bounds[:-1], bounds[1:]))
    pids, fds = [], []
    try:
        for lo, hi in ranges[1:]:
            try:
                pid, fd = _fork(run, lo, hi, dtype, fds)
            except OSError:  # no pipe or no process to be had: run the rest here
                break
            pids.append(pid)
            fds.append(fd)
        results = [run(*ranges[0])]
        raws = [_read_all(fd) for fd in fds]
    except BaseException:
        # Imported here: only this path needs it, and it costs about 1 ms.
        import signal

        for pid in pids:
            os.kill(pid, signal.SIGKILL)
        raise
    finally:
        for fd in fds:
            os.close(fd)
        codes = [os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1]) for pid in pids]
    itemsize = np.dtype(dtype).itemsize
    for i, (lo, hi) in enumerate(ranges[1:]):
        size = shape(lo, hi)
        if i < len(pids) and codes[i] == 0 and len(raws[i]) == math.prod(size) * itemsize:
            results.append(np.frombuffer(raws[i], dtype=dtype).reshape(size))
        else:
            results.append(run(lo, hi))
    return results


def _range_bounds(count: int, large: bool, min_size: int) -> list[int]:
    """Bounds of the contiguous ranges, [0, count] when in-process: one
    range per usable CPU, and at most count // min_size of them."""
    if not large or not hasattr(os, "fork") or threading.active_count() > 1:
        return [0, count]
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1
    ranges = max(1, min(cpus, count // min_size))
    return [r * count // ranges for r in range(ranges + 1)]


def _fork(run, lo: int, hi: int, dtype, open_fds: list) -> tuple[int, int]:
    """Fork a child that writes the bytes of run(lo, hi), as dtype, to a new
    pipe and exits, with status 1 on any error; return (pid, read end).
    The child closes every descriptor in open_fds and keeps only its own
    pipe's write end."""
    read_fd, write_fd = os.pipe()
    try:
        pid = os.fork()
    except OSError:
        os.close(read_fd)
        os.close(write_fd)
        raise
    if pid == 0:
        code = 1
        try:
            # The parent's garbage may hold finalizers that must not run twice.
            gc.disable()
            for fd in (*open_fds, read_fd):
                os.close(fd)
            result = np.ascontiguousarray(run(lo, hi), dtype=dtype)
            with open(write_fd, "wb") as pipe:
                pipe.write(memoryview(result).cast("B"))
            code = 0
        finally:
            os._exit(code)
    os.close(write_fd)
    return pid, read_fd


def _read_all(fd: int) -> bytes:
    chunks = []
    while chunk := os.read(fd, 1 << 16):
        chunks.append(chunk)
    return b"".join(chunks)


def _steps(
    data: np.ndarray,
    theta: np.ndarray,
    batch_idx,
    step_noise,
    grad,
    project,
    clip: float,
    eta: float,
    noise_std: float,
) -> np.ndarray:
    """dpsgml_trials' step loop over all the trials it is given, in this process."""
    trials, n, d = data.shape
    K, m = batch_idx.shape[1], batch_idx.shape[2]
    # Row batch_idx[t, k, b] of trial t is row t * n + batch_idx[t, k, b] of flat.
    flat = data.reshape(trials * n, d)
    offsets = np.arange(trials, dtype=np.int64)[:, None] * n
    batch = np.empty((trials, m, d))
    scale_noise = np.sqrt(2.0 * eta) * float(noise_std)
    for k in range(K):
        # With indices in range, mode="clip" changes nothing but lets take
        # write straight into the reused buffer (the default stages a copy).
        np.take(flat, batch_idx[:, k, :] + offsets, axis=0, out=batch, mode="clip")
        mean = clipped_mean(grad(batch, theta), clip)
        theta = project(theta + eta * mean + scale_noise * step_noise[:, k, :])
    return theta
