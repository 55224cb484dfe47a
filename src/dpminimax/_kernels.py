"""Hot numerical kernels, vectorized over trials in numpy, and the runner
that splits a large call into forked ranges.

The coupling kernels consume pre-generated random inputs, so their callers
fix the random stream and each kernel is a pure function of its arguments.
The DP-SGML kernel may instead take unwritten input buffers and a fill
that draws a trial range's rows into them from the range's own
counter-addressed streams, so its rows still depend only on its arguments.  The coupling
kernels return atoms, and no kernel needs a floating-point guard.

The coupling kernels are called once per chunk of a draw range, which
couplings._draw_range draws from one stream positioned once per range.  Its
chunks are sized so that every chunk-sized array, a kernel's temporaries
included, stays below glibc's default 128 KiB mmap threshold: each one is
then reused from the heap arena rather than mapped, faulted in and unmapped
per chunk.  No kernel array is larger than the chunk's uniforms or its
(draws, N) atoms, the two the chunk size is computed from.

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
``os.fork`` does not exist, or when a Python thread other than the main one
is alive: a process with a live Python thread is never forked.  Threads
Python does not see do not count.  OpenBLAS's idle worker pool is one, and
it is safe across fork: OpenBLAS shuts the pool down in a pthread_atfork
handler before every fork and starts it again at its next threaded call.
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


def races_winners(clocks: np.ndarray, probs: np.ndarray) -> np.ndarray:
    """Per-draw winners of the exponential races for each marginal.

    clocks: (trials, k) iid Exp(1) clocks shared across marginals per draw.
    probs:  (N, k) marginal weights on the shared atom universe.
    Returns (trials, N) indices into the universe: winner[t, i] is
    argmin_j clocks[t, j] / probs[i, j] over the atoms with probs[i, j] > 0
    (every row of probs has one), the lowest such j on a tie.
    """
    probs = np.ascontiguousarray(probs, dtype=np.float64)
    # One row per atom, so each atom's clocks are contiguous.
    columns = np.ascontiguousarray(np.asarray(clocks, dtype=np.float64).T)
    out = np.empty((columns.shape[1], probs.shape[0]), dtype=np.int64)
    for i, p in enumerate(probs):
        first, *rest = np.flatnonzero(p > 0.0)
        best = columns[first] / p[first]
        win = np.full(columns.shape[1], first, dtype=np.int64)
        for j in rest:
            ratio = columns[j] / p[j]
            # Strict < keeps the first minimum, as argmin does.
            win = np.where(ratio < best, j, win)
            np.minimum(best, ratio, out=best)
        out[:, i] = win
    return out


# Up to this many atoms of positive weight, _cdf_index counts comparisons;
# above it, it binary-searches.  On a 2-CPU Xeon VM the count takes 16-20 us
# per 5000 fresh uniforms at 2-8 atoms against searchsorted's 56-106 us, and
# breaks even near 160 atoms per 5000 uniforms and 100 per 2000.  The count
# is held in uint8, so this must stay below 256.
_COUNT_MAX_ATOMS = 64


def _cdf_index(cdf: np.ndarray, u: np.ndarray) -> np.ndarray:
    """min(searchsorted(cdf, u, "right"), L - 1) for each uniform in u, cdf
    L >= 1 nondecreasing cumulative weights: the number of the first L - 1
    cumulative weights at or below the uniform."""
    if cdf.shape[0] > _COUNT_MAX_ATOMS:
        return np.minimum(np.searchsorted(cdf, u, side="right"), cdf.shape[0] - 1)
    index = np.zeros(u.shape, dtype=np.uint8)
    reached = np.empty(u.shape, dtype=bool)
    # The comparisons are added through a uint8 view: no cast per atom.
    step = reached.view(np.uint8)
    for c in cdf[:-1]:
        np.greater_equal(u, c, out=reached)
        index += step
    return index


def _inverse_cdf(atoms: np.ndarray, weights: np.ndarray, u: np.ndarray):
    """One atom per uniform in u, by inverse CDF over the atoms of positive
    weight; a uniform past the last cumulative weight takes the last atom.
    None when no atom has positive weight."""
    live = weights > 0.0
    if not live.any():
        return None
    return atoms[live].take(_cdf_index(np.cumsum(weights[live]), u))


def pair_assignments(u, atoms, common, pos, neg, agree_prob: float) -> np.ndarray:
    """Maximal-coupling draws for a pair from 3 uniforms per draw.

    common, pos and neg are weights on the atoms, each summing to 1 or, when
    agree_prob makes every draw agree (1.0) or disagree (0.0), the part no
    draw takes may be all zeros: the common part min(p, q) and the residuals
    of p and q.  Draw t agrees iff u[t,0] < agree_prob and takes a common
    atom through u[t,1]; otherwise it takes residual atoms through u[t,1]
    and u[t,2].  Returns (trials, 2) atoms.

    Every draw's common and residual atoms are computed, without masks, and
    np.where picks each draw's: a few passes over the chunk cost less than
    gathering the agreeing and the disagreeing draws apart.
    """
    u = np.ascontiguousarray(u, dtype=np.float64)
    atoms = np.asarray(atoms, dtype=np.int64)
    agree = u[:, 0] < float(agree_prob)
    shared = _inverse_cdf(atoms, common, u[:, 1])
    out = np.empty((u.shape[0], 2), dtype=np.int64)
    for column, (weights, v) in enumerate(((pos, u[:, 1]), (neg, u[:, 2]))):
        own = _inverse_cdf(atoms, weights, v)
        if own is None:  # an empty residual: every draw agrees
            out[:, column] = shared
        elif shared is None:  # disjoint supports: no draw agrees
            out[:, column] = own
        else:
            out[:, column] = np.where(agree, shared, own)
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
    return np.einsum("tbj,tb->tj", grads, _clip_factors(sq, clip)) / m


def _clip_factors(sq: np.ndarray, clip: float) -> np.ndarray:
    """clip / max(sqrt(sq), clip), written over the squared norms sq."""
    np.sqrt(sq, out=sq)
    np.maximum(sq, clip, out=sq)
    return np.divide(clip, sq, out=sq)


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
    At d >= 2 batch is the transpose view of a batch-major (m, trials, d)
    buffer, and the batch mean adds the clipped rows in batch order; at
    d = 1 batch is C-ordered and clipped_mean's einsum sums it.  grad may
    overwrite batch and return it.

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
    """dpsgml_trials' step loop over all the trials it is given, in this
    process, on buffers allocated once.

    At d >= 2 a step gathers its batch batch-major, row b of every trial
    together in an (m, trials, d) buffer, and hands grad the (trials, m, d)
    transpose view.  The squared gradients, then the clipped rows, go back
    into that buffer, and one reduction over its leading axis adds the rows
    in batch order: row 0, then row 1, and so on, the order
    einsum("tbj,tb->tj") takes there.  At d = 1 einsum adds in an order of
    its own, so the batch is gathered trial-major and clipped_mean sums it,
    as it always has.
    """
    trials, n, d = data.shape
    K, m = batch_idx.shape[1], batch_idx.shape[2]
    # Row batch_idx[t, k, b] of trial t is row t * n + batch_idx[t, k, b] of flat.
    flat = data.reshape(trials * n, d)
    offsets = np.arange(trials, dtype=np.int64)[:, None] * n
    scale_noise = np.sqrt(2.0 * eta) * float(noise_std)
    major = d > 1
    rows = np.empty((m, trials, d) if major else (trials, m, d))
    idx = np.empty(rows.shape[:2], dtype=np.int64)
    # (trials, m, d) and (trials, m) views of the two.
    batch, trial_idx = (rows.transpose(1, 0, 2), idx.T) if major else (rows, idx)
    if major:
        sq = np.empty((m, trials))
        total = np.empty((trials, d))
    for k in range(K):
        np.add(batch_idx[:, k, :], offsets, out=trial_idx)
        # With indices in range, mode="clip" changes nothing but lets take
        # write straight into the reused buffer (the default stages a copy).
        np.take(flat, idx, axis=0, out=rows, mode="clip")
        # grad's result is not bound to a name, so it is freed before the
        # next step's call.
        if major:
            mean = _clipped_sum(grad(batch, theta), clip, sq, rows, total) / m
        else:
            mean = clipped_mean(grad(batch, theta), clip)
        theta = project(theta + eta * mean + scale_noise * step_noise[:, k, :])
    return theta


def _clipped_sum(grads, clip: float, sq, out, total) -> np.ndarray:
    """Sum over axis 1 of grads (trials, m, d), d >= 2, each row first
    scaled down to norm clip, written to total (trials, d) through buffers
    the caller owns: sq (m, trials) and out (m, trials, d), C-ordered.  The
    sum adds out[0], out[1], ... in turn, as clipped_mean's einsum does at
    d >= 2, and the squared norms add coordinate by coordinate, as
    clipped_mean's do, so the bits are the same."""
    grads = grads.transpose(1, 0, 2)
    if np.may_share_memory(grads, out):
        # grad returned the batch or a view of it, which the squares would overwrite.
        grads = grads.copy()
    np.square(grads, out=out)
    np.add(out[..., 0], out[..., 1], out=sq)
    for j in range(2, grads.shape[2]):
        sq += out[..., j]
    factor = _clip_factors(sq, clip)
    # An infinite row has factor 0 and its product is nan, which the caller
    # reports as NonFinite; einsum made that nan without a warning too.
    with np.errstate(invalid="ignore"):
        np.multiply(grads, factor[..., None], out=out)
    return np.add.reduce(out, axis=0, out=total)
