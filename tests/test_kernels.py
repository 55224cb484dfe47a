"""Reference and stream-derivation tests for the numerical kernels."""

import hashlib
import os
import threading

import numpy as np
import pytest

from dpminimax import _kernels, derived_rng, spawn_keys
from dpminimax._kernels import backend, clipped_mean, dpsgml_trials, pair_assignments, races_winners
from dpminimax._rng import trial_rngs
from dpminimax.couplings import maximal_pair
from dpminimax.divergences import DiscreteDistribution
from dpminimax.experiments import monte_carlo_risk
from dpminimax.mechanisms import Ball, gaussian_mean_model, laplace_mean
from conftest import assert_no_child_left


def test_backend_reports_known_name():
    assert backend() == "numpy"


# -------------------------------------------------------------- race winners


def _races_reference(clocks, probs):
    trials, k = clocks.shape
    out = np.empty((trials, probs.shape[0]), dtype=np.int64)
    for t in range(trials):
        for i in range(probs.shape[0]):
            best, best_val = -1, np.inf
            for j in range(k):
                if probs[i, j] > 0.0:
                    val = clocks[t, j] / probs[i, j]
                    if val < best_val:
                        best, best_val = j, val
            out[t, i] = best
    return out


def _random_race_inputs(rng, trials=64):
    k = int(rng.integers(2, 7))
    n_marg = int(rng.integers(2, 5))
    clocks = rng.exponential(1.0, size=(trials, k))
    probs = rng.random((n_marg, k))
    probs[rng.random((n_marg, k)) < 0.3] = 0.0
    probs[:, 0] += 0.05
    probs /= probs.sum(axis=1, keepdims=True)
    return clocks, probs


def test_races_winners_matches_reference():
    rng = derived_rng(201)
    for _ in range(10):
        clocks, probs = _random_race_inputs(rng)
        expected = _races_reference(clocks, probs)
        assert np.array_equal(races_winners(clocks, probs), expected)


def test_races_winners_skips_zero_probability_atoms():
    clocks = np.array([[0.01, 5.0]])
    probs = np.array([[0.0, 1.0]])
    assert races_winners(clocks, probs)[0, 0] == 1


def _races_argmin(clocks, probs):
    """The argmin over every atom, with inf for atoms of zero probability."""
    out = np.empty((clocks.shape[0], probs.shape[0]), dtype=np.int64)
    for i, p in enumerate(probs):
        live = p > 0.0
        out[:, i] = np.argmin(np.where(live, clocks / np.where(live, p, 1.0), np.inf), axis=1)
    return out


def test_races_winners_exact_ties_go_to_the_lowest_index():
    # Equal clocks over equal weights tie exactly; a zero clock ties every atom.
    clocks = np.array([[1.0, 1.0, 1.0], [2.0, 0.5, 0.5], [0.0, 0.0, 0.0], [3.0, 1.5, 3.0]])
    probs = np.array([[1 / 3, 1 / 3, 1 / 3], [0.0, 0.5, 0.5], [0.5, 0.25, 0.25]])
    out = races_winners(clocks, probs)
    assert np.array_equal(out, _races_argmin(clocks, probs))
    assert out[:, 0].tolist() == [0, 1, 0, 1]
    assert out[:, 1].tolist() == [1, 1, 1, 1]
    assert out[:, 2].tolist() == [0, 1, 0, 0]


@pytest.mark.parametrize(
    "probs",
    [
        [[0.0, 0.3, 0.7], [0.0, 0.0, 1.0]],  # first live atom is not atom 0
        [[0.0, 1.0, 0.0], [1.0, 0.0, 0.0]],  # a single live atom
        [[1.0], [1.0]],  # k = 1
    ],
    ids=["first_live_not_0", "single_live", "k_1"],
)
def test_races_winners_sparse_marginals_match_argmin(probs):
    probs = np.array(probs)
    clocks = derived_rng(203).exponential(1.0, size=(500, probs.shape[1]))
    out = races_winners(clocks, probs)
    assert np.array_equal(out, _races_argmin(clocks, probs))
    for i, p in enumerate(probs):
        assert np.all(p[out[:, i]] > 0.0)


# Sizes on both sides of one and two blocks of 8 192 draws: one call handles
# any number of draws, though couplings hands it one draw chunk at a time.
@pytest.mark.parametrize("trials", [1, 8191, 8192, 8193, 17618],
                         ids=["1", "chunk-1", "chunk", "chunk+1", "2chunks+1234"])
def test_races_winners_matches_argmin_at_chunk_edges(trials):
    clocks, probs = _random_race_inputs(derived_rng(204, trials), trials)
    assert np.array_equal(races_winners(clocks, probs), _races_argmin(clocks, probs))


# --------------------------------------------------------- pair assignments


def _pair_reference(u, atoms, common, pos, neg, agree_prob):
    def draw(weights, v):
        total, last = 0.0, None
        for atom, w in zip(atoms, weights):
            if w > 0.0:
                total, last = total + w, atom
                if v < total:
                    return atom
        return last

    out = np.empty((u.shape[0], 2), dtype=np.int64)
    for t in range(u.shape[0]):
        if u[t, 0] < agree_prob:
            atom = draw(common, u[t, 1])
            out[t] = atom, atom
        else:
            out[t] = draw(pos, u[t, 1]), draw(neg, u[t, 2])
    return out


def _random_pair_inputs(rng, trials=256):
    k = int(rng.integers(2, 7))
    atoms = np.sort(rng.choice(np.arange(-5, 20), size=k, replace=False))
    weights = []
    for _ in range(3):
        w = rng.random(k)
        w[rng.random(k) < 0.3] = 0.0
        w[rng.integers(k)] += 0.05
        weights.append(w / w.sum())
    return (rng.random((trials, 3)), atoms, *weights, float(rng.random()))


def test_pair_assignments_matches_reference():
    rng = derived_rng(205)
    for _ in range(10):
        args = _random_pair_inputs(rng)
        out = pair_assignments(*args)
        assert out.dtype == np.int64
        assert np.array_equal(out, _pair_reference(*args))


def _cdf_cases(rng, L):
    """Weights of L atoms, some zero and some too small to change the
    cumulative sum, with their cumulative weights, and uniforms on every
    cumulative weight, next to it, just below 1 and at random.  One case in
    two sums to 1 - 1e-3, as rounding may leave a sum below 1, so some
    uniforms lie past the last cumulative weight."""
    w = rng.random(L)
    w[rng.random(L) < 0.25] = 0.0
    w[rng.random(L) < 0.1] = 1e-300
    w[rng.integers(L)] += 0.05
    w /= w.sum() / (1.0 if rng.random() < 0.5 else 1.0 - 1e-3)
    cdf = np.cumsum(w)
    edges = np.concatenate([cdf, np.nextafter(cdf, 0.0), np.nextafter(cdf, 2.0)])
    u = np.concatenate([edges[edges < 1.0], [0.0, np.nextafter(1.0, 0.0)], rng.random(1000)])
    return w, cdf, rng.permutation(u)


@pytest.mark.parametrize(
    "L", [1, 2, 3, 7, _kernels._COUNT_MAX_ATOMS, _kernels._COUNT_MAX_ATOMS + 1, 200],
)
def test_cdf_index_is_the_clamped_right_searchsorted(L):
    # The comparison count up to the crossover and the binary search above
    # it both give min(searchsorted(cdf, u, "right"), L - 1).
    rng = derived_rng(211, L)
    for _ in range(20):
        _, cdf, u = _cdf_cases(rng, L)
        expected = np.minimum(np.searchsorted(cdf, u, side="right"), L - 1)
        assert np.array_equal(_kernels._cdf_index(cdf, u), expected)


@pytest.mark.parametrize("L", [1, 4, _kernels._COUNT_MAX_ATOMS, _kernels._COUNT_MAX_ATOMS + 1])
def test_inverse_cdf_draws_over_the_atoms_of_positive_weight(L):
    rng = derived_rng(213, L)
    atoms = np.arange(L, dtype=np.int64) * 3 - 7
    for _ in range(20):
        w, _, u = _cdf_cases(rng, L)
        live = w > 0.0
        index = np.searchsorted(np.cumsum(w[live]), u, side="right")
        expected = atoms[live][np.minimum(index, np.count_nonzero(live) - 1)]
        assert np.array_equal(_kernels._inverse_cdf(atoms, w, u), expected)
    assert _kernels._inverse_cdf(atoms, np.zeros(L), u) is None


@pytest.mark.parametrize("k", [2, _kernels._COUNT_MAX_ATOMS + 5])
def test_pair_assignments_matches_reference_on_either_side_of_the_crossover(k):
    rng = derived_rng(207, k)
    atoms = np.sort(rng.choice(np.arange(-50, 300), size=k, replace=False))
    weights = []
    for _ in range(3):
        w = rng.random(k)
        w[rng.random(k) < 0.3] = 0.0
        w[rng.integers(k)] += 0.05
        weights.append(w / w.sum())
    for agree_prob in (0.0, 0.37, 1.0):
        args = (rng.random((300, 3)), atoms, *weights, agree_prob)
        assert np.array_equal(pair_assignments(*args), _pair_reference(*args))


def test_pair_assignments_empty_residual_degenerates_to_common():
    # Equal up to rounding: 1 - sum min(p, q) is 1.1e-16, below the 1e-15 at
    # which maximal_pair treats the residuals as empty, so every draw agrees.
    third = [0.3333333333333333, 0.3333333333333333, 0.3333333333333334]
    p, q = DiscreteDistribution.from_weights(third), DiscreteDistribution.from_weights(third[::-1])
    draws = maximal_pair(p, q).sample(20_000, seed=3)
    assert np.array_equal(draws[:, 0], draws[:, 1])
    assert set(draws[:, 0].tolist()) == {0, 1, 2}


def test_clipped_mean_zero_row_raises_no_floating_point_error():
    grads = np.array([[[0.0, 0.0], [3.0, 4.0], [0.3, 0.4]]])
    with np.errstate(all="raise"):
        out = clipped_mean(grads, 1.0)
    # rows clip to (0, 0), (0.6, 0.8) and (0.3, 0.4)
    assert np.allclose(out, [[0.3, 0.4]], atol=1e-15)


def _clip_edge_grads(d, scale, trials=4, m=64, clip=5.0):
    """(trials, m, d) gradients with rows on the edges of the clip: trials 2
    and 3 hold rows at exactly norm clip, one ulp outside and one inside it,
    and zero rows; trial 0 a nan row and trial 1 an infinite one.  The other
    rows are random with coordinates of about scale."""
    grads = scale * derived_rng(231, d).standard_normal((trials, m, d))
    edges = np.zeros((6, d))
    edges[0, 0] = clip
    edges[1, 0] = np.nextafter(clip, np.inf)
    edges[2, 0] = np.nextafter(clip, 0.0)
    edges[3, :2] = 3.0, 4.0  # norm 5.0, from two coordinates
    edges[4, -1] = -clip
    # edges[5] stays zero
    grads[2, :6] = edges
    grads[3, -6:] = edges[::-1]
    grads[0, 7, 0] = np.nan
    grads[1, 9, 1] = np.inf
    return grads


@pytest.mark.parametrize("d", [2, 3, 5, 8])
@pytest.mark.parametrize("scale", [0.1, 10.0], ids=["few-rows-outside", "most-rows-outside"])
@pytest.mark.parametrize("returns_batch", [False, True], ids=["new-array", "grad-returns-batch"])
def test_clipped_sum_matches_clipped_mean_bit_for_bit_on_the_clip_edges(d, scale, returns_batch):
    clip = 5.0
    grads = _clip_edge_grads(d, scale, clip=clip)
    trials, m = grads.shape[:2]
    sq, out, total = np.empty((m, trials)), np.empty((m, trials, d)), np.empty((trials, d))
    if returns_batch:
        # The kernel's buffer holds the batch, and grad hands back its view.
        out[...] = grads.transpose(1, 0, 2)
        given = out.transpose(1, 0, 2)
    else:
        given = grads.copy()
    with np.errstate(invalid="ignore"):
        expected = clipped_mean(grads, clip)
    got = _kernels._clipped_sum(given, clip, sq, out, total) / m
    # A nan row makes its trial nan; an infinite coordinate has factor 0 and
    # makes its own coordinate nan.  einsum's sum of a nan may carry another
    # sign bit, so nan places are compared and every other bit.
    nan = np.isnan(expected)
    assert nan[0].all() and nan[1].tolist() == [j == 1 for j in range(d)] and not nan[2:].any()
    assert np.array_equal(np.isnan(got), nan)
    assert got[~nan].tobytes() == expected[~nan].tobytes()
    assert np.abs(expected[2:]).max() > 0.0


# ------------------------------------------------------------ DP-SGML steps


def _dpsgml_reference(data, theta0, batch_idx, step_noise, grad_scale, clip, eta, noise_std, center, radius):
    trials, _, d = data.shape
    K, m = batch_idx.shape[1], batch_idx.shape[2]
    scale_noise = np.sqrt(2.0 * eta) * noise_std
    out = np.empty((trials, d))
    for t in range(trials):
        theta = theta0[t].copy()
        for k in range(K):
            grad = np.zeros(d)
            for b in range(m):
                g = (data[t, batch_idx[t, k, b]] - theta) * grad_scale
                norm = np.sqrt(np.sum(g * g))
                grad += g * (clip / norm if norm > clip else 1.0)
            theta = theta + eta * grad / m + scale_noise * step_noise[t, k]
            dist = np.sqrt(np.sum((theta - center) ** 2))
            if dist > radius:
                theta = center + (theta - center) * (radius / dist)
        out[t] = theta
    return out


def _kernel_args(data, theta0, batch_idx, step_noise, grad_scale, clip, eta, noise_std, center, radius):
    """The reference's arguments as the kernel takes them: a linear gradient
    and the projection onto Ball(center, radius)."""
    grad = lambda X, theta: (X - theta[..., None, :]) * grad_scale  # noqa: E731
    project = Ball(center=tuple(center), radius=radius).project
    return data, theta0, batch_idx, step_noise, grad, project, clip, eta, noise_std


def _random_dpsgml_inputs(rng, trials=4, n=12, d=3, K=6, m=5):
    data = rng.standard_normal((trials, n, d))
    theta0 = 0.1 * rng.standard_normal((trials, d))
    batch_idx = rng.integers(0, n, size=(trials, K, m))
    step_noise = rng.standard_normal((trials, K, d))
    center = np.zeros(d)
    return data, theta0, batch_idx, step_noise, 1.5, 1.0, 0.25, 0.3, center, 2.0


def test_dpsgml_trials_single_step_hand_check():
    data = np.array([[[1.0, -1.0], [3.0, 1.0]]])
    theta0 = np.array([[0.5, 0.5]])
    batch_idx = np.array([[[0, 1]]])
    step_noise = np.zeros((1, 1, 2))
    out = dpsgml_trials(*_kernel_args(data, theta0, batch_idx, step_noise, 1.0, 100.0, 0.5, 0.0, np.zeros(2), 10.0))
    grads = np.array([[0.5, -1.5], [2.5, 0.5]])
    expected = theta0[0] + 0.5 * grads.mean(axis=0)
    assert np.allclose(out[0], expected, atol=1e-12)


def test_dpsgml_trials_clipping_and_projection():
    data = np.array([[[10.0, 0.0]]])
    theta0 = np.array([[0.0, 0.0]])
    batch_idx = np.array([[[0]]])
    step_noise = np.zeros((1, 1, 2))
    out = dpsgml_trials(*_kernel_args(data, theta0, batch_idx, step_noise, 1.0, 2.0, 1.0, 0.0, np.zeros(2), 1.5))
    # gradient (10, 0) clips to (2, 0); the step lands at (2, 0) and projects
    assert np.allclose(out[0], [1.5, 0.0], atol=1e-12)


def test_dpsgml_trials_index_dtype_does_not_change_results():
    args = _kernel_args(*_random_dpsgml_inputs(derived_rng(208), trials=5, n=40, K=8, m=6))
    for dtype in (np.int32, np.uint8, np.uint16):
        narrow = (*args[:2], args[2].astype(dtype), *args[3:])
        assert np.array_equal(dpsgml_trials(*args), dpsgml_trials(*narrow))


def test_dpsgml_trials_matches_reference():
    rng = derived_rng(209)
    clipped = projected = 0
    for _ in range(20):
        # A radius below the spread of the iterates keeps the projection active.
        args = (*_random_dpsgml_inputs(rng)[:-1], 0.3)
        data, theta0, batch_idx, _, grad_scale, clip, _, _, center, radius = args
        out = dpsgml_trials(*_kernel_args(*args))
        assert np.max(np.abs(out - _dpsgml_reference(*args))) <= 1e-12
        first = (data[np.arange(len(data))[:, None], batch_idx[:, 0]] - theta0[:, None]) * grad_scale
        clipped += int(np.sum(np.linalg.norm(first, axis=-1) > clip))
        projected += int(np.sum(np.isclose(np.linalg.norm(out - center, axis=1), radius)))
    # The random inputs exercise both the clip and the projection branches.
    assert clipped > 0 and projected > 0


@pytest.mark.parametrize("d", [1, 3])
def test_dpsgml_trials_grad_may_overwrite_and_return_its_batch(d):
    inputs = _random_dpsgml_inputs(derived_rng(218, d), d=d)
    args = list(_kernel_args(*inputs))

    def in_place(X, theta):
        # The kernel's linear gradient, (X - theta) * grad_scale, in X itself.
        X -= theta[..., None, :]
        X *= inputs[4]
        return X

    expected = dpsgml_trials(*args)
    args[4] = in_place
    assert dpsgml_trials(*args).tobytes() == expected.tobytes()


def _trial_major_steps(data, theta, batch_idx, step_noise, grad, project, clip, eta, noise_std):
    """The reference step loop: C-ordered (trials, m, d) batches, each
    clipped and summed by clipped_mean."""
    trials = data.shape[0]
    scale_noise = np.sqrt(2.0 * eta) * float(noise_std)
    for k in range(batch_idx.shape[1]):
        batch = data[np.arange(trials)[:, None], batch_idx[:, k]]
        mean = clipped_mean(grad(batch, theta), clip)
        theta = project(theta + eta * mean + scale_noise * step_noise[:, k])
    return theta


@pytest.mark.parametrize("d", [1, 2, 5, 66])
@pytest.mark.parametrize("trials, m", [(1, 1), (2, 7), (3, 300), (50, 64)])
def test_dpsgml_trials_matches_the_trial_major_loop_bit_for_bit(d, trials, m):
    inputs = _random_dpsgml_inputs(derived_rng(219, d, m), trials=trials, n=40, d=d, K=4, m=m)
    args = _kernel_args(*inputs[:-1], 0.5)
    assert dpsgml_trials(*args).tobytes() == _trial_major_steps(*args).tobytes()


def _pinned_dpsgml_inputs(d, m):
    """Seeded kernel inputs for a Gaussian model: 5 trials, n = 300, K = 12,
    batches of m or the full batch (m None); some rows clip and some
    iterates leave the ball."""
    rng = derived_rng(215, d, 0 if m is None else m)
    trials, n, K = 5, 300, 12
    model = gaussian_mean_model(d, sigma=1.0, radius=0.8)
    data = 0.4 + 1.5 * rng.standard_normal((trials, n, d))
    theta0 = model.space.project(0.5 * rng.standard_normal((trials, d)))
    if m is None:
        batch_idx = np.broadcast_to(np.arange(n, dtype=np.uint16), (trials, K, n))
    else:
        batch_idx = rng.integers(0, n, size=(trials, K, m), dtype=np.int32).astype(np.uint16)
    step_noise = rng.standard_normal((trials, K, d))
    return data, theta0, batch_idx, step_noise, model.grad, model.space.project, 2.0, 0.25, 0.3


@pytest.mark.parametrize(
    "d, m, sha",
    [
        (1, 64, "2d1084a70e12e9b72848dc79f661e96a96e68187e4d4e90047c595cc647ea87c"),
        (1, None, "521d7fc81d339a7d36c1088c5b3c8ac62ae9bde59959e60bad5a7ab1b8bb4ef8"),
        (2, 64, "44197729cce1dcc7f092e043cd73621327199a7530313f77d2305ba3b08f6728"),
        (2, None, "3c7c07e628046ac3e4cae5b0d63082f8a482bb9b6ab34353d8461d787ba770a3"),
        (5, 64, "c7f5a4d035b2159a57c7ac0fb9246b9f1690930dd0727d472eab0ed3f630f605"),
        (5, None, "c2fe409067d7150d9c9bebcc2bebae8de5cb6e871de31e346768a8550e68145a"),
    ],
)
def test_dpsgml_trials_rows_are_pinned(d, m, sha):
    # Digests taken on a trial-major step loop summed by einsum: no change of
    # layout or summation order may move a bit.
    rows = dpsgml_trials(*_pinned_dpsgml_inputs(d, m))
    assert rows.shape == (5, d) and rows.dtype == np.float64
    assert hashlib.sha256(rows.tobytes()).hexdigest() == sha


# ------------------------------------------------------- forked trial ranges


def _marked_grad(X, theta):
    if np.any(X == 1e6):
        raise FloatingPointError("a marked record reached grad")
    return X - theta[..., None, :]


def test_trial_ranges_never_hold_a_single_trial(monkeypatch):
    for cpus in range(1, 5):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)))
        for trials in range(1, 21):
            sizes = np.diff(_kernels._range_bounds(trials, True, 2))
            assert sizes.sum() == trials and len(sizes) == max(1, min(cpus, trials // 2))
            assert len(sizes) == 1 or sizes.min() >= 2
        assert _kernels._range_bounds(100, False, 2) == [0, 100]


@pytest.mark.parametrize("marked", [0, 5], ids=["first_range", "last_range"])
def test_dpsgml_trials_failing_range_raises_as_in_process(workers, marked):
    # Six trials on three workers: ranges [0, 2), [2, 4) and [4, 6); the
    # first runs in this process, the last in the second child.
    args = list(_kernel_args(*_random_dpsgml_inputs(derived_rng(210), trials=6)))
    args[0][marked] = 1e6
    args[4] = _marked_grad
    messages = []
    for cpus in (1, 3):
        workers.cpus = cpus
        with pytest.raises(FloatingPointError) as info:
            dpsgml_trials(*args)
        messages.append(str(info.value))
    assert messages == ["a marked record reached grad"] * 2
    assert workers.forks == 2
    assert_no_child_left()


def test_dpsgml_trials_forked_rows_match_and_leave_no_child(workers):
    args = _kernel_args(*_random_dpsgml_inputs(derived_rng(211), trials=7))
    serial = dpsgml_trials(*args)
    workers.cpus = 3
    assert dpsgml_trials(*args).tobytes() == serial.tobytes()
    assert workers.forks == 2
    assert_no_child_left()


def test_dpsgml_trials_runs_ranges_here_when_fork_fails(workers, monkeypatch):
    args = _kernel_args(*_random_dpsgml_inputs(derived_rng(212), trials=6))
    serial = dpsgml_trials(*args)

    def no_fork():
        raise BlockingIOError("Resource temporarily unavailable")

    monkeypatch.setattr(os, "fork", no_fork)
    workers.cpus = 3
    assert dpsgml_trials(*args).tobytes() == serial.tobytes()


def test_dpsgml_trials_forks_from_its_work_threshold_on(workers, monkeypatch):
    args = _kernel_args(*_random_dpsgml_inputs(derived_rng(214), trials=6))
    trials, K, m = args[2].shape
    workers.cpus = 2
    monkeypatch.setattr(_kernels, "_FORK_MIN_STEPS", trials * K * m + 1)
    serial = dpsgml_trials(*args)
    assert workers.forks == 0
    monkeypatch.setattr(_kernels, "_FORK_MIN_STEPS", trials * K * m)
    assert dpsgml_trials(*args).tobytes() == serial.tobytes()
    assert workers.forks == 1
    assert_no_child_left()


def test_dpsgml_trials_never_forks_with_one_cpu_or_a_live_thread(workers):
    args = _kernel_args(*_random_dpsgml_inputs(derived_rng(213), trials=6))
    dpsgml_trials(*args)
    workers.cpus = 3
    stop = threading.Event()
    thread = threading.Thread(target=stop.wait)
    thread.start()
    try:
        dpsgml_trials(*args)
    finally:
        stop.set()
        thread.join(timeout=10)
    assert not thread.is_alive()
    assert workers.forks == 0
    # With the thread gone the same call forks.
    dpsgml_trials(*args)
    assert workers.forks == 2
    assert_no_child_left()


def _blas_grad(X, theta):
    # A threaded BLAS product in every step of every range, forked or not.
    a = np.ones((256, 256))
    a @ a
    return X - theta[..., None, :]


def test_dpsgml_trials_forks_after_a_blas_call(workers):
    # A 256 x 256 product leaves numpy's OpenBLAS pool of OS threads idle in
    # this process.  They are not Python threads, so the call forks; OpenBLAS
    # shuts the pool down before each fork, and the children's own products
    # start a new one.
    args = list(_kernel_args(*_random_dpsgml_inputs(derived_rng(215), trials=6)))
    args[4] = _blas_grad
    serial = dpsgml_trials(*args)
    workers.cpus = 3
    a = derived_rng(216).standard_normal((256, 256))
    a @ a
    assert threading.active_count() == 1
    assert dpsgml_trials(*args).tobytes() == serial.tobytes()
    assert workers.forks == 2
    assert_no_child_left()


# ------------------------------------------------------------- stream tags


def test_derived_rng_is_deterministic():
    a = derived_rng(7, 1, 2).standard_normal(5)
    b = derived_rng(7, 1, 2).standard_normal(5)
    assert np.array_equal(a, b)


def test_derived_rng_tags_separate_streams():
    base = derived_rng(7).standard_normal(5)
    tagged = derived_rng(7, 0).standard_normal(5)
    other = derived_rng(7, 1).standard_normal(5)
    assert not np.array_equal(base, tagged)
    assert not np.array_equal(tagged, other)


def test_derived_rng_rejects_negative_tags():
    with pytest.raises(ValueError):
        derived_rng(3, -1)
    # trial_rngs raises the same errors when called, not at the first trial.
    for seed, tags in ((-1, ()), (3, (-1,)), (3, (0, -2))):
        with pytest.raises(ValueError) as expected:
            derived_rng(seed, *tags, 0)
        with pytest.raises(ValueError, match=str(expected.value)):
            trial_rngs(seed, tags, 2)


def test_spawn_keys_enumerate_trial_streams():
    keys = spawn_keys(5, 3, 9)
    assert keys == [(5, 9, 0), (5, 9, 1), (5, 9, 2)]
    direct = derived_rng(5, 9, 1).standard_normal(4)
    via_key = derived_rng(*keys[1]).standard_normal(4)
    assert np.array_equal(direct, via_key)


# ---------------------------------------------------------- bulk trial streams


_SEEDS = [0, 2**32 - 1, 2**32, 2**40 + 5]
_TAGS = [(), (0,), (3, 0), (2**33 + 7,)]


def _draws(rng):
    # Three 32-bit draws leave half a word buffered.
    return rng.standard_normal(3).tolist(), rng.integers(0, 7, size=3).tolist()


@pytest.mark.parametrize("seed", _SEEDS)
@pytest.mark.parametrize("tags", _TAGS)
def test_trial_t_is_the_cell_key_at_counter_t_times_2_to_the_128(seed, tags):
    low, high = np.random.SeedSequence((len(tags) + 1, seed, *tags, 0)).generate_state(2, np.uint64)
    key = int(low) | int(high) << 64
    for t in (1, 2**32, 2**64 + 3):
        expected = np.random.Generator(np.random.Philox(key=key, counter=t << 128))
        assert _draws(derived_rng(seed, *tags, t)) == _draws(expected)


@pytest.mark.parametrize("seed", _SEEDS)
@pytest.mark.parametrize("tags", _TAGS)
def test_tagless_streams_and_trial_0_are_seedsequence_streams(seed, tags):
    # The bits these streams had before trials were addressed by the counter.
    def seeded(*entropy):
        return np.random.Generator(np.random.Philox(np.random.SeedSequence(entropy)))

    assert _draws(derived_rng(seed)) == _draws(seeded(0, seed))
    assert _draws(derived_rng(seed, *tags, 0)) == _draws(seeded(len(tags) + 1, seed, *tags, 0))
    assert _draws(next(trial_rngs(seed, tags, 1))) == _draws(seeded(len(tags) + 1, seed, *tags, 0))


def test_trial_index_and_count_must_be_below_2_to_the_128():
    # The last trial fills counter words 2-3; the largest count is accepted
    # without walking its trials.
    low, high = np.random.SeedSequence((2, 3, 1, 0)).generate_state(2, np.uint64)
    last = np.random.Philox(key=int(low) | int(high) << 64, counter=(2**128 - 1) << 128)
    assert _draws(derived_rng(3, 1, 2**128 - 1)) == _draws(np.random.Generator(last))
    trial_rngs(3, (1,), 2**128 - 1)
    with pytest.raises(ValueError, match="2\\*\\*128"):
        derived_rng(3, 1, 2**128)
    with pytest.raises(ValueError, match="2\\*\\*128"):
        trial_rngs(3, (1,), 2**128)


@pytest.mark.parametrize("seed", _SEEDS)
@pytest.mark.parametrize("tags", _TAGS)
def test_trial_rngs_match_derived_rng(seed, tags):
    for count in (0, 1, 129, 1000):
        seen = 0
        for t, rng in enumerate(trial_rngs(seed, tags, count)):
            expected = derived_rng(seed, *tags, t)
            assert rng.standard_normal(2).tolist() == expected.standard_normal(2).tolist()
            # Three 32-bit draws leave half a word buffered, which the next
            # trial must not see.
            assert rng.integers(0, 7, size=3).tolist() == expected.integers(0, 7, size=3).tolist()
            seen += 1
        assert seen == count


def test_trial_rngs_started_at_a_trial_walk_the_slice_of_a_full_walk():
    seed, tags = 5, (2, 0)
    full = [_draws(r) for r in trial_rngs(seed, tags, 10)]
    for start in (0, 4, 9, 10, 12):
        assert [_draws(r) for r in trial_rngs(seed, tags, 10, start)] == full[start:]
    # Past 2**64 the trial reaches counter word 3; trial t of a full walk is
    # derived_rng(seed, *tags, t) (test_trial_rngs_match_derived_rng).
    start = 2**64 - 1
    walk = [_draws(r) for r in trial_rngs(seed, tags, start + 3, start)]
    assert walk == [_draws(derived_rng(seed, *tags, t)) for t in range(start, start + 3)]
    with pytest.raises(ValueError, match="start"):
        trial_rngs(seed, tags, 7, -1)


class _Coin:
    def sample(self, theta, n, rng):
        return (rng.random(n) < theta).astype(np.float64)


class _Uniform:
    def sample(self, theta, n, rng):
        return theta * rng.random(n)


def _reference_risk(model, theta_star, mechanism, n, trials, seed, tags):
    losses = np.empty(trials)
    for t in range(trials):
        rng = derived_rng(seed, *tags, t)
        gap = mechanism(model.sample(theta_star, n, rng), rng) - theta_star
        losses[t] = gap * gap
    return float(losses.mean()), float(losses.std(ddof=1) / np.sqrt(trials))


@pytest.mark.parametrize(
    "model, theta_star, mechanism, n",
    [
        (_Uniform(), 1.0, lambda data, rng: float(data.max()), 10),
        (_Coin(), 0.3, lambda data, rng: laplace_mean(data, 0.8, rng), 50),
    ],
    ids=["uniform_max", "bernoulli_laplace"],
)
def test_monte_carlo_risk_matches_per_trial_streams(model, theta_star, mechanism, n):
    est = monte_carlo_risk(model, theta_star, mechanism, n, 300, 11, tags=(4,))
    assert (est.risk, est.stderr) == _reference_risk(model, theta_star, mechanism, n, 300, 11, (4,))
