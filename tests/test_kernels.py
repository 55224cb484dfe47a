"""Reference and stream-derivation tests for the numerical kernels."""

import numpy as np
import pytest

from dpminimax import derived_rng, spawn_keys
from dpminimax._kernels import backend, dpsgml_trials, pair_assignments, races_winners
from dpminimax._rng import trial_rngs
from dpminimax.experiments import _bernoulli_sampler, _uniform_sampler, monte_carlo_risk
from dpminimax.mechanisms import laplace_mean


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


# --------------------------------------------------------- pair assignments


def _pair_reference(u, agree_prob, common_cdf, pos_cdf, neg_cdf):
    out = np.empty((u.shape[0], 2), dtype=np.int64)
    for t in range(u.shape[0]):
        if u[t, 0] < agree_prob:
            idx = min(int(np.searchsorted(common_cdf, u[t, 1], side="right")), len(common_cdf) - 1)
            out[t] = idx, idx
        elif len(pos_cdf) > 0:
            x = min(int(np.searchsorted(pos_cdf, u[t, 1], side="right")), len(pos_cdf) - 1)
            y = min(int(np.searchsorted(neg_cdf, u[t, 2], side="right")), len(neg_cdf) - 1)
            out[t] = x, y
        else:
            out[t] = 0, 0
    return out


def _random_pair_inputs(rng, trials=256):
    u = rng.random((trials, 3))
    agree_prob = float(rng.random())
    common = np.sort(rng.random(int(rng.integers(1, 5))))
    common /= common[-1]
    pos = np.sort(rng.random(int(rng.integers(1, 4))))
    pos /= pos[-1]
    neg = np.sort(rng.random(len(pos)))
    neg /= neg[-1]
    return u, agree_prob, common, pos, neg


def test_pair_assignments_matches_reference():
    rng = derived_rng(205)
    for _ in range(10):
        args = _random_pair_inputs(rng)
        expected = _pair_reference(*args)
        assert np.array_equal(pair_assignments(*args), expected)


def test_pair_assignments_empty_residual_degenerates_to_common():
    u = np.array([[0.99, 0.4, 0.6]])
    out = pair_assignments(u, 0.5, np.array([0.5, 1.0]), np.array([]), np.array([]))
    assert np.array_equal(out, [[0, 0]])


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
    out = dpsgml_trials(data, theta0, batch_idx, step_noise, 1.0, 100.0, 0.5, 0.0, np.zeros(2), 10.0)
    grads = np.array([[0.5, -1.5], [2.5, 0.5]])
    expected = theta0[0] + 0.5 * grads.mean(axis=0)
    assert np.allclose(out[0], expected, atol=1e-12)


def test_dpsgml_trials_clipping_and_projection():
    data = np.array([[[10.0, 0.0]]])
    theta0 = np.array([[0.0, 0.0]])
    batch_idx = np.array([[[0]]])
    step_noise = np.zeros((1, 1, 2))
    out = dpsgml_trials(data, theta0, batch_idx, step_noise, 1.0, 2.0, 1.0, 0.0, np.zeros(2), 1.5)
    # gradient (10, 0) clips to (2, 0); the step lands at (2, 0) and projects
    assert np.allclose(out[0], [1.5, 0.0], atol=1e-12)


def test_dpsgml_trials_index_dtype_does_not_change_results():
    args = _random_dpsgml_inputs(derived_rng(208), trials=5, n=40, K=8, m=6)
    narrow = (*args[:2], args[2].astype(np.int32), *args[3:])
    assert np.array_equal(dpsgml_trials(*args), dpsgml_trials(*narrow))


def test_dpsgml_trials_matches_reference():
    rng = derived_rng(209)
    clipped = projected = 0
    for _ in range(20):
        # A radius below the spread of the iterates keeps the projection active.
        args = (*_random_dpsgml_inputs(rng)[:-1], 0.3)
        data, theta0, batch_idx, _, grad_scale, clip, _, _, center, radius = args
        out = dpsgml_trials(*args)
        assert np.max(np.abs(out - _dpsgml_reference(*args))) <= 1e-12
        first = (data[np.arange(len(data))[:, None], batch_idx[:, 0]] - theta0[:, None]) * grad_scale
        clipped += int(np.sum(np.linalg.norm(first, axis=-1) > clip))
        projected += int(np.sum(np.isclose(np.linalg.norm(out - center, axis=1), radius)))
    # The random inputs exercise both the clip and the projection branches.
    assert clipped > 0 and projected > 0


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


@pytest.mark.parametrize("seed", [0, 2**32 - 1, 2**32, 2**40 + 5])
@pytest.mark.parametrize("tags", [(), (0,), (3, 0), (2**33 + 7,)])
def test_trial_rngs_match_derived_rng(seed, tags):
    for count in (0, 1, 129, 1000):
        seen = 0
        for t, rng in enumerate(trial_rngs(seed, tags, count)):
            ref = np.random.Philox(np.random.SeedSequence((len(tags) + 1, seed, *tags, t)))
            assert np.array_equal(rng.bit_generator.state["state"]["key"], ref.state["state"]["key"])
            expected = derived_rng(seed, *tags, t)
            assert rng.standard_normal(2).tolist() == expected.standard_normal(2).tolist()
            # Three 32-bit draws leave half a word buffered, which the next
            # trial must not see.
            assert rng.integers(0, 7, size=3).tolist() == expected.integers(0, 7, size=3).tolist()
            seen += 1
        assert seen == count


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
        (_uniform_sampler(), 1.0, lambda data, rng: float(data.max()), 10),
        (_bernoulli_sampler(), 0.3, lambda data, rng: laplace_mean(data, 0.8, rng), 50),
    ],
    ids=["uniform_max", "bernoulli_laplace"],
)
def test_monte_carlo_risk_matches_per_trial_streams(model, theta_star, mechanism, n):
    est = monte_carlo_risk(model, theta_star, mechanism, n, 300, 11, tags=(4,))
    assert (est.risk, est.stderr) == _reference_risk(model, theta_star, mechanism, n, 300, 11, (4,))
