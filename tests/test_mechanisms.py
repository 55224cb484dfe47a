"""Tests for private mechanisms, finite kernels, and DP-SGML."""

import dataclasses
import hashlib
import itertools
import math
import os
import warnings

import numpy as np
import pytest

from dpminimax import _kernels, mechanisms
from dpminimax import (
    Ball,
    Box,
    DomainError,
    DPSGMLConfig,
    InsufficientBudget,
    NonFinite,
    ParametricModel,
    PrivacyConstraint,
    derived_rng,
    dp_sgml,
    dp_sgml_batch,
    dp_sgml_config,
    estimate_xi2,
    gaussian_mean,
    gaussian_mean_model,
    identity_kernel,
    laplace_mean,
    mle_pga,
    project,
    randomized_response,
    rr_kernel,
    rr_sum_kernel,
    verify_group_privacy,
    verify_privacy,
)

TRIALS = 20_000


# -------------------------------------------------------------- Ball / Box


def test_ball_contains_and_projects():
    ball = Ball(center=(0.0, 0.0), radius=1.0)
    assert ball.contains((0.6, 0.8))
    assert not ball.contains((0.7, 0.8))
    projected = ball.project((3.0, 4.0))
    assert np.allclose(projected, [0.6, 0.8], atol=1e-12)
    assert np.allclose(ball.project((0.1, 0.2)), [0.1, 0.2], atol=1e-15)
    with pytest.raises(DomainError):
        Ball(center=(0.0,), radius=0.0)


def test_ball_projects_row_by_row():
    ball = Ball(center=(1.0, -1.0), radius=0.5)
    rows = np.array([[[1.0, -1.0], [4.0, 3.0]], [[1.2, -1.1], [0.0, -1.0]]])
    out = ball.project(rows)
    assert out.shape == rows.shape
    for idx in np.ndindex(rows.shape[:-1]):
        assert np.array_equal(out[idx], ball.project(rows[idx]))
    inside = rows[:, 0]
    assert ball.project(inside) is inside
    # Rows inside keep their bits next to rows outside, also where c + (p - c)
    # is not p.
    ball = Ball(center=(0.0, 3.0), radius=2.9)
    rows = derived_rng(30).uniform(-1.0, 1.0, (200, 2)) * (1.0, 3.0) + (0.0, 1.0)
    out = ball.project(rows)
    assert 0 < np.sum(np.any(out != rows, axis=1)) < len(rows)
    for row, projected in zip(rows, out):
        assert projected.tobytes() == ball.project(row).tobytes()


@pytest.mark.parametrize(
    "center, radius, name",
    [((0.0,), math.nan, "radius"), ((0.0,), -1.0, "radius"), ((math.nan, 0.0), 1.0, "center"),
     ((math.inf,), 1.0, "center")],
)
def test_ball_rejects_bad_radius_and_center(center, radius, name):
    with pytest.raises(DomainError, match=name):
        Ball(center=center, radius=radius)


def test_ball_of_infinite_radius_projects_nothing():
    point = np.array([1e100, -3.0])
    assert Ball(center=(0.0, 0.0), radius=math.inf).project(point) is point


def test_box_contains_and_projects():
    box = Box(lo=(0.0, -1.0), hi=(1.0, 1.0))
    assert box.contains((0.5, 0.0))
    assert not box.contains((1.5, 0.0))
    assert np.allclose(box.project((2.0, -3.0)), [1.0, -1.0], atol=1e-15)
    assert np.allclose(project(box, (0.5, 0.5)), [0.5, 0.5], atol=1e-15)
    with pytest.raises(DomainError):
        Box(lo=(1.0,), hi=(0.0,))


@pytest.mark.parametrize("lo, hi, name", [((math.nan,), (1.0,), "lo"), ((0.0, -1.0), (1.0, math.nan), "hi")])
def test_box_rejects_nan_bounds(lo, hi, name):
    with pytest.raises(DomainError, match=name):
        Box(lo=lo, hi=hi)
    # Infinite bounds stay legal.
    box = Box(lo=(-math.inf, 0.0), hi=(math.inf, math.inf))
    assert np.array_equal(box.project([5.0, -2.0]), [5.0, 0.0])


def test_dim_is_the_number_of_coordinates():
    assert Ball(center=(1.0, 2.0, 3.0), radius=1.0).dim == 3
    assert Box(lo=(0.0, -1.0), hi=(1.0, 1.0)).dim == 2


def test_inradius_is_the_largest_inscribed_ball():
    assert Ball(center=(1.0, 2.0), radius=3.5).inradius == 3.5
    assert Box(lo=(0.0, -1.0, -5.0), hi=(1.0, 1.0, 5.0)).inradius == 0.5
    assert Box(lo=(-math.inf, 0.0), hi=(math.inf, 4.0)).inradius == 2.0


# ------------------------------------------------------- noisy mean outputs


def test_laplace_mean_noise_variance():
    rng = derived_rng(1)
    data = np.zeros(10)
    eps = 1.0
    outputs = np.array([laplace_mean(data, eps, rng) for _ in range(TRIALS)])
    b = 1.0 / (10 * eps)
    noise_var = 2.0 * b * b
    assert abs(float(outputs.mean())) <= 4.0 * math.sqrt(noise_var / TRIALS)
    var_stderr = math.sqrt(20.0) * b * b / math.sqrt(TRIALS)
    assert abs(float((outputs**2).mean()) - noise_var) <= 4.0 * var_stderr


def test_gaussian_mean_noise_variance():
    rng = derived_rng(2)
    data = np.zeros(10)
    rho = 1.0
    outputs = np.array([gaussian_mean(data, rho, rng) for _ in range(TRIALS)])
    sigma2 = (2.0 / (10 * math.sqrt(rho))) ** 2
    assert abs(float(outputs.mean())) <= 4.0 * math.sqrt(sigma2 / TRIALS)
    var_stderr = math.sqrt(2.0) * sigma2 / math.sqrt(TRIALS)
    assert abs(float((outputs**2).mean()) - sigma2) <= 4.0 * var_stderr


def test_noisy_means_validate_inputs():
    rng = derived_rng(3)
    with pytest.raises(DomainError):
        laplace_mean(np.array([0.5, 1.5]), 1.0, rng)
    with pytest.raises(DomainError):
        laplace_mean(np.array([0.5]), 0.0, rng)
    with pytest.raises(DomainError):
        gaussian_mean(np.array([-0.1]), 1.0, rng)
    with pytest.raises(DomainError):
        gaussian_mean(np.array([0.5]), -1.0, rng)
    with pytest.raises(DomainError):
        laplace_mean(np.zeros((2, 2)), 1.0, rng)


def test_noisy_means_reject_nan_data():
    # nan fails both sides of a [0, 1] range test, so it must not pass as inside.
    rng = derived_rng(3)
    with pytest.raises(DomainError, match=r"\[0, 1\]"):
        laplace_mean(np.array([math.nan, 0.5]), 1.0, rng)
    with pytest.raises(DomainError, match=r"\[0, 1\]"):
        gaussian_mean(np.array([math.nan]), 1.0, rng)


@pytest.mark.parametrize("budget", [math.nan, math.inf])
def test_mean_mechanisms_reject_non_finite_budgets(budget):
    rng = derived_rng(3)
    with pytest.raises(DomainError, match="epsilon"):
        laplace_mean(np.array([0.5]), budget, rng)
    with pytest.raises(DomainError, match="rho"):
        gaussian_mean(np.array([0.5]), budget, rng)
    with pytest.raises(DomainError, match="epsilon"):
        randomized_response(1, budget, rng)


def test_clamped_outputs_stay_in_unit_interval():
    rng = derived_rng(4)
    data = np.ones(2)
    outputs = [laplace_mean(data, 0.1, rng, clamp=True) for _ in range(200)]
    outputs += [gaussian_mean(data, 0.01, rng, clamp=True) for _ in range(200)]
    assert all(0.0 <= o <= 1.0 for o in outputs)


# ------------------------------------------------------ randomized response


def test_randomized_response_keep_probability():
    rng = derived_rng(5)
    eps = math.log(3.0)
    kept = sum(randomized_response(1, eps, rng) for _ in range(TRIALS)) / TRIALS
    assert abs(kept - 0.75) <= 4.0 * math.sqrt(0.75 * 0.25 / TRIALS)


def test_randomized_response_validation():
    rng = derived_rng(6)
    with pytest.raises(DomainError):
        randomized_response(2, 1.0, rng)
    with pytest.raises(DomainError):
        randomized_response(0, 0.0, rng)


def test_rr_kernel_single_bit_matrix():
    kernel = rr_kernel(math.log(3.0), 1).kernel
    assert np.allclose(kernel, [[0.75, 0.25], [0.25, 0.75]], atol=1e-12)


def test_rr_kernel_rows_are_distributions():
    for n in (1, 2):
        mech = rr_kernel(0.5, n)
        assert mech.n_datasets == 2**n
        assert mech.n_outputs == 2**n
        assert np.allclose(mech.kernel.sum(axis=1), 1.0, atol=1e-12)


def test_rr_sum_kernel_shape_and_rows():
    mech = rr_sum_kernel(math.log(2.0), 2)
    assert mech.n_outputs == 3
    assert np.allclose(mech.kernel.sum(axis=1), 1.0, atol=1e-12)
    keep = 2.0 / 3.0
    expected_row_00 = [keep**2, 2 * keep * (1 - keep), (1 - keep) ** 2]
    assert np.allclose(mech.kernel[0], expected_row_00, atol=1e-12)


def test_rr_kernels_are_private_identity_is_not():
    eps = math.log(3.0)
    assert verify_privacy(rr_kernel(eps, 1), PrivacyConstraint.pure(eps)).holds
    assert verify_privacy(rr_sum_kernel(eps, 2), PrivacyConstraint.pure(eps)).holds
    res = verify_privacy(identity_kernel(2, 1), PrivacyConstraint.pure(eps))
    assert not res.holds
    assert res.witness is not None


def test_rr_kernel_fails_tighter_epsilon():
    res = verify_privacy(rr_kernel(math.log(3.0), 1), PrivacyConstraint.pure(1.0))
    assert not res.holds


def test_kernel_constructor_validation():
    with pytest.raises(DomainError):
        rr_kernel(0.0, 1)
    with pytest.raises(DomainError):
        rr_kernel(1.0, 0)
    with pytest.raises(DomainError):
        rr_sum_kernel(-1.0, 2)
    for bad in (math.nan, math.inf):
        # Caught by the epsilon guard, before the kernel check sees nan entries.
        with pytest.raises(DomainError, match="epsilon"):
            rr_kernel(bad, 1)
        with pytest.raises(DomainError, match="epsilon"):
            rr_sum_kernel(bad, 2)


def test_rr_keep_over_flip_is_e_to_the_eps():
    # keep and flip are each computed from e^-eps, so their ratio keeps the
    # precision that 1 - keep loses once keep is close to 1.
    rng = derived_rng(7)
    for eps in [1e-300, 1e-8, math.log(3.0), 9.94, 10.4, 36.0, 40.0, 700.0] + list(rng.uniform(0.0, 700.0, 200)):
        keep, flip = mechanisms._rr_keep_flip(float(eps))
        assert keep / flip == pytest.approx(math.exp(eps), rel=8 * np.finfo(float).eps)


def test_rr_kernels_at_large_eps_do_not_overflow():
    for eps in (800.0, 1e300):
        assert np.array_equal(rr_kernel(eps, 2).kernel, np.eye(4))
        weights = [0, 1, 1, 2]  # the weight of each dataset's own word
        assert np.array_equal(rr_sum_kernel(eps, 2).kernel, np.eye(3)[weights])
        rng = derived_rng(8)
        assert all(randomized_response(bit, eps, rng) == bit for bit in (0, 1) * 10)


@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("make_kernel", [rr_kernel, rr_sum_kernel], ids=["rr", "rr_sum"])
def test_rr_kernels_are_private_at_large_eps(make_kernel, n):
    # From eps = 9.94 on, a flip probability taken as 1 - keep was off by
    # enough to refute these verdicts.
    for eps in (9.94, 10.4, 12.0, 20.0, 36.0, 40.0, 100.0, 230.0):
        mech = make_kernel(eps, n)
        assert verify_privacy(mech, PrivacyConstraint.pure(eps)).holds, eps
        assert verify_privacy(mech, PrivacyConstraint.approx(eps, 1e-3)).holds, eps
        assert verify_group_privacy(mech, PrivacyConstraint.pure(eps)), eps


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_rr_kernel_matches_a_per_entry_reference(n):
    for eps in (0.05, math.log(3.0), 10.4, 230.0):
        keep, flip = mechanisms._rr_keep_flip(eps)
        expected = [
            [keep ** (n - bin(x ^ o).count("1")) * flip ** bin(x ^ o).count("1") for o in range(2**n)]
            for x in range(2**n)
        ]
        # numpy may take small integer powers by repeated multiplication.
        assert np.allclose(rr_kernel(eps, n).kernel, expected, rtol=4 * np.finfo(float).eps, atol=0.0)


def _binomial_sum_row(keep, flip, bits):
    """The law of the number of ones among independent randomized responses."""
    dist = np.array([1.0])
    for b in bits:
        p_one = keep if b == 1 else flip
        p_zero = flip if b == 1 else keep
        dist = np.append(dist * p_zero, 0.0) + np.append(0.0, dist * p_one)
    return dist


@pytest.mark.parametrize("n", [1, 2, 3, 5])
def test_rr_sum_kernel_matches_a_binomial_convolution(n):
    for eps in (0.05, math.log(3.0), 2.5, 10.4, 40.0):
        keep, flip = mechanisms._rr_keep_flip(eps)
        expected = [
            _binomial_sum_row(keep, flip, [(x >> (n - 1 - i)) & 1 for i in range(n)])
            for x in range(2**n)
        ]
        assert np.allclose(rr_sum_kernel(eps, n).kernel, expected, rtol=0.0, atol=1e-15)


# ---------------------------------------------------------- parametric model


def test_gaussian_model_gradient_matches_finite_differences():
    model = gaussian_mean_model(4, sigma=1.5, radius=2.0)
    rng = derived_rng(7)
    X = rng.standard_normal((6, 4))
    theta = rng.standard_normal(4) * 0.3
    grad = model.grad(X, theta)
    h = 1e-6
    for j in range(4):
        shift = np.zeros(4)
        shift[j] = h
        numeric = (model.loglik(X, theta + shift) - model.loglik(X, theta - shift)) / (2 * h)
        assert np.allclose(grad[:, j], numeric, atol=1e-5)


def test_gaussian_model_grad_broadcasts_over_leading_axes():
    model = gaussian_mean_model(3, sigma=0.7)
    rng = derived_rng(8)
    X = rng.standard_normal((4, 6, 3))
    theta = rng.standard_normal((4, 3))
    grad = model.grad(X, theta)
    assert grad.shape == X.shape
    for t in range(4):
        assert np.array_equal(grad[t], model.grad(X[t], theta[t]))


def test_gaussian_model_constants():
    model = gaussian_mean_model(3, sigma=2.0, radius=1.0, clip_norm=0.7, smoothness=5.0)
    assert model.lam == pytest.approx(0.25)
    assert model.beta == 5.0
    assert model.L == 0.7
    assert model.gamma == pytest.approx(0.125)
    assert isinstance(model.space, Ball)


def test_gaussian_model_validation():
    with pytest.raises(DomainError):
        gaussian_mean_model(3, sigma=0.0)
    with pytest.raises(DomainError):
        gaussian_mean_model(3, sigma=1.0, smoothness=0.5)
    for sigma in (math.nan, math.inf):
        with pytest.raises(DomainError, match="sigma"):
            gaussian_mean_model(3, sigma=sigma)
    for smoothness in (math.nan, math.inf):
        with pytest.raises(DomainError, match="beta"):
            gaussian_mean_model(3, smoothness=smoothness)


def test_parametric_model_validation():
    dummy = lambda *a: None
    with pytest.raises(DomainError):
        ParametricModel(dim=0, space=Ball((0.0,), 1.0), sample=dummy, loglik=dummy, grad=dummy, mle=dummy)
    with pytest.raises(DomainError):
        ParametricModel(
            dim=1, space=Ball((0.0,), 1.0), sample=dummy, loglik=dummy, grad=dummy, mle=dummy,
            lam=2.0, beta=1.0,
        )


@pytest.mark.parametrize("field", ["L", "gamma"])
@pytest.mark.parametrize("value", [math.nan, math.inf])
def test_parametric_model_rejects_non_finite_clip_and_kl_constant(field, value):
    dummy = lambda *a: None
    with pytest.raises(DomainError, match=field):
        ParametricModel(
            dim=1, space=Ball((0.0,), 1.0), sample=dummy, loglik=dummy, grad=dummy, mle=dummy,
            **{field: value},
        )


@pytest.mark.parametrize("field", ["lam", "beta"])
@pytest.mark.parametrize("value", [math.nan, math.inf])
def test_parametric_model_rejects_non_finite_curvature(field, value):
    dummy = lambda *a: None
    with pytest.raises(DomainError, match=field):
        ParametricModel(
            dim=1, space=Ball((0.0,), 1.0), sample=dummy, loglik=dummy, grad=dummy, mle=dummy,
            **{field: value},
        )


# ------------------------------------------------------------- DP-SGML


def test_dp_sgml_config_hand_values():
    model = gaussian_mean_model(5)
    cfg = dp_sgml_config(100, 5, 0.1, model, 16)
    assert cfg.sigma2_noise == pytest.approx(0.004, abs=1e-15)
    assert cfg.eta == 0.5
    assert cfg.K == 11
    assert cfg.m == 16
    assert cfg.clip == 1.0


def test_dp_sgml_config_budget_boundary():
    model = gaussian_mean_model(5)
    with pytest.raises(InsufficientBudget):
        dp_sgml_config(11, 5, 0.1, model, 16)
    cfg = dp_sgml_config(12, 5, 0.1, model, 16)
    assert cfg.K >= 1


def test_dp_sgml_config_validation():
    model = gaussian_mean_model(5)
    with pytest.raises(DomainError):
        dp_sgml_config(0, 5, 0.1, model, 16)
    with pytest.raises(DomainError):
        DPSGMLConfig(sigma2_noise=-1.0, K=5, eta=0.1, m=4, rho=0.1, clip=1.0)
    with pytest.raises(DomainError):
        DPSGMLConfig(sigma2_noise=0.1, K=0, eta=0.1, m=4, rho=0.1, clip=1.0)
    with pytest.raises(DomainError):
        DPSGMLConfig(sigma2_noise=0.1, K=5, eta=0.1, m=0, rho=0.1, clip=1.0)


@pytest.mark.parametrize("field", ["sigma2_noise", "eta", "rho", "clip"])
@pytest.mark.parametrize("value", [math.nan, math.inf])
def test_dp_sgml_config_rejects_non_finite_fields(field, value):
    good = dict(sigma2_noise=0.1, K=3, eta=0.5, m=None, rho=1.0, clip=1.0)
    with pytest.raises(DomainError, match=field):
        DPSGMLConfig(**{**good, field: value})


@pytest.mark.parametrize("rho", [math.nan, math.inf])
def test_dp_sgml_calibration_rejects_non_finite_rho(rho):
    with pytest.raises(DomainError, match="rho"):
        dp_sgml_config(100, 2, rho, gaussian_mean_model(2), 8)


def test_zero_noise_full_batch_recovers_sample_mean():
    model = gaussian_mean_model(3, sigma=1.0, radius=10.0, clip_norm=1e9)
    cfg = DPSGMLConfig(sigma2_noise=0.0, K=600, eta=0.5, m=None, rho=1.0, clip=1e9)
    rng = derived_rng(11)
    data = model.sample(np.array([0.3, -0.2, 0.1]), 100, rng)
    out = dp_sgml(data, model, cfg, derived_rng(12))
    assert np.allclose(out, data.mean(axis=0), atol=1e-10)


def test_dp_sgml_draws_in_order_and_matches_a_plain_loop():
    # Initial normals, then all batch indices, then all step noise.
    model = gaussian_mean_model(3, sigma=1.0, radius=0.8)
    cfg = DPSGMLConfig(sigma2_noise=0.3, K=7, eta=0.4, m=5, rho=1.0, clip=1.0)
    data = model.sample(np.array([0.5, 0.2, -0.1]), 20, derived_rng(33))
    rng = derived_rng(34)
    theta = model.space.project(math.sqrt(2.0 * cfg.sigma2_noise / model.lam) * rng.standard_normal(3))
    idx = rng.integers(0, 20, size=(cfg.K, cfg.m))
    noise = rng.standard_normal((cfg.K, 3))
    for k in range(cfg.K):
        g = model.grad(data[idx[k]], theta)
        norms = np.linalg.norm(g, axis=1)
        g = g * np.where(norms > cfg.clip, cfg.clip / norms, 1.0)[:, None]
        step = cfg.eta * g.mean(axis=0) + math.sqrt(2.0 * cfg.eta * cfg.sigma2_noise) * noise[k]
        theta = model.space.project(theta + step)
    assert np.max(np.abs(dp_sgml(data, model, cfg, derived_rng(34)) - theta)) <= 1e-12


def test_dp_sgml_batch_matches_per_trial_runs():
    model = gaussian_mean_model(3, sigma=1.0, radius=2.0)
    cfg = dp_sgml_config(50, 3, 1.0, model, 8)
    theta_star = np.array([0.3, 0.0, -0.3])
    trials = 5
    data = np.stack([model.sample(theta_star, 50, derived_rng(21, t)) for t in range(trials)])
    batch = dp_sgml_batch(data, model, cfg, 77, 9)
    per_trial = np.stack([dp_sgml(data[t], model, cfg, derived_rng(77, 9, t)) for t in range(trials)])
    assert np.array_equal(batch, per_trial)


@pytest.mark.parametrize("m", [8, None])
def test_dp_sgml_batch_box_model_matches_per_trial_runs(m):
    # A box that cuts through the data keeps the projection active.
    box = Box(lo=(-0.2, 0.0, -1.0), hi=(0.2, 0.5, 1.0))
    model = dataclasses.replace(gaussian_mean_model(3, sigma=1.0), space=box)
    cfg = DPSGMLConfig(sigma2_noise=0.05, K=12, eta=0.5, m=m, rho=1.0, clip=1.0)
    data = np.stack([model.sample(np.array([0.5, 1.0, 0.0]), 40, derived_rng(24, t)) for t in range(6)])
    batch = dp_sgml_batch(data, model, cfg, 79, 4)
    per_trial = np.stack([dp_sgml(data[t], model, cfg, derived_rng(79, 4, t)) for t in range(6)])
    assert np.array_equal(batch, per_trial)
    assert all(box.contains(theta) for theta in batch)
    assert np.any(batch == np.array(box.hi)) or np.any(batch == np.array(box.lo))


def test_dp_sgml_batch_matches_per_trial_runs_across_chunks(monkeypatch):
    model = gaussian_mean_model(2, sigma=1.0, radius=2.0)
    n, trials = 1000, mechanisms._BATCH_CHUNK + 2
    cfg = dp_sgml_config(n, 2, 1.0, model, 8)
    data = np.stack([model.sample(np.array([0.4, -0.2]), n, derived_rng(25, t)) for t in range(trials)])
    seen = []
    kernel = mechanisms._kernels.dpsgml_trials

    def spy(data, theta0, batch_idx, *args):
        seen.append((batch_idx.shape[0], batch_idx.dtype))
        return kernel(data, theta0, batch_idx, *args)

    monkeypatch.setattr(mechanisms._kernels, "dpsgml_trials", spy)
    fast = dp_sgml_batch(data, model, cfg, 77, 3)
    # n = 1000 indices are stored as uint16, drawn as int32.
    assert seen == [(mechanisms._BATCH_CHUNK, np.uint16), (2, np.uint16)]
    slow = np.stack([dp_sgml(data[t], model, cfg, derived_rng(77, 3, t)) for t in range(trials)])
    assert np.array_equal(fast, slow)


@pytest.mark.parametrize(
    "space, d, n, m, trials",
    [
        ("ball", 3, 40, 64, 7),
        ("ball", 3, 40, None, 7),
        ("box", 3, 40, 64, 7),
        ("box", 3, 40, None, 7),
        ("offset_ball", 3, 40, 8, 7),
        # A one-trial range would move these bits: only three trials, no fork.
        ("ball", 1, 65_537, None, 3),
        ("ball", 1, 65_537, None, 5),
    ],
)
def test_dp_sgml_batch_rows_are_the_same_bits_at_any_worker_count(workers, space, d, n, m, trials):
    # A radius below ||theta_star|| and a box that cuts through the data keep
    # the projection active.
    model = gaussian_mean_model(d, sigma=1.0, radius=0.6)
    if space == "box":
        model = dataclasses.replace(model, space=Box(lo=(-0.2, 0.0, -1.0), hi=(0.2, 0.5, 1.0)))
    if space == "offset_ball":
        # Far from the iterates in one coordinate, so c + (p - c) is often not p.
        model = dataclasses.replace(model, space=Ball(center=(0.5, 0.5, 3.0), radius=2.55))
    cfg = DPSGMLConfig(sigma2_noise=0.05, K=6, eta=0.5, m=m, rho=1.0, clip=1.0)
    data = np.stack([model.sample(np.full(d, 0.5), n, derived_rng(30, t)) for t in range(trials)])
    rows = {}
    for cpus in (1, 2, 3):
        workers.cpus, workers.forks = cpus, 0
        rows[cpus] = dp_sgml_batch(data, model, cfg, 80, 5).tobytes()
        assert workers.forks == min(cpus, trials // 2) - 1
    assert rows[1] == rows[2] == rows[3]


def test_dp_sgml_batch_draws_each_range_where_it_runs(workers, monkeypatch):
    # Six trials on three workers: ranges [0, 2), [2, 4) and [4, 6).  This
    # process draws only the first range's inputs unless a child fails or
    # cannot be made; then it draws that range again, with the same bits.
    model = gaussian_mean_model(2, sigma=1.0, radius=0.6)
    cfg = DPSGMLConfig(sigma2_noise=0.05, K=6, eta=0.5, m=8, rho=1.0, clip=1.0)
    data = np.stack([model.sample(np.full(2, 0.5), 40, derived_rng(35, t)) for t in range(6)])
    serial = dp_sgml_batch(data, model, cfg, 81).tobytes()
    fills = []
    kernel = mechanisms._kernels.dpsgml_trials

    def spy(*args):
        *rest, fill = args

        def logged(lo, hi):
            fills.append((lo, hi))
            fill(lo, hi)

        return kernel(*rest, logged)

    monkeypatch.setattr(mechanisms._kernels, "dpsgml_trials", spy)
    workers.cpus = 3
    assert dp_sgml_batch(data, model, cfg, 81).tobytes() == serial
    assert fills == [(0, 2)] and workers.forks == 2

    parent, grad = os.getpid(), model.grad

    def grad_failing_in_children(X, theta):
        if os.getpid() != parent:
            raise FloatingPointError("a child's range fails")
        return grad(X, theta)

    fills = []
    failing = dataclasses.replace(model, grad=grad_failing_in_children)
    assert dp_sgml_batch(data, failing, cfg, 81).tobytes() == serial
    assert fills == [(0, 2), (2, 4), (4, 6)] and workers.forks == 4

    def no_fork():
        raise BlockingIOError("Resource temporarily unavailable")

    monkeypatch.setattr(os, "fork", no_fork)
    fills = []
    assert dp_sgml_batch(data, model, cfg, 81).tobytes() == serial
    assert fills == [(0, 2), (2, 4), (4, 6)]


@pytest.mark.parametrize("n", [1, 2, 3, 200, 2000, 65536, 2**31 - 1])
def test_int32_batch_indices_are_the_int64_draws(n):
    # _run_trials draws batch indices as int32 whenever n fits: the values
    # and the stream position after them must be those of an int64 draw.
    wide, narrow = derived_rng(29, n), derived_rng(29, n)
    expected = wide.integers(0, n, size=(7, 5))
    got = narrow.integers(0, n, size=(7, 5), dtype=np.int32)
    assert got.dtype == np.int32
    assert np.array_equal(got, expected)
    assert narrow.standard_normal(3).tolist() == wide.standard_normal(3).tolist()


@pytest.mark.parametrize(
    "n, store", [(256, np.uint8), (257, np.uint16), (65_536, np.uint16), (65_537, np.uint32)]
)
@pytest.mark.parametrize("d, m", [(1, 3), (2, None)])
def test_dp_sgml_batch_narrow_index_store_matches_per_trial_runs(monkeypatch, n, store, d, m):
    # Each n is the last or first of a store type; the store holds the int32
    # draws (or the m=None broadcast), so batch and per-trial runs agree bit
    # for bit.
    model = gaussian_mean_model(d, sigma=1.0, radius=2.0)
    cfg = DPSGMLConfig(sigma2_noise=0.5, K=4, eta=0.3, m=m, rho=1.0, clip=2.0)
    trials = 3
    data = np.stack([model.sample(np.full(d, 0.2), n, derived_rng(27, t)) for t in range(trials)])
    seen = []
    kernel = mechanisms._kernels.dpsgml_trials

    def spy(data, theta0, batch_idx, *args):
        seen.append(batch_idx.dtype)
        return kernel(data, theta0, batch_idx, *args)

    monkeypatch.setattr(mechanisms._kernels, "dpsgml_trials", spy)
    batch = dp_sgml_batch(data, model, cfg, 79, 1)
    assert seen == [store]
    per_trial = np.stack([dp_sgml(data[t], model, cfg, derived_rng(79, 1, t)) for t in range(trials)])
    assert seen == [store] * (1 + trials)
    assert np.array_equal(batch, per_trial)


def test_dp_sgml_batch_per_trial_path_matches_derived_streams(monkeypatch):
    # Full-batch gradients (m=None) run the same kernel, every index in every step.
    model = gaussian_mean_model(2, sigma=1.0, radius=2.0)
    cfg = DPSGMLConfig(sigma2_noise=0.5, K=6, eta=0.3, m=None, rho=1.0, clip=2.0)
    trials = mechanisms._BATCH_CHUNK + 2
    data = np.stack([model.sample(np.array([0.1, 0.3]), 40, derived_rng(26, t)) for t in range(trials)])
    seen = []
    kernel = mechanisms._kernels.dpsgml_trials

    def spy(data, theta0, batch_idx, *args):
        seen.append(batch_idx.shape)
        assert np.array_equal(batch_idx[-1, -1], np.arange(40))
        return kernel(data, theta0, batch_idx, *args)

    monkeypatch.setattr(mechanisms._kernels, "dpsgml_trials", spy)
    batch = dp_sgml_batch(data, model, cfg, 78, 2)
    assert seen == [(mechanisms._BATCH_CHUNK, 6, 40), (2, 6, 40)]
    per_trial = np.stack([dp_sgml(data[t], model, cfg, derived_rng(78, 2, t)) for t in range(trials)])
    assert np.array_equal(batch, per_trial)


def test_dp_sgml_output_stays_in_space():
    model = gaussian_mean_model(2, sigma=1.0, radius=0.5)
    cfg = DPSGMLConfig(sigma2_noise=4.0, K=20, eta=0.5, m=None, rho=0.1, clip=1.0)
    data = model.sample(np.zeros(2), 30, derived_rng(31))
    out = dp_sgml(data, model, cfg, derived_rng(32))
    assert model.space.contains(out)


def test_dp_sgml_validation():
    model = gaussian_mean_model(3)
    cfg = DPSGMLConfig(sigma2_noise=0.1, K=5, eta=0.5, m=4, rho=0.1, clip=1.0)
    with pytest.raises(DomainError):
        dp_sgml(np.zeros((10, 2)), model, cfg, derived_rng(0))
    with pytest.raises(DomainError):
        dp_sgml_batch(np.zeros((2, 10, 2)), model, cfg, 0)
    # Stream tags are checked up front, even when no trial draws.
    with pytest.raises(ValueError, match="non-negative"):
        dp_sgml_batch(np.zeros((0, 10, 3)), model, cfg, 0, -1)


def test_non_finite_gradient_is_reported():
    base = gaussian_mean_model(2)
    cfg = DPSGMLConfig(sigma2_noise=0.1, K=3, eta=0.5, m=None, rho=0.1, clip=1.0)
    data = np.zeros((5, 2))
    for value in (math.nan, math.inf):
        bad = ParametricModel(
            dim=2, space=base.space, sample=base.sample, loglik=base.loglik,
            grad=lambda X, theta: np.full(np.shape(X), value), mle=base.mle,
            lam=1.0, beta=1.0, L=1.0, gamma=0.5,
        )
        with pytest.raises(NonFinite):
            dp_sgml(data, bad, cfg, derived_rng(1))
        with pytest.raises(NonFinite):
            dp_sgml_batch(np.stack([data, data]), bad, cfg, 1)
        with pytest.raises(NonFinite):
            estimate_xi2(data, bad, np.zeros(2), m=3)


@pytest.mark.parametrize("m", [None, 4])
def test_nan_data_row_raises_in_both_entry_points(m):
    model = gaussian_mean_model(2, sigma=1.0, radius=2.0)
    cfg = DPSGMLConfig(sigma2_noise=0.1, K=20, eta=0.5, m=m, rho=0.1, clip=1.0)
    data = np.stack([model.sample(np.zeros(2), 5, derived_rng(27, t)) for t in range(3)])
    data[1, 2, 0] = np.nan
    with pytest.raises(NonFinite):
        dp_sgml(data[1], model, cfg, derived_rng(28))
    with pytest.raises(NonFinite):
        dp_sgml_batch(data, model, cfg, 28)


# ----------------------------------------------------------- MLE and xi^2


def test_mle_closed_form_rejects_non_finite_data():
    model = gaussian_mean_model(2)
    data = np.zeros((5, 2))
    data[3, 1] = np.nan
    with pytest.raises(NonFinite):
        mle_pga(data, model)
    # A Box would clip an infinite mean onto a finite face.
    data[3, 1] = np.inf
    with pytest.raises(NonFinite):
        mle_pga(data, dataclasses.replace(model, space=Box(lo=(-1.0, -1.0), hi=(1.0, 1.0))))


@pytest.mark.parametrize(
    "model, theta",
    [
        (gaussian_mean_model(3, sigma=1.0, radius=5.0, smoothness=4.0), [0.5, -0.5, 0.2]),
        (gaussian_mean_model(3, sigma=1.0, radius=0.3, smoothness=4.0), [1.0, 0.8, -0.6]),
        (
            dataclasses.replace(
                gaussian_mean_model(3, sigma=1.0, smoothness=4.0),
                space=Box(lo=(-1.0, 0.0, -0.5), hi=(1.0, 0.2, 0.5)),
            ),
            [0.3, 0.9, -2.0],
        ),
    ],
    ids=["ball-interior", "ball-exterior", "box-active"],
)
def test_mle_satisfies_the_projection_certificate(model, theta):
    # theta_hat maximizes the concave log-likelihood over the convex space iff
    # <mean gradient at theta_hat, p - theta_hat> <= 0 for every feasible p.
    data = model.sample(np.array(theta), 80, derived_rng(45))
    theta_hat = mle_pga(data, model)
    assert np.array_equal(theta_hat, project(model.space, data.mean(axis=0)))
    assert model.space.contains(theta_hat)
    g = model.grad(data, theta_hat).mean(axis=0)
    rng = derived_rng(46)
    if isinstance(model.space, Ball):
        directions = rng.standard_normal((500, 3))
        directions /= np.linalg.norm(directions, axis=1)[:, None]
        feasible = model.space.radius * directions * rng.uniform(0.0, 1.0, (500, 1)) ** (1 / 3)
        feasible = np.vstack([feasible, model.space.radius * directions])
    else:
        lo, hi = np.array(model.space.lo), np.array(model.space.hi)
        corners = np.array([np.where(bits, hi, lo) for bits in np.ndindex(2, 2, 2)])
        feasible = np.vstack([lo + (hi - lo) * rng.uniform(size=(500, 3)), corners])
    assert all(model.space.contains(p) for p in feasible)
    assert np.max((feasible - theta_hat) @ g) <= 1e-12
    best = model.loglik(data, theta_hat).sum()
    assert all(best >= model.loglik(data, p).sum() for p in feasible)


@pytest.mark.parametrize("d", [1, 2, 5, 66])
def test_mle_pga_on_stacked_data_returns_the_per_trial_rows(d):
    ball = gaussian_mean_model(d, sigma=1.0, radius=0.6)
    box = dataclasses.replace(ball, space=Box(lo=(-0.5,) * d, hi=(0.2,) * d))
    for model in (ball, box):
        for n in (3, 40, 1000):
            # Trial means run from inside the space to outside it.
            data = np.stack([model.sample(np.full(d, 0.05 * t), n, derived_rng(49, t)) for t in range(8)])
            batch = mle_pga(data, model)
            assert batch.shape == (8, d)
            assert np.array_equal(batch, np.stack([mle_pga(x, model) for x in data]))


def test_mle_pga_is_projected_sample_mean():
    model = gaussian_mean_model(3, sigma=1.0, radius=5.0, smoothness=4.0)
    data = model.sample(np.array([0.5, -0.5, 0.2]), 80, derived_rng(41))
    mle = mle_pga(data, model)
    assert np.allclose(mle, data.mean(axis=0), atol=1e-8)


def test_mle_pga_projects_exterior_optimum():
    model = gaussian_mean_model(2, sigma=1.0, radius=0.3)
    data = np.ones((50, 2)) + 0.01 * derived_rng(43).standard_normal((50, 2))
    mle = mle_pga(data, model)
    expected = model.space.project(data.mean(axis=0))
    assert np.allclose(mle, expected, atol=1e-6)
    assert float(np.linalg.norm(mle)) <= 0.3 + 1e-9


def test_one_dimensional_data_is_read_as_one_column():
    model = gaussian_mean_model(1, sigma=1.0, radius=0.5)
    column = model.sample(np.array([0.2]), 30, derived_rng(51))
    flat = column[:, 0].copy()
    cfg = DPSGMLConfig(sigma2_noise=0.05, K=9, eta=0.4, m=4, rho=1.0, clip=1.0)
    assert np.array_equal(dp_sgml(flat, model, cfg, derived_rng(52)), dp_sgml(column, model, cfg, derived_rng(52)))
    theta_ml = mle_pga(column, model)
    assert np.array_equal(mle_pga(flat, model), theta_ml)
    for m in (None, 3):
        assert estimate_xi2(flat, model, theta_ml, m) == estimate_xi2(column, model, theta_ml, m)


def test_estimate_xi2_full_batch_is_small_but_positive():
    model = gaussian_mean_model(3, sigma=1.0, radius=5.0)
    data = model.sample(np.zeros(3), 40, derived_rng(47))
    theta_ml = mle_pga(data, model)
    xi2 = estimate_xi2(data, model, theta_ml, m=40)
    assert 0.0 < xi2 < 1.0
    # Larger batches average more records, so xi^2 falls as m grows.
    assert xi2 < estimate_xi2(data, model, theta_ml, m=1)


def _xi2_brute_force(data, model, theta_ml, m):
    """The mean of ||clipped batch mean||^2 over every one of the n^m
    ordered batches of m records."""
    batches = np.array(list(itertools.product(range(len(data)), repeat=m)))
    gbar = _kernels.clipped_mean(model.grad(data[batches], theta_ml), model.L)
    return float(np.mean(np.sum(gbar * gbar, axis=1)))


@pytest.mark.parametrize("m", [1, 2, 3])
def test_estimate_xi2_matches_brute_force_over_all_batches(m):
    model = gaussian_mean_model(3, sigma=1.0, radius=5.0, clip_norm=1.5)
    for n, seed in ((1, 49), (3, 50), (5, 51)):
        data = model.sample(np.array([0.2, -0.1, 0.4]), n, derived_rng(seed))
        data[0] += 4.0  # a row whose gradient the clip shortens
        theta_ml = mle_pga(data, model)
        norms = np.linalg.norm(model.grad(data, theta_ml), axis=1)
        assert n == 1 or np.any(norms > model.L)
        exact = estimate_xi2(data, model, theta_ml, m=m)
        assert exact == pytest.approx(_xi2_brute_force(data, model, theta_ml, m), rel=1e-13, abs=1e-16)


@pytest.mark.parametrize(
    "d, xi2_hex",
    [(1, "0x1.80186eb03cea3p-7"), (2, "0x1.5971d95d7c295p-6"), (5, "0x1.10dbedf846103p-5")],
)
def test_estimate_xi2_is_pinned(d, xi2_hex):
    # xi^2 clips each record's gradient through _kernels.clipped_mean; some
    # of these records clip.  Its bits must not move when the kernel changes.
    model = gaussian_mean_model(d, sigma=1.0, radius=5.0, clip_norm=1.5)
    data = model.sample(np.full(d, 0.3), 400, derived_rng(53, d))
    theta_ml = mle_pga(data, model)
    assert np.any(np.linalg.norm(model.grad(data, theta_ml), axis=1) > model.L)
    assert estimate_xi2(data, model, theta_ml, m=64).hex() == xi2_hex


@pytest.mark.parametrize(
    "d, m, sigma, sha",
    [(1, None, 1.0, "1d31ea89a6f7d4aff9422c0b9a550d5dc746d0ea4cd9e435d47959e85239ee25"), (2, 16, 2.0, "fdc200a7ac2cc2c39dc8abd8ea3b54e7c72328b604edd98218b30b69cf607b26"), (5, 64, 0.5, "2926aa5c3e61db27421b6f1be4b3548ab16df32d06c7f612bbb3a9051baafb45")],
)
def test_dp_sgml_batch_rows_are_pinned(d, m, sigma, sha):
    # Pins the whole path: each range's fill, the model's gradient (with and
    # without its 1/sigma^2 factor), the kernel and the projection.
    model = gaussian_mean_model(d, sigma=sigma, radius=1.0, clip_norm=2.0)
    cfg = DPSGMLConfig(sigma2_noise=0.05, K=10, eta=0.2, m=m, rho=1.0, clip=2.0)
    data = np.stack([model.sample(np.full(d, 0.4), 150, derived_rng(54, d, t)) for t in range(6)])
    rows = dp_sgml_batch(data, model, cfg, 55, d)
    assert hashlib.sha256(rows.tobytes()).hexdigest() == sha


def test_zero_gradient_rows_are_quiet():
    # One data point is its own MLE, so every per-sample gradient is zero;
    # noiseless DP-SGML started at the data stays there.
    model = gaussian_mean_model(2, sigma=1.0, radius=5.0)
    data = np.array([[0.0, 0.0]])
    cfg = DPSGMLConfig(sigma2_noise=0.0, K=3, eta=0.5, m=2, rho=1.0, clip=1.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert estimate_xi2(data, model, mle_pga(data, model), m=4) == 0.0
        assert np.array_equal(dp_sgml(data, model, cfg, derived_rng(52)), [0.0, 0.0])


def test_estimate_xi2_validation():
    model = gaussian_mean_model(2)
    data = np.zeros((5, 2))
    for m in (0, -1):
        with pytest.raises(DomainError):
            estimate_xi2(data, model, np.zeros(2), m=m)


def test_estimate_xi2_full_batch_is_the_squared_mean_clipped_gradient():
    model = gaussian_mean_model(3, sigma=1.0, radius=5.0, clip_norm=1.5)
    data = model.sample(np.array([0.2, -0.1, 0.4]), 50, derived_rng(56))
    data[0] += 4.0  # a row whose gradient the clip shortens
    theta_ml = mle_pga(data, model)
    cbar = _kernels.clipped_mean(model.grad(data[None], theta_ml), model.L)[0]
    assert estimate_xi2(data, model, theta_ml, m=None) == pytest.approx(cbar @ cbar, rel=1e-13)
