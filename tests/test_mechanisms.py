"""Tests for private mechanisms, finite kernels, and DP-SGML."""

import dataclasses
import math

import numpy as np
import pytest

from dpminimax import mechanisms
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


def test_box_contains_and_projects():
    box = Box(lo=(0.0, -1.0), hi=(1.0, 1.0))
    assert box.contains((0.5, 0.0))
    assert not box.contains((1.5, 0.0))
    assert np.allclose(box.project((2.0, -3.0)), [1.0, -1.0], atol=1e-15)
    assert np.allclose(project(box, (0.5, 0.5)), [0.5, 0.5], atol=1e-15)
    with pytest.raises(DomainError):
        Box(lo=(1.0,), hi=(0.0,))


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


def test_gaussian_model_constants():
    model = gaussian_mean_model(3, sigma=2.0, radius=1.0, clip_norm=0.7, smoothness=5.0)
    assert model.lam == pytest.approx(0.25)
    assert model.beta == 5.0
    assert model.L == 0.7
    assert model.gamma == pytest.approx(0.125)
    assert model.mean_grad_scale == pytest.approx(0.25)
    assert isinstance(model.space, Ball)


def test_gaussian_model_validation():
    with pytest.raises(DomainError):
        gaussian_mean_model(3, sigma=0.0)
    with pytest.raises(DomainError):
        gaussian_mean_model(3, sigma=1.0, smoothness=0.5)


def test_parametric_model_validation():
    dummy = lambda *a: None
    with pytest.raises(DomainError):
        ParametricModel(dim=0, space=Ball((0.0,), 1.0), sample=dummy, loglik=dummy, grad=dummy)
    with pytest.raises(DomainError):
        ParametricModel(
            dim=1, space=Ball((0.0,), 1.0), sample=dummy, loglik=dummy, grad=dummy,
            lam=2.0, beta=1.0,
        )


@pytest.mark.parametrize("scale", [0.0, -1.0, math.nan, math.inf])
def test_parametric_model_rejects_bad_mean_grad_scale(scale):
    dummy = lambda *a: None
    with pytest.raises(DomainError):
        ParametricModel(
            dim=1, space=Ball((0.0,), 1.0), sample=dummy, loglik=dummy, grad=dummy,
            mean_grad_scale=scale,
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


def test_zero_noise_full_batch_recovers_sample_mean():
    model = gaussian_mean_model(3, sigma=1.0, radius=10.0, clip_norm=1e9)
    cfg = DPSGMLConfig(sigma2_noise=0.0, K=600, eta=0.5, m=None, rho=1.0, clip=1e9)
    rng = derived_rng(11)
    data = model.sample(np.array([0.3, -0.2, 0.1]), 100, rng)
    out = dp_sgml(data, model, cfg, derived_rng(12))
    assert np.allclose(out, data.mean(axis=0), atol=1e-10)


def test_dp_sgml_batch_matches_per_trial_runs():
    model = gaussian_mean_model(3, sigma=1.0, radius=2.0)
    cfg = dp_sgml_config(50, 3, 1.0, model, 8)
    theta_star = np.array([0.3, 0.0, -0.3])
    trials = 5
    data = np.stack([model.sample(theta_star, 50, derived_rng(21, t)) for t in range(trials)])
    fast = dp_sgml_batch(data, model, cfg, 77, 9)
    slow = np.stack([dp_sgml(data[t], model, cfg, derived_rng(77, 9, t)) for t in range(trials)])
    assert np.allclose(fast, slow, atol=1e-9)


def test_dp_sgml_batch_fallback_path_agrees():
    fast_model = gaussian_mean_model(3, sigma=1.0, radius=2.0)
    slow_model = ParametricModel(
        dim=3, space=fast_model.space, sample=fast_model.sample,
        loglik=fast_model.loglik, grad=fast_model.grad,
        lam=fast_model.lam, beta=fast_model.beta, L=fast_model.L,
        gamma=fast_model.gamma, mean_grad_scale=None,
    )
    cfg = dp_sgml_config(50, 3, 1.0, fast_model, 8)
    data = np.stack([fast_model.sample(np.zeros(3), 50, derived_rng(23, t)) for t in range(3)])
    fast = dp_sgml_batch(data, fast_model, cfg, 5, 1)
    slow = dp_sgml_batch(data, slow_model, cfg, 5, 1)
    assert np.allclose(fast, slow, atol=1e-9)


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
    assert seen == [(mechanisms._BATCH_CHUNK, np.int32), (2, np.int32)]
    slow = np.stack([dp_sgml(data[t], model, cfg, derived_rng(77, 3, t)) for t in range(trials)])
    assert np.max(np.abs(fast - slow)) <= 1e-12


def test_dp_sgml_batch_per_trial_path_matches_derived_streams():
    # Full-batch gradients (m=None) take the per-trial path, not the kernel.
    model = gaussian_mean_model(2, sigma=1.0, radius=2.0)
    cfg = DPSGMLConfig(sigma2_noise=0.5, K=6, eta=0.3, m=None, rho=1.0, clip=2.0)
    data = np.stack([model.sample(np.array([0.1, 0.3]), 40, derived_rng(26, t)) for t in range(5)])
    batch = dp_sgml_batch(data, model, cfg, 78, 2)
    per_trial = np.stack([dp_sgml(data[t], model, cfg, derived_rng(78, 2, t)) for t in range(5)])
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


def test_non_finite_gradient_is_reported():
    base = gaussian_mean_model(2)
    bad = ParametricModel(
        dim=2, space=base.space, sample=base.sample, loglik=base.loglik,
        grad=lambda X, theta: np.full((np.atleast_2d(X).shape[0], 2), np.nan),
        lam=1.0, beta=1.0, L=1.0, gamma=0.5, mean_grad_scale=None,
    )
    cfg = DPSGMLConfig(sigma2_noise=0.1, K=3, eta=0.5, m=None, rho=0.1, clip=1.0)
    data = np.zeros((5, 2))
    with pytest.raises(NonFinite):
        dp_sgml(data, bad, cfg, derived_rng(1))
    with pytest.raises(NonFinite):
        mle_pga(data, bad)


# ----------------------------------------------------------- MLE and xi^2


def test_mle_closed_form_rejects_non_finite_data():
    model = gaussian_mean_model(2)
    data = np.zeros((5, 2))
    data[3, 1] = np.nan
    with pytest.raises(NonFinite):
        mle_pga(data, model)


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
def test_mle_closed_form_agrees_with_projected_gradient_ascent(model, theta):
    data = model.sample(np.array(theta), 80, derived_rng(45))
    exact = mle_pga(data, model)
    assert np.array_equal(exact, project(model.space, data.mean(axis=0)))
    iterative = mle_pga(data, dataclasses.replace(model, mean_grad_scale=None))
    assert np.max(np.abs(exact - iterative)) <= 1e-8


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


def test_estimate_xi2_full_batch_is_small_but_positive():
    model = gaussian_mean_model(3, sigma=1.0, radius=5.0)
    data = model.sample(np.zeros(3), 40, derived_rng(47))
    theta_ml = mle_pga(data, model)
    xi2, stderr = estimate_xi2(data, model, theta_ml, m=40, trials=200, rng=derived_rng(48))
    assert 0.0 < xi2 < 1.0
    assert stderr > 0.0


def test_estimate_xi2_validation():
    model = gaussian_mean_model(2)
    data = np.zeros((5, 2))
    with pytest.raises(DomainError):
        estimate_xi2(data, model, np.zeros(2), m=0, trials=10, rng=derived_rng(0))
