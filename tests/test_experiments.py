"""Tests for the Monte-Carlo risk experiments and their reports."""

import dataclasses
import math
import os
import threading
import warnings
from types import SimpleNamespace

import numpy as np
import pytest
from scipy.stats import ks_2samp

from dpminimax import (
    Box,
    DegenerateInput,
    DomainError,
    InsufficientBudget,
    NonFinite,
    PrivacyConstraint,
    RegimeError,
    gaussian_mean,
    gaussian_mean_model,
    kl_quadratic_bounds,
    derived_rng,
    dp_sgml_batch,
    dp_sgml_config,
    laplace_mean,
    estimate_xi2,
    mle_pga,
    monte_carlo_risk,
    rate_slope,
    run_bernoulli,
    run_dpsgml,
    run_gaussian,
    run_uniform,
)
from dpminimax import experiments as experiments_mod
from dpminimax._rng import trial_rngs
from dpminimax.experiments import _bernoulli_means, _cell, _gaussian_means, _uniform_maxima
from dpminimax.mechanisms import _gaussian_noise, _laplace_noise

CSV_COLUMNS = [
    "model", "n", "constraint_kind", "eps", "delta", "rho",
    "mechanism", "risk", "stderr", "lower_bound", "branch",
]


class _Coin:
    def sample(self, theta, n, rng):
        return (rng.random(n) < theta).astype(np.float64)


class _Uniform:
    def sample(self, theta, n, rng):
        return theta * rng.random(n)


def _mean_mech(data, rng):
    return float(data.mean())


# ------------------------------------------------------------ monte_carlo_risk


def test_monte_carlo_risk_matches_sampling_variance():
    est = monte_carlo_risk(_Coin(), 0.3, _mean_mech, n=50, trials=2000, seed=401)
    expected = 0.3 * 0.7 / 50
    assert abs(est.risk - expected) <= 4.0 * max(est.stderr, 1e-5)
    assert est.trials == 2000
    assert est.n == 50
    assert est.constraint.kind == "none"


def test_monte_carlo_risk_is_deterministic_per_stream():
    a = monte_carlo_risk(_Coin(), 0.3, _mean_mech, n=20, trials=150, seed=7, tags=(2,))
    b = monte_carlo_risk(_Coin(), 0.3, _mean_mech, n=20, trials=150, seed=7, tags=(2,))
    c = monte_carlo_risk(_Coin(), 0.3, _mean_mech, n=20, trials=150, seed=7, tags=(3,))
    assert a.risk == b.risk and a.stderr == b.stderr
    assert a.risk != c.risk


def test_monte_carlo_risk_validation():
    with pytest.raises(DomainError):
        monte_carlo_risk(_Coin(), 0.3, _mean_mech, n=20, trials=50, seed=0)
    with pytest.raises(DomainError):
        monte_carlo_risk(_Coin(), 0.3, _mean_mech, n=0, trials=200, seed=0)
    model = gaussian_mean_model(2, radius=0.5)
    outside = np.array([1.0, 1.0])
    with pytest.raises(DomainError):
        monte_carlo_risk(model, outside, lambda d, r: d.mean(axis=0), n=10, trials=200, seed=0)


def test_monte_carlo_risk_rejects_a_non_finite_loss():
    with pytest.raises(NonFinite):
        monte_carlo_risk(_Uniform(), math.nan, lambda d, r: float(d.max()), n=10, trials=100, seed=0)


def test_block_path_rejects_a_non_finite_loss(monkeypatch):
    # A study scores each cell's drawn block of trial statistics at once; a
    # non-finite entry in the block raises NonFinite.
    def maxima(theta, n, rng, trials):
        block = _uniform_maxima(theta, n, rng, trials)
        block[trials // 2] = math.nan
        return block

    monkeypatch.setattr(experiments_mod, "_uniform_maxima", maxima)
    with pytest.raises(NonFinite):
        run_uniform([10], [PrivacyConstraint.none()], trials=100, seed=0)


# ------------------------------------------------------------------ rate_slope


def test_rate_slope_recovers_exact_power_law():
    points = [(n, 3.7 / n**2) for n in (10, 20, 40, 80)]
    assert rate_slope(points) == pytest.approx(-2.0, abs=1e-12)
    points = [(n, 0.2 / n) for n in (10, 30, 90)]
    assert rate_slope(points) == pytest.approx(-1.0, abs=1e-12)


def test_rate_slope_validation():
    with pytest.raises(DegenerateInput):
        rate_slope([(10, 1.0), (20, 0.5)])
    with pytest.raises(DegenerateInput):
        rate_slope([(10, 1.0), (20, 0.5), (40, 0.0)])
    with pytest.raises(DegenerateInput):
        rate_slope([(0, 1.0), (20, 0.5), (40, 0.2)])
    # nan fails every comparison, so the check must reject it, not let it pass.
    for bad in (math.nan, math.inf):
        with pytest.raises(DegenerateInput, match="positive finite n and risk"):
            rate_slope([(10, bad), (20, 1.0), (40, 2.0)])
        with pytest.raises(DegenerateInput, match="positive finite n and risk"):
            rate_slope([(bad, 1.0), (20, 1.0), (40, 2.0)])


def test_rate_slope_needs_two_distinct_n():
    with pytest.raises(DegenerateInput, match="two distinct n"):
        rate_slope([(10, 1.0), (10, 0.9), (10, 0.8)])
    # A study whose grid repeats one n reports no slope, and fits no line.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        report = run_uniform([10, 10, 10], [PrivacyConstraint.none()], trials=100, seed=0)
    assert len(report.cells) == 3 and report.slopes == {}
    assert set(run_uniform([10, 10, 20], [PrivacyConstraint.none()], trials=100, seed=0).slopes) == {
        "max_estimator"
    }


# --------------------------------------------------------------- run_bernoulli


@pytest.fixture(scope="module")
def bernoulli_report():
    constraints = [
        PrivacyConstraint.none(),
        PrivacyConstraint.pure(0.1),
        PrivacyConstraint.zcdp(0.01),
    ]
    return run_bernoulli([50, 100, 200], constraints, trials=200, seed=9)


def test_bernoulli_grid_and_mechanisms(bernoulli_report):
    report = bernoulli_report
    assert len(report.cells) == 9
    assert {c.mechanism for c in report.cells} == {"empirical_mean", "laplace", "gaussian"}
    assert report.violations() == ()


def test_bernoulli_lower_bound_constants(bernoulli_report):
    by_key = {(c.mechanism, c.n): c for c in bernoulli_report.cells}
    assert by_key[("empirical_mean", 50)].lower_bound == 1.0 / 8000.0
    assert by_key[("laplace", 50)].lower_bound == 1.0 / (80.0 * 5.0**2)
    assert by_key[("gaussian", 50)].lower_bound == 1.0 / (64.0 * 2500.0 * 0.01)
    for cell in bernoulli_report.cells:
        assert cell.extras["bound_eval"] > 0.0
        assert cell.extras["theta_star"] == 0.5


def test_bernoulli_analytic_risks_track_measurements(bernoulli_report):
    for cell in bernoulli_report.cells:
        assert cell.analytic_risk is not None
        assert abs(cell.risk - cell.analytic_risk) <= 5.0 * max(cell.stderr, 1e-6)


def test_bernoulli_slope_keys(bernoulli_report):
    slopes = bernoulli_report.slopes
    for key in (
        "empirical_mean", "laplace", "gaussian",
        "laplace_privacy_dominated", "gaussian_privacy_dominated",
    ):
        assert key in slopes
    assert slopes["empirical_mean"] < -0.6
    assert slopes["laplace_privacy_dominated"] < -1.4


def test_bernoulli_is_deterministic():
    constraints = [PrivacyConstraint.pure(0.1)]
    a = run_bernoulli([50, 100, 200], constraints, trials=150, seed=3)
    b = run_bernoulli([50, 100, 200], constraints, trials=150, seed=3)
    assert a.to_dict() == b.to_dict()


def test_bernoulli_regime_errors():
    with pytest.raises(RegimeError):
        run_bernoulli([10], [PrivacyConstraint.pure(0.1)], trials=200, seed=0)
    with pytest.raises(RegimeError):
        run_bernoulli([2], [PrivacyConstraint.none()], trials=200, seed=0)
    with pytest.raises(RegimeError):
        run_bernoulli([100], [PrivacyConstraint.approx(0.1, 1e-6)], trials=200, seed=0)
    with pytest.raises(RegimeError):
        run_bernoulli([100], [PrivacyConstraint.zcdp(1e-4)], trials=200, seed=0)


def test_bernoulli_csv_rows(bernoulli_report):
    rows = bernoulli_report.csv_rows()
    assert len(rows) == 9
    for row in rows:
        assert list(row.keys()) == CSV_COLUMNS
    none_row = next(r for r in rows if r["constraint_kind"] == "none")
    assert none_row["eps"] == "" and none_row["rho"] == ""
    pure_row = next(r for r in rows if r["constraint_kind"] == "pure")
    assert float(pure_row["eps"]) == 0.1 and pure_row["rho"] == ""
    assert float(pure_row["risk"]) >= 0.0


# ---------------------------------------------------------------- run_gaussian


def test_gaussian_small_dimension_has_no_bound():
    report = run_gaussian(5, 1.0, [100, 200, 400], [PrivacyConstraint.none()], trials=100, seed=21)
    assert all(c.lower_bound == 0.0 and c.branch == "unavailable" for c in report.cells)
    assert report.violations() == ()
    for cell in report.cells:
        assert abs(cell.risk - cell.analytic_risk) <= 4.0 * cell.stderr
        assert cell.extras["d"] == 5
    assert report.slopes["empirical_mean"] == pytest.approx(-1.0, abs=0.3)


def test_gaussian_bound_available_from_dimension_66():
    report = run_gaussian(66, 1.0, [300], [PrivacyConstraint.none()], trials=100, seed=23)
    (cell,) = report.cells
    assert cell.branch == "nonprivate"
    assert 0.0 < cell.lower_bound <= cell.risk
    assert abs(cell.risk - 66.0 / 300.0) <= 4.0 * cell.stderr


# ----------------------------------------------------------------- run_uniform


@pytest.fixture(scope="module")
def uniform_report():
    constraints = [
        PrivacyConstraint.none(),
        PrivacyConstraint.pure(0.5),
        PrivacyConstraint.zcdp(0.1),
    ]
    return run_uniform([10, 20], constraints, trials=1000, seed=11)


def test_uniform_lower_bound_constants(uniform_report):
    by_key = {(c.constraint.kind, c.n): c for c in uniform_report.cells}
    assert by_key[("none", 10)].lower_bound == math.exp(-1.0) / 800.0
    assert by_key[("pure", 10)].lower_bound == math.exp(-1.0) / (8.0 * 25.0)
    assert by_key[("zcdp", 10)].lower_bound == (1.0 - 1.0 / math.sqrt(2.0)) / 80.0
    assert len(uniform_report.notes) == 2


def test_uniform_risk_tracks_closed_form(uniform_report):
    for cell in uniform_report.cells:
        expected = 2.0 / ((cell.n + 1) * (cell.n + 2))
        assert cell.analytic_risk == expected
        assert abs(cell.risk - expected) <= 5.0 * cell.stderr
    assert uniform_report.violations() == ()


def test_uniform_extras_record_evaluated_bounds(uniform_report):
    for cell in uniform_report.cells:
        extras = cell.extras
        assert set(extras) == {"branch", "bound_eval", "bound_eval_all", "theta_star"}
        assert extras["branch"] in extras["bound_eval_all"]
        assert extras["bound_eval"] == extras["bound_eval_all"][extras["branch"]]
        assert extras["bound_eval"] >= 0.0


def test_uniform_regime_errors():
    with pytest.raises(RegimeError):
        run_uniform([10], [PrivacyConstraint.pure(0.05)], trials=200, seed=0)
    with pytest.raises(RegimeError):
        run_uniform([1], [PrivacyConstraint.none()], trials=200, seed=0)
    with pytest.raises(RegimeError):
        run_uniform([10], [PrivacyConstraint.approx(1.0, 0.1)], trials=200, seed=0)


# ------------------------------------------------------------------ run_dpsgml


@pytest.fixture(scope="module")
def dpsgml_report():
    model = gaussian_mean_model(5, sigma=1.0, radius=10.0, clip_norm=4.0, smoothness=32.0)
    return run_dpsgml(model, np.full(5, 0.5), [200], [0.5], m=64, trials=100, seed=13)


def test_dpsgml_cells_and_bounds(dpsgml_report):
    report = dpsgml_report
    assert [c.mechanism for c in report.cells] == ["dp_sgml", "mle"]
    sgml, mle = report.cells
    # beta_kl = 2 * gamma = 1; the nonprivate part d/n dominates d/(rho n^2)
    assert sgml.lower_bound == pytest.approx(5.0 / 200.0, abs=1e-15)
    assert sgml.branch == "nonprivate_parametric"
    assert mle.lower_bound == pytest.approx(5.0 / 200.0, abs=1e-15)
    assert not sgml.violation and not mle.violation
    assert sgml.risk >= mle.risk


def test_dpsgml_extras(dpsgml_report):
    extras = dpsgml_report.cells[0].extras
    assert set(extras) == {
        "ratio", "xi2", "K", "eta", "sigma2_noise", "m", "packing_bound",
    }
    assert extras["ratio"] == pytest.approx(dpsgml_report.cells[0].risk / (5.0 / 200.0))
    assert extras["K"] == 531
    assert extras["eta"] == 1.0 / 64.0
    assert extras["m"] == 64
    assert extras["xi2"] > 0.0
    assert extras["packing_bound"] is None


def test_dpsgml_is_deterministic():
    model = gaussian_mean_model(3, sigma=1.0, radius=5.0)
    a = run_dpsgml(model, np.zeros(3), [60], [1.0], m=16, trials=100, seed=17)
    b = run_dpsgml(model, np.zeros(3), [60], [1.0], m=16, trials=100, seed=17)
    assert a.cells[0].risk == b.cells[0].risk


def _box_model(d):
    model = gaussian_mean_model(d, radius=10.0, clip_norm=4.0, smoothness=32.0)
    return dataclasses.replace(model, space=Box((-5.0,) * d, (5.0,) * d))


def test_dpsgml_runs_on_a_box():
    report = run_dpsgml(_box_model(3), np.zeros(3), [200, 300, 400], [0.5], m=8, trials=100, seed=1)
    assert [cell.n for cell in report.cells] == [200, 200, 300, 300, 400, 400]
    assert report.cells[0].extras["packing_bound"] is None
    assert set(report.slopes) == {"n_slope@rho=0.5"}


def test_dpsgml_packing_bound_on_a_box_uses_its_inscribed_ball():
    model = _box_model(66)
    report = run_dpsgml(model, np.zeros(66), [200], [0.5], m=8, trials=100, seed=1)
    expected = kl_quadratic_bounds(66, 200, model.gamma, 5.0, PrivacyConstraint.zcdp(0.5)).value
    assert report.cells[0].extras["packing_bound"] == expected


def test_dpsgml_validation():
    model = gaussian_mean_model(5, radius=10.0)
    with pytest.raises(DomainError):
        run_dpsgml(model, np.zeros(4), [200], [0.5], m=16, trials=100, seed=0)
    with pytest.raises(DomainError):
        run_dpsgml(model, np.full(5, 10.0), [200], [0.5], m=16, trials=100, seed=0)
    with pytest.raises(DomainError):
        run_dpsgml(model, np.zeros(5), [200], [0.5], m=16, trials=50, seed=0)
    with pytest.raises(InsufficientBudget):
        run_dpsgml(model, np.zeros(5), [3], [0.1], m=2, trials=100, seed=0)


def test_dpsgml_cell_k_draws_from_streams_k_rho_major():
    model = gaussian_mean_model(3, sigma=1.0, radius=5.0)
    theta_star = np.full(3, 0.5)
    ns, rhos, trials, seed = [60, 90, 60], [1.0, 2.0], 100, 23
    report = run_dpsgml(model, theta_star, ns, rhos, m=16, trials=trials, seed=seed)
    sgml = [cell for cell in report.cells if cell.mechanism == "dp_sgml"]
    assert [(cell.constraint.rho, cell.n) for cell in sgml] == [(r, n) for r in rhos for n in ns]
    first_data = {}
    for k, cell in enumerate(sgml):
        data = np.stack([model.sample(theta_star, cell.n, rng)
                         for rng in trial_rngs(seed, (k, 0), trials)])
        first_data.setdefault(cell.n, data)
        cfg = dp_sgml_config(cell.n, 3, cell.constraint.rho, model, 16)
        losses = np.sum((dp_sgml_batch(data, model, cfg, seed, k, 1) - theta_star) ** 2, axis=1)
        assert (cell.risk, cell.stderr) == (losses.mean(), losses.std(ddof=1) / math.sqrt(trials))
    # one MLE row right after the first cell of each distinct n, on that cell's data
    mechanisms = [cell.mechanism for cell in report.cells]
    assert mechanisms == ["dp_sgml", "mle", "dp_sgml", "mle"] + ["dp_sgml"] * 4
    for cell in (report.cells[1], report.cells[3]):
        gaps = [mle_pga(x, model) - theta_star for x in first_data[cell.n]]
        losses = np.array([gap @ gap for gap in gaps])
        assert (cell.risk, cell.stderr) == (losses.mean(), losses.std(ddof=1) / math.sqrt(trials))


def test_dpsgml_xi2_is_exact_at_the_first_datasets_mle():
    model = gaussian_mean_model(3, sigma=1.0, radius=5.0)
    theta_star = np.full(3, 0.5)
    report = run_dpsgml(model, theta_star, [60], [1.0], m=16, trials=100, seed=24)
    data = model.sample(theta_star, 60, next(trial_rngs(24, (0, 0), 1)))
    expected = estimate_xi2(data, model, mle_pga(data, model), 16)
    assert report.cells[0].extras["xi2"] == pytest.approx(expected, rel=1e-12)


def test_dpsgml_runs_full_batches():
    # m = None averages every record at each step: the rows are dp_sgml_batch's
    # at m = None, and xi^2 is ||cbar||^2, the squared mean clipped gradient.
    model = gaussian_mean_model(3, sigma=1.0, radius=5.0, clip_norm=1.5)
    theta_star = np.full(3, 0.5)
    report = run_dpsgml(model, theta_star, [60], [1.0], m=None, trials=100, seed=25)
    sgml, mle = report.cells
    assert (sgml.mechanism, mle.mechanism) == ("dp_sgml", "mle")
    assert sgml.extras["m"] is None
    data = np.stack([model.sample(theta_star, 60, rng) for rng in trial_rngs(25, (0, 0), 100)])
    cfg = dp_sgml_config(60, 3, 1.0, model, None)
    losses = np.sum((dp_sgml_batch(data, model, cfg, 25, 0, 1) - theta_star) ** 2, axis=1)
    assert (sgml.risk, sgml.stderr) == (losses.mean(), losses.std(ddof=1) / math.sqrt(100))
    theta_ml = mle_pga(data[0], model)
    g = model.grad(data[0], theta_ml)
    norms = np.linalg.norm(g, axis=1)
    cbar = (g * (model.L / np.maximum(norms, model.L))[:, None]).mean(axis=0)
    assert sgml.extras["xi2"] == pytest.approx(cbar @ cbar, rel=1e-12)
    assert sgml.extras["xi2"] < estimate_xi2(data[0], model, theta_ml, 60)


@pytest.mark.parametrize(
    "run",
    [
        lambda: run_bernoulli([], [PrivacyConstraint.none()], trials=100, seed=0),
        lambda: run_uniform([10], [], trials=100, seed=0),
        lambda: run_dpsgml(gaussian_mean_model(5, radius=10.0), np.zeros(5), [200], [], m=16,
                           trials=100, seed=0),
    ],
)
def test_empty_grid_axis_is_a_domain_error(run):
    with pytest.raises(DomainError, match="must not be empty"):
        run()


@pytest.mark.parametrize(
    "run",
    [
        lambda: run_bernoulli([50, 0], [PrivacyConstraint.none()], trials=100, seed=0),
        lambda: run_gaussian(3, 1.0, [0], [PrivacyConstraint.none()], trials=100, seed=0),
        lambda: run_uniform([10, -2], [PrivacyConstraint.none()], trials=100, seed=0),
        lambda: run_dpsgml(gaussian_mean_model(5, radius=10.0), np.zeros(5), [200, 0], [0.5], m=16,
                           trials=100, seed=0),
    ],
)
def test_a_sample_size_below_one_is_a_domain_error(run):
    with pytest.raises(DomainError, match="every n in ns must be >= 1"):
        run()


def test_cell_flags_a_further_bound_the_lower_bound_misses():
    def cell(*further):
        return _cell("m", 10, PrivacyConstraint.none(), "est", 1.0, 0.125, 100, 0.5, "b", None, {},
                     *further)

    assert not cell().violation
    assert not cell(1.375).violation  # risk 1.0 == 1.375 - 3 * 0.125 does not undercut
    assert cell(0.25, 1.5).violation
    assert cell(0.25, 1.5).lower_bound == 0.5



def test_reference_cell_is_flagged_only_against_its_further_bounds():
    def cell(lower, *further):
        return _cell("m", 10, PrivacyConstraint.none(), "est", 1.0, 0.125, 100, lower, "b", None, {},
                     *further, reference=True)

    assert not cell(2.0).violation  # below its lower_bound only
    assert cell(2.0, 1.5).violation  # below a further bound
    assert not cell(0.5, 1.375).violation
    assert cell(2.0, 1.5).lower_bound == 2.0


def test_dpsgml_row_is_flagged_against_its_packing_bound_only(monkeypatch):
    # radius^2 = 0.01 lies below the rate d/(2 gamma n) = 0.025, so the rate
    # is no bound here; a packing bound above the risk is one.
    model = gaussian_mean_model(5, sigma=1.0, radius=0.1)
    run = lambda: run_dpsgml(model, np.full(5, 0.02), [200], [0.5], m=64, trials=100, seed=7)
    sgml, mle = run().cells
    assert sgml.risk < sgml.lower_bound - 3.0 * sgml.stderr
    assert not sgml.violation and not mle.violation
    monkeypatch.setattr(experiments_mod, "_packing_bound", lambda *args: SimpleNamespace(value=1.0))
    sgml, mle = run().cells
    assert sgml.violation and not mle.violation
    assert sgml.lower_bound == 0.025 and sgml.extras["packing_bound"] == 1.0


# ---------------------------------------------------------------- cell streams


def _bernoulli_draw(c, n, rng, trials):
    means = _bernoulli_means(0.5, n, rng, trials)
    if c.kind == "pure":
        return means + _laplace_noise(c.epsilon)(n, rng, trials)
    if c.kind == "zcdp":
        return means + _gaussian_noise(c.rho)(n, rng, trials)
    return means


_STUDIES = {
    "bernoulli": (
        lambda ns, cs: run_bernoulli(ns, cs, trials=150, seed=31), 0.5, _bernoulli_draw,
        [PrivacyConstraint.pure(0.5), PrivacyConstraint.zcdp(0.1)],
    ),
    "gaussian": (
        lambda ns, cs: run_gaussian(3, 1.0, ns, cs, trials=150, seed=31), np.zeros(3),
        lambda c, n, rng, trials: _gaussian_means(np.zeros(3), 1.0, n, rng, trials),
        [PrivacyConstraint.none(), PrivacyConstraint.zcdp(0.1)],
    ),
    "uniform": (
        lambda ns, cs: run_uniform(ns, cs, trials=150, seed=31), 1.0,
        lambda c, n, rng, trials: _uniform_maxima(1.0, n, rng, trials),
        [PrivacyConstraint.none(), PrivacyConstraint.pure(0.5)],
    ),
}


@pytest.mark.parametrize("study", sorted(_STUDIES))
def test_cell_k_draws_from_stream_k_constraint_major(study):
    # Cell k's risk and stderr are those of its statistics, and noise, drawn
    # at once from derived_rng(seed, k).
    run, theta_star, draw, constraints = _STUDIES[study]
    ns = [20, 40, 80]
    report = run(ns, constraints)
    grid = [(c, n) for c in constraints for n in ns]
    assert [(cell.constraint, cell.n) for cell in report.cells] == grid
    for k, (cell, (c, n)) in enumerate(zip(report.cells, grid)):
        gap = draw(c, n, derived_rng(31, k), 150) - theta_star
        losses = np.sum(np.reshape(gap * gap, (150, -1)), axis=1)
        assert (cell.risk, cell.stderr) == (losses.mean(), losses.std(ddof=1) / math.sqrt(150))


# ----------------------------------------------------------------- reporting


def test_report_to_dict_round_trips_cells(bernoulli_report):
    payload = bernoulli_report.to_dict()
    assert payload["model"] == "bernoulli"
    assert payload["seed"] == 9
    assert len(payload["cells"]) == 9
    cell = payload["cells"][0]
    assert set(cell) == {
        "model", "n", "constraint", "mechanism", "risk", "stderr", "trials",
        "lower_bound", "branch", "analytic_risk", "violation", "extras",
    }
    assert set(cell["constraint"]) == {"kind", "epsilon", "delta", "rho"}


# -------------------------------------------------------------- statistic laws

# Each study draws the one statistic its estimator reads.  These tests hold
# that draw to the record path (the model's records, reduced by the
# estimator) with a two-sample Kolmogorov-Smirnov test at a pinned level, and
# to its closed-form mean and mean squared error about theta.
_LAW_DRAWS = 100_000
_KS_LEVEL = 1e-3
_LAW_Z = 4.0


def _bernoulli_law(theta, n):
    draw = lambda rng: _bernoulli_means(theta, n, rng, _LAW_DRAWS)
    reduce = lambda records: records.mean(axis=1)
    return draw, _Coin().sample, reduce, theta, n, theta, theta * (1.0 - theta) / n


def _uniform_law(theta, n):
    draw = lambda rng: _uniform_maxima(theta, n, rng, _LAW_DRAWS)
    reduce = lambda records: records.max(axis=1)
    return draw, _Uniform().sample, reduce, theta, n, theta * n / (n + 1), 2.0 * theta**2 / ((n + 1) * (n + 2))


def _gaussian_law(theta, sigma, n):
    theta = np.asarray(theta, dtype=float)
    model = gaussian_mean_model(theta.shape[0], sigma=sigma, radius=10.0)
    draw = lambda rng: _gaussian_means(theta, sigma, n, rng, _LAW_DRAWS)
    reduce = lambda records: records.mean(axis=1)
    return draw, model.sample, reduce, theta, n, theta, sigma**2 * theta.shape[0] / n


# id: (statistic draw, record sampler, reduction, theta, n, mean, mean squared error)
_LAWS = {
    "bernoulli-0.3-20": _bernoulli_law(0.3, 20),
    "bernoulli-0.5-1": _bernoulli_law(0.5, 1),
    "bernoulli-0.9-7": _bernoulli_law(0.9, 7),
    "uniform-2-10": _uniform_law(2.0, 10),
    "uniform-1-1": _uniform_law(1.0, 1),
    "uniform-0.5-30": _uniform_law(0.5, 30),
    "gaussian-d3-2-10": _gaussian_law([0.5, -0.2, 0.1], 2.0, 10),
    "gaussian-d1-0.5-1": _gaussian_law([0.3], 0.5, 1),
    "gaussian-d2-1-15": _gaussian_law([0.0, 1.0], 1.0, 15),
}


def _direct_draws(law, seed):
    """The statistic drawn directly, one (draws, d) row a trial."""
    return np.reshape(law[0](derived_rng(seed, 0)), (_LAW_DRAWS, -1))


@pytest.mark.parametrize("name", sorted(_LAWS))
def test_the_drawn_statistic_has_the_record_paths_law(name):
    law = _LAWS[name]
    _, sample, reduce, theta, n, _, _ = law
    direct = _direct_draws(law, 41)
    recorded = reduce(sample(theta, n * _LAW_DRAWS, derived_rng(41, 1)).reshape(_LAW_DRAWS, n, -1))
    assert direct.shape == recorded.shape
    # Each coordinate, and the squared loss the study scores.
    for a, b in [*zip(direct.T, recorded.T), (np.sum((direct - theta) ** 2, axis=1),
                                              np.sum((recorded - theta) ** 2, axis=1))]:
        assert ks_2samp(a, b).pvalue > _KS_LEVEL


@pytest.mark.parametrize("name", sorted(_LAWS))
def test_the_drawn_statistic_has_the_closed_form_moments(name):
    law = _LAWS[name]
    *_, theta, _, mean, mse = law
    direct = _direct_draws(law, 43)
    se = direct.std(axis=0, ddof=1) / math.sqrt(_LAW_DRAWS)
    assert np.all(np.abs(direct.mean(axis=0) - mean) <= _LAW_Z * se)
    losses = np.sum((direct - theta) ** 2, axis=1)
    assert abs(losses.mean() - mse) <= _LAW_Z * losses.std(ddof=1) / math.sqrt(_LAW_DRAWS)


@pytest.mark.parametrize("noise", [_laplace_noise, _gaussian_noise])
def test_a_noise_vector_is_the_private_means_scalar_draws_in_order(noise):
    draw = noise(0.5)
    vector = draw(40, derived_rng(3, 1), 51)
    rng = derived_rng(3, 1)
    assert vector.tolist() == [draw(40, rng) for _ in range(51)]


@pytest.mark.parametrize("mechanism, noise", [(laplace_mean, _laplace_noise),
                                              (gaussian_mean, _gaussian_noise)])
def test_block_path_keeps_the_private_means_input_checks(mechanism, noise):
    # The studies draw each cell's noise block through these helpers, which
    # keep the budget checks of laplace_mean and gaussian_mean.
    with pytest.raises(DomainError) as expected:
        mechanism(np.full(10, 0.5), 0.0, derived_rng(0))
    with pytest.raises(DomainError) as caught:
        noise(0.0)
    assert str(caught.value) == str(expected.value)


@pytest.mark.parametrize(
    "run",
    [
        lambda trials: run_bernoulli([50], [PrivacyConstraint.pure(0.1)], trials=trials, seed=0),
        lambda trials: run_gaussian(3, 1.0, [10], [PrivacyConstraint.none()], trials=trials, seed=0),
        lambda trials: run_uniform([10], [PrivacyConstraint.none()], trials=trials, seed=0),
    ],
    ids=["bernoulli", "gaussian", "uniform"],
)
def test_studies_need_at_least_100_trials(run):
    with pytest.raises(DomainError, match="trials must be >= 100"):
        run(99)
    assert run(100).trials == 100


# ------------------------------------------------------------- serial trials

# The core counts the machine is made to report: no study and no
# monte_carlo_risk call starts a thread, whatever the count.
_CPU_COUNTS = [1, 2, 3, 7]


@pytest.fixture
def thread_starts(monkeypatch):
    """The threads started while the test runs."""
    starts = []
    original = threading.Thread.start

    def start(self):
        starts.append(self)
        original(self)

    monkeypatch.setattr(threading.Thread, "start", start)
    return starts


def _failing_sampler(seed, failing):
    """A model whose sampler raises on the given trials of the streams
    (seed, t).

    The streams of a cell share one key, and trial t starts at counter
    t * 2**128, which is where the sampler, the first to draw, finds it."""

    def stream(rng):
        state = rng.bit_generator.state["state"]
        low, high = state["counter"][2:].tolist()
        return tuple(state["key"].tolist()), low | high << 64

    failing = {stream(derived_rng(seed, t)) for t in failing}

    def sample(theta, n, rng):
        key, t = stream(rng)
        if (key, t) in failing:
            raise DegenerateInput(f"trial {t} failed")
        return np.zeros(n)

    return SimpleNamespace(sample=sample)


@pytest.mark.parametrize("cpus", _CPU_COUNTS)
def test_threaded_trials_raise_the_lowest_failing_trial(monkeypatch, thread_starts, cpus):
    monkeypatch.setattr(os, "cpu_count", lambda: cpus)
    for failing, first in (((7, 150), 7), ((150,), 150)):
        with pytest.raises(DegenerateInput, match=f"trial {first} failed"):
            monte_carlo_risk(_failing_sampler(3, failing), 0.0, _mean_mech, n=1, trials=200, seed=3)
    assert thread_starts == []


@pytest.mark.parametrize("cpus", _CPU_COUNTS)
def test_unmarked_callables_and_other_studies_start_no_thread(monkeypatch, thread_starts, cpus):
    monkeypatch.setattr(os, "cpu_count", lambda: cpus)
    constraints = [PrivacyConstraint.none(), PrivacyConstraint.pure(1.0)]
    run_uniform([10, 5000], constraints, trials=101, seed=5)
    run_bernoulli([50, 5000], constraints, trials=101, seed=5)
    run_gaussian(66, 1.0, [64, 101], constraints, trials=103, seed=17)
    model = gaussian_mean_model(5, radius=10.0)
    run_dpsgml(model, np.full(5, 0.3), [1000], [0.5], m=16, trials=101, seed=19)
    mean = lambda data, rng: data.mean(axis=0)
    monte_carlo_risk(model, np.zeros(5), mean, n=1000, trials=101, seed=5)
    wrapped = dataclasses.replace(model, sample=lambda *args: model.sample(*args))
    monte_carlo_risk(wrapped, np.zeros(5), mean, n=1000, trials=101, seed=5)
    assert thread_starts == []
