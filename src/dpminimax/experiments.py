"""Monte-Carlo risk studies comparing estimators against lower-bound curves.

Each run produces an ExperimentReport: a grid of (n, constraint) cells, each
holding one mechanism's empirical squared-loss risk, a headline lower bound
(the family's closed-form constant where one exists), an independently
evaluated testing bound with its winning branch, and rate slopes.  A cell is
flagged as a violation when the risk undercuts its lower bound by more than
three standard errors; reports with violations fail loudly downstream.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from ._rng import derived_rng, trial_rngs
from .bounds import (
    BoundResult,
    PrivacyConstraint,
    kl_quadratic_bounds,
    le_cam_private,
    minimax_from_packing,
)
from .divergences import (
    Bernoulli,
    UniformSupport,
    closed_form,
    pinsker_tv_upper,
)
from .errors import DegenerateInput, DomainError, RegimeError
from .mechanisms import (
    ParametricModel,
    dp_sgml_batch,
    dp_sgml_config,
    estimate_xi2,
    gaussian_mean,
    gaussian_mean_model,
    laplace_mean,
    mle_pga,
)

__all__ = [
    "RiskEstimate",
    "CellResult",
    "ExperimentReport",
    "monte_carlo_risk",
    "rate_slope",
    "run_bernoulli",
    "run_gaussian",
    "run_uniform",
    "run_dpsgml",
]

_MIN_TRIALS = 100
_DOMINANCE_TOL = 1e-9


@dataclass(frozen=True)
class RiskEstimate:
    """Mean squared-loss risk of one mechanism at one (theta_star, n) cell."""

    risk: float
    stderr: float
    trials: int
    seed: int
    n: int
    constraint: PrivacyConstraint

    def __post_init__(self):
        if self.risk < 0.0 or self.stderr < 0.0:
            raise DomainError("risk and stderr must be non-negative")


@dataclass(frozen=True)
class CellResult:
    """One mechanism evaluated in one grid cell, with its lower bound."""

    model: str
    n: int
    constraint: PrivacyConstraint
    mechanism: str
    risk: float
    stderr: float
    trials: int
    lower_bound: float
    branch: str
    analytic_risk: Optional[float]
    violation: bool
    extras: dict = field(default_factory=dict, compare=False)


@dataclass(frozen=True)
class ExperimentReport:
    model: str
    seed: int
    trials: int
    cells: tuple
    slopes: dict = field(compare=False)
    notes: tuple = ()

    def violations(self) -> tuple:
        return tuple(cell for cell in self.cells if cell.violation)

    def to_dict(self) -> dict:
        return {
            "model": self.model,
            "seed": self.seed,
            "trials": self.trials,
            "cells": [_cell_dict(cell) for cell in self.cells],
            "slopes": dict(self.slopes),
            "notes": list(self.notes),
        }

    def csv_rows(self) -> list[dict]:
        rows = []
        for cell in self.cells:
            c = cell.constraint
            rows.append(
                {
                    "model": cell.model,
                    "n": cell.n,
                    "constraint_kind": c.kind,
                    "eps": "" if c.epsilon is None else repr(float(c.epsilon)),
                    "delta": "" if c.delta is None else repr(float(c.delta)),
                    "rho": "" if c.rho is None else repr(float(c.rho)),
                    "mechanism": cell.mechanism,
                    "risk": repr(cell.risk),
                    "stderr": repr(cell.stderr),
                    "lower_bound": repr(cell.lower_bound),
                    "branch": cell.branch,
                }
            )
        return rows


def _constraint_dict(c: PrivacyConstraint) -> dict:
    return {"kind": c.kind, "epsilon": c.epsilon, "delta": c.delta, "rho": c.rho}


def _cell_dict(cell: CellResult) -> dict:
    return {
        "model": cell.model,
        "n": cell.n,
        "constraint": _constraint_dict(cell.constraint),
        "mechanism": cell.mechanism,
        "risk": cell.risk,
        "stderr": cell.stderr,
        "trials": cell.trials,
        "lower_bound": cell.lower_bound,
        "branch": cell.branch,
        "analytic_risk": cell.analytic_risk,
        "violation": cell.violation,
        "extras": dict(cell.extras),
    }


def _squared_loss(estimate, theta_star) -> float:
    if isinstance(estimate, float) and isinstance(theta_star, float):
        gap = estimate - theta_star
        return gap * gap
    gap = np.asarray(estimate, dtype=float) - np.asarray(theta_star, dtype=float)
    return float(gap @ gap) if gap.ndim == 1 else float(np.sum(gap * gap))


def monte_carlo_risk(
    model,
    theta_star,
    mechanism: Callable,
    n: int,
    trials: int,
    seed: int,
    constraint: Optional[PrivacyConstraint] = None,
    tags: tuple = (),
) -> RiskEstimate:
    """Empirical mean squared loss of mechanism(data, rng) over fresh datasets.

    Trial t draws its data and mechanism noise from the stream
    (seed, *tags, t), so the estimate is independent of trial scheduling.
    The streams are derived in bulk by trial_rngs and equal
    derived_rng(seed, *tags, t) bit for bit; the rng passed to the sampler
    and the mechanism is valid only for its own trial.
    """
    if trials < _MIN_TRIALS:
        raise DomainError(f"trials must be >= {_MIN_TRIALS}")
    if n < 1:
        raise DomainError("n must be >= 1")
    space = getattr(model, "space", None)
    if space is not None and not space.contains(np.atleast_1d(np.asarray(theta_star, dtype=float))):
        raise DomainError("theta_star lies outside the parameter space")
    constraint = constraint or PrivacyConstraint.none()
    losses = np.empty(trials)
    for t, rng in enumerate(trial_rngs(seed, tags, trials)):
        data = model.sample(theta_star, n, rng)
        losses[t] = _squared_loss(mechanism(data, rng), theta_star)
    stderr = float(losses.std(ddof=1) / math.sqrt(trials)) if trials > 1 else 0.0
    return RiskEstimate(
        risk=float(losses.mean()), stderr=stderr, trials=trials, seed=seed,
        n=n, constraint=constraint,
    )


def rate_slope(points) -> float:
    """Least-squares slope of ln(risk) against ln(n)."""
    pts = [(float(n), float(r)) for n, r in points]
    if len(pts) < 3:
        raise DegenerateInput("need at least three (n, risk) points")
    if any(r <= 0.0 or n <= 0.0 for n, r in pts):
        raise DegenerateInput("rate fits need positive n and risk")
    x = np.log([n for n, _ in pts])
    y = np.log([r for _, r in pts])
    return float(np.polyfit(x, y, 1)[0])


@dataclass(frozen=True)
class _SamplerModel:
    name: str
    sample: Callable = field(compare=False)


def _bernoulli_sampler() -> _SamplerModel:
    return _SamplerModel(
        "bernoulli", lambda theta, n, rng: (rng.random(n) < theta).astype(np.float64)
    )


def _uniform_sampler() -> _SamplerModel:
    return _SamplerModel("uniform", lambda theta, n, rng: theta * rng.random(n))


def _slope_or_skip(slopes: dict, key: str, points) -> None:
    if len(points) >= 3:
        slopes[key] = rate_slope(points)


def _cell_violation(risk: float, stderr: float, *bounds: float) -> bool:
    return any(risk < b - 3.0 * stderr for b in bounds)


def run_bernoulli(ns, constraints, trials: int, seed: int) -> ExperimentReport:
    """Mean estimation for Bernoulli(1/2) data under each constraint.

    Lower-bound columns carry the closed-form constants 1/(160 n),
    1/(80 (n eps)^2) and 1/(64 n^2 rho); a two-point testing bound evaluated
    at the matching packing is recorded alongside with its branch.  Slopes are
    fit per mechanism, plus "<mechanism>_privacy_dominated" fits restricted to
    cells whose private constant is at least the nonprivate one (ties at the
    regime boundary are kept).
    """
    theta_star = 0.5
    model = _bernoulli_sampler()
    cells = []
    points: dict[str, list] = {}
    dominated: dict[str, list] = {}
    cell_id = 0
    for c in constraints:
        for n in ns:
            mech_name, mechanism, lower, evaluated, analytic = _bernoulli_cell(c, n, theta_star)
            est = monte_carlo_risk(
                model, theta_star, mechanism, n, trials, seed,
                constraint=c, tags=(cell_id,),
            )
            cell_id += 1
            violation = _cell_violation(est.risk, est.stderr, lower, evaluated.value)
            cells.append(
                CellResult(
                    model="bernoulli", n=n, constraint=c, mechanism=mech_name,
                    risk=est.risk, stderr=est.stderr, trials=trials,
                    lower_bound=lower, branch=evaluated.branch,
                    analytic_risk=analytic, violation=violation,
                    extras={"bound_eval": evaluated.value, "theta_star": theta_star},
                )
            )
            points.setdefault(mech_name, []).append((n, est.risk))
            nonprivate_const = 1.0 / (160.0 * n)
            if c.kind != "none" and lower >= nonprivate_const * (1.0 - _DOMINANCE_TOL):
                dominated.setdefault(mech_name, []).append((n, est.risk))
    slopes: dict[str, float] = {}
    for name, pts in points.items():
        _slope_or_skip(slopes, name, pts)
    for name, pts in dominated.items():
        _slope_or_skip(slopes, f"{name}_privacy_dominated", pts)
    return ExperimentReport(
        model="bernoulli", seed=seed, trials=trials, cells=tuple(cells), slopes=slopes,
    )


def _bernoulli_cell(c: PrivacyConstraint, n: int, theta_star: float):
    if c.kind == "none":
        if n < 4:
            raise RegimeError("the nonprivate constant needs n >= 4")
        gap = 1.0 / (2.0 * math.sqrt(n))
        kl_n = closed_form(Bernoulli(theta_star), Bernoulli(theta_star + gap), "kl", n)
        evaluated_test = le_cam_private(None, n, pinsker_tv_upper(kl_n))
        lower = 1.0 / (160.0 * n)
        mechanism = lambda data, rng: float(data.mean())
        name, analytic = "empirical_mean", theta_star * (1.0 - theta_star) / n
    elif c.kind == "pure":
        eps, _ = c.eps_delta()
        if n * eps < 2.0:
            raise RegimeError("the DP constant needs n * eps >= 2")
        gap = 1.0 / (n * eps)
        evaluated_test = le_cam_private(c, n, gap, form="product")
        lower = 1.0 / (80.0 * (n * eps) ** 2)
        mechanism = lambda data, rng: laplace_mean(data, eps, rng)
        name = "laplace"
        analytic = theta_star * (1.0 - theta_star) / n + 2.0 / (n * eps) ** 2
    elif c.kind == "zcdp":
        rho = float(c.rho)
        if n * math.sqrt(rho) < 2.0:
            raise RegimeError("the zCDP constant needs n * sqrt(rho) >= 2")
        gap = 1.0 / (n * math.sqrt(rho))
        evaluated_test = le_cam_private(c, n, gap, form="product")
        lower = 1.0 / (64.0 * n * n * rho)
        mechanism = lambda data, rng: gaussian_mean(data, rho, rng)
        name = "gaussian"
        analytic = theta_star * (1.0 - theta_star) / n + 4.0 / (n * n * rho)
    else:
        raise RegimeError("the closed-form constants cover none, pure and zcdp only")
    value = minimax_from_packing((gap / 2.0) ** 2, evaluated_test)
    evaluated = BoundResult(
        value=value, raw=value, branch=evaluated_test.branch, n=n, N=2, constraint=c,
    )
    return name, mechanism, lower, evaluated, analytic


def run_gaussian(d: int, sigma: float, ns, constraints, trials: int, seed: int) -> ExperimentReport:
    """Mean estimation for N(0, sigma^2 I_d) data on the unit ball.

    The empirical mean's risk sigma^2 d / n is compared against the
    KL-quadratic packing bound (available for d >= 66; smaller d keeps
    risk-only cells).
    """
    model = gaussian_mean_model(d, sigma=sigma, radius=1.0)
    theta_star = np.zeros(d)
    mechanism = lambda data, rng: data.mean(axis=0)
    cells = []
    points = []
    cell_id = 0
    for c in constraints:
        for n in ns:
            est = monte_carlo_risk(
                model, theta_star, mechanism, n, trials, seed,
                constraint=c, tags=(cell_id,),
            )
            cell_id += 1
            if d >= 66:
                bound = kl_quadratic_bounds(d, n, model.gamma, 1.0, c)
                lower, branch = bound.value, bound.branch
            else:
                lower, branch = 0.0, "unavailable"
            analytic = sigma * sigma * d / n
            cells.append(
                CellResult(
                    model="gaussian", n=n, constraint=c, mechanism="empirical_mean",
                    risk=est.risk, stderr=est.stderr, trials=trials,
                    lower_bound=lower, branch=branch, analytic_risk=analytic,
                    violation=_cell_violation(est.risk, est.stderr, lower),
                    extras={"d": d, "sigma": sigma, "gamma": model.gamma},
                )
            )
            if c.kind == "none":
                points.append((n, est.risk))
    slopes: dict[str, float] = {}
    _slope_or_skip(slopes, "empirical_mean", points)
    return ExperimentReport(
        model="gaussian", seed=seed, trials=trials, cells=tuple(cells), slopes=slopes,
    )


def run_uniform(ns, constraints, trials: int, seed: int) -> ExperimentReport:
    """Support estimation for Uniform[0, 1] data with the max estimator.

    Lower-bound columns carry e^{-1}/(8 n^2), e^{-1}/(8 (n eps)^2) and
    (1 - 1/sqrt(2))/(8 n^2 rho) exactly; evaluated two-point bounds with the
    exact n-fold product total variation are recorded alongside.  Stricter
    privacy (smaller eps or rho) degrades the bound systematically.
    """
    theta_star = 1.0
    model = _uniform_sampler()
    mechanism = lambda data, rng: float(data.max())
    cells = []
    points = []
    cell_id = 0
    for c in constraints:
        for n in ns:
            lower, evaluated = _uniform_bounds(c, n, theta_star)
            est = monte_carlo_risk(
                model, theta_star, mechanism, n, trials, seed,
                constraint=c, tags=(cell_id,),
            )
            cell_id += 1
            analytic = 2.0 * theta_star**2 / ((n + 1) * (n + 2))
            cells.append(
                CellResult(
                    model="uniform", n=n, constraint=c, mechanism="max_estimator",
                    risk=est.risk, stderr=est.stderr, trials=trials,
                    lower_bound=lower, branch=evaluated["branch"],
                    analytic_risk=analytic,
                    violation=_cell_violation(est.risk, est.stderr, lower),
                    extras=evaluated,
                )
            )
            if c.kind == "none":
                points.append((n, est.risk))
    slopes: dict[str, float] = {}
    _slope_or_skip(slopes, "max_estimator", points)
    notes = (
        "for fixed n the private lower bounds grow as eps or rho shrink: "
        "stricter privacy degrades the achievable n^-2 rate systematically",
        "the nonprivate constant rounds (1 - 1/n)^n up to e^-1, so the exact "
        "evaluated bound sits slightly below the printed constant",
    )
    return ExperimentReport(
        model="uniform", seed=seed, trials=trials, cells=tuple(cells),
        slopes=slopes, notes=notes,
    )


def _uniform_bounds(c: PrivacyConstraint, n: int, theta_star: float):
    if c.kind == "none":
        if n < 2:
            raise RegimeError("the nonprivate constant needs n >= 2")
        gap = 1.0 / n
        lower = theta_star**2 * math.exp(-1.0) / (8.0 * n * n)
    elif c.kind == "pure":
        eps, _ = c.eps_delta()
        if n * eps <= 1.0:
            raise RegimeError("the DP constant needs n * eps > 1")
        gap = 1.0 / (n * eps)
        lower = theta_star**2 * math.exp(-1.0) / (8.0 * (n * eps) ** 2)
    elif c.kind == "zcdp":
        rho = float(c.rho)
        if n * math.sqrt(rho) <= 1.0:
            raise RegimeError("the zCDP constant needs n * sqrt(rho) > 1")
        gap = 1.0 / (n * math.sqrt(rho))
        lower = theta_star**2 * (1.0 - 1.0 / math.sqrt(2.0)) / (8.0 * n * n * rho)
    else:
        raise RegimeError("the closed-form constants cover none, pure and zcdp only")
    lo = UniformSupport(theta_star * (1.0 - gap))
    hi = UniformSupport(theta_star)
    tv_joint = closed_form(lo, hi, "tv", n)
    phi_omega = (theta_star * gap / 2.0) ** 2
    joint = le_cam_private(c, n, tv_joint, form="joint")
    candidates = {joint.branch: minimax_from_packing(phi_omega, joint)}
    if c.kind != "none":
        product = le_cam_private(c, n, closed_form(lo, hi, "tv", 1), form="product")
        candidates[product.branch] = minimax_from_packing(phi_omega, product)
    branch = max(candidates, key=lambda k: (candidates[k], k))
    return lower, {
        "branch": branch,
        "bound_eval": candidates[branch],
        "bound_eval_all": candidates,
        "theta_star": theta_star,
    }


def run_dpsgml(
    model: ParametricModel,
    theta_star,
    ns,
    rhos,
    m: int,
    trials: int,
    seed: int,
) -> ExperimentReport:
    """DP-SGML risk over an (n, rho) grid, with MLE baseline and lower bounds.

    The lower bound per cell is the parametric rate max{d/(2 gamma rho n^2),
    d/(2 gamma n)}; one MLE row per distinct n carries its nonprivate part.
    Slopes are reported per grid axis, and each dp_sgml cell records its
    risk-to-bound ratio, the batch-gradient noise estimate xi^2 at the MLE,
    and the packing-argument bound (when the dimension admits one).
    """
    theta_star = np.asarray(theta_star, dtype=float)
    d = model.dim
    if theta_star.shape != (d,):
        raise DomainError(f"theta_star must have shape ({d},)")
    if not model.space.contains(theta_star):
        raise DomainError("theta_star lies outside the parameter space")
    if trials < _MIN_TRIALS:
        raise DomainError(f"trials must be >= {_MIN_TRIALS}")
    beta_kl = 2.0 * model.gamma
    cells = []
    sgml_points: dict[tuple, list] = {}
    cell_id = 0
    ml_trials = min(trials, 100)
    ml_done: set[int] = set()
    for rho in rhos:
        for n in ns:
            c = PrivacyConstraint.zcdp(rho)
            cfg = dp_sgml_config(n, d, rho, model, m)
            data = np.empty((trials, n, d))
            for t, rng in enumerate(trial_rngs(seed, (cell_id, 0), trials)):
                data[t] = model.sample(theta_star, n, rng)
            outputs = dp_sgml_batch(data, model, cfg, seed, cell_id, 1)
            losses = np.sum((outputs - theta_star[None, :]) ** 2, axis=1)
            risk = float(losses.mean())
            stderr = float(losses.std(ddof=1) / math.sqrt(trials))

            theta_ml0 = mle_pga(data[0], model)
            xi2, xi2_err = estimate_xi2(
                data[0], model, theta_ml0, m, 200, derived_rng(seed, cell_id, 2)
            )

            lower = max(d / (beta_kl * rho * n * n), d / (beta_kl * n))
            nonprivate_lower = d / (beta_kl * n)
            try:
                packing = kl_quadratic_bounds(d, n, model.gamma, model.space.radius, c)
                packing_value: Optional[float] = packing.value
            except DomainError:
                packing_value = None
            cells.append(
                CellResult(
                    model="dpsgml", n=n, constraint=c, mechanism="dp_sgml",
                    risk=risk, stderr=stderr, trials=trials,
                    lower_bound=lower,
                    branch="zcdp_parametric" if lower > nonprivate_lower else "nonprivate_parametric",
                    analytic_risk=None,
                    violation=_cell_violation(risk, stderr, lower),
                    extras={
                        "ratio": risk / lower,
                        "xi2": xi2,
                        "xi2_stderr": xi2_err,
                        "K": cfg.K,
                        "eta": cfg.eta,
                        "sigma2_noise": cfg.sigma2_noise,
                        "m": m,
                        "packing_bound": packing_value,
                    },
                )
            )
            if n not in ml_done:
                ml_done.add(n)
                ml_losses = np.empty(ml_trials)
                for t in range(ml_trials):
                    ml_losses[t] = _squared_loss(mle_pga(data[t], model), theta_star)
                ml_risk = float(ml_losses.mean())
                ml_stderr = float(ml_losses.std(ddof=1) / math.sqrt(ml_trials))
                cells.append(
                    CellResult(
                        model="dpsgml", n=n, constraint=PrivacyConstraint.none(),
                        mechanism="mle", risk=ml_risk, stderr=ml_stderr, trials=ml_trials,
                        lower_bound=nonprivate_lower, branch="nonprivate_parametric",
                        analytic_risk=None,
                        violation=_cell_violation(ml_risk, ml_stderr, nonprivate_lower),
                        extras={},
                    )
                )
            sgml_points.setdefault(("n", rho), []).append((n, risk))
            sgml_points.setdefault(("rho", n), []).append((rho, risk))
            cell_id += 1
    slopes: dict[str, float] = {}
    for (axis, fixed), pts in sgml_points.items():
        key = f"n_slope@rho={fixed:g}" if axis == "n" else f"rho_slope@n={fixed:g}"
        _slope_or_skip(slopes, key, pts)
    return ExperimentReport(
        model="dpsgml", seed=seed, trials=trials, cells=tuple(cells), slopes=slopes,
    )
