"""Monte-Carlo risk studies comparing estimators against lower-bound curves.

Each run produces an ExperimentReport: a grid of (n, constraint) cells, each
holding one mechanism's empirical squared-loss risk, a headline lower bound
(the family's closed-form constant where one exists), an independently
evaluated testing bound with its winning branch, and rate slopes.  Every
cell of all four studies is built by one _cell, which holds the violation
rule: a cell is flagged when its risk undercuts its lower bound, or a
further bound, by more than three standard errors; reports with violations
fail loudly downstream.  A reference row, whose "lower bound" is its own
expected risk (run_dpsgml's MLE rows), is never flagged.  An empty grid
axis is a DomainError.

The three worked examples (Bernoulli, Gaussian, uniform) score estimators
that read one statistic of the n records, and that statistic has an exact
law: Binomial(n, theta)/n for the Bernoulli mean, theta U^(1/n) for the
uniform maximum and theta + (sigma/sqrt(n)) Z, Z ~ N(0, I_d), for the
Gaussian mean.  So they share one cell loop, _run_grid, which walks the
cells constraint-major: cell k draws its vector of per-trial statistics,
then its vector of noise (the private Bernoulli means), from the one stream
derived_rng(seed, k), and scores the trials at once.  No record is drawn.
run_dpsgml walks its (rho, n) cells rho-major: its records feed an
iterative solve, so cell k draws trial t's data from (seed, k, 0, t) and its
DP-SGML noise from (seed, k, 1, t); its xi^2 is exact and draws nothing.
The trials of such a stream share a Philox key, and trial t is addressed
by the counter (see _rng).  The MLE row of each distinct n reuses
the first min(trials, 100) datasets of that n's first cell.  Every study
rejects an n below 1.

monte_carlo_risk scores any user's sampler and mechanism trial by trial,
serially: trial t reads the stream (seed, *tags, t).
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import asdict, dataclass, field
from typing import Callable, Optional

import numpy as np

# Looked up at call time, so perfbench/tracing.py can wrap derived_rng by name.
from ._rng import derived_rng, trial_rngs
from .bounds import (
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
from .errors import DegenerateInput, DomainError, NonFinite, RegimeError
from .mechanisms import gaussian_mean, laplace_mean  # noqa: F401  (wrapped by perfbench/tracing.py)
from .mechanisms import (
    ParametricModel,
    _gaussian_noise,
    _laplace_noise,
    dp_sgml_batch,
    dp_sgml_config,
    estimate_xi2,
    gaussian_mean_model,
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
        return asdict(self)

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
    The trials run in order on the calling thread; trial_rngs derives the
    cell's Philox key once and rewinds one Generator to trial t's counter,
    which gives derived_rng(seed, *tags, t) bit for bit, so the rng passed to
    the sampler and the mechanism is valid only for its own trial.  A
    non-finite loss raises NonFinite.
    """
    _check_trials(trials)
    if n < 1:
        raise DomainError("n must be >= 1")
    space = getattr(model, "space", None)
    if space is not None and not space.contains(np.atleast_1d(np.asarray(theta_star, dtype=float))):
        raise DomainError("theta_star lies outside the parameter space")
    losses = np.empty(trials)
    for t, rng in enumerate(trial_rngs(seed, tags, trials)):
        data = model.sample(theta_star, n, rng)
        losses[t] = _squared_loss(mechanism(data, rng), theta_star)
    risk, stderr = _risk_stderr(losses)
    return RiskEstimate(
        risk=risk, stderr=stderr, trials=trials, seed=seed, n=n,
        constraint=constraint or PrivacyConstraint.none(),
    )


def _check_trials(trials: int) -> None:
    if trials < _MIN_TRIALS:
        raise DomainError(f"trials must be >= {_MIN_TRIALS}")


def _risk_stderr(losses: np.ndarray) -> tuple[float, float]:
    """The mean of a cell's trial losses and its standard error; a
    non-finite loss raises NonFinite."""
    if not np.all(np.isfinite(losses)):
        raise NonFinite("a trial's squared loss is non-finite")
    return float(losses.mean()), float(losses.std(ddof=1) / math.sqrt(len(losses)))


def rate_slope(points) -> float:
    """Least-squares slope of ln(risk) against ln(n), over at least three
    points on at least two distinct n, each n and risk in (0, inf)."""
    pts = [(float(n), float(r)) for n, r in points]
    if len(pts) < 3:
        raise DegenerateInput("need at least three (n, risk) points")
    if len({n for n, _ in pts}) < 2:
        raise DegenerateInput("need at least two distinct n")
    # Written so that nan, which fails every comparison, is rejected too.
    if not all(0.0 < n < math.inf and 0.0 < r < math.inf for n, r in pts):
        raise DegenerateInput("rate fits need positive finite n and risk")
    x = np.log([n for n, _ in pts])
    y = np.log([r for _, r in pts])
    return float(np.polyfit(x, y, 1)[0])


def _slopes(points: dict) -> dict:
    """The rate slope of every key that has at least three (n, risk) points
    on at least two distinct n."""
    return {
        key: rate_slope(pts) for key, pts in points.items()
        if len(pts) >= 3 and len({n for n, _ in pts}) >= 2
    }


def _grid(outer, ns, outer_name: str):
    """The (k, (outer value, n)) cells of a study, outer-major; no axis may
    be empty and every n must be at least 1."""
    outer, ns = tuple(outer), tuple(ns)
    for name, axis in ((outer_name, outer), ("ns", ns)):
        if not axis:
            raise DomainError(f"{name} must not be empty")
    if any(not n >= 1 for n in ns):
        raise DomainError("every n in ns must be >= 1")
    return enumerate(itertools.product(outer, ns))


def _cell(model, n, c, mechanism, risk, stderr, trials, lower, branch, analytic, extras, *further,
          reference=False):
    """One CellResult, flagged when its risk undercuts the lower bound or a
    further bound by more than three standard errors.  In a reference row
    lower_bound is not a certified bound (an expected risk, or a rate with no
    constant), so the row is flagged only against the further bounds."""
    bounds = further if reference else (lower, *further)
    violation = any(risk < b - 3.0 * stderr for b in bounds)
    return CellResult(
        model=model, n=n, constraint=c, mechanism=mechanism, risk=risk, stderr=stderr,
        trials=trials, lower_bound=lower, branch=branch, analytic_risk=analytic,
        violation=violation, extras=extras,
    )


def _bernoulli_means(theta, n, rng, trials) -> np.ndarray:
    """trials draws of the mean of n Bernoulli(theta) records: Binomial(n, theta) / n."""
    return rng.binomial(n, theta, trials) / n


def _uniform_maxima(theta, n, rng, trials) -> np.ndarray:
    """trials draws of the maximum of n Uniform[0, theta] records: theta U^(1/n)."""
    return theta * rng.random(trials) ** (1.0 / n)


def _gaussian_means(theta, sigma, n, rng, trials) -> np.ndarray:
    """trials draws, one a row, of the mean of n N(theta, sigma^2 I_d)
    records: theta + (sigma / sqrt(n)) Z with Z ~ N(0, I_d)."""
    theta = np.asarray(theta, dtype=float)
    return theta + (sigma / math.sqrt(n)) * rng.standard_normal((trials, theta.shape[0]))


def _run_grid(name, theta_star, ns, constraints, trials, seed, cell) -> tuple:
    """The Monte-Carlo cells of one study, constraint-major.

    cell(c, n) returns (mechanism name, draw, lower bound, branch, analytic
    risk, extras, further bounds): draw(rng, trials) returns the estimates
    of trials trials, one an entry or a row, and the rest are the arguments
    _cell needs beside the risk.  Cell k draws from the stream
    derived_rng(seed, k).
    """
    _check_trials(trials)
    cells = []
    for k, (c, n) in _grid(constraints, ns, "constraints"):
        mechanism, draw, lower, branch, analytic, extras, further = cell(c, n)
        gap = (draw(derived_rng(seed, k), trials) - theta_star).reshape(trials, -1)
        risk, stderr = _risk_stderr(np.sum(gap * gap, axis=1))
        cells.append(_cell(
            name, n, c, mechanism, risk, stderr, trials, lower, branch, analytic, extras, *further,
        ))
    return tuple(cells)


def _nonprivate_points(cells) -> list:
    return [(cell.n, cell.risk) for cell in cells if cell.constraint.kind == "none"]


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
    cells = _run_grid(
        "bernoulli", theta_star, ns, constraints, trials, seed,
        lambda c, n: _bernoulli_cell(c, n, theta_star),
    )
    points: dict[str, list] = {}
    for cell in cells:
        points.setdefault(cell.mechanism, []).append((cell.n, cell.risk))
        nonprivate_const = 1.0 / (160.0 * cell.n)
        dominated = cell.lower_bound >= nonprivate_const * (1.0 - _DOMINANCE_TOL)
        if cell.constraint.kind != "none" and dominated:
            points.setdefault(f"{cell.mechanism}_privacy_dominated", []).append((cell.n, cell.risk))
    return ExperimentReport(
        model="bernoulli", seed=seed, trials=trials, cells=cells, slopes=_slopes(points),
    )


def _bernoulli_cell(c: PrivacyConstraint, n: int, theta_star: float):
    if c.kind == "none":
        if n < 4:
            raise RegimeError("the nonprivate constant needs n >= 4")
        gap = 1.0 / (2.0 * math.sqrt(n))
        kl_n = closed_form(Bernoulli(theta_star), Bernoulli(theta_star + gap), "kl", n)
        evaluated_test = le_cam_private(None, n, pinsker_tv_upper(kl_n))
        lower = 1.0 / (160.0 * n)
        noise = None
        name, analytic = "empirical_mean", theta_star * (1.0 - theta_star) / n
    elif c.kind == "pure":
        eps, _ = c.eps_delta()
        if n * eps < 2.0:
            raise RegimeError("the DP constant needs n * eps >= 2")
        gap = 1.0 / (n * eps)
        evaluated_test = le_cam_private(c, n, gap, form="product")
        lower = 1.0 / (80.0 * (n * eps) ** 2)
        noise = _laplace_noise(eps)
        name = "laplace"
        analytic = theta_star * (1.0 - theta_star) / n + 2.0 / (n * eps) ** 2
    elif c.kind == "zcdp":
        rho = float(c.rho)
        if n * math.sqrt(rho) < 2.0:
            raise RegimeError("the zCDP constant needs n * sqrt(rho) >= 2")
        gap = 1.0 / (n * math.sqrt(rho))
        evaluated_test = le_cam_private(c, n, gap, form="product")
        lower = 1.0 / (64.0 * n * n * rho)
        noise = _gaussian_noise(rho)
        name = "gaussian"
        analytic = theta_star * (1.0 - theta_star) / n + 4.0 / (n * n * rho)
    else:
        raise RegimeError("the closed-form constants cover none, pure and zcdp only")
    value = minimax_from_packing((gap / 2.0) ** 2, evaluated_test)
    extras = {"bound_eval": value, "theta_star": theta_star}

    def draw(rng, trials):
        means = _bernoulli_means(theta_star, n, rng, trials)
        return means if noise is None else means + noise(n, rng, trials)

    return name, draw, lower, evaluated_test.branch, analytic, extras, (value,)


def _packing_bound(d: int, n: int, gamma: float, radius: float, c: PrivacyConstraint):
    """kl_quadratic_bounds(d, n, gamma, radius, c), or None wherever that
    raises DomainError: below d = 66, or at a budget it does not cover."""
    try:
        return kl_quadratic_bounds(d, n, gamma, radius, c)
    except DomainError:
        return None


def run_gaussian(d: int, sigma: float, ns, constraints, trials: int, seed: int) -> ExperimentReport:
    """Mean estimation for N(0, sigma^2 I_d) data on the unit ball.

    The empirical mean's risk sigma^2 d / n is compared against the
    KL-quadratic packing bound.  A cell the bound does not cover (d < 66,
    or rho >= 1) reads lower bound 0.0 and branch "unavailable".
    """
    model = gaussian_mean_model(d, sigma=sigma, radius=1.0)
    theta_star = np.zeros(d)

    def cell(c, n):
        draw = functools.partial(_gaussian_means, theta_star, sigma, n)
        bound = _packing_bound(d, n, model.gamma, 1.0, c)
        lower, branch = (0.0, "unavailable") if bound is None else (bound.value, bound.branch)
        analytic = sigma * sigma * d / n
        extras = {"d": d, "sigma": sigma, "gamma": model.gamma}
        return "empirical_mean", draw, lower, branch, analytic, extras, ()

    cells = _run_grid("gaussian", theta_star, ns, constraints, trials, seed, cell)
    return ExperimentReport(
        model="gaussian", seed=seed, trials=trials, cells=cells,
        slopes=_slopes({"empirical_mean": _nonprivate_points(cells)}),
    )


def run_uniform(ns, constraints, trials: int, seed: int) -> ExperimentReport:
    """Support estimation for Uniform[0, 1] data with the max estimator.

    Lower-bound columns carry e^{-1}/(8 n^2), e^{-1}/(8 (n eps)^2) and
    (1 - 1/sqrt(2))/(8 n^2 rho) exactly; evaluated two-point bounds with the
    exact n-fold product total variation are recorded alongside.  Stricter
    privacy (smaller eps or rho) degrades the bound systematically.
    """
    theta_star = 1.0

    def cell(c, n):
        draw = functools.partial(_uniform_maxima, theta_star, n)
        lower, evaluated = _uniform_bounds(c, n, theta_star)
        analytic = 2.0 * theta_star**2 / ((n + 1) * (n + 2))
        return "max_estimator", draw, lower, evaluated["branch"], analytic, evaluated, ()

    cells = _run_grid("uniform", theta_star, ns, constraints, trials, seed, cell)
    notes = (
        "for fixed n the private lower bounds grow as eps or rho shrink: "
        "stricter privacy degrades the achievable n^-2 rate systematically",
        "the nonprivate constant rounds (1 - 1/n)^n up to e^-1, so the exact "
        "evaluated bound sits slightly below the printed constant",
    )
    return ExperimentReport(
        model="uniform", seed=seed, trials=trials, cells=cells,
        slopes=_slopes({"max_estimator": _nonprivate_points(cells)}), notes=notes,
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
    m: Optional[int],
    trials: int,
    seed: int,
) -> ExperimentReport:
    """DP-SGML risk over an (n, rho) grid, with MLE baseline and lower bounds.
    Each step averages m records drawn with replacement, or every record
    when m is None.

    The lower bound per cell is the parametric rate max{d/(2 gamma rho n^2),
    d/(2 gamma n)}.  It carries no constant and can exceed what the space
    permits, so each dp_sgml row is a reference row, flagged only against
    the packing-argument bound where kl_quadratic_bounds applies.  One MLE
    row per distinct n carries the rate's nonprivate part, the MLE's own
    expected risk; it is a reference row with no further bound, so it is
    never flagged.  Slopes are reported per grid axis, and each dp_sgml cell
    records its risk-to-bound ratio, the exact batch-gradient noise xi^2 of
    its first dataset at that dataset's MLE, and the packing-argument bound
    (null where kl_quadratic_bounds does not apply).
    """
    theta_star = np.asarray(theta_star, dtype=float)
    d = model.dim
    if theta_star.shape != (d,):
        raise DomainError(f"theta_star must have shape ({d},)")
    if not model.space.contains(theta_star):
        raise DomainError("theta_star lies outside the parameter space")
    _check_trials(trials)
    beta_kl = 2.0 * model.gamma
    cells = []
    sgml_points: dict[tuple, list] = {}
    ml_trials = min(trials, 100)
    ml_done: set[int] = set()
    for k, (rho, n) in _grid(rhos, ns, "rhos"):
        c = PrivacyConstraint.zcdp(rho)
        cfg = dp_sgml_config(n, d, rho, model, m)
        data = np.empty((trials, n, d))
        for t, rng in enumerate(trial_rngs(seed, (k, 0), trials)):
            data[t] = model.sample(theta_star, n, rng)
        outputs = dp_sgml_batch(data, model, cfg, seed, k, 1)
        risk, stderr = _risk_stderr(np.sum((outputs - theta_star[None, :]) ** 2, axis=1))

        theta_ml = mle_pga(data[:ml_trials], model)
        nonprivate_lower = d / (beta_kl * n)
        lower = max(d / (beta_kl * rho * n * n), nonprivate_lower)
        packing = _packing_bound(d, n, model.gamma, model.space.inradius, c)
        extras = {
            "ratio": risk / lower,
            "xi2": estimate_xi2(data[0], model, theta_ml[0], m),
            "K": cfg.K,
            "eta": cfg.eta,
            "sigma2_noise": cfg.sigma2_noise,
            "m": m,
            "packing_bound": None if packing is None else packing.value,
        }
        branch = "zcdp_parametric" if lower > nonprivate_lower else "nonprivate_parametric"
        cells.append(_cell(
            "dpsgml", n, c, "dp_sgml", risk, stderr, trials, lower, branch, None, extras,
            *(() if packing is None else (packing.value,)), reference=True,
        ))
        if n not in ml_done:
            ml_done.add(n)
            ml_losses = [_squared_loss(theta, theta_star) for theta in theta_ml]
            ml_risk, ml_stderr = _risk_stderr(np.array(ml_losses))
            cells.append(_cell(
                "dpsgml", n, PrivacyConstraint.none(), "mle", ml_risk, ml_stderr, ml_trials,
                nonprivate_lower, "nonprivate_parametric", None, {}, reference=True,
            ))
        sgml_points.setdefault(("n", rho), []).append((n, risk))
        sgml_points.setdefault(("rho", n), []).append((rho, risk))
    slopes = _slopes({
        f"n_slope@rho={fixed:g}" if axis == "n" else f"rho_slope@n={fixed:g}": pts
        for (axis, fixed), pts in sgml_points.items()
    })
    return ExperimentReport(
        model="dpsgml", seed=seed, trials=trials, cells=tuple(cells), slopes=slopes,
    )
