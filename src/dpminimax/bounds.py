"""Minimax testing lower bounds under privacy constraints.

Each bound returns a :class:`BoundResult` carrying the clamped value, the raw
(possibly negative) value, the winning branch id, and every branch that was
evaluated.  Joint forms bound mechanisms that touch the n-sample dataset at
once; Product forms assume the per-record composition structure and are
usually tighter for small epsilon or rho.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .errors import DomainError, ShapeMismatch

__all__ = [
    "PrivacyConstraint",
    "BoundResult",
    "le_cam_classical",
    "fano_classical",
    "le_cam_private",
    "fano_private",
    "minimax_from_packing",
    "kl_quadratic_bounds",
]

JOINT = "joint"
PRODUCT = "product"


@dataclass(frozen=True)
class PrivacyConstraint:
    """Tagged privacy constraint: pure/approx DP, zCDP, or none.

    ``pure(eps)`` and ``approx(eps, 0.0)`` are distinct tags but are
    guaranteed to produce identical bound values everywhere.
    """

    kind: str
    epsilon: Optional[float] = None
    delta: Optional[float] = None
    rho: Optional[float] = None

    def __post_init__(self) -> None:
        if self.kind not in ("pure", "approx", "zcdp", "none"):
            raise DomainError(f"unknown constraint kind {self.kind!r}")
        if self.kind in ("pure", "approx"):
            if self.epsilon is None or not 0.0 < self.epsilon < math.inf:
                raise DomainError("epsilon must be positive and finite")
        if self.kind == "approx":
            if self.delta is None or not 0.0 <= self.delta < 1.0:
                raise DomainError("delta must lie in [0, 1)")
        if self.kind == "zcdp":
            if self.rho is None or not 0.0 < self.rho < math.inf:
                raise DomainError("rho must be positive and finite")

    @classmethod
    def pure(cls, epsilon: float) -> "PrivacyConstraint":
        return cls("pure", epsilon=float(epsilon))

    @classmethod
    def approx(cls, epsilon: float, delta: float) -> "PrivacyConstraint":
        return cls("approx", epsilon=float(epsilon), delta=float(delta))

    @classmethod
    def zcdp(cls, rho: float) -> "PrivacyConstraint":
        return cls("zcdp", rho=float(rho))

    @classmethod
    def none(cls) -> "PrivacyConstraint":
        return cls("none")

    @property
    def is_dp(self) -> bool:
        return self.kind in ("pure", "approx")

    def eps_delta(self) -> tuple[float, float]:
        if not self.is_dp:
            raise DomainError("not an (eps, delta)-DP constraint")
        return float(self.epsilon), float(self.delta or 0.0)

    def label(self) -> str:
        if self.kind == "pure":
            return f"pure(eps={self.epsilon})"
        if self.kind == "approx":
            return f"approx(eps={self.epsilon}, delta={self.delta})"
        if self.kind == "zcdp":
            return f"zcdp(rho={self.rho})"
        return "none"


@dataclass(frozen=True)
class BoundResult:
    """Outcome of a lower-bound evaluation.

    value:  max over valid branches, clamped to [0, 1].
    raw:    the same maximum before clamping (can be negative).
    branch: id of the winning branch.
    extras: raw value of every branch that was evaluated.
    """

    value: float
    raw: float
    branch: str
    n: Optional[int] = None
    N: Optional[int] = None
    constraint: Optional[PrivacyConstraint] = None
    extras: dict = field(default_factory=dict, compare=False)


def _result(branches: dict[str, float], n, N, c) -> BoundResult:
    finite = {k: v for k, v in branches.items() if not math.isnan(v)}
    if not finite:
        raise DomainError("no branch could be evaluated")
    branch = max(finite, key=lambda k: (finite[k], k))
    raw = finite[branch]
    return BoundResult(
        value=min(1.0, max(0.0, raw)),
        raw=raw,
        branch=branch,
        n=n,
        N=N,
        constraint=c,
        extras=dict(finite),
    )


def _check_tv(tv: float) -> float:
    if not 0.0 <= tv <= 1.0 + 1e-12:
        raise DomainError("total variation must lie in [0, 1]")
    return min(float(tv), 1.0)


def le_cam_classical(tv: float) -> BoundResult:
    """Two-point bound with no constraint: (1 - tv)/2."""
    tv = _check_tv(tv)
    raw = 0.5 * (1.0 - tv)
    return BoundResult(value=max(0.0, raw), raw=raw, branch="classical", N=2)


def fano_classical(N: int, kls_to_q) -> BoundResult:
    """Fano bound 1 - (1 + mean_i KL(P_i || Q)) / ln N for N >= 2 hypotheses."""
    if N < 2:
        raise DomainError("Fano needs at least two hypotheses")
    kls = np.asarray(kls_to_q, dtype=np.float64)
    if kls.shape != (N,):
        raise ShapeMismatch(f"expected {N} KL values")
    if np.any(np.isnan(kls)):
        raise DomainError("KL values must not be nan")
    if np.any(kls < 0.0):
        raise DomainError("KL values must be non-negative")
    mean = float(np.mean(kls))
    raw = -math.inf if math.isinf(mean) else 1.0 - (1.0 + mean) / math.log(N)
    return BoundResult(value=max(0.0, raw), raw=raw, branch="classical", N=N)


def _dp_joint_factor(n: int, eps: float, delta: float) -> float:
    """The joint (eps, delta)-DP contraction 1 - e^{-n eps} + 2 n e^{-eps} delta."""
    return 1.0 - math.exp(-n * eps) + 2.0 * n * math.exp(-eps) * delta


def le_cam_private(
    c: Optional[PrivacyConstraint],
    n: int,
    tv: float,
    form: str = JOINT,
) -> BoundResult:
    """Two-point testing bound under a privacy constraint.

    DP joint:     (1/2) max{1 - tv, 1 - (1 - e^{-n eps} + 2 n e^{-eps} delta) tv}
    DP product:   (1/2) ((1 - (1 - e^{-eps}) tv)^n - 2 n e^{-eps} delta tv)
    zCDP joint:   (1/2) max{1 - tv, 1 - n sqrt(rho/2) tv}
    zCDP product: (1/2) (1 - n sqrt(rho/2) tv)

    With constraint ``None`` (or kind "none") the classical bound is returned
    for either requested form.
    """
    if form not in (JOINT, PRODUCT):
        raise DomainError(f"unknown form {form!r}")
    if n < 1:
        raise DomainError("n must be >= 1")
    tv = _check_tv(tv)

    private = c is not None and c.kind != "none"
    branches: dict[str, float] = {}
    if form == JOINT or not private:
        branches["classical"] = 0.5 * (1.0 - tv)
    if private and c.is_dp:
        eps, delta = c.eps_delta()
        if form == JOINT:
            branches["dp_joint"] = 0.5 * (1.0 - _dp_joint_factor(n, eps, delta) * tv)
        else:
            branches["dp_product"] = 0.5 * (
                (1.0 - (1.0 - math.exp(-eps)) * tv) ** n
                - 2.0 * n * math.exp(-eps) * delta * tv
            )
    elif private:
        branches[f"zcdp_{form}"] = 0.5 * (1.0 - n * math.sqrt(float(c.rho) / 2.0) * tv)
    return _result(branches, n, 2, c)


def _check_tv_matrix(N: int, tvs) -> np.ndarray:
    m = np.asarray(tvs, dtype=np.float64)
    if m.shape != (N, N):
        raise ShapeMismatch(f"tv matrix must be {N}x{N}")
    if not np.all((m >= 0.0) & (m <= 1.0 + 1e-12)):
        raise DomainError("tv entries must lie in [0, 1]")
    if np.any(np.abs(np.diag(m)) > 1e-12):
        raise DomainError("tv matrix must have zero diagonal")
    if np.max(np.abs(m - m.T)) > 1e-9:
        raise DomainError("tv matrix must be symmetric")
    return np.clip(m, 0.0, 1.0)


def fano_private(
    c: Optional[PrivacyConstraint],
    n: int,
    N: int,
    tvs,
    kls_to_q=None,
    form: str = JOINT,
) -> BoundResult:
    """Multi-hypothesis testing bound under a privacy constraint.

    ``tvs`` is the N x N matrix of total variation distances between the
    hypotheses; the coupled disagreement terms use t_ij = 2 tv_ij / (1 + tv_ij).
    The joint form reads them as n-sample TVs, between the laws of all n
    records (as le_cam_private's joint form reads its tv): its branches
    scale the t_ij by 1 - e^{-n eps} (dp_pairwise), n eps (dp_fano_matching)
    and n^2 rho (zcdp_fano_matching).  The product form reads single-sample
    TVs and tensorizes them over the n records.  ``kls_to_q`` (optional,
    length N) enables the classical Fano branch; supply the KLs of the laws
    the mechanism actually sees (n-sample laws for the joint form).

    Pairwise-anchoring branches average over ordered pairs i != j; for N = 2
    the product branch reduces exactly to the private Le Cam product bound
    with tv replaced by t.
    """
    if form not in (JOINT, PRODUCT):
        raise DomainError(f"unknown form {form!r}")
    if n < 1:
        raise DomainError("n must be >= 1")
    if N < 2:
        raise DomainError("need at least two hypotheses")
    m = _check_tv_matrix(N, tvs)
    t = 2.0 * m / (1.0 + m)
    off = ~np.eye(N, dtype=bool)
    sum_t_off = float(t[off].sum())
    pairs = N * (N - 1)
    log_n_hyp = math.log(N)

    branches: dict[str, float] = {}
    if kls_to_q is not None:
        branches["classical"] = fano_classical(N, kls_to_q).raw

    if c is None or c.kind == "none":
        if not branches:
            raise DomainError("constraint None needs kls_to_q for the classical branch")
    elif c.is_dp:
        eps, delta = c.eps_delta()
        if form == JOINT:
            factor = _dp_joint_factor(n, eps, delta)
            branches["dp_pairwise"] = 0.5 - factor * sum_t_off / (2.0 * pairs)
        else:
            shrink = 1.0 - math.exp(-eps)
            terms = (1.0 - shrink * t[off]) ** n - 2.0 * n * math.exp(-eps) * delta * t[off]
            branches["dp_pairwise"] = float(terms.sum()) / (2.0 * pairs)
        if delta == 0.0:
            branches["dp_fano_matching"] = 1.0 - (1.0 + (n * eps / N**2) * sum_t_off) / log_n_hyp
    else:
        rho = float(c.rho)
        spread = sum_t_off if form == JOINT else float((t[off] ** 2 + t[off] / n).sum())
        branches["zcdp_fano_matching"] = 1.0 - (1.0 + (n**2 * rho / N**2) * spread) / log_n_hyp
    return _result(branches, n, N, c)


def minimax_from_packing(phi_omega: float, test_bound) -> float:
    """Master bound: Phi(Omega) times a testing lower bound.

    ``test_bound`` may be a BoundResult or a plain float in [0, 1].
    """
    if not phi_omega >= 0.0:
        raise DomainError("Phi(Omega) must be non-negative")
    value = test_bound.value if isinstance(test_bound, BoundResult) else float(test_bound)
    if not 0.0 <= value <= 1.0:
        raise DomainError("test bound must lie in [0, 1]")
    return phi_omega * value


def kl_quadratic_bounds(
    d: int,
    n: int,
    gamma: float,
    r0: float,
    c: Optional[PrivacyConstraint],
) -> BoundResult:
    """Parametric minimax lower bound for KL-quadratic families.

    Valid when KL(P_theta1 || P_theta2) <= gamma ||theta1 - theta2||^2 and the
    parameter space contains a Euclidean ball of radius r0; requires d >= 66
    (and rho < 1 for zCDP).  The bound is (alpha*)^2 d / 32 with

      nonprivate alpha = min(r0/sqrt(d), 1/(64 sqrt(n gamma)))
      pure-DP alpha    = min(r0/sqrt(d), sqrt(d)/(64^2 sqrt(2) n eps sqrt(gamma)))
      zCDP alpha       = min(r0/sqrt(d), 1/(64^2 2 sqrt(2) n sqrt(rho gamma)))

    and alpha* the larger of the nonprivate and constraint-specific terms.
    """
    if d < 66:
        raise DomainError("the packing argument requires d >= 66")
    if n < 1:
        raise DomainError("n must be >= 1")
    if not gamma > 0.0:
        raise DomainError("gamma must be positive")
    if not r0 > 0.0:
        raise DomainError("r0 must be positive")

    cap = r0 / math.sqrt(d)
    alpha_np = min(cap, 1.0 / (64.0 * math.sqrt(n * gamma)))
    alphas = {"nonprivate": alpha_np}

    if c is not None and c.kind != "none":
        if c.is_dp:
            eps, delta = c.eps_delta()
            if delta != 0.0:
                raise DomainError("only delta = 0 is supported here")
            alphas["dp"] = min(
                cap, math.sqrt(d) / (64.0**2 * math.sqrt(2.0) * n * eps * math.sqrt(gamma))
            )
        else:
            rho = float(c.rho)
            if not rho < 1.0:
                raise DomainError("the zCDP bound requires rho < 1")
            alphas["zcdp"] = min(
                cap, 1.0 / (64.0**2 * 2.0 * math.sqrt(2.0) * n * math.sqrt(rho * gamma))
            )

    branch = max(alphas, key=lambda k: (alphas[k], k))
    value = alphas[branch] ** 2 * d / 32.0
    return BoundResult(
        value=value,
        raw=value,
        branch=branch,
        n=n,
        constraint=c,
        extras={k: v**2 * d / 32.0 for k, v in alphas.items()},
    )
