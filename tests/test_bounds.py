"""Tests for two-point and multi-hypothesis testing lower bounds."""

import math

import numpy as np
import pytest

from dpminimax import (
    BoundResult,
    DomainError,
    PrivacyConstraint,
    ShapeMismatch,
    fano_classical,
    fano_private,
    kl_quadratic_bounds,
    le_cam_classical,
    le_cam_private,
    minimax_from_packing,
)


# ------------------------------------------------------ PrivacyConstraint


def test_constraint_constructors_and_labels():
    assert PrivacyConstraint.pure(1.0).kind == "pure"
    assert PrivacyConstraint.approx(1.0, 0.1).delta == 0.1
    assert PrivacyConstraint.zcdp(0.5).rho == 0.5
    assert PrivacyConstraint.none().kind == "none"
    assert "eps=1.0" in PrivacyConstraint.pure(1.0).label()
    assert "rho=0.5" in PrivacyConstraint.zcdp(0.5).label()


@pytest.mark.parametrize(
    "bad",
    [
        lambda: PrivacyConstraint("banana"),
        lambda: PrivacyConstraint.pure(0.0),
        lambda: PrivacyConstraint.pure(-1.0),
        lambda: PrivacyConstraint.approx(1.0, 1.0),
        lambda: PrivacyConstraint.approx(1.0, -0.1),
        lambda: PrivacyConstraint.zcdp(0.0),
        lambda: PrivacyConstraint.pure(math.inf),
        lambda: PrivacyConstraint.approx(math.inf, 0.1),
        lambda: PrivacyConstraint.zcdp(math.inf),
    ],
)
def test_constraint_rejects_bad_parameters(bad):
    with pytest.raises(DomainError):
        bad()


def test_eps_delta_only_for_dp():
    assert PrivacyConstraint.pure(0.7).eps_delta() == (0.7, 0.0)
    assert PrivacyConstraint.approx(0.7, 0.2).eps_delta() == (0.7, 0.2)
    with pytest.raises(DomainError):
        PrivacyConstraint.zcdp(0.1).eps_delta()


# --------------------------------------------------------- classical bounds


def test_le_cam_classical_formula():
    assert le_cam_classical(0.0).value == 0.5
    assert le_cam_classical(1.0).value == 0.0
    assert le_cam_classical(0.4).value == pytest.approx(0.3, abs=1e-15)
    with pytest.raises(DomainError):
        le_cam_classical(1.5)


def test_fano_classical_hand_values():
    zeros = np.zeros(3)
    assert abs(fano_classical(3, zeros).value - (1.0 - 1.0 / math.log(3.0))) <= 1e-12
    halves = np.full(16, 0.5)
    assert abs(fano_classical(16, halves).value - (1.0 - 1.5 / math.log(16.0))) <= 1e-12


def test_fano_classical_validation():
    with pytest.raises(DomainError):
        fano_classical(1, np.zeros(1))
    with pytest.raises(ShapeMismatch):
        fano_classical(3, np.zeros(2))
    with pytest.raises(DomainError):
        fano_classical(3, np.array([0.1, -0.2, 0.3]))


def test_fano_classical_rejects_nan_kl():
    with pytest.raises(DomainError, match="KL"):
        fano_classical(3, np.array([math.nan, 0.1, 0.2]))
    with pytest.raises(DomainError, match="KL"):
        fano_private(PrivacyConstraint.pure(1.0), 1, 3, _tv_all(3, 0.5), kls_to_q=[math.nan, 0.1, 0.2])


def test_fano_classical_infinite_kl_clamps_to_zero():
    res = fano_classical(3, np.array([math.inf, 0.0, 0.0]))
    assert res.value == 0.0
    assert res.raw == -math.inf


# ------------------------------------------------------------ le_cam_private


def test_dp_product_hand_value():
    res = le_cam_private(PrivacyConstraint.pure(math.log(2.0)), 2, 0.5, form="product")
    assert abs(res.value - 0.28125) <= 1e-12
    assert res.branch == "dp_product"


def test_zcdp_product_hand_value():
    res = le_cam_private(PrivacyConstraint.zcdp(0.02), 4, 0.5, form="product")
    assert abs(res.value - 0.4) <= 1e-12
    assert res.branch == "zcdp_product"


def test_dp_joint_matches_direct_formula():
    rng = np.random.default_rng(3)
    for _ in range(50):
        eps = float(rng.uniform(0.05, 2.0))
        delta = float(rng.uniform(0.0, 0.4))
        n = int(rng.integers(1, 20))
        t = float(rng.uniform(0.0, 1.0))
        c = PrivacyConstraint.approx(eps, delta)
        factor = 1.0 - math.exp(-n * eps) + 2.0 * n * math.exp(-eps) * delta
        expected = 0.5 * max(1.0 - t, 1.0 - factor * t)
        got = le_cam_private(c, n, t, form="joint")
        assert abs(got.raw - expected) <= 1e-12
        assert got.value == min(1.0, max(0.0, got.raw))


def test_zcdp_joint_matches_direct_formula():
    rng = np.random.default_rng(5)
    for _ in range(50):
        rho = float(rng.uniform(0.001, 2.0))
        n = int(rng.integers(1, 20))
        t = float(rng.uniform(0.0, 1.0))
        expected = 0.5 * max(1.0 - t, 1.0 - n * math.sqrt(rho / 2.0) * t)
        got = le_cam_private(PrivacyConstraint.zcdp(rho), n, t, form="joint")
        assert abs(got.raw - expected) <= 1e-12


def test_le_cam_unconstrained_is_classical_for_both_forms():
    for form in ("joint", "product"):
        for c in (None, PrivacyConstraint.none()):
            res = le_cam_private(c, 5, 0.3, form=form)
            assert res.branch == "classical"
            assert abs(res.value - 0.35) <= 1e-15


def test_le_cam_private_validation():
    c = PrivacyConstraint.pure(1.0)
    with pytest.raises(DomainError):
        le_cam_private(c, 0, 0.5)
    with pytest.raises(DomainError):
        le_cam_private(c, 1, 1.5)
    with pytest.raises(DomainError):
        le_cam_private(c, 1, 0.5, form="tensor")


def test_joint_value_never_below_classical():
    rng = np.random.default_rng(7)
    for _ in range(100):
        eps = float(rng.uniform(0.05, 3.0))
        delta = float(rng.uniform(0.0, 0.5))
        n = int(rng.integers(1, 10))
        t = float(rng.uniform(0.0, 1.0))
        res = le_cam_private(PrivacyConstraint.approx(eps, delta), n, t, form="joint")
        assert res.value >= 0.5 * (1.0 - t) - 1e-15


def test_pure_equals_approx_delta_zero_bitwise():
    rng = np.random.default_rng(11)
    for _ in range(50):
        eps = float(rng.uniform(0.05, 3.0))
        n = int(rng.integers(1, 10))
        t = float(rng.uniform(0.0, 1.0))
        for form in ("joint", "product"):
            a = le_cam_private(PrivacyConstraint.pure(eps), n, t, form=form)
            b = le_cam_private(PrivacyConstraint.approx(eps, 0.0), n, t, form=form)
            assert a.value == b.value
            assert a.raw == b.raw
            assert a.branch == b.branch


# ------------------------------------------------------------- fano_private


def _tv_all(N, value):
    m = np.full((N, N), float(value))
    np.fill_diagonal(m, 0.0)
    return m


def test_fano_dp_joint_hand_value():
    res = fano_private(PrivacyConstraint.pure(0.1), 1, 8, _tv_all(8, 0.5), form="joint")
    expected = 1.0 - (1.0 + 7.0 / 120.0) / math.log(8.0)
    assert abs(res.value - expected) <= 1e-12
    assert res.branch == "dp_fano_matching"


def test_fano_zcdp_joint_hand_value():
    res = fano_private(PrivacyConstraint.zcdp(0.1), 1, 3, _tv_all(3, 1.0), form="joint")
    expected = 1.0 - (1.0 + 0.1 * 6.0 / 9.0) / math.log(3.0)
    assert abs(res.value - expected) <= 1e-12
    assert abs(res.value - 0.029078158264706833) <= 1e-12


def test_fano_dp_forms_at_n_4_hand_values():
    # N = 3, tv 0.5 at every pair: t = 2/3 and sum_{i != j} t_ij = 4 over 6
    # ordered pairs.  The joint form reads the tvs as 4-sample TVs:
    # 1/2 - (1 - e^{-0.4}) 4 / 12.  The product form reads single-sample TVs:
    # (1/2) (1 - (1 - e^{-0.1}) 2/3)^4.  dp_fano_matching is
    # 1 - (1 + (0.4 / 9) 4) / ln 3 < 0 in both.
    c = PrivacyConstraint.pure(0.1)
    joint = fano_private(c, 4, 3, _tv_all(3, 0.5), form="joint")
    assert abs(joint.value - 0.39010668201187976) <= 1e-12
    assert abs(joint.value - (0.5 - (1.0 - math.exp(-0.4)) / 3.0)) <= 1e-12
    product = fano_private(c, 4, 3, _tv_all(3, 0.5), form="product")
    assert abs(product.value - 0.38468852602805204) <= 1e-12
    assert abs(product.value - 0.5 * (1.0 - (2.0 / 3.0) * (1.0 - math.exp(-0.1))) ** 4) <= 1e-12
    for res in (joint, product):
        assert res.branch == "dp_pairwise"
        assert abs(res.extras["dp_fano_matching"] - (1.0 - (1.0 + 1.6 / 9.0) / math.log(3.0))) <= 1e-12


def test_fano_classical_branch_via_kls():
    res = fano_private(None, 1, 3, _tv_all(3, 0.0), kls_to_q=np.zeros(3))
    assert abs(res.value - (1.0 - 1.0 / math.log(3.0))) <= 1e-12
    assert res.branch == "classical"


def test_fano_unconstrained_requires_kls():
    with pytest.raises(DomainError):
        fano_private(None, 1, 3, _tv_all(3, 0.5))


def test_fano_pairwise_reduces_to_le_cam_at_two_hypotheses():
    rng = np.random.default_rng(13)
    for _ in range(30):
        eps = float(rng.uniform(0.1, 2.0))
        delta = float(rng.uniform(0.0, 0.3))
        n = int(rng.integers(1, 8))
        tv_val = float(rng.uniform(0.01, 0.99))
        t = 2.0 * tv_val / (1.0 + tv_val)
        c = PrivacyConstraint.approx(eps, delta)
        fano = fano_private(c, n, 2, _tv_all(2, tv_val), form="product")
        lecam = le_cam_private(c, n, t, form="product")
        assert abs(fano.extras["dp_pairwise"] - lecam.raw) <= 1e-12


def test_fano_zcdp_product_mixes_quadratic_and_linear_terms():
    rho, n, N = 0.05, 4, 3
    tvs = _tv_all(N, 0.5)
    t = 2.0 * 0.5 / 1.5
    mixed = 6.0 * (t * t + t / n)
    expected = 1.0 - (1.0 + (n * n * rho / N**2) * mixed) / math.log(N)
    res = fano_private(PrivacyConstraint.zcdp(rho), n, N, tvs, form="product")
    assert abs(res.raw - expected) <= 1e-12


def test_fano_tv_matrix_validation():
    c = PrivacyConstraint.pure(1.0)
    with pytest.raises(ShapeMismatch):
        fano_private(c, 1, 3, np.zeros((2, 2)))
    bad_diag = _tv_all(3, 0.5)
    bad_diag[0, 0] = 0.1
    with pytest.raises(DomainError):
        fano_private(c, 1, 3, bad_diag)
    asym = _tv_all(3, 0.5)
    asym[0, 1] = 0.2
    with pytest.raises(DomainError):
        fano_private(c, 1, 3, asym)
    with pytest.raises(DomainError):
        fano_private(c, 1, 1, np.zeros((1, 1)))
    nan_entry = _tv_all(3, 0.5)
    nan_entry[0, 1] = nan_entry[1, 0] = math.nan
    with pytest.raises(DomainError, match="tv entries"):
        fano_private(c, 1, 3, nan_entry)


def test_fano_dp_matching_needs_delta_zero():
    res = fano_private(PrivacyConstraint.approx(0.5, 0.01), 1, 3, _tv_all(3, 0.5), form="joint")
    assert "dp_fano_matching" not in res.extras
    assert "dp_pairwise" in res.extras


# ----------------------------------------------------- minimax_from_packing


def test_minimax_from_packing_accepts_result_or_float():
    res = le_cam_classical(0.5)
    assert minimax_from_packing(2.0, res) == pytest.approx(0.5, abs=1e-15)
    assert minimax_from_packing(2.0, 0.25) == 0.5
    with pytest.raises(DomainError):
        minimax_from_packing(-1.0, 0.5)
    with pytest.raises(DomainError):
        minimax_from_packing(1.0, 1.5)


# ---------------------------------------------------- kl_quadratic_bounds


def test_kl_quadratic_nonprivate_large_space_hand_value():
    res = kl_quadratic_bounds(66, 50, 0.5, 1e9, None)
    expected = 66.0 / (32.0 * 64.0**2 * 50 * 0.5)
    assert abs(res.value - expected) <= 1e-12
    assert res.branch == "nonprivate"


def test_kl_quadratic_zcdp_cell_hand_value():
    res = kl_quadratic_bounds(66, 100, 0.5, 10.0, PrivacyConstraint.zcdp(0.01))
    cap = 10.0 / math.sqrt(66.0)
    a_np = min(cap, 1.0 / (64.0 * math.sqrt(100 * 0.5)))
    a_z = min(cap, 1.0 / (64.0**2 * 2.0 * math.sqrt(2.0) * 100 * math.sqrt(0.01 * 0.5)))
    expected = max(a_np, a_z) ** 2 * 66.0 / 32.0
    assert abs(res.value - expected) <= 1e-12
    assert res.branch == "nonprivate"
    assert set(res.extras) == {"nonprivate", "zcdp"}


def test_kl_quadratic_dp_cell_hand_value():
    res = kl_quadratic_bounds(66, 500, 0.5, 1.0, PrivacyConstraint.pure(0.001))
    cap = 1.0 / math.sqrt(66.0)
    a_np = min(cap, 1.0 / (64.0 * math.sqrt(500 * 0.5)))
    a_dp = min(cap, math.sqrt(66.0) / (64.0**2 * math.sqrt(2.0) * 500 * 0.001 * math.sqrt(0.5)))
    expected = max(a_np, a_dp) ** 2 * 66.0 / 32.0
    assert abs(res.value - expected) <= 1e-12
    assert res.branch == "dp"


def test_kl_quadratic_validation():
    with pytest.raises(DomainError):
        kl_quadratic_bounds(65, 10, 0.5, 1.0, None)
    with pytest.raises(DomainError):
        kl_quadratic_bounds(66, 0, 0.5, 1.0, None)
    with pytest.raises(DomainError):
        kl_quadratic_bounds(66, 10, 0.0, 1.0, None)
    with pytest.raises(DomainError):
        kl_quadratic_bounds(66, 10, 0.5, 0.0, None)
    with pytest.raises(DomainError):
        kl_quadratic_bounds(66, 10, 0.5, 1.0, PrivacyConstraint.approx(1.0, 0.1))
    with pytest.raises(DomainError):
        kl_quadratic_bounds(66, 10, 0.5, 1.0, PrivacyConstraint.zcdp(1.0))


def test_kl_quadratic_monotone_in_n():
    c = PrivacyConstraint.pure(0.01)
    values = [kl_quadratic_bounds(66, n, 0.5, 1.0, c).value for n in (10, 30, 100, 300, 1000)]
    for hi, lo in zip(values, values[1:]):
        assert lo <= hi + 1e-15


def test_kl_quadratic_monotone_in_privacy():
    eps_values = [kl_quadratic_bounds(66, 100, 0.5, 1.0, PrivacyConstraint.pure(e)).value
                  for e in (0.001, 0.01, 0.1, 1.0)]
    for hi, lo in zip(eps_values, eps_values[1:]):
        assert lo <= hi + 1e-15
    rho_values = [kl_quadratic_bounds(66, 100, 0.5, 1.0, PrivacyConstraint.zcdp(r)).value
                  for r in (1e-6, 1e-4, 1e-2, 0.5)]
    for hi, lo in zip(rho_values, rho_values[1:]):
        assert lo <= hi + 1e-15


# --------------------------------------------------------------- BoundResult


def test_bound_result_clamps_value_keeps_raw():
    res = le_cam_private(PrivacyConstraint.zcdp(8.0), 10, 1.0, form="product")
    assert res.value == 0.0
    assert res.raw < 0.0


def test_bound_result_records_context():
    c = PrivacyConstraint.pure(1.0)
    res = le_cam_private(c, 3, 0.5, form="joint")
    assert isinstance(res, BoundResult)
    assert res.n == 3
    assert res.N == 2
    assert res.constraint == c
    assert set(res.extras) == {"classical", "dp_joint"}
