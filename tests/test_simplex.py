"""Tests for the dense two-phase simplex, against scipy's HiGHS."""

import numpy as np
import pytest
from scipy.optimize import linprog

from dpminimax import DomainError, _simplex
from dpminimax._simplex import solve_min


def _highs(c, A, b):
    return linprog(c, A_eq=A, b_eq=b, bounds=(0, None), method="highs")


def test_an_infeasible_lp_raises():
    c, A, b = [1.0, 1.0], [[1.0, 1.0], [1.0, 1.0]], [1.0, 2.0]
    assert _highs(c, A, b).status == 2
    with pytest.raises(DomainError, match="infeasible"):
        solve_min(c, A, b)


def test_an_unbounded_lp_raises():
    c, A, b = [-1.0, 0.0], [[1.0, -1.0]], [1.0]
    assert _highs(c, A, b).status == 3
    with pytest.raises(DomainError, match="unbounded"):
        solve_min(c, A, b)


@pytest.mark.parametrize(
    "c, A, b",
    [
        ([1.0, 1.0, 1.0], [[1.0, 1.0]], [1.0]),
        ([1.0, 1.0], [[1.0, 1.0]], [1.0, 2.0]),
    ],
    ids=["cost", "rhs"],
)
def test_inconsistent_shapes_raise(c, A, b):
    with pytest.raises(ValueError):
        _highs(c, A, b)
    with pytest.raises(DomainError, match="inconsistent LP shapes"):
        solve_min(c, A, b)


def test_an_artificial_left_basic_at_zero_is_pivoted_out(monkeypatch):
    A = np.array([[1.0, 0.0, 0.0], [-1.0, -1.0, -1.0], [-1.0, 2.0, 1.0]])
    b = np.array([0.0, -1.0, 2.0])
    c = np.array([1.0, 2.0, 1.0])
    ends = []
    run = _simplex._run

    def record(T, basis, cost):
        run(T, basis, cost)
        ends.append((list(basis), T[:, -1].copy()))

    monkeypatch.setattr(_simplex, "_run", record)
    value, x = solve_min(c, A, b)
    # Phase 1 ends with artificial variable 3 + r basic at zero in some row r.
    basis, rhs = ends[0]
    assert any(col >= 3 and rhs[r] == 0.0 for r, col in enumerate(basis))
    assert all(col < 3 for col in ends[1][0])
    reference = _highs(c, A, b)
    assert reference.status == 0
    assert value == pytest.approx(reference.fun, abs=1e-9) and value == pytest.approx(2.0, abs=1e-12)
    assert np.allclose(A @ x, b, atol=1e-12) and np.all(x >= 0.0)
