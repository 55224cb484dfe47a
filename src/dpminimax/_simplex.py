"""Dense two-phase simplex with Bland's rule for small equality-form LPs.

Solves  min c.x  s.t.  A x = b, x >= 0.  Instances here are tiny coupling
polytopes (at most a few thousand variables, a few dozen rows), so a dense
tableau with deterministic pivoting (lowest index everywhere) is exact
enough at 1e-9 and trivially reproducible.
"""

from __future__ import annotations

import numpy as np

from .errors import DomainError

__all__ = ["solve_min"]

_TOL = 1e-9
_MAX_ITER = 200000


def _pivot(T: np.ndarray, basis: list[int], row: int, col: int) -> None:
    T[row] /= T[row, col]
    for r in range(T.shape[0]):
        if r != row and T[r, col] != 0.0:
            T[r] -= T[r, col] * T[row]
    basis[row] = col


def _run(T: np.ndarray, basis: list[int], cost: np.ndarray) -> None:
    """Iterate Bland pivots on tableau T (m rows, rhs in last column)."""
    m, width = T.shape
    ncols = width - 1
    for _ in range(_MAX_ITER):
        cb = cost[basis]
        reduced = cost[:ncols] - cb @ T[:, :ncols]
        entering = -1
        for j in range(ncols):
            if reduced[j] < -_TOL:
                entering = j
                break
        if entering < 0:
            return
        col = T[:, entering]
        best_row = -1
        best_ratio = np.inf
        for r in range(m):
            if col[r] > _TOL:
                ratio = T[r, -1] / col[r]
                if ratio < best_ratio - _TOL or (
                    abs(ratio - best_ratio) <= _TOL
                    and (best_row < 0 or basis[r] < basis[best_row])
                ):
                    best_ratio = ratio
                    best_row = r
        if best_row < 0:
            raise DomainError("LP is unbounded")
        _pivot(T, basis, best_row, entering)
    raise DomainError("simplex iteration limit reached")


def solve_min(c, A, b):
    """Return (optimal value, optimal x) for min c.x s.t. A x = b, x >= 0."""
    A = np.asarray(A, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64).copy()
    c = np.asarray(c, dtype=np.float64)
    m, n = A.shape
    if b.shape != (m,) or c.shape != (n,):
        raise DomainError("inconsistent LP shapes")

    A = A.copy()
    neg = b < 0.0
    A[neg] *= -1.0
    b[neg] *= -1.0

    # phase 1: artificial basis
    T = np.hstack([A, np.eye(m), b[:, None]])
    basis = list(range(n, n + m))
    cost1 = np.concatenate([np.zeros(n), np.ones(m)])
    _run(T, basis, cost1)
    if float(cost1[basis] @ T[:, -1]) > 1e-7:
        raise DomainError("LP is infeasible")

    # drive artificials out of the basis or drop redundant rows
    keep_rows = []
    for r in range(m):
        if basis[r] >= n:
            pivot_col = -1
            for j in range(n):
                if abs(T[r, j]) > _TOL:
                    pivot_col = j
                    break
            if pivot_col >= 0:
                _pivot(T, basis, r, pivot_col)
                keep_rows.append(r)
            # all-zero original row: redundant constraint, drop it
        else:
            keep_rows.append(r)
    T = T[keep_rows]
    basis = [basis[r] for r in keep_rows]
    T = np.hstack([T[:, :n], T[:, -1:]])

    # phase 2
    _run(T, basis, c)
    x = np.zeros(n)
    for r, bv in enumerate(basis):
        x[bv] = T[r, -1]
    return float(c @ x), x
