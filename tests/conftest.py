"""Shared helpers for the test suite."""

import itertools
import os

import numpy as np
import pytest

from dpminimax import DiscreteDistribution, _kernels, couplings


def random_distribution(rng, max_atoms: int = 6, atom_range: int = 10) -> DiscreteDistribution:
    """A random distribution on 2..max_atoms distinct integer atoms."""
    k = int(rng.integers(2, max_atoms + 1))
    atoms = rng.choice(atom_range, size=k, replace=False)
    w = rng.random(k) + 0.05
    return DiscreteDistribution(tuple(int(a) for a in atoms), w / w.sum())


def empirical_marginal_l1(draws_column, dist: DiscreteDistribution) -> float:
    """L1 distance between a column of atom draws and the target weights."""
    atoms, weights = dist.support()
    total = 0.0
    seen = 0.0
    n = draws_column.shape[0]
    for atom, weight in zip(atoms, weights):
        freq = float(np.count_nonzero(draws_column == atom)) / n
        total += abs(freq - weight)
        seen += freq
    return total + (1.0 - seen)


def coupling_polytope_oracle(marginals):
    """Joint atoms, A_eq and b_eq of the coupling polytope, built with plain loops."""
    supports = [m.support() for m in marginals]
    combos = list(itertools.product(*(atoms for atoms, _ in supports)))
    rows, rhs = [], []
    for i, (atoms, weights) in enumerate(supports):
        for atom, w in zip(atoms, weights):
            rows.append([1.0 if combo[i] == atom else 0.0 for combo in combos])
            rhs.append(float(w))
    return combos, np.array(rows), np.array(rhs)


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


class Workers:
    """Pretends the process may run on ``cpus`` CPUs and makes every DP-SGML
    kernel call and every coupling disagreement estimate large enough to
    fork; ``forks`` counts calls to os.fork."""

    def __init__(self, monkeypatch):
        self.cpus = 1
        self.forks = 0
        fork = os.fork

        def spy():
            self.forks += 1
            return fork()

        monkeypatch.setattr(_kernels, "_FORK_MIN_STEPS", 0)
        monkeypatch.setattr(couplings, "_FORK_MIN_UNIFORMS", 0)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(self.cpus)))
        monkeypatch.setattr(os, "fork", spy)


@pytest.fixture
def workers(monkeypatch):
    return Workers(monkeypatch)
