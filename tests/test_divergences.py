"""Tests for discrete divergences and closed-form family formulas."""

import math

import numpy as np
import pytest
from scipy.special import rel_entr

from dpminimax import (
    Bernoulli,
    DiscreteDistribution,
    DomainError,
    IsotropicGaussian,
    LengthMismatch,
    UniformSupport,
    UnsupportedPair,
    closed_form,
    kl,
    pinsker_tv_upper,
    renyi,
    tensorize_kl,
    tv,
)
from conftest import random_distribution


# ---------------------------------------------------------------- fixtures


@pytest.fixture
def b75():
    return DiscreteDistribution.bernoulli(0.75)


@pytest.fixture
def b50():
    return DiscreteDistribution.bernoulli(0.5)


# ------------------------------------------------- DiscreteDistribution


def test_distribution_renormalizes_exactly():
    d = DiscreteDistribution((0, 1, 2), np.array([0.2, 0.3, 0.5]) * (1.0 + 5e-10))
    assert float(d.weights.sum()) == 1.0


def test_distribution_rejects_bad_weight_sum():
    with pytest.raises(DomainError):
        DiscreteDistribution((0, 1), np.array([0.6, 0.6]))


def test_distribution_rejects_negative_weights():
    with pytest.raises(DomainError):
        DiscreteDistribution((0, 1), np.array([1.2, -0.2]))


def test_distribution_rejects_nan_weights():
    with pytest.raises(DomainError, match="weights"):
        DiscreteDistribution((0, 1), np.array([math.nan, 1.0]))


def test_distribution_rejects_duplicate_atoms():
    with pytest.raises(DomainError):
        DiscreteDistribution((1, 1), np.array([0.5, 0.5]))


def test_distribution_rejects_misaligned_weights():
    with pytest.raises(LengthMismatch):
        DiscreteDistribution((0, 1, 2), np.array([0.5, 0.5]))


def test_from_weights_uses_consecutive_atoms():
    d = DiscreteDistribution.from_weights([0.25, 0.25, 0.5])
    assert d.atoms == (0, 1, 2)


def test_prob_of_missing_atom_is_zero(b75):
    assert b75.prob(7) == 0.0
    assert b75.prob(1) == 0.75


def test_support_drops_zero_weight_atoms():
    d = DiscreteDistribution((0, 1, 2), np.array([0.5, 0.0, 0.5]))
    atoms, weights = d.support()
    assert atoms == (0, 2)
    assert np.all(weights > 0.0)


def test_bernoulli_parameter_domain():
    with pytest.raises(DomainError):
        DiscreteDistribution.bernoulli(1.5)


# ------------------------------------------------------------ tv / kl / renyi


def test_tv_bernoulli_is_parameter_gap(b75, b50):
    assert abs(tv(b75, b50) - 0.25) <= 1e-15


def test_tv_is_symmetric_and_bounded():
    rng = np.random.default_rng(7)
    for _ in range(50):
        p = random_distribution(rng)
        q = random_distribution(rng)
        t = tv(p, q)
        assert 0.0 <= t <= 1.0
        assert abs(t - tv(q, p)) <= 1e-15


def test_tv_disjoint_supports_is_one():
    p = DiscreteDistribution((0, 1), np.array([0.5, 0.5]))
    q = DiscreteDistribution((2, 3), np.array([0.5, 0.5]))
    assert tv(p, q) == 1.0


def test_kl_bernoulli_hand_value(b75, b50):
    expected = 0.75 * math.log(1.5) + 0.25 * math.log(0.5)
    assert abs(kl(b75, b50) - expected) <= 1e-12


def test_kl_matches_scipy_rel_entr():
    rng = np.random.default_rng(11)
    for _ in range(50):
        k = int(rng.integers(2, 6))
        pw = rng.random(k) + 0.05
        qw = rng.random(k) + 0.05
        p = DiscreteDistribution.from_weights(pw / pw.sum())
        q = DiscreteDistribution.from_weights(qw / qw.sum())
        oracle = float(rel_entr(p.weights, q.weights).sum())
        assert abs(kl(p, q) - oracle) <= 1e-12


def test_kl_nonnegative_and_zero_on_equal():
    rng = np.random.default_rng(13)
    for _ in range(30):
        p = random_distribution(rng)
        assert kl(p, p) <= 1e-15
        q = random_distribution(rng)
        assert kl(p, q) >= -1e-15


def test_kl_infinite_when_support_escapes():
    p = DiscreteDistribution((0, 1), np.array([0.5, 0.5]))
    q = DiscreteDistribution((0,), np.array([1.0]))
    assert math.isinf(kl(p, q))
    assert kl(q, p) < math.inf


def test_renyi_two_bernoulli_hand_value(b75, b50):
    assert abs(renyi(2.0, b75, b50) - math.log(1.25)) <= 1e-12


def test_renyi_matches_direct_formula():
    rng = np.random.default_rng(17)
    for _ in range(30):
        p = random_distribution(rng)
        q = random_distribution(rng)
        alpha = float(rng.uniform(1.1, 6.0))
        _, pw, qw = _aligned_weights(p, q)
        mask = pw > 0.0
        if np.any(qw[mask] == 0.0):
            assert math.isinf(renyi(alpha, p, q))
            continue
        oracle = math.log(float(np.sum(pw[mask] ** alpha * qw[mask] ** (1.0 - alpha)))) / (alpha - 1.0)
        assert abs(renyi(alpha, p, q) - oracle) <= 1e-10


def _aligned_weights(p, q):
    atoms = sorted(set(p.atoms) | set(q.atoms))
    return (
        atoms,
        np.array([p.prob(a) for a in atoms]),
        np.array([q.prob(a) for a in atoms]),
    )


def test_renyi_monotone_in_alpha():
    rng = np.random.default_rng(19)
    alphas = (1.25, 1.5, 2.0, 3.0, 5.0, 8.0)
    for _ in range(30):
        p = random_distribution(rng)
        q = random_distribution(rng)
        values = [renyi(a, p, q) for a in alphas]
        for lo, hi in zip(values, values[1:]):
            assert lo <= hi + 1e-12


def test_renyi_rejects_alpha_at_most_one(b75, b50):
    with pytest.raises(DomainError):
        renyi(1.0, b75, b50)


def test_renyi_infinite_on_support_escape():
    p = DiscreteDistribution((0, 1), np.array([0.5, 0.5]))
    q = DiscreteDistribution((0,), np.array([1.0]))
    assert math.isinf(renyi(2.0, p, q))


# -------------------------------------------------------------- closed_form


def test_closed_form_bernoulli_kl_matches_discrete(b75, b50):
    direct = kl(b75, b50)
    assert abs(closed_form(Bernoulli(0.75), Bernoulli(0.5), "kl") - direct) <= 1e-12
    assert abs(closed_form(Bernoulli(0.75), Bernoulli(0.5), "kl", n=3) - 3.0 * direct) <= 1e-12


def test_closed_form_bernoulli_tv_is_gap():
    assert closed_form(Bernoulli(0.3), Bernoulli(0.5), "tv") == pytest.approx(0.2, abs=1e-15)


def test_closed_form_bernoulli_product_tv_unsupported():
    with pytest.raises(UnsupportedPair):
        closed_form(Bernoulli(0.3), Bernoulli(0.5), "tv", n=2)


def test_closed_form_gaussian_kl():
    a = IsotropicGaussian((0.0, 0.0), 2.0)
    b = IsotropicGaussian((1.0, 1.0), 2.0)
    assert closed_form(a, b, "kl") == pytest.approx(2.0 / 8.0, abs=1e-15)
    assert closed_form(a, b, "kl", n=5) == pytest.approx(5.0 * 2.0 / 8.0, abs=1e-15)


def test_closed_form_gaussian_requires_equal_scale_and_dim():
    a = IsotropicGaussian((0.0,), 1.0)
    with pytest.raises(UnsupportedPair):
        closed_form(a, IsotropicGaussian((1.0,), 2.0), "kl")
    with pytest.raises(LengthMismatch):
        closed_form(a, IsotropicGaussian((1.0, 0.0), 1.0), "kl")
    with pytest.raises(UnsupportedPair):
        closed_form(a, IsotropicGaussian((1.0,), 1.0), "tv")


def test_closed_form_uniform_tv_two_samples():
    assert abs(closed_form(UniformSupport(0.5), UniformSupport(1.0), "tv", n=2) - 0.75) <= 1e-15


def test_closed_form_uniform_tv_general():
    rng = np.random.default_rng(23)
    for _ in range(20):
        lo = float(rng.uniform(0.1, 1.0))
        hi = lo + float(rng.uniform(0.01, 1.0))
        n = int(rng.integers(1, 10))
        expected = 1.0 - (lo / hi) ** n
        got = closed_form(UniformSupport(hi), UniformSupport(lo), "tv", n=n)
        assert abs(got - expected) <= 1e-14


def test_closed_form_uniform_kl_unsupported():
    with pytest.raises(UnsupportedPair):
        closed_form(UniformSupport(1.0), UniformSupport(2.0), "kl")


def test_closed_form_rejects_mixed_families():
    with pytest.raises(UnsupportedPair):
        closed_form(Bernoulli(0.5), UniformSupport(1.0), "tv")


def test_closed_form_rejects_unknown_divergence():
    with pytest.raises(DomainError):
        closed_form(Bernoulli(0.5), Bernoulli(0.4), "hellinger")


def test_closed_form_rejects_bad_n():
    with pytest.raises(DomainError):
        closed_form(Bernoulli(0.5), Bernoulli(0.4), "kl", n=0)


# ------------------------------------------------- pinsker / tensorization


def test_pinsker_formula_and_caps():
    assert pinsker_tv_upper(0.5) == pytest.approx(0.5, abs=1e-15)
    assert pinsker_tv_upper(8.0) == 1.0
    assert pinsker_tv_upper(math.inf) == 1.0
    with pytest.raises(DomainError):
        pinsker_tv_upper(-1e-9)


def test_pinsker_dominates_tv_on_random_pairs():
    rng = np.random.default_rng(29)
    for _ in range(100):
        p = random_distribution(rng)
        q = random_distribution(rng)
        assert tv(p, q) <= pinsker_tv_upper(kl(p, q)) + 1e-12


def test_tensorize_kl_is_exact_multiple():
    assert tensorize_kl(0.37, 4) == 4 * 0.37
    with pytest.raises(DomainError):
        tensorize_kl(0.1, 0)
    with pytest.raises(DomainError):
        tensorize_kl(-0.1, 2)
