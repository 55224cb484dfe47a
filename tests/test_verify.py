"""Tests for exact verification of finite mechanisms."""

import itertools
import math

import numpy as np
import pytest

from dpminimax import (
    ArityMismatch,
    AdmissibilityCheck,
    Dataset,
    DiscreteDistribution,
    DomainError,
    FiniteMechanism,
    KindConstraintMismatch,
    LengthMismatch,
    PrivacyConstraint,
    TooLarge,
    derived_rng,
    hamming,
    identity_kernel,
    midpoint_anchor,
    rr_kernel,
    rr_sum_kernel,
    similarity,
    verify_admissibility,
    verify_group_privacy,
    verify_kl_dp,
    verify_privacy,
    verify_transport_bound,
)

LN3 = math.log(3.0)


def _ds(*entries, q=2):
    return Dataset(entries=tuple(entries), alphabet_size=q)


# ------------------------------------------------------- datasets and anchors


def test_dataset_validation():
    with pytest.raises(DomainError):
        Dataset(entries=(), alphabet_size=2)
    with pytest.raises(DomainError):
        Dataset(entries=(0,), alphabet_size=0)
    with pytest.raises(DomainError):
        Dataset(entries=(2,), alphabet_size=2)
    assert _ds(0, 1, 1).n == 3


def test_hamming_distance():
    assert hamming(_ds(0, 0, 1), _ds(0, 1, 1)) == 1
    assert hamming(_ds(0, 0), _ds(0, 0)) == 0
    assert hamming(_ds(0, 1), _ds(1, 0)) == 2
    with pytest.raises(LengthMismatch):
        hamming(_ds(0), _ds(0, 1))


def test_midpoint_anchor_splits_disagreements():
    a = _ds(0, 0, 0, 0)
    b = _ds(1, 1, 1, 0)
    mid = midpoint_anchor(a, b)
    assert mid.entries == (0, 0, 1, 0)
    assert hamming(mid, a) == 1
    assert hamming(mid, b) == 2


def test_midpoint_anchor_random_pairs_are_balanced():
    rng = derived_rng(301)
    for _ in range(25):
        n = int(rng.integers(1, 8))
        a = Dataset(tuple(int(x) for x in rng.integers(0, 3, n)), 3)
        b = Dataset(tuple(int(x) for x in rng.integers(0, 3, n)), 3)
        h = hamming(a, b)
        mid = midpoint_anchor(a, b)
        assert hamming(mid, a) == h // 2
        assert hamming(mid, b) == (h + 1) // 2


# ----------------------------------------------------------- similarity values


def test_lecam_match_pure_dp_value():
    s = similarity(PrivacyConstraint.pure(1.0), "lecam_match", (_ds(0, 0, 0), _ds(1, 1, 1)))
    assert s == pytest.approx(0.5 * math.exp(-2.0), abs=1e-15)
    assert s == pytest.approx(0.06766764161830635, abs=1e-15)


def test_lecam_match_zcdp_value():
    s = similarity(PrivacyConstraint.zcdp(0.08), "lecam_match", (_ds(0, 0), _ds(1, 1)))
    assert s == pytest.approx(0.5 * (1.0 - math.sqrt(0.04) * 2), abs=1e-15)


def test_fano_match_zcdp_value():
    datasets = tuple(Dataset((v,), alphabet_size=3) for v in range(3))
    s = similarity(PrivacyConstraint.zcdp(0.1), "fano_match", datasets)
    assert s == pytest.approx(0.029078158264706833, abs=1e-15)


def test_fano_match_pure_dp_value():
    datasets = (_ds(0, 0), _ds(1, 1), _ds(0, 1), _ds(1, 0))
    eps = 0.05
    total = sum(hamming(a, b) for a in datasets for b in datasets)
    expected = 1.0 - (1.0 + eps * total / 16.0) / math.log(4.0)
    s = similarity(PrivacyConstraint.pure(eps), "fano_match", datasets)
    assert s == pytest.approx(expected, abs=1e-15)


def test_fano_match_rejects_positive_delta():
    with pytest.raises(KindConstraintMismatch):
        similarity(PrivacyConstraint.approx(1.0, 0.1), "fano_match", (_ds(0), _ds(1)))


def test_global_anchor_value_and_requirements():
    c = PrivacyConstraint.approx(0.5, 0.01)
    tup = (_ds(0, 0), _ds(1, 1), _ds(1, 0))
    anchor = _ds(0, 1)
    hmax = max(hamming(x, anchor) for x in tup)
    expected = (2.0 / 3.0) * math.exp(-0.5 * hmax) - math.exp(-0.5) * 0.01 * hmax
    assert similarity(c, "global_anchor", tup, anchor=anchor) == pytest.approx(expected, abs=1e-15)
    with pytest.raises(DomainError):
        similarity(c, "global_anchor", tup)


def test_projection_anchor_equals_global_at_that_dataset():
    c = PrivacyConstraint.pure(0.7)
    tup = (_ds(0, 0), _ds(1, 1), _ds(1, 0))
    for j in range(3):
        proj = similarity(c, "projection_anchor", tup, j=j)
        glob = similarity(c, "global_anchor", tup, anchor=tup[j])
        assert proj == pytest.approx(glob, abs=1e-15)
    with pytest.raises(DomainError):
        similarity(c, "projection_anchor", tup)
    with pytest.raises(DomainError):
        similarity(c, "projection_anchor", tup, j=3)


def test_pairwise_anchor_two_datasets_equals_lecam_match():
    tup = (_ds(0, 0, 0), _ds(1, 1, 0))
    for c in (PrivacyConstraint.pure(0.9), PrivacyConstraint.approx(0.9, 0.02)):
        pairwise = similarity(c, "pairwise_anchor", tup)
        lecam = similarity(c, "lecam_match", tup)
        assert pairwise == pytest.approx(lecam, abs=1e-15)


def test_global_anchor_at_midpoint_equals_lecam_match():
    c = PrivacyConstraint.pure(1.2)
    a, b = _ds(0, 0, 0), _ds(1, 1, 1)
    glob = similarity(c, "global_anchor", (a, b), anchor=midpoint_anchor(a, b))
    assert glob == pytest.approx(similarity(c, "lecam_match", (a, b)), abs=1e-15)


def test_similarity_kind_and_arity_errors():
    pure = PrivacyConstraint.pure(1.0)
    with pytest.raises(ArityMismatch):
        similarity(pure, "lecam_match", (_ds(0), _ds(1), _ds(0)))
    with pytest.raises(ArityMismatch):
        similarity(pure, "fano_match", (_ds(0),))
    with pytest.raises(ArityMismatch):
        similarity(pure, "lecam_match", ())
    with pytest.raises(KindConstraintMismatch):
        similarity(pure, "not_a_kind", (_ds(0), _ds(1)))
    with pytest.raises(KindConstraintMismatch):
        similarity(PrivacyConstraint.zcdp(0.1), "global_anchor", (_ds(0), _ds(1)))
    with pytest.raises(KindConstraintMismatch):
        similarity(PrivacyConstraint.none(), "lecam_match", (_ds(0), _ds(1)))


# --------------------------------------------------------- finite mechanisms


def test_mechanism_validation():
    with pytest.raises(DomainError):
        FiniteMechanism(alphabet_size=2, n=1, outputs=(0, 1), kernel=np.array([[0.6, 0.6], [0.5, 0.5]]))
    with pytest.raises(DomainError):
        FiniteMechanism(alphabet_size=2, n=1, outputs=(0, 1), kernel=np.array([[1.2, -0.2], [0.5, 0.5]]))
    with pytest.raises(DomainError):
        FiniteMechanism(alphabet_size=2, n=1, outputs=(0,), kernel=np.array([[0.5, 0.5], [0.5, 0.5]]))


def test_mechanism_rejects_non_finite_entries():
    # nan fails the sign and row-sum comparisons silently, so it needs its own check.
    for kernel in (
        np.full((2, 2), np.nan),
        np.array([[np.nan, 1.0], [0.5, 0.5]]),
        np.array([[np.inf, -np.inf], [0.5, 0.5]]),
        np.array([[np.inf, 0.0], [0.5, 0.5]]),
    ):
        with pytest.raises(DomainError, match="finite"):
            FiniteMechanism(alphabet_size=2, n=1, outputs=(0, 1), kernel=kernel)


def test_dataset_index_is_mixed_radix():
    mech = identity_kernel(3, 2)
    assert mech.dataset_index(Dataset((2, 1), alphabet_size=3)) == 7
    assert mech.dataset_index(Dataset((0, 0), alphabet_size=3)) == 0
    listing = mech.datasets()
    assert listing[0].entries == (0, 0)
    assert listing[-1].entries == (2, 2)
    assert [mech.dataset_index(d) for d in listing] == list(range(9))
    with pytest.raises(DomainError):
        mech.dataset_index(Dataset((1,), alphabet_size=3))


# ---------------------------------------------------------- privacy checking


def test_verify_privacy_pure_dp():
    assert verify_privacy(rr_kernel(LN3, 1), PrivacyConstraint.pure(LN3)).holds
    assert verify_privacy(rr_kernel(LN3, 2), PrivacyConstraint.pure(LN3)).holds
    res = verify_privacy(rr_kernel(LN3, 1), PrivacyConstraint.pure(1.0))
    assert not res.holds
    a, b, event = res.witness
    assert hamming(a, b) == 1
    assert len(event) >= 1


def test_verify_privacy_witness_is_the_worst_event():
    mech = rr_kernel(LN3, 2)
    res = verify_privacy(mech, PrivacyConstraint.pure(1.0))
    a, b, event = res.witness
    p, q = mech.row(a), mech.row(b)
    assert event == tuple(o for o in mech.outputs if p[o] > math.e * q[o])
    assert (a.entries, b.entries, event) == ((0, 0), (0, 1), (0, 2))


def test_verify_privacy_approx_dp_uses_delta():
    mech = rr_kernel(LN3, 1)
    assert not verify_privacy(mech, PrivacyConstraint.approx(1.0, 0.0)).holds
    assert verify_privacy(mech, PrivacyConstraint.approx(1.0, 0.1)).holds


def test_verify_privacy_zcdp():
    mech = rr_kernel(LN3, 1)
    assert verify_privacy(mech, PrivacyConstraint.zcdp(LN3**2 / 2.0)).holds
    res = verify_privacy(mech, PrivacyConstraint.zcdp(0.2))
    assert not res.holds
    assert res.witness[2] > 1.0


def test_verify_privacy_none_and_identity():
    assert verify_privacy(identity_kernel(2, 1), PrivacyConstraint.none()).holds
    res = verify_privacy(identity_kernel(2, 1), PrivacyConstraint.pure(5.0))
    assert not res.holds


def test_verify_privacy_caps():
    for over in (identity_kernel(3, 4), identity_kernel(9, 1)):
        with pytest.raises(TooLarge):
            verify_privacy(over, PrivacyConstraint.pure(1.0))
        with pytest.raises(TooLarge):
            verify_group_privacy(over, PrivacyConstraint.pure(1.0))


def test_verifiers_at_the_caps():
    # 64 datasets and 7 outputs: the largest rr-sum kernel within the caps.
    mech = rr_sum_kernel(LN3, 6)
    assert verify_privacy(mech, PrivacyConstraint.pure(LN3)).holds
    assert verify_group_privacy(mech, PrivacyConstraint.pure(LN3))
    assert not verify_privacy(mech, PrivacyConstraint.pure(0.9 * LN3)).holds
    assert not verify_group_privacy(mech, PrivacyConstraint.pure(0.9 * LN3))
    # 64^2 tuples times 2^7 maps is within the admissibility work cap.
    assert verify_admissibility(mech, PrivacyConstraint.pure(LN3), "lecam_match", 2).holds


def test_verify_group_privacy():
    mech = rr_kernel(LN3, 2)
    assert verify_group_privacy(mech, PrivacyConstraint.pure(LN3))
    assert verify_group_privacy(mech, PrivacyConstraint.approx(LN3, 0.01))
    assert verify_group_privacy(mech, PrivacyConstraint.zcdp(LN3**2 / 2.0))
    assert not verify_group_privacy(identity_kernel(2, 1), PrivacyConstraint.pure(2.0))
    with pytest.raises(KindConstraintMismatch):
        verify_group_privacy(mech, PrivacyConstraint.none())


def test_verify_kl_dp():
    assert verify_kl_dp(rr_kernel(LN3, 1), LN3)
    assert verify_kl_dp(rr_kernel(LN3, 2), LN3)
    assert verify_kl_dp(rr_sum_kernel(LN3, 2), LN3)
    # KL between the two RR rows is 0.5 ln 3, which exceeds 0.5
    assert not verify_kl_dp(rr_kernel(LN3, 1), 0.5)
    assert not verify_kl_dp(identity_kernel(2, 1), 10.0)
    for bad in (0.0, math.nan, math.inf):
        with pytest.raises(DomainError):
            verify_kl_dp(rr_kernel(LN3, 1), bad)


# ----------------------------------------------------------- admissibility


@pytest.mark.parametrize(
    "kind,N",
    [
        ("lecam_match", 2),
        ("pairwise_anchor", 2),
        ("pairwise_anchor", 3),
        ("global_anchor", 2),
        ("projection_anchor", 2),
        ("fano_match", 3),
    ],
)
def test_rr_is_admissible_for_every_kind(kind, N):
    mech = rr_kernel(LN3, 1)
    res = verify_admissibility(mech, PrivacyConstraint.pure(LN3), kind, N)
    assert res.holds
    assert res.worst_gap >= -1e-12
    assert res.witness is None


def test_rr_sum_is_admissible():
    mech = rr_sum_kernel(LN3, 2)
    res = verify_admissibility(mech, PrivacyConstraint.pure(LN3), "lecam_match", 2)
    assert res.holds


@pytest.mark.parametrize("kind", ["lecam_match", "fano_match"])
def test_rr_is_admissible_under_zcdp(kind):
    mech = rr_kernel(LN3, 1)
    N = 2 if kind == "lecam_match" else 3
    res = verify_admissibility(mech, PrivacyConstraint.zcdp(LN3**2 / 2.0), kind, N)
    assert res.holds


def test_global_anchor_with_anchors_callable():
    mech = rr_kernel(LN3, 1)
    res = verify_admissibility(
        mech,
        PrivacyConstraint.pure(LN3),
        "global_anchor",
        3,
        anchors=lambda tup: midpoint_anchor(tup[0], tup[1]),
    )
    assert res.holds
    with pytest.raises(DomainError):
        verify_admissibility(mech, PrivacyConstraint.pure(LN3), "global_anchor", 3)


def test_identity_mechanism_is_inadmissible():
    res = verify_admissibility(identity_kernel(2, 1), PrivacyConstraint.pure(1.0), "lecam_match", 2)
    assert isinstance(res, AdmissibilityCheck)
    assert not res.holds
    assert res.worst_gap < 0.0
    tup, psi = res.witness
    assert len(tup) == 2
    assert len(psi) == 2


def test_admissibility_validation_and_caps():
    mech = rr_kernel(LN3, 1)
    with pytest.raises(ArityMismatch):
        verify_admissibility(mech, PrivacyConstraint.pure(1.0), "lecam_match", 1)
    with pytest.raises(TooLarge):
        verify_admissibility(rr_kernel(1.0, 3), PrivacyConstraint.pure(1.0), "lecam_match", 3)


# --------------------------------------------------------- transport bound


def _point_mass(index):
    return DiscreteDistribution(atoms=(index,), weights=(1.0,))


def test_transport_bound_holds_for_rr():
    mech = rr_kernel(LN3, 1)
    marginals = (_point_mass(0), _point_mass(1))
    assert verify_transport_bound(mech, PrivacyConstraint.pure(LN3), "lecam_match", marginals)


def test_transport_bound_holds_for_mixed_marginals():
    mech = rr_kernel(LN3, 1)
    marginals = (
        DiscreteDistribution(atoms=(0, 1), weights=(0.8, 0.2)),
        DiscreteDistribution(atoms=(0, 1), weights=(0.2, 0.8)),
    )
    assert verify_transport_bound(mech, PrivacyConstraint.pure(LN3), "lecam_match", marginals)
    assert verify_transport_bound(mech, PrivacyConstraint.zcdp(0.6), "lecam_match", marginals)


def test_transport_bound_classical_mode():
    mech = rr_kernel(LN3, 1)
    marginals = (_point_mass(0), _point_mass(1))
    assert verify_transport_bound(mech, PrivacyConstraint.none(), "lecam_match", marginals)
    with pytest.raises(ArityMismatch):
        verify_transport_bound(
            rr_sum_kernel(LN3, 2),
            PrivacyConstraint.none(),
            "lecam_match",
            (_point_mass(0), _point_mass(1), _point_mass(2)),
        )


def test_transport_bound_fails_for_identity():
    mech = identity_kernel(2, 1)
    marginals = (_point_mass(0), _point_mass(1))
    assert not verify_transport_bound(mech, PrivacyConstraint.pure(1.0), "lecam_match", marginals)


def test_transport_bound_validation():
    mech = rr_kernel(LN3, 1)
    with pytest.raises(ArityMismatch):
        verify_transport_bound(mech, PrivacyConstraint.pure(1.0), "lecam_match", (_point_mass(0),))
    bad = DiscreteDistribution(atoms=(5,), weights=(1.0,))
    with pytest.raises(DomainError):
        verify_transport_bound(mech, PrivacyConstraint.pure(1.0), "lecam_match", (_point_mass(0), bad))


# ------------------------------------- closed forms against the enumerations


def _dp_violation_reference(p, q, eps, delta):
    """First violating output event in bitmask order, or None."""
    k = p.shape[0]
    for bits in range(1, 2**k):
        mask = np.array([(bits >> o) & 1 for o in range(k)], dtype=bool)
        if p[mask].sum() > math.exp(eps) * q[mask].sum() + delta + 1e-12:
            return mask
    return None


def _max_event_excess(p, q, eps):
    """max over output events S of P(S) - e^eps Q(S), the empty event included."""
    best = 0.0
    for keep in itertools.product((False, True), repeat=p.shape[0]):
        mask = np.array(keep)
        best = max(best, p[mask].sum() - math.exp(eps) * q[mask].sum())
    return best


def _privacy_reference(m, eps, delta, group):
    datasets = m.datasets()
    for a in datasets:
        for b in datasets:
            k = hamming(a, b)
            if k == 0 or (k > 1 and not group):
                continue
            group_delta = delta * k * math.exp(eps * (k - 1))
            if _dp_violation_reference(m.row(a), m.row(b), k * eps, group_delta) is not None:
                return False
    return True


def _admissibility_reference(m, c, kind, N):
    """(holds, worst_gap, witness) with every test map psi enumerated."""
    worst_gap = math.inf
    witness = None
    for tup in itertools.product(m.datasets(), repeat=N):
        s = similarity(c, kind, tup)
        rows = np.stack([m.row(x) for x in tup])
        for psi in itertools.product(range(N), repeat=m.n_outputs):
            correct = 0.0
            for o, label in enumerate(psi):
                correct += rows[label, o]
            gap = 1.0 - correct / N - s
            if gap < worst_gap:
                worst_gap = gap
                if gap < -1e-12:
                    witness = (tup, psi)
    return witness is None, worst_gap, witness


def _random_mechanism(rng):
    """Rows mixed between a shared law and per-row laws, with some zero entries."""
    n = int(rng.integers(1, 3))
    k = int(rng.integers(2, 9))
    rows = rng.dirichlet(np.ones(k), size=2**n + 1)
    rows[rng.random(rows.shape) < 0.2] = 0.0
    rows[:, int(rng.integers(0, k))] += 0.1
    rows /= rows.sum(axis=1, keepdims=True)
    t = rng.random()
    kernel = (1.0 - t) * rows[0] + t * rows[1:]
    kernel /= kernel.sum(axis=1, keepdims=True)
    return FiniteMechanism(alphabet_size=2, n=n, outputs=tuple(range(k)), kernel=kernel)


def _random_dp_constraint(rng):
    eps = float(rng.uniform(0.05, 2.0))
    delta = float(rng.choice([0.0, 0.01, 0.1]))
    if delta == 0.0:
        return PrivacyConstraint.pure(eps)
    return PrivacyConstraint.approx(eps, delta)


def test_privacy_closed_form_matches_event_enumeration():
    rng = derived_rng(501)
    refuted = 0
    for _ in range(150):
        mech = _random_mechanism(rng)
        c = _random_dp_constraint(rng)
        eps, delta = c.eps_delta()
        res = verify_privacy(mech, c)
        assert res.holds == _privacy_reference(mech, eps, delta, group=False)
        assert verify_group_privacy(mech, c) == _privacy_reference(mech, eps, delta, group=True)
        if not res.holds:
            refuted += 1
            a, b, event = res.witness
            p, q = mech.row(a), mech.row(b)
            mask = np.isin(mech.outputs, event)
            excess = p[mask].sum() - math.exp(eps) * q[mask].sum()
            assert excess == pytest.approx(_max_event_excess(p, q, eps), abs=1e-15)
            assert excess > delta
    assert 30 <= refuted <= 120


def test_admissibility_closed_form_matches_test_map_enumeration():
    rng = derived_rng(502)
    refuted = 0
    for _ in range(60):
        mech = _random_mechanism(rng)
        c = _random_dp_constraint(rng)
        kinds = ["lecam_match", "pairwise_anchor"]
        if c.kind == "pure":
            kinds.append("fano_match")
        kind = kinds[int(rng.integers(0, len(kinds)))]
        N = 2 if kind == "lecam_match" or mech.n_outputs > 6 else int(rng.integers(2, 4))
        res = verify_admissibility(mech, c, kind, N)
        holds, worst_gap, witness = _admissibility_reference(mech, c, kind, N)
        assert res.holds == holds
        assert res.worst_gap == worst_gap
        assert res.witness == witness
        refuted += not holds
    assert 5 <= refuted <= 55
