"""Tests for exact verification of finite mechanisms."""

import importlib.util
import itertools
import json
import math
import warnings
from pathlib import Path

import numpy as np
import pytest
from scipy.optimize import linprog

from dpminimax import cli
from dpminimax import couplings as couplings_mod
from dpminimax import divergences as divergences_mod
from dpminimax import mechanisms as mechanisms_mod
from dpminimax import verify as verify_mod
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
    exponential_races,
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

from conftest import coupling_polytope_oracle

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


@pytest.mark.parametrize("n", [1, 2, 3, 4])
@pytest.mark.parametrize("alphabet_size", [1, 2, 3])
def test_word_distances_are_hamming_over_the_datasets(alphabet_size, n):
    listing = identity_kernel(alphabet_size, n).datasets()
    expected = [[hamming(a, b) for b in listing] for a in listing]
    assert verify_mod._word_distances(alphabet_size, n).tolist() == expected


def test_word_distances_are_built_once_per_size_and_read_only():
    table = verify_mod._word_distances(3, 2)
    assert verify_mod._word_distances(3, 2) is table
    assert not table.flags.writeable
    with pytest.raises(ValueError):
        table[0, 1] = 0
    assert verify_mod._word_distances(2, 3) is not table


@pytest.mark.parametrize("n", [1, 2, 3])
def test_rr_kernel_entries_are_keep_and_flip_powers_of_the_hamming_distance(n):
    eps = 0.7
    keep, flip = mechanisms_mod._rr_keep_flip(eps)
    words = identity_kernel(2, n).datasets()
    weight = [hamming(o, words[0]) for o in words]
    full, summed = rr_kernel(eps, n).kernel, rr_sum_kernel(eps, n).kernel
    for x, a in enumerate(words):
        entries = [keep ** (n - hamming(a, o)) * flip ** hamming(a, o) for o in words]
        assert full[x].tolist() == pytest.approx(entries, rel=1e-15)
        sums = [sum(e for e, w in zip(entries, weight) if w == total) for total in range(n + 1)]
        assert summed[x].tolist() == pytest.approx(sums, rel=1e-14)


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
    # 64^2 tuples, each an argmax over 2 rows of 7 outputs, is within the work cap.
    assert verify_admissibility(mech, PrivacyConstraint.pure(LN3), "lecam_match", 2).holds


def test_verify_group_privacy():
    mech = rr_kernel(LN3, 2)
    assert verify_group_privacy(mech, PrivacyConstraint.pure(LN3))
    assert verify_group_privacy(mech, PrivacyConstraint.approx(LN3, 0.01))
    assert verify_group_privacy(mech, PrivacyConstraint.zcdp(LN3**2 / 2.0))
    assert not verify_group_privacy(identity_kernel(2, 1), PrivacyConstraint.pure(2.0))
    with pytest.raises(KindConstraintMismatch):
        verify_group_privacy(mech, PrivacyConstraint.none())


@pytest.mark.parametrize("alphabet_size, n", [(2, 1), (1, 3)], ids=["pairs", "one_dataset"])
def test_group_privacy_rejects_a_none_constraint_with_or_without_pairs(alphabet_size, n):
    # The constraint kind is checked before the walk, so a domain with a
    # single dataset (no pair to check) raises as well.
    with pytest.raises(KindConstraintMismatch):
        verify_group_privacy(identity_kernel(alphabet_size, n), PrivacyConstraint.none())


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


def test_admissibility_validation_and_caps(monkeypatch):
    mech = rr_kernel(LN3, 1)
    with pytest.raises(ArityMismatch):
        verify_admissibility(mech, PrivacyConstraint.pure(1.0), "lecam_match", 1)
    # The work counts datasets^N tuples times N rows of k outputs plus the
    # distances a tuple reads, N(N-1)/2 for the pair kinds: 64^3 * (3 * 7 + 3) here.
    with pytest.raises(TooLarge):
        verify_admissibility(rr_sum_kernel(LN3, 6), PrivacyConstraint.pure(LN3), "lecam_match", 3)
    # 8^3 * (3 * 8 + 3) = 13,824 is within the cap.
    res = verify_admissibility(rr_kernel(1.0, 3), PrivacyConstraint.pure(1.0), "fano_match", 3)
    assert res.holds
    one = identity_kernel(1, 1)
    assert verify_admissibility(one, PrivacyConstraint.pure(1.0), "fano_match", 1000).holds  # 1000 + 499 500
    with monkeypatch.context() as patched:
        # Raised before the tuple indices are built.
        patched.setattr(verify_mod, "_digits", None)
        with pytest.raises(TooLarge, match="enumeration size 1125750 exceeds"):
            verify_admissibility(one, PrivacyConstraint.pure(1.0), "fano_match", 1500)
    rr = rr_kernel(1.5, 1)
    with pytest.raises(TooLarge, match="enumeration size 4423680 exceeds"):
        verify_admissibility(rr, PrivacyConstraint.pure(1.5), "pairwise_anchor", 15)
    # At N = 14 the pair kinds read 91 distances (2^14 * 119 is over the cap)
    # and the anchor kinds 14 (2^14 * 42 is within it).
    with pytest.raises(TooLarge, match="enumeration size 1949696 exceeds"):
        verify_admissibility(rr, PrivacyConstraint.pure(1.5), "fano_match", 14)
    assert verify_admissibility(rr, PrivacyConstraint.pure(1.5), "projection_anchor", 14).holds


def _load_tracing():
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracing", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _traced_similarity_calls(argv, tmp_path):
    """verify.similarity calls in a traced CLI run, after checking that the
    traced report has the untraced report's bytes."""
    tracing = _load_tracing()
    assert cli.main([*argv, "--out", str(tmp_path / "untraced.json")]) == 0
    tracer = tracing.Tracer()
    with tracing.instrument(tracer):
        assert cli.main([*argv, "--out", str(tmp_path / "traced.json")]) == 0
    assert (tmp_path / "traced.json").read_bytes() == (tmp_path / "untraced.json").read_bytes()
    return tracer.counters["verify.similarity.calls"]


@pytest.mark.parametrize("kind", ["fano_match", "pairwise_anchor"])
def test_a_traced_admissibility_run_makes_no_similarity_call(kind, tmp_path):
    # The benchmark's tracer counts verify.similarity by module attribute.
    # rr on n = 2 bits has 4 datasets, so N = 3 enumerates 4^3 tuples; their
    # similarities come from one array pass, not from similarity calls.
    argv = ["verify", "admissibility", "--mechanism", "rr", "--n", "2", "--N", "3", "--kind", kind]
    assert _traced_similarity_calls(argv, tmp_path) == 0


def test_a_traced_rr_sum_admissibility_run_makes_no_similarity_call(tmp_path):
    # rr-sum on n = 3 bits has 8 datasets: 8^3 tuples.
    argv = ["verify", "admissibility", "--mechanism", "rr-sum", "--n", "3", "--N", "3", "--kind", "fano_match"]
    assert _traced_similarity_calls(argv, tmp_path) == 0


# Bits of the scalar similarity formulas; the per-tuple loop is too slow at
# these sizes to run as the oracle.
_NEAR_CAP = [
    (rr_sum_kernel(0.5, 5), 0.5, 3, "fano_match", "0x1.27603591216a6p-1"),
    (rr_sum_kernel(0.5, 5), 0.5, 3, "projection_anchor", "-0x1.0000000000000p-53"),
    (rr_kernel(0.5, 3), 0.5, 4, "pairwise_anchor", "0x1.0000000000000p-2"),
    (rr_kernel(1.5, 1), 1.5, 13, "fano_match", "0x1.40757c11403dcp-2"),
    (rr_kernel(1.5, 1), 1.5, 13, "pairwise_anchor", "0x1.b13b13b13b13cp-2"),
    (rr_kernel(1.5, 1), 1.5, 15, "fano_match", "0x1.35dd7bdeb6c5cp-2"),
    (rr_kernel(1.5, 1), 1.5, 15, "pairwise_anchor", "0x1.bbbbbbbbbbbbcp-2"),
]


@pytest.mark.parametrize("mech, eps, N, kind, gap_hex", _NEAR_CAP,
                         ids=[f"mech{t}-{N}-{kind}-{gap}" for t, (_, _, N, kind, gap) in enumerate(_NEAR_CAP)])
def test_admissibility_near_the_work_cap_keeps_its_bits(mech, eps, N, kind, gap_hex, monkeypatch):
    if N == 15:
        # 2^15 tuples that read 105 pair distances each are over the cap
        # (see test_admissibility_validation_and_caps); it is lifted to pin their values.
        monkeypatch.setattr(verify_mod, "_MAX_ADMISSIBILITY_WORK", 2**15 * (15 * 2 + 105))
    res = verify_admissibility(mech, PrivacyConstraint.pure(eps), kind, N)
    assert res.holds and res.witness is None
    assert res.worst_gap.hex() == gap_hex


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


def test_a_pure_dp_suite_solves_the_transport_left_side_once(tmp_path, monkeypatch):
    # The left side depends on the mechanism and the marginals only: the five
    # kinds of a pure-DP suite make one left-side solve and five right-side
    # ones, and each verdict is that of the kind's own check.
    argv = ["verify", "suite", "--mechanism", "rr", "--n", "2", "--eps", "0.5", "--out"]
    assert cli.main([*argv, str(tmp_path / "plain.json")]) == 0
    solves = []
    solve_min = verify_mod.solve_min

    def counted(*args):
        solves.append(args)
        return solve_min(*args)

    monkeypatch.setattr(verify_mod, "solve_min", counted)
    assert cli.main([*argv, str(tmp_path / "spied.json")]) == 0
    assert len(solves) == 6
    assert (tmp_path / "spied.json").read_bytes() == (tmp_path / "plain.json").read_bytes()
    monkeypatch.undo()
    mech, c = rr_kernel(0.5, 2), PrivacyConstraint.pure(0.5)
    marginals = cli._default_transport_marginals(mech)
    checks = json.loads((tmp_path / "plain.json").read_text())["report"]["checks"]
    transport = {ch["check"]: ch["holds"] for ch in checks if ch["check"].startswith("transport")}
    assert transport == {
        f"transport[{kind}]": verify_transport_bound(mech, c, kind, marginals)
        for kind in ("global_anchor", "projection_anchor", "lecam_match", "pairwise_anchor", "fano_match")
    }


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
    """The first violating Dataset pair in a-major order, or None."""
    datasets = m.datasets()
    for a in datasets:
        for b in datasets:
            k = hamming(a, b)
            if k == 0 or (k > 1 and not group):
                continue
            group_delta = delta * k * math.exp(eps * (k - 1))
            if _dp_violation_reference(m.row(a), m.row(b), k * eps, group_delta) is not None:
                return a, b
    return None


def _kl_ratio_reference(m):
    """max over Dataset pairs at distance h > 0 of KL(M(a) || M(b)) / h."""
    worst = 0.0
    for a in m.datasets():
        for b in m.datasets():
            h = hamming(a, b)
            if h == 0:
                continue
            p, q = m.row(a), m.row(b)
            if np.any((p > 0.0) & (q <= 0.0)):
                return math.inf
            live = p > 0.0
            worst = max(worst, float(np.sum(p[live] * np.log(p[live] / q[live]))) / h)
    return worst


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


def _random_mechanism(rng, alphabet_size=2):
    """Rows mixed between a shared law and per-row laws, with some zero entries."""
    n = int(rng.integers(1, 3))
    k = int(rng.integers(2, 9))
    rows = rng.dirichlet(np.ones(k), size=alphabet_size**n + 1)
    rows[rng.random(rows.shape) < 0.2] = 0.0
    rows[:, int(rng.integers(0, k))] += 0.1
    rows /= rows.sum(axis=1, keepdims=True)
    t = rng.random()
    kernel = (1.0 - t) * rows[0] + t * rows[1:]
    kernel /= kernel.sum(axis=1, keepdims=True)
    return FiniteMechanism(alphabet_size=alphabet_size, n=n, outputs=tuple(range(k)), kernel=kernel)


def _random_dp_constraint(rng):
    eps = float(rng.uniform(0.05, 2.0))
    delta = float(rng.choice([0.0, 0.01, 0.1]))
    if delta == 0.0:
        return PrivacyConstraint.pure(eps)
    return PrivacyConstraint.approx(eps, delta)


def _privacy_parity(mech, c):
    """Check the privacy, group and KL verifiers against the Dataset-pair
    enumerations; returns whether privacy holds."""
    eps, delta = c.eps_delta()
    res = verify_privacy(mech, c)
    first = _privacy_reference(mech, eps, delta, group=False)
    assert res.holds == (first is None)
    assert verify_group_privacy(mech, c) == (_privacy_reference(mech, eps, delta, group=True) is None)
    ratio = _kl_ratio_reference(mech)
    assert verify_kl_dp(mech, eps) == (ratio <= eps)
    if 0.0 < ratio < math.inf:
        assert verify_kl_dp(mech, 1.001 * ratio) and not verify_kl_dp(mech, 0.999 * ratio)
    if not res.holds:
        a, b, event = res.witness
        assert (a, b) == first
        p, q = mech.row(a), mech.row(b)
        mask = np.isin(mech.outputs, event)
        excess = p[mask].sum() - math.exp(eps) * q[mask].sum()
        assert excess == pytest.approx(_max_event_excess(p, q, eps), abs=1e-15)
        assert excess > delta
    return res.holds


def test_kl_dp_reads_the_kl_of_every_pair_from_one_row_sum():
    # verify_kl_dp sums p L along the rows of its whole pair table at once;
    # each row keeps the bits of the one-row sum that kl makes, zero weights and all.
    rng = derived_rng(505)
    zeros = infinite = 0
    for _ in range(40):
        _, _, _, p, loss = verify_mod._pair_table(_random_mechanism(rng), 2)
        expected = [float(divergences_mod._kl_weights(pt, lt)) for pt, lt in zip(p, loss)]
        assert divergences_mod._kl_weights(p, loss).tolist() == expected
        zeros += int(np.any(p == 0.0))
        infinite += math.inf in expected
    assert zeros > 0 and infinite > 0


def test_privacy_closed_form_matches_event_enumeration():
    rng = derived_rng(501)
    refuted = 0
    for _ in range(150):
        mech = _random_mechanism(rng)
        refuted += not _privacy_parity(mech, _random_dp_constraint(rng))
    assert 30 <= refuted <= 120


def test_privacy_closed_form_matches_event_enumeration_on_a_ternary_alphabet():
    rng = derived_rng(503)
    refuted = 0
    for _ in range(100):
        mech = _random_mechanism(rng, alphabet_size=3)
        refuted += not _privacy_parity(mech, _random_dp_constraint(rng))
    assert 40 <= refuted <= 95


def _admissibility_parity(mech, c, kind, N):
    """Check verify_admissibility against the test-map enumeration; returns
    whether admissibility holds."""
    res = verify_admissibility(mech, c, kind, N)
    holds, worst_gap, witness = _admissibility_reference(mech, c, kind, N)
    assert res.holds == holds
    assert res.worst_gap == worst_gap
    assert res.witness == witness
    return holds


def _random_kind(rng, c):
    kinds = ["lecam_match", "pairwise_anchor"]
    if c.kind == "pure":
        kinds.append("fano_match")
    return kinds[int(rng.integers(0, len(kinds)))]


def test_admissibility_closed_form_matches_test_map_enumeration():
    rng = derived_rng(502)
    refuted = 0
    for _ in range(60):
        mech = _random_mechanism(rng)
        c = _random_dp_constraint(rng)
        kind = _random_kind(rng, c)
        N = 2 if kind == "lecam_match" or mech.n_outputs > 6 else int(rng.integers(2, 4))
        refuted += not _admissibility_parity(mech, c, kind, N)
    assert 5 <= refuted <= 55


def test_admissibility_closed_form_matches_test_map_enumeration_on_a_ternary_alphabet():
    # N = 3 only where the reference's D^3 tuples times 3^k test maps stay small.
    rng = derived_rng(504)
    refuted = 0
    for _ in range(80):
        mech = _random_mechanism(rng, alphabet_size=3)
        c = _random_dp_constraint(rng)
        kind = _random_kind(rng, c)
        small = mech.n_datasets**3 * 3**mech.n_outputs <= 20_000
        N = 3 if kind != "lecam_match" and small else 2
        refuted += not _admissibility_parity(mech, c, kind, N)
    assert 5 <= refuted <= 60


def _admissibility_loop(m, c, kind, N, anchors=None, j=0):
    """The per-tuple admissibility check: one similarity call, argmax and
    output loop per N-tuple of datasets, in itertools.product order."""
    if m.n_datasets > 64:
        raise TooLarge(f"{m.n_datasets} datasets exceeds cap 64")
    if m.n_outputs > 8:
        raise TooLarge(f"{m.n_outputs} outputs exceeds cap 8")
    if N < 2:
        raise ArityMismatch("admissibility needs N >= 2")
    work = (m.n_datasets**N) * N * m.n_outputs
    if work > 1_000_000:
        raise TooLarge(f"enumeration size {work} exceeds cap 1000000")
    datasets = m.datasets()
    worst_gap = math.inf
    witness = None
    for idx in itertools.product(range(m.n_datasets), repeat=N):
        tup = tuple(datasets[i] for i in idx)
        anchor = None
        if kind == "global_anchor":
            if anchors is not None:
                anchor = anchors(tup)
            elif N == 2:
                anchor = midpoint_anchor(*tup)
            elif kind in verify_mod._similarity_kinds(c):
                # A kind c does not admit raises KindConstraintMismatch first.
                raise DomainError("global_anchor has a default anchor only for N = 2")
        s = similarity(c, kind, tup, anchor=anchor, j=j if kind == "projection_anchor" else None)
        rows = m.kernel[list(idx)]
        psi = tuple(int(i) for i in rows.argmax(axis=0))
        correct = 0.0
        for o, label in enumerate(psi):
            correct += rows[label, o]
        gap = 1.0 - correct / N - s
        if gap < worst_gap:
            worst_gap = gap
            if gap < -1e-12:
                witness = (tup, psi)
    return AdmissibilityCheck(holds=witness is None, worst_gap=worst_gap, witness=witness)


def _outcome(check, *args, **kwargs):
    """(holds, worst_gap bits, witness), or (error class, message)."""
    try:
        res = check(*args, **kwargs)
    except Exception as exc:  # noqa: BLE001  (the error itself is compared)
        return type(exc), str(exc)
    return res.holds, float(res.worst_gap).hex(), res.witness


# Randomized response at eps = 1.5 against 1-DP and 0.5-zCDP similarities:
# some instances hold and some are refuted.
_BATTERY_MECHANISMS = {
    **{f"rr-{n}": (lambda n=n: rr_kernel(1.5, n)) for n in (1, 2, 3)},
    **{f"rr-sum-{n}": (lambda n=n: rr_sum_kernel(1.5, n)) for n in (1, 2, 3)},
    **{f"identity-{q}-{n}": (lambda q=q, n=n: identity_kernel(q, n)) for q in (2, 3) for n in (1, 2, 3)},
}


@pytest.mark.parametrize("name", sorted(_BATTERY_MECHANISMS))
def test_vectorized_admissibility_matches_the_per_tuple_loop(name):
    mech = _BATTERY_MECHANISMS[name]()
    constraints = [
        PrivacyConstraint.pure(1.0),
        PrivacyConstraint.approx(1.0, 1e-3),
        PrivacyConstraint.approx(1.0, 0.2),
        PrivacyConstraint.zcdp(0.5),
    ]
    verdicts = set()
    for c, N in itertools.product(constraints, (2, 3, 4)):
        for kind, j in [("global_anchor", 0), ("projection_anchor", 0), ("projection_anchor", N - 1),
                        ("lecam_match", 0), ("pairwise_anchor", 0), ("fano_match", 0)]:
            expected = _outcome(_admissibility_loop, mech, c, kind, N, j=j)
            assert _outcome(verify_admissibility, mech, c, kind, N, j=j) == expected, (c, kind, N, j)
            verdicts.add(expected[0] if isinstance(expected[0], bool) else "error")
    assert verdicts == ({"error"} if mech.n_outputs > 8 else {True, False, "error"})


def test_global_anchor_with_a_custom_anchor_matches_the_per_tuple_loop():
    c = PrivacyConstraint.pure(1.0)

    def first_pair_midpoint(tup):
        return midpoint_anchor(tup[0], tup[1])

    def last(tup):
        return tup[-1]

    for mech in (rr_kernel(1.0, 2), rr_sum_kernel(1.0, 3), identity_kernel(2, 2)):
        for anchors in (first_pair_midpoint, last):
            res = _outcome(verify_admissibility, mech, c, "global_anchor", 3, anchors=anchors)
            assert res == _outcome(_admissibility_loop, mech, c, "global_anchor", 3, anchors=anchors)

    def too_short(tup):
        return _ds(0)

    for check in (verify_admissibility, _admissibility_loop):
        with pytest.raises(LengthMismatch, match="datasets of length 2 and 1"):
            check(rr_kernel(1.0, 2), c, "global_anchor", 3, anchors=too_short)


def test_a_kind_the_constraint_does_not_admit_is_refused_before_any_anchor_is_read():
    def anchors(tup):
        raise AssertionError("the anchor callback ran")

    with pytest.raises(KindConstraintMismatch, match="is not defined under zcdp"):
        verify_admissibility(rr_kernel(1.0, 2), PrivacyConstraint.zcdp(0.25), "global_anchor", 3, anchors=anchors)
    with pytest.raises(KindConstraintMismatch, match="is not defined under zcdp"):
        verify_admissibility(rr_kernel(1.0, 2), PrivacyConstraint.zcdp(0.25), "global_anchor", 3)


@pytest.mark.parametrize("j", [-1, 3])
def test_projection_anchor_index_out_of_range_is_one_error(j):
    mech, c = rr_kernel(1.0, 2), PrivacyConstraint.pure(1.0)
    tup = tuple(mech.datasets()[:3])
    with pytest.raises(DomainError) as scalar:
        similarity(c, "projection_anchor", tup, j=j)
    with pytest.raises(DomainError) as vectorized:
        verify_mod._similarities(mech, c, "projection_anchor", np.array([[0, 1, 2]]), j=j)
    assert str(scalar.value) == str(vectorized.value) == "projection_anchor needs an index j in [0, N)"


def test_admissibility_with_more_hypotheses_than_array_dimensions_matches_the_per_tuple_loop():
    # One dataset and N = 100: the single tuple has 100 entries, and
    # projection_anchor reads its N distances to x_j, not all N(N-1)/2 pairs.
    mech, c = identity_kernel(1, 1), PrivacyConstraint.pure(1.0)
    for j in (0, 99):
        res = _outcome(verify_admissibility, mech, c, "projection_anchor", 100, j=j)
        assert res == _outcome(_admissibility_loop, mech, c, "projection_anchor", 100, j=j)
        assert res[0] is True


def _similarity_reference(c, kind, tup, anchor=None):
    """Each kind's formula as one scalar expression per tuple, with the terms
    of a sum over dataset pairs added in ordered-pair order."""
    N = len(tup)
    pairs = [hamming(tup[i], tup[k]) for i, k in itertools.permutations(range(N), 2)]
    if c.kind == "zcdp":
        if kind == "lecam_match":
            return 0.5 * (1.0 - math.sqrt(c.rho / 2.0) * pairs[0])
        return 1.0 - (1.0 + (c.rho / N**2) * sum(h**2 for h in pairs)) / math.log(N)
    eps, delta = c.eps_delta()
    if kind in ("global_anchor", "projection_anchor"):
        hmax = max(hamming(x, anchor) for x in tup)
        return (N - 1) / N * math.exp(-eps * hmax) - math.exp(-eps) * delta * hmax
    if kind == "lecam_match":
        half = (pairs[0] + 1) // 2
        return 0.5 * math.exp(-eps * half) - math.exp(-eps) * delta * half
    if kind == "pairwise_anchor":
        total = 0.0
        for half in ((h + 1) // 2 for h in pairs):
            total += math.exp(-eps * half) - 2.0 * math.exp(-eps) * delta * half
        return total / (2 * N * (N - 1))
    return 1.0 - (1.0 + (eps / N**2) * sum(pairs)) / math.log(N)


@pytest.mark.parametrize("alphabet_size, n", [(2, 3), (3, 2)])
def test_similarities_keep_the_bits_of_the_scalar_formulas(alphabet_size, n):
    mech = identity_kernel(alphabet_size, n)
    datasets = mech.datasets()
    rng = derived_rng(509)
    # At eps = 0.01 a SIMD np.exp(-0.01) can differ from math.exp in the last bit.
    cases = [(PrivacyConstraint.pure(0.01), kind) for kind in
             ("global_anchor", "projection_anchor", "lecam_match", "pairwise_anchor", "fano_match")]
    cases += [(PrivacyConstraint.approx(1.3, 0.05), kind) for kind in
              ("global_anchor", "projection_anchor", "lecam_match", "pairwise_anchor")]
    cases += [(PrivacyConstraint.zcdp(0.3), "lecam_match"), (PrivacyConstraint.zcdp(0.3), "fano_match")]
    for c, kind in cases:
        for N in (2,) if kind in ("lecam_match", "global_anchor") else (2, 3, 5, 8):
            idx = rng.integers(0, mech.n_datasets, size=(200, N))
            values = verify_mod._similarities(mech, c, kind, idx)
            for value, row in zip(values.tolist(), idx.tolist()):
                tup = tuple(datasets[i] for i in row)
                anchor = midpoint_anchor(*tup) if kind == "global_anchor" else tup[0]
                expected = _similarity_reference(c, kind, tup, anchor)
                assert value == expected, (c, kind, row)
                assert similarity(c, kind, tup, anchor=anchor, j=0) == expected


def test_pairwise_anchor_at_200_datasets_keeps_the_bits_of_the_ordered_pair_loop():
    # 39 800 ordered pairs summed one after another, as the scalar formula does.
    mech = identity_kernel(2, 3)
    datasets = mech.datasets()
    idx = derived_rng(510).integers(0, mech.n_datasets, size=(3, 200))
    for c in (PrivacyConstraint.pure(0.01), PrivacyConstraint.approx(1.3, 0.05)):
        values = verify_mod._similarities(mech, c, "pairwise_anchor", idx)
        for value, row in zip(values.tolist(), idx.tolist()):
            tup = tuple(datasets[i] for i in row)
            expected = _similarity_reference(c, "pairwise_anchor", tup)
            assert value == similarity(c, "pairwise_anchor", tup) == expected


def test_pairwise_anchor_on_one_tuple_of_1000_datasets_keeps_the_bits_of_the_ordered_pair_loop():
    # One tuple: its 999 000 ordered-pair terms form a single column, which a
    # plain numpy reduction would sum pairwise.
    mech = identity_kernel(2, 3)
    datasets = mech.datasets()
    idx = derived_rng(511).integers(0, mech.n_datasets, size=(1, 1000))
    tup = tuple(datasets[i] for i in idx[0])
    c = PrivacyConstraint.approx(1.3, 0.05)
    value = verify_mod._similarities(mech, c, "pairwise_anchor", idx)[0]
    assert value == _similarity_reference(c, "pairwise_anchor", tup)


def test_transport_similarities_match_a_loop_over_the_joint_atoms():
    mech = rr_kernel(1.0, 3)
    rng = derived_rng(507)
    combos = rng.integers(0, mech.n_datasets, size=(300, 3))
    datasets = mech.datasets()
    for c, kind in [(PrivacyConstraint.approx(1.0, 0.01), "pairwise_anchor"),
                    (PrivacyConstraint.pure(1.0), "projection_anchor"),
                    (PrivacyConstraint.zcdp(0.5), "fano_match")]:
        values = verify_mod._similarities(mech, c, kind, combos)
        for row, indices in zip(values, combos):
            tup = tuple(datasets[i] for i in indices)
            assert row == similarity(c, kind, tup, j=0 if kind == "projection_anchor" else None)


# ------------------------------------------- transport LPs against references


def _deterministic_min_max_error(pushforwards):
    """min over the N^k deterministic test maps of max_i P(psi != i)."""
    N, k = pushforwards.shape
    best = math.inf
    for psi in itertools.product(range(N), repeat=k):
        worst = 0.0
        for i in range(N):
            correct = sum(pushforwards[i, o] for o, label in enumerate(psi) if label == i)
            worst = max(worst, 1.0 - correct)
        best = min(best, worst)
    return best


def _linprog_min_max_error(pushforwards):
    """The randomized min-max error LP in inequality form, solved by scipy."""
    N, k = pushforwards.shape
    cost = np.zeros(N * k + 1)
    cost[-1] = 1.0
    A_ub = np.zeros((N, N * k + 1))
    for i in range(N):
        A_ub[i, i * k : (i + 1) * k] = -pushforwards[i]
        A_ub[i, -1] = -1.0
    A_eq = np.zeros((k, N * k + 1))
    for i in range(N):
        A_eq[:, i * k : (i + 1) * k] = np.eye(k)
    res = linprog(cost, A_ub=A_ub, b_ub=-np.ones(N), A_eq=A_eq, b_eq=np.ones(k),
                  bounds=(0, None), method="highs")
    assert res.status == 0
    return float(res.fun)


def _similarity_at(mech, c, kind, combo):
    tup = tuple(mech.datasets()[i] for i in combo)
    anchor = midpoint_anchor(*tup) if kind == "global_anchor" else None
    return similarity(c, kind, tup, anchor=anchor, j=0 if kind == "projection_anchor" else None)


def _linprog_transport_max(mech, c, kind, marginals):
    combos, A_eq, b_eq = coupling_polytope_oracle(marginals)
    values = np.array([_similarity_at(mech, c, kind, combo) for combo in combos])
    res = linprog(-values, A_eq=A_eq, b_eq=b_eq, bounds=(0, None), method="highs")
    assert res.status == 0
    return -float(res.fun)


def _random_marginals(rng, n_datasets, N):
    marginals = []
    for _ in range(N):
        size = int(rng.integers(1, min(n_datasets, 3) + 1))
        atoms = tuple(int(a) for a in rng.choice(n_datasets, size=size, replace=False))
        marginals.append(DiscreteDistribution(atoms, rng.dirichlet(np.ones(size))))
    return tuple(marginals)


def _pushforwards(mech, marginals):
    return np.stack([
        sum(dist.prob(i) * mech.kernel[i] for i in range(mech.n_datasets)) for dist in marginals
    ])


def test_min_max_error_lp_matches_scipy_and_the_test_map_enumeration():
    rng = derived_rng(601)
    strict = 0
    for _ in range(60):
        mech = _random_mechanism(rng)
        N = int(rng.integers(2, 4)) if mech.n_outputs <= 6 else 2
        pushforwards = _pushforwards(mech, _random_marginals(rng, mech.n_datasets, N))
        value = verify_mod._min_max_error(pushforwards)
        assert value == pytest.approx(_linprog_min_max_error(pushforwards), abs=1e-9)
        deterministic = _deterministic_min_max_error(pushforwards)
        assert deterministic >= value - 1e-12
        strict += deterministic > value + 1e-9
    assert strict >= 30


def test_transport_max_matches_scipy():
    rng = derived_rng(602)
    for _ in range(40):
        mech = (rr_kernel(LN3, 2), rr_sum_kernel(LN3, 3))[int(rng.integers(0, 2))]
        c = (PrivacyConstraint.pure(LN3), PrivacyConstraint.approx(LN3, 0.05),
             PrivacyConstraint.zcdp(0.6))[int(rng.integers(0, 3))]
        kinds = ["lecam_match"] if c.kind == "zcdp" else ["lecam_match", "global_anchor", "pairwise_anchor"]
        kind = kinds[int(rng.integers(0, len(kinds)))]
        marginals = _random_marginals(rng, mech.n_datasets, 2)
        value = verify_mod._max_expected_similarity(mech, c, kind, marginals)
        assert value == pytest.approx(_linprog_transport_max(mech, c, kind, marginals), abs=1e-9)


def test_independent_and_races_couplings_lie_below_the_transport_max():
    rng = derived_rng(603)
    mech = rr_kernel(LN3, 2)
    for c, kind in ((PrivacyConstraint.pure(LN3), "lecam_match"),
                    (PrivacyConstraint.approx(LN3, 0.05), "pairwise_anchor"),
                    (PrivacyConstraint.zcdp(0.6), "lecam_match")):
        marginals = _random_marginals(rng, mech.n_datasets, 2)
        best = verify_mod._max_expected_similarity(mech, c, kind, marginals)
        (a_atoms, a_w), (b_atoms, b_w) = (m.support() for m in marginals)
        independent = sum(
            wa * wb * _similarity_at(mech, c, kind, (a, b))
            for a, wa in zip(a_atoms, a_w) for b, wb in zip(b_atoms, b_w)
        )
        assert independent <= best + 1e-12
        draws = exponential_races(marginals).sample(2000, seed=0)
        values = np.array([_similarity_at(mech, c, kind, tuple(row)) for row in draws])
        stderr = float(values.std()) / math.sqrt(values.shape[0])
        assert float(values.mean()) - 3.0 * stderr <= best + 1e-12


def test_constant_output_mechanism_separates_randomized_from_deterministic_tests():
    mech = FiniteMechanism(alphabet_size=2, n=1, outputs=(0, 1), kernel=np.array([[1.0, 0.0], [1.0, 0.0]]))
    pushforwards = _pushforwards(mech, (_point_mass(0), _point_mass(1)))
    assert _deterministic_min_max_error(pushforwards) == 1.0
    assert verify_mod._min_max_error(pushforwards) == pytest.approx(0.5, abs=1e-15)
    assert verify_transport_bound(mech, PrivacyConstraint.none(), "lecam_match",
                                  (_point_mass(0), _point_mass(1)))


def test_identity_with_mixed_marginals_is_refuted_by_the_exact_check():
    argv = ["verify", "transport", "--mechanism", "identity", "--n", "2", "--kind", "lecam_match",
            "--marginals", "0:0.7,1:0.3;1:0.4,2:0.6", "--eps", "1.5"]
    assert cli.main(argv) == 1
    argv[3] = "rr"
    assert cli.main(argv) == 0


def test_transport_coupling_cap():
    # rr-sum on 5 bits: 32 datasets, 6 outputs, within the verifier caps.
    mech = rr_sum_kernel(LN3, 5)
    sizes = (15, 23, 29)  # 10005 joint atoms, just over the cap
    assert math.prod(sizes) == couplings_mod._LP_CAP + 5
    uniform = tuple(DiscreteDistribution(tuple(range(s)), np.full(s, 1.0 / s)) for s in sizes)
    with pytest.raises(TooLarge):
        verify_transport_bound(mech, PrivacyConstraint.pure(LN3), "pairwise_anchor", uniform)
    at_cap = tuple(DiscreteDistribution(tuple(range(s)), np.full(s, 1.0 / s)) for s in (16, 25, 25))
    combos, A, b = couplings_mod._coupling_polytope(at_cap)
    assert combos.shape == (couplings_mod._LP_CAP, 3) and A.shape == (66, couplings_mod._LP_CAP)
    assert np.allclose(A @ np.full(combos.shape[0], 1e-4), b, atol=1e-15)


# ------------------------------------------------- zCDP between grid points


# One-bit mechanism whose sup_alpha D_alpha / alpha = 1.30998 sits at
# alpha ~ 2.626, between grid points 2 and 4; the grid alone passes rho = 1.3.
_ZCDP_GAP = np.array([[0.006185, 0.03024, 0.963575], [0.012299, 0.000113, 0.987588]])


def test_zcdp_is_certified_between_grid_points():
    mech = FiniteMechanism(alphabet_size=2, n=1, outputs=(0, 1, 2), kernel=_ZCDP_GAP)
    p, q = _ZCDP_GAP
    for rho in (1.2, 1.3):
        res = verify_privacy(mech, PrivacyConstraint.zcdp(rho))
        assert not res.holds
        alpha = res.witness[2]
        assert 2.0 < alpha < 4.0
        assert divergences_mod._renyi_weights(p, q, alpha) > rho * alpha
    assert verify_privacy(mech, PrivacyConstraint.zcdp(1.31)).holds


def _zcdp_pair_holds(p, q, rho):
    """verify's zCDP bisection on one pair of weight rows."""
    return verify_mod._zcdp_pair_holds(p, divergences_mod._privacy_loss(p, q), rho)


def test_zcdp_open_interval_after_the_bisection_cap_is_not_certified(monkeypatch):
    p, q = _ZCDP_GAP
    monkeypatch.setattr(verify_mod, "_ALPHA_BISECTIONS", 3)
    witness = _zcdp_pair_holds(p, q, 1.31)
    a, b = witness
    assert 2.0 <= a < b <= 4.0


@pytest.mark.parametrize("eps", [0.05, 0.1, 0.12])
def test_zcdp_beyond_the_bisected_range_is_certified_from_the_max_log_ratio(eps, capsys):
    # Randomized response is eps^2/2-zCDP with D_infinity = eps, so the
    # bisected range [1, 1 + eps / rho] reaches past alpha = 16 for eps < 1/8,
    # and D_alpha <= eps <= rho alpha certifies every alpha beyond it.
    rho = eps**2 / 2.0
    assert verify_privacy(rr_kernel(eps, 1), PrivacyConstraint.zcdp(rho)).holds
    argv = ["verify", "privacy", "--mechanism", "rr", "--eps", repr(eps), "--rho", repr(rho)]
    assert cli.main(argv) == 0
    assert "all checks hold" in capsys.readouterr().out
    # An infinite D_infinity fails at alpha = 2 before any bisection.
    res = verify_privacy(identity_kernel(2, 1), PrivacyConstraint.zcdp(0.5))
    assert res.witness[2] == 2.0


def test_zcdp_certificates_hold_on_a_dense_alpha_scan():
    rng = derived_rng(604)
    alphas = np.concatenate([1.0 + np.geomspace(1e-6, 1.0, 400), np.linspace(2.0, 16.0, 2000)])
    certified = refuted = 0
    for _ in range(60):
        p, q = rng.dirichlet(np.ones(3), size=2)
        sums = np.sum(p[:, None] ** alphas * q[:, None] ** (1.0 - alphas), axis=0)
        sup = float(np.max(np.log(sums) / (alphas - 1.0) / alphas))
        rho = sup * float(rng.uniform(0.9, 1.1))
        witness = _zcdp_pair_holds(p, q, rho)
        if witness is None:
            certified += 1
            assert sup <= rho + 1e-12
        elif isinstance(witness, float) and math.isfinite(witness):
            refuted += 1
            assert divergences_mod._renyi_weights(p, q, witness) > rho * witness
    assert certified >= 10 and refuted >= 10


# --------------------------------------------------------------- large eps


def _dp_pair_holds(p, q, eps, delta):
    """The worst (eps, delta)-DP event from row p to row q as an output mask,
    or None when the pair passes; verify_privacy checks (p, q) first."""
    mech = FiniteMechanism(alphabet_size=2, n=1, outputs=tuple(range(len(p))), kernel=np.stack([p, q]))
    res = verify_privacy(mech, PrivacyConstraint.approx(eps, delta))
    if res.holds or res.witness[0] != _ds(0):
        return None
    return np.isin(mech.outputs, res.witness[2])


def test_verifiers_at_large_eps_report_instead_of_overflowing(capsys):
    p = np.array([0.5, 0.5, 0.0])
    q = np.array([0.0, 0.5, 0.5])
    assert _dp_pair_holds(p, q, 800.0, 0.0).tolist() == [True, False, False]
    assert _dp_pair_holds(p, p, 800.0, 0.0) is None
    for sub in ("privacy", "group", "suite"):
        for extra in ([], ["--delta", "0.01"]):
            rc = cli.main(["verify", sub, "--mechanism", "rr", "--n", "2", "--eps", "800"] + extra)
            assert rc in (0, 1)
            assert capsys.readouterr().out.rstrip().endswith(("all checks hold", "violations found"))


@pytest.mark.parametrize("eps", [710.0, 720.0, 745.0])
def test_randomized_response_with_a_subnormal_flip_chance_is_certified(eps, capsys):
    # flip = e^-eps / (1 + e^-eps) is subnormal here, so keep / flip
    # overflows, while ln keep - ln flip is about eps.
    mech = rr_kernel(eps, 1)
    keep, flip = mech.kernel[0]
    assert keep == 1.0 and 0.0 < flip < np.finfo(float).tiny
    value = divergences_mod.kl(*(DiscreteDistribution.from_weights(row) for row in mech.kernel))
    assert eps - 1.0 < value <= eps + 1e-10
    assert verify_kl_dp(mech, eps)
    assert verify_privacy(mech, PrivacyConstraint.zcdp(eps**2 / 2.0)).holds
    # The subnormal flip is rounded: ln keep - ln flip - eps is +2.96e-12 at
    # eps = 720, above the 1e-12 tolerance of the pure DP check.
    assert verify_privacy(mech, PrivacyConstraint.pure(eps)).holds == (eps != 720.0)
    for extra in (["kldp"], ["privacy", "--rho", repr(eps**2 / 2.0)]):
        assert cli.main(["verify", extra[0], "--mechanism", "rr", "--n", "1", "--eps", repr(eps), *extra[1:]]) == 0
        assert capsys.readouterr().out.rstrip().endswith("all checks hold")


def test_randomized_response_whose_flip_chance_underflows_is_refuted(capsys):
    mech = rr_kernel(746.0, 1)
    assert mech.kernel.tolist() == [[1.0, 0.0], [0.0, 1.0]]
    assert math.isinf(divergences_mod.kl(*(DiscreteDistribution.from_weights(row) for row in mech.kernel)))
    assert not verify_kl_dp(mech, 746.0)
    assert not verify_privacy(mech, PrivacyConstraint.zcdp(746.0**2 / 2.0)).holds
    for extra in (["kldp"], ["privacy", "--rho", repr(746.0**2 / 2.0)]):
        assert cli.main(["verify", extra[0], "--mechanism", "rr", "--n", "1", "--eps", "746.0", *extra[1:]]) == 1
        assert capsys.readouterr().out.rstrip().endswith("violations found")


def test_log_ratio_keeps_every_finite_ratio_and_mends_an_overflowing_one():
    rng = derived_rng(509)
    p, q = rng.random(1000), rng.random(1000) ** 8
    assert np.array_equal(divergences_mod._privacy_loss(p, q), np.log(p / q))
    tiny = np.array([5e-324, 4.47e-309, 1e-300])
    ratio = divergences_mod._privacy_loss(np.ones(3), tiny)
    assert ratio[:2].tolist() == (-np.log(tiny[:2])).tolist()
    assert ratio[2] == np.log(1e300)
    # Zero weights, on a table of rows: p > 0 = q gives +inf, p = 0 gives -inf.
    loss = divergences_mod._privacy_loss(np.array([[0.5, 0.5, 0.0, 0.0]] * 2), np.array([[0.0, 0.5, 0.5, 0.0]] * 2))
    assert loss.tolist() == [[math.inf, 0.0, -math.inf, -math.inf]] * 2


@pytest.mark.parametrize("eps", [709.0, 710.0, 740.0])
def test_pure_dp_against_a_subnormal_weight_is_refuted_past_the_overflow_of_e_to_the_eps(eps):
    # ln(0.5 / 5e-324) is about 743.7, so the event {1} has excess about 0.5
    # under every eps here; above 709.78 e^eps overflows, and e^eps q with it.
    mech = FiniteMechanism(alphabet_size=2, n=1, outputs=(0, 1), kernel=[[0.5, 0.5], [1 - 5e-324, 5e-324]])
    res = verify_privacy(mech, PrivacyConstraint.pure(eps))
    assert not res.holds
    assert res.witness == (_ds(0), _ds(1), (1,))
    assert verify_group_privacy(mech, PrivacyConstraint.pure(eps)) is False


def test_witnesses_keep_python_types(tmp_path, capsys):
    eps = math.log(2.0)
    res = verify_privacy(rr_kernel(eps, 2), PrivacyConstraint.zcdp(eps * eps / 8))
    assert not res.holds and type(res.witness[2]) is float
    mech = FiniteMechanism(alphabet_size=2, n=1, outputs=("a", "b", "c"), kernel=[[0.5, 0.5, 0.0], [0.0, 0.5, 0.5]])
    res = verify_privacy(mech, PrivacyConstraint.pure(1.0))
    assert res.witness[2] == ("a",)
    out = tmp_path / "report.json"
    argv = ["verify", "privacy", "--mechanism", "rr", "--n", "2", "--eps", repr(eps), "--rho", repr(eps * eps / 8)]
    assert cli.main(argv + ["--out", str(out)]) == 1
    detail = capsys.readouterr().out.splitlines()[0].split("witness=")[1]
    assert "np.float64(" not in detail and detail in out.read_text()


# --------------------------------------------- zCDP from the convexity of K


def _scan_cgf(p, q, s):
    """K(s) = ln sum_o p_o e^(s ln(p_o/q_o)) on an array of s > 0, by a
    max-shifted log-sum-exp; its rounding is about 1e-16 (1 + |K|)."""
    logp = np.log(p)
    x = logp + np.multiply.outer(s, logp - np.log(q))
    top = x.max(axis=1)
    return top + np.log(np.exp(x - top[:, None]).sum(axis=1))


def _scan_sup(p, q, s):
    """max over the scan of D_alpha / alpha = K(s) / (s (s + 1))."""
    return float(np.max(_scan_cgf(p, q, s) / (s * (s + 1.0))))


@pytest.mark.parametrize("eps, rho", [
    (0.001, 0.001**2 / 2.0), (0.01, 0.01**2 / 2.0), (0.02, 0.02**2 / 2.0), (0.5, 0.125),
    (50.0, 1250.0), (700.0, 245000.0), (1e-300, 1e-300),
])
def test_randomized_response_is_certified_eps_squared_over_two_zcdp(eps, rho, capsys):
    # eps-DP implies eps^2/2-zCDP (Bun and Steinke 2016).  At eps = 1e-300
    # both rows are (1/2, 1/2), so D_infinity = 0 <= rho.
    assert verify_privacy(rr_kernel(eps, 1), PrivacyConstraint.zcdp(rho)).holds
    argv = ["verify", "privacy", "--mechanism", "rr", "--eps", repr(eps), "--rho", repr(rho)]
    assert cli.main(argv) == 0
    assert "all checks hold" in capsys.readouterr().out


def test_zcdp_certificate_at_large_alpha_forms_no_power_of_p_or_q():
    # top = D_infinity / rho - 1 is about 9855 here, where p^alpha underflows
    # and q^(1 - alpha) overflows.
    p, q = np.array([0.5, 0.5]), np.array([0.5001, 0.4999])
    sup = _scan_sup(p, q, np.geomspace(1e-6, 1e5, 4000))
    assert _zcdp_pair_holds(p, q, 1.01 * sup) is None
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        value = divergences_mod.renyi(
            1e4, DiscreteDistribution.from_weights(p), DiscreteDistribution.from_weights(q),
        )
    assert math.isfinite(value)
    assert value == pytest.approx(float(_scan_cgf(p, q, np.array([1e4 - 1.0]))[0]) / (1e4 - 1.0))


# Close two-point pair whose alpha range runs to 1 + D_infinity / rho ~ 1080.
# It holds at rho = 1.04 sup, but a direct p^alpha q^(1 - alpha) overflows
# near alpha = 1000 and reads D_alpha = inf there.
_ZCDP_NEAR = (np.array([0.49109780236142925, 0.5089021976385707]),
              np.array([0.4901942823059775, 0.5098057176940224]), 1.04)


def test_zcdp_certificates_hold_on_a_log_alpha_scan_to_the_top():
    rng = derived_rng(605)
    pairs = [_ZCDP_NEAR]
    for _ in range(200):
        k = int(rng.integers(2, 6))
        concentration = math.exp(rng.uniform(math.log(0.3), math.log(50.0)))
        p, q = rng.dirichlet(np.full(k, concentration), size=2)
        pairs.append((p, q, float(rng.uniform(0.95, 1.05))))
    certified = refuted = 0
    for p, q, ratio in pairs:
        d_inf = float(np.max(np.log(p / q)))
        # D_alpha / alpha <= D_infinity / alpha, so the sup lies below
        # alpha = D_infinity / sup, and a coarse scan gives sup from below.
        coarse = _scan_sup(p, q, np.geomspace(1e-6, 1e6, 400))
        rho = ratio * _scan_sup(p, q, np.geomspace(1e-6, 2.0 * d_inf / coarse, 2000))
        s = np.geomspace(1e-6, max(d_inf / rho - 1.0, 1.0), 2000)
        k_scan = _scan_cgf(p, q, s)
        witness = _zcdp_pair_holds(p, q, rho)
        if witness is None:
            certified += 1
            allowed = rho * s * (s + 1.0) + verify_mod._DP_TOL * s + 1e-15 * (1.0 + np.abs(k_scan))
            assert np.all(k_scan <= allowed)
        elif isinstance(witness, float):
            refuted += 1
            w = witness - 1.0
            assert float(_scan_cgf(p, q, np.array([w]))[0]) > rho * w * (w + 1.0)
    assert certified >= 40 and refuted >= 40
