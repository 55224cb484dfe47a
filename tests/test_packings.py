"""Tests for binary-code packings and two-point packings."""

import hashlib
import math
import time
import tracemalloc

import numpy as np
import pytest

from dpminimax import (
    Ball,
    BinaryCode,
    BudgetExhausted,
    DomainError,
    OutOfSpace,
    Packing,
    derived_rng,
    packings,
    scale_code,
    two_point,
    varshamov_gilbert,
)


# --------------------------------------------------------- varshamov_gilbert


def test_vg_66_meets_size_and_distance_targets():
    code = varshamov_gilbert(66, 0.25, seed=0)
    assert code.size >= math.ceil(math.exp(0.25**2 * 66 / 2.0))
    assert code.size >= 8
    assert code.min_distance == 17
    assert code.realized_min_distance() >= 17
    assert code.words.shape[1] == 66
    assert np.all((code.words == 0) | (code.words == 1))


def test_vg_is_reproducible_by_seed():
    a = varshamov_gilbert(66, 0.25, seed=3)
    b = varshamov_gilbert(66, 0.25, seed=3)
    c = varshamov_gilbert(66, 0.25, seed=4)
    assert np.array_equal(a.words, b.words)
    assert not np.array_equal(a.words, c.words)


def test_vg_validation():
    with pytest.raises(DomainError):
        varshamov_gilbert(0, 0.25, seed=0)
    with pytest.raises(DomainError):
        varshamov_gilbert(66, 0.0, seed=0)
    with pytest.raises(DomainError):
        varshamov_gilbert(66, 0.5, seed=0)


_VG_WORD_SHA = {
    (66, 0): "c91475526bbf3f0901227845aa4887f35c36ef17556d41e6742b74be37b8d6d2",
    (66, 1): "964aab556e0a567b0955b8e64d4f1af32e686e529b10de61671cef245da7fc7f",
    (66, 2): "bfc7a6b9323014a9cc76b4d510bcd98169ee2574c431ca26b7d26fe48fd5a03d",
    (128, 0): "83d5a68230ae3d5ab1fd29c03c06f43e016ecfa16b305080384346fe0ab43913",
    (128, 1): "e3b18a1a1d0623d8552206c2f4982d00f2c9c176c514d0b509f7a1fd43575872",
    (128, 2): "10737f11df841af1d14abfd585be1b64a56641b6af99400be7261d80378d7a5b",
    (200, 0): "5fec786a46c75ed43e358873020b6308eacfd788c2b6beba5ea2957427d445ef",
    (200, 1): "9a8891f505896fab1c8a3e29780eaf9aa40b6a30e702c12d8eb09e4d98ec1d03",
    (200, 2): "c6fec97b0970c12df98cf2f6c938caff35f1ce1a0ac2c8f9499720baad7a2aa1",
}


@pytest.mark.parametrize("d, seed", sorted(_VG_WORD_SHA))
def test_vg_words_are_pinned(d, seed):
    # Seeded codes are part of the reproducibility contract: the words must
    # not move when the greedy is restructured.
    code = varshamov_gilbert(d, 0.25, seed)
    assert code.size == {66: 8, 128: 55, 200: 519}[d]
    assert hashlib.sha256(code.words.tobytes()).hexdigest() == _VG_WORD_SHA[d, seed]


def _greedy_reference(d, zeta, seed, budget):
    """Restart 0 of the greedy, one candidate at a time, examining exactly
    ``budget`` candidates: (words, candidates examined), words None on failure."""
    target = math.ceil(math.exp(zeta * zeta * d / 2.0))
    required = math.ceil((0.5 - zeta) * d)
    rng = derived_rng(seed, 0)
    kept, drawn = [], 0
    while drawn < budget:
        for row in rng.integers(0, 2, size=(1024, d), dtype=np.int8)[: budget - drawn]:
            drawn += 1
            if all(np.count_nonzero(row != w) >= required for w in kept):
                kept.append(row)
                if len(kept) == target:
                    return np.array(kept), drawn
    return None, drawn


def test_vg_examines_exactly_the_budget(monkeypatch):
    # d = 8, zeta = 0.45: three distinct words.  Candidate 3 repeats an
    # earlier word and is rejected, and candidate 4 completes the code, so a
    # budget of 3 must fail without looking at candidate 4.
    words, drawn = _greedy_reference(8, 0.45, 0, budget=100)
    assert drawn == 4
    monkeypatch.setattr(packings, "_GREEDY_RESTARTS", 1)
    monkeypatch.setattr(packings, "_GREEDY_BUDGET", 4)
    assert np.array_equal(varshamov_gilbert(8, 0.45, 0).words, words)
    monkeypatch.setattr(packings, "_GREEDY_BUDGET", 3)
    assert _greedy_reference(8, 0.45, 0, budget=3)[0] is None
    with pytest.raises(BudgetExhausted, match="3 draws"):
        varshamov_gilbert(8, 0.45, 0)


def test_vg_matches_the_one_candidate_reference():
    for d, zeta, seed in ((20, 0.25, 1), (40, 0.3, 2), (90, 0.2, 0), (128, 0.25, 3)):
        words, _ = _greedy_reference(d, zeta, seed, budget=10**4)
        assert np.array_equal(varshamov_gilbert(d, zeta, seed).words, words)


def test_vg_unreachable_target_raises_at_once():
    # ceil(e^{0.4^2 * 200 / 2}) is about 8.9e6 words, more than one restart may draw.
    start = time.perf_counter()
    with pytest.raises(BudgetExhausted, match="8886111 words at distance 20"):
        varshamov_gilbert(200, 0.4, seed=0)
    with pytest.raises(BudgetExhausted):
        varshamov_gilbert(10**5, 0.4, seed=0)
    assert time.perf_counter() - start < 1.0


def test_hamming_matches_count_nonzero():
    rng = derived_rng(17)
    a = rng.integers(0, 2, size=(70, 33), dtype=np.int8)
    b = rng.integers(0, 2, size=(5, 33), dtype=np.int8)
    expected = np.count_nonzero(a[:, None, :] != b[None, :, :], axis=2)
    dist = packings._hamming(a, b)
    assert dist.dtype == np.float32
    assert np.array_equal(dist, expected)


def test_hamming_products_are_float32_only_where_exact():
    # Below 2**24 bits every Hamming product is an integer float32 holds.
    assert packings._product_dtype(2**24 - 1) is np.float32
    assert packings._product_dtype(2**24) is np.float64


def test_binary_code_validation():
    with pytest.raises(DomainError):
        BinaryCode(d=4, zeta=0.25, min_distance=1, words=np.array([[0, 1, 2, 0]]))
    with pytest.raises(DomainError):
        BinaryCode(d=4, zeta=0.25, min_distance=3,
                   words=np.array([[0, 0, 0, 0], [0, 0, 0, 1]]))
    with pytest.raises(DomainError):
        BinaryCode(d=4, zeta=0.25, min_distance=1, words=np.zeros((0, 4)))


def test_realized_min_distance_matches_bruteforce():
    code = varshamov_gilbert(20, 0.25, seed=1)
    words = code.words.astype(int)
    best = min(
        int(np.count_nonzero(words[i] != words[j]))
        for i in range(code.size)
        for j in range(i + 1, code.size)
    )
    assert code.realized_min_distance() == best


def _min_distance_bruteforce(words):
    return min(
        int(np.count_nonzero(words[i + 1:] != words[i], axis=1).min())
        for i in range(len(words) - 1)
    )


@pytest.mark.parametrize("size", [1, 2, packings._CHECK_BLOCK - 1, packings._CHECK_BLOCK,
                                  packings._CHECK_BLOCK + 1, 519])
def test_realized_min_distance_matches_bruteforce_across_blocks(size):
    # Random words, and the same words with one duplicated as the last word,
    # so that the closest pair straddles the blocks.
    words = derived_rng(41, size).integers(0, 2, size=(size, 40))
    code = BinaryCode(d=40, zeta=0.25, min_distance=0, words=words)
    if size == 1:
        assert code.realized_min_distance() == 0
        return
    assert code.realized_min_distance() == _min_distance_bruteforce(words)
    twin = np.concatenate([words[:-1], words[:1]])
    assert BinaryCode(d=40, zeta=0.25, min_distance=0, words=twin).realized_min_distance() == 0


def test_realized_min_distance_memory_is_bounded_by_a_block():
    # The d = 200 code has 519 words: its full float64 distance matrix alone
    # is 2.2 MB.
    code = varshamov_gilbert(200, 0.25, seed=3)
    assert code.size == 519
    code.realized_min_distance()  # warm caches outside the trace
    tracemalloc.start()
    try:
        best = code.realized_min_distance()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert best == _min_distance_bruteforce(code.words)
    assert peak < 2_000_000


# ----------------------------------------------------------------- scale_code


def test_scale_code_geometry():
    code = varshamov_gilbert(66, 0.25, seed=0)
    alpha = 0.05
    packing = scale_code(code, alpha, np.zeros(66))
    assert packing.size == code.size
    assert packing.metric == "euclidean"
    realized = code.realized_min_distance()
    assert packing.omega == pytest.approx(alpha * math.sqrt(realized) / 2.0, abs=1e-15)
    packing.validate()
    for i in range(packing.size):
        for j in range(i + 1, packing.size):
            sq = packing.distance(i, j) ** 2
            assert alpha**2 * 17 - 1e-9 <= sq <= alpha**2 * 66 + 1e-9


def test_scale_code_respects_space():
    code = varshamov_gilbert(20, 0.25, seed=2)
    ball = Ball(center=(0.0,) * 20, radius=100.0)
    packing = scale_code(code, 0.1, np.zeros(20), space=ball)
    assert packing.size == code.size
    with pytest.raises(OutOfSpace):
        scale_code(code, 0.1, np.zeros(20), space=Ball(center=(0.0,) * 20, radius=0.01))


def test_scale_code_validation():
    code = varshamov_gilbert(20, 0.25, seed=2)
    with pytest.raises(DomainError):
        scale_code(code, -0.1, np.zeros(20))
    with pytest.raises(DomainError):
        scale_code(code, 0.1, np.zeros(19))


# ------------------------------------------------------------------ two_point


def test_two_point_omega_is_half_distance():
    packing = two_point(0.2, 0.8)
    assert packing.omega == pytest.approx(0.3, abs=1e-15)
    assert packing.distance(0, 1) == pytest.approx(0.6, abs=1e-15)
    packing.validate()


def test_two_point_euclidean():
    packing = two_point(np.zeros(3), np.ones(3), metric="euclidean")
    assert packing.omega == pytest.approx(math.sqrt(3.0) / 2.0, abs=1e-12)


def test_two_point_requires_distinct_parameters():
    with pytest.raises(DomainError):
        two_point(0.5, 0.5)


def test_packing_validation():
    with pytest.raises(DomainError):
        Packing(points=(0.0, 1.0), omega=0.1, metric="manhattan")
    with pytest.raises(DomainError):
        Packing(points=(), omega=0.1, metric="abs_diff")
    with pytest.raises(DomainError):
        Packing(points=(0.0,), omega=-0.1, metric="abs_diff")
    bad = Packing(points=(0.0, 0.5), omega=0.3, metric="abs_diff")
    with pytest.raises(DomainError):
        bad.validate()
