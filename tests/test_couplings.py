"""Tests for coupling samplers and the minimum-disagreement LP."""

import hashlib
import math
import os
import threading
import tracemalloc

import numpy as np
import pytest
from scipy.optimize import linprog

from dpminimax import couplings, derived_rng
from dpminimax import (
    DegenerateMarginal,
    DiscreteDistribution,
    DomainError,
    TooLarge,
    estimate_disagreement,
    exact_disagreement,
    exponential_races,
    maximal_pair,
    min_disagreement_lp,
    product_lift,
    shared_uniform_bernoulli,
    tv,
)
from conftest import assert_no_child_left, coupling_polytope_oracle, empirical_marginal_l1, random_distribution

TRIALS = 20_000


def example2_marginals():
    half = np.array([0.5, 0.5])
    return [
        DiscreteDistribution((-1, 0), half),
        DiscreteDistribution((0, 1), half),
        DiscreteDistribution((1, -1), half),
    ]


def linprog_min_disagreement(marginals):
    """Independent LP oracle on the coupling polytope via scipy."""
    combos, A_eq, b_eq = coupling_polytope_oracle(marginals)
    N = len(marginals)
    cost = [
        sum(1.0 for i in range(N) for j in range(i + 1, N) if combo[i] != combo[j])
        for combo in combos
    ]
    res = linprog(cost, A_eq=A_eq, b_eq=b_eq, bounds=(0, None), method="highs")
    assert res.status == 0
    return float(res.fun)


# ------------------------------------------------------------ maximal pair


def test_maximal_pair_marginals_and_disagreement():
    rng = np.random.default_rng(101)
    for case in range(10):
        p = random_distribution(rng)
        q = random_distribution(rng)
        sampler = maximal_pair(p, q)
        draws = sampler.sample(TRIALS, seed=case)
        assert draws.shape == (TRIALS, 2)
        assert empirical_marginal_l1(draws[:, 0], p) <= 0.02
        assert empirical_marginal_l1(draws[:, 1], q) <= 0.02
        matrix = estimate_disagreement(sampler, TRIALS, seed=case)
        gap = abs(matrix.estimates[0, 1] - tv(p, q))
        assert gap <= 4.0 * max(matrix.stderr[0, 1], 1e-4)


def test_maximal_pair_identical_marginals_never_disagree():
    p = DiscreteDistribution.from_weights([0.3, 0.7])
    draws = maximal_pair(p, p).sample(5_000, seed=0)
    assert np.all(draws[:, 0] == draws[:, 1])


def test_maximal_pair_disjoint_supports_always_disagree():
    p = DiscreteDistribution((0, 1), np.array([0.5, 0.5]))
    q = DiscreteDistribution((2, 3), np.array([0.4, 0.6]))
    draws = maximal_pair(p, q).sample(5_000, seed=1)
    assert np.all(draws[:, 0] != draws[:, 1])
    assert empirical_marginal_l1(draws[:, 1], q) <= 0.03


_THIRDS = [0.3333333333333333, 0.3333333333333333, 0.3333333333333334]


@pytest.mark.parametrize(
    "p, q, seed, expected",
    [
        (
            DiscreteDistribution.from_weights([0.2, 0.5, 0.3]),
            DiscreteDistribution.from_weights([0.4, 0.1, 0.5]),
            4,
            [[1, 1, 2, 0, 1, 2, 1, 1, 0, 1, 2, 0, 2, 1, 1, 2],
             [2, 0, 2, 0, 2, 2, 1, 1, 0, 2, 2, 0, 2, 2, 0, 2]],
        ),
        (
            DiscreteDistribution((0, 1), np.array([0.5, 0.5])),
            DiscreteDistribution((2, 3), np.array([0.25, 0.75])),
            12,
            [[1, 1, 0, 0, 1, 1, 1, 0, 0, 0, 0, 0, 0, 0, 1, 0],
             [2, 3, 2, 2, 2, 3, 2, 3, 2, 3, 3, 3, 3, 3, 3, 3]],
        ),
        (
            DiscreteDistribution.from_weights(_THIRDS),
            DiscreteDistribution.from_weights(_THIRDS[::-1]),
            13,
            [[2, 2, 2, 0, 0, 2, 0, 1, 1, 0, 0, 1, 0, 1, 1, 0],
             [2, 2, 2, 0, 0, 2, 0, 1, 1, 0, 0, 1, 0, 1, 1, 0]],
        ),
    ],
    ids=["generic", "disjoint", "rounding_equal"],
)
def test_maximal_pair_draws_are_pinned(p, q, seed, expected):
    # Seeded draws are part of the reproducibility contract: these arrays
    # must not move when the sampler is restructured.
    draws = maximal_pair(p, q).sample(16, seed=seed)
    assert draws.dtype == np.int64
    assert np.array_equal(draws.T, expected)


_PAIR_EDGE_CASES = {
    # tv = 0: agree_prob is 1.0 and both residuals are empty.
    "identical": (DiscreteDistribution.from_weights([0.3, 0.7]),) * 2,
    # tv = 1.1e-16, at most 1e-15: treated as equal, every draw agrees.
    "rounding_equal": (DiscreteDistribution.from_weights(_THIRDS), DiscreteDistribution.from_weights(_THIRDS[::-1])),
    # tv = 1: no common atom, and every draw disagrees.
    "disjoint": (DiscreteDistribution((0, 1), np.array([0.5, 0.5])), DiscreteDistribution((2, 3), np.array([0.4, 0.6]))),
}


@pytest.mark.parametrize(
    "case, seed, sha, disagreement",
    [
        ("identical", 8, "c9850833b089e9d91f3f54240df1bf67674b502848d91c287b32fd77bd40fa7f", 0.0),
        ("identical", 2**31 - 1, "c8a61e77fd072ab0060dd80317562ccecfe034813e934acf7473c80a477bab0d", 0.0),
        ("rounding_equal", 8, "1cd2868f9e887a5ee17b0c912fbb6c93d88f646c3313a61928a5549a089b0be6", 0.0),
        ("rounding_equal", 2**31 - 1, "cbd099068ace7e40f68d333281c8333badd5202c5f94ce493bfd4b57d99feefe", 0.0),
        ("disjoint", 8, "0c449caa8595eaa5cd1b8c5b81b483e8ef1f08c4e686535002d13bed11529215", 1.0),
        ("disjoint", 2**31 - 1, "db348122a327b9b7aa6efe290410bc640f4af2de6d5b76a9ae974d55931cc830", 1.0),
    ],
)
def test_maximal_pair_edge_case_draws_are_pinned(case, seed, sha, disagreement):
    # Several chunks of draws where the kernel has an empty part; the
    # digests must not move when the kernel changes.
    sampler = maximal_pair(*_PAIR_EDGE_CASES[case])
    trials = 2 * 16_384 + 7
    draws = sampler.sample(trials, seed)
    assert draws.shape == (trials, 2) and draws.dtype == np.int64
    assert hashlib.sha256(draws.tobytes()).hexdigest() == sha
    assert estimate_disagreement(sampler, trials, seed).estimates[0, 1] == disagreement


# ------------------------------------------------------------ shared uniform


def test_shared_uniform_pairwise_disagreement_is_parameter_gap():
    ps = (0.2, 0.5, 0.9)
    expected = {(0, 1): 0.3, (0, 2): 0.7, (1, 2): 0.4}
    sampler = shared_uniform_bernoulli(ps)
    matrix = estimate_disagreement(sampler, TRIALS, seed=7)
    for (i, j), gap in expected.items():
        tol = 4.0 * max(matrix.stderr[i, j], 1e-4)
        assert abs(matrix.estimates[i, j] - gap) <= tol


def test_shared_uniform_marginals():
    ps = (0.2, 0.5, 0.9)
    sampler = shared_uniform_bernoulli(ps)
    draws = sampler.sample(TRIALS, seed=3)
    for i, p in enumerate(ps):
        freq = float(draws[:, i].mean())
        assert abs(freq - p) <= 4.0 * math.sqrt(p * (1 - p) / TRIALS)


def test_shared_uniform_validation():
    with pytest.raises(DomainError):
        shared_uniform_bernoulli([0.5])
    with pytest.raises(DegenerateMarginal):
        shared_uniform_bernoulli([0.5, 1.2])


# ------------------------------------------------------- exponential races


def test_races_marginals_are_exact():
    rng = np.random.default_rng(103)
    for case in range(8):
        marginals = [random_distribution(rng) for _ in range(3)]
        draws = exponential_races(marginals).sample(TRIALS, seed=case)
        for i, m in enumerate(marginals):
            assert empirical_marginal_l1(draws[:, i], m) <= 0.025


def test_races_disagreement_within_bound():
    rng = np.random.default_rng(107)
    for case in range(8):
        marginals = [random_distribution(rng) for _ in range(3)]
        sampler = exponential_races(marginals)
        matrix = estimate_disagreement(sampler, TRIALS, seed=100 + case)
        for i in range(3):
            for j in range(i + 1, 3):
                t = tv(marginals[i], marginals[j])
                bound = 2.0 * t / (1.0 + t)
                assert matrix.estimates[i, j] <= bound + 3.0 * matrix.stderr[i, j] + 1e-9


# p and r each give zero probability to an atom of the shared universe {0, 1, 2}.
_RACE_MARGINALS = (
    DiscreteDistribution.from_weights([0.5, 0.0, 0.5]),
    DiscreteDistribution.from_weights([0.2, 0.3, 0.5]),
    DiscreteDistribution((1, 2, 3), np.array([0.6, 0.4, 0.0])),
)


@pytest.mark.parametrize(
    "seed, races_sha, lift_sha, races_counts, lift_counts",
    [
        (
            5,
            "958fa985dd9b8a4cf7576d6fe3f5961a9c4a61253fa5be8d2d78faf7f36bd1ea",
            "e4e2aa1aa72d477e9e38ac37ccf837e81c56db002b22fc6834d5bf75bacf787c",
            [[0, 8320, 14371], [8320, 0, 7139], [14371, 7139, 0]],
            [[0, 4431, 4969], [4431, 0, 4126], [4969, 4126, 0]],
        ),
        (
            2**31 - 1,
            "2060790140f0dc808d17716ac0f6b0a8b4ec475056db690a87baa795dc25669d",
            "59ea9195e7a25634678b7b44ac01a285e499076914055d71a61a13b7d798be39",
            [[0, 8271, 14317], [8271, 0, 7220], [14317, 7220, 0]],
            [[0, 4404, 4968], [4404, 0, 4125], [4968, 4125, 0]],
        ),
    ],
)
def test_race_and_lift_draws_are_pinned(seed, races_sha, lift_sha, races_counts, lift_counts):
    # 20 000 race draws and 5 000 lifts of 4 span several kernel chunks; the
    # digests and disagreement counts must not move when the kernel changes.
    races = exponential_races(_RACE_MARGINALS)
    lift = product_lift(races, 4)
    draws = races.sample(20_000, seed)
    assert draws.shape == (20_000, 3) and draws.dtype == np.int64
    assert hashlib.sha256(draws.tobytes()).hexdigest() == races_sha
    lifted = lift.sample(5_000, seed)
    assert lifted.shape == (5_000, 3, 4) and lifted.dtype == np.int64
    assert hashlib.sha256(lifted.tobytes()).hexdigest() == lift_sha
    for sampler, trials, counts in ((races, 20_000, races_counts), (lift, 5_000, lift_counts)):
        matrix = estimate_disagreement(sampler, trials, seed)
        assert np.array_equal(matrix.estimates, np.array(counts) / trials)


_GENERIC_PAIR = (
    DiscreteDistribution.from_weights([0.2, 0.5, 0.3]),
    DiscreteDistribution.from_weights([0.4, 0.1, 0.5]),
)
_SHARED_PS = (0.2, 0.5, 0.9)


@pytest.mark.parametrize(
    "seed, pair_sha, shared_sha",
    [
        (
            4,
            "d08f01851f810f1a122e27a30a82134cd06f3f787e3789f8e43d41dcd8a715db",
            "473d15021c7cee3c038e6304c17ed926cec031c2e804e33f1b6221c12e5bb266",
        ),
        (
            2**31 - 1,
            "4074db0a7dbb50f99f49d2b0777a307a972032ef2ebb39d1e0af3a1126fc893e",
            "638d80b30849b81796a27334718396bef65295aef193c8b7c3624d754fb438c9",
        ),
    ],
)
def test_pair_and_shared_draws_across_chunks_are_pinned(seed, pair_sha, shared_sha):
    # Two full draw chunks and a partial one; the digests are those of one
    # draw of all the uniforms, so chunking must not move a bit.
    trials = 2 * 16_384 + 7
    pair = maximal_pair(*_GENERIC_PAIR).sample(trials, seed)
    assert pair.shape == (trials, 2) and pair.dtype == np.int64
    assert hashlib.sha256(pair.tobytes()).hexdigest() == pair_sha
    shared = shared_uniform_bernoulli(_SHARED_PS).sample(trials, seed)
    assert shared.shape == (trials, 3) and shared.dtype == np.int64
    assert hashlib.sha256(shared.tobytes()).hexdigest() == shared_sha


# Several draw chunks of every sampler, and off their edges.
_CHUNK = 16_384


def _one_shot(sampler, trials, seed):
    """The draws of sampler from all their uniforms drawn in one call."""
    if sampler.kind == "product_lift":
        base = sampler.base
        u = derived_rng(seed).random((trials * sampler.n, base.draw_budget()))
        flat = couplings._ASSIGNERS[base.kind](base.marginals)(u)
        return flat.reshape(trials, sampler.n, -1).transpose(0, 2, 1)
    u = derived_rng(seed).random((trials, sampler.draw_budget()))
    return couplings._ASSIGNERS[sampler.kind](sampler.marginals)(u)


# Every sampler shape.  A chunk holds whole lifts, so its base draws are a
# multiple of n: lifts of 3 and 5 end their chunks off the edges of a
# plain sampler's chunks.
_SAMPLER_SHAPES = pytest.mark.parametrize(
    "sampler",
    [
        maximal_pair(*_GENERIC_PAIR),
        shared_uniform_bernoulli(_SHARED_PS),
        exponential_races(_RACE_MARGINALS),
        product_lift(exponential_races(_RACE_MARGINALS), 3),
        product_lift(maximal_pair(*_GENERIC_PAIR), 2),
        product_lift(maximal_pair(*_GENERIC_PAIR), 3),
        product_lift(exponential_races(_RACE_MARGINALS), 5),
    ],
    ids=["pair", "shared", "races", "lift_races", "lift_pair", "lift3_pair", "lift5_races"],
)


@pytest.mark.parametrize("trials", [1, _CHUNK - 1, _CHUNK, _CHUNK + 1])
@_SAMPLER_SHAPES
def test_chunked_draws_equal_the_one_shot_draw(sampler, trials):
    draws = sampler.sample(trials, 17)
    expected = _one_shot(sampler, trials, 17)
    assert draws.dtype == np.int64 and draws.shape == expected.shape
    assert np.array_equal(draws, expected)


@pytest.mark.parametrize("edge", [-1, 0, 1])
@_SAMPLER_SHAPES
def test_draws_at_the_samplers_own_chunk_edges_equal_the_one_shot_draw(sampler, edge):
    rows = couplings._chunk_rows(sampler)
    for trials in (rows + edge, 2 * rows + edge):
        draws = sampler.sample(trials, 17)
        assert np.array_equal(draws, _one_shot(sampler, trials, 17)), trials


@_SAMPLER_SHAPES
def test_sample_hands_each_chunk_of_the_draws_in_order(sampler):
    trials = 2 * couplings._chunk_rows(sampler) + 3
    chunks = []
    assert sampler.sample(trials, 17, 5, each=lambda atoms: chunks.append(atoms.copy())) is None
    assert len(chunks) == 3 and all(c.dtype == np.int64 for c in chunks)
    draws = sampler.sample(trials, 17, 5).reshape(trials, sampler.n_marginals, sampler.n)
    assert np.array_equal(np.concatenate(chunks), draws.transpose(0, 2, 1))


@_SAMPLER_SHAPES
def test_every_chunk_sized_array_stays_below_the_mmap_threshold(sampler):
    # The uniforms, clocks and atoms of a chunk's base draws, 8 bytes an item.
    rows = couplings._chunk_rows(sampler)
    base = sampler.base or sampler
    items = rows * sampler.n * max(base.draw_budget(), sampler.n_marginals)
    assert 8 * items <= couplings._CHUNK_BYTES < couplings._MMAP_THRESHOLD


@_SAMPLER_SHAPES
def test_draws_from_a_start_are_the_slice_of_the_draws_from_zero(sampler):
    # Starts inside a Philox block, at block and chunk edges, and past two
    # chunks; draws of one and of more than a chunk.
    starts = (0, 1, 3, 4, _CHUNK - 1, _CHUNK, 2 * _CHUNK + 5)
    counts = (1, 7, _CHUNK + 3)
    full = sampler.sample(max(starts) + max(counts), 17)
    for start in starts:
        for count in counts:
            draws = sampler.sample(count, 17, start)
            assert draws.dtype == np.int64
            assert np.array_equal(draws, full[start:start + count]), (start, count)


@pytest.mark.parametrize(
    "sampler, n",
    [
        (product_lift(exponential_races(_RACE_MARGINALS), 4), 4),
        (maximal_pair(*_GENERIC_PAIR), 1),
    ],
    ids=["lift_races", "pair"],
)
def test_disagreement_estimate_memory_is_proportional_to_the_draws(sampler, n):
    # Room for the draws and one chunk's uniforms and temporaries; holding
    # every draw's uniforms and clocks at once takes 3.5-4x the draws.
    trials = 100_000
    estimate_disagreement(sampler, 1_000, 3)  # warm caches outside the trace
    tracemalloc.start()
    try:
        estimate_disagreement(sampler, trials, 3)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 2 * trials * sampler.n_marginals * n * 8


def test_disagreement_estimate_memory_does_not_grow_with_the_trials():
    # The atoms are counted one chunk at a time: four times the lifts, and
    # the peak stays within one chunk's atoms of the smaller run's.
    sampler = product_lift(exponential_races(_RACE_MARGINALS), 4)
    estimate_disagreement(sampler, 1_000, 3)  # warm caches outside the trace
    peaks = []
    for trials in (100_000, 400_000):
        tracemalloc.start()
        try:
            estimate_disagreement(sampler, trials, 3)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] <= peaks[0] + _CHUNK * sampler.n_marginals * 8


# ------------------------------------------------- forked disagreement counts


@pytest.mark.parametrize("trials", [1, 2, 5, 2 * _CHUNK + 5])
@_SAMPLER_SHAPES
def test_estimates_are_the_same_bits_at_any_worker_count(workers, sampler, trials):
    # 2 * CHUNK + 5 draws: ranges that cross chunk edges at two workers
    # (and, for lifts, at three), and range edges off the chunk edges.
    estimates = {}
    for cpus in (1, 2, 3):
        workers.cpus, workers.forks = cpus, 0
        matrix = estimate_disagreement(sampler, trials, 23)
        estimates[cpus] = (matrix.estimates.tobytes(), matrix.stderr.tobytes())
        assert workers.forks == min(cpus, trials) - 1
    assert estimates[1] == estimates[2] == estimates[3]
    assert_no_child_left()


def _spy_draw_range(monkeypatch, act):
    """Replace couplings._draw_range, which makes every draw, by one that
    calls act(start, count) first and logs the starts of the ranges this
    process draws."""
    draw_range, starts = couplings._draw_range, []

    def spy(sampler, seed, start, count):
        act(start, count)
        starts.append(start)
        return draw_range(sampler, seed, start, count)

    monkeypatch.setattr(couplings, "_draw_range", spy)
    return starts


@pytest.mark.parametrize("failure", ["raises", "exits_3"])
def test_a_failed_child_is_recounted_here(workers, monkeypatch, failure):
    # 9 draws on three workers: ranges [0, 3), [3, 6) and [6, 9).
    sampler = maximal_pair(*_GENERIC_PAIR)
    serial = estimate_disagreement(sampler, 9, 31).estimates.tobytes()
    parent = os.getpid()

    def fail_in_children(start, trials):
        if os.getpid() != parent:
            if failure == "raises":
                raise FloatingPointError("a child's range fails")
            os._exit(3)

    starts = _spy_draw_range(monkeypatch, fail_in_children)
    workers.cpus = 3
    assert estimate_disagreement(sampler, 9, 31).estimates.tobytes() == serial
    assert starts == [0, 3, 6] and workers.forks == 2
    assert_no_child_left()


def test_ranges_are_counted_here_when_fork_fails(workers, monkeypatch):
    sampler = exponential_races(_RACE_MARGINALS)
    serial = estimate_disagreement(sampler, 9, 32).estimates.tobytes()
    starts = _spy_draw_range(monkeypatch, lambda start, trials: None)

    def no_fork():
        raise BlockingIOError("Resource temporarily unavailable")

    monkeypatch.setattr(os, "fork", no_fork)
    workers.cpus = 3
    assert estimate_disagreement(sampler, 9, 32).estimates.tobytes() == serial
    assert starts == [0, 3, 6]


@pytest.mark.parametrize("marked", [0, 6], ids=["first_range", "last_range"])
def test_an_error_in_a_range_raises_as_in_process(workers, monkeypatch, marked):
    # Ranges [0, 3), [3, 6) and [6, 9) on three workers: the first runs in
    # this process, the last in the second child.
    def fail_at(start, trials):
        if start <= marked < start + trials:
            raise FloatingPointError(f"draw {marked} fails")

    _spy_draw_range(monkeypatch, fail_at)
    messages = []
    for cpus in (1, 3):
        workers.cpus = cpus
        with pytest.raises(FloatingPointError) as info:
            estimate_disagreement(shared_uniform_bernoulli(_SHARED_PS), 9, 33)
        messages.append(str(info.value))
    assert messages == [f"draw {marked} fails"] * 2
    assert workers.forks == 2
    assert_no_child_left()


def test_estimates_fork_from_their_work_threshold_on(workers, monkeypatch):
    sampler = product_lift(exponential_races(_RACE_MARGINALS), 3)
    uniforms = 50 * sampler.draw_budget()
    workers.cpus = 2
    monkeypatch.setattr(couplings, "_FORK_MIN_UNIFORMS", uniforms + 1)
    serial = estimate_disagreement(sampler, 50, 34).estimates.tobytes()
    assert workers.forks == 0
    monkeypatch.setattr(couplings, "_FORK_MIN_UNIFORMS", uniforms)
    assert estimate_disagreement(sampler, 50, 34).estimates.tobytes() == serial
    assert workers.forks == 1
    assert_no_child_left()


def test_estimates_never_fork_with_one_cpu_or_a_live_thread(workers):
    sampler = exponential_races(_RACE_MARGINALS)
    estimate_disagreement(sampler, 100, 35)
    workers.cpus = 3
    stop = threading.Event()
    thread = threading.Thread(target=stop.wait)
    thread.start()
    try:
        estimate_disagreement(sampler, 100, 35)
    finally:
        stop.set()
        thread.join(timeout=10)
    assert not thread.is_alive()
    assert workers.forks == 0
    # With the thread gone the same call forks.
    estimate_disagreement(sampler, 100, 35)
    assert workers.forks == 2
    assert_no_child_left()


# --------------------------------------------------- exact disagreement laws


def test_exact_disagreement_hand_values():
    p, q, r = _RACE_MARGINALS
    races = exact_disagreement(exponential_races([p, q]))
    # Common support {0, 2} of p = (.5, 0, .5) and q = (.2, .3, .5): the
    # collision probability is 1/5 + 1/2.6 = 38/65, so P(X != Y) = 27/65,
    # below 2tv/(1+tv) = 6/13 at tv = 0.3.
    assert races[0, 1] == pytest.approx(27 / 65, rel=1e-14)
    assert races[0, 0] == races[1, 1] == 0.0 and races[1, 0] == races[0, 1]
    lift = exact_disagreement(product_lift(exponential_races([p, q]), 4))
    assert lift[0, 1] == pytest.approx(1.0 - (38 / 65) ** 4, rel=1e-14)
    # On two atoms the race coupling is maximal: its disagreement is tv.
    a, b = DiscreteDistribution.bernoulli(0.3), DiscreteDistribution.bernoulli(0.65)
    assert exact_disagreement(exponential_races([a, b]))[0, 1] == pytest.approx(0.35, rel=1e-14)
    assert exact_disagreement(maximal_pair(p, q))[0, 1] == tv(p, q)
    shared = exact_disagreement(shared_uniform_bernoulli(_SHARED_PS))
    assert np.allclose(shared, np.abs(np.subtract.outer(_SHARED_PS, _SHARED_PS)), rtol=0, atol=1e-15)
    # Disjoint supports always disagree; equal marginals never do.
    disjoint = DiscreteDistribution((5, 6), np.array([0.5, 0.5]))
    assert exact_disagreement(exponential_races([p, disjoint]))[0, 1] == 1.0
    assert exact_disagreement(exponential_races([q, q])).tolist() == [[0.0, 0.0], [0.0, 0.0]]
    with pytest.raises(DomainError):
        exact_disagreement(couplings.CouplingSampler("unknown", (p, q)))


def _samplers_on(rng):
    """One sampler of every kind, on random marginals with zero weights."""
    marginals = []
    for _ in range(3):
        m = random_distribution(rng, max_atoms=5, atom_range=6)
        atoms, w = m.support()
        w = np.where(rng.random(len(w)) < 0.25, 0.0, w)
        if w.sum() == 0.0:
            w[0] = 1.0
        marginals.append(DiscreteDistribution(atoms, w / w.sum()))
    races = exponential_races(marginals)
    return [
        maximal_pair(*marginals[:2]),
        shared_uniform_bernoulli(rng.random(4)),
        races,
        product_lift(races, 3),
        product_lift(maximal_pair(*marginals[1:]), 2),
    ]


@pytest.mark.parametrize("case", range(6))
def test_every_sampler_meets_its_exact_disagreement_within_5_sigma(workers, case):
    # Two-sided, on forked ranges: an estimate that lost or doubled a range
    # sits far outside 5 sigma at these trials.
    workers.cpus = 2
    trials = 40_000
    for sampler in _samplers_on(np.random.default_rng(300 + case)):
        exact = exact_disagreement(sampler)
        estimates = estimate_disagreement(sampler, trials, 400 + case).estimates
        sigma = np.sqrt(exact * (1.0 - exact) / trials)
        assert np.all(np.abs(estimates - exact) <= 5.0 * sigma + 1e-12), sampler.kind
    assert workers.forks == 5
    assert_no_child_left()


def test_races_needs_two_marginals():
    with pytest.raises(DomainError):
        exponential_races([DiscreteDistribution.from_weights([1.0])])


# ------------------------------------------------------------- product lift


def test_product_lift_shapes_and_expected_hamming():
    p = DiscreteDistribution.bernoulli(0.3)
    q = DiscreteDistribution.bernoulli(0.5)
    base = maximal_pair(p, q)
    n = 10
    lifted = product_lift(base, n)
    draws = lifted.sample(TRIALS, seed=5)
    assert draws.shape == (TRIALS, 2, n)
    hamming = np.count_nonzero(draws[:, 0, :] != draws[:, 1, :], axis=1)
    delta = tv(p, q)
    expected = n * delta
    stderr = math.sqrt(n * delta * (1 - delta) / TRIALS)
    assert abs(float(hamming.mean()) - expected) <= 4.0 * stderr


def test_product_lift_disagreement_matches_complement_power():
    p = DiscreteDistribution.bernoulli(0.3)
    q = DiscreteDistribution.bernoulli(0.5)
    n = 10
    matrix = estimate_disagreement(product_lift(maximal_pair(p, q), n), TRIALS, seed=9)
    delta = tv(p, q)
    expected = 1.0 - (1.0 - delta) ** n
    assert abs(matrix.estimates[0, 1] - expected) <= 4.0 * max(matrix.stderr[0, 1], 1e-4)


def test_product_lift_validation():
    base = maximal_pair(
        DiscreteDistribution.bernoulli(0.3), DiscreteDistribution.bernoulli(0.5)
    )
    with pytest.raises(DomainError):
        product_lift(base, 0)
    with pytest.raises(DomainError):
        product_lift(product_lift(base, 2), 2)


# ---------------------------------------------------------------- sampling


def test_sampling_is_deterministic_in_seed():
    rng = np.random.default_rng(109)
    p = random_distribution(rng)
    q = random_distribution(rng)
    for sampler in (maximal_pair(p, q), exponential_races([p, q])):
        a = sampler.sample(500, seed=42)
        b = sampler.sample(500, seed=42)
        c = sampler.sample(500, seed=43)
        assert np.array_equal(a, b)
        assert not np.array_equal(a, c)


def test_draw_budgets():
    p = DiscreteDistribution.bernoulli(0.3)
    q = DiscreteDistribution.bernoulli(0.5)
    assert maximal_pair(p, q).draw_budget() == 3
    assert shared_uniform_bernoulli([0.2, 0.5]).draw_budget() == 1
    assert exponential_races([p, q]).draw_budget() == 2
    assert product_lift(exponential_races([p, q]), 4).draw_budget() == 8


def test_sample_rejects_nonpositive_trials():
    p = DiscreteDistribution.bernoulli(0.3)
    with pytest.raises(DomainError):
        maximal_pair(p, p).sample(0, seed=0)
    with pytest.raises(DomainError):
        maximal_pair(p, p).sample(1, seed=0, start=-1)
    with pytest.raises(DomainError):
        estimate_disagreement(maximal_pair(p, p), 0, seed=0)


def test_disagreement_matrix_is_symmetric_with_zero_diagonal():
    sampler = shared_uniform_bernoulli([0.2, 0.5, 0.9])
    matrix = estimate_disagreement(sampler, 2_000, seed=1)
    assert np.array_equal(matrix.estimates, matrix.estimates.T)
    assert np.all(np.diag(matrix.estimates) == 0.0)
    assert matrix.trials == 2_000


# ----------------------------------------------------------------- LP


def test_lp_example2_value_exceeds_tv_sum():
    marginals = example2_marginals()
    value = min_disagreement_lp(marginals)
    assert abs(value - 2.0) <= 1e-9
    tv_sum = sum(
        tv(marginals[i], marginals[j])
        for i in range(3)
        for j in range(i + 1, 3)
    )
    assert abs(tv_sum - 1.5) <= 1e-12
    assert value > tv_sum


def test_lp_pair_equals_tv():
    rng = np.random.default_rng(113)
    for _ in range(20):
        p = random_distribution(rng, max_atoms=5)
        q = random_distribution(rng, max_atoms=5)
        assert abs(min_disagreement_lp([p, q]) - tv(p, q)) <= 1e-9


def test_lp_matches_scipy_on_random_triples():
    rng = np.random.default_rng(127)
    for _ in range(10):
        marginals = [random_distribution(rng, max_atoms=4) for _ in range(3)]
        ours = min_disagreement_lp(marginals)
        oracle = linprog_min_disagreement(marginals)
        assert abs(ours - oracle) <= 1e-7


def test_lp_dominated_by_every_sampler():
    rng = np.random.default_rng(131)
    marginals = [random_distribution(rng, max_atoms=4) for _ in range(3)]
    lp_value = min_disagreement_lp(marginals)
    matrix = estimate_disagreement(exponential_races(marginals), TRIALS, seed=2)
    total = sum(matrix.estimates[i, j] for i in range(3) for j in range(i + 1, 3))
    slack = 3.0 * sum(matrix.stderr[i, j] for i in range(3) for j in range(i + 1, 3))
    assert total >= lp_value - slack - 1e-9


def test_lp_validation_and_caps():
    with pytest.raises(DomainError):
        min_disagreement_lp([DiscreteDistribution.bernoulli(0.5)])
    wide = DiscreteDistribution(tuple(range(22)), np.full(22, 1.0 / 22.0))
    with pytest.raises(TooLarge):
        min_disagreement_lp([wide, wide, wide])
