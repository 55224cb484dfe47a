"""Counter-based random streams.

Every stochastic routine in the package derives its generator from an integer
seed plus a tuple of integer tags (cell index, trial index, ...) through a
Philox counter-based bit generator.  Stream i is a pure function of
(seed, tags), never of how much randomness other streams consumed, so
estimates do not depend on execution order.

derived_rng defines a stream.  The last tag is a trial index and addresses
the Philox counter: the streams (seed, *tags, t) of a Monte-Carlo cell share
one key, hashed by SeedSequence from the seed and the other tags, and trial t
starts at counter t * 2**128 (counter words 2-3), so no two trials overlap
until one draws 2**128 blocks.  The key is SeedSequence's key of the trial-0
stream: a tagless stream and trial 0 of every stream are
Philox(SeedSequence((len(tags), seed, *tags))), the bits the package drew
before trials were counter-addressed; trials t >= 1 drew other bits then.

A study whose estimator reads one statistic with an exact law draws a whole
cell from one stream, derived_rng(seed, k).  A loop over a cell's trials,
one dataset each (DP-SGML, monte_carlo_risk), walks them in order with
trial_rngs, which derives the key once and rewinds one Generator to each
trial's counter.  Trial t reads only its own stream, so its bits do not
depend on the trials before it, and a walk may start at any trial.
"""

from __future__ import annotations

from typing import Iterator

import numpy as np

__all__ = ["derived_rng", "spawn_keys", "trial_rngs"]

# A trial index fills Philox counter words 2-3.
_TRIAL_LIMIT = 1 << 128
_MASK64 = (1 << 64) - 1


def _stream(seed: int, tags: tuple) -> tuple[list[int], int]:
    """The Philox key words and the trial of the stream (seed, *tags).

    The last tag is the trial.  The key is SeedSequence's hash of the tag
    count, the seed and the tags with the last one set to 0: the key of
    trial 0, whatever the trial.  The tag count leads the entropy because
    SeedSequence pads entropy of fewer than four words with zero words:
    without it (seed, 0) would alias the bare (seed,) stream.
    """
    tags = [int(t) for t in tags]
    if any(t < 0 for t in tags):
        raise ValueError("stream tags must be non-negative")
    trial = 0
    if tags:
        trial, tags[-1] = tags[-1], 0
    if trial >= _TRIAL_LIMIT:
        raise ValueError("the last stream tag must be below 2**128")
    key = np.random.SeedSequence((len(tags), int(seed), *tags)).generate_state(2, np.uint64)
    return key.tolist(), trial


def derived_rng(seed: int, *tags: int) -> np.random.Generator:
    """Return a Generator for the stream identified by (seed, *tags).

    Tags must be non-negative integers, the last one below 2**128; the same
    (seed, tags) always yields an identical stream.
    """
    (low, high), trial = _stream(seed, tags)
    return np.random.Generator(np.random.Philox(key=low | high << 64, counter=trial << 128))


def spawn_keys(seed: int, count: int, *tags: int) -> list[tuple[int, ...]]:
    """Pre-derive `count` stream identities (seed, *tags, i) for i < count."""
    base = (int(seed),) + tuple(int(t) for t in tags)
    return [base + (i,) for i in range(count)]


def trial_rngs(
    seed: int, tags: tuple[int, ...], count: int, start: int = 0
) -> Iterator[np.random.Generator]:
    """Yield the streams derived_rng(seed, *tags, t) for t = start, ...,
    count - 1: the trials of a walk over count trials from trial start on.

    The key is derived once; one Generator is reused and rewound to trial
    t's counter before it is yielded, so it is valid only until the next
    trial is requested.
    """
    count, start = int(count), int(start)
    key, _ = _stream(seed, (*tags, 0))
    if count >= _TRIAL_LIMIT:
        raise ValueError("count must be below 2**128")
    if start < 0:
        raise ValueError("start must be non-negative")
    return _rewound(key, range(start, count))


def _rewound(key: list[int], trials: range) -> Iterator[np.random.Generator]:
    bit_generator = np.random.Philox(0)
    rng = np.random.Generator(bit_generator)
    counter = [0, 0, 0, 0]
    state = {
        "bit_generator": "Philox",
        "state": {"counter": counter, "key": key},
        "buffer": (0, 0, 0, 0),
        "buffer_pos": 4,
        "has_uint32": 0,
        "uinteger": 0,
    }
    for t in trials:
        counter[2], counter[3] = t & _MASK64, t >> 64
        bit_generator.state = state
        yield rng
