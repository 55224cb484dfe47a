"""Counter-based random streams.

Every stochastic routine in the package derives its generator from an integer
seed plus a tuple of integer tags (cell index, trial index, ...) through a
Philox counter-based bit generator.  Stream i is a pure function of
(seed, tags), never of how much randomness other streams consumed, so
estimates do not depend on execution order or worker partitioning.

derived_rng defines a stream.  Monte-Carlo loops walk the streams
(seed, *tags, t) for t < count through trial_rngs, which derives all of their
Philox keys in one vectorized pass and yields the same bits as derived_rng.
"""

from __future__ import annotations

from typing import Iterator

import numpy as np

__all__ = ["derived_rng", "spawn_keys", "trial_rngs"]

_MASK32 = 0xFFFFFFFF
# SeedSequence's hash constants (numpy.random.bit_generator).
_INIT_A = 0x43B0D7E5
_MULT_A = 0x931E8875
_INIT_B = 0x8B51F9DD
_MULT_B = 0x58F38DED
_MIX_MULT_L = 0xCA01F9DD
_MIX_MULT_R = 0x4973F715
_POOL_SIZE = 4


def derived_rng(seed: int, *tags: int) -> np.random.Generator:
    """Return a Generator for the stream identified by (seed, *tags).

    Tags must be non-negative integers; the same (seed, tags) always yields
    an identical stream.
    """
    entropy = (int(seed),) + tuple(int(t) for t in tags)
    if any(t < 0 for t in entropy[1:]):
        raise ValueError("stream tags must be non-negative")
    # The tag count leads the entropy because SeedSequence absorbs trailing
    # zero words: without it (seed, 0) would alias the bare (seed,) stream.
    return np.random.Generator(np.random.Philox(np.random.SeedSequence((len(tags),) + entropy)))


def spawn_keys(seed: int, count: int, *tags: int) -> list[tuple[int, ...]]:
    """Pre-derive `count` stream identities (seed, *tags, i) for i < count."""
    base = (int(seed),) + tuple(int(t) for t in tags)
    return [base + (i,) for i in range(count)]


def _words(value: int) -> list[int]:
    """SeedSequence's split of a non-negative int into 32-bit words, low first."""
    if value < 0:
        raise ValueError("expected non-negative integer")
    words = [value & _MASK32]
    value >>= 32
    while value:
        words.append(value & _MASK32)
        value >>= 32
    return words


def _philox_keys(seed: int, tags: tuple[int, ...], count: int) -> np.ndarray:
    """Philox keys of derived_rng(seed, *tags, t) for t < count, shape (count, 2).

    Runs SeedSequence's mix_entropy and generate_state(2, uint64) with the
    trial index as a vector: every other entropy word is the same for all
    trials, and t < 2^32 is always exactly one word.
    """
    if count > 1 << 32:
        raise ValueError("count must be at most 2**32")
    prefix = [len(tags) + 1, *_words(seed)]
    for tag in tags:
        prefix += _words(tag)
    # Length-1 arrays, not numpy scalars: array arithmetic wraps mod 2^32
    # silently, where scalar arithmetic warns on overflow.
    entropy = [np.full(1, w, dtype=np.uint32) for w in prefix]
    entropy.append(np.arange(count, dtype=np.uint32))
    hash_const = _INIT_A

    def hashmix(value):
        nonlocal hash_const
        value = value ^ np.uint32(hash_const)
        hash_const = (hash_const * _MULT_A) & _MASK32
        value = value * np.uint32(hash_const)
        return value ^ (value >> np.uint32(16))

    def mix(x, y):
        result = np.uint32(_MIX_MULT_L) * x - np.uint32(_MIX_MULT_R) * y
        return result ^ (result >> np.uint32(16))

    zero = np.zeros(1, dtype=np.uint32)
    pool = [hashmix(entropy[i] if i < len(entropy) else zero) for i in range(_POOL_SIZE)]
    for i_src in range(_POOL_SIZE):
        for i_dst in range(_POOL_SIZE):
            if i_src != i_dst:
                pool[i_dst] = mix(pool[i_dst], hashmix(pool[i_src]))
    for word in entropy[_POOL_SIZE:]:
        for i_dst in range(_POOL_SIZE):
            pool[i_dst] = mix(pool[i_dst], hashmix(word))

    # generate_state(2, uint64): one 32-bit word per pool entry, paired low
    # word first into the two 64-bit key words.
    state = np.empty((count, 4), dtype=np.uint64)
    hash_const = _INIT_B
    for i in range(4):
        value = pool[i] ^ np.uint32(hash_const)
        hash_const = (hash_const * _MULT_B) & _MASK32
        value = value * np.uint32(hash_const)
        state[:, i] = value ^ (value >> np.uint32(16))
    return state[:, 0::2] | (state[:, 1::2] << np.uint64(32))


def trial_rngs(seed: int, tags: tuple[int, ...], count: int) -> Iterator[np.random.Generator]:
    """Yield the streams derived_rng(seed, *tags, t) for t = 0, ..., count - 1.

    All Philox keys are derived up front; one Generator is reused and rewound
    to trial t's key at counter 0 before it is yielded, so it is valid only
    until the next trial is requested.
    """
    seed = int(seed)
    tags = tuple(int(t) for t in tags)
    if any(t < 0 for t in tags):
        raise ValueError("stream tags must be non-negative")
    keys = _philox_keys(seed, tags, int(count)).tolist()
    return _rewound(keys)


def _rewound(keys: list) -> Iterator[np.random.Generator]:
    bit_generator = np.random.Philox(0)
    rng = np.random.Generator(bit_generator)
    key = [0, 0]
    state = {
        "bit_generator": "Philox",
        "state": {"counter": (0, 0, 0, 0), "key": key},
        "buffer": (0, 0, 0, 0),
        "buffer_pos": 4,
        "has_uint32": 0,
        "uinteger": 0,
    }
    for key[0], key[1] in keys:
        bit_generator.state = state
        yield rng
