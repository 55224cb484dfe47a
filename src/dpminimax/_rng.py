"""Counter-based random streams.

Every stochastic routine in the package derives its generator from an integer
seed plus a tuple of integer tags (cell index, trial index, ...) through a
Philox counter-based bit generator.  Stream i is a pure function of
(seed, tags), never of how much randomness other streams consumed, so
estimates do not depend on execution order or worker partitioning.

derived_rng defines a stream.  The last tag is a trial index and addresses
the Philox counter: the streams (seed, *tags, t) of a Monte-Carlo cell share
one key, hashed by SeedSequence from the seed and the other tags, and trial t
starts at counter t * 2**128 (counter words 2-3), so no two trials overlap
until one draws 2**128 blocks.  The key is SeedSequence's key of the trial-0
stream: a tagless stream and trial 0 of every stream are
Philox(SeedSequence((len(tags), seed, *tags))), the bits the package drew
before trials were counter-addressed; trials t >= 1 drew other bits then.

Monte-Carlo loops walk the trials of a cell in one of two ways, both of which
derive the key once and rewind one Generator per thread to each trial's
counter: trial_rngs iterates them in order on the calling thread, and
trial_ranges hands contiguous trial ranges to one thread per CPU.  Because
trial t reads only its own stream, a threaded run writes exactly the bits a
serial one does, whatever the CPU count.  Callers thread only callables
marked by thread_safe.
"""

from __future__ import annotations

import os
import threading
import weakref
from typing import Callable, Iterable, Iterator

import numpy as np

__all__ = ["derived_rng", "spawn_keys", "thread_safe", "trial_rngs", "trial_ranges"]

# Fewest random values a trial must draw before its cell is worth threading:
# below this, thread start-up and GIL hand-offs cost more than the GIL-free
# numpy fills save (on 2 cores, Gaussian trials ran 0.59x as fast threaded at
# 512 values, 1.35x at 4096 and 1.97x at 33 000).
_THREAD_MIN_VALUES = 4096

# The callables marked by thread_safe, held by identity.
_THREAD_SAFE: "weakref.WeakSet[Callable]" = weakref.WeakSet()

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


def _cell_key(seed: int, tags: tuple, count: int) -> list[int]:
    """The key of the streams (seed, *tags, t) for t < count."""
    key, _ = _stream(seed, (*tags, 0))
    if count >= _TRIAL_LIMIT:
        raise ValueError("count must be below 2**128")
    return key


def trial_rngs(seed: int, tags: tuple[int, ...], count: int) -> Iterator[np.random.Generator]:
    """Yield the streams derived_rng(seed, *tags, t) for t = 0, ..., count - 1.

    The key is derived once; one Generator is reused and rewound to trial
    t's counter before it is yielded, so it is valid only until the next
    trial is requested.
    """
    count = int(count)
    return _rewound(_cell_key(seed, tags, count), range(count))


def _cpu_count() -> int:
    """The number of CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity query on this platform
        return os.cpu_count() or 1


def thread_safe(fn: Callable) -> Callable:
    """Mark fn as safe to call from several threads at once, each call with
    its own rng, and return it.

    The mark is on the object itself: a wrapper of fn (a tracer's span, say)
    is a new, unmarked callable, so trials that call it stay serial.  Mark
    functions, not bound methods, which are a new object at every access.
    """
    _THREAD_SAFE.add(fn)
    return fn


def is_thread_safe(*fns: Callable) -> bool:
    """Whether every one of fns was marked by thread_safe."""
    return all(fn in _THREAD_SAFE for fn in fns)


def trial_ranges(
    seed: int,
    tags: tuple[int, ...],
    count: int,
    body: Callable[[int, int, Iterator[np.random.Generator]], None],
    threaded: bool,
) -> None:
    """Call body(lo, hi, rngs) on contiguous ranges that cover trials
    [0, count), one range per CPU when threaded and one range otherwise.

    rngs yields derived_rng(seed, *tags, t) for t = lo, ..., hi - 1, rewound
    as in trial_rngs; every range has its own Generator.  The calling thread
    runs the first range and a threading.Thread each other one, so body must
    write only the outputs of its own trials, and whatever it calls must be
    safe to call concurrently with distinct rngs.  After every range ends,
    the error of the lowest failing range is raised: the error a serial run
    would raise.
    """
    count = int(count)
    key = _cell_key(seed, tags, count)
    workers = min(_cpu_count(), count) if threaded else 1
    if workers <= 1:
        body(0, count, _rewound(key, range(count)))
        return
    edges = [count * i // workers for i in range(workers + 1)]
    errors: list = [None] * workers

    def run(i: int) -> None:
        lo, hi = edges[i], edges[i + 1]
        try:
            body(lo, hi, _rewound(key, range(lo, hi)))
        except BaseException as exc:  # re-raised below, in range order
            errors[i] = exc

    threads = [threading.Thread(target=run, args=(i,)) for i in range(1, workers)]
    for thread in threads:
        thread.start()
    run(0)
    for thread in threads:
        thread.join()
    for exc in errors:
        if exc is not None:
            raise exc


def _rewound(key: list[int], trials: Iterable[int]) -> Iterator[np.random.Generator]:
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
