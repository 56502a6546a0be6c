"""Clean corpus: determinism near misses.

Seeded generator construction, draws from a passed-in generator, and
duration clocks, which measure how long something took.
"""

import random
import time

import numpy as np


def link_stream(seed, sender, recipient):
    return np.random.default_rng((seed, sender, recipient))


def legacy_state(seed=0):
    return np.random.RandomState(seed=seed)


def jitter(rng):
    return rng.random()


def shuffled(values, seed=0):
    rng = random.Random(seed)
    values = list(values)
    rng.shuffle(values)
    return values


def timed(work):
    start = time.perf_counter()
    work()
    return time.monotonic(), time.perf_counter() - start
