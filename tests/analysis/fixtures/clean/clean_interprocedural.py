"""Clean corpus: shapes that span functions.

A set-like alias is tracked in the function that binds it and nowhere
else: a same-named parameter or local of another function is whatever
its own scope makes it.  Generators seeded once are passed down and drawn
from, never rebuilt.
"""

import heapq
import random

TRACKED = set()


def pending_count(distances):
    pending = set(distances)
    return len(pending)


def nearest_first(distances, pending):
    heap = []
    for peer_id in pending:
        heapq.heappush(heap, (distances[peer_id], peer_id))
    return heap


def weighted_total(weights, TRACKED):
    total = 0.0
    for key in TRACKED:
        total += weights[key]
    return total


def _draw(rng, count):
    return [rng.random() for _ in range(count)]


def sample(count, seed=0):
    return _draw(random.Random(seed), count)
