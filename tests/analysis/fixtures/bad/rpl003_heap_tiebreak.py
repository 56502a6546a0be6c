"""Known-bad: set-like iteration through an alias, set algebra or a global."""

import heapq


def nearest_first(distances):
    pending = set(distances)
    heap = []
    for peer_id in pending:  # expect: RPL003
        heapq.heappush(heap, (distances[peer_id], peer_id))
    return heap


def net_gain(gained, lost):
    balance = 0.0
    for peer_id in gained.keys() - lost.keys():  # expect: RPL003
        balance -= gained[peer_id]
    return balance


SEEN = set()


def seen_total(weights):
    total = 0.0
    for peer_id in SEEN:  # expect: RPL003
        total += weights[peer_id]
    return total
