"""Clean corpus: byte-identity near misses.

Set-like iteration that feeds nothing order-sensitive, and an alias rebound
to an ordered value.
"""

import heapq


def nearest_first(distances):
    pending = set(distances)
    pending = sorted(pending)
    heap = []
    for peer_id in pending:
        heapq.heappush(heap, (distances[peer_id], peer_id))
    return heap


def members(ids):
    found = []
    for peer_id in set(ids):
        found.append(peer_id)
    return found


def list_total(values):
    total = 0.0
    for value in list(values):
        total += value
    return total
