"""Peer population generators: coordinates + addresses.

These helpers assemble :class:`~repro.overlay.peer.PeerInfo` populations from
the coordinate and lifetime generators, reproducing the two experimental
setups of the paper:

* Section 2: peers with uniformly random identifiers (no lifetimes).
* Section 3: peers with known departure times embedded as the first
  coordinate (``x(P, 1) = T(P)``), the remaining coordinates random.
"""

from __future__ import annotations

import random
from typing import List, Optional

from repro.geometry.point import Point
from repro.overlay.peer import PeerInfo, make_peer
from repro.workloads.coordinates import DEFAULT_VMAX, distinct_uniform_coordinates
from repro.workloads.lifetimes import uniform_lifetimes

__all__ = ["generate_peers", "generate_peers_with_lifetimes"]


def generate_peers(
    count: int,
    dimension: int,
    *,
    vmax: float = DEFAULT_VMAX,
    seed: Optional[int] = None,
) -> List[PeerInfo]:
    """Section 2 population: ``count`` peers with random distinct identifiers."""
    coordinates = distinct_uniform_coordinates(count, dimension, vmax=vmax, seed=seed)
    return [make_peer(peer_id, coords) for peer_id, coords in enumerate(coordinates)]


def generate_peers_with_lifetimes(
    count: int,
    dimension: int,
    *,
    vmax: float = DEFAULT_VMAX,
    lifetime_horizon: Optional[float] = None,
    seed: Optional[int] = None,
) -> List[PeerInfo]:
    """Section 3 population: lifetimes embedded as the first coordinate.

    The lifetime of peer ``P`` becomes ``x(P, 1)``; the remaining ``D - 1``
    coordinates are drawn uniformly.  Lifetimes are drawn from
    ``(0, lifetime_horizon)`` (default ``vmax``, so the embedded coordinate
    stays inside the virtual space).
    """
    if dimension < 1:
        raise ValueError("dimension must be at least 1")
    horizon = vmax if lifetime_horizon is None else lifetime_horizon
    rng = random.Random(0 if seed is None else seed)
    lifetimes = uniform_lifetimes(count, horizon=horizon, rng=rng)
    if dimension == 1:
        coordinates = [Point((lifetime,)) for lifetime in lifetimes]
    else:
        other_axes = distinct_uniform_coordinates(count, dimension - 1, vmax=vmax, rng=rng)
        coordinates = [
            Point((lifetime,) + tuple(other))
            for lifetime, other in zip(lifetimes, other_axes)
        ]
    return [make_peer(peer_id, coords) for peer_id, coords in enumerate(coordinates)]
