"""Shared plumbing for the experiment drivers.

Every figure panel needs the same two ingredients: a population of peers
drawn from the paper's workload and the equilibrium overlay topology for the
configured neighbour selection method.  Keeping the construction here means
all panels agree on seeds and conventions, and the benchmarks measure the
algorithms rather than incidental setup differences.
"""

from __future__ import annotations

import random
from typing import List, Optional, Sequence

from repro.overlay.network import OverlayNetwork
from repro.overlay.selection.empty_rectangle import EmptyRectangleSelection
from repro.overlay.selection.orthogonal import OrthogonalHyperplanesSelection
from repro.overlay.topology import TopologySnapshot
from repro.workloads.peers import generate_peers, generate_peers_with_lifetimes

__all__ = [
    "PROCEDURES",
    "build_section2_topology",
    "build_section3_topology",
    "sample_roots",
    "derive_seed",
]


def derive_seed(base_seed: int, *components: int) -> int:
    """Deterministically derive a per-configuration seed from the scale seed.

    Mixing in the configuration parameters (dimension, peer count, K, ...)
    gives every configuration an independent workload while keeping the whole
    sweep reproducible from the single scale seed.
    """
    seed = base_seed
    for component in components:
        seed = (seed * 1_000_003 + int(component) + 1) % (2**31 - 1)
    return seed


PROCEDURES = ("equilibrium", "insertion")


def _build_overlay(peers, selection, *, procedure: str, seed: int) -> OverlayNetwork:
    """Build an overlay by the requested procedure.

    ``"equilibrium"`` jumps straight to the full-knowledge fixed point (the
    historical fast path of the figure benchmarks); ``"insertion"`` follows
    the paper's procedure literally -- peers inserted one by one, the overlay
    converging after every insertion -- on the incremental reselection
    engine, which is what makes that literal replay tractable at figure
    scale.  Both produce the same full-knowledge topology.
    """
    if procedure == "equilibrium":
        return OverlayNetwork.build_equilibrium(peers, selection)
    if procedure == "insertion":
        return OverlayNetwork.build_incremental(peers, selection, rng=random.Random(seed))
    raise ValueError(
        f"unknown build procedure {procedure!r}; known: {', '.join(PROCEDURES)}"
    )


def build_section2_topology(
    peer_count: int,
    dimension: int,
    *,
    seed: int,
    procedure: str = "equilibrium",
) -> TopologySnapshot:
    """Empty-rectangle overlay over a random population (Section 2 setup).

    This is the Section 2 experimental setup: random identifiers, peers
    inserted until the topology reaches the equilibrium in which every peer
    knows every other peer (the fixed point the paper's per-insertion
    convergence approaches).  ``procedure="insertion"`` replays the paper's
    insert-one-converge loop on the incremental engine instead of jumping to
    the fixed point directly.
    """
    peers = generate_peers(peer_count, dimension, seed=seed)
    overlay = _build_overlay(
        peers, EmptyRectangleSelection(), procedure=procedure, seed=seed
    )
    return overlay.snapshot()


def build_section3_topology(
    peer_count: int,
    dimension: int,
    k: int,
    *,
    seed: int,
    procedure: str = "equilibrium",
) -> TopologySnapshot:
    """Orthogonal-Hyperplanes overlay with lifetime-first coordinates.

    This is the Section 3 experimental setup: every peer's first coordinate
    is its departure time ``T(P)``, the remaining coordinates are random, and
    the overlay keeps the ``K`` closest peers per orthant.  As with the
    Section 2 builder, ``procedure="insertion"`` runs the paper-literal
    churn loop on the incremental engine.
    """
    peers = generate_peers_with_lifetimes(peer_count, dimension, seed=seed)
    overlay = _build_overlay(
        peers, OrthogonalHyperplanesSelection(k=k), procedure=procedure, seed=seed
    )
    return overlay.snapshot()


def sample_roots(
    peer_ids: Sequence[int],
    sample_size: Optional[int],
    *,
    seed: int,
) -> List[int]:
    """Initiating peers for the per-root sweeps.

    The paper initiates a construction from every peer; ``sample_size``
    limits that to a random subset at the smaller scales (``None`` keeps
    every peer).
    """
    ids = sorted(peer_ids)
    if sample_size is None or sample_size >= len(ids):
        return ids
    rng = random.Random(seed)
    return sorted(rng.sample(ids, sample_size))
