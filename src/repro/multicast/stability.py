"""Stability-oriented multicast trees (Section 3 of the paper).

Setting: every peer ``P`` knows the time ``T(P)`` at which it will leave the
system (cloud lease expiry, sensor battery exhaustion).  The first virtual
coordinate of every peer is set to ``T(P)``, the overlay is built with the
Orthogonal Hyperplanes selection method, and every peer periodically selects
a *preferred tree neighbour*: an overlay neighbour ``Q`` with
``T(Q) > T(P)`` (the paper's experiments pick the one with the largest
``T(Q)``).  Peers with no longer-lived neighbour select nobody.

The preferred-neighbour links, read as child -> parent edges, form a tree
rooted at the peer with the largest lifetime in which lifetimes strictly
decrease towards the leaves.  Consequently a departing peer is always a leaf
of the remaining tree and departures never disconnect the multicast tree.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Mapping, Optional, Tuple

from repro.multicast.tree import MulticastTree, TreeValidationError
from repro.overlay.topology import TopologySnapshot

__all__ = [
    "PreferredNeighbourForest",
    "StabilityTreeBuilder",
    "build_stability_tree",
    "choose_preferred_parent",
]


def choose_preferred_parent(
    peer_id: int,
    links: Iterable[int],
    lifetimes: Mapping[int, float],
) -> Optional[int]:
    """The Section 3 preferred-neighbour rule for one peer.

    Returns the peer of ``links`` with the largest lifetime, provided it
    exceeds ``lifetimes[peer_id]`` (equal lifetimes fall to the smaller
    id), or ``None`` when no link outlives the peer.  ``lifetimes`` must
    cover the peer and every id of ``links``.

    ``links`` are the peer's *undirected* overlay links, selected plus
    selectors: a link opened by either end carries traffic both ways, as in
    Section 2 and the gossip, and counting only the selected half would
    leave peers whose sole longer-lived contact selected them as extra
    roots.  A peer learns its inbound links from link-open notices, so the
    choice stays local.  The snapshot :class:`StabilityTreeBuilder`, the
    :class:`repro.multicast.incremental.StabilityTreeMaintainer` and the
    message-level :class:`repro.simulation.protocol.PeerProcess` all call
    this function, so identical links and lifetimes give identical parents.
    """
    best: Optional[int] = None
    best_lifetime = lifetimes[peer_id]
    for other in links:
        lifetime = lifetimes[other]
        if lifetime > best_lifetime or (
            lifetime == best_lifetime and best is not None and other < best
        ):
            best, best_lifetime = other, lifetime
    return best


@dataclass(frozen=True)
class PreferredNeighbourForest:
    """The preferred-neighbour links of every peer, plus their lifetimes.

    ``preferred[p]`` is the overlay neighbour ``p`` chose (its tree parent),
    or ``None`` when ``p`` has no overlay neighbour outliving it.  The paper
    checks -- and this class lets callers check -- that the links form a
    single tree rooted at the longest-lived peer, with lifetimes decreasing
    towards the leaves.
    """

    preferred: Mapping[int, Optional[int]]
    lifetimes: Mapping[int, float]

    # ------------------------------------------------------------------
    # Structure
    # ------------------------------------------------------------------
    @property
    def peer_count(self) -> int:
        """Number of peers covered by the forest."""
        return len(self.preferred)

    def roots(self) -> List[int]:
        """Peers that selected no preferred neighbour, sorted."""
        return sorted(peer for peer, parent in self.preferred.items() if parent is None)

    def is_single_tree(self) -> bool:
        """``True`` when the links form one tree covering every peer.

        Because every link points from a peer to a strictly longer-lived
        peer, the link graph can never contain a cycle; it is therefore a
        forest, and it is a single tree exactly when only one peer has no
        preferred neighbour.
        """
        if not self.preferred:
            return True
        return len(self.roots()) == 1

    def to_multicast_tree(self) -> MulticastTree:
        """The forest as a :class:`MulticastTree` (requires a single tree).

        The root is the unique peer without a preferred neighbour -- by
        construction the peer with the largest lifetime.
        """
        roots = self.roots()
        if len(roots) != 1:
            raise TreeValidationError(
                f"the preferred-neighbour links form {len(roots)} trees, not one; "
                "roots: " + ", ".join(str(r) for r in roots[:10])
            )
        return MulticastTree(roots[0], dict(self.preferred))

    # ------------------------------------------------------------------
    # Paper invariants
    # ------------------------------------------------------------------
    def root_has_largest_lifetime(self) -> bool:
        """``True`` when the longest-lived peer selected no preferred neighbour.

        For a single tree this says the root is the longest-lived peer of the
        whole system, which is how the paper roots the tree (it cannot select
        anyone because no neighbour outlives it).
        """
        if not self.preferred:
            return True
        longest_lived = max(self.preferred, key=lambda peer: self.lifetimes[peer])
        return self.preferred[longest_lived] is None

    def parents_outlive_children(self) -> bool:
        """``True`` when ``T(parent) > T(child)`` for every link (the paper's check)."""
        for child, parent in self.preferred.items():
            if parent is None:
                continue
            if not self.lifetimes[parent] > self.lifetimes[child]:
                return False
        return True

    def lifetime_violations(self) -> List[Tuple[int, int]]:
        """Links ``(child, parent)`` whose parent does not outlive the child."""
        return sorted(
            (child, parent)
            for child, parent in self.preferred.items()
            if parent is not None and not self.lifetimes[parent] > self.lifetimes[child]
        )


class StabilityTreeBuilder:
    """Builds the Section 3 preferred-neighbour forest over a topology snapshot.

    Every peer picks, with :func:`choose_preferred_parent`, its overlay
    neighbour with the largest ``T(Q) > T(P)`` -- the rule of the paper's
    experiments.
    """

    def build(self, topology: TopologySnapshot) -> PreferredNeighbourForest:
        """Select the preferred tree neighbour of every peer."""
        lifetimes = {peer_id: info.lifetime for peer_id, info in topology.peers.items()}
        if len(set(lifetimes.values())) != len(lifetimes):
            raise ValueError(
                "peer lifetimes must be pairwise distinct (the paper breaks ties using "
                "other peer-specific properties before running the algorithm)"
            )
        preferred: Dict[int, Optional[int]] = {
            peer_id: choose_preferred_parent(peer_id, topology.adjacency[peer_id], lifetimes)
            for peer_id in topology.peers
        }
        return PreferredNeighbourForest(preferred=preferred, lifetimes=lifetimes)


def build_stability_tree(topology: TopologySnapshot) -> MulticastTree:
    """Convenience wrapper: build the Section 3 tree and return it directly.

    Raises :class:`~repro.multicast.tree.TreeValidationError` when the
    preferred links do not form a single tree (e.g. the overlay is
    disconnected in lifetime order).
    """
    forest = StabilityTreeBuilder().build(topology)
    return forest.to_multicast_tree()
