"""Topology snapshots and their statistics.

The overlay topology is the undirected closure of the directed "P selected Q"
relation: messages (gossip, multicast construction requests) travel over
links, and a link exists when either endpoint selected the other.  Figure 1
panels (a) and (c) of the paper report the maximum and average *topology
degree* of a peer, i.e. degrees in this undirected graph.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, FrozenSet, Iterable, Mapping, Set, Tuple

from repro.overlay.peer import PeerInfo

if TYPE_CHECKING:  # pragma: no cover - typing only
    import networkx as nx

__all__ = ["TopologySnapshot", "undirected_closure"]


def undirected_closure(directed: Mapping[int, Iterable[int]]) -> Dict[int, Set[int]]:
    """Symmetric adjacency obtained by adding the reverse of every selected link."""
    adjacency: Dict[int, Set[int]] = {peer_id: set() for peer_id in directed}
    for peer_id, neighbours in directed.items():
        for neighbour in neighbours:
            if neighbour == peer_id:
                continue
            if neighbour not in adjacency:
                raise KeyError(
                    f"peer {peer_id} selected unknown peer {neighbour}; "
                    "the directed map must mention every peer as a key"
                )
            adjacency[peer_id].add(neighbour)
            adjacency[neighbour].add(peer_id)
    return adjacency


@dataclass(frozen=True)
class TopologySnapshot:
    """An immutable view of the overlay at one instant.

    Attributes
    ----------
    peers:
        Peer metadata by id.
    selected:
        The directed selection: ``selected[p]`` is the set of peers ``p``
        chose as neighbours.
    adjacency:
        The undirected closure of ``selected`` -- the communication topology.
    """

    peers: Mapping[int, PeerInfo]
    selected: Mapping[int, FrozenSet[int]]
    adjacency: Mapping[int, FrozenSet[int]]

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------
    @classmethod
    def from_directed(
        cls,
        peers: Mapping[int, PeerInfo],
        directed: Mapping[int, Iterable[int]],
    ) -> "TopologySnapshot":
        """Snapshot from peer metadata and the directed selection map."""
        selected = {peer_id: frozenset(neighbours) for peer_id, neighbours in directed.items()}
        missing = set(peers) - set(selected)
        for peer_id in missing:
            selected[peer_id] = frozenset()
        adjacency = {
            peer_id: frozenset(neighbours)
            for peer_id, neighbours in undirected_closure(selected).items()
        }
        return cls(peers=dict(peers), selected=selected, adjacency=adjacency)

    # ------------------------------------------------------------------
    # Basic accessors
    # ------------------------------------------------------------------
    @property
    def peer_count(self) -> int:
        """Number of peers in the snapshot."""
        return len(self.peers)

    def degree(self, peer_id: int) -> int:
        """Undirected topology degree of one peer."""
        return len(self.adjacency[peer_id])

    def degrees(self) -> Dict[int, int]:
        """Undirected topology degree of every peer."""
        return {peer_id: len(neighbours) for peer_id, neighbours in self.adjacency.items()}

    def edges(self) -> Set[Tuple[int, int]]:
        """Undirected edges as ``(smaller id, larger id)`` pairs."""
        result: Set[Tuple[int, int]] = set()
        for peer_id, neighbours in self.adjacency.items():
            for neighbour in neighbours:
                result.add((min(peer_id, neighbour), max(peer_id, neighbour)))
        return result

    def edge_count(self) -> int:
        """Number of undirected edges."""
        return len(self.edges())

    # ------------------------------------------------------------------
    # Statistics used by the figures
    # ------------------------------------------------------------------
    def maximum_degree(self) -> int:
        """Maximum topology degree of a peer (Figure 1 (a) and (c))."""
        if not self.adjacency:
            return 0
        return max(len(neighbours) for neighbours in self.adjacency.values())

    def average_degree(self) -> float:
        """Average topology degree of a peer (Figure 1 (a) and (c))."""
        if not self.adjacency:
            return 0.0
        return sum(len(neighbours) for neighbours in self.adjacency.values()) / len(
            self.adjacency
        )

    def is_connected(self) -> bool:
        """``True`` when the undirected topology is a single connected component."""
        if not self.adjacency:
            return True
        start = next(iter(self.adjacency))
        seen = {start}
        stack = [start]
        while stack:
            node = stack.pop()
            for neighbour in self.adjacency[node]:
                if neighbour not in seen:
                    seen.add(neighbour)
                    stack.append(neighbour)
        return len(seen) == len(self.adjacency)

    # ------------------------------------------------------------------
    # Export
    # ------------------------------------------------------------------
    def to_networkx(self) -> "nx.Graph":
        """Export the undirected topology as a :class:`networkx.Graph`.

        Node attributes carry the peer coordinates and lifetime, so standard
        networkx algorithms (diameter, centrality, drawing) can be applied
        directly by downstream users.  networkx is the optional ``graph``
        extra and is imported here, by the call that needs it.
        """
        try:
            import networkx as nx
        except ImportError as error:
            raise ImportError("to_networkx() needs networkx: install the 'graph' extra") from error
        graph = nx.Graph()
        for peer_id, info in self.peers.items():
            graph.add_node(
                peer_id,
                coordinates=tuple(info.coordinates),
                lifetime=info.lifetime,
            )
        graph.add_edges_from(self.edges())
        return graph
