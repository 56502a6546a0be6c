"""Multicast tree model, validation, repair and metrics.

Both constructions of the paper produce a rooted tree over the peers; this
module is their common representation.  The metrics exposed here are exactly
the quantities Figure 1 reports:

* the longest root-to-leaf path (panel (b)),
* the tree diameter (panel (d)),
* the maximum tree degree of a peer (panel (e), and the ``2^D`` bound stated
  for the space-partitioning construction).

Trees are validated on construction and then support a small *repair API*
(:meth:`MulticastTree.add_leaf`, :meth:`MulticastTree.remove_leaf`,
:meth:`MulticastTree.reparent`) whose operations each preserve the tree
invariants and keep the derived children and depth maps exact -- this is what
the event-driven maintenance engine of :mod:`repro.multicast.incremental`
builds on instead of reconstructing a tree per membership event.
:meth:`MulticastTree.revalidate` re-runs the construction-time checks on
demand, so long repair sequences can be audited cheaply in tests.
"""

from __future__ import annotations

from bisect import insort
from collections import deque
from typing import TYPE_CHECKING, Dict, Iterable, List, Mapping, Optional, Set, Tuple

if TYPE_CHECKING:  # pragma: no cover - typing only
    import networkx as nx

__all__ = ["MulticastTree", "TreeValidationError"]


class TreeValidationError(ValueError):
    """Raised when a parent map does not describe a tree rooted at the root."""


class MulticastTree:
    """A rooted tree over peer ids.

    The tree is stored as a parent map (``parent[root] is None``) plus the
    derived children map.  Instances are fully validated on construction;
    afterwards the only mutation allowed is through the repair API
    (:meth:`add_leaf`, :meth:`remove_leaf`, :meth:`reparent`), whose
    operations each preserve the tree invariants.
    """

    __slots__ = ("_root", "_parents", "_children", "_depths")

    def __init__(self, root: int, parents: Mapping[int, Optional[int]]) -> None:
        if root not in parents:
            raise TreeValidationError(f"root {root} is missing from the parent map")
        if parents[root] is not None:
            raise TreeValidationError(f"root {root} must have no parent")
        self._root = root
        self._parents: Dict[int, Optional[int]] = dict(parents)
        self._children: Dict[int, List[int]] = {node: [] for node in parents}
        for node, parent in self._parents.items():
            if node == root:
                continue
            if parent is None:
                raise TreeValidationError(f"non-root node {node} has no parent")
            if parent not in self._parents:
                raise TreeValidationError(
                    f"node {node} has parent {parent} which is not part of the tree"
                )
            self._children[parent].append(node)
        for children in self._children.values():
            children.sort()
        self._depths = self._compute_depths()
        if len(self._depths) != len(self._parents):
            unreachable = sorted(set(self._parents) - set(self._depths))
            raise TreeValidationError(
                f"nodes {unreachable[:10]} are not reachable from the root "
                f"({len(unreachable)} unreachable in total); the parent map contains a cycle "
                "or a disconnected component"
            )

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------
    @classmethod
    def from_edges(cls, root: int, edges: Iterable[Tuple[int, int]]) -> "MulticastTree":
        """Tree from ``(parent, child)`` edges.

        Every node other than the root must appear exactly once as a child.
        """
        parents: Dict[int, Optional[int]] = {root: None}
        for parent, child in edges:
            if child in parents and parents[child] is not None:
                raise TreeValidationError(f"node {child} has two parents")
            if child == root:
                raise TreeValidationError("the root cannot be a child")
            parents[child] = parent
        missing = {
            parent
            for parent in parents.values()
            if parent is not None and parent not in parents
        }
        if missing:
            raise TreeValidationError(
                f"parents {sorted(missing)} never appear as nodes of the tree"
            )
        return cls(root, parents)

    @classmethod
    def single_node(cls, root: int) -> "MulticastTree":
        """The trivial tree containing only the root."""
        return cls(root, {root: None})

    # ------------------------------------------------------------------
    # Structure accessors
    # ------------------------------------------------------------------
    @property
    def root(self) -> int:
        """The peer that initiated the construction."""
        return self._root

    @property
    def size(self) -> int:
        """Number of peers in the tree."""
        return len(self._parents)

    def nodes(self) -> List[int]:
        """All peer ids in the tree, sorted."""
        return sorted(self._parents)

    def __contains__(self, node: int) -> bool:
        return node in self._parents

    def __len__(self) -> int:
        return len(self._parents)

    def parent(self, node: int) -> Optional[int]:
        """Parent of ``node`` (``None`` for the root)."""
        return self._parents[node]

    def children(self, node: int) -> Tuple[int, ...]:
        """Children of ``node``, sorted by id."""
        return tuple(self._children[node])

    def parent_map(self) -> Dict[int, Optional[int]]:
        """Copy of the underlying parent map."""
        return dict(self._parents)

    def edges(self) -> List[Tuple[int, int]]:
        """All ``(parent, child)`` edges, sorted."""
        return sorted(
            (parent, child)
            for child, parent in self._parents.items()
            if parent is not None
        )

    def leaves(self) -> List[int]:
        """Nodes without children, sorted."""
        return sorted(node for node, children in self._children.items() if not children)

    def is_leaf(self, node: int) -> bool:
        """``True`` if ``node`` has no children."""
        return not self._children[node]

    def subtree_nodes(self, node: int) -> Set[int]:
        """All nodes of the subtree rooted at ``node`` (including ``node``)."""
        result: Set[int] = set()
        stack = [node]
        while stack:
            current = stack.pop()
            result.add(current)
            stack.extend(self._children[current])
        return result

    def path_to_root(self, node: int) -> List[int]:
        """Nodes on the path from ``node`` up to (and including) the root."""
        path = [node]
        current = node
        while self._parents[current] is not None:
            current = self._parents[current]
            path.append(current)
        return path

    # ------------------------------------------------------------------
    # Metrics (the quantities the paper's figures report)
    # ------------------------------------------------------------------
    def depth(self, node: int) -> int:
        """Number of edges on the path from the root to ``node``."""
        return self._depths[node]

    def depths(self) -> Dict[int, int]:
        """Depth of every node."""
        return dict(self._depths)

    def height(self) -> int:
        """Longest root-to-leaf path, in edges (Figure 1 (b))."""
        return max(self._depths.values()) if self._depths else 0

    def degree(self, node: int) -> int:
        """Tree degree of ``node``: children plus the parent link."""
        return len(self._children[node]) + (0 if node == self._root else 1)

    def maximum_degree(self) -> int:
        """Maximum tree degree over all peers (Figure 1 (e))."""
        return max(self.degree(node) for node in self._parents)

    def average_degree(self) -> float:
        """Average tree degree over all peers."""
        return sum(self.degree(node) for node in self._parents) / len(self._parents)

    def diameter(self) -> int:
        """Longest path (in edges) between any two nodes of the tree (Figure 1 (d)).

        Computed with the classic double-BFS: the farthest node from an
        arbitrary start is one endpoint of a diameter, and the farthest node
        from that endpoint gives the diameter length.
        """
        if len(self._parents) <= 1:
            return 0
        adjacency = self._undirected_adjacency()
        endpoint, _ = _farthest(adjacency, self._root)
        _, distance = _farthest(adjacency, endpoint)
        return distance

    def message_count(self) -> int:
        """Messages needed to disseminate one datum over the tree (``N - 1``)."""
        return len(self._parents) - 1

    def metrics_summary(self) -> Dict[str, float]:
        """Height, diameter, degree statistics and leaf count in one pass.

        The separate metric methods each traverse the tree on their own
        (``diameter`` alone runs two BFS passes from scratch); batch callers
        that want the whole Figure 1 bundle go through here instead: one loop
        over the children map collects the degree statistics and the leaf
        count, the stored depths give the height *and* one endpoint of a
        diameter (the deepest node -- depths are BFS distances from the
        root), so a single extra BFS from that endpoint completes the
        diameter.
        """
        degree_sum = 0
        max_degree = 0
        leaves = 0
        for node, children in self._children.items():
            degree = len(children) + (0 if node == self._root else 1)
            degree_sum += degree
            if degree > max_degree:
                max_degree = degree
            if not children:
                leaves += 1
        height = 0
        endpoint = self._root
        for node, depth in self._depths.items():
            if depth > height or (depth == height and node < endpoint):
                height, endpoint = depth, node
        if len(self._parents) <= 1:
            diameter = 0
        else:
            _, diameter = _farthest(self._undirected_adjacency(), endpoint)
        return {
            "height": height,
            "diameter": diameter,
            "max_degree": max_degree,
            "avg_degree": degree_sum / len(self._parents),
            "leaves": leaves,
        }

    # ------------------------------------------------------------------
    # Repair API (used by the event-driven maintenance engine)
    # ------------------------------------------------------------------
    def add_leaf(self, node: int, parent: int) -> None:
        """Attach ``node`` as a new leaf under ``parent``.

        The new node must not be part of the tree yet and the parent must be;
        children lists and depths are updated in place.
        """
        if node in self._parents:
            raise TreeValidationError(f"node {node} is already part of the tree")
        if parent not in self._parents:
            raise TreeValidationError(f"parent {parent} is not part of the tree")
        self._parents[node] = parent
        self._children[node] = []
        insort(self._children[parent], node)
        self._depths[node] = self._depths[parent] + 1

    def remove_leaf(self, node: int) -> None:
        """Detach a leaf from the tree (the root cannot be removed)."""
        if node not in self._parents:
            raise TreeValidationError(f"node {node} is not part of the tree")
        if node == self._root:
            raise TreeValidationError("the root cannot be removed")
        if self._children[node]:
            raise TreeValidationError(
                f"node {node} still has children {tuple(self._children[node][:10])}; "
                "only leaves can be removed"
            )
        parent = self._parents.pop(node)
        self._children[parent].remove(node)
        del self._children[node]
        del self._depths[node]

    def reparent(self, node: int, new_parent: int) -> None:
        """Move ``node`` (and its whole subtree) under ``new_parent``.

        This is the single edge re-parent operation the stability-tree repair
        engine performs when a peer's preferred neighbour changes: the edge
        ``node -> old parent`` is replaced by ``node -> new_parent`` and the
        depths of the moved subtree are shifted accordingly.  Re-parenting
        under a descendant of ``node`` would create a cycle and is rejected.
        """
        if node not in self._parents:
            raise TreeValidationError(f"node {node} is not part of the tree")
        if node == self._root:
            raise TreeValidationError("the root cannot be re-parented")
        if new_parent not in self._parents:
            raise TreeValidationError(f"parent {new_parent} is not part of the tree")
        old_parent = self._parents[node]
        if new_parent == old_parent:
            return
        ancestor: Optional[int] = new_parent
        while ancestor is not None:
            if ancestor == node:
                raise TreeValidationError(
                    f"re-parenting {node} under its descendant {new_parent} "
                    "would create a cycle"
                )
            ancestor = self._parents[ancestor]
        self._children[old_parent].remove(node)
        insort(self._children[new_parent], node)
        self._parents[node] = new_parent
        shift = self._depths[new_parent] + 1 - self._depths[node]
        if shift:
            stack = [node]
            while stack:
                current = stack.pop()
                self._depths[current] += shift
                stack.extend(self._children[current])

    def revalidate(self) -> None:
        """Re-run the construction-time invariant checks on the current state.

        Verifies that the children map is exactly the inverse of the parent
        map, that every node is reachable from the root, and that the stored
        depths match a fresh BFS.  Raises :class:`TreeValidationError` on the
        first violation; a tree only ever mutated through the repair API
        passes by construction, so this is an audit hook for tests and
        debugging, not a routine cost.
        """
        if self._parents.get(self._root, "missing") is not None:
            raise TreeValidationError(f"root {self._root} must be present with no parent")
        derived: Dict[int, List[int]] = {node: [] for node in self._parents}
        for node, parent in self._parents.items():
            if node == self._root:
                continue
            if parent not in self._parents:
                raise TreeValidationError(
                    f"node {node} has parent {parent} which is not part of the tree"
                )
            derived[parent].append(node)
        for node, children in derived.items():
            children.sort()
            if children != self._children[node]:
                raise TreeValidationError(
                    f"children map of node {node} is stale: stored "
                    f"{tuple(self._children[node][:10])}, derived {tuple(children[:10])}"
                )
        depths = self._compute_depths()
        if len(depths) != len(self._parents):
            unreachable = sorted(set(self._parents) - set(depths))
            raise TreeValidationError(
                f"nodes {unreachable[:10]} are not reachable from the root "
                f"({len(unreachable)} unreachable in total)"
            )
        if depths != self._depths:
            stale = sorted(
                node for node, depth in depths.items() if self._depths.get(node) != depth
            )
            raise TreeValidationError(f"stored depths of nodes {stale[:10]} are stale")

    # ------------------------------------------------------------------
    # Export
    # ------------------------------------------------------------------
    def to_networkx(self) -> "nx.DiGraph":
        """Export as a :class:`networkx.DiGraph` (``graph`` extra) with edges parent -> child."""
        try:
            import networkx as nx
        except ImportError as error:
            raise ImportError("to_networkx() needs networkx: install the 'graph' extra") from error
        graph = nx.DiGraph()
        graph.add_nodes_from(self._parents)
        graph.add_edges_from(self.edges())
        return graph

    # ------------------------------------------------------------------
    # Internal helpers
    # ------------------------------------------------------------------
    def _compute_depths(self) -> Dict[int, int]:
        depths = {self._root: 0}
        queue = deque([self._root])
        while queue:
            node = queue.popleft()
            for child in self._children[node]:
                if child not in depths:
                    depths[child] = depths[node] + 1
                    queue.append(child)
        return depths

    def _undirected_adjacency(self) -> Dict[int, List[int]]:
        adjacency: Dict[int, List[int]] = {node: [] for node in self._parents}
        for child, parent in self._parents.items():
            if parent is not None:
                adjacency[child].append(parent)
                adjacency[parent].append(child)
        return adjacency

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"MulticastTree(root={self._root}, size={self.size})"


def _farthest(adjacency: Mapping[int, List[int]], start: int) -> Tuple[int, int]:
    """BFS helper returning the farthest node from ``start`` and its distance."""
    distances = {start: 0}
    queue = deque([start])
    farthest_node, farthest_distance = start, 0
    while queue:
        node = queue.popleft()
        for neighbour in adjacency[node]:
            if neighbour not in distances:
                distances[neighbour] = distances[node] + 1
                if distances[neighbour] > farthest_distance:
                    farthest_node, farthest_distance = neighbour, distances[neighbour]
                queue.append(neighbour)
    return farthest_node, farthest_distance
