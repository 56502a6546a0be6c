"""Event-driven multicast layer: incremental stability-tree maintenance.

The paper's Section 3 guarantee is about what the multicast tree does *under
churn*, yet the snapshot-batch pipeline re-derives the whole
preferred-neighbour forest (:func:`repro.multicast.stability.build_stability_tree`)
from a fresh topology snapshot after every membership event.  This module is
the event-driven replacement: overlay deltas in, single edge repairs out.

Nothing here keeps a copy of the overlay's graph.  The overlay already
maintains the exact undirected links, so both consumers below drain the
delta stream (see :mod:`repro.overlay.incremental`) to learn *which* peers
to look at and then read those peers' links in place, through
:meth:`repro.overlay.network.OverlayNetwork.links` -- always through the
overlay object, never through its private dicts.

* :class:`TreeMaintenanceEngine` -- a mutable preferred-neighbour forest.
  It consumes :class:`TreeDelta` records (peers joined with their lifetimes,
  peers departed, peers whose preferred neighbour changed) and repairs the
  forest in place, re-parenting only the peers named by the delta.  Metrics
  (size, height, max/avg degree, leaf count) are maintained *streaming* by
  :class:`repro.metrics.trees.StreamingTreeMetrics`; only the diameter is
  recomputed lazily, cached per structure version.
* :class:`StabilityTreeMaintainer` -- binds an engine to a live
  :class:`repro.overlay.network.OverlayNetwork`.  Every
  :meth:`~StabilityTreeMaintainer.refresh` applies the drained window's
  departures and joins to the engine, then re-derives the preferred parent
  -- via the *same* rule the snapshot builder uses
  (:func:`repro.multicast.stability.choose_preferred_parent`), over the
  overlay's links and the engine's own lifetimes -- for exactly the peers
  whose adjacency may have changed, and re-issues the links that differ.
* :class:`IncrementalConnectivity` -- a union-find connectivity tracker over
  a graph it *reads* through a neighbour function and never stores.  Its only
  state besides the union-find is the spanning forest whose unions built it,
  kept as a certificate of the component count: :meth:`~IncrementalConnectivity.recheck`
  takes the delta stream's ``touched`` set, drops the certificate edges that
  no longer exist (which is the only thing that dirties the epoch) and marks
  the rechecked nodes *loose* -- the places where new edges can be.  A clean
  query unions the links around loose nodes, and only while more than one
  component is left; a dirty one first resets the union-find to the trees
  of the surviving forest, and scans every node's links only when all that
  leaves the graph split.
  :class:`OverlayConnectivityFeed` is the tracker bound to an overlay; it
  replaces the per-event full-graph connectivity recomputation in the
  overlay-churn ablation (A4).

Invariants the repair engine preserves (and validates on every operation):

1. every maintained link points from a peer to a strictly longer-lived peer
   -- the paper's ``T(parent) > T(child)`` invariant, which also makes
   cycles structurally impossible, so single edge re-parents never need a
   global acyclicity check;
2. the children map is the exact inverse of the parent map, and the stored
   depths are the exact BFS distances from each peer's root;
3. the streaming counters agree with a from-scratch
   :func:`repro.metrics.trees.tree_metrics` over the same forest -- the
   hypothesis cross-checks drive arbitrary join/leave/reselect schedules
   through both paths and assert byte-identical parent maps and metric
   bundles.

Peers whose lifetimes collide are rejected exactly as the snapshot builder
rejects them (the paper assumes pairwise-distinct lifetimes).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, FrozenSet, Iterable, List, Mapping, Optional, Set, Tuple

from repro.metrics.trees import StreamingTreeMetrics, TreeMetrics
from repro.multicast.dissemination import TreeHealthSample
from repro.multicast.stability import (
    PreferredNeighbourForest,
    StabilityTreeBuilder,
    choose_preferred_parent,
    lifetime_of,
)
from repro.multicast.tree import MulticastTree, TreeValidationError, _farthest
from repro.overlay.network import OverlayNetwork

__all__ = [
    "TreeDelta",
    "TreeMaintenanceEngine",
    "StabilityTreeMaintainer",
    "IncrementalConnectivity",
    "OverlayConnectivityFeed",
]


@dataclass(frozen=True)
class TreeDelta:
    """One batch of tree repairs derived from overlay changes.

    ``joined`` maps new peer ids to their lifetimes; ``departed`` lists
    removed peers; ``reparented`` maps a peer to its new preferred neighbour
    (``None`` = no longer-lived neighbour, the peer becomes a root).  The
    engine applies departures first, then joins, then re-parents, so a
    re-join of a departed id and a re-parent onto a freshly joined peer are
    both well-formed inside a single delta.
    """

    joined: Mapping[int, float] = field(default_factory=dict)
    departed: FrozenSet[int] = frozenset()
    reparented: Mapping[int, Optional[int]] = field(default_factory=dict)

    @property
    def is_empty(self) -> bool:
        """``True`` when the delta carries no repairs at all."""
        return not (self.joined or self.departed or self.reparented)


class TreeMaintenanceEngine:
    """A mutable preferred-neighbour forest repaired by :class:`TreeDelta` batches.

    See the module docstring for the invariants every operation preserves.
    The engine is deliberately ignorant of *why* a peer's preferred
    neighbour changed -- the :class:`StabilityTreeMaintainer` derives deltas
    from an overlay, the simulation runner derives them from protocol
    events, and tests drive it directly.
    """

    def __init__(self) -> None:
        self._parents: Dict[int, Optional[int]] = {}
        self._children: Dict[int, Set[int]] = {}
        self._lifetimes: Dict[int, float] = {}
        self._lifetime_values: Set[float] = set()
        self._roots: Set[int] = set()
        self._metrics = StreamingTreeMetrics()
        self._version = 0
        self._diameter_cache: Tuple[int, int] = (-1, 0)
        self._reparent_operations = 0
        self._applied_deltas = 0

    # ------------------------------------------------------------------
    # Structure accessors
    # ------------------------------------------------------------------
    def __contains__(self, peer_id: int) -> bool:
        return peer_id in self._parents

    def __len__(self) -> int:
        return len(self._parents)

    @property
    def peer_count(self) -> int:
        """Number of maintained peers."""
        return len(self._parents)

    @property
    def reparent_operations(self) -> int:
        """Single edge repairs performed since the last bootstrap."""
        return self._reparent_operations

    @property
    def applied_deltas(self) -> int:
        """Delta batches applied since the last bootstrap."""
        return self._applied_deltas

    def parent(self, peer_id: int) -> Optional[int]:
        """Current preferred neighbour of one peer (``None`` for roots)."""
        return self._parents[peer_id]

    def parent_map(self) -> Dict[int, Optional[int]]:
        """Copy of the maintained preferred-neighbour map."""
        return dict(self._parents)

    def lifetime(self, peer_id: int) -> float:
        """Lifetime the peer was registered with."""
        return self._lifetimes[peer_id]

    def roots(self) -> List[int]:
        """Peers without a preferred neighbour, sorted."""
        return sorted(self._roots)

    def is_single_tree(self) -> bool:
        """``True`` when the forest is one tree covering every maintained peer."""
        return len(self._roots) <= 1

    def forest(self) -> PreferredNeighbourForest:
        """The maintained forest as an immutable snapshot value."""
        return PreferredNeighbourForest(
            preferred=dict(self._parents), lifetimes=dict(self._lifetimes)
        )

    def tree(self) -> MulticastTree:
        """The maintained forest as a :class:`MulticastTree` (single tree required)."""
        return self.forest().to_multicast_tree()

    # ------------------------------------------------------------------
    # Bootstrap and repair operations
    # ------------------------------------------------------------------
    def bootstrap(self, forest: PreferredNeighbourForest) -> None:
        """Adopt a snapshot-built forest wholesale, discarding all prior state.

        This is the one full-rebuild entry point; everything after it goes
        through :meth:`apply`.  Links are attached top-down from the roots so
        the adoption costs ``O(N)`` subtree shifts overall.
        """
        self.__init__()
        for peer_id in sorted(forest.preferred):
            self.add_peer(peer_id, forest.lifetimes[peer_id])
        children: Dict[int, List[int]] = {}
        for child, parent in forest.preferred.items():
            if parent is not None:
                children.setdefault(parent, []).append(child)
        stack = [root for root, parent in forest.preferred.items() if parent is None]
        attached = len(stack)
        while stack:
            parent = stack.pop()
            for child in children.get(parent, ()):
                self.set_parent(child, parent)
                attached += 1
                stack.append(child)
        if attached != len(self._parents):
            raise TreeValidationError(
                "the adopted forest contains a cycle: "
                f"{len(self._parents) - attached} peers unreachable from any root"
            )
        # Adoption is not incremental repair work; reset the counters.
        self._reparent_operations = 0
        self._applied_deltas = 0

    def add_peer(self, peer_id: int, lifetime: float) -> None:
        """Register a peer as a fresh isolated root."""
        if peer_id in self._parents:
            raise ValueError(f"peer {peer_id} is already maintained")
        lifetime = float(lifetime)
        if lifetime in self._lifetime_values:
            raise ValueError(
                "peer lifetimes must be pairwise distinct (the paper breaks ties "
                "using other peer-specific properties before running the algorithm); "
                f"lifetime {lifetime!r} of peer {peer_id} collides"
            )
        self._parents[peer_id] = None
        self._children[peer_id] = set()
        self._lifetimes[peer_id] = lifetime
        self._lifetime_values.add(lifetime)
        self._roots.add(peer_id)
        self._metrics.add_node(peer_id, depth=0, has_parent=False)
        self._version += 1

    def remove_peer(self, peer_id: int) -> None:
        """Remove a peer; any children it still has become roots.

        Under lifetime-ordered departures the stability invariant makes the
        departing peer a leaf, so the orphaning path never runs; it exists
        for arbitrary schedules (and for the protocol replay, where a
        departure notice can overtake the children's re-parent events).
        """
        if peer_id not in self._parents:
            raise KeyError(f"peer {peer_id} is not maintained")
        for child in sorted(self._children[peer_id]):
            self.set_parent(child, None)
        self.set_parent(peer_id, None)
        self._roots.discard(peer_id)
        del self._parents[peer_id]
        del self._children[peer_id]
        self._lifetime_values.discard(self._lifetimes.pop(peer_id))
        self._metrics.remove_node(peer_id)
        self._version += 1

    def set_parent(self, child: int, parent: Optional[int]) -> None:
        """Single edge repair: replace ``child``'s preferred-neighbour link.

        Validates the lifetime invariant (``T(parent) > T(child)``), which
        also rules out cycles: every link strictly increases the lifetime, so
        no descendant of ``child`` can ever be its parent.  Depths of the
        moved subtree are shifted in place.
        """
        if child not in self._parents:
            raise KeyError(f"peer {child} is not maintained")
        old = self._parents[child]
        if old == parent:
            return
        if parent is not None:
            if parent not in self._parents:
                raise TreeValidationError(f"parent {parent} is not maintained")
            if not self._lifetimes[parent] > self._lifetimes[child]:
                raise TreeValidationError(
                    f"link {child} -> {parent} violates the lifetime invariant: "
                    f"T({parent})={self._lifetimes[parent]!r} must exceed "
                    f"T({child})={self._lifetimes[child]!r}"
                )
        if old is None:
            self._roots.discard(child)
        else:
            self._children[old].discard(child)
            self._metrics.adjust_children(old, -1)
        self._parents[child] = parent
        if parent is None:
            self._roots.add(child)
            new_depth = 0
        else:
            self._children[parent].add(child)
            self._metrics.adjust_children(parent, +1)
            new_depth = self._metrics.depth(parent) + 1
        self._metrics.set_parent_flag(child, parent is not None)
        shift = new_depth - self._metrics.depth(child)
        if shift:
            stack = [child]
            while stack:
                node = stack.pop()
                self._metrics.set_depth(node, self._metrics.depth(node) + shift)
                stack.extend(self._children[node])
        self._version += 1
        self._reparent_operations += 1

    def apply(self, delta: TreeDelta) -> None:
        """Apply one repair batch: departures, then joins, then re-parents.

        A peer may appear in all three groups at once -- a departure
        followed by a re-join inside one delta window, with the rejoined
        peer's fresh preferred parent -- because the phases run in that
        order.  Only a re-parent of a peer that departs *without* rejoining
        is contradictory and rejected.
        """
        overlap = (set(delta.departed) - set(delta.joined)) & set(delta.reparented)
        if overlap:
            raise ValueError(
                f"peers {sorted(overlap)[:10]} appear both departed and re-parented"
            )
        self.apply_membership(delta.departed, delta.joined)
        self.apply_reparents(delta.reparented)

    def apply_membership(
        self, departed: Iterable[int], joined: Mapping[int, float]
    ) -> None:
        """First half of a batch: departures, then joins.

        Split out for callers that derive the re-parents from the forest as
        it stands *after* the membership change (the
        :class:`StabilityTreeMaintainer` reads the lifetimes of freshly
        joined peers, and the orphaning of a departed parent's children,
        straight from the engine); :meth:`apply_reparents` closes the batch.
        """
        for peer_id in sorted(departed):
            self.remove_peer(peer_id)
        for peer_id in sorted(joined):
            self.add_peer(peer_id, joined[peer_id])

    def apply_reparents(self, reparented: Mapping[int, Optional[int]]) -> None:
        """Second half of a batch: the re-parents; counts the batch applied."""
        for peer_id in sorted(reparented):
            self.set_parent(peer_id, reparented[peer_id])
        self._applied_deltas += 1

    # ------------------------------------------------------------------
    # Streaming metrics
    # ------------------------------------------------------------------
    def diameter(self) -> int:
        """Tree diameter, recomputed lazily and cached per structure version.

        The diameter has no local update rule under re-parents, so it is the
        one quantity the engine recomputes (double BFS) -- but only when the
        structure actually changed since the cached value.
        """
        if len(self._roots) != 1:
            raise TreeValidationError(
                f"the forest has {len(self._roots)} roots; the diameter is only "
                "defined for a single tree"
            )
        version, value = self._diameter_cache
        if version == self._version:
            return value
        if len(self._parents) <= 1:
            value = 0
        else:
            adjacency: Dict[int, List[int]] = {node: [] for node in self._parents}
            for child, parent in self._parents.items():
                if parent is not None:
                    adjacency[child].append(parent)
                    adjacency[parent].append(child)
            endpoint, _ = _farthest(adjacency, next(iter(self._roots)))
            _, value = _farthest(adjacency, endpoint)
        self._diameter_cache = (self._version, value)
        return value

    def metrics(self) -> TreeMetrics:
        """The full metric bundle of the maintained tree (single tree required).

        Everything except the diameter reads straight from the streaming
        counters; the result is bit-identical to
        ``tree_metrics(build_stability_tree(snapshot))`` on the equivalent
        snapshot, which the property tests assert.
        """
        if len(self._roots) != 1:
            raise TreeValidationError(
                f"the forest has {len(self._roots)} roots, not one; "
                "metrics bundles describe a single tree"
            )
        return self._metrics.bundle(diameter=self.diameter())

    def health_sample(self, event: int) -> TreeHealthSample:
        """One cheap "tree health" observation (valid for forests too)."""
        return TreeHealthSample(
            event=event,
            size=self._metrics.size,
            roots=len(self._roots),
            height=self._metrics.height(),
            maximum_degree=self._metrics.maximum_degree(),
            leaf_count=self._metrics.leaf_count,
        )


class StabilityTreeMaintainer:
    """Keeps a :class:`TreeMaintenanceEngine` in lockstep with a live overlay.

    The maintainer subscribes to the overlay's delta stream at construction,
    bootstraps the engine from one snapshot build (the only full rebuild),
    and from then on :meth:`refresh` turns each drained
    :class:`~repro.overlay.incremental.OverlayDelta` into the minimal
    :class:`TreeDelta`: the preferred parent is re-derived -- with the exact
    snapshot-builder rule -- only for peers whose adjacency may have
    changed, and only actual changes reach the engine.

    It keeps no graph of its own: a touched peer's adjacency is one
    ``O(degree)`` :meth:`~repro.overlay.network.OverlayNetwork.links` read
    and the lifetimes are the engine's, so a refresh costs time proportional
    to the overlay churn, not to the population.
    """

    def __init__(self, overlay: OverlayNetwork) -> None:
        self._overlay = overlay
        self._engine = TreeMaintenanceEngine()
        # Attach before reading the snapshot: events that land in between are
        # both in the snapshot and in the first drain, and re-deriving a
        # clean peer's parent from current state is harmless by contract.
        self._recorder = overlay.delta_stream()
        self._full_rebuilds = 0
        self.rebuild()

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def engine(self) -> TreeMaintenanceEngine:
        """The maintained engine (forest, streaming metrics, counters)."""
        return self._engine

    @property
    def full_rebuilds(self) -> int:
        """Snapshot-scale rebuilds performed (1 = only the bootstrap)."""
        return self._full_rebuilds

    def forest(self) -> PreferredNeighbourForest:
        """Immutable snapshot of the maintained forest."""
        return self._engine.forest()

    def tree(self) -> MulticastTree:
        """The maintained stability tree (single tree required)."""
        return self._engine.tree()

    def metrics(self) -> TreeMetrics:
        """Streaming metric bundle of the maintained tree."""
        return self._engine.metrics()

    # ------------------------------------------------------------------
    # Maintenance
    # ------------------------------------------------------------------
    def rebuild(self) -> None:
        """Force one snapshot-scale rebuild (used at bootstrap only).

        Drains the recorder first so the rebuilt state is not immediately
        dirtied by its own history.
        """
        self._recorder.drain()
        forest = StabilityTreeBuilder().build(self._overlay.snapshot())
        self._engine.bootstrap(forest)
        self._full_rebuilds += 1

    def refresh(self) -> TreeDelta:
        """Drain the overlay delta stream and repair the tree accordingly.

        Returns the applied :class:`TreeDelta` (empty when nothing relevant
        happened), so callers can log or assert on the repair traffic.
        """
        overlay = self._overlay
        engine = self._engine
        raw = self._recorder.drain()
        if raw.is_empty:
            return TreeDelta()

        # Membership: net joins/leaves relative to what the engine holds,
        # applied before any parent is derived -- the engine's own lifetime
        # dict then covers every alive peer the rule can read, and a
        # departed parent's children are already orphaned, so a link onto a
        # departed-and-rejoined id compares unequal below and is re-issued
        # onto the fresh instance without a special case.  A peer whose
        # lifetime changed (a move of a peer without a declared lifetime
        # changes its first coordinate) is a departure plus a join too; a
        # move touches the mover, so checking the touched peers finds it.
        lifetimes = engine._lifetimes  # noqa: SLF001 - maintainer is a friend class
        departed = {p for p in raw.departed if p in engine}
        joined = {
            p: lifetime_of(overlay.peer(p))
            for p in raw.joined
            if p in overlay and (p in departed or p not in engine)
        }
        for peer_id in raw.touched:
            if peer_id in lifetimes and peer_id not in departed and peer_id in overlay:
                lifetime = lifetime_of(overlay.peer(peer_id))
                if lifetime != lifetimes[peer_id]:
                    departed.add(peer_id)
                    joined[peer_id] = lifetime
        engine.apply_membership(departed, joined)

        # Re-derive the preferred parent of every possibly-affected peer
        # with the snapshot builder's rule; only actual changes are applied.
        reparented: Dict[int, Optional[int]] = {}
        for peer_id in raw.touched | raw.joined:
            if peer_id not in overlay:
                continue
            parent = choose_preferred_parent(peer_id, overlay.links(peer_id), lifetimes)
            if parent != engine.parent(peer_id):
                reparented[peer_id] = parent

        delta = TreeDelta(joined=joined, departed=frozenset(departed), reparented=reparented)
        if not delta.is_empty:
            engine.apply_reparents(reparented)
        return delta


class OverlayConnectivityFeed:
    """Keeps an :class:`IncrementalConnectivity` in sync with a live overlay.

    The tracker reads the overlay's undirected links in place; the feed
    subscribes to the overlay's delta stream and tells the tracker where to
    look -- departed peers removed, unknown alive ones added, every alive
    touched peer rechecked -- so a connectivity query after a membership
    event costs the tracker's union/repair work instead of a full topology
    snapshot plus graph traversal per event.  This is the glue ablation A4
    and the churn experiments query between events.
    """

    def __init__(self, overlay: OverlayNetwork) -> None:
        self._overlay = overlay
        self._recorder = overlay.delta_stream()
        self.tracker = IncrementalConnectivity(overlay.links)
        peer_ids = overlay.peer_ids
        for peer_id in peer_ids:
            self.tracker.add_node(peer_id)
        # Every node loose: the first query unions the edges found there.
        self.tracker.recheck(peer_ids)

    def sync(self) -> None:
        """Fold the overlay changes since the last sync into the tracker."""
        delta = self._recorder.drain()
        if delta.is_empty:
            return
        overlay = self._overlay
        tracker = self.tracker
        # Departures first: a peer that left and rejoined inside the window
        # comes back as a fresh node, certified by its new edges only.
        for peer_id in delta.departed:
            if peer_id in tracker:
                tracker.remove_node(peer_id)
        alive = [p for p in delta.touched | delta.joined if p in overlay]
        for peer_id in alive:
            if peer_id not in tracker:
                tracker.add_node(peer_id)
        tracker.recheck(alive)

    def is_connected(self) -> bool:
        """Sync, then ask the tracker."""
        self.sync()
        return self.tracker.is_connected()


class IncrementalConnectivity:
    """Connectivity of a dynamic graph it reads but does not store.

    The graph lives with its owner; the tracker is built over a *neighbour
    function* (``node -> iterable of the nodes it is linked to``, undirected)
    and keeps only the node set, a union-find over it, and the *forest*: the
    edges whose union merged two classes, as per-node forest-neighbour sets.
    The forest is a spanning forest of the graph as of the last query --
    ``forest edges == node_count - component_count()`` whenever the
    structure is clean -- and so the certificate of the component count.

    The owner reports changes the way the overlay's delta stream does -- by
    naming the nodes whose links may have changed, both endpoints of every
    added or removed edge -- through :meth:`recheck`, which

    * drops the forest edges of a rechecked node that no longer exist, marks
      their far endpoints *loose* and the epoch dirty (an edge **outside**
      the forest can vanish without changing any component, so it dirties
      nothing -- and nothing even looks at it);
    * marks the rechecked node itself loose: the only places a *new* edge
      can be.

    A forest edge that vanishes without either endpoint being rechecked (or
    removed) is out of contract: the tracker would keep certifying with it.

    Queries read the graph as it is *then*.  A clean query with a single
    component ignores the loose nodes (no new edge can merge anything); with
    more, it unions the links around them.  A dirty query *repairs* the
    certificate (:attr:`rebuilds` counts these, one per queried batch of
    certificate deletions): the union-find is reset to the trees of the
    surviving forest (one walk over at most ``N - 1`` edges), then fed the
    links around loose nodes, stopping once one component is left.  Only
    when those local stages leave a split does the repair scan the links of
    every node (:attr:`full_scans`), with the same early exit; the fallback
    is what keeps the answer exact -- a replacement edge need not touch a
    loose node (a chord around the cut does not) -- because whatever the
    full scan leaves split is split.
    """

    def __init__(self, links_of: Callable[[int], Iterable[int]]) -> None:
        self._links_of = links_of
        # Forest-neighbour sets; the keys are the tracked nodes.
        self._forest: Dict[int, Set[int]] = {}
        self._uf_parent: Dict[int, int] = {}
        self._uf_rank: Dict[int, int] = {}
        self._components = 0
        self._dirty = False
        self._loose: Set[int] = set()
        self._rebuilds = 0
        self._edges_scanned = 0
        self._full_scans = 0

    # ------------------------------------------------------------------
    # Mutations
    # ------------------------------------------------------------------
    def add_node(self, node: int) -> None:
        """Track a new node, isolated until a :meth:`recheck` names it."""
        if node in self._forest:
            raise ValueError(f"node {node} is already tracked")
        self._forest[node] = set()
        self._uf_parent[node] = node
        self._uf_rank[node] = 0
        self._components += 1

    def remove_node(self, node: int) -> None:
        """Forget a node (its links are the owner's to drop).

        Dirties the epoch when the node carried a forest edge -- in a clean
        structure, whenever it had any edge at the last query -- and marks
        the far endpoints of those forest edges loose.
        """
        forest = self._forest
        try:
            certified = forest.pop(node)
        except KeyError:
            raise KeyError(f"node {node} is not tracked") from None
        if certified:
            for other in certified:
                forest[other].discard(node)
            self._loose |= certified
            self._dirty = True
        if not self._dirty:
            # Only a node without forest edges -- its own class in the
            # union-find -- can leave a clean epoch clean.
            self._components -= 1
        self._loose.discard(node)
        self._uf_parent.pop(node, None)
        self._uf_rank.pop(node, None)

    def recheck(self, nodes: Iterable[int]) -> None:
        """The links of these tracked nodes may have changed; see the class docstring."""
        forest = self._forest
        loose = self._loose
        links_of = self._links_of
        for node in nodes:
            try:
                certified = forest[node]
            except KeyError:
                raise KeyError(f"node {node} is not tracked") from None
            if certified:
                gone = certified.difference(links_of(node))
                if gone:
                    certified -= gone
                    for other in gone:
                        forest[other].discard(node)
                    loose |= gone
                    self._dirty = True
            loose.add(node)

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def __contains__(self, node: int) -> bool:
        return node in self._forest

    @property
    def node_count(self) -> int:
        """Number of tracked nodes."""
        return len(self._forest)

    @property
    def rebuilds(self) -> int:
        """Certificate repairs so far (one per queried batch of forest deletions)."""
        return self._rebuilds

    @property
    def edges_scanned(self) -> int:
        """Edges fed to the union-find inside dirty queries, over all repairs:
        the surviving forest's plus every link a repair tried to union."""
        return self._edges_scanned

    @property
    def full_scans(self) -> int:
        """Repairs whose local stages left a split and scanned every node's links."""
        return self._full_scans

    def component_count(self) -> int:
        """Number of connected components (repairing first if dirty)."""
        self._ensure_clean()
        return self._components

    def is_connected(self) -> bool:
        """``True`` when the graph is empty or one connected component."""
        self._ensure_clean()
        return self._components <= 1

    def same_component(self, first: int, second: int) -> bool:
        """``True`` when both tracked nodes lie in one component."""
        for node in (first, second):
            if node not in self._forest:
                raise KeyError(f"node {node} is not tracked")
        self._ensure_clean()
        return self._find(first) == self._find(second)

    # ------------------------------------------------------------------
    # Internal union-find helpers
    # ------------------------------------------------------------------
    def _ensure_clean(self) -> None:
        if not self._dirty:
            self._absorb_around(self._loose)
            self._loose.clear()
            return
        # Reset the union-find to the surviving forest's trees: one walk per
        # tree, every member pointing straight at its root -- what unioning
        # the tree's edges one by one would compress to.
        forest = self._forest
        parent: Dict[int, int] = {}
        components = 0
        for root in forest:
            if root in parent:
                continue
            components += 1
            parent[root] = root
            stack = [root]
            while stack:
                for other in forest[stack.pop()]:
                    if other not in parent:
                        parent[other] = root
                        stack.append(other)
        self._uf_parent = parent
        self._uf_rank = dict.fromkeys(forest, 1)
        self._components = components
        scanned = len(forest) - components  # the forest's edges
        scanned += self._absorb_around(self._loose)
        if self._components > 1:
            self._full_scans += 1
            scanned += self._absorb_around(forest)
        self._loose.clear()
        self._edges_scanned += scanned
        self._dirty = False
        self._rebuilds += 1

    def _absorb_around(self, nodes: Iterable[int]) -> int:
        """Union the links of ``nodes`` until one component is left.

        Merging links join the forest.  Returns the number of unions
        attempted.
        """
        attempted = 0
        forest = self._forest
        links_of = self._links_of
        for node in nodes:
            if self._components <= 1:
                break
            links = links_of(node)
            other = None
            try:
                for other in links:
                    attempted += 1
                    if self._union(node, other):
                        forest[node].add(other)
                        forest[other].add(node)
                        self._components -= 1
            except KeyError:
                raise KeyError(
                    f"the neighbour function links node {node} to node {other}, "
                    "which is not tracked"
                ) from None
        return attempted

    def _find(self, node: int) -> int:
        parent = self._uf_parent
        root = node
        while parent[root] != root:
            root = parent[root]
        while parent[node] != root:
            parent[node], node = root, parent[node]
        return root

    def _union(self, first: int, second: int) -> bool:
        root_a, root_b = self._find(first), self._find(second)
        if root_a == root_b:
            return False
        rank = self._uf_rank
        if rank[root_a] < rank[root_b]:
            root_a, root_b = root_b, root_a
        self._uf_parent[root_b] = root_a
        if rank[root_a] == rank[root_b]:
            rank[root_a] += 1
        return True
