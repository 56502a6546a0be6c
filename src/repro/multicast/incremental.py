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
* :class:`OverlayConnectivityFeed` -- overlay connectivity certified by the
  Section 3 rule itself.  Every peer's preferred link goes to a strictly
  longer-lived overlay neighbour, so the links form a forest over every
  alive peer, and at most one *root* (a peer none of whose links outlives
  it) means the overlay is connected.  The feed keeps the lifetimes and
  the root set, re-testing only the peers each drained window names; only
  when more than one root is left does a query run one BFS over the links
  (:attr:`~OverlayConnectivityFeed.rebuilds` counts these fallback scans).
  It replaces the per-event full-graph connectivity recomputation in the
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
from typing import Dict, FrozenSet, Iterable, List, Mapping, Optional, Set, Tuple

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
    """Connectivity of a live overlay, certified by the stability forest's roots.

    Section 3 links every peer to a strictly longer-lived overlay neighbour
    whenever it has one, so following those links from any peer ends at a
    *root* -- a peer none of whose links outlives it -- and every peer is
    connected to some root: at most one root means the overlay is
    connected.  The feed keeps each alive peer's lifetime and the set of
    roots.  Each :meth:`sync` drains the overlay's delta stream, forgets the
    departed peers, refreshes the lifetimes of the alive touched or joined
    ones and re-tests exactly those, reading :meth:`OverlayNetwork.links`
    in place; a non-root usually stops at its first or second link.  With
    more than one root, :meth:`is_connected` answers with one BFS over the
    links, the literal definition, and counts it in :attr:`rebuilds`.
    This is the glue ablation A4 and the churn experiments query between
    events.
    """

    def __init__(self, overlay: OverlayNetwork) -> None:
        self._overlay = overlay
        self._recorder = overlay.delta_stream()
        self._lifetimes: Dict[int, float] = {}
        self._roots: Set[int] = set()
        self._rebuilds = 0
        self._retest(overlay.peer_ids)

    @property
    def tracker(self) -> "OverlayConnectivityFeed":
        """The feed itself, kept because ``benchmarks/ledger`` reads
        ``feed.tracker.rebuilds`` (the counter used to live on a separate
        tracker object)."""
        return self

    @property
    def rebuilds(self) -> int:
        """Fallback BFS scans so far (queries that found more than one root)."""
        return self._rebuilds

    @property
    def root_count(self) -> int:
        """Alive peers none of whose links outlives them, as of the last sync."""
        return len(self._roots)

    def sync(self) -> None:
        """Fold the overlay changes since the last sync into the root set."""
        delta = self._recorder.drain()
        if delta.is_empty:
            return
        # Departures first: a peer that left and rejoined inside the window
        # is re-read below as a fresh peer.
        for peer_id in delta.departed:
            del self._lifetimes[peer_id]
            self._roots.discard(peer_id)
        overlay = self._overlay
        self._retest([p for p in delta.touched | delta.joined if p in overlay])

    def is_connected(self) -> bool:
        """Sync, then read the root count; more than one root runs the BFS."""
        self.sync()
        if len(self._roots) <= 1:
            return True
        self._rebuilds += 1
        links = self._overlay.links
        start = next(iter(self._roots))
        seen = {start}
        stack = [start]
        while stack:
            for other in links(stack.pop()):
                if other not in seen:
                    seen.add(other)
                    stack.append(other)
        return len(seen) == self._overlay.peer_count

    def _retest(self, peer_ids: List[int]) -> None:
        """Refresh these alive peers' lifetimes, then re-test each for rootness.

        A move that changes a peer's lifetime touches its link partners
        too, so their verdicts are re-tested in the same pass.
        """
        peer_of, links_of = self._overlay.peer, self._overlay.links
        lifetimes = self._lifetimes
        for peer_id in peer_ids:
            lifetimes[peer_id] = lifetime_of(peer_of(peer_id))
        roots = self._roots
        for peer_id in peer_ids:
            own_lifetime = lifetimes[peer_id]
            for other in links_of(peer_id):
                if lifetimes[other] > own_lifetime:
                    roots.discard(peer_id)
                    break
            else:
                roots.add(peer_id)
