"""Trace runner: drive churn traces through the batched-epoch overlay path.

:class:`TraceRunner` replays a :class:`~repro.workloads.traces.ChurnTrace`
against a live :class:`~repro.overlay.network.OverlayNetwork` with the full
event-driven observability stack attached -- a
:class:`~repro.multicast.incremental.StabilityTreeMaintainer` (streaming tree
metrics, no snapshot rebuilds) and an
:class:`~repro.multicast.incremental.OverlayConnectivityFeed` (connectivity
from the stability forest's root count, no per-event graph reconstruction)
-- and samples tree health and connectivity once per epoch.  Each batch
goes through :meth:`~repro.overlay.network.OverlayNetwork.apply_batch`, so
an epoch pays **one** convergence and one tree ``refresh()``; the bootstrap
rng is re-seeded per run, so replays of one trace are identical.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass
from typing import Dict, FrozenSet, Iterator, Mapping, Optional, Sequence, Tuple, Union

from repro.experiments.ablations import AblationResult
from repro.experiments.common import derive_seed
from repro.experiments.config import resolve_scale
from repro.geometry.distance import euclidean_distance
from repro.multicast.incremental import OverlayConnectivityFeed, StabilityTreeMaintainer
from repro.overlay.network import (
    BatchEvent,
    BatchJoin,
    BatchLeave,
    BatchMove,
    OverlayNetwork,
)
from repro.overlay.peer import PeerInfo
from repro.overlay.selection.base import NeighbourSelectionMethod
from repro.overlay.selection.empty_rectangle import EmptyRectangleSelection
from repro.workloads.peers import generate_peers_with_lifetimes
from repro.workloads.traces import (
    ChurnTrace,
    EventBatch,
    diurnal_trace,
    flash_crowd_trace,
    mass_departure_trace,
    poisson_trace,
)

__all__ = [
    "EpochSample",
    "TraceRunResult",
    "TraceRunner",
    "TraceScenarioRow",
    "run_trace_scenarios",
    "region_radius_for_fraction",
]


@dataclass(frozen=True)
class EpochSample:
    """Live observations taken after one epoch of a trace replay."""

    epoch: int
    time: float
    events: int
    joins: int
    leaves: int
    moves: int
    rounds: int
    peer_count: int
    connected: bool
    tree_roots: int
    tree_height: int
    tree_maximum_degree: int
    tree_leaf_count: int


@dataclass(frozen=True)
class TraceRunResult:
    """Summary of one trace replay."""

    samples: Tuple[EpochSample, ...]
    total_events: int
    total_rounds: int
    reparent_operations: int
    full_rebuilds: int
    connectivity_rebuilds: int
    wall_seconds: float
    final_neighbours: Dict[int, FrozenSet[int]]
    final_parents: Dict[int, Optional[int]]

    @property
    def epoch_count(self) -> int:
        """Number of epochs sampled (one convergence each)."""
        return len(self.samples)

    @property
    def always_connected(self) -> bool:
        """``True`` when every epoch sample observed a connected overlay."""
        return all(sample.connected for sample in self.samples)

    @property
    def maximum_height(self) -> int:
        """Largest maintained-tree height observed across the epochs."""
        return max((sample.tree_height for sample in self.samples), default=0)

    @property
    def maximum_degree(self) -> int:
        """Largest maintained-tree degree observed across the epochs."""
        return max(
            (sample.tree_maximum_degree for sample in self.samples), default=0
        )


class TraceRunner:
    """Replays churn traces against fresh overlays with live metrics attached.

    ``TraceRunResult.connectivity_rebuilds`` counts the epochs whose
    connectivity query found more than one stability-forest root and fell
    back to a BFS over the links.  Under full knowledge with an orthant rule
    (empty rectangle, orthogonal hyperplanes), one root is a theorem (a
    peer's lifetime is its first coordinate) and the count is 0.

    Parameters
    ----------
    population:
        The peers the trace's event ids refer to (a mapping or a sequence
        indexed by ``peer_id``).  Peers, and the targets of move events,
        should carry distinct first coordinates -- the lifetimes ``T(P)``
        (:func:`repro.workloads.peers.generate_peers_with_lifetimes`) -- so
        the stability tree is well-defined.
    selection_factory:
        Zero-argument callable building the neighbour selection method; a
        fresh instance is created per run so runs never share
        method-internal caches.
    bootstrap_seed:
        Seed of the per-run bootstrap-contact rng, re-seeded per run so
        replays of one trace make identical bootstrap choices.
    """

    def __init__(
        self,
        population: Union[Mapping[int, PeerInfo], Sequence[PeerInfo]],
        selection_factory,
        *,
        gossip_radius: Optional[int] = None,
        bootstrap_seed: int = 0,
        max_rounds: int = 50,
    ) -> None:
        if isinstance(population, Mapping):
            self._population: Dict[int, PeerInfo] = dict(population)
        else:
            self._population = {peer.peer_id: peer for peer in population}
        self._selection_factory = selection_factory
        self._gossip_radius = gossip_radius
        self._bootstrap_seed = bootstrap_seed
        self._max_rounds = max_rounds

    def run(self, trace: ChurnTrace) -> TraceRunResult:
        """Replay one trace from an empty overlay; returns the run summary."""
        trace.validate()
        missing = trace.peer_ids() - set(self._population)
        if missing:
            raise KeyError(
                f"trace references peers missing from the population: "
                f"{sorted(missing)[:10]}"
            )
        selection: NeighbourSelectionMethod = self._selection_factory()
        overlay = OverlayNetwork(selection, gossip_radius=self._gossip_radius)
        maintainer = StabilityTreeMaintainer(overlay)
        feed = OverlayConnectivityFeed(overlay)
        rng = random.Random(self._bootstrap_seed)

        samples = []
        total_rounds = 0
        total_events = 0
        started = time.perf_counter()
        for epoch, batch in enumerate(trace.batches):
            rounds = overlay.apply_batch(
                self._materialize(batch, overlay, rng), max_rounds=self._max_rounds
            )
            maintainer.refresh()
            total_rounds += rounds
            total_events += len(batch.events)
            health = maintainer.engine.health_sample(epoch)
            samples.append(
                EpochSample(
                    epoch=epoch,
                    time=batch.time,
                    events=len(batch.events),
                    joins=batch.join_count,
                    leaves=batch.leave_count,
                    moves=batch.move_count,
                    rounds=rounds,
                    peer_count=overlay.peer_count,
                    connected=feed.is_connected(),
                    tree_roots=health.roots,
                    tree_height=health.height,
                    tree_maximum_degree=health.maximum_degree,
                    tree_leaf_count=health.leaf_count,
                )
            )
        wall_seconds = time.perf_counter() - started
        return TraceRunResult(
            samples=tuple(samples),
            total_events=total_events,
            total_rounds=total_rounds,
            reparent_operations=maintainer.engine.reparent_operations,
            full_rebuilds=maintainer.full_rebuilds,
            connectivity_rebuilds=feed.rebuilds,
            wall_seconds=wall_seconds,
            final_neighbours=overlay.directed_neighbour_map(),
            final_parents=maintainer.engine.parent_map(),
        )

    def _materialize(
        self, batch: EventBatch, overlay: OverlayNetwork, rng: random.Random
    ) -> Iterator[BatchEvent]:
        """Turn churn events into batch events, choosing bootstraps lazily.

        The generator is consumed by :meth:`OverlayNetwork.apply_batch` one
        event at a time, *after* the previous event was applied, so a
        bootstrap contact is drawn from the overlay state the join actually
        sees -- including peers that joined earlier in the same batch,
        exactly as the one-at-a-time procedure would.
        """
        for event in batch.events:
            if event.kind == "join":
                peer = self._population[event.peer_id]
                if overlay.peer_count == 0:
                    yield BatchJoin(peer, bootstrap=frozenset())
                else:
                    yield BatchJoin(
                        peer, bootstrap=frozenset({rng.choice(overlay.peer_ids)})
                    )
            elif event.kind == "move":
                assert event.coordinates is not None  # ChurnEvent validated this
                yield BatchMove(event.peer_id, event.coordinates)
            else:
                yield BatchLeave(event.peer_id)


@dataclass(frozen=True)
class TraceScenarioRow:
    """Per-epoch replay summary of one churn-trace scenario."""

    scenario: str
    dimension: int
    epochs: int
    events: int
    peak_peers: int
    final_peers: int
    engine_rounds: int
    reparent_operations: int
    always_connected: bool
    connectivity_rebuilds: int
    maximum_height: int
    maximum_degree: int
    wall_seconds: float


def region_radius_for_fraction(
    peers: Sequence[PeerInfo],
    center: Sequence[float],
    fraction: float,
    *,
    distance=None,
) -> float:
    """Radius capturing roughly ``fraction`` of ``peers`` around ``center``.

    Used to parameterise :func:`repro.workloads.traces.mass_departure_trace`
    without hand-tuning: the radius lands between the ``fraction``-quantile
    distance and the next one, so the departing region is never empty and
    never the whole population.
    """
    if not 0.0 < fraction < 1.0:
        raise ValueError("fraction must be in (0, 1)")
    if len(peers) < 2:
        raise ValueError("at least two peers are needed to split a region off")
    measure = euclidean_distance if distance is None else distance
    origin = tuple(center)
    distances = sorted(measure(tuple(peer.coordinates), origin) for peer in peers)
    index = max(0, min(len(distances) - 2, int(len(distances) * fraction) - 1))
    return (distances[index] + distances[index + 1]) / 2.0


def run_trace_scenarios(
    scale=None,
    *,
    dimension: int = 3,
) -> Tuple[list, AblationResult]:
    """Replay every trace scenario per-epoch and summarise one row each.

    This is what the ``trace`` CLI subcommand prints: the four scenario
    generators (Poisson, flash crowd, correlated mass departure, diurnal
    wave) at the resolved scale, each driven through the batched-epoch path
    with live tree and connectivity metrics.
    """
    resolved = scale if scale is not None else resolve_scale()
    count = resolved.peer_count
    seed = derive_seed(resolved.seed, 17, dimension, count)
    peers = generate_peers_with_lifetimes(count, dimension, seed=seed)

    scenarios = {
        "poisson": poisson_trace(
            count, session_mean=count / 2.0, epoch_length=count / 12.0, seed=seed
        ),
        "flash-crowd": flash_crowd_trace(
            max(2, count // 2),
            max(2, count // 2),
            epoch_length=max(2, count // 2) / 8.0,
            seed=seed,
        ),
        "mass-departure": mass_departure_trace(
            peers,
            center=tuple(peers[0].coordinates),
            radius=region_radius_for_fraction(
                peers, tuple(peers[0].coordinates), 0.3
            ),
            epoch_length=count / 8.0,
            rejoin_after_epochs=2,
            seed=seed,
        ),
        "diurnal": diurnal_trace(
            count, cycles=2, epochs_per_cycle=8, seed=seed
        ),
    }

    rows = []
    for name, trace in scenarios.items():
        # Diurnal allocates fresh ids beyond the base population when its
        # departed pool runs dry; regrow the population to cover them.
        population = peers
        extra = trace.peer_ids() - {peer.peer_id for peer in peers}
        if extra:
            population = generate_peers_with_lifetimes(
                count + len(extra), dimension, seed=seed
            )
        runner = TraceRunner(
            population, EmptyRectangleSelection, bootstrap_seed=seed
        )
        result = runner.run(trace)
        rows.append(
            TraceScenarioRow(
                scenario=name,
                dimension=dimension,
                epochs=result.epoch_count,
                events=result.total_events,
                peak_peers=max(sample.peer_count for sample in result.samples),
                final_peers=result.samples[-1].peer_count,
                engine_rounds=result.total_rounds,
                reparent_operations=result.reparent_operations,
                always_connected=result.always_connected,
                connectivity_rebuilds=result.connectivity_rebuilds,
                maximum_height=result.maximum_height,
                maximum_degree=result.maximum_degree,
                wall_seconds=result.wall_seconds,
            )
        )

    table = AblationResult(
        name="trace-scenarios",
        headers=(
            "scenario",
            "D",
            "epochs",
            "events",
            "peak peers",
            "final peers",
            "rounds",
            "reparents",
            "connected",
            "fallback scans",
            "max height",
            "max degree",
            "wall [s]",
        ),
        rows=tuple(
            (
                row.scenario,
                row.dimension,
                row.epochs,
                row.events,
                row.peak_peers,
                row.final_peers,
                row.engine_rounds,
                row.reparent_operations,
                row.always_connected,
                row.connectivity_rebuilds,
                row.maximum_height,
                row.maximum_degree,
                f"{row.wall_seconds:.2f}",
            )
            for row in rows
        ),
    )
    return rows, table
