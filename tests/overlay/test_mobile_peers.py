"""Mobile peers: ``move_peer`` on the live overlay paths.

The ROADMAP flagged ``SpatialIndex.move`` as exercised only by the index
unit tests; these schedules drive it through the overlay itself.  A peer's
coordinates drift while the overlay keeps converging incrementally, and the
trajectories must agree everywhere coordinate state is replicated:

* indexed vs scan (``use_index``): the index is re-keyed by ``move_peer``,
  so index-answered selections must equal scan selections at every step;
* engine vs the synchronous-sweep oracle (``sweep_converge`` in
  ``tests/sweep_oracle.py``): a move reaches the engine as ``note_move``, and the
  post-move fixed point is a function of the current coordinates alone.
"""

import random

import pytest
from sweep_oracle import sweep_converge

from repro.overlay.network import OverlayNetwork
from repro.overlay.peer import make_peer
from repro.overlay.selection.empty_rectangle import EmptyRectangleSelection
from repro.overlay.selection.orthogonal import OrthogonalHyperplanesSelection

_SELECTIONS = [
    EmptyRectangleSelection,
    lambda: OrthogonalHyperplanesSelection(k=2),
]


def _population(count, rng, dimension=2):
    """Random peers with pairwise-distinct per-axis coordinates."""
    axes = [rng.sample(range(100 * count), count) for _ in range(dimension)]
    return [
        make_peer(index, tuple(float(axis[index]) / 4 for axis in axes))
        for index in range(count)
    ]


def _drift_schedule(overlay, rng, *, steps, converge=OverlayNetwork.converge):
    """Move random peers (plus a little churn) and converge after each step."""
    for step in range(steps):
        alive = overlay.peer_ids
        roll = rng.random()
        if roll < 0.6:
            mover = rng.choice(alive)
            reference = overlay.peer(rng.choice(alive))
            drift = tuple(
                value + rng.uniform(-40.0, 40.0) + 1e-3 * mover
                for value in reference.coordinates
            )
            overlay.move_peer(mover, drift)
        elif roll < 0.8 and len(alive) > 4:
            overlay.remove_peer(rng.choice(alive))
        else:
            coords = tuple(rng.uniform(0.0, 100.0 * len(alive)) for _ in range(2))
            overlay.add_peer(
                make_peer(max(alive) + 1, coords), bootstrap={rng.choice(alive)}
            )
        converge(overlay)


@pytest.mark.parametrize("selection_factory", _SELECTIONS)
def test_indexed_and_scan_trajectories_agree_under_drift(selection_factory):
    """Coordinate drift keeps the index exact: indexed == scan at every step."""
    seeds = random.Random(11)
    peers = _population(40, seeds)
    arms = {
        use_index: OverlayNetwork.build_incremental(
            peers,
            selection_factory(),
            rng=random.Random(5),
            use_index=use_index,
        )
        for use_index in (True, False)
    }
    schedules = {
        use_index: random.Random(23) for use_index in arms
    }  # identical event streams per arm
    for step in range(30):
        for use_index, overlay in arms.items():
            _drift_schedule(overlay, schedules[use_index], steps=1)
        indexed, scan = arms[True], arms[False]
        assert indexed.directed_neighbour_map() == scan.directed_neighbour_map()
        # The index itself must track the moved coordinates exactly.
        for peer in indexed.peers():
            assert indexed.index.point(peer.peer_id) == peer.coordinates


@pytest.mark.parametrize("selection_factory", _SELECTIONS)
def test_incremental_move_matches_full_sweep_fixed_point(selection_factory):
    """Under drift, engine == sweep oracle after every step, and the last
    fixed point is the fresh equilibrium."""
    peers = _population(32, random.Random(29))
    fast, slow = (
        OverlayNetwork.build_incremental(peers, selection_factory(), rng=random.Random(5))
        for _ in range(2)
    )
    fast_schedule, slow_schedule = random.Random(61), random.Random(61)
    for _ in range(25):
        _drift_schedule(fast, fast_schedule, steps=1)
        _drift_schedule(slow, slow_schedule, steps=1, converge=sweep_converge)
        assert fast.directed_neighbour_map() == slow.directed_neighbour_map()
    equilibrium = OverlayNetwork.build_equilibrium(fast.peers(), selection_factory())
    assert fast.directed_neighbour_map() == equilibrium.directed_neighbour_map()


def test_move_peer_validates_and_returns_new_metadata():
    peers = _population(6, random.Random(3))
    overlay = OverlayNetwork.build_incremental(
        peers, EmptyRectangleSelection(), rng=random.Random(5)
    )
    moved = overlay.move_peer(2, (1.0, 2.0))
    assert moved.coordinates == overlay.peer(2).coordinates
    assert tuple(moved.coordinates) == (1.0, 2.0)
    with pytest.raises(KeyError):
        overlay.move_peer(999, (0.0, 0.0))
    with pytest.raises(ValueError):
        overlay.move_peer(2, (1.0, 2.0, 3.0))


def test_move_touches_the_delta_stream():
    """A move touches the mover, its selectors and its selected targets."""
    peers = _population(10, random.Random(9))
    overlay = OverlayNetwork.build_incremental(
        peers, EmptyRectangleSelection(), rng=random.Random(5)
    )
    recorder = overlay.delta_stream()
    mover = 4
    selectors = {
        other for other in overlay.peer_ids
        if mover in overlay.selected_neighbours(other)
    }
    selected = set(overlay.selected_neighbours(mover))
    overlay.move_peer(mover, (3.0, 4.0))
    delta = recorder.drain()
    assert delta.joined == frozenset() and delta.departed == frozenset()
    assert delta.touched == frozenset({mover} | selectors | selected)
