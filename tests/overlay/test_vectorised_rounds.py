"""Vectorised convergence rounds vs the per-peer loop: byte-identity.

The vectorised round protocol (``CandidateView.plan_round`` + the selection
family's ``install_many`` cohort entry) claims to be a pure re-encoding of
the per-peer ``begin_round``/``delta``/``classify_reselect``/``commit``
loop: same trajectories round by round, same round counts, same fixed
points, same drained delta streams, same maintained stability trees.  These
tests pin that equivalence on every engine arm -- columnar and explicit
candidate state, with and without the spatial index -- over deterministic
epochs and hypothesis-generated churn scripts.  The explicit arms exercise
the documented fallback (``plan_round`` returns ``None`` there, so both
flags must follow the identical per-peer path).
"""

import random

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.multicast.incremental import StabilityTreeMaintainer
from repro.overlay.network import BatchJoin, BatchLeave, BatchMove, OverlayNetwork
from repro.overlay.peer import make_peer
from repro.overlay.selection.empty_rectangle import EmptyRectangleSelection
from repro.overlay.selection.k_closest import KClosestSelection
from repro.overlay.selection.orthogonal import OrthogonalHyperplanesSelection

_ARMS = [
    {"columnar": True, "use_index": True},
    {"columnar": True, "use_index": False},
    {"columnar": False, "use_index": True},
    {"columnar": False, "use_index": False},
]


def _peers(count, dimension=2):
    return [
        make_peer(index, tuple(float(index * dimension + axis) for axis in range(dimension)))
        for index in range(count)
    ]


def _paired(selection_factory, arm):
    """One overlay per flag value, plus a delta stream and tree maintainer each."""
    overlays = tuple(
        OverlayNetwork(selection_factory(), vectorised_rounds=flag, **arm)
        for flag in (True, False)
    )
    streams = tuple(overlay.delta_stream() for overlay in overlays)
    maintainers = tuple(StabilityTreeMaintainer(overlay) for overlay in overlays)
    return overlays, streams, maintainers


# Off both lattices the populations here are drawn from (integers, k/8), so a
# move target never lands on another peer's coordinate on any axis: shared
# per-axis values are outside the paper's distinct-coordinate envelope, where
# the arms may diverge and lifetimes (the first coordinate) may collide.
_MOVE_SHIFT = 0.0625


def _scripted_epochs(peers, seed):
    """A deterministic mixed churn script: joins, leaves, moves, rejoins."""
    rng = random.Random(seed)
    lattice = [
        {peer.coordinates[axis] for peer in peers}
        for axis in range(peers[0].dimension)
    ]
    half = len(peers) // 2
    seed_epoch = [BatchJoin(peer) for peer in peers[:half]]
    epochs = [seed_epoch]
    alive = [peer.peer_id for peer in peers[:half]]
    pending = list(peers[half:])
    departed = []
    while pending or departed:
        epoch = []
        for _ in range(rng.randint(1, 3)):
            action = rng.random()
            if pending and action < 0.5:
                peer = pending.pop()
                bootstrap = {rng.choice(alive)} if alive else set()
                epoch.append(BatchJoin(peer, bootstrap=bootstrap))
                alive.append(peer.peer_id)
            elif departed and action < 0.7:
                peer = departed.pop()
                bootstrap = {rng.choice(alive)} if alive else set()
                epoch.append(BatchJoin(peer, bootstrap=bootstrap))
                alive.append(peer.peer_id)
            elif len(alive) > 2 and action < 0.85:
                victim = alive.pop(rng.randrange(len(alive)))
                epoch.append(BatchLeave(victim))
                departed.append(next(p for p in peers if p.peer_id == victim))
            elif alive:
                mover = rng.choice(alive)
                original = next(p for p in peers if p.peer_id == mover)
                shifted = tuple(value + _MOVE_SHIFT for value in original.coordinates)
                assert all(
                    value not in lattice[axis] for axis, value in enumerate(shifted)
                ), f"move target {shifted} of peer {mover} repeats a per-axis coordinate"
                epoch.append(BatchMove(mover, shifted))
        if epoch:
            epochs.append(epoch)
    return epochs


def _assert_lockstep(overlays, streams, maintainers):
    vec, ref = overlays
    assert vec.directed_neighbour_map() == ref.directed_neighbour_map()
    vec_delta, ref_delta = streams[0].drain(), streams[1].drain()
    assert vec_delta == ref_delta
    for maintainer in maintainers:
        maintainer.refresh()
    assert maintainers[0].forest().preferred == maintainers[1].forest().preferred


class TestVectorisedRoundEquivalence:
    def test_all_arms_stay_in_lockstep_over_a_mixed_script(self):
        for arm in _ARMS:
            overlays, streams, maintainers = _paired(EmptyRectangleSelection, arm)
            for epoch in _scripted_epochs(_peers(24), seed=13):
                rounds = [overlay.apply_batch(epoch) for overlay in overlays]
                assert rounds[0] == rounds[1], arm
                _assert_lockstep(overlays, streams, maintainers)

    def test_non_path_independent_selection_stays_in_lockstep(self):
        # KClosest is not path independent: every stamped window classifies
        # FULL, which exercises the plan's full-mask arm end to end.
        for arm in _ARMS:
            overlays, streams, maintainers = _paired(lambda: KClosestSelection(k=3), arm)
            for epoch in _scripted_epochs(_peers(16), seed=7):
                rounds = [overlay.apply_batch(epoch) for overlay in overlays]
                assert rounds[0] == rounds[1], arm
                _assert_lockstep(overlays, streams, maintainers)

    def test_pure_loss_epochs_exercise_the_skip_arm(self):
        # Departures without gains classify the surviving stamped peers to
        # SKIP unless the lost ids sat in their installed selections.
        for arm in _ARMS:
            overlays, streams, maintainers = _paired(EmptyRectangleSelection, arm)
            peers = _peers(20)
            for overlay in overlays:
                overlay.apply_batch([BatchJoin(peer) for peer in peers])
            _assert_lockstep(overlays, streams, maintainers)
            for victim in (19, 3, 11):
                rounds = [overlay.apply_batch([BatchLeave(victim)]) for overlay in overlays]
                assert rounds[0] == rounds[1], arm
                _assert_lockstep(overlays, streams, maintainers)

    def test_vectorised_flag_defaults_on_and_survives_engine_rebuilds(self):
        overlay = OverlayNetwork(EmptyRectangleSelection())
        overlay.apply_batch([BatchJoin(peer) for peer in _peers(8)])
        # A full sweep drops the lazy engine; the next incremental converge
        # must come back with the same vectorised setting.
        overlay.reselect_round()
        overlay.apply_batch([BatchLeave(0)])
        reference = OverlayNetwork(EmptyRectangleSelection(), vectorised_rounds=False)
        reference.apply_batch([BatchJoin(peer) for peer in _peers(8)])
        reference.reselect_round()
        reference.apply_batch([BatchLeave(0)])
        assert overlay.directed_neighbour_map() == reference.directed_neighbour_map()


def _populations(min_size=4, max_size=14, max_dimension=3):
    @st.composite
    def build(draw):
        count = draw(st.integers(min_value=min_size, max_value=max_size))
        dimension = draw(st.integers(min_value=2, max_value=max_dimension))
        axes = [
            draw(
                st.lists(
                    st.integers(min_value=0, max_value=9999),
                    min_size=count,
                    max_size=count,
                    unique=True,
                )
            )
            for _ in range(dimension)
        ]
        return [
            make_peer(index, tuple(float(axis[index]) / 8 for axis in axes))
            for index in range(count)
        ]

    return build()


@settings(max_examples=30, deadline=None)
@given(
    peers=_populations(),
    selection_factory=st.sampled_from(
        [
            EmptyRectangleSelection,
            lambda: OrthogonalHyperplanesSelection(k=2),
            lambda: KClosestSelection(k=2),
        ]
    ),
    columnar=st.booleans(),
    use_index=st.booleans(),
    script_seed=st.integers(min_value=0, max_value=999),
)
# With moves of +0.25 (on the k/8 lattice) these two failed: the arms diverged
# on a shared per-axis value, and a mover's lifetime collided with a peer's.
@example(
    peers=[
        make_peer(index, point)
        for index, point in enumerate(
            [(0.0, 0.0), (0.125, 0.25), (0.25, 0.375), (0.375, 0.125)]
        )
    ],
    selection_factory=EmptyRectangleSelection,
    columnar=True,
    use_index=True,
    script_seed=1,
)
@example(
    peers=[
        make_peer(index, point)
        for index, point in enumerate(
            [(1.125, 0.5), (0.5, 0.125), (1.0, 1.25), (0.25, 0.625)]
        )
    ],
    selection_factory=EmptyRectangleSelection,
    columnar=False,
    use_index=False,
    script_seed=175,
)
def test_random_churn_scripts_are_byte_identical(
    peers, selection_factory, columnar, use_index, script_seed
):
    """Hypothesis hunt over the full arm grid: maps, rounds, deltas, trees."""
    arm = {"columnar": columnar, "use_index": use_index}
    overlays, streams, maintainers = _paired(selection_factory, arm)
    for epoch in _scripted_epochs(peers, seed=script_seed):
        rounds = [overlay.apply_batch(epoch) for overlay in overlays]
        assert rounds[0] == rounds[1]
        _assert_lockstep(overlays, streams, maintainers)
