"""Unit tests for the workload generators."""

import random

import pytest

from repro.workloads.churn import (
    ChurnEvent,
    departure_schedule,
    interleaved_join_leave_schedule,
    poisson_churn_schedule,
)
from repro.workloads.coordinates import (
    DEFAULT_VMAX,
    clustered_coordinates,
    distinct_uniform_coordinates,
    grid_coordinates,
)
from repro.workloads.lifetimes import battery_lifetimes, lease_lifetimes, uniform_lifetimes
from repro.workloads.peers import generate_peers, generate_peers_with_lifetimes


def assert_distinct_per_axis(points):
    if not points:
        return
    dimension = points[0].dimension
    for axis in range(dimension):
        values = [p[axis] for p in points]
        assert len(set(values)) == len(values)


class TestCoordinateGenerators:
    @pytest.mark.parametrize("count,dimension", [(0, 2), (1, 3), (50, 2), (30, 5)])
    def test_uniform_coordinates_shape_and_distinctness(self, count, dimension):
        points = distinct_uniform_coordinates(count, dimension, seed=1)
        assert len(points) == count
        assert all(p.dimension == dimension for p in points)
        assert_distinct_per_axis(points)

    def test_uniform_coordinates_respect_vmax(self):
        points = distinct_uniform_coordinates(100, 3, vmax=10.0, seed=2)
        assert all(0.0 <= value <= 10.0 for p in points for value in p)

    def test_same_seed_same_points(self):
        a = distinct_uniform_coordinates(20, 2, seed=5)
        b = distinct_uniform_coordinates(20, 2, seed=5)
        c = distinct_uniform_coordinates(20, 2, seed=6)
        assert a == b
        assert a != c

    def test_seed_and_rng_are_mutually_exclusive(self):
        with pytest.raises(ValueError):
            distinct_uniform_coordinates(5, 2, seed=1, rng=random.Random(1))

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            distinct_uniform_coordinates(-1, 2)
        with pytest.raises(ValueError):
            distinct_uniform_coordinates(5, 0)
        with pytest.raises(ValueError):
            distinct_uniform_coordinates(5, 2, vmax=0.0)

    def test_clustered_coordinates(self):
        points = clustered_coordinates(80, 2, clusters=3, seed=4)
        assert len(points) == 80
        assert_distinct_per_axis(points)
        assert all(0.0 <= value <= 1000.0 for p in points for value in p)

    def test_clustered_parameters_validated(self):
        with pytest.raises(ValueError):
            clustered_coordinates(10, 2, clusters=0)
        with pytest.raises(ValueError):
            clustered_coordinates(10, 2, spread=0.0)

    def test_grid_coordinates(self):
        points = grid_coordinates(4, 2, seed=1)
        assert len(points) == 16
        assert_distinct_per_axis(points)

    def test_grid_side_validated(self):
        with pytest.raises(ValueError):
            grid_coordinates(0, 2)


class TestLifetimeGenerators:
    def test_uniform_lifetimes_are_distinct_and_in_range(self):
        lifetimes = uniform_lifetimes(200, horizon=50.0, seed=1)
        assert len(set(lifetimes)) == 200
        assert all(0.0 <= value <= 51.0 for value in lifetimes)

    def test_lease_lifetimes_use_the_given_durations(self):
        lifetimes = lease_lifetimes(50, lease_durations=[10.0], start_horizon=1.0, seed=2)
        assert all(10.0 <= value <= 11.1 for value in lifetimes)
        assert len(set(lifetimes)) == 50

    def test_battery_lifetimes_are_positive(self):
        lifetimes = battery_lifetimes(100, mean=20.0, seed=3)
        assert all(value > 0 for value in lifetimes)
        assert len(set(lifetimes)) == 100

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            uniform_lifetimes(5, horizon=0.0)
        with pytest.raises(ValueError):
            lease_lifetimes(5, lease_durations=[])
        with pytest.raises(ValueError):
            battery_lifetimes(5, mean=-1.0)


class TestChurnSchedules:
    def test_departure_schedule_is_sorted_by_lifetime(self):
        events = departure_schedule([5.0, 1.0, 3.0])
        assert [e.peer_id for e in events] == [1, 2, 0]
        assert all(e.kind == "leave" for e in events)

    def test_poisson_schedule_joins_precede_leaves(self):
        events = poisson_churn_schedule(30, seed=1)
        assert len(events) == 60
        first_event = {}
        for event in events:
            first_event.setdefault(event.peer_id, event.kind)
        assert all(kind == "join" for kind in first_event.values())

    def test_churn_event_validation(self):
        with pytest.raises(ValueError):
            ChurnEvent(time=1.0, peer_id=0, kind="reboot")
        with pytest.raises(ValueError):
            ChurnEvent(time=-1.0, peer_id=0, kind="join")

    def test_move_events_carry_coordinates(self):
        move = ChurnEvent(time=1.0, peer_id=3, kind="move", coordinates=[2.0, 4.0])
        assert move.coordinates == (2.0, 4.0)  # coerced to a tuple
        with pytest.raises(ValueError):
            ChurnEvent(time=1.0, peer_id=3, kind="move")
        with pytest.raises(ValueError):
            ChurnEvent(time=1.0, peer_id=3, kind="join", coordinates=(2.0, 4.0))
        with pytest.raises(ValueError):
            ChurnEvent(time=1.0, peer_id=3, kind="leave", coordinates=(2.0, 4.0))

    def test_mixed_kind_events_stay_sortable(self):
        events = [
            ChurnEvent(time=2.0, peer_id=0, kind="leave"),
            ChurnEvent(time=1.0, peer_id=1, kind="move", coordinates=(0.5, 0.5)),
            ChurnEvent(time=1.0, peer_id=0, kind="join"),
        ]
        # Coordinates are excluded from the ordering, so sorting a mixed
        # list never compares a tuple against None.
        assert [e.time for e in sorted(events)] == [1.0, 1.0, 2.0]

    def test_poisson_parameters_validated(self):
        with pytest.raises(ValueError):
            poisson_churn_schedule(5, arrival_rate=0.0)
        with pytest.raises(ValueError):
            poisson_churn_schedule(5, session_mean=0.0)

    def test_interleaved_schedule_joins_everyone_on_the_paper_cadence(self):
        events = interleaved_join_leave_schedule(10, join_interval=2.0, seed=3)
        joins = {e.peer_id: e.time for e in events if e.kind == "join"}
        assert joins == {i: i * 2.0 for i in range(10)}

    def test_interleaved_schedule_leaves_are_sampled_after_a_holdoff(self):
        events = interleaved_join_leave_schedule(
            20, join_interval=1.0, leave_fraction=0.3, holdoff=5.0, seed=7
        )
        joins = {e.peer_id: e.time for e in events if e.kind == "join"}
        leaves = {e.peer_id: e.time for e in events if e.kind == "leave"}
        assert len(leaves) == int(19 * 0.3)
        # The last joiner stays, so a bootstrap contact always exists.
        assert 19 not in leaves
        for peer_id, departure in leaves.items():
            assert departure >= joins[peer_id] + 5.0

    def test_interleaved_schedule_is_seed_deterministic(self):
        first = interleaved_join_leave_schedule(15, leave_fraction=0.4, seed=5)
        second = interleaved_join_leave_schedule(15, leave_fraction=0.4, seed=5)
        assert first == second

    def test_default_seed_is_explicit_and_deterministic(self):
        # The unseeded default is an explicit seed=0, not hidden state.
        assert poisson_churn_schedule(20) == poisson_churn_schedule(20, seed=0)
        assert interleaved_join_leave_schedule(20) == interleaved_join_leave_schedule(
            20, seed=0
        )

    def test_seed_none_is_honoured_as_nondeterministic(self):
        assert poisson_churn_schedule(20, seed=None) != poisson_churn_schedule(
            20, seed=None
        )
        assert interleaved_join_leave_schedule(
            20, leave_fraction=0.4, seed=None
        ) != interleaved_join_leave_schedule(20, leave_fraction=0.4, seed=None)

    def test_interleaved_parameters_validated(self):
        with pytest.raises(ValueError):
            interleaved_join_leave_schedule(0)
        with pytest.raises(ValueError):
            interleaved_join_leave_schedule(5, join_interval=0.0)
        with pytest.raises(ValueError):
            interleaved_join_leave_schedule(5, leave_fraction=1.0)
        with pytest.raises(ValueError):
            interleaved_join_leave_schedule(5, holdoff=-1.0)
        with pytest.raises(ValueError):
            interleaved_join_leave_schedule(5, seed=1, rng=random.Random(2))


class TestPeerPopulations:
    def test_generate_peers(self):
        peers = generate_peers(25, 3, seed=1)
        assert len(peers) == 25
        assert all(p.dimension == 3 for p in peers)
        assert all(p.lifetime == p.coordinates[0] for p in peers)
        assert len({p.peer_id for p in peers}) == 25

    def test_generate_peers_with_lifetimes_embeds_the_first_coordinate(self):
        peers = generate_peers_with_lifetimes(25, 3, seed=1)
        lifetimes = [p.lifetime for p in peers]
        assert lifetimes == [p.coordinates[0] for p in peers]
        assert all(0.0 <= lifetime <= DEFAULT_VMAX for lifetime in lifetimes)
        assert len(set(lifetimes)) == len(lifetimes)

    def test_one_dimensional_lifetime_population(self):
        peers = generate_peers_with_lifetimes(10, 1, seed=2)
        assert all(p.dimension == 1 for p in peers)
        assert all(p.coordinates[0] == p.lifetime for p in peers)

    def test_dimension_validation(self):
        with pytest.raises(ValueError):
            generate_peers_with_lifetimes(10, 0)
