"""Benchmark: the full-knowledge incremental engine at scale, in absolute numbers.

The road-to-100k bottleneck was never selection -- the vectorised skyline
rules and the spatial index already took that out -- it was the *engine
bookkeeping* around each membership event and each round.  The columnar
candidate state bumps a population epoch and appends one log entry per
event (O(1)) and classifies a round as numpy verdict columns, so both are
held here to absolute budgets (ROADMAP aim 1), each run ending on sampled
references against the literal per-orthant skyline:

* ``BENCH_engine_columnar_convergence.json`` -- a bulk join at N = 10k while
  a live engine tracks history (the engine's share of it timed on its own),
  then the first convergence;
* ``BENCH_engine_columnar_trace.json`` -- a constant-population churn trace
  at N = 10k (20k events at bench scale, 100k at paper scale) in events per
  second, with ``peak_rss_mb`` and the wall of five single-join rounds, the
  O(alive)-per-round install term: every alive peer gains the joiner, and
  the whole population resolves as one ``AdditiveCohort``.

The fixed-size smoke test is *not* slow-marked: it is the PR-CI guard that
the engine converges to the paper's fixed point at N ~ 2k (sampled
references against the brute-force definition, a sweep that changes
nothing, the equilibrium witness on a prefix), adopts a populated overlay
after that sweep dropped it, and replays a churn epoch -- on every pull
request, not just in the weekly job.
"""

import random
import time
from itertools import product

import pytest
from conftest import peak_rss_mb, persist_bench_record, print_report

from repro.experiments.common import derive_seed
from repro.geometry.index import brute_force_orthant_skyline
from repro.metrics.reporting import format_table
from repro.overlay.network import OverlayNetwork
from repro.overlay.selection.empty_rectangle import EmptyRectangleSelection
from repro.workloads.coordinates import DEFAULT_VMAX
from repro.workloads.peers import generate_peers, make_peer

#: Peers installed (and converged) before the timed bulk-join phase, so the
#: engine's notes land on a view that tracks history.
_SEED_POPULATION = 64
#: The smoke test pins its size: it is the PR-CI engine guard and must cost
#: the same regardless of REPRO_SCALE.
_SMOKE_SIZE = 2000
#: References held against the literal definition (~10 ms each at N = 2000,
#: ~50 ms at N = 10k), and the prefix on which the O(N^2) equilibrium witness
#: is still cheap (1.5 s at 500; 6.5-10 s at 1000, 25-38 s at 2000).
_REFERENCES = 128
_SMOKE_WITNESS_SIZE = 500
#: Both slow tests run at one N above smoke scale, the one their budgets were
#: sized at (N = 20k measured 0.11 s of notes and a 14.0 s first convergence
#: at 187 MB); paper scale lengthens the trace instead.
_SIZES = {"smoke": 2000, "bench": 10000, "paper": 10000}
_TRACE_EVENTS = {"smoke": 10000, "bench": 20000, "paper": 100000}
#: Events per trace epoch: half leaves, half fresh joins, then converge.
_EPOCH_EVENTS = 2000
#: Single-join rounds timed after the trace (see the module docstring).
_PROTOCOL_ROUNDS = 5
#: Budgets.  Measured at N = 10k on the build box: engine notes of the bulk
#: join 0.020-0.030 s, first convergence 2.5-3.7 s (2 rounds); the trace
#: 556-641 events/s at 130-156 MB.  The slack is for slower runners, not for
#: drift.
_NOTES_BUDGET_SECONDS = 0.1
_CONVERGE_BUDGET_SECONDS = 10.0
_EVENTS_PER_SECOND_FLOOR = 250.0
_PEAK_RSS_BUDGET_MB = 400.0


def _instrument_notes(overlay):
    """Accumulate wall-clock spent inside the live engine's membership notes.

    The engine bookkeeping (``note_join``/``note_leave``/``note_move``) is
    exactly the per-event phase the columnar representation collapses to
    O(1); everything else ``add_peer``/``remove_peer`` does per event --
    peer map, spatial-index maintenance, selector index, recorders -- is
    not the engine's and would only dilute the number.  Returns a one-key
    box updated in place as events flow.
    """
    box = {"seconds": 0.0}
    engine = overlay._engine  # the engine has no public getter; benchmark-only
    for name in ("note_join", "note_leave", "note_move"):
        original = getattr(engine, name)

        def timed(*args, _original=original, **kwargs):
            started = time.perf_counter()
            result = _original(*args, **kwargs)
            box["seconds"] += time.perf_counter() - started
            return result

        setattr(engine, name, timed)
    return box


def _seeded_overlay(peers):
    """An overlay whose live engine tracks the first _SEED_POPULATION peers,
    the timed bulk join of the remainder (every add_peer lands a bookkeeping
    event on the candidate view) and the timed first convergence."""
    overlay = OverlayNetwork(EmptyRectangleSelection())
    for peer in peers[:_SEED_POPULATION]:
        overlay.add_peer(peer)
    overlay.converge(incremental=True, max_rounds=80)
    notes = _instrument_notes(overlay)
    started = time.perf_counter()
    for peer in peers[_SEED_POPULATION:]:
        overlay.add_peer(peer)
    join_seconds = time.perf_counter() - started
    started = time.perf_counter()
    rounds = overlay.converge(incremental=True, max_rounds=80)
    converge_seconds = time.perf_counter() - started
    return overlay, notes["seconds"], join_seconds, converge_seconds, rounds


def _assert_sampled_references(overlay, seed, count=_REFERENCES):
    """Sampled selections equal the literal per-orthant skyline of the alive
    population -- the definition, independent of kernel and engine."""
    points = {peer.peer_id: peer.coordinates for peer in overlay.peers()}
    for peer_id in random.Random(seed).sample(sorted(points), count):
        expected = set()
        for signs in product((-1, 1), repeat=2):
            expected.update(
                brute_force_orthant_skyline(points, points[peer_id], signs, exclude=(peer_id,))
            )
        assert overlay.selected_neighbours(peer_id) == expected


def _per_axis_values(peers):
    """The coordinate values in play, one set per axis."""
    used = [set() for _ in range(peers[0].dimension)]
    for peer in peers:
        for axis, value in enumerate(peer.coordinates):
            used[axis].add(value)
    return used


def _fresh_coordinates(rng, used):
    """Uniform coordinates repeating no per-axis value in ``used``, which
    they join: a coordinate tie with any peer would break the selection
    geometry's distinctness contract."""
    coords = []
    for taken in used:
        value = rng.uniform(0.0, DEFAULT_VMAX)
        while value in taken:
            value = rng.uniform(0.0, DEFAULT_VMAX)
        taken.add(value)
        coords.append(value)
    return tuple(coords)


def _trace_script(peers, total_events, seed):
    """A deterministic constant-population churn trace.

    Each epoch removes _EPOCH_EVENTS/2 random live peers and joins the same
    number of fresh ids with random distinct coordinates.

    Joiner coordinates honour the workload generators' distinctness
    contract: the stream is *decorrelated* from the population generator's
    (``generate_peers`` consumes ``random.Random(seed)`` -- reusing the
    same seed here replays the very same uniforms, and the resulting exact
    duplicate coordinate values break the distinct-coordinate assumption
    the selection geometry, and with it the cohort install path's
    box-emptiness symmetry, rests on) and every per-dimension collision
    with a value already in play is re-drawn.
    """
    rng = random.Random(derive_seed(seed, 35, total_events))
    used = _per_axis_values(peers)
    alive = [peer.peer_id for peer in peers]
    next_id = len(peers)
    epochs = []
    remaining = total_events
    while remaining > 0:
        size = min(_EPOCH_EVENTS, remaining)
        leaves = size // 2
        victims = rng.sample(alive, leaves)
        victim_set = set(victims)
        alive = [pid for pid in alive if pid not in victim_set]
        joiners = []
        for _ in range(size - leaves):
            joiners.append(make_peer(next_id, _fresh_coordinates(rng, used)))
            alive.append(next_id)
            next_id += 1
        epochs.append((victims, joiners))
        remaining -= size
    return epochs


def _apply_epoch(overlay, epoch):
    """Apply one epoch's membership events; returns the bookkeeping
    wall-clock (selection runs later, in converge)."""
    victims, joiners = epoch
    started = time.perf_counter()
    for victim in victims:
        overlay.remove_peer(victim)
    for joiner in joiners:
        overlay.add_peer(joiner)
    return time.perf_counter() - started


def test_columnar_smoke_matches_equilibrium(scale):
    """PR-CI smoke: at N ~ 2k the engine converges to the paper's fixed
    point, adopts a populated overlay, and replays a churn epoch.

    Checked the way the ledger checks benchmark scale: sampled references
    against the literal per-orthant skyline (independent of kernel and
    engine), then "a full sweep changes nothing".  The full-map equality
    with the equilibrium witness stays, on a prefix of the same peers: the
    witness is O(N^2) Python and was 25-38 s of this test at N = 2000, where
    the converge under test takes 0.2 s.
    """
    seed = derive_seed(scale.seed, 30, _SMOKE_SIZE)
    peers = generate_peers(_SMOKE_SIZE, 2, seed=seed)
    overlay, *_ = _seeded_overlay(peers)
    _assert_sampled_references(overlay, seed)
    prefix = peers[:_SMOKE_WITNESS_SIZE]
    small, *_ = _seeded_overlay(prefix)
    equilibrium = OverlayNetwork.build_equilibrium(prefix, EmptyRectangleSelection())
    assert small.directed_neighbour_map() == equilibrium.directed_neighbour_map()
    assert overlay.reselect_round() is False
    # That sweep dropped the engine.  The next one adopts the 2,000 peers all
    # dirty -- one round of full recomputes that must install nothing -- and
    # then replays an epoch of 1,000 leaves and 1,000 joins from live notes.
    assert overlay.converge(incremental=True, max_rounds=80) == 1
    (epoch,) = _trace_script(peers, _EPOCH_EVENTS, seed)
    _apply_epoch(overlay, epoch)
    epoch_rounds = overlay.converge(incremental=True, max_rounds=80)
    _assert_sampled_references(overlay, seed, _REFERENCES // 2)
    assert overlay.reselect_round() is False
    print_report(
        "Columnar engine smoke",
        format_table(
            ["N", "brute-force references", "equilibrium prefix", "epoch events", "epoch rounds"],
            [[_SMOKE_SIZE, _REFERENCES + _REFERENCES // 2, _SMOKE_WITNESS_SIZE, _EPOCH_EVENTS, epoch_rounds]],
        ),
    )


@pytest.mark.slow
def test_columnar_convergence_scaling(scale):
    """A bulk join under a live engine, then the first convergence: the
    engine's notes and the converge are each held to an absolute budget."""
    count = _SIZES.get(scale.name, 10000)
    seed = derive_seed(scale.seed, 31, count)
    peers = generate_peers(count, 2, seed=seed)
    overlay, notes_seconds, join_seconds, converge_seconds, rounds = _seeded_overlay(peers)
    rss = peak_rss_mb()
    _assert_sampled_references(overlay, seed)
    print_report(
        f"Engine bulk join and first convergence [{scale.name}]",
        format_table(
            ["N", "engine notes (s)", "join phase (s)", "converge (s)", "rounds"],
            [[count, f"{notes_seconds:.3f}", f"{join_seconds:.2f}", f"{converge_seconds:.2f}", rounds]],
        ),
        f"budgets: engine notes {_NOTES_BUDGET_SECONDS}s, converge {_CONVERGE_BUDGET_SECONDS}s",
    )
    assert notes_seconds <= _NOTES_BUDGET_SECONDS, (
        f"the engine's notes of the bulk join took {notes_seconds:.3f}s at N={count}; "
        f"their budget is {_NOTES_BUDGET_SECONDS}s"
    )
    assert converge_seconds <= _CONVERGE_BUDGET_SECONDS, (
        f"the first convergence took {converge_seconds:.2f}s at N={count}; "
        f"its budget is {_CONVERGE_BUDGET_SECONDS}s"
    )
    persist_bench_record(
        "engine_columnar_convergence",
        peer_count=count,
        wall_seconds=converge_seconds,
        wall_budget_seconds=_CONVERGE_BUDGET_SECONDS,
        converge_rounds=rounds,
        engine_notes_seconds=round(notes_seconds, 3),
        engine_notes_budget_seconds=_NOTES_BUDGET_SECONDS,
        join_phase_seconds=round(join_seconds, 3),
        peak_rss_mb=rss,
    )


@pytest.mark.slow
def test_columnar_churn_trace(scale):
    """The churn trace, in events per second and peak RSS, then five
    single-join rounds (the whole population as one additive cohort)."""
    count = _SIZES.get(scale.name, 10000)
    total_events = _TRACE_EVENTS.get(scale.name, 20000)
    seed = derive_seed(scale.seed, 32, count)
    peers = generate_peers(count, 2, seed=seed)
    epochs = _trace_script(peers, total_events, seed)

    overlay = OverlayNetwork(EmptyRectangleSelection())
    for peer in peers:
        overlay.add_peer(peer)
    overlay.converge(incremental=True, max_rounds=80)
    notes = _instrument_notes(overlay)
    apply_seconds = converge_seconds = 0.0
    for epoch in epochs:
        apply_seconds += _apply_epoch(overlay, epoch)
        started = time.perf_counter()
        overlay.converge(incremental=True, max_rounds=80)
        converge_seconds += time.perf_counter() - started
    assert overlay.peer_count == count
    wall_seconds = apply_seconds + converge_seconds
    events_per_second = total_events / wall_seconds
    rss = peak_rss_mb()

    rng = random.Random(derive_seed(seed, 36, count))
    used = _per_axis_values(overlay.peers())
    single_join_seconds = 0.0
    for offset in range(_PROTOCOL_ROUNDS):
        # Guest ids sit far above the trace script's joiner id range.
        overlay.add_peer(make_peer(10_000_000 + offset, _fresh_coordinates(rng, used)))
        started = time.perf_counter()
        overlay.converge(incremental=True, max_rounds=80)
        single_join_seconds += time.perf_counter() - started
    _assert_sampled_references(overlay, seed)

    print_report(
        f"Engine churn trace [{scale.name}]",
        format_table(
            ["N", "events", "engine notes (s)", "apply (s)", "converge (s)", "events/s"],
            [
                [
                    count,
                    total_events,
                    f"{notes['seconds']:.3f}",
                    f"{apply_seconds:.2f}",
                    f"{converge_seconds:.2f}",
                    f"{events_per_second:.0f}",
                ]
            ],
        ),
        f"floor {_EVENTS_PER_SECOND_FLOOR:.0f} events/s; peak RSS {rss} MB "
        f"(budget {_PEAK_RSS_BUDGET_MB:.0f} MB); {_PROTOCOL_ROUNDS} single-join "
        f"rounds: {single_join_seconds:.3f}s",
    )
    assert events_per_second >= _EVENTS_PER_SECOND_FLOOR, (
        f"the trace replayed at {events_per_second:.0f} events/s at N={count}; "
        f"its floor is {_EVENTS_PER_SECOND_FLOOR:.0f}"
    )
    assert rss is None or rss <= _PEAK_RSS_BUDGET_MB, (
        f"the process peaked at {rss} MB; the budget is {_PEAK_RSS_BUDGET_MB:.0f} MB"
    )
    persist_bench_record(
        "engine_columnar_trace",
        peer_count=count,
        wall_seconds=wall_seconds,
        events_applied=total_events,
        apply_seconds=round(apply_seconds, 3),
        converge_seconds=round(converge_seconds, 3),
        events_per_second=round(events_per_second, 1),
        events_per_second_floor=_EVENTS_PER_SECOND_FLOOR,
        engine_notes_seconds=round(notes["seconds"], 3),
        single_join_rounds=_PROTOCOL_ROUNDS,
        single_join_rounds_seconds=round(single_join_seconds, 3),
        peak_rss_mb=rss,
        peak_rss_budget_mb=_PEAK_RSS_BUDGET_MB,
    )
