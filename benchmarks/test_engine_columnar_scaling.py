"""Benchmark: columnar (implicit) vs explicit engine bookkeeping at scale.

The road-to-100k bottleneck was never selection -- the vectorised skyline
rules and the spatial index already took that out -- it was the *engine
bookkeeping* around each membership event: the explicit candidate state
walks every tracked peer on ``note_join`` (O(N) per event), while the
columnar state bumps a population epoch and appends one log entry (O(1)).
These benchmarks time exactly that phase on both arms of the one
``CandidateView`` seam, cross-check that the resulting topologies are
byte-identical, and persist the headline numbers:

* ``BENCH_engine_columnar_convergence.json`` -- bulk-join bookkeeping while
  a live engine tracks history, then one full convergence at N >= 10k;
* ``BENCH_engine_columnar_trace.json`` -- a 100k-event constant-population
  churn trace (at bench/paper scale) that only the columnar arm replays in
  full; the explicit arm times a two-epoch prefix for the speedup floor.
* ``BENCH_engine_vectorised_rounds.json`` -- the round-protocol tentpole's
  headline: a churn trace at N=10k replayed through ``plan_round`` verdict
  columns + ``install_many`` cohort installs, with a >=5x install-phase
  floor timed on single-join rounds (every alive peer gains the joiner, so
  the per-peer arm pays a Python classify + additive merge per peer while
  the vectorised arm resolves the whole cohort in one indexed recompute
  plus a ``searchsorted`` membership pass) and ``peak_rss_mb`` recorded.

The small fixed-size smoke tests are *not* slow-marked: they are the PR-CI
guards that the columnar path converges to the paper's fixed point at
N ~ 2k (sampled references against the brute-force definition, a sweep that
changes nothing, the equilibrium witness on a prefix) -- and that the
vectorised round protocol replays a churn trace byte-identically with the
per-peer loop -- on every pull request, not just in the weekly job.
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
#: explicit arm's note_join walks a real tracked population with history.
_SEED_POPULATION = 64
_SPEEDUP_FLOOR = 5.0
#: The smoke test pins its size: it is the PR-CI columnar guard and must
#: cost the same regardless of REPRO_SCALE.
_SMOKE_SIZE = 2000
#: References the smoke holds against the literal definition at that size
#: (~10 ms each), and the prefix on which the O(N^2) equilibrium witness is
#: still cheap (1.5 s at 500; 6.5-10 s at 1000, 25-38 s at 2000).
_SMOKE_REFERENCES = 128
_SMOKE_WITNESS_SIZE = 500
_CONVERGENCE_SIZES = {"smoke": 2000, "bench": 10000, "paper": 20000}
_TRACE_SIZES = {"smoke": 2000, "bench": 10000, "paper": 10000}
_TRACE_EVENTS = {"smoke": 10000, "bench": 100000, "paper": 100000}
#: Events per trace epoch: half leaves, half fresh joins, then converge.
_EPOCH_EVENTS = 2000
#: Epochs the explicit arm replays to measure the per-event speedup floor
#: (replaying all 50 on the dict engine is exactly the cost this PR kills).
_PREFIX_EPOCHS = 2
#: The vectorised-round trace.  Sized by measurement, not ambition: one
#: indexed skyline recompute costs ~18ms at N=20k, so a 2000-event epoch's
#: converge runs ~8 minutes *on either arm* -- epoch converges are dominated
#: by selection geometry, which the round protocol cannot touch.  N=10k with
#: a 20k-event trace keeps the whole test under ~30 minutes in the weekly
#: job; the road past that wall is amortising the selection work itself
#: (see ROADMAP).
_ROUND_TRACE_SIZES = {"smoke": 2000, "bench": 10000, "paper": 10000}
_ROUND_TRACE_EVENTS = {"smoke": 10000, "bench": 20000, "paper": 20000}
#: Single-join rounds timed per arm for the install-phase speedup floor.
#: Under full knowledge every alive peer gains the joiner, so the per-peer
#: arm pays a Python classify + additive candidate merge for all N peers,
#: while the vectorised arm hands the whole population to one
#: ``AdditiveCohort``: a single indexed recompute of the joiner plus a
#: ``searchsorted`` membership pass (box-emptiness symmetry) resolves every
#: member.  That ratio -- unlike the raw epoch-converge ratio, which shared
#: selection-geometry work pins near 1x -- is exactly the O(alive)-per-round
#: install term this engine vectorises (measured ~70x at N=10k).
_PROTOCOL_ROUNDS = 5


def _instrument_notes(overlay):
    """Accumulate wall-clock spent inside the live engine's membership notes.

    The engine bookkeeping (``note_join``/``note_leave``/``note_move``) is
    exactly the per-event phase the columnar representation collapses to
    O(1); everything else ``add_peer``/``remove_peer`` does per event --
    peer map, spatial-index maintenance, selector index, recorders -- is
    identical on both arms and would only dilute the comparison.  Returns
    a one-key box updated in place as events flow.
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


def _timed_joins(overlay, joiners):
    """Apply a bulk join phase; returns its wall-clock (engine is live, so
    every add_peer lands a bookkeeping event on the candidate view)."""
    started = time.perf_counter()
    for peer in joiners:
        overlay.add_peer(peer)
    return time.perf_counter() - started


def _seeded_arm(peers, *, columnar):
    """An overlay with a live engine tracking the first _SEED_POPULATION
    peers, plus the timed bulk-join of the remainder."""
    overlay = OverlayNetwork(EmptyRectangleSelection(), columnar=columnar)
    for peer in peers[:_SEED_POPULATION]:
        overlay.add_peer(peer)
    overlay.converge(incremental=True, max_rounds=80)
    notes = _instrument_notes(overlay)
    join_seconds = _timed_joins(overlay, peers[_SEED_POPULATION:])
    started = time.perf_counter()
    rounds = overlay.converge(incremental=True, max_rounds=80)
    converge_seconds = time.perf_counter() - started
    return overlay, notes["seconds"], join_seconds, converge_seconds, rounds


def _trace_script(peers, total_events, seed):
    """A deterministic constant-population churn trace.

    Each epoch removes _EPOCH_EVENTS/2 random live peers and joins the same
    number of fresh ids with random distinct coordinates; both arms replay
    the identical script.

    Joiner coordinates honour the workload generators' distinctness
    contract: the stream is *decorrelated* from the population generator's
    (``generate_peers`` consumes ``random.Random(seed)`` -- reusing the
    same seed here replays the very same uniforms, and the resulting exact
    duplicate coordinate values break the distinct-coordinate assumption
    the selection geometry, and with it the vectorised install path's
    box-emptiness symmetry, rests on) and every per-dimension collision
    with a value already in play is re-drawn.
    """
    rng = random.Random(derive_seed(seed, 35, total_events))
    dimension = peers[0].dimension
    used = [set() for _ in range(dimension)]
    for peer in peers:
        for axis, value in enumerate(peer.coordinates):
            used[axis].add(value)

    def fresh_coordinates():
        coords = []
        for axis in range(dimension):
            value = rng.uniform(0.0, DEFAULT_VMAX)
            while value in used[axis]:
                value = rng.uniform(0.0, DEFAULT_VMAX)
            used[axis].add(value)
            coords.append(value)
        return tuple(coords)

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
            joiners.append(make_peer(next_id, fresh_coordinates()))
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
    """PR-CI smoke: at N ~ 2k the columnar default converges to the paper's
    fixed point.

    Checked the way the ledger checks benchmark scale: sampled references
    against the literal per-orthant skyline (independent of kernel and
    engine), then "a full sweep changes nothing".  The full-map equality
    with the equilibrium witness stays, on a prefix of the same peers: the
    witness is O(N^2) Python and was 25-38 s of this test at N = 2000, where
    the converge under test takes 0.2 s.

    Only the columnar arm runs here (the explicit cross-check at this size
    lives in the slow scaling test; tier-1 covers columnar-vs-explicit
    byte-identity at hypothesis sizes), keeping the smoke PR-affordable.
    """
    seed = derive_seed(scale.seed, 30, _SMOKE_SIZE)
    peers = generate_peers(_SMOKE_SIZE, 2, seed=seed)
    columnar, _, _, _, _ = _seeded_arm(peers, columnar=True)
    points = {peer.peer_id: peer.coordinates for peer in peers}
    for peer_id in random.Random(seed).sample(sorted(points), _SMOKE_REFERENCES):
        expected = set()
        for signs in product((-1, 1), repeat=2):
            expected.update(
                brute_force_orthant_skyline(points, points[peer_id], signs, exclude=(peer_id,))
            )
        assert columnar.selected_neighbours(peer_id) == expected
    prefix = peers[:_SMOKE_WITNESS_SIZE]
    small, _, _, _, _ = _seeded_arm(prefix, columnar=True)
    equilibrium = OverlayNetwork.build_equilibrium(prefix, EmptyRectangleSelection())
    assert small.directed_neighbour_map() == equilibrium.directed_neighbour_map()
    # Last: a full sweep invalidates the incremental engine.
    assert columnar.reselect_round() is False
    print_report(
        "Columnar engine smoke",
        format_table(
            ["N", "path", "brute-force references", "fixed point", "equilibrium prefix"],
            [[_SMOKE_SIZE, "columnar", _SMOKE_REFERENCES, True, _SMOKE_WITNESS_SIZE]],
        ),
    )


def test_vectorised_rounds_match_per_peer_loop(scale):
    """PR-CI smoke: at N ~ 2k the vectorised round protocol (plan_round +
    install_many) replays a short churn trace byte-identically with the
    per-peer begin_round/delta/classify loop, round counts included.

    Not slow-marked, so the tier-1 run is the guard that every pull request
    exercises the vectorised install path against its per-peer reference,
    not just the weekly job.
    """
    seed = derive_seed(scale.seed, 33, _SMOKE_SIZE)
    peers = generate_peers(_SMOKE_SIZE, 2, seed=seed)
    epochs = _trace_script(peers, 3 * _EPOCH_EVENTS, seed)
    arms = {}
    for vectorised in (True, False):
        overlay = OverlayNetwork(
            EmptyRectangleSelection(), vectorised_rounds=vectorised
        )
        for peer in peers:
            overlay.add_peer(peer)
        rounds = [overlay.converge(incremental=True, max_rounds=80)]
        for epoch in epochs:
            _apply_epoch(overlay, epoch)
            rounds.append(overlay.converge(incremental=True, max_rounds=80))
        arms[vectorised] = (overlay, rounds)
    assert arms[True][1] == arms[False][1]
    assert (
        arms[True][0].directed_neighbour_map()
        == arms[False][0].directed_neighbour_map()
    )
    print_report(
        "Vectorised rounds smoke",
        format_table(
            ["N", "epochs", "rounds per epoch", "matches per-peer loop"],
            [[_SMOKE_SIZE, len(epochs), arms[True][1], True]],
        ),
    )


@pytest.mark.slow
def test_columnar_convergence_scaling(scale):
    """Full convergence at scale: the engine bookkeeping of the bulk-join
    phase must be at least 5x cheaper on the columnar arm, with identical
    topologies."""
    count = _CONVERGENCE_SIZES.get(scale.name, 10000)
    seed = derive_seed(scale.seed, 31, count)
    peers = generate_peers(count, 2, seed=seed)

    columnar, col_book, col_join, col_converge, rounds = _seeded_arm(
        peers, columnar=True
    )
    explicit, exp_book, exp_join, exp_converge, _ = _seeded_arm(
        peers, columnar=False
    )
    assert columnar.directed_neighbour_map() == explicit.directed_neighbour_map()
    speedup = exp_book / max(col_book, 1e-9)
    print_report(
        f"Columnar vs explicit bulk-join bookkeeping [{scale.name}]",
        format_table(
            ["N", "arm", "engine notes (s)", "join phase (s)", "converge (s)"],
            [
                [
                    count,
                    "explicit",
                    f"{exp_book:.3f}",
                    f"{exp_join:.2f}",
                    f"{exp_converge:.2f}",
                ],
                [
                    count,
                    "columnar",
                    f"{col_book:.3f}",
                    f"{col_join:.2f}",
                    f"{col_converge:.2f}",
                ],
            ],
        ),
        f"engine bookkeeping speedup: {speedup:.1f}x (floor {_SPEEDUP_FLOOR}x "
        "above smoke scale)",
    )
    if scale.name != "smoke":
        # Timer overhead is a larger share of the O(1) columnar notes at
        # tiny N; the floor binds from N >= 10k where the O(N) walk is
        # unambiguous.
        assert speedup >= _SPEEDUP_FLOOR, (
            f"columnar bookkeeping only {speedup:.1f}x faster than the "
            f"explicit engine at N={count}; expected at least "
            f"{_SPEEDUP_FLOOR}x"
        )
    rss = peak_rss_mb()
    persist_bench_record(
        "engine_columnar_convergence",
        peer_count=count,
        wall_seconds=col_book,
        speedup=speedup,
        speedup_floor=_SPEEDUP_FLOOR,
        join_phase_seconds=round(col_join, 3),
        converge_seconds=round(col_converge, 3),
        converge_rounds=rounds,
        explicit_bookkeeping_seconds=round(exp_book, 3),
        **({"peak_rss_mb": rss} if rss else {}),
    )


@pytest.mark.slow
def test_columnar_churn_trace(scale):
    """The 100k-event churn trace (bench/paper): both arms replay a
    two-epoch prefix for the per-event floor and a byte-identity check;
    only the columnar arm replays the full trace."""
    count = _TRACE_SIZES.get(scale.name, 10000)
    total_events = _TRACE_EVENTS.get(scale.name, 100000)
    seed = derive_seed(scale.seed, 32, count)
    peers = generate_peers(count, 2, seed=seed)
    epochs = _trace_script(peers, total_events, seed)

    arms = {}
    notes = {}
    for is_columnar in (True, False):
        overlay = OverlayNetwork(
            EmptyRectangleSelection(), columnar=is_columnar
        )
        for peer in peers:
            overlay.add_peer(peer)
        overlay.converge(incremental=True, max_rounds=80)
        arms[is_columnar] = overlay
        notes[is_columnar] = _instrument_notes(overlay)

    apply_seconds = {True: 0.0, False: 0.0}
    for is_columnar, overlay in arms.items():
        for epoch in epochs[:_PREFIX_EPOCHS]:
            apply_seconds[is_columnar] += _apply_epoch(overlay, epoch)
            overlay.converge(incremental=True, max_rounds=80)
    assert (
        arms[True].directed_neighbour_map() == arms[False].directed_neighbour_map()
    )
    prefix_book = {arm: notes[arm]["seconds"] for arm in notes}
    speedup = prefix_book[False] / max(prefix_book[True], 1e-9)

    # Only the columnar arm can afford the full trace; the dict engine's
    # prefix cost extrapolates to the very wall this PR removes.
    columnar = arms[True]
    apply_total = apply_seconds[True]
    converge_total = 0.0
    for epoch in epochs[_PREFIX_EPOCHS:]:
        apply_total += _apply_epoch(columnar, epoch)
        started = time.perf_counter()
        columnar.converge(incremental=True, max_rounds=80)
        converge_total += time.perf_counter() - started
    assert columnar.peer_count == count
    book_total = notes[True]["seconds"]

    events_per_second = total_events / max(apply_total + converge_total, 1e-9)
    print_report(
        f"Columnar churn trace [{scale.name}]",
        format_table(
            ["N", "events", "engine notes (s)", "apply (s)", "converge (s)", "events/s"],
            [
                [
                    count,
                    total_events,
                    f"{book_total:.3f}",
                    f"{apply_total:.2f}",
                    f"{converge_total:.2f}",
                    f"{events_per_second:.0f}",
                ]
            ],
        ),
        f"prefix engine-bookkeeping speedup vs explicit: {speedup:.1f}x "
        f"(floor {_SPEEDUP_FLOOR}x above smoke scale)",
    )
    if scale.name != "smoke":
        assert speedup >= _SPEEDUP_FLOOR, (
            f"columnar trace bookkeeping only {speedup:.1f}x faster than "
            f"the explicit engine at N={count}; expected at least "
            f"{_SPEEDUP_FLOOR}x"
        )
    rss = peak_rss_mb()
    persist_bench_record(
        "engine_columnar_trace",
        peer_count=count,
        wall_seconds=book_total,
        speedup=speedup,
        speedup_floor=_SPEEDUP_FLOOR,
        events_applied=total_events,
        apply_seconds=round(apply_total, 3),
        converge_seconds=round(converge_total, 3),
        events_per_second=round(events_per_second, 1),
        explicit_prefix_seconds=round(prefix_book[False], 3),
        **({"peak_rss_mb": rss} if rss else {}),
    )


@pytest.mark.slow
def test_vectorised_round_trace(scale):
    """The vectorised-round trace (bench/paper): only the vectorised round
    protocol replays it in full.

    Both arms share the columnar candidate state -- the comparison isolates
    exactly the round protocol (plan_round verdict columns + install_many
    cohort installs vs the per-peer begin_round/delta/classify loop).  The
    per-peer arm replays a two-epoch prefix for a byte-identity check, then
    both arms time _PROTOCOL_ROUNDS single-join rounds -- the whole-
    population additive cohort, where the per-peer install loop pays its
    O(alive) Python toll -- which carry the install-phase speedup floor.
    The vectorised arm then runs the whole trace, with ``peak_rss_mb``
    recorded alongside the headline numbers.
    """
    count = _ROUND_TRACE_SIZES.get(scale.name, 10000)
    total_events = _ROUND_TRACE_EVENTS.get(scale.name, 20000)
    seed = derive_seed(scale.seed, 34, count)
    peers = generate_peers(count, 2, seed=seed)
    epochs = _trace_script(peers, total_events, seed)

    arms = {}
    for vectorised in (True, False):
        overlay = OverlayNetwork(
            EmptyRectangleSelection(), vectorised_rounds=vectorised
        )
        for peer in peers:
            overlay.add_peer(peer)
        overlay.converge(incremental=True, max_rounds=80)
        arms[vectorised] = overlay

    prefix_converge = {True: 0.0, False: 0.0}
    for vectorised, overlay in arms.items():
        for epoch in epochs[:_PREFIX_EPOCHS]:
            _apply_epoch(overlay, epoch)
            started = time.perf_counter()
            overlay.converge(incremental=True, max_rounds=80)
            prefix_converge[vectorised] += time.perf_counter() - started
    assert (
        arms[True].directed_neighbour_map() == arms[False].directed_neighbour_map()
    )

    # The floor rides on single-join rounds (see _PROTOCOL_ROUNDS): both
    # arms admit the same guests in the same order, so they stay in
    # lockstep while the timed converge is install-phase-dominated.  Each
    # guest departs again -- converged, untimed -- after its round, so the
    # remaining trace epochs replay against the unchanged population; guest
    # ids sit far above the trace script's joiner id range.
    rng = random.Random(derive_seed(seed, 36, count))
    in_play = [set() for _ in range(2)]
    for cohabitant in peers:
        for axis, value in enumerate(cohabitant.coordinates):
            in_play[axis].add(value)
    for _, joiners in epochs[:_PREFIX_EPOCHS]:
        for cohabitant in joiners:
            for axis, value in enumerate(cohabitant.coordinates):
                in_play[axis].add(value)

    def guest_coordinates():
        # Same distinctness contract as _trace_script: a coordinate tie with
        # any concurrently-alive peer would break the selection geometry.
        coords = []
        for axis in range(2):
            value = rng.uniform(0.0, DEFAULT_VMAX)
            while value in in_play[axis]:
                value = rng.uniform(0.0, DEFAULT_VMAX)
            in_play[axis].add(value)
            coords.append(value)
        return tuple(coords)

    guests = [
        make_peer(10_000_000 + offset, guest_coordinates())
        for offset in range(_PROTOCOL_ROUNDS)
    ]
    protocol_seconds = {True: 0.0, False: 0.0}
    for vectorised, overlay in arms.items():
        for guest in guests:
            overlay.add_peer(guest)
            started = time.perf_counter()
            overlay.converge(incremental=True, max_rounds=80)
            protocol_seconds[vectorised] += time.perf_counter() - started
            overlay.remove_peer(guest.peer_id)
            overlay.converge(incremental=True, max_rounds=80)
    assert (
        arms[True].directed_neighbour_map() == arms[False].directed_neighbour_map()
    )
    speedup = protocol_seconds[False] / max(protocol_seconds[True], 1e-9)

    vectorised = arms[True]
    apply_total = 0.0
    converge_total = prefix_converge[True]
    for epoch in epochs[_PREFIX_EPOCHS:]:
        apply_total += _apply_epoch(vectorised, epoch)
        started = time.perf_counter()
        vectorised.converge(incremental=True, max_rounds=80)
        converge_total += time.perf_counter() - started
    assert vectorised.peer_count == count

    events_per_second = total_events / max(apply_total + converge_total, 1e-9)
    print_report(
        f"Vectorised round trace [{scale.name}]",
        format_table(
            ["N", "events", "apply (s)", "converge (s)", "events/s"],
            [
                [
                    count,
                    total_events,
                    f"{apply_total:.2f}",
                    f"{converge_total:.2f}",
                    f"{events_per_second:.0f}",
                ]
            ],
        ),
        f"install-phase speedup vs per-peer loop: {speedup:.1f}x "
        f"over {_PROTOCOL_ROUNDS} single-join rounds "
        f"(floor {_SPEEDUP_FLOOR}x above smoke scale); "
        f"prefix epoch converge: vectorised {prefix_converge[True]:.1f}s, "
        f"per-peer {prefix_converge[False]:.1f}s (selection-bound on both "
        "arms)",
    )
    if scale.name != "smoke":
        assert speedup >= _SPEEDUP_FLOOR, (
            f"vectorised install phase only {speedup:.1f}x faster than the "
            f"per-peer loop at N={count}; expected at least "
            f"{_SPEEDUP_FLOOR}x"
        )
    rss = peak_rss_mb()
    persist_bench_record(
        "engine_vectorised_rounds",
        peer_count=count,
        wall_seconds=converge_total,
        speedup=speedup,
        speedup_floor=_SPEEDUP_FLOOR,
        events_applied=total_events,
        apply_seconds=round(apply_total, 3),
        converge_seconds=round(converge_total, 3),
        events_per_second=round(events_per_second, 1),
        protocol_rounds=_PROTOCOL_ROUNDS,
        per_peer_protocol_seconds=round(protocol_seconds[False], 3),
        vectorised_protocol_seconds=round(protocol_seconds[True], 3),
        per_peer_prefix_converge_seconds=round(prefix_converge[False], 3),
        **({"peak_rss_mb": rss} if rss else {}),
    )
