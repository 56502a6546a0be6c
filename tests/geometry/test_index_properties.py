"""Property-based equivalence: every spatial-index query vs its brute-force twin.

The index's load-bearing contract (see :mod:`repro.geometry.index`) is that
every query returns exactly what the scan it replaces would -- same
comparisons, same tie-breaks -- at every moment of an arbitrary
``insert`` / ``remove`` / ``move`` history.  These tests let hypothesis hunt
for counterexamples: random mutation scripts over coordinates drawn from a
deliberately small lattice (so duplicate coordinates, collinear
configurations, and points exactly on query boundaries all occur), then
every query cross-checked against the literal ``brute_force_*`` reference
over a plain dict mirror.  The coordinate column is held to the mirror after
every mutation, and the batched quadrant kernel over it to the same brute-force
skyline -- on the lattice and on magnitudes where float key sums tie, over
the whole column and over per-reference candidate rows (the rows of stored
ids a bounded-radius ``select_many`` answers through), and at the
edges of its packed integer key: one rank level on an axis, infinities,
member counts where the field width steps, rows cut across passes, one row
per pass at the widest fields, inputs it refuses.  In every dimension from 1
to 5 the kernel equals the union of the brute-force orthant skylines --
whole columns, drawn rows, additive rows with their gained flags -- and in
two dimensions its pair pass, called directly, equals the packed pass.  Its
presorted whole-column pass, called directly, equals the pair pass and the
brute force in ``D = 1, 3, 4, 5``, on the lattice and on members at huge
magnitudes and at infinity, where key totals round equal.  The
column's skyline table is built once per version of the column: kernel
calls between the writes of a random history, re-inserts, moves onto
another point and drains included, all equal the brute force.  The
Hyperplanes pass over the same column is held to
``brute_force_region_top_k`` in the scan's emission order the same ways:
``D = 1 .. 5``, the three named hyperplane sets and sloped ones, whole
columns and drawn rows, and between the writes of a column's history.  The
public ``orthant_skyline`` / ``region_top_k`` / ``nearest_k`` are that
brute force over the index's rows, one test each.
"""

import math
import warnings
from itertools import product

import numpy as np

from hypothesis import given, settings
from hypothesis import strategies as st

import pytest

from repro.geometry import index as index_module
from repro.geometry.hyperplane import Hyperplane, HyperplaneSet
from repro.geometry.index import (
    CoordinateColumn,
    SpatialIndex,
    brute_force_nearest_k,
    brute_force_orthant_skyline,
    brute_force_region_top_k,
    orthant_skylines,
    region_top_ks,
)
from repro.overlay.peer import make_peer
from repro.overlay.selection.base import MemberOf
from repro.overlay.selection.empty_rectangle import (
    EmptyRectangleSelection,
    brute_force_empty_rectangle_neighbours,
)
from repro.workloads.peers import generate_peers

# A small lattice provokes the degenerate geometry the paper assumes away:
# duplicate points, shared per-axis values, points exactly on boundaries.
_COORDINATE = st.integers(min_value=0, max_value=10).map(lambda v: v / 2.0)

_ORDERS = st.sampled_from([1.0, 2.0, float("inf")])


# Magnitudes where adding a small second coordinate is absorbed: the float
# key sums of a dominated point and its dominator round equal, which an
# order by key sum could not tell apart and the lexicographic (key, id)
# order never has to.
_EXTREME = st.sampled_from(
    [-1e17, 1e17, 1e17 + 16.0, 1e17 + 32.0, 2.0**53, 2.0**53 + 2.0, 0.0, 1.0, 2.0, 3.0]
)


@st.composite
def _histories(
    draw, max_dimension=3, max_operations=40, min_dimension=1, coordinate=_COORDINATE
):
    """A mutation script and the resulting live ``id -> coords`` mirror."""
    dimension = draw(st.integers(min_value=min_dimension, max_value=max_dimension))
    coords = st.tuples(*([coordinate] * dimension))
    operations = []
    alive = []
    removed = []
    next_id = 0
    for _ in range(draw(st.integers(min_value=1, max_value=max_operations))):
        kind = draw(
            st.sampled_from(["insert", "insert", "insert", "reinsert", "remove", "move"])
        )
        if kind == "reinsert" and removed:
            revived = draw(st.sampled_from(removed))
            operations.append(("insert", revived, draw(coords)))
            removed.remove(revived)
            alive.append(revived)
        elif kind in ("insert", "reinsert") or not alive:
            operations.append(("insert", next_id, draw(coords)))
            alive.append(next_id)
            next_id += 1
        elif kind == "remove":
            victim = draw(st.sampled_from(alive))
            operations.append(("remove", victim, None))
            alive.remove(victim)
            removed.append(victim)
        else:
            victim = draw(st.sampled_from(alive))
            operations.append(("move", victim, draw(coords)))
    return dimension, operations


def _replay(operations):
    """Apply a script to a fresh index and a plain dict mirror, holding the
    column to the mirror after every write."""
    index = SpatialIndex()
    mirror = {}
    for kind, point_id, coords in operations:
        if kind == "insert":
            index.insert(point_id, coords)
            mirror[point_id] = coords
        elif kind == "remove":
            index.remove(point_id)
            del mirror[point_id]
        else:
            index.move(point_id, coords)
            mirror[point_id] = coords
        _assert_column_is_the_point_store(index, mirror)
    return index, mirror


def _assert_column_is_the_point_store(index, mirror):
    """Every live id has exactly one column row, holding its mirror point."""
    ids, coordinates = index.columns()
    assert sorted(ids.tolist()) == sorted(mirror)
    assert coordinates.shape == (len(mirror), index.dimension)
    for point_id, row in zip(ids.tolist(), coordinates.tolist()):
        assert tuple(row) == tuple(mirror[point_id])


def _brute_selection(points, origin, reference):
    """The sorted union of the brute-force skylines of every orthant around
    ``origin`` over ``points`` (``id -> coords``), ``reference`` excluded:
    the orthants partition the members, so it equals the kernel's answer
    exactly when every orthant's skyline does."""
    return sorted(
        point_id
        for signs in product((-1, 1), repeat=len(origin))
        for point_id in brute_force_orthant_skyline(points, origin, signs, exclude=(reference,))
    )


def _column(mirror):
    """A fresh column holding ``mirror`` (``id -> coords``) in its order."""
    column = CoordinateColumn()
    for point_id, coords in mirror.items():
        column.insert(point_id, coords)
    return column


def _emitted(regions):
    """``brute_force_region_top_k``'s regions in ``select``'s emission
    order: sorted signatures, each ranked by ``(distance, id)``."""
    return [point_id for signature in sorted(regions) for point_id in regions[signature]]


def _region_selection(points, origin, reference, hyperplane_set, k, order):
    """The Hyperplanes scan over ``points`` (``id -> coords``), flattened."""
    return _emitted(brute_force_region_top_k(
        points, origin, hyperplane_set, k, order=order, exclude=(reference,)
    ))


def _hyperplane_sets(dimension):
    """The three named instances and a few sloped planes, whose sides sum
    non-zero terms on several axes."""
    coefficient = st.sampled_from([-1.0, -0.5, 0.0, 0.5, 1.0, 2.0])
    sloped = st.lists(
        st.tuples(*([coefficient] * dimension)).filter(any), min_size=1, max_size=3
    ).map(lambda normals: HyperplaneSet(map(Hyperplane, normals), dimension=dimension))
    return st.one_of(
        st.sampled_from([
            HyperplaneSet.empty(dimension),
            HyperplaneSet.orthogonal(dimension),
            HyperplaneSet.sign_coefficients(dimension),
        ]),
        sloped,
    )


def _assert_kernel_matches_brute_force(index, mirror):
    """The batched kernel over the index's column vs the brute force."""
    references = sorted(mirror)
    origins = np.asarray([mirror[reference] for reference in references], dtype=float)
    selected = orthant_skylines(index, origins.reshape(-1, 2), references)
    for reference, chosen in zip(references, selected):
        assert chosen == _brute_selection(mirror, mirror[reference], reference)


@settings(max_examples=60, deadline=None)
@given(history=_histories(), data=st.data())
def test_nearest_k_matches_brute_force(history, data):
    dimension, operations = history
    index, mirror = _replay(operations)
    origin = tuple(data.draw(_COORDINATE) for _ in range(dimension))
    k = data.draw(st.integers(min_value=1, max_value=6))
    order = data.draw(_ORDERS)
    exclude = (
        set(data.draw(st.sets(st.sampled_from(sorted(mirror)), max_size=2)))
        if mirror
        else set()
    )
    assert index.nearest_k(origin, k, order=order, exclude=exclude) == (
        brute_force_nearest_k(mirror, origin, k, order=order, exclude=exclude)
    )


@settings(max_examples=60, deadline=None)
@given(history=_histories(), data=st.data())
def test_orthant_skyline_matches_brute_force(history, data):
    dimension, operations = history
    index, mirror = _replay(operations)
    origin = tuple(data.draw(_COORDINATE) for _ in range(dimension))
    signs = tuple(
        data.draw(st.sampled_from([-1, 1])) for _ in range(dimension)
    )
    exclude = (
        set(data.draw(st.sets(st.sampled_from(sorted(mirror)), max_size=2)))
        if mirror
        else set()
    )
    assert index.orthant_skyline(origin, signs, exclude=exclude) == (
        brute_force_orthant_skyline(mirror, origin, signs, exclude=exclude)
    )


@settings(max_examples=60, deadline=None)
@given(history=_histories(min_dimension=2, max_dimension=2))
def test_quadrant_kernel_matches_brute_force_on_the_lattice(history):
    """Duplicate points, shared per-axis values, references on boundaries."""
    _, operations = history
    _assert_kernel_matches_brute_force(*_replay(operations))


@settings(max_examples=60, deadline=None)
@given(history=_histories(min_dimension=2, max_dimension=2, coordinate=_EXTREME))
def test_quadrant_kernel_matches_brute_force_where_key_sums_tie(history):
    _, operations = history
    _assert_kernel_matches_brute_force(*_replay(operations))


def test_quadrant_kernel_drops_a_dominated_point_whose_key_sum_rounds_equal():
    """A dominated point whose float key sum equals its dominator's.

    The lexicographic ``(key, id)`` order visits the dominator first
    whatever the ids, so the dominated point is dropped either way -- what
    the paper's empty-rectangle definition says.
    """
    assert 1e17 + 1.0 == 1e17 + 2.0
    for dominated, dominator in ((1, 2), (2, 1)):
        mirror = {dominated: (1e17, 2.0), dominator: (1e17, 1.0), 3: (5.0, 5.0), 9: (0.0, 0.0)}
        index = SpatialIndex()
        for point_id, coords in mirror.items():
            index.insert(point_id, coords)
        _assert_kernel_matches_brute_force(index, mirror)
        (chosen,) = orthant_skylines(index, np.zeros((1, 2)), [9])
        assert chosen == sorted([dominator, 3])
        peers = [make_peer(point_id, coords) for point_id, coords in mirror.items()]
        assert chosen == brute_force_empty_rectangle_neighbours(peers[-1], peers)


def _subset_skyline(mirror, reference, subset):
    """Brute-force selection of ``reference`` over exactly ``subset``."""
    members = {point_id: mirror[point_id] for point_id in subset}
    return _brute_selection(members, mirror[reference], reference)


def _assert_row_kernel_matches_brute_force(index, mirror, data):
    """Per-reference candidate rows: kernel rows and scan-arm batch.

    Every live point is a reference with its own drawn subset of the
    members, in drawn order; the first reference's row is empty and the
    last one's is everybody, itself included.  The same subsets go through
    ``EmptyRectangleSelection.select_many`` without an index, which builds
    the sorted union and the rows itself.
    """
    references = sorted(mirror)
    subsets = [
        data.draw(st.lists(st.sampled_from(references), unique=True)) for _ in references
    ]
    subsets[0] = []
    subsets[-1] = list(references)
    selected = orthant_skylines(
        index,
        np.asarray([mirror[reference] for reference in references], dtype=float),
        references,
        subsets,
    )
    peers = {point_id: make_peer(point_id, mirror[point_id]) for point_id in references}
    batched = EmptyRectangleSelection().select_many(
        [peers[reference] for reference in references],
        {
            reference: [peers[point_id] for point_id in subset]
            for reference, subset in zip(references, subsets)
        },
    )
    for reference, subset, chosen in zip(references, subsets, selected):
        assert chosen == _subset_skyline(mirror, reference, subset)
        assert batched[reference] == chosen
    assert selected[0] == []


@settings(max_examples=60, deadline=None)
@given(history=_histories(min_dimension=2, max_dimension=2), data=st.data())
def test_row_quadrant_kernel_matches_brute_force_on_the_lattice(history, data):
    _, operations = history
    index, mirror = _replay(operations)
    if mirror:
        _assert_row_kernel_matches_brute_force(index, mirror, data)


@settings(max_examples=60, deadline=None)
@given(
    history=_histories(min_dimension=2, max_dimension=2, coordinate=_EXTREME),
    data=st.data(),
)
def test_row_quadrant_kernel_matches_brute_force_where_key_sums_tie(history, data):
    _, operations = history
    index, mirror = _replay(operations)
    if mirror:
        _assert_row_kernel_matches_brute_force(index, mirror, data)


def _shuffled_mirror(count, seed):
    """``count`` members at distinct quarter-unit lattice points, shuffled ids."""
    rng = np.random.default_rng(seed)
    coordinates = np.stack([rng.permutation(count), rng.permutation(count)], axis=1) / 4.0
    ids = rng.permutation(count).astype(np.int64)
    return rng, {int(i): tuple(row) for i, row in zip(ids.tolist(), coordinates.tolist())}


def _counted_passes(monkeypatch):
    """The rows of every pass the kernel runs, in call order."""
    passes = []
    one_pass = index_module._quadrant_skyline_pass

    def counted(origins, reference_ids, rows, columns, *rest):
        passes.append(len(origins) if columns is None else (len(origins), columns.size))
        return one_pass(origins, reference_ids, rows, columns, *rest)

    monkeypatch.setattr(index_module, "_quadrant_skyline_pass", counted)
    return passes


def test_row_quadrant_kernel_chunks_a_row_larger_than_one_pass(monkeypatch):
    """A row of more than ``_KERNEL_ELEMENTS`` members: one reference per pass."""
    count = index_module._KERNEL_ELEMENTS + 5
    rng, mirror = _shuffled_mirror(count, 16)
    ids = list(mirror)
    references = ids[:3]
    subsets = [ids, [], [point_id for point_id in ids if rng.random() < 0.5]]
    passes = _counted_passes(monkeypatch)
    selected = _assert_column_kernel_matches_brute_force(mirror, references, subsets)
    assert selected[1] == []
    assert [rows for rows, _ in passes] == [1, 2]


def test_row_quadrant_kernel_splits_uneven_rows_on_row_boundaries(monkeypatch):
    """Rows of very different sizes: every pass holds whole rows, at most
    ``_KERNEL_ELEMENTS`` elements unless it is a single row, and the answer
    does not depend on where the cuts fall."""
    elements = index_module._KERNEL_ELEMENTS
    rng, mirror = _shuffled_mirror(elements + 300, 27)
    ids = list(mirror)
    sizes = [elements - 100, 150, 0, 90, elements + 200, 1, 3000, 1200, 0]
    subsets = [rng.permutation(ids)[:size].tolist() for size in sizes]
    references = ids[-len(sizes):]
    passes = _counted_passes(monkeypatch)
    _assert_column_kernel_matches_brute_force(mirror, references, subsets)
    assert sum(rows for rows, _ in passes) == len(sizes)
    assert sum(size for _, size in passes) == sum(sizes)
    assert all(size <= elements or rows == 1 for rows, size in passes)
    assert len(passes) > 3


def test_row_quadrant_kernel_excludes_a_reference_listed_in_its_own_row():
    _, mirror = _shuffled_mirror(60, 31)
    ids = list(mirror)
    references = ids[:4]
    # Itself among others, itself alone, itself twice, itself among everyone.
    subsets = [ids[:30], [references[1]], ids[2:40] + [references[2]], ids]
    selected = _assert_column_kernel_matches_brute_force(mirror, references, subsets)
    assert selected[1] == []
    assert all(reference not in chosen for reference, chosen in zip(references, selected))


def test_row_quadrant_kernel_with_every_row_empty():
    _, mirror = _shuffled_mirror(50, 44)
    references = list(mirror)[:3]
    origins = np.asarray([mirror[reference] for reference in references])
    assert orthant_skylines(_column(mirror), origins, references, [[], [], []]) == [[], [], []]


def test_row_quadrant_kernel_at_twenty_bit_fields_runs_one_row_per_pass(monkeypatch):
    """``2**19`` members: ``3 * 20 + 3`` bits leave none for the row field."""
    count = 1 << 19
    rng = np.random.default_rng(20)
    coordinates = np.stack([rng.permutation(count), rng.permutation(count)], axis=1) / 8.0
    column = CoordinateColumn()
    for point_id, coords in enumerate(coordinates.tolist()):
        column.insert(point_id, coords)
    subsets = [rng.choice(count, size=size, replace=False).tolist() for size in (40, 0, 25, 60)]
    references = [subset[0] if subset else count - 1 for subset in subsets]
    passes = _counted_passes(monkeypatch)
    selected = orthant_skylines(column, coordinates[references], references, subsets)
    assert [rows for rows, _ in passes] == [1, 1, 1, 1]
    mirror = {point_id: tuple(coordinates[point_id]) for subset in subsets for point_id in subset}
    mirror[count - 1] = tuple(coordinates[count - 1])
    for reference, subset, chosen in zip(references, subsets, selected):
        assert chosen == _subset_skyline(mirror, reference, subset)


def _assert_column_kernel_matches_brute_force(mirror, references=None, subsets=None):
    """A bare column of ``mirror`` into the kernel, no index around it.

    ``references`` (default: every member) sit at their own points; with
    ``subsets``, reference ``r``'s row holds exactly the ids of
    ``subsets[r]``, as in the row suites.  Every returned list is ascending
    and duplicate-free.
    """
    references = list(mirror) if references is None else references
    selected = orthant_skylines(
        _column(mirror),
        np.asarray([mirror[reference] for reference in references], dtype=float),
        references,
        subsets,
    )
    assert len(selected) == len(references)
    for row, (reference, chosen) in enumerate(zip(references, selected)):
        subset = list(mirror) if subsets is None else subsets[row]
        assert chosen == _subset_skyline(mirror, reference, subset)
        assert chosen == sorted(set(chosen))
    return selected


@pytest.mark.parametrize("axis", [0, 1])
def test_quadrant_kernel_with_every_member_on_one_axis_parallel_line(axis):
    """One axis has a single rank level: its key field is constant."""
    mirror = {}
    for point_id, along in zip((8, 3, 11, 0, 5, 9, 2), (4.0, 1.0, 6.0, 4.0, -2.0, 0.0, 9.0)):
        coords = [2.5, 2.5]
        coords[1 - axis] = along
        mirror[point_id] = tuple(coords)
    selected = _assert_column_kernel_matches_brute_force(mirror)
    # On a line everybody sees at most the nearest member on either side.
    assert all(len(chosen) <= 2 for chosen in selected)


def test_quadrant_kernel_with_all_members_at_one_point():
    """Mutual non-strict dominance everywhere: the smallest other id survives."""
    mirror = {point_id: (1.5, -0.5) for point_id in (7, 3, 9, 1, 4)}
    selected = _assert_column_kernel_matches_brute_force(mirror)
    assert selected == [[1], [1], [1], [3], [1]]


def test_quadrant_kernel_sends_a_member_level_with_the_origin_to_the_flipped_side():
    """``>`` decides the side: equal on an axis means *not greater*.

    Member 1 shares the reference's x, so it belongs with the members to the
    left, where it dominates member 2; counted to the right it would instead
    dominate member 3.  Same construction on the other axis.
    """
    for swap in (False, True):
        mirror = {0: (5.0, 5.0), 1: (5.0, 7.0), 2: (4.0, 8.0), 3: (6.0, 7.5)}
        if swap:
            mirror = {point_id: (y, x) for point_id, (x, y) in mirror.items()}
        selected = _assert_column_kernel_matches_brute_force(mirror, references=[0])
        assert selected == [[1, 3]]


def test_quadrant_kernel_is_exact_on_infinite_coordinates():
    """+-inf on either axis is one more rank level, not a special case.

    For the members only: an origin is a reference peer's position, which is
    finite, so a reference at infinity is refused.
    """
    inf = math.inf
    mirror = {
        0: (0.0, 0.0), 1: (inf, 1.0), 2: (-inf, 2.0), 3: (3.0, inf), 4: (4.0, -inf),
        5: (inf, inf), 6: (-inf, -inf), 7: (inf, -inf), 8: (-inf, inf),
        9: (2.0, 2.0), 10: (-1.0, 5.0), 11: (inf, 1.0), 12: (6.0, -3.0),
    }
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # inf - inf in the tie screen stays silent
        _assert_column_kernel_matches_brute_force(mirror, references=[0, 9, 10, 12])
    with pytest.raises(ValueError, match="reference 1 has a NaN or infinite"):
        _assert_column_kernel_matches_brute_force(mirror, references=[0, 1, 5])


@pytest.mark.parametrize("exponent", [1, 4, 8])
@pytest.mark.parametrize("offset", [-1, 0, 1])
def test_quadrant_kernel_at_the_field_width_boundaries(exponent, offset):
    """``2**k - 1``, ``2**k`` and ``2**k + 1`` members: where ``bits`` steps."""
    count = 2**exponent + offset
    rng = np.random.default_rng(100 * exponent + offset)
    # Fewer levels than members, so ranks are shared on both axes.
    levels = rng.integers(0, max(2, count // 2), size=(count, 2)) / 2.0
    mirror = {
        int(point_id): tuple(row)
        for point_id, row in zip(rng.permutation(3 * count)[:count], levels.tolist())
    }
    references = sorted(mirror)[:: max(1, count // 24)]
    _assert_column_kernel_matches_brute_force(mirror, references=references)


def test_row_quadrant_kernel_with_an_empty_row_beside_a_full_one():
    rng = np.random.default_rng(18)
    mirror = {
        int(point_id): tuple(row)
        for point_id, row in zip(rng.permutation(40), rng.integers(0, 12, (40, 2)) / 2.0)
    }
    ids = list(mirror)
    references = ids[:3]
    subsets = [[], ids, [point_id for point_id in ids if rng.random() < 0.5]]
    selected = _assert_column_kernel_matches_brute_force(mirror, references, subsets)
    assert selected[0] == [] and selected[1]


def test_quadrant_kernel_rejects_what_its_keys_cannot_hold():
    mirror = {4: (0.0, 1.0), 2: (1.0, 0.0), 6: (2.0, 2.0)}
    column, references = _column(mirror), list(mirror)
    coordinates = np.asarray(list(mirror.values()))
    # NaN never enters a column: ranks and float comparisons disagree on it.
    with pytest.raises(ValueError, match="must not be NaN"):
        column.insert(7, (1.0, math.nan))
    assert 7 not in column and len(column) == 3
    poisoned = coordinates.copy()
    poisoned[1, 1] = math.nan
    with pytest.raises(ValueError, match="reference 2 has a NaN"):
        orthant_skylines(column, poisoned, references)
    # An empty column answers every row with nothing; a row names stored ids.
    assert orthant_skylines(CoordinateColumn(), coordinates, references, [[], [], []]) == [
        [], [], []
    ]
    with pytest.raises(KeyError):
        orthant_skylines(column, coordinates, references, [[4], [9], []])
    # The table refuses before it builds any array the size of the members.
    crowd = 1 << 20
    with pytest.raises(ValueError, match=f"at most {crowd - 1} members.*got {crowd}"):
        index_module._SkylineTable(np.arange(crowd), np.broadcast_to(np.zeros(2), (crowd, 2)))


@st.composite
def _orthant_draws(
    draw, min_dimension=1, max_dimension=5, coordinate=_COORDINATE, max_members=14,
    shapes=("full", "rows", "additive"),
):
    """One ``orthant_skylines`` input in ``D = 1 .. 5`` with its brute-force
    answer.

    Members sit on the small lattice by default, so coordinates tie on every
    axis; an axis may be constant for everybody, and two members may share
    every coordinate.  A reference is a member with finite coordinates
    (excluded by id) or a finite point of its own.  Rows either hold every
    member (``member_rows=None``), or are drawn per reference -- empty ones
    and a repeated id among them -- or are additive: the brute-force
    selection over a drawn subset, unflagged, followed by flagged gains from
    outside it.
    """
    dimension = draw(st.integers(min_value=min_dimension, max_value=max_dimension))
    count = draw(st.integers(min_value=1, max_value=max_members))
    ids = draw(st.lists(st.integers(0, 999), min_size=count, max_size=count, unique=True))
    coords = [[draw(coordinate) for _ in range(dimension)] for _ in ids]
    flat_axis = draw(st.sampled_from([None, *range(dimension)]))
    if flat_axis is not None:
        for row in coords:
            row[flat_axis] = 2.5
    if count > 1 and draw(st.booleans()):
        coords[1] = list(coords[0])
    mirror = {point_id: tuple(row) for point_id, row in zip(ids, coords)}
    finite = [point_id for point_id in ids if all(map(math.isfinite, mirror[point_id]))]

    references, origins = [], []
    for _ in range(draw(st.integers(min_value=1, max_value=5))):
        if finite and draw(st.booleans()):
            reference = draw(st.sampled_from(finite))
            origin = mirror[reference]
        else:
            reference = 1000 + len(references)
            origin = tuple(draw(coordinate.filter(math.isfinite)) for _ in range(dimension))
        references.append(reference)
        origins.append(origin)

    def selection(origin, reference, members):
        subset = {point_id: mirror[point_id] for point_id in members}
        return _brute_selection(subset, origin, reference)

    shape = draw(st.sampled_from(shapes))
    if shape == "full":
        expected = [selection(origin, reference, ids)
                    for origin, reference in zip(origins, references)]
        return dimension, mirror, references, origins, None, None, expected
    subsets, flags = [], []
    for origin, reference in zip(origins, references):
        if shape == "rows":
            row = draw(st.lists(st.sampled_from(ids), max_size=count + 2))
            flags.append([])
        else:
            installed = selection(
                origin, reference, draw(st.lists(st.sampled_from(ids), unique=True))
            )
            outside = [point_id for point_id in ids if point_id not in installed]
            gains = draw(st.lists(st.sampled_from(outside))) if outside else []
            row = installed + gains
            flags.append([False] * len(installed) + [True] * len(gains))
        subsets.append(row)
    subsets[0] = []
    flags[0] = []
    if shape == "rows":
        subsets[-1] = subsets[-1] + subsets[-1][:1]
    expected = [selection(origin, reference, row)
                for origin, reference, row in zip(origins, references, subsets)]
    gained = np.asarray([flag for row in flags for flag in row], dtype=bool)
    return dimension, mirror, references, origins, subsets, (
        gained if shape == "additive" else None
    ), expected


def _orthant_call(dimension, mirror, references, origins, subsets):
    """The arguments of ``orthant_skylines`` for one draw: a column holding
    the members in insertion (not id) order."""
    return (
        _column(mirror),
        np.asarray(origins, dtype=float).reshape(-1, dimension),
        references,
        subsets,
    )


@settings(max_examples=150, deadline=None)
@given(draw=_orthant_draws())
def test_orthant_skylines_is_the_union_of_brute_force_orthant_skylines(draw):
    dimension, mirror, references, origins, subsets, gained, expected = draw
    call = _orthant_call(dimension, mirror, references, origins, subsets)
    assert orthant_skylines(*call, gained) == expected


@settings(max_examples=100, deadline=None)
@given(draw=_orthant_draws(min_dimension=2, max_dimension=2))
def test_dominance_pass_equals_the_quadrant_pass_in_two_dimensions(draw):
    """Two independent implementations of one rule: the packed-rank pass
    that ``orthant_skylines`` runs in 2-D, and the flat pair pass it runs
    elsewhere, called directly on the same members in id order."""
    dimension, mirror, references, origins, subsets, gained, expected = draw
    column, origins, references, subsets = _orthant_call(
        dimension, mirror, references, origins, subsets
    )
    table = column._skyline_table()
    rows = columns = None
    if subsets is not None:
        rows = np.repeat(np.arange(len(subsets)), [len(subset) for subset in subsets])
        columns = table.position[np.asarray(
            [column._row_of[point_id] for subset in subsets for point_id in subset],
            dtype=np.int64,
        )]
    quadrant = orthant_skylines(column, origins, references, subsets)
    dominance = index_module._dominance_pass(
        origins, np.asarray(references), rows, columns, gained, table.ids, table.coords
    )
    assert quadrant == dominance == expected


# Members at huge magnitudes and at infinity: key totals round equal (or
# to +inf) between a member and the one it dominates, and a cell of up to
# 40 members keeps several, so the presorted pass runs several rounds.
_EXTREME_OR_INFINITE = st.one_of(_EXTREME, st.sampled_from([math.inf, -math.inf]))


@settings(max_examples=100, deadline=None)
@given(draw=st.one_of(
    _orthant_draws(shapes=("full",)),
    _orthant_draws(min_dimension=3, coordinate=_EXTREME_OR_INFINITE, max_members=40,
                   shapes=("full",)),
).filter(lambda draw: draw[0] != 2))
def test_sorted_pass_equals_the_dominance_pass_on_whole_columns(draw):
    """The presorted pass ``orthant_skylines`` runs against a whole column
    outside two dimensions, and the pair pass it runs over rows, called
    directly on the same members in id order."""
    dimension, mirror, references, origins, _, _, expected = draw
    column, origins, references, _ = _orthant_call(dimension, mirror, references, origins, None)
    table = column._skyline_table()
    references = np.asarray(references)
    presorted = index_module._sorted_pass(origins, references, table.ids, table.coords)
    dominance = index_module._dominance_pass(
        origins, references, None, None, None, table.ids, table.coords
    )
    assert presorted == dominance == expected


def test_sorted_pass_drops_a_dominated_member_whose_key_total_rounds_equal():
    """``1e17 + 1`` and ``1e17 + 2`` both round to ``1e17``: the totals of
    member 1 and of member 2, which dominates it, tie, and the lower id
    comes first.  The lexicographic key decides before the id does, so
    member 2 is taken first and member 1 goes."""
    mirror = {1: (1e17, 2.0, 0.0), 2: (1e17, 1.0, 0.0)}
    column = _column(mirror)
    table = column._skyline_table()
    origin = np.zeros((1, 3))
    assert index_module._sorted_pass(origin, np.asarray([-1]), table.ids, table.coords) == [[2]]
    assert orthant_skylines(column, origin, [-1]) == [_brute_selection(mirror, (0.0,) * 3, -1)]


def test_a_whole_column_selection_outside_two_dimensions_is_one_sorted_pass(monkeypatch):
    """A whole-column ``select_many`` of 8 references at ``D = 3`` is one
    presorted pass over the index's column and never asks the index a
    per-orthant question."""
    calls = []
    sorted_pass = index_module._sorted_pass

    def counted(*args):
        calls.append("_sorted_pass")
        return sorted_pass(*args)

    def refused(*args, **kwargs):
        calls.append("orthant_skyline")
        raise AssertionError("SpatialIndex.orthant_skyline is not a selection path")

    monkeypatch.setattr(index_module, "_sorted_pass", counted)
    monkeypatch.setattr(SpatialIndex, "orthant_skyline", refused)
    peers = generate_peers(60, 3, seed=11)
    index = SpatialIndex()
    for peer in peers:
        index.insert(peer.peer_id, peer.coordinates)
    member_of = MemberOf({peer.peer_id: peer for peer in peers}.__getitem__, index)
    selected = EmptyRectangleSelection().select_many(peers[:8], member_of=member_of)
    assert calls == ["_sorted_pass"]
    for reference in peers[:8]:
        assert selected[reference.peer_id] == brute_force_empty_rectangle_neighbours(
            reference, peers
        )


def test_orthant_skylines_reads_flags_and_refuses_a_misshapen_origin():
    mirror = {4: (0.0, 1.0, 2.0), 2: (1.0, 0.0, 2.0), 6: (2.0, 2.0, 2.0)}
    column, references = _column(mirror), list(mirror)
    coordinates = np.asarray(list(mirror.values()))
    assert orthant_skylines(column, coordinates, references, [[2], [6], []], [False, True]) == [
        [2], [6], []
    ]
    for origins in (coordinates[:, :2], coordinates[:2], coordinates[0]):
        with pytest.raises(ValueError, match="one 3-D row per reference"):
            orthant_skylines(column, origins, references)


@st.composite
def _region_draws(draw):
    """One ``region_top_ks`` input in ``D = 1 .. 5`` with the scan's answer.

    Members sit on the small lattice (ties on every axis, and points
    exactly on a plane through a reference); an axis may be constant for
    everybody and two members may share every coordinate.  A reference is
    a member (excluded by id) or a point of its own.  Rows hold every
    member, or are drawn per reference: empty, with repeats, naming their
    own reference.
    """
    dimension = draw(st.integers(min_value=1, max_value=5))
    count = draw(st.integers(min_value=0, max_value=14))
    ids = draw(st.lists(st.integers(0, 999), min_size=count, max_size=count, unique=True))
    coords = [[draw(_COORDINATE) for _ in range(dimension)] for _ in ids]
    flat_axis = draw(st.sampled_from([None, *range(dimension)]))
    if flat_axis is not None:
        for row in coords:
            row[flat_axis] = 2.5
    if count > 1 and draw(st.booleans()):
        coords[1] = list(coords[0])
    mirror = {point_id: tuple(row) for point_id, row in zip(ids, coords)}
    references, origins = [], []
    for _ in range(draw(st.integers(min_value=1, max_value=4))):
        if ids and draw(st.booleans()):
            reference = draw(st.sampled_from(ids))
            origin = mirror[reference]
        else:
            reference = 1000 + len(references)
            origin = tuple(draw(_COORDINATE) for _ in range(dimension))
        references.append(reference)
        origins.append(origin)
    rows = None
    if draw(st.booleans()):
        rows = [draw(st.lists(st.sampled_from(ids), max_size=count + 2)) if ids else []
                for _ in references]
        rows[0] = []
        if ids and references[-1] in mirror:
            rows[-1] = [*rows[-1], references[-1], *rows[-1]]
    hyperplane_set = draw(_hyperplane_sets(dimension))
    k, order = draw(st.integers(min_value=1, max_value=4)), draw(_ORDERS)
    expected = [
        _region_selection(
            mirror if row is None else {point_id: mirror[point_id] for point_id in row},
            origin, reference, hyperplane_set, k, order,
        )
        for origin, reference, row in zip(origins, references, rows or [None] * len(origins))
    ]
    origins = np.asarray(origins, dtype=float).reshape(-1, dimension)
    return mirror, references, origins, rows, (hyperplane_set, k, order), expected


@settings(max_examples=150, deadline=None)
@given(draw=_region_draws())
def test_region_top_ks_is_the_scan_rule_in_emission_order(draw):
    """The Hyperplanes pass equals ``brute_force_region_top_k`` -- the
    scan's signatures, ``(distance, id)`` ranks and region order -- for
    every reference, on lattice ties, on-plane points, an all-equal axis
    and repeated points, for the orthogonal, sign-coefficient (121 planes
    at ``D = 5``), empty and sloped sets under L1, L2 and L-infinity."""
    mirror, references, origins, rows, (hyperplane_set, k, order), expected = draw
    assert region_top_ks(
        _column(mirror), origins, references, hyperplane_set, k, order, rows
    ) == expected


def test_region_codes_outlast_int64_by_re_ranking():
    """Sign-coefficient sets have 40 planes at ``D = 4`` and 121 at
    ``D = 5``: more sides than one ``int64`` code holds.  Points on a grid
    land in many regions, which still come out in sorted-signature order."""
    for dimension in (4, 5):
        hyperplane_set = HyperplaneSet.sign_coefficients(dimension)
        rng = np.random.default_rng(dimension)
        mirror = {point_id: tuple(row) for point_id, row in enumerate(
            (rng.integers(-3, 4, (60, dimension)) / 2.0).tolist())}
        origin = (0.25,) * dimension
        selected = region_top_ks(
            _column(mirror), np.asarray([origin]), [-1], hyperplane_set, 1, 2.0
        )
        expected = _region_selection(mirror, origin, -1, hyperplane_set, 1, 2.0)
        assert selected == [expected] and len(expected) > 20


def test_region_top_ks_refuses_what_the_scan_cannot_rank():
    mirror = {4: (0.0, 1.0), 2: (1.0, 0.0), 6: (2.0, 2.0)}
    column, references = _column(mirror), list(mirror)
    origins = np.asarray(list(mirror.values()))
    orthogonal = HyperplaneSet.orthogonal(2)
    with pytest.raises(ValueError, match="one 2-D row per reference"):
        region_top_ks(column, origins[:, :1], references, orthogonal, 1, 2.0)
    with pytest.raises(ValueError, match="hyperplane set dimension 3"):
        region_top_ks(column, origins, references, HyperplaneSet.orthogonal(3), 1, 2.0)
    with pytest.raises(ValueError, match="k must be"):
        region_top_ks(column, origins, references, orthogonal, 0, 2.0)
    with pytest.raises(ValueError, match="Minkowski"):
        region_top_ks(column, origins, references, orthogonal, 1, 3.0)
    poisoned = origins.copy()
    poisoned[1, 1] = math.nan
    with pytest.raises(ValueError, match="reference 2 has a NaN"):
        region_top_ks(column, poisoned, references, orthogonal, 1, 2.0)
    with pytest.raises(KeyError, match="9"):
        region_top_ks(column, origins, references, orthogonal, 1, 2.0, [[4], [9], []])
    assert region_top_ks(CoordinateColumn(), origins, references, orthogonal, 1, 2.0,
                         [[], [], []]) == [[], [], []]


def _assert_column_call_matches_brute_force(column, mirror, dimension, data):
    """One kernel call over ``column``, which holds ``mirror``: up to four
    stored references and one free point, each against the whole column or
    its own drawn row."""
    stored = sorted(mirror)
    references = stored[:4] + [-1]
    origins = [mirror[reference] for reference in stored[:4]]
    origins.append(tuple(data.draw(_COORDINATE) for _ in range(dimension)))
    rows = None
    if data.draw(st.booleans()):
        rows = [data.draw(st.lists(st.sampled_from(stored))) if stored else []
                for _ in references]
    selected = orthant_skylines(
        column, np.asarray(origins, dtype=float), references, rows
    )
    # The region rule itself is drawn widely elsewhere; here it only has to
    # read the column as it is now.
    hyperplane_set = HyperplaneSet.orthogonal(dimension)
    k, order = data.draw(st.integers(1, 3)), data.draw(_ORDERS)
    regions = region_top_ks(
        column, np.asarray(origins, dtype=float), references, hyperplane_set, k, order, rows
    )
    for row, (reference, origin, chosen, ranked) in enumerate(
        zip(references, origins, selected, regions)
    ):
        members = mirror if rows is None else {point_id: mirror[point_id]
                                               for point_id in rows[row]}
        assert chosen == _brute_selection(members, origin, reference)
        assert ranked == _region_selection(members, origin, reference, hyperplane_set, k, order)


@settings(max_examples=80, deadline=None)
@given(dimension=st.integers(min_value=1, max_value=3), data=st.data())
def test_column_kernel_follows_every_write_of_its_column(dimension, data):
    """Calls of both kernels between the writes of one column's history,
    each held to the brute force: a table that outlived a write would
    answer for the column as it was.  The history re-inserts removed ids, moves points
    onto other points' coordinates and drains the column to empty; a call
    with no write before it reads the table the last call built."""
    point = st.tuples(*([_COORDINATE] * dimension))
    column, mirror, removed, next_id = CoordinateColumn(), {}, [], 0
    for _ in range(data.draw(st.integers(min_value=1, max_value=30))):
        kind = data.draw(st.sampled_from(
            ["insert", "reinsert", "remove", "move", "move onto", "drain", "call"]
        ))
        if kind == "reinsert" and removed:
            point_id = removed.pop(data.draw(st.integers(0, len(removed) - 1)))
            mirror[point_id] = data.draw(point)
            column.insert(point_id, mirror[point_id])
        elif kind in ("insert", "reinsert") or not mirror and kind != "call":
            mirror[next_id] = data.draw(point)
            column.insert(next_id, mirror[next_id])
            next_id += 1
        elif kind == "remove":
            point_id = data.draw(st.sampled_from(sorted(mirror)))
            column.remove(point_id)
            del mirror[point_id]
            removed.append(point_id)
        elif kind.startswith("move"):
            point_id = data.draw(st.sampled_from(sorted(mirror)))
            target = (mirror[data.draw(st.sampled_from(sorted(mirror)))]
                      if kind == "move onto" else data.draw(point))
            column.move(point_id, target)
            mirror[point_id] = target
        elif kind == "drain":
            for point_id in sorted(mirror):
                column.remove(point_id)
                removed.append(point_id)
            mirror.clear()
        _assert_column_call_matches_brute_force(column, mirror, dimension, data)


@pytest.mark.parametrize("dimension", [2, 3])
def test_the_column_builds_one_table_per_version(monkeypatch, dimension):
    """Calls with no write in between share one table; ``insert``,
    ``remove`` and ``move`` each force the next call to build a new one."""
    built = []
    table = index_module._SkylineTable

    def counted(*arrays):
        built.append(len(arrays[0]))
        return table(*arrays)

    monkeypatch.setattr(index_module, "_SkylineTable", counted)
    rng = np.random.default_rng(dimension)
    mirror = {int(point_id): tuple(row) for point_id, row in zip(
        rng.permutation(90)[:40], (rng.integers(0, 40, (40, dimension)) / 4.0).tolist())}
    column, ids = _column(mirror), sorted(mirror)

    def call():
        references = ids[:6]
        origins = np.asarray([mirror[reference] for reference in references])
        selected = orthant_skylines(column, origins, references)
        assert selected == [
            _brute_selection(mirror, mirror[reference], reference) for reference in references
        ]
        return selected

    first = call()
    for _ in range(4):
        assert call() == first
    assert built == [40]
    mirror[100] = (0.125,) * dimension
    column.insert(100, mirror[100])
    call()
    del mirror[100]
    column.remove(100)
    call()
    mirror[ids[0]] = (9.875,) * dimension
    column.move(ids[0], mirror[ids[0]])
    call()
    call()
    assert built == [40, 41, 40, 40]


def test_batched_scan_selection_rejects_a_mixed_dimension_candidate():
    """One validation per distinct member, same error as the per-reference scan."""
    selection = EmptyRectangleSelection()
    reference, flat, solid = (
        make_peer(0, (0.0, 0.0)), make_peer(1, (1.0, 2.0)), make_peer(2, (1.0, 2.0, 3.0))
    )
    with pytest.raises(ValueError, match="candidate 2 has dimension 3"):
        selection.select(reference, [flat, solid])
    with pytest.raises(ValueError, match="candidate 2 has dimension 3"):
        selection.select_many([reference, flat], {0: [flat], 1: [reference, solid]})
    with pytest.raises(ValueError, match="candidate 2 has dimension 3"):
        selection.select_many_additive([(reference, [flat], [solid, make_peer(3, (4.0, 5.0))])])
    assert selection.select_many([reference, flat], {0: [], 1: []}) == {0: [], 1: []}


@settings(max_examples=60, deadline=None)
@given(history=_histories(max_dimension=2), data=st.data())
def test_region_top_k_matches_brute_force(history, data):
    dimension, operations = history
    index, mirror = _replay(operations)
    origin = tuple(data.draw(_COORDINATE) for _ in range(dimension))
    k = data.draw(st.integers(min_value=1, max_value=4))
    order = data.draw(_ORDERS)
    hyperplane_set = data.draw(
        st.sampled_from(
            [
                None,
                HyperplaneSet.empty(dimension),
                HyperplaneSet.orthogonal(dimension),
                HyperplaneSet.sign_coefficients(dimension),
            ]
        )
    )
    assert index.region_top_k(origin, hyperplane_set, k, order=order) == (
        brute_force_region_top_k(mirror, origin, hyperplane_set, k, order=order)
    )


@settings(max_examples=25, deadline=None)
@given(history=_histories(max_operations=60), data=st.data())
def test_queries_stay_exact_after_drain_and_regrowth(history, data):
    """Drain the index to empty, regrow it, and cross-check again -- with
    the degenerate empty-index state in the middle, where every query must
    return nothing rather than fail.
    """
    dimension, operations = history
    index, mirror = _replay(operations)
    for point_id in sorted(mirror):
        index.remove(point_id)
    assert len(index) == 0
    assert index.dimension == dimension  # retained across the drain
    assert index.ids() == []
    empty = HyperplaneSet.empty(dimension)
    assert region_top_ks(index, np.zeros((1, dimension)), [-1], empty, 3, 2.0) == [[]]
    assert index.orthant_skyline((0.0,) * dimension, (1,) * dimension) == []
    _assert_column_is_the_point_store(index, {})
    regrown = {}
    # Ids the drain removed come back first, then fresh ones.
    regrown_ids = sorted(mirror) + [1000 + offset for offset in range(8)]
    for point_id in regrown_ids[: data.draw(st.integers(min_value=0, max_value=8))]:
        coords = tuple(data.draw(_COORDINATE) for _ in range(dimension))
        index.insert(point_id, coords)
        regrown[point_id] = coords
    _assert_column_is_the_point_store(index, regrown)
    origin = tuple(data.draw(_COORDINATE) for _ in range(dimension))
    nearest = region_top_ks(index, np.asarray([origin]), [-1], empty, 4, 2.0)
    assert nearest == [brute_force_nearest_k(regrown, origin, 4)]
    signs = tuple(data.draw(st.sampled_from([-1, 1])) for _ in range(dimension))
    assert index.orthant_skyline(origin, signs) == (
        brute_force_orthant_skyline(regrown, origin, signs)
    )
    orthogonal = HyperplaneSet.orthogonal(dimension)
    assert region_top_ks(index, np.asarray([origin]), [-1], orthogonal, 3, 1.0) == [
        _region_selection(regrown, origin, -1, orthogonal, 3, 1.0)
    ]


def test_duplicate_coordinates_are_first_class():
    """Several ids at the identical point: all indexed, ties resolved by id."""
    index = SpatialIndex()
    for point_id in (5, 1, 9, 3):
        index.insert(point_id, (2.0, 2.0))
    index.insert(7, (4.0, 2.0))
    mirror = {5: (2.0, 2.0), 1: (2.0, 2.0), 9: (2.0, 2.0), 3: (2.0, 2.0), 7: (4.0, 2.0)}
    _assert_column_is_the_point_store(index, mirror)
    # Every duplicate is its own row, and the whole group, on both planes
    # through the origin, forms one zero-signature region, emitted first.
    origin = np.asarray([(2.0, 2.0)])
    assert region_top_ks(index, origin, [-1], HyperplaneSet.orthogonal(2), 5, 2.0) == [
        [1, 3, 5, 9, 7]
    ]
    # (distance, id) ranking: duplicates of the origin come first, id order;
    # a duplicate that is the reference is excluded by id, not position.
    empty = HyperplaneSet.empty(2)
    assert region_top_ks(index, origin, [-1], empty, 3, 2.0) == [[1, 3, 5]]
    assert region_top_ks(index, origin, [3], empty, 3, 2.0, [[9, 3, 7, 5, 9]]) == [[5, 9, 7]]
    # Mutual non-strict dominance between identical points: the scan keeps
    # the first in lexicographic (key, id) order, and so must the index.
    got = index.orthant_skyline((1.0, 1.0), (1, 1))
    assert got == brute_force_orthant_skyline(mirror, (1.0, 1.0), (1, 1))
    assert got == [1]


def test_collinear_points_skyline_and_regions():
    """All points on one axis-parallel line -- zero-extent boxes everywhere."""
    index = SpatialIndex()
    mirror = {}
    for point_id in range(24):
        coords = (float(point_id), 3.0)
        index.insert(point_id, coords)
        mirror[point_id] = coords
    origin = (10.5, 3.0)
    for signs in ((1, 1), (-1, -1), (1, -1), (-1, 1)):
        assert index.orthant_skyline(origin, signs) == (
            brute_force_orthant_skyline(mirror, origin, signs)
        )
    hyperplane_set = HyperplaneSet.orthogonal(2)
    assert region_top_ks(index, np.asarray([origin]), [-1], hyperplane_set, 2, 2.0) == [
        _region_selection(mirror, origin, -1, hyperplane_set, 2, 2.0)
    ]
    # Every point is exactly on this plane through (anything, 3.0): one
    # zero-signature region, whole, ranked by distance from x = 0.
    on_the_line = HyperplaneSet([Hyperplane((0.0, 1.0))], dimension=2)
    assert region_top_ks(index, np.asarray([(0.0, 3.0)]), [-1], on_the_line, 24, 2.0) == [
        list(range(24))
    ]


def test_maintenance_error_paths():
    index = SpatialIndex()
    index.insert(1, (0.0, 0.0))
    with pytest.raises(ValueError, match="already indexed"):
        index.insert(1, (1.0, 1.0))
    with pytest.raises(ValueError, match="dimension"):
        index.insert(2, (1.0, 1.0, 1.0))
    with pytest.raises(KeyError):
        index.remove(99)
    with pytest.raises(KeyError):
        index.move(99, (1.0, 1.0))
    with pytest.raises(ValueError, match="dimension"):
        index.move(1, (1.0, 1.0, 1.0))
    assert 1 in index and index.point(1) == (0.0, 0.0)  # rejected move is a no-op
    _assert_column_is_the_point_store(index, {1: (0.0, 0.0)})
    with pytest.raises(ValueError, match="origin dimension 3"):
        index.orthant_skyline((0.0, 0.0, 0.0), (1, 1, 1))
    with pytest.raises(ValueError, match="orthant signs"):
        index.orthant_skyline((0.0, 0.0), (1, 0))
    assert index.point(1) == (0.0, 0.0)
    assert 1 in index and 99 not in index
