"""The containment-distance kernel: grid index, leaves and scan against brute force."""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from torusflow import _kernels
from torusflow._kernels import (
    GRID_MIN_PAIRS,
    GRID_MIN_TARGETS,
    min_distance_batch,
    min_distance_local,
    uses_grid,
)


def grid_min_distance(points, offsets, nodes):
    """``min_distance_batch`` through the grid index, whatever the size."""
    return _kernels._nearest(points, offsets, nodes, _kernels._grid)


def scan_min_distance(points, offsets, nodes):
    """``min_distance_batch`` by a direct-difference scan of every pair."""
    return _kernels._nearest(points, offsets, nodes, _kernels._scan)


SEARCHES = (min_distance_batch, grid_min_distance, scan_min_distance)


def brute_force(points, offsets, nodes):
    combos = (offsets[:, None, :] + nodes[None, :, :]).reshape(
        len(offsets) * len(nodes), points.shape[1]
    )
    d2 = ((points[:, None, :] - combos[None, :, :]) ** 2).sum(-1)
    idx = d2.argmin(axis=1)
    return np.sqrt(d2[np.arange(len(points)), idx]), idx % len(nodes)


def assert_matches_brute_force(fn, pts, offs, nds):
    d, idx = fn(pts, offs, nds)
    ref_d, ref_idx = brute_force(pts, offs, nds)
    # both sum the same squared differences in the same order; a query that
    # is not a number is at distance nan from every target
    assert np.array_equal(d, ref_d, equal_nan=True)
    assert np.array_equal(idx, ref_idx)


@st.composite
def workloads(draw):
    """Targets around the origin; queries near them or far outside their box.

    On an integer grid exact ties between targets are common; duplicated
    nodes tie at equal node index.
    """
    q = draw(st.sampled_from([0, 1, 2, 3]))
    T = draw(st.sampled_from([1, 9, 27]))
    P = draw(st.integers(1, 40))
    M = draw(st.integers(1, 60))
    spread = draw(st.sampled_from([0.5, 1.0, 4.0, 60.0]))
    integer = draw(st.booleans())
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    offs = rng.integers(-2, 3, size=(T, q)).astype(float)
    if integer:
        nds = rng.integers(-3, 4, size=(P, q)).astype(float)
        pts = rng.integers(-4, 5, size=(M, q)) * spread
    else:
        nds = rng.normal(size=(P, q))
        pts = rng.normal(size=(M, q)) * spread
    if draw(st.booleans()):
        nds = np.vstack([nds, nds[: P // 2 + 1]])
    return pts.astype(float), offs, nds


@st.composite
def far_workloads(draw):
    """Enough queries far outside the targets' box that the grid hands them,
    GRID_MIN_PAIRS pairs and more, to the leaves; plus near and non-finite
    queries.  N is rarely a multiple of the leaf size, so the last leaf is
    padded.
    """
    q = draw(st.sampled_from([1, 2, 3]))
    T = draw(st.sampled_from([1, 9, 27]))
    P = draw(st.integers(600 // T, 1500 // T))
    M = GRID_MIN_PAIRS // (T * P) + draw(st.integers(1, 60))
    spread = draw(st.sampled_from([20.0, 60.0]))
    integer = draw(st.booleans())
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    offs = rng.integers(-2, 3, size=(T, q)).astype(float)
    if integer:
        nds = rng.integers(-3, 4, size=(P, q)).astype(float)
        far = rng.integers(-4, 5, size=(M, q)) * spread
        near = rng.integers(-4, 5, size=(20, q)).astype(float)
    else:
        nds = rng.normal(size=(P, q))
        far = rng.normal(size=(M, q)) * spread
        near = rng.normal(size=(20, q))
    far[np.all(np.abs(far) < 10.0, axis=1)] = spread
    if draw(st.booleans()):
        nds = np.vstack([nds, nds[: P // 2 + 1]])
    odd = np.full((3, q), np.nan)
    odd[1], odd[2, 0] = np.inf, -np.inf
    pts = np.vstack([far, near, odd])
    return rng.permutation(pts), offs, nds


@settings(max_examples=300, deadline=None)
@given(workloads())
def test_index_matches_brute_force(workload):
    for fn in SEARCHES:
        assert_matches_brute_force(fn, *workload)


@settings(max_examples=25, deadline=None)
@given(far_workloads())
def test_far_queries_match_brute_force(workload):
    with mock.patch.object(_kernels, "_leaves", wraps=_kernels._leaves) as leaves:
        for fn in SEARCHES:
            assert_matches_brute_force(fn, *workload)
    assert leaves.called


@pytest.mark.parametrize("q", [1, 2, 3])
@pytest.mark.parametrize("integer", [True, False], ids=["integer", "float"])
def test_leaves_match_the_scan(q, integer):
    rng = np.random.default_rng(q)
    if integer:
        # exact ties everywhere, and every target twice
        targets = np.tile(rng.integers(-4, 5, size=(500, q)), (2, 1)).astype(float)
        points = rng.integers(-12, 13, size=(700, q)).astype(float)
    else:
        targets = rng.normal(size=(1000, q))
        points = rng.normal(size=(700, q)) * 6.0
    # 1000 targets make 32 leaves of 32, the last one padded
    assert _kernels._kd_leaves(targets).size > len(targets)
    best, flat = _kernels._leaves(points, targets)
    ref_best, ref_flat = _kernels._scan(points, targets)
    assert np.array_equal(best, ref_best)
    assert np.array_equal(flat, ref_flat)


def test_many_far_queries_go_to_the_leaves(scanned):
    rng = np.random.default_rng(7)
    nds = rng.uniform(0.0, 1.0, size=(2000, 2))
    offs = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    near = rng.uniform(0.0, 2.0, size=(100, 2))
    far = rng.uniform(5.0, 50.0, size=(400, 2)) * rng.choice([-1.0, 1.0], (400, 2))
    assert_matches_brute_force(grid_min_distance, np.vstack([near, far]), offs, nds)
    assert scanned == []


@pytest.mark.parametrize("bad", [np.inf, np.nan])
def test_targets_that_are_not_finite_are_scanned(bad):
    rng = np.random.default_rng(2)
    nds = rng.normal(size=(3000, 1))
    nds[5] = bad
    pts = rng.normal(size=(400, 1))
    assert_matches_brute_force(grid_min_distance, pts, np.zeros((1, 1)), nds)


@pytest.fixture()
def scanned(monkeypatch):
    """The number of queries in each call to ``_scan``."""
    sizes = []
    real_scan = _kernels._scan

    def spy(points, targets):
        sizes.append(len(points))
        return real_scan(points, targets)

    monkeypatch.setattr(_kernels, "_scan", spy)
    return sizes


def test_queries_far_outside_the_targets_are_scanned(scanned):
    rng = np.random.default_rng(5)
    nds = rng.uniform(0.0, 1.0, size=(200, 2))
    offs = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    near = rng.uniform(0.0, 2.0, size=(100, 2))
    far = rng.uniform(5.0, 50.0, size=(100, 2)) * rng.choice([-1.0, 1.0], (100, 2))
    pts = np.vstack([near, far])
    assert_matches_brute_force(grid_min_distance, pts, offs, nds)
    assert scanned and 100 <= scanned[0] < 200


@pytest.mark.parametrize("fn", SEARCHES)
def test_ties_go_to_the_lowest_flat_index(fn):
    # targets: t=0 -> (-1, 1), t=1 -> (1, 3); a query at 1 ties flat 1 and 2
    offs = np.array([[0.0], [2.0]])
    nds = np.array([[-1.0], [1.0]])
    d, idx = fn(np.ones((3, 1)), offs, nds)
    assert np.array_equal(d, np.zeros(3))
    assert np.array_equal(idx, [1, 1, 1])
    # duplicated nodes: the first copy wins
    d, idx = fn(np.full((3, 1), 0.4), np.zeros((1, 1)), np.array([[2.0], [0.0], [0.0]]))
    assert np.array_equal(idx, [1, 1, 1])


@pytest.mark.parametrize("q", [1, 2, 3])
def test_work_split_into_small_chunks_changes_nothing(monkeypatch, q):
    monkeypatch.setattr(_kernels, "_CHUNK_PAIRS", 7)
    monkeypatch.setattr(_kernels, "_BLOCK_TARGETS", 40)
    rng = np.random.default_rng(q)
    pts = rng.normal(size=(80, q)) * 2.0
    offs = rng.integers(-1, 2, size=(9, q)).astype(float)
    nds = rng.normal(size=(30, q))
    for fn in SEARCHES:
        assert_matches_brute_force(fn, pts, offs, nds)
    local = rng.normal(size=(80, 33, q))
    ref = [min_distance_batch(pts[i : i + 1], offs, local[i])[0][0] for i in range(80)]
    assert np.array_equal(min_distance_local(pts, offs, local), ref)


@pytest.mark.parametrize(
    "q, T, P, M",
    [(1, 9, 3000, 10), (2, 9, 3000, 15), (4, 5, 2500, 30), (2, 3, 9000, 5)],
)
def test_scan_blocks_of_whole_offsets(scanned_targets, q, T, P, M):
    # integer offsets and nodes: the same target recurs in many blocks
    rng = np.random.default_rng(q * T)
    offs = rng.integers(-2, 3, size=(T, q)).astype(float)
    nds = rng.integers(-3, 4, size=(P, q)).astype(float)
    pts = rng.integers(-6, 7, size=(M, q)).astype(float)
    # the last offset is -inf in its first coordinate, and so is one query:
    # its distance is inf in the first blocks and NaN in the last
    offs[-1, 0] = -np.inf
    pts[0, 0], pts[1] = -np.inf, np.nan
    assert not uses_grid(M, T * P, q)
    assert_matches_brute_force(min_distance_batch, pts, offs, nds)
    per = max(1, _kernels._BLOCK_TARGETS // P)
    assert scanned_targets == [min(per, T - t) * P for t in range(0, T, per)]


@pytest.fixture()
def scanned_targets(monkeypatch):
    """The number of targets in each call to ``_scan``."""
    sizes = []
    real_scan = _kernels._scan

    def spy(points, targets):
        sizes.append(len(targets))
        return real_scan(points, targets)

    monkeypatch.setattr(_kernels, "_scan", spy)
    return sizes


ENOUGH_TARGETS = GRID_MIN_TARGETS * 8**2


@pytest.mark.parametrize(
    "M, P, grid",
    [
        (GRID_MIN_PAIRS // ENOUGH_TARGETS + 1, ENOUGH_TARGETS, True),
        (GRID_MIN_PAIRS // ENOUGH_TARGETS - 1, ENOUGH_TARGETS, False),
        (2 * GRID_MIN_PAIRS // ENOUGH_TARGETS, ENOUGH_TARGETS - 1, False),
    ],
    ids=["grid", "few-pairs", "few-targets"],
)
def test_both_sides_of_the_size_cutoff(monkeypatch, M, P, grid):
    rng = np.random.default_rng(11)
    pts = rng.uniform(-1.0, 4.0, size=(M, 2))
    offs = np.array([[0.0, 0.0]])
    nds = rng.uniform(0.0, 3.0, size=(P, 2))
    used = []
    real_grid = _kernels._grid

    def spy(points, targets):
        used.append("grid")
        return real_grid(points, targets)

    monkeypatch.setattr(_kernels, "_grid", spy)
    assert uses_grid(M, P, 2) == grid
    assert_matches_brute_force(min_distance_batch, pts, offs, nds)
    assert used == (["grid"] if grid else [])


def test_empty_inputs():
    for fn in SEARCHES:
        d, idx = fn(np.zeros((0, 3)), np.zeros((2, 3)), np.zeros((2, 3)))
        assert len(d) == 0 and len(idx) == 0
        d, idx = fn(np.zeros((4, 3)), np.zeros((0, 3)), np.zeros((2, 3)))
        assert np.all(np.isinf(d))
        d, idx = fn(np.zeros((4, 3)), np.zeros((2, 3)), np.zeros((0, 3)))
        assert np.all(np.isinf(d))


def test_single_target():
    for fn in SEARCHES:
        pts = np.array([[3.0, 4.0]])
        d, idx = fn(pts, np.zeros((1, 2)), np.zeros((1, 2)))
        assert np.allclose(d, [5.0])
        assert idx[0] == 0


def test_local_nodes_match_per_point_batches():
    rng = np.random.default_rng(3)
    pts = rng.normal(size=(50, 2))
    offs = rng.integers(-1, 2, size=(9, 2)).astype(float)
    nodes = rng.normal(size=(50, 33, 2))
    d = min_distance_local(pts, offs, nodes)
    ref = [min_distance_batch(pts[i : i + 1], offs, nodes[i])[0][0] for i in range(50)]
    assert np.array_equal(d, ref)
    assert np.all(np.isinf(min_distance_local(pts, offs[:0], nodes)))
