"""The containment-distance kernel: sorted search, kd leaves and scan against
brute force."""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from torusflow import _kernels
from torusflow._kernels import (
    INDEX_MIN_PAIRS,
    INDEX_MIN_TARGETS,
    min_distance_batch,
    min_distance_local,
    uses_index,
)


def index_min_distance(points, offsets, nodes):
    """``min_distance_batch`` through an index, whatever the size: the sorted
    search at q = 1 and the kd leaves at q = 2 and 3."""
    with mock.patch.object(_kernels, "uses_index", return_value=True):
        return min_distance_batch(points, offsets, nodes)


def scan_min_distance(points, offsets, nodes):
    """``min_distance_batch`` by a direct-difference scan of every pair."""
    with mock.patch.object(_kernels, "uses_index", return_value=False):
        return min_distance_batch(points, offsets, nodes)


SEARCHES = (min_distance_batch, index_min_distance, scan_min_distance)


def brute_force(points, offsets, nodes):
    combos = (offsets[:, None, :] + nodes[None, :, :]).reshape(
        len(offsets) * len(nodes), points.shape[1]
    )
    # a query or target that is not finite may give inf - inf = nan
    with np.errstate(invalid="ignore"):
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
    """Queries far outside the targets' box, INDEX_MIN_PAIRS pairs and more,
    for the kd leaves; plus near queries and three that are not finite,
    which are scanned.  N is rarely a multiple of the leaf size, so the last
    leaf is padded.  q is 2 or 3, because at q = 1 the sorted search answers
    in place of the leaves.
    """
    q = draw(st.sampled_from([2, 3]))
    T = draw(st.sampled_from([1, 9, 27]))
    P = draw(st.integers(600 // T, 1500 // T))
    M = INDEX_MIN_PAIRS // (T * P) + draw(st.integers(1, 60))
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
    with (
        mock.patch.object(_kernels, "_leaves", wraps=_kernels._leaves) as leaves,
        mock.patch.object(_kernels, "_scan", wraps=_kernels._scan) as scan,
    ):
        assert_matches_brute_force(index_min_distance, *workload)
    assert leaves.called
    # the leaves take every finite query; only the three others are scanned
    assert [len(call.args[0]) for call in scan.call_args_list] == [3]
    for fn in (min_distance_batch, scan_min_distance):
        assert_matches_brute_force(fn, *workload)


@st.composite
def sorted_workloads(draw):
    """One coordinate, with the cases a sorted search must hand to the scan:
    integer ties, duplicated targets, queries near +-1e8 against targets 1e-9
    apart (distinct values at the same rounded distance), squares that
    overflow to inf, and queries and targets that are not finite.
    """
    kind = draw(st.sampled_from(["integer", "normal", "near-1e8", "overflow"]))
    N = draw(st.integers(1, 200))
    M = draw(st.integers(1, 100))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if kind == "integer":
        targets = rng.integers(-5, 6, N).astype(float)
        points = rng.integers(-8, 9, M) * draw(st.sampled_from([0.5, 1.0]))
    elif kind == "normal":
        targets = rng.normal(size=N)
        points = rng.normal(size=M) * 3.0
    elif kind == "near-1e8":
        targets = 1e-9 * rng.integers(-20, 21, N)
        points = rng.choice([-1e8, 1e8], M) + rng.normal(size=M)
    else:
        targets = rng.choice([-1e200, 1e200, 0.0, 1.0], N)
        points = rng.choice([-1e200, 1e200, 0.5, 5.0], M)
    if draw(st.booleans()):
        targets = rng.permutation(np.concatenate([targets, targets[: N // 2 + 1]]))
    odd = [np.nan, np.inf, -np.inf]
    if draw(st.booleans()):
        points[rng.integers(0, M, 3)] = odd
    if draw(st.integers(0, 4)) == 0:
        targets[rng.integers(0, len(targets))] = draw(st.sampled_from(odd))
    return points[:, None], targets[:, None]


@settings(max_examples=400, deadline=None)
@given(sorted_workloads())
def test_sorted_matches_the_scan(workload):
    points, targets = workload
    # the scan overflows and meets inf - inf on these inputs too
    with np.errstate(over="ignore", invalid="ignore"):
        best, flat = _kernels._sorted(points, targets)
        ref_best, ref_flat = _kernels._scan(points, targets)
    assert np.array_equal(best, ref_best, equal_nan=True)
    assert np.array_equal(flat, ref_flat)


def test_sorted_scans_only_unsure_queries(monkeypatch):
    # 0, 1e-9 and 2e-9 are distinct but round alike from -1e8; 1..999 do not
    targets = np.concatenate([1e-9 * np.arange(3), np.arange(1.0, 1000.0)])[:, None]
    rng = np.random.default_rng(4)
    sure = rng.uniform(-5.0, 1005.0, size=(300, 1))
    sure[:50] = np.round(sure[:50] * 2.0) / 2.0
    unsure = np.array([[-1e8], [-1e8 - 3.0], [np.nan], [np.inf], [-np.inf]])
    order = rng.permutation(len(sure) + len(unsure))
    pts = np.vstack([sure, unsure])[order]
    scanned = []
    real_scan = _kernels._scan

    def spy(points, targets):
        scanned.append(points.copy())
        return real_scan(points, targets)

    monkeypatch.setattr(_kernels, "_scan", spy)
    assert_matches_brute_force(index_min_distance, pts, np.zeros((1, 1)), targets)
    assert len(scanned) == 1
    expected = pts[np.sort(np.nonzero(order >= len(sure))[0])]
    assert np.array_equal(scanned[0], expected, equal_nan=True)


def test_no_coordinates_answer_directly(scanned):
    for fn in SEARCHES:
        d, idx = fn(np.zeros((5, 0)), np.zeros((3, 0)), np.zeros((4, 0)))
        assert np.array_equal(d, np.zeros(5))
        assert np.array_equal(idx, np.zeros(5))
    assert scanned == []


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
    assert_matches_brute_force(index_min_distance, np.vstack([near, far]), offs, nds)
    assert scanned == []


@pytest.mark.parametrize("q", [1, 2, 3])
@pytest.mark.parametrize("bad", [np.inf, np.nan])
def test_targets_that_are_not_finite_are_scanned(bad, q):
    rng = np.random.default_rng(2)
    nds = rng.normal(size=(3000, q))
    nds[5, q - 1] = bad
    pts = rng.normal(size=(400, q))
    assert_matches_brute_force(index_min_distance, pts, np.zeros((1, q)), nds)


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
    assert np.array_equal(min_distance_local(pts, offs, local, np.arange(80)), ref)


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
    assert not uses_index(M, T * P, q)
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


ENOUGH_TARGETS = INDEX_MIN_TARGETS * 8**2


@pytest.mark.parametrize(
    "M, P, indexed",
    [
        (INDEX_MIN_PAIRS // ENOUGH_TARGETS + 1, ENOUGH_TARGETS, True),
        (INDEX_MIN_PAIRS // ENOUGH_TARGETS - 1, ENOUGH_TARGETS, False),
        (2 * INDEX_MIN_PAIRS // ENOUGH_TARGETS, ENOUGH_TARGETS - 1, False),
    ],
    ids=["index", "few-pairs", "few-targets"],
)
def test_both_sides_of_the_size_cutoff(monkeypatch, M, P, indexed):
    rng = np.random.default_rng(11)
    pts = rng.uniform(-1.0, 4.0, size=(M, 2))
    offs = np.array([[0.0, 0.0]])
    nds = rng.uniform(0.0, 3.0, size=(P, 2))
    used = []
    real_leaves = _kernels._leaves

    def spy(points, targets):
        used.append("leaves")
        return real_leaves(points, targets)

    monkeypatch.setattr(_kernels, "_leaves", spy)
    assert uses_index(M, P, 2) == indexed
    assert_matches_brute_force(min_distance_batch, pts, offs, nds)
    assert used == (["leaves"] if indexed else [])


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


@pytest.mark.parametrize("q", [1, 2, 3])
def test_narrow_scans_match_the_argmin_scan(monkeypatch, q):
    # up to 8 finite targets go one at a time; integer data ties often
    rng = np.random.default_rng(q)
    for T in range(1, 9):
        pts = rng.integers(-3, 4, size=(200, q)) / 2.0
        targets = rng.integers(-3, 4, size=(T, q)).astype(float)
        narrow = _kernels._scan(pts, targets)
        with mock.patch.object(_kernels, "_NARROW_TARGETS", 0):
            wide = _kernels._scan(pts, targets)
        assert np.array_equal(narrow[0], wide[0])
        assert np.array_equal(narrow[1], wide[1])


@pytest.mark.parametrize("chunk", [7, 1 << 20])
def test_local_windows_match_per_point_batches(monkeypatch, chunk):
    # distinct windows handed over once, with a window index per row
    monkeypatch.setattr(_kernels, "_CHUNK_PAIRS", chunk)
    rng = np.random.default_rng(4)
    pts = rng.normal(size=(60, 2)) * 3.0
    windows = rng.normal(size=(5, 33, 2))
    node_of = rng.integers(0, 5, size=60)
    offs = rng.integers(-2, 3, size=(4, 2)).astype(float)
    d = min_distance_local(pts, offs, windows, node_of)
    ref = [
        min_distance_batch(pts[i : i + 1], offs, windows[node_of[i]])[0][0]
        for i in range(60)
    ]
    assert np.array_equal(d, ref)
    assert np.array_equal(d, min_distance_local(pts, offs, windows[node_of], np.arange(60)))


def test_local_nodes_match_per_point_batches():
    rng = np.random.default_rng(3)
    pts = rng.normal(size=(50, 2))
    offs = rng.integers(-1, 2, size=(9, 2)).astype(float)
    nodes = rng.normal(size=(50, 33, 2))
    d = min_distance_local(pts, offs, nodes, np.arange(50))
    ref = [min_distance_batch(pts[i : i + 1], offs, nodes[i])[0][0] for i in range(50)]
    assert np.array_equal(d, ref)
    assert np.all(np.isinf(min_distance_local(pts, offs[:0], nodes, np.arange(50))))
