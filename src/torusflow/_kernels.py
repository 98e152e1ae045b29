"""The containment-distance kernel: exact nearest target per query, in numpy.

The verifier's hot loop is the distance from each reduced sample to the
target cloud {offset + node} (projected lattice translates plus base-set
nodes).  Two exact searches share one arithmetic:

* a direct-difference scan over every target, in query blocks;
* a uniform-grid index (Bentley, Stanat and Williams, "The complexity of
  finding fixed-radius near neighbors", IPL 1977): the targets are bucketed
  into cells of side h and each query looks only at the 3^q cells around
  its own.  A best distance <= h found there is the true minimum, because
  every target within h of the query lies in those cells.  Queries that
  find nothing that close are finished by the scan.

``min_distance_batch`` picks between them from the input shape alone.
Squared distances are summed coordinate by coordinate in a fixed order, so
both searches round every (query, target) pair identically and agree
exactly, ties included: the lowest flat index t * P + p wins.

Differences are taken directly.  The matmul identity |x|^2 + |c|^2 - 2 x.c
cancels badly: with |x| about 10 it is off by 2e-10 at distance 1e-3 and by
up to 1.7e-7 near distance 0.
"""

import itertools

import numpy as np

# The grid pays for itself only with enough pairs to cover building it, and
# enough targets per query to beat the 3^q cells it visits.  Measured break-
# even target counts are about 100 at q = 1, 1000 at q = 2 and 10^4 at q = 3,
# hence GRID_MIN_TARGETS * 8^q.
GRID_MIN_PAIRS = 1 << 19
GRID_MIN_TARGETS = 16
GRID_MAX_DIM = 3
# (query, target) pairs held in memory at once, about 8 MB per float array
_CHUNK_PAIRS = 1 << 20
# a grid hit must be this much inside the cell side to count as exact; the
# margin covers rounding of the cell coordinates
_EXACT_MARGIN = 1.0 - 1e-6


def backend_name() -> str:
    return "numpy"


def min_distance_batch(points, offsets, nodes):
    """Min distance from each point to {offset + node} over all pairs.

    points:  (M, q) float64
    offsets: (T, q) float64 (e.g. projected lattice translates)
    nodes:   (P, q) float64 (e.g. projected base-set nodes)

    Returns (dists, node_index): per-point minimal Euclidean distance and the
    index of the node achieving it (the lowest flat (t, p) index on ties).
    """
    return _nearest(points, offsets, nodes, _search)


def scan_min_distance(points, offsets, nodes):
    """``min_distance_batch`` by a direct-difference scan of every pair."""
    return _nearest(points, offsets, nodes, _scan)


def grid_min_distance(points, offsets, nodes):
    """``min_distance_batch`` through the grid index, whatever the size."""
    return _nearest(points, offsets, nodes, _grid)


def min_distance_local(points, offsets, nodes):
    """Per point i, min over t and j of |points[i] - offsets[t] - nodes[i, j]|.

    points:  (K, q) float64
    offsets: (T, q) float64
    nodes:   (K, L, q) float64, each point's own nodes

    Returns the (K,) distances, rounded as ``min_distance_batch`` rounds them.
    """
    points = np.asarray(points, dtype=float)
    offsets = np.asarray(offsets, dtype=float)
    nodes = np.asarray(nodes, dtype=float)
    K = len(points)
    T, L = len(offsets), nodes.shape[1] if nodes.ndim == 3 else 0
    if T == 0 or L == 0:
        return np.full(K, np.inf)
    out = np.empty(K)
    step = max(1, _CHUNK_PAIRS // (T * L))
    for i in range(0, K, step):
        targets = offsets[None, :, None, :] + nodes[i : i + step, None, :, :]
        d2 = _sq_dist(points[i : i + step, None, None, :], targets)
        out[i : i + step] = d2.reshape(len(d2), -1).min(axis=1)
    return np.sqrt(out)


def _nearest(points, offsets, nodes, search):
    points = np.ascontiguousarray(points, dtype=float)
    offsets = np.ascontiguousarray(offsets, dtype=float)
    nodes = np.ascontiguousarray(nodes, dtype=float)
    M, q = points.shape
    P = len(nodes)
    if M == 0:
        return np.zeros(0), np.zeros(0, dtype=np.intp)
    if len(offsets) == 0 or P == 0:
        return np.full(M, np.inf), np.zeros(M, dtype=np.intp)
    targets = (offsets[:, None, :] + nodes[None, :, :]).reshape(len(offsets) * P, q)
    d2, flat = search(points, targets)
    return np.sqrt(d2), flat % P


def uses_grid(n_points, n_targets, q):
    """Whether ``min_distance_batch`` searches this shape with the grid."""
    return (
        1 <= q <= GRID_MAX_DIM
        and n_targets >= GRID_MIN_TARGETS * 8**q
        and n_points * n_targets >= GRID_MIN_PAIRS
    )


def _search(points, targets):
    if uses_grid(len(points), len(targets), points.shape[1]):
        return _grid(points, targets)
    return _scan(points, targets)


def _sq_dist(a, b):
    """Squared distances between broadcast rows, summed in coordinate order."""
    q = a.shape[-1]
    if q == 0:
        return np.zeros(np.broadcast_shapes(a.shape[:-1], b.shape[:-1]))
    d2 = (a[..., 0] - b[..., 0]) ** 2
    for k in range(1, q):
        d2 += (a[..., k] - b[..., k]) ** 2
    return d2


def _scan(points, targets):
    """(squared distance, flat target index) of each point's nearest target."""
    M = len(points)
    best = np.empty(M)
    flat = np.empty(M, dtype=np.intp)
    step = max(1, _CHUNK_PAIRS // len(targets))
    for i in range(0, M, step):
        d2 = _sq_dist(points[i : i + step, None, :], targets[None, :, :])
        idx = np.argmin(d2, axis=1)
        flat[i : i + step] = idx
        best[i : i + step] = d2[np.arange(len(idx)), idx]
    return best, flat


def _grid(points, targets):
    """``_scan``'s answer, searching only nearby grid cells where that is exact."""
    M, q = points.shape
    if q == 0:
        return _scan(points, targets)
    N = len(targets)
    # column by column: numpy reduces a narrow array along axis 0 slowly
    lo = np.array([col.min() for col in targets.T])
    extent = np.array([col.max() for col in targets.T]) - lo
    # about one target per cell when the targets fill their bounding box
    h = float(extent.max()) / min(max(1, round(N ** (1.0 / q))), 1 << 20)
    if not h > 0.0:
        return _scan(points, targets)
    # targets fill cells 1..n along each axis; cells 0 and n + 1 are an empty
    # border, so all 3^q cells around any cell in 1..n exist
    n = (extent // h).astype(np.int64) + 1
    strides = np.cumprod(np.concatenate([[1], n[:-1] + 2]))
    tkey = (np.clip(np.floor((targets - lo) / h), 0, n - 1).astype(np.int64) + 1) @ strides
    # targets by cell, then by flat index; the keys are distinct, so the
    # default sort is enough and much faster than a stable one
    order = np.argsort(tkey * N + np.arange(N))
    cell_start = np.concatenate(
        [[0], np.cumsum(np.bincount(tkey, minlength=int(np.prod(n + 2))))]
    )
    around = np.array(list(itertools.product((-1, 0, 1), repeat=q))) @ strides
    # A query off the grid is moved onto its edge.  The cells it then sees
    # include every occupied cell next to its own, so the search stays exact;
    # whatever else it finds is farther than h, and it is scanned.  So are
    # queries that are not finite.
    qcell = np.clip(np.nan_to_num(np.floor((points - lo) / h)), 0, n - 1)
    qkey = (qcell.astype(np.int64) + 1) @ strides

    best = np.full(M, np.inf)
    flat = np.zeros(M, dtype=np.intp)
    # queries per block, so that their cell tables stay small
    step = max(1, _CHUNK_PAIRS // (8 * len(around)))
    for i in range(0, M, step):
        keys = qkey[i : i + step, None] + around
        start = cell_start[keys]
        count = cell_start[keys + 1] - start
        ends = np.cumsum(count.sum(axis=1))
        a = 0
        while a < len(ends):
            # at most about _CHUNK_PAIRS candidates at once
            done = ends[a - 1] if a else 0
            b = max(a + 1, int(np.searchsorted(ends, done + _CHUNK_PAIRS, "right")))
            _nearest_in_cells(
                points[i + a : i + b], targets, order, start[a:b], count[a:b],
                best[i + a : i + b], flat[i + a : i + b],
            )
            a = b

    limit = h * _EXACT_MARGIN
    rest = np.nonzero(~(best <= limit * limit))[0]
    if len(rest):
        best[rest], flat[rest] = _scan(points[rest], targets)
    return best, flat


def _nearest_in_cells(points, targets, order, start, count, best, flat):
    """Write each query's nearest target among those in its cells to best/flat.

    Query k's cells hold targets order[start[k, s] : start[k, s] + count[k, s]]
    for s over its 3^q cells.  Queries with no candidate are left alone.
    """
    per_query = count.sum(axis=1)
    seen = np.nonzero(per_query)[0]
    if not len(seen):
        return
    cell_count = count.ravel()
    cell = np.repeat(np.arange(len(cell_count)), cell_count)
    pos = np.arange(len(cell)) - (np.cumsum(cell_count) - cell_count)[cell]
    cand = order[pos + start.ravel()[cell]]
    owner = cell // count.shape[1]
    d2 = _sq_dist(points[owner], targets[cand])
    first = (np.cumsum(per_query) - per_query)[seen]
    low = np.full(len(per_query), np.inf)
    low[seen] = np.minimum.reduceat(d2, first)
    # the lowest flat index among the candidates at the minimum distance
    tied = np.where(d2 == low[owner], cand, len(targets))
    best[seen] = low[seen]
    flat[seen] = np.minimum.reduceat(tied, first)
