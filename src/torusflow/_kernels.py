"""The containment-distance kernel: exact nearest target per query, in numpy.

The verifier's hot loop is the distance from each reduced sample to the
target cloud {offset + node} (projected lattice translates plus base-set
nodes).  Three exact searches share one arithmetic:

* a direct-difference scan over every target, in blocks of whole offsets
  and of queries;
* a uniform-grid index (Bentley, Stanat and Williams, "The complexity of
  finding fixed-radius near neighbors", IPL 1977): the targets are bucketed
  into cells of side h and each query looks only at the 3^q cells around
  its own.  A best distance <= h found there is the true minimum, because
  every target within h of the query lies in those cells.
* bounding-box leaves for the queries the grid cannot settle (Friedman,
  Bentley and Finkel, ACM TOMS 1977; Fukunaga and Narendra, IEEE Trans.
  Computers 1975): the targets are cut into about sqrt(N) kd leaves of equal
  size, and a query evaluates only the leaves whose box is no farther than
  its best distance to the leaf with the nearest box.  Few far queries, and
  queries that are not finite, are scanned instead.

``min_distance_batch`` picks between them from the input shape alone.
Squared distances are summed coordinate by coordinate in a fixed order, so
all searches round every (query, target) pair identically and agree
exactly, ties included: the lowest flat index t * P + p wins.

The leaf pruning is exact too.  A box's lo and hi are coordinates of its
own targets, and the box point nearest to x, clip(x, lo, hi), lies between
x and any target t of the box in every coordinate.  Rounding is monotone,
so the rounded |x_k - clip_k| never exceeds the rounded |x_k - t_k|, and
the box bound, summed in the same order, never exceeds the target's
rounded squared distance.  Every target at the minimum is therefore in a
leaf whose bound is <= the best distance found, and is evaluated: the
comparison is <=, not <, so that exact ties survive.

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
# targets a scan builds at once: whole offsets, this many unless one
# offset's nodes alone are more
_BLOCK_TARGETS = 1 << 13
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
    return _nearest(points, offsets, nodes)


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


def _nearest(points, offsets, nodes, search=None):
    """``min_distance_batch`` by ``search``, ``_grid`` or ``_scan``; by
    default the one ``uses_grid`` picks for the shape.

    The grid indexes every target at once.  A scan takes blocks of whole
    offsets of at most _BLOCK_TARGETS targets, in order, so a later block,
    whose flat indices are all higher, wins only when strictly nearer.
    """
    points = np.ascontiguousarray(points, dtype=float)
    offsets = np.ascontiguousarray(offsets, dtype=float)
    nodes = np.ascontiguousarray(nodes, dtype=float)
    M, q = points.shape
    T, P = len(offsets), len(nodes)
    if M == 0:
        return np.zeros(0), np.zeros(0, dtype=np.intp)
    if T == 0 or P == 0:
        return np.full(M, np.inf), np.zeros(M, dtype=np.intp)
    if search is None:
        search = _grid if uses_grid(M, T * P, q) else _scan
    step = T if search is _grid else max(1, _BLOCK_TARGETS // P)
    for t in range(0, T, step):
        block = offsets[t : t + step]
        targets = (block[:, None, :] + nodes[None, :, :]).reshape(len(block) * P, q)
        d2, flat = search(points, targets)
        if t == 0:
            best, node = d2, flat % P
        else:
            # argmin takes a NaN before any number, so a NaN is nearer too
            nearer = (d2 < best) | (np.isnan(d2) & ~np.isnan(best))
            best[nearer] = d2[nearer]
            node[nearer] = flat[nearer] % P
    return np.sqrt(best), node


def uses_grid(n_points, n_targets, q):
    """Whether ``min_distance_batch`` searches this shape with the grid."""
    return (
        1 <= q <= GRID_MAX_DIM
        and n_targets >= GRID_MIN_TARGETS * 8**q
        and n_points * n_targets >= GRID_MIN_PAIRS
    )


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
    if not 0.0 < h < np.inf:
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
    # whatever else it finds is farther than h, and it is searched again below.
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

    # Unsettled queries go to the leaves when there are enough pairs to pay
    # for building them; the rest, and queries that are not finite, are scanned.
    limit = h * _EXACT_MARGIN
    unsettled = ~(best <= limit * limit)
    finite = np.isfinite(points).all(axis=1)
    far = np.nonzero(unsettled & finite)[0]
    if len(far) * N >= GRID_MIN_PAIRS:
        best[far], flat[far] = _leaves(points[far], targets)
        unsettled &= ~finite
    rest = np.nonzero(unsettled)[0]
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


def _kd_leaves(targets):
    """(B, S) target indices: B = 2^depth leaves of S targets each, about sqrt(N).

    Each level cuts every leaf at the median of its widest axis.  The last
    leaf is padded with the last target index repeated, which changes no
    distance and no flat index.  Indices ascend within each leaf.
    """
    N = len(targets)
    depth = int(round(np.log2(N) / 2))
    size = -(-N // (1 << depth))
    idx = np.minimum(np.arange(size << depth), N - 1)
    # column by column: cols[:, idx] is laid out coordinate-last, and its
    # min and max along the targets take 3x longer
    cols = np.ascontiguousarray(targets.T)
    for level in range(depth):
        idx = idx.reshape(1 << level, -1)
        vals = [c[idx] for c in cols]
        axis = np.argmax([v.max(axis=1) - v.min(axis=1) for v in vals], axis=0)
        key = np.choose(axis[:, None], vals)
        half = idx.shape[1] // 2
        idx = np.take_along_axis(idx, np.argpartition(key, half, axis=1), axis=1)
    return np.sort(idx.reshape(1 << depth, size), axis=1)


def _leaves(points, targets):
    """``_scan``'s answer for finite points, pruning whole kd leaves by their boxes.

    A (query, leaf) pair is evaluated only when the squared distance to the
    leaf's bounding box is <= the query's best distance to the leaf whose box
    is nearest, so every target that ties the minimum is seen.
    """
    M, N = len(points), len(targets)
    leaf = _kd_leaves(targets)
    B, S = leaf.shape
    # (B, q, S): each coordinate of a leaf's targets is contiguous
    members = np.stack([c[leaf] for c in targets.T], axis=1)
    lo, hi = members.min(axis=2), members.max(axis=2)
    best = np.empty(M)
    flat = np.empty(M, dtype=np.intp)
    step = max(1, _CHUNK_PAIRS // max(B, S))
    for i in range(0, M, step):
        x = points[i : i + step, None, :]
        m = len(x)
        # clip gives the point of each box nearest to the query
        lb = _sq_dist(x, np.clip(x, lo, hi))
        near = lb.argmin(axis=1)
        bound = _sq_dist(x, np.moveaxis(members[near], 1, 2)).min(axis=1)
        owner, seen = np.nonzero(lb <= bound[:, None])
        ends = np.cumsum(np.bincount(owner, minlength=m))
        a = 0
        while a < m:
            # at most about _CHUNK_PAIRS candidates at once
            done = ends[a - 1] if a else 0
            limit = done + _CHUNK_PAIRS // S
            b = max(a + 1, int(np.searchsorted(ends, limit, "right")))
            rows, cand = owner[done : ends[b - 1]], seen[done : ends[b - 1]]
            d2 = _sq_dist(x[rows], np.moveaxis(members[cand], 1, 2))
            # within a leaf the first minimum has the lowest flat index
            at = d2.argmin(axis=1)
            pair_min = d2[np.arange(len(d2)), at]
            first = np.concatenate([[0], ends[a : b - 1] - done])
            low = np.minimum.reduceat(pair_min, first)
            tied = np.where(pair_min == low[rows - a], leaf[cand, at], N)
            best[i + a : i + b] = low
            flat[i + a : i + b] = np.minimum.reduceat(tied, first)
            a = b
    return best, flat
