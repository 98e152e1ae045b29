"""The containment-distance kernel: exact nearest target per query, in numpy.

The verifier's hot loop is the distance from each reduced sample to the
target cloud {offset + node} (projected lattice translates plus base-set
nodes).  Samples and nodes both sit in cell 0 of the projected lattice, so
every sample of one slack class takes the same translates, by the box
argument of ``ComponentEvaluator``: one call per class, to
``min_distance_batch`` for a batch of samples and to ``min_distance_local``
for the curve refine's windows.  Three exact searches share one arithmetic:

* a direct-difference scan over every target, in blocks of whole offsets
  and of queries, or target by target for at most _NARROW_TARGETS finite
  targets, where a strictly nearer target replaces the best;
* bounding-box leaves when there are two or three coordinates (Friedman,
  Bentley and Finkel, ACM TOMS 1977; Fukunaga and Narendra, IEEE Trans.
  Computers 1975): the targets are cut into about sqrt(N) kd leaves of equal
  size, and a query evaluates only the leaves whose box is no farther than
  its best distance to the leaf with the nearest box.  Queries that are not
  finite are scanned instead, and so is every query when a target is not.
* a sorted search when there is one coordinate (Knuth, TAOCP vol. 3,
  6.2.1): the distinct target values are sorted and each query finds its
  neighbours on either side by binary search.

``min_distance_batch`` picks between them from the input shape alone.
Squared distances are summed coordinate by coordinate in a fixed order, so
all searches round every (query, target) pair identically and agree
exactly, ties included: the lowest flat index t * P + p wins.

The sorted search is exact because rounding is monotone.  For targets
t1 < t2 <= x, x - t1 > x - t2 >= 0, so the rounded (x - t1)^2 is never
below the rounded (x - t2)^2, and likewise on the right of x.  The value
next to x on each side is therefore the nearest on that side, and only a
further value that rounds to the same distance can tie it; such queries,
like those whose best distance or whose own value is not finite, are
scanned.  Equal values are the same target for every query, so each keeps
its lowest flat index.

The leaf pruning is exact too.  A box's lo and hi are coordinates of its
own targets, and the box point nearest to x, clip(x, lo, hi), lies between
x and any target t of the box in every coordinate.  Rounding is monotone,
so the rounded |x_k - clip_k| never exceeds the rounded |x_k - t_k|, and
the box bound, summed in the same order, never exceeds the target's
rounded squared distance.  Every target at the minimum is therefore in a
leaf whose bound is <= the best distance found, and is evaluated: the
comparison is <=, not <, so that exact ties survive.

Points and targets need not be finite.  A difference inf - inf is NaN, and
a NaN distance is nearer than any number, as argmin ranks it; the entry
points compute under ``np.errstate(invalid="ignore")``, so that NaN raises
no warning.

Narrow arrays, with one row per query or target and a few columns, are
handled a column at a time.  numpy runs a row gather ``a[idx]`` and a
reduction along axis 1 of such an array as one short inner loop per row,
several times slower than the same work on whole columns, so rows are
gathered with ``np.take(a, idx, axis=0)`` and candidate counts and finite
tests are summed or and-ed over the columns.  ``take`` copies whole rows and
integer and boolean reductions are exact in any order, so neither changes
a bit of the result.  A float sum gives numpy's bits only when it adds in
numpy's order: the verifier's ``_row_norms`` adds squares column by column below 8 columns,
where numpy adds them in that order too, and calls ``np.linalg.norm`` on a
C-ordered copy from 8 columns on, where numpy sums pairwise.  In the
verifier and the lattice, every product whose inner dimension can be 1 (a
rank-one product, such as a rank-1 lattice's coordinates times its basis
row) goes through ``np.dot``: numpy's matmul takes a path several times
slower there, and ``np.dot`` gives the same bits.

Differences are taken directly.  The matmul identity |x|^2 + |c|^2 - 2 x.c
cancels badly: with |x| about 10 it is off by 2e-10 at distance 1e-3 and by
up to 1.7e-7 near distance 0.
"""

import numpy as np

# An index pays for itself only with enough pairs to cover building it, and
# enough targets per query to beat the scan.  Break-even target counts,
# measured for a 3^q-cell grid index, were about 100 at q = 1, 1000 at q = 2
# and 10^4 at q = 3, hence INDEX_MIN_TARGETS * 8^q; the sorted search and the
# kd leaves keep these cut-offs, so that each shape keeps its search.
INDEX_MIN_PAIRS = 1 << 19
INDEX_MIN_TARGETS = 16
INDEX_MAX_DIM = 3
# (query, target) pairs held in memory at once, about 8 MB per float array
_CHUNK_PAIRS = 1 << 20
# a scan of at most this many targets goes target by target
_NARROW_TARGETS = 8
# targets a scan builds at once: whole offsets, this many unless one
# offset's nodes alone are more
_BLOCK_TARGETS = 1 << 13


def backend_name() -> str:
    return "numpy"


@np.errstate(invalid="ignore")
def min_distance_local(points, offsets, windows, window_of):
    """Per point i, min over t and j of
    |points[i] - offsets[t] - windows[window_of[i], j]|.

    points:    (K, q) float64
    offsets:   (T, q) float64, shared by every point
    windows:   (W, L, q) float64 distinct node windows, point i taking
               window window_of[i], so that points sharing a window share
               one copy

    Returns the (K,) distances, rounded as ``min_distance_batch`` rounds them.
    """
    points = np.asarray(points, dtype=float)
    offsets = np.asarray(offsets, dtype=float)
    windows = np.asarray(windows, dtype=float)
    K = len(points)
    T, L = len(offsets), windows.shape[1]
    if T == 0 or L == 0:
        return np.full(K, np.inf)
    best = np.empty(K)
    step = max(1, _CHUNK_PAIRS // (T * L))
    for i in range(0, K, step):
        own = np.take(windows, window_of[i : i + step], axis=0)
        targets = offsets[None, :, None, :] + own[:, None, :, :]
        d2 = _sq_dist(points[i : i + step, None, None, :], targets)
        # min, like argmin, takes a NaN before any number
        best[i : i + step] = d2.reshape(len(d2), -1).min(axis=1)
    return np.sqrt(best)


@np.errstate(invalid="ignore")
def min_distance_batch(points, offsets, nodes):
    """Min distance from each point to {offset + node} over all pairs.

    points:  (M, q) float64
    offsets: (T, q) float64 (e.g. projected lattice translates)
    nodes:   (P, q) float64 (e.g. projected base-set nodes)

    Returns (dists, node_index): per-point minimal Euclidean distance and the
    index of the node achieving it (the lowest flat (t, p) index on ties).

    The search is ``_scan`` or, where ``uses_index`` picks an index for the
    shape, ``_sorted`` at q = 1 and ``_leaves`` above; both index every
    target at once.  A scan takes blocks of whole offsets of at most
    _BLOCK_TARGETS targets, in order, so a later block, whose flat indices
    are all higher, wins only when strictly nearer.
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
    if q == 0:
        # every squared distance is the empty sum, so flat index 0 wins
        return np.zeros(M), np.zeros(M, dtype=np.intp)
    if not uses_index(M, T * P, q):
        search = _scan
    else:
        search = _sorted if q == 1 else _leaves
    step = max(1, _BLOCK_TARGETS // P) if search is _scan else T
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


def uses_index(n_points, n_targets, q):
    """Whether ``min_distance_batch`` searches this shape with an index."""
    return (
        1 <= q <= INDEX_MAX_DIM
        and n_targets >= INDEX_MIN_TARGETS * 8**q
        and n_points * n_targets >= INDEX_MIN_PAIRS
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
    if (len(targets) <= _NARROW_TARGETS and np.isfinite(points).all()
            and np.isfinite(targets).all()):
        # a few targets one whole column at a time: numpy takes an argmin
        # along a short axis one row at a time.  With every value finite no
        # distance is NaN, so a later target replaces the best only when
        # strictly nearer, and ties keep the lowest index, as argmin does.
        best = _sq_dist(points, targets[0])
        flat = np.zeros(M, dtype=np.intp)
        for t in range(1, len(targets)):
            d2 = _sq_dist(points, targets[t])
            flat[d2 < best] = t
            np.minimum(best, d2, out=best)
        return best, flat
    best = np.empty(M)
    flat = np.empty(M, dtype=np.intp)
    step = max(1, _CHUNK_PAIRS // len(targets))
    for i in range(0, M, step):
        d2 = _sq_dist(points[i : i + step, None, :], targets[None, :, :])
        idx = np.argmin(d2, axis=1)
        flat[i : i + step] = idx
        best[i : i + step] = d2[np.arange(len(idx)), idx]
    return best, flat


def _sorted(points, targets):
    """``_scan``'s answer at q = 1, by binary search in the sorted targets."""
    vals = targets[:, 0]
    order = np.argsort(vals, kind="stable")
    s = vals[order]
    # NaN sorts last, -inf first and inf last
    if not (np.isfinite(s[0]) and np.isfinite(s[-1])):
        return _scan(points, targets)
    # the first, lowest flat index of each run of equal values, between two
    # sentinels on each side that are infinitely far from any finite query
    first = np.concatenate([[True], s[1:] != s[:-1]])
    u = np.concatenate([[-np.inf, -np.inf], s[first], [np.inf, np.inf]])
    uflat = np.concatenate([[0, 0], order[first], [0, 0]])
    x = points[:, 0]
    # u[i - 1] <= x < u[i]; a query that is not finite is clipped and scanned.
    # numpy's binary search narrows from the previous query's answer when
    # the queries ascend, so they go in ascending order and the answers are
    # scattered back
    order = np.argsort(x)
    i = np.empty(len(x), dtype=np.intp)
    i[order] = np.searchsorted(u, x[order], "right")
    np.clip(i, 2, len(u) - 2, out=i)
    left = (x - u[i - 1]) ** 2
    right = (x - u[i]) ** 2
    best = np.minimum(left, right)
    flat = np.where(
        left < right, uflat[i - 1],
        np.where(right < left, uflat[i], np.minimum(uflat[i - 1], uflat[i])),
    )
    unsure = (
        ~np.isfinite(best)
        | ((x - u[i - 2]) ** 2 == best)
        | ((x - u[i + 1]) ** 2 == best)
    )
    rest = np.nonzero(unsure)[0]
    if len(rest):
        best[rest], flat[rest] = _scan(np.take(points, rest, axis=0), targets)
    return best, flat


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
        key = cols[axis[:, None], idx]
        half = idx.shape[1] // 2
        idx = np.take_along_axis(idx, np.argpartition(key, half, axis=1), axis=1)
    return np.sort(idx.reshape(1 << depth, size), axis=1)


def _leaves(points, targets):
    """``_scan``'s answer, pruning whole kd leaves by their boxes.

    A (query, leaf) pair is evaluated only when the squared distance to the
    leaf's bounding box is <= the query's best distance to the leaf whose box
    is nearest, so every target that ties the minimum is seen.  That holds
    for finite values only: queries that are not finite are scanned, and so
    is every query when a target is not finite.
    """
    M, N = len(points), len(targets)
    if not np.isfinite(targets).all():
        return _scan(points, targets)
    finite = np.isfinite(points[:, 0])
    for k in range(1, points.shape[1]):
        finite &= np.isfinite(points[:, k])
    if not finite.all():
        best = np.empty(M)
        flat = np.empty(M, dtype=np.intp)
        rest, keep = np.nonzero(~finite)[0], np.nonzero(finite)[0]
        best[rest], flat[rest] = _scan(np.take(points, rest, axis=0), targets)
        best[keep], flat[keep] = _leaves(np.take(points, keep, axis=0), targets)
        return best, flat
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
        nearest = np.moveaxis(np.take(members, near, axis=0), 1, 2)
        bound = _sq_dist(x, nearest).min(axis=1)
        owner, seen = np.nonzero(lb <= bound[:, None])
        ends = np.cumsum(np.bincount(owner, minlength=m))
        a = 0
        while a < m:
            # at most about _CHUNK_PAIRS candidates at once
            done = ends[a - 1] if a else 0
            limit = done + _CHUNK_PAIRS // S
            b = max(a + 1, int(np.searchsorted(ends, limit, "right")))
            rows, cand = owner[done : ends[b - 1]], seen[done : ends[b - 1]]
            leaves = np.moveaxis(np.take(members, cand, axis=0), 1, 2)
            d2 = _sq_dist(np.take(x, rows, axis=0), leaves)
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
