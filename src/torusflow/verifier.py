"""Numeric ground-truth verification by far-point sampling.

The defining picture: the limit set is the decreasing intersection over R of
the closures of the projected variety outside the ball of radius R.  The
verifier samples the variety on radial shells, reduces modulo the lattice,
and compares against a predicted decomposition two ways:

* containment: every reduced in-window sample must be within tolerance of
  some predicted component (max distance is reported);
* coverage: the samples must hit almost every grid cell of each component's
  compact part (catches predictions that are too large).

Samples whose component transverse to the lattice span leaves the window
have not converged toward any coset; they are reported as escaped mass and
excluded from both checks.  Sampling is deterministic per (seed, shell,
piece), so identical configurations give byte-identical reports.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, fields
from typing import Optional

import numpy as np

from ._kernels import backend_name, min_distance_batch, min_distance_local
from .errors import ShellStarved, TorusflowError
from .flats import CurveImage, Flat, to_internal
from .flow import FlowDescription
from .lattice import Lattice
from .numberfield import float_rows


# rejection sampling gives up on a piece after this many draws in one shell
MAX_DRAWS = 1_000_000

# the lattice basis norms must sum to less than this (see SampleConfig.validate)
MAX_BASIS_NORM_SUM = 2.0**22

# the most translates one distance search takes, as a candidate set; past it
# verify and sample stop with a TorusflowError, exit 4 and one line, instead
# of running out of memory
MAX_TRANSLATES = 1 << 16


def _int_in(value, lo, hi):
    return (
        isinstance(value, int) and not isinstance(value, bool) and lo <= value <= hi
    )


def _row_norms(x):
    """``np.linalg.norm(x, axis=1)`` of a 2-D float array in C order, bit for bit.

    numpy reduces a narrow array along its rows one short row at a time; with
    fewer than 8 columns its sum of squares adds them in column order, so
    summing whole columns does the same additions, several times faster.
    From 8 columns on numpy sums pairwise, in another order, so the norm is
    left to numpy there, on a C-ordered copy: numpy's order, and so its bits,
    depend on the memory layout, and an F-ordered or strided array of the
    same values must give the same norms.  A square that overflows gives inf,
    raising no warning: inf is past every radius and window, as the true norm
    is.
    """
    with np.errstate(over="ignore"):
        if x.shape[1] >= 8:
            return np.linalg.norm(np.ascontiguousarray(x), axis=1)
        sq = np.zeros(len(x))
        for k in range(x.shape[1]):
            sq += x[:, k] * x[:, k]
        return np.sqrt(sq)


def _segment_lengths(raw):
    """``_row_norms(np.diff(raw, axis=0))``, bit for bit: the lengths of a
    polyline's segments.  Below 8 columns the differences are taken and
    squared a column at a time, as ``_row_norms`` adds them, so no
    (m - 1, n) difference array is built.
    """
    if raw.shape[1] >= 8:
        return _row_norms(np.diff(raw, axis=0))
    sq = np.zeros(len(raw) - 1)
    for k in range(raw.shape[1]):
        d = raw[1:, k] - raw[:-1, k]
        with np.errstate(over="ignore"):
            np.multiply(d, d, out=d)
            sq += d
    return np.sqrt(sq)


@dataclass
class SampleConfig:
    """Knobs for the far-point sampler and the two-sided checks."""

    radius_min: float = 100.0
    count: int = 10000            # total samples, split across shells
    seed: int = 0
    grid_eps: float = 0.05
    tolerance: float = 1e-2
    shells: int = 4
    coverage_threshold: float = 0.95
    window: float = 10.0          # transverse window half-width
    curve_nodes: int = 10000

    def __post_init__(self):
        self.validate()

    def validate(self):
        """Raise TorusflowError unless every knob is usable.

        Call again after changing a field: the dataclass checks only at
        construction.
        """
        for name in ("radius_min", "grid_eps", "tolerance", "window"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value > 0):
                raise TorusflowError(
                    f"{name} must be finite and positive, got {value!r}"
                )
        # One bound keeps the cell indices and the affine draws finite: with
        # window, 1/grid_eps and window/grid_eps at most 2^40, the torus-cell
        # count ceil(1/eps), the affine base cells (v + window)/eps and the
        # shell cells floor(x/eps) of in-window points x stay below 2^63
        # while the lattice basis norms sum to less than MAX_BASIS_NORM_SUM
        # (see validate_lattice), and the affine sampler's range
        # 4 * window * sqrt(n) * 1e3 stays finite.
        if max(1.0, self.window) / min(1.0, self.grid_eps) > 2.0**40:
            raise TorusflowError(
                "window, 1/grid_eps and window/grid_eps must be at most 2^40, "
                f"got window={self.window!r}, grid_eps={self.grid_eps!r}"
            )
        for name in ("count", "shells"):
            value = getattr(self, name)
            if not _int_in(value, 1, math.inf):
                raise TorusflowError(f"{name} must be an integer >= 1, got {value!r}")
        # numpy's SeedSequence, which _rng seeds from, takes no negative entry
        if not _int_in(self.seed, 0, math.inf):
            raise TorusflowError(f"seed must be an integer >= 0, got {self.seed!r}")
        if not 0.0 <= self.coverage_threshold <= 1.0:
            raise TorusflowError(
                "coverage_threshold must lie in [0, 1], "
                f"got {self.coverage_threshold!r}"
            )
        # the outermost shell draws radii up to radius * 1e3
        try:
            top = self.radius_min * 2.0 ** (self.shells - 1) * 1e3
        except OverflowError:
            top = math.inf
        if not math.isfinite(top):
            raise TorusflowError(
                "radius_min * 2^(shells - 1) * 1e3 must be finite, got "
                f"radius_min={self.radius_min!r}, shells={self.shells!r}"
            )
        # each curve prediction holds curve_nodes float rows
        if not _int_in(self.curve_nodes, 2, MAX_DRAWS):
            raise TorusflowError(
                f"curve_nodes must be an integer in [2, {MAX_DRAWS}], "
                f"got {self.curve_nodes!r}"
            )

    def validate_pieces(self, npieces):
        """Raise TorusflowError if a piece's quota starves it at once.

        Each of npieces pieces gets ceil(ceil(count / shells) / npieces)
        samples per shell at most, and its first draw is twice that; past
        MAX_DRAWS / 2 that draw is over the cap, which happens exactly
        when count > shells * npieces * MAX_DRAWS / 2.
        """
        limit = self.shells * npieces * (MAX_DRAWS // 2)
        if self.count > limit:
            raise TorusflowError(
                f"count must be at most {limit} for {self.shells} shells and "
                f"{npieces} pieces, got {self.count!r}"
            )

    def validate_lattice(self, lat):
        """Raise TorusflowError unless the lattice basis norms sum to less
        than MAX_BASIS_NORM_SUM, which the cell-index bounds of validate
        assume."""
        try:
            total = math.fsum(
                math.hypot(*row)
                for row in float_rows(lat.basis, lat.ambient_dim).tolist()
            )
        except OverflowError:
            total = math.inf
        if not total < MAX_BASIS_NORM_SUM:
            raise TorusflowError(
                "the lattice basis norms must sum to less than 2^22, "
                f"got {total:.6g}"
            )

    def radius_schedule(self):
        return [self.radius_min * (2.0**k) for k in range(self.shells)]


@dataclass
class ShellSamples:
    """The accepted samples of one radial shell, pieces in order.

    ``params`` is a 2-D array with one row of piece parameters per sample:
    ``t`` for a branch, the radial scale for an affine piece, the variables
    of a graph piece.  Its width is the widest piece's parameter count;
    narrower pieces' rows are padded with NaN.  It is complex when a piece
    gives complex parameters (a complex branch, any graph piece), else
    float: a real branch's t and an affine scale are floats, and the CSV
    writes a float as it writes a complex number with a zero imaginary
    part.  ``internal`` holds the
    samples' real internal coordinates, row by row.
    """

    index: int
    radius: float
    params: np.ndarray
    internal: np.ndarray


def _rng(cfg: SampleConfig, shell: int, piece: int):
    return np.random.default_rng([cfg.seed, shell, piece])


def _branch_rays(piece):
    """A branch's declared rays as complex numbers, or None without rays.

    The conversion depends only on the piece, so do it once per piece.
    """
    if not piece.rays:
        return None
    return np.array([r.to_complex() for r in piece.rays])


def _draw_branch(piece, rays, count, radius, rng, mode):
    """Draw ``count`` branch samples; return their ``build`` function.

    ``rays`` is ``_branch_rays(piece)``.  ``build(lo, hi)`` gives rows
    [lo, hi) of the draw as (params, internal).  A real branch takes t as a
    float, times its ray if its rays are real.  Without rays, a complex
    branch takes t = |t| e^(i phi) with phi uniform in [0, 2 pi): the
    complex closure is a span over C, and t on the positive real axis alone
    traces only a real circle of its torus.  A row with a coordinate past
    the float range (±inf or NaN) is made NaN, so that the keep step
    rejects it as it rejects a row inside the ball.
    """
    log_t = rng.uniform(math.log(radius), math.log(radius * 1e3), size=count)
    choice = None if rays is None else rng.integers(0, len(rays), size=count)
    phase = None
    if rays is None and mode == "complex":
        phase = rng.uniform(0.0, 2.0 * math.pi, size=count)
    if rays is not None and mode == "real" and not rays.imag.any():
        rays = rays.real

    def build(lo, hi):
        t = np.exp(log_t[lo:hi])
        if rays is not None:
            params = t * rays[choice[lo:hi]]
        elif phase is not None:
            params = t * np.exp(1j * phase[lo:hi])
        else:
            params = t
        internal = to_internal(piece.evaluate(params), mode)
        finite = np.isfinite(internal)
        if not finite.all():
            internal[~finite.all(axis=1)] = np.nan
        return params[:, None], internal

    return build


def _affine_frame(piece, lat):
    """(base, din, qin, out_f): an affine piece's float base point, the
    orthonormal rows ``qin`` of its directions inside the lattice span
    (``din`` of them), and orthonormal rows ``out_f`` of the rest.

    Exact work (a subspace intersection) followed by float conversions: it
    depends only on the piece and the lattice, so compute it once per piece.
    """
    base = piece.float_base()
    dirs = piece.directions
    inside = dirs.intersect(lat.span)
    in_f = inside.float_basis()
    # orthonormal rows spanning the rest of the directions
    proj_in = inside.float_projector()
    rest = dirs.float_basis() - dirs.float_basis() @ proj_in.T
    rank = dirs.dim - inside.dim
    out_f = np.linalg.svd(rest)[2][:rank] if rank else np.zeros((0, dirs.ambient_dim))
    din = len(in_f)
    qin = np.linalg.qr(in_f.T)[0].T[:din] if din else None
    return base, din, qin, out_f


def _draw_affine(frame, count, radius, rng, window):
    """Draw ``count`` affine samples; return their ``build`` function.

    ``build(lo, hi)`` gives rows [lo, hi) of the draw as (params, internal).
    """
    base, din, qin, out_f = frame
    dout = len(out_f)
    bnorm = float(np.linalg.norm(base))
    r_lo = radius + bnorm + 4.0 * window * math.sqrt(dout + 1)
    log_r = rng.uniform(math.log(r_lo), math.log(r_lo * 1e3), size=count)
    g = rng.normal(size=(count, din)) if din else None
    u = rng.uniform(-2.0 * window, 2.0 * window, size=(count, dout)) if dout else None

    def build(lo, hi):
        r = np.exp(log_r[lo:hi])
        pts = np.tile(base, (hi - lo, 1))
        # np.dot: numpy's matmul is several times slower on a column (one
        # direction in or out of the lattice span), with the same bits
        if din:
            d = g[lo:hi]
            d = d / np.maximum(_row_norms(d), 1e-300)[:, None]
            pts += np.dot(d * r[:, None], qin)
        if dout:
            pts += np.dot(u[lo:hi], out_f)
        return r[:, None], pts

    return build


def _draw_graph(piece, count, radius, rng, mode):
    """Draw ``count`` graph samples; return their ``build`` function.

    ``build(lo, hi)`` gives rows [lo, hi) of the draw as (params, internal).
    """
    # two log-uniform bands per variable: near-field values witness the
    # components passing close to the coordinate origin, far-field ones push
    # the point outward; mid-scale values have not converged toward the limit
    # set at these radii and only add noise
    shape = (count, piece.nvars)
    low = rng.uniform(math.log(1e-6), math.log(2e-2), size=shape)
    high = rng.uniform(math.log(30.0), math.log(radius * 1e3), size=shape)
    pick = rng.integers(0, 2, size=shape).astype(bool)
    phase = sign = None
    if mode == "complex":
        phase = rng.uniform(0.0, 2.0 * math.pi, size=shape)
    else:
        sign = rng.choice([-1.0, 1.0], size=shape)

    def build(lo, hi):
        mag = np.exp(np.where(pick[lo:hi], high[lo:hi], low[lo:hi]))
        if phase is not None:
            vars_ = mag * np.exp(1j * phase[lo:hi])
        else:
            vars_ = (mag * sign[lo:hi]).astype(complex)
        return vars_, to_internal(piece.evaluate(vars_), mode)

    return build


def _sample_shell(X, cfg, lat, shell, radius, quota, prepared):
    """The ShellSamples of one shell; ``prepared`` maps a piece index to
    its rays or frame and gains each piece at its first draw."""
    params, internals = [], []
    for pi, piece in enumerate(X.pieces):
        need = quota[pi]
        if need == 0:
            continue
        rng = _rng(cfg, shell, pi)
        got = attempts = 0
        while got < need:
            draw = max(1024, 2 * (need - got))
            attempts += draw
            if attempts > MAX_DRAWS:
                raise ShellStarved(shell, radius)
            if piece.kind == "branch":
                if pi not in prepared:
                    prepared[pi] = _branch_rays(piece)
                build = _draw_branch(piece, prepared[pi], draw, radius, rng, X.mode)
            elif piece.kind == "affine":
                if pi not in prepared:
                    prepared[pi] = _affine_frame(piece, lat)
                build = _draw_affine(prepared[pi], draw, radius, rng, cfg.window)
            elif piece.kind == "graph":
                build = _draw_graph(piece, draw, radius, rng, X.mode)
            else:
                raise TorusflowError(f"cannot sample piece kind {piece.kind!r}")
            # the rows still needed first; the rest only if too few landed
            # outside the ball
            lo = 0
            for hi in (need - got, draw):
                p, internal = build(lo, hi)
                keep = np.nonzero(_row_norms(internal) >= radius)[0][: need - got]
                if len(keep) < hi - lo:
                    p = np.take(p, keep, axis=0)
                    internal = np.take(internal, keep, axis=0)
                got += len(keep)
                params.append(p)
                internals.append(internal)
                if got == need:
                    break
                lo = hi
    width = max(p.shape[1] for p in params)
    if any(p.shape[1] != width for p in params):
        params = [
            np.pad(p, ((0, 0), (0, width - p.shape[1])), constant_values=np.nan)
            for p in params
        ]
    return ShellSamples(
        index=shell,
        radius=radius,
        params=np.concatenate(params),
        internal=np.concatenate(internals),
    )


def far_shells(X, cfg: SampleConfig, lat: Lattice):
    """Deterministic far-point samples, one ShellSamples per shell as it is
    drawn; ``sample_far_points`` lists them all."""
    cfg.validate_pieces(len(X.pieces))
    per_shell = -(-cfg.count // cfg.shells)
    npieces = len(X.pieces)
    prepared = {}   # piece index -> its rays or frame, built at its first draw
    for shell, radius in enumerate(cfg.radius_schedule()):
        quota = [per_shell // npieces] * npieces
        for i in range(per_shell - sum(quota)):
            quota[i] += 1
        yield _sample_shell(X, cfg, lat, shell, radius, quota, prepared)


def sample_far_points(X, cfg: SampleConfig, lat: Lattice):
    """Deterministic far-point samples, shell by shell.

    Each shell splits its quota across the pieces.  A piece draws in
    batches of ``max(1024, 2 * (need - got))`` rows from its own
    ``(seed, shell, piece)`` stream and keeps the first ``need - got`` rows
    whose internal norm reaches the shell radius.  A draw has two steps:
    the draw step makes every RNG call of the batch, and the ``build``
    function it returns turns a row range into params and internal rows.
    Only the rows still needed are built first; the rest of the batch is
    built only when too few of them landed outside the ball.

    This keeps the samples exactly those of building every row: the RNG
    calls have the same sizes and order whatever is built, ``build``
    computes each row from that row's draws alone, and whether a row is
    accepted depends only on that row, so the kept rows are still the first
    accepted ones of the batch.  ``GraphPiece.evaluate`` must therefore
    work row by row, as the compiled expressions of a problem file do.

    Raises ShellStarved when a shell cannot be filled within the rejection
    cap; a bounded variety triggers exactly that, which is itself a result.
    A count whose quotas are over the cap from the first draw is a
    TorusflowError instead (see SampleConfig.validate_pieces).
    """
    return list(far_shells(X, cfg, lat))


# ---------------------------------------------------------------------------
# Component evaluators
# ---------------------------------------------------------------------------


def _class_rows(cls):
    """(j, rows) for each slack class j of ``cls``: the indices of its rows,
    or a slice of every row when one class holds them all."""
    if cls.min(initial=0) == cls.max(initial=0):
        return [(int(cls[0]) if len(cls) else 0, slice(None))]
    return [(j, np.nonzero(cls == j)[0]) for j in np.unique(cls).tolist()]


def _null_space_rows(basis, rank):
    """Orthonormal rows spanning the complement of the row span of the
    (k, n) float array ``basis``, whose exact rank is ``rank``."""
    if not rank:
        return np.eye(basis.shape[1])
    return np.linalg.svd(basis)[2][rank:]


class ComponentEvaluator:
    """Distance and cell machinery for one predicted component.

    Every base is a cloud of nodes reduced modulo the lattice: a point set's
    points, an affine base's point, or a curve's samples at ``curve_nodes``
    evenly spaced parameters.  The base's kind is read once, here; it also
    gives an affine base's direction rows, which join W in the projection
    and whose orthonormal frame indexes its base cells, and a curve's
    cumulative arclength, which buckets its nodes.

    A distance is measured in the projection along W + D, from a query to
    the nodes' translates by the projection Lambda' of Lambda, or along
    W + D + W* where lattice vectors do not span (W + D) cap span Lambda,
    W* the torus closure of that intersection (``Lattice.widen``): the
    closure of C + W + D + Lambda is C + W + D + W* + Lambda, at the same
    distance.  So Lambda' is discrete (``Lattice.projection``).  A query x
    and a node y are each moved by the translate of their floor-Babai cell
    of Lambda' into cell 0 (``ProjectedLattice.recentre``; rows already
    there keep their bits).  Then x - y - m basis, for an integer vector m,
    is (u - m) basis plus a part orthogonal to Lambda' that no translate
    changes, where u lies in the box (-1, 1)^r, so the translates nearest to
    the pair are among the m basis for m in N, the vectors that can be
    nearest to some u of that box (``ProjectedLattice.candidates``).
    Coordinates round more coarsely the farther out a query lies, so N
    widens with the slack class that ``ProjectedLattice.cells`` reads from
    the query before its move, and the samples of one class take one
    translate set, in one kernel call.  A distance is the minimum over all
    of Lambda, on any basis of it and however far out the query lies.  When
    Lambda' = 0 the one translate is 0 and nothing moves.

    Each translate is an integer vector k of the lattice basis, with offset
    (k @ B) @ proj.T, and the translates go in the lexicographic order of k.
    ``offsets`` holds N of slack class 0, which most queries take.
    """

    def __init__(self, comp, lat: Lattice, cfg: SampleConfig):
        self.comp = comp
        self.lat = lat
        self.cfg = cfg
        W = comp.effective_span
        n = W.ambient_dim
        w_basis = W.float_basis() if W.dim else np.zeros((0, n))
        base = comp.base

        dirs = np.zeros((0, n))
        space = W
        self.curve_params = None
        if isinstance(base, CurveImage):
            self.curve_params = np.linspace(*base.param_range, cfg.curve_nodes)
            raw = base.sample_at(self.curve_params)
        elif isinstance(base, Flat):
            raw = base.float_base()[None, :]
            dirs = base.directions.float_basis()
            space = W.sum(base.directions)
        else:
            raw = base.float_points()
        self.nodes_full, _, _ = lat.reduce_points(raw)
        rows = np.vstack([w_basis, dirs])
        wide = lat.widen(space)
        if wide.dim > space.dim:
            rows = np.vstack([rows, wide.float_basis()])
            space = wide
        self.proj = _null_space_rows(rows, space.dim)
        self.frame = np.linalg.qr(dirs.T)[0] if len(dirs) else None
        self.cumlen = None
        if self.curve_params is not None:
            self.cumlen = np.concatenate([[0.0], np.cumsum(_segment_lengths(raw))])

        self.nodes = self.nodes_full @ self.proj.T
        # the largest absolute node entry, for the queries' slack classes
        reach = max(-float(self.nodes.min(initial=0.0)),
                    float(self.nodes.max(initial=0.0)))
        if not math.isfinite(reach):
            reach = float(np.abs(self.nodes[np.isfinite(self.nodes)]).max(initial=0.0))
        self.node_reach = reach
        self.projected = lat.projection(space, self.proj)
        self.nodes = self.projected.recentre(self.nodes)
        self.offsets = self.projected.offsets(0, MAX_TRANSLATES)

        # torus coordinates: integer-dual map, well-defined modulo the lattice
        self.torus_dim = comp.torus.torus_dim if comp.torus is not None else 0
        if self.torus_dim:
            self.torus_solve = comp.torus.torus_coordinate_matrix(lat)
        else:
            self.torus_solve = None

    def distances(self, reduced):
        """Distance from each reduced sample to C + W + Lambda (windowed).

        Returns (dists, node_idx); node_idx is the nearest base node before
        any curve refinement, the node ``base_cells`` buckets by.  Each
        sample is moved into cell 0, and the samples of one slack class share
        one kernel call.
        """
        pts = reduced @ self.proj.T
        _, cls = self.projected.cells(pts, self.node_reach)
        pts = self.projected.recentre(pts)
        groups = _class_rows(cls)
        if len(groups) == 1:
            # one class, as in almost every call: the kernel's arrays as
            # they come, not copied into fresh ones
            offs = self.projected.offsets(groups[0][0], MAX_TRANSLATES)
            dists, node_idx = min_distance_batch(pts, offs, self.nodes)
        else:
            dists = np.empty(len(pts))
            node_idx = np.empty(len(pts), dtype=np.intp)
            for j, rows in groups:
                offs = self.projected.offsets(j, MAX_TRANSLATES)
                dists[rows], node_idx[rows] = min_distance_batch(pts[rows], offs, self.nodes)
        if self.curve_params is not None and len(self.curve_params) > 1:
            dists = self._refine_curve(pts, cls, dists, node_idx)
        return dists, node_idx

    def _refine_curve(self, pts, cls, dists, node_idx):
        """Distances of the rough samples to a finer curve near their node.

        ``pts`` are the projected samples moved into cell 0, and ``cls``
        their slack classes, as ``distances`` finds them.  A sample farther
        than tolerance / 4 is measured again against 33 curve points evenly
        spaced over the parameter interval of one node spacing either side of
        its nearest node, cut off at the ends of the curve's parameter range,
        and keeps the smaller distance.  Only the 4096 roughest samples are
        refined.  Samples that share a nearest node share its window, so each
        distinct node's window is evaluated, reduced, moved into cell 0 and
        handed to the kernel once per slack class; the curve, the reduction,
        the projection and the move act row by row, so a window's rows are the
        same whichever other windows are built with it.
        """
        worst = np.nonzero(dists > 0.25 * self.cfg.tolerance)[0]
        if not len(worst):
            return dists
        if len(worst) > 4096:
            # refine the roughest block only; a run this far off fails anyway
            worst = worst[np.argsort(dists[worst])[-4096:]]
        spacing = self.curve_params[1] - self.curve_params[0]
        lo, hi = self.comp.base.param_range
        node, row_node = np.unique(node_idx[worst], return_inverse=True)
        p0 = self.curve_params[node]
        local = np.linspace(np.maximum(p0 - spacing, lo),
                            np.minimum(p0 + spacing, hi), 33, axis=1)
        raw = self.comp.base.sample_at(local.ravel())
        red, _, _ = self.lat.reduce_points(raw)
        windows = self.projected.recentre(red @ self.proj.T).reshape(len(node), 33, -1)
        rows = np.take(pts, worst, axis=0)
        refined = np.empty(len(worst))
        for j, sel in _class_rows(cls[worst]):
            offs = self.projected.offsets(j, MAX_TRANSLATES)
            refined[sel] = min_distance_local(rows[sel], offs, windows, row_node[sel])
        out = dists.copy()
        out[worst] = np.minimum(out[worst], refined)
        return out

    # -- coverage cells ------------------------------------------------------

    def torus_cells(self, reduced):
        """(m, torus_dim) int64 torus-cell indices, one row per sample."""
        if not self.torus_dim:
            return np.zeros((len(reduced), 0), dtype=np.int64)
        return _torus_cells(reduced, self.torus_solve, self.cfg.grid_eps)

    def base_cells(self, reduced, node_idx):
        """(cells, in_window): int64 base-cell ids, one row per sample, and
        a mask of the samples whose cell lies in the window.

        An affine base with directions has its frame coordinates, cut into
        grid_eps cells within the window; a curve has the arclength bucket
        of the nearest node, and any other base the nearest node's index,
        always in the window.  node_idx is each sample's nearest base node,
        as ``distances`` returns.
        """
        eps = self.cfg.grid_eps
        w = self.cfg.window
        if self.frame is not None:
            v = (reduced - self.nodes_full[0]) @ self.frame
            # one frame column at a time; testing > w keeps a NaN in the window
            out = np.abs(v[:, 0]) > w
            for k in range(1, v.shape[1]):
                out |= np.abs(v[:, k]) > w
            return ((v + w) / eps).astype(np.int64), ~out
        node_idx = np.asarray(node_idx, dtype=np.int64)
        if self.cumlen is not None:
            cells = (self.cumlen[node_idx] // eps).astype(np.int64)
        else:
            cells = node_idx
        return cells[:, None], np.ones(len(reduced), dtype=bool)

    def total_cells(self):
        eps = self.cfg.grid_eps
        k = int(math.ceil(1.0 / eps))
        torus_total = k**self.torus_dim
        if self.frame is not None:
            b = self.frame.shape[1]
            base_total = int(math.ceil(2.0 * self.cfg.window / eps)) ** b
        elif self.cumlen is not None:
            base_total = max(1, int(math.ceil(self.cumlen[-1] / eps)))
        else:
            base_total = len(self.nodes_full)
        return torus_total * base_total


# ---------------------------------------------------------------------------
# Checks
# ---------------------------------------------------------------------------


def containment_check(reduced, per_component):
    """Max distance from reduced in-window samples to the predicted set.

    per_component holds each component evaluator's ``distances`` result on
    the samples.  Without samples no distances are taken, and it is None.
    """
    if len(reduced) == 0:
        return 0.0, np.zeros(0), None
    all_d = np.full(len(reduced), np.inf)
    for d, _ in per_component:
        np.minimum(all_d, d, out=all_d)
    worst = int(np.argmax(all_d))
    return float(np.max(all_d)), all_d, reduced[worst]


def coverage_check(reduced, cfg, evaluators, per_component):
    """(fraction, number) of each component's cells hit by the samples.

    A hit is a distinct (base cell, torus cell) pair of an in-window sample
    within max(tolerance, grid_eps) of the component.  per_component holds
    each evaluator's ``distances`` result on the samples, as in
    ``containment_check``.
    """
    assign_tol = max(cfg.tolerance, cfg.grid_eps)
    fractions = []
    hit_counts = []
    for idx, ev in enumerate(evaluators):
        hits = 0
        if len(reduced):
            d, node_idx = per_component[idx]
            sel = np.nonzero(d <= assign_tol)[0]
            sub = reduced
            if len(sel) < len(reduced):
                sub = np.take(reduced, sel, axis=0)
                node_idx = np.take(node_idx, sel)
            if len(sub):
                tcells = ev.torus_cells(sub)
                bcells, in_window = ev.base_cells(sub, node_idx)
                cols = [*bcells.T, *tcells.T]
                if not in_window.all():
                    cols = [np.compress(in_window, c) for c in cols]
                hits = len(distinct_rows(cols))
        fractions.append(min(1.0, hits / ev.total_cells()))
        hit_counts.append(hits)
    return fractions, hit_counts


def _window_mask(reduced, perp_proj, window):
    """Samples whose component transverse to the lattice span is in-window;
    ``perp_proj`` projects onto the span's orthogonal complement."""
    return _row_norms(reduced @ perp_proj.T) <= window


def _global_cells(reduced, eps):
    return np.floor(np.asarray(reduced) / eps).astype(np.int64)


def _torus_cells(reduced, solve, eps):
    """Torus-cell indices of samples with torus coordinates ``solve``."""
    u = reduced @ solve.T
    u -= np.floor(u)
    k = int(math.ceil(1.0 / eps))
    return np.minimum((u / eps).astype(np.int64), k - 1)


def distinct_rows(cols):
    """Index of the first occurrence of each distinct row of a table, given
    as a sequence of at least one column (a list of 1-D arrays, or ``rows.T``).

    The result follows the lexicographic order of the rows.  Columns go in
    because numpy handles a narrow 2-D array one short row at a time: a row
    filter, gather or comparison costs several times what the same work on
    each column does, so callers filter columns (``np.compress``) rather
    than build and mask a 2-D table.  Two paths give the same array:

    * Table.  For signed integer columns whose spans multiply to at most
      ``4 * len(rows) + 4096`` (R), each row packs into one int64 key,
      mixed radix with column 0 most significant, so ascending keys are the
      rows in lexicographic order.  A table of R slots keeps the least row
      index per key (distribution counting, Knuth, TAOCP vol. 3, 5.2); its
      occupied slots, read in key order, are the result.  R bounds the
      table, so it never outgrows a small multiple of the input; a wider
      range, such as entries near +-2^40, whose key would overflow int64,
      takes the sort.  verify's coverage and shell cells span few slots:
      over two cycles of the perfbench verify inputs (seed 77), every call
      but one on 3 dinh_vu rows took the table, at R <= 0.56 * len(rows).
      On plane_cylinder's 50k rows of 2 columns the table takes 0.7 ms
      where the sort takes 14 ms; on hyperbola's 10k rows 0.11 ms against
      0.79 ms (2-vCPU VM).
    * Sort.  A stable sort brings equal rows together in their original
      order, so the first row of each run is the earliest one; a row starts
      a run where any column differs from the row before.
    """
    cols = list(cols)
    n = len(cols[0])
    if n and all(np.issubdtype(c.dtype, np.signedinteger) for c in cols):
        cols = [c.astype(np.int64, copy=False) for c in cols]
        lows = [int(c.min()) for c in cols]
        spans = [int(c.max()) - lo + 1 for c, lo in zip(cols, lows)]
        size = math.prod(spans)
        if size <= 4 * n + 4096:
            key = np.zeros(n, dtype=np.int64)
            for c, lo, span in zip(cols, lows, spans):
                key *= span
                key += c - lo
            first = np.full(size, n, dtype=np.intp)
            np.minimum.at(first, key, np.arange(n))
            return first[first < n]
    order = np.lexsort(cols[::-1])
    first = np.zeros(n, dtype=bool)
    first[:1] = True
    for c in cols:
        c = c[order]
        first[1:] |= c[1:] != c[:-1]
    return order[first]


@dataclass
class VerificationReport:
    """Everything the two-sided verification produced, JSON-ready."""

    passed: bool
    containment_passed: bool
    coverage_passed: bool
    max_containment_distance: float
    coverage: list
    escaped_mass: float
    residual_max: float
    mismatch_flag: bool
    per_shell: list
    worst_sample: Optional[list]
    backend: str
    config: dict
    span_condition: Optional[str]
    torus_dims: list   # torus_dim per component; None when it has no torus

    def to_dict(self):
        # shallow: json reads the fields' lists and dicts, it need not copy them
        out = {"schema_version": 2}
        out.update((f.name, getattr(self, f.name)) for f in fields(self))
        return out


def shell_stability(shell_cells):
    """Newly hit cells per shell relative to all earlier shells.

    ``shell_cells`` holds one 2-D integer array of cells per shell, all with
    the same number of columns.  A cell counts for the first shell that
    hits it.
    """
    sizes = [len(cells) for cells in shell_cells]
    first = distinct_rows(np.concatenate(shell_cells).T)
    shell_of = np.repeat(np.arange(len(sizes)), sizes)
    return np.bincount(shell_of[first], minlength=len(sizes)).tolist()


def run_verification(X, lat: Lattice, predicted: FlowDescription,
                     cfg: SampleConfig) -> VerificationReport:
    """Sample, reduce, and run both checks; deterministic per config.

    Shells are sampled one at a time; of each, only its in-window reduced
    rows and their cells are kept.
    """
    perp_proj = lat.span.float_complement_projector()
    all_in_window = []
    per_shell = []
    shell_cells = []
    residual_max = 0.0
    escaped = 0
    total = 0
    for sh in far_shells(X, cfg, lat):
        reduced = lat.reduce_points(sh.internal)[0]
        residual_max = max(
            residual_max, lat.reduction_residual(sh.internal, reduced)
        )
        entry = {"shell": sh.index, "radius": sh.radius}
        del sh   # its params and internal rows
        in_win = np.compress(
            _window_mask(reduced, perp_proj, cfg.window), reduced, axis=0
        )
        entry["samples"] = len(reduced)
        entry["escaped"] = len(reduced) - len(in_win)
        del reduced
        total += entry["samples"]
        escaped += entry["escaped"]
        all_in_window.append(in_win)
        shell_cells.append(_global_cells(in_win, cfg.grid_eps))
        per_shell.append(entry)
        del in_win   # the list holds it until the concatenation
    # built after sampling, so that a starved shell is reported first
    evaluators = [ComponentEvaluator(c, lat, cfg) for c in predicted.components]
    new_cells = shell_stability(shell_cells)
    del shell_cells
    for entry, nc in zip(per_shell, new_cells):
        entry["new_cells"] = nc

    in_window = np.concatenate(all_in_window)
    del all_in_window   # free each shell's chunk beside the concatenation

    mismatch = predicted.is_empty and len(in_window) > 0
    if predicted.is_empty:
        max_dist = float("inf") if len(in_window) else 0.0
        worst = in_window[0].tolist() if len(in_window) else None
        fractions = []
    else:
        per_component = (
            [ev.distances(in_window) for ev in evaluators]
            if len(in_window)
            else None
        )
        max_dist, all_d, worst_vec = containment_check(in_window, per_component)
        worst = worst_vec.tolist() if worst_vec is not None else None
        fractions, _ = coverage_check(in_window, cfg, evaluators, per_component)
        # per-shell maxima: for branch inputs with certified remainder decay
        # these should not increase with the shell radius
        offset = 0
        for entry in per_shell:
            k = entry["samples"] - entry["escaped"]
            entry["max_distance"] = (
                float(np.max(all_d[offset : offset + k])) if k else 0.0
            )
            offset += k

    containment_ok = max_dist <= cfg.tolerance
    coverage_ok = all(f >= cfg.coverage_threshold for f in fractions)
    torus_dims = [c.torus.torus_dim if c.torus else None for c in predicted.components]

    return VerificationReport(
        passed=containment_ok and coverage_ok and not mismatch,
        containment_passed=containment_ok,
        coverage_passed=coverage_ok,
        max_containment_distance=max_dist,
        coverage=fractions,
        escaped_mass=escaped / total if total else 0.0,
        residual_max=residual_max,
        mismatch_flag=mismatch,
        per_shell=per_shell,
        worst_sample=worst,
        backend=backend_name(),
        config={
            "radius_min": cfg.radius_min,
            "count": cfg.count,
            "seed": cfg.seed,
            "grid_eps": cfg.grid_eps,
            "tolerance": cfg.tolerance,
            "shells": cfg.shells,
            "coverage_threshold": cfg.coverage_threshold,
            "window": cfg.window,
        },
        span_condition=predicted.span_condition,
        torus_dims=torus_dims,
    )


def _fmt_param(p):
    """CSV text of one parameter (a Python float or complex); NaN pads."""
    if cmath.isnan(p):
        return ""
    if isinstance(p, complex):
        return repr(p.real) if p.imag == 0 else repr(p).replace(" ", "")
    return repr(p)


def write_sample_csv(path, shells, lat: Lattice, predicted, cfg):
    """CSV dump: shell, parameters, raw and reduced coordinates, distance.

    predicted may be None; without predicted components the distance
    column is NaN.
    """
    evaluators = None
    if predicted is not None and predicted.components:
        evaluators = [
            ComponentEvaluator(c, lat, cfg) for c in predicted.components
        ]
    max_params = max((sh.params.shape[1] for sh in shells), default=0)
    n = lat.ambient_dim
    header = ["shell_index"]
    header += [f"param_{i}" for i in range(max_params)]
    header += [f"raw_{i}" for i in range(n)]
    header += [f"reduced_{i}" for i in range(n)]
    header += ["min_distance"]
    lines = [",".join(header)]
    for sh in shells:
        reduced, _, _ = lat.reduce_points(sh.internal)
        if evaluators:
            dists = np.full(len(reduced), np.inf)
            for ev in evaluators:
                np.minimum(dists, ev.distances(reduced)[0], out=dists)
        else:
            dists = np.full(len(reduced), np.nan)
        # format Python scalars from tolist(): indexing numpy scalars one
        # element at a time costs more than the formatting itself
        rows = zip(
            sh.params.tolist(),
            sh.internal.tolist(),
            reduced.tolist(),
            dists.tolist(),
        )
        index = str(sh.index)
        for params, raw, red, dist in rows:
            row = [index]
            row += map(_fmt_param, params)
            row += map(repr, raw)
            row += map(repr, red)
            row.append(repr(dist))
            lines.append(",".join(row))
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")
    return len(lines) - 1
