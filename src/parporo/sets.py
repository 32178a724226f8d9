"""Closed-set models with parabolic distance oracles and freeness tests.

Every model is a nonempty closed subset of space-time.  It writes two
queries and its JSON form (``to_json``):

* ``meets_box(box)``            -- does E intersect the half-open box?
* ``dist_box_gap_span(box, p)`` -- the float pair (inf over the box closure
                                   of dist_p(., E), an upper bound on its sup)

The base class ``_RunAsBox`` derives the rest, and a model overrides one
only where it answers better:

* ``meets_run(addr, run)``      -- does E meet the run of ``run`` slabs of
                                   ``addr``'s column from ``addr`` on?
                                   ``meets_box`` on the run's box.
* ``distance(pt, p)``           -- certified bracket on dist_p(pt, E): the
                                   gap and span of the point as a box.
* ``cell_weight(box, q, p)``    -- ``(lo, hi, diverged, lower_only)`` for the
                                   integral of dist_p(., E)^(-q) over the box:
                                   ``|box| dist^(-q)`` at the span and the gap.
* ``time_invariant``, ``answers_unknown`` -- flags, both ``False``.

This module is the only one that knows a model's geometry.

``meets_box`` must be monotone under inclusion: a box it answers EMPTY
has no sub-box it answers otherwise.  ``meets_run`` is the lattice-native
form the free search asks, and it is monotone in the same way: it answers
``meets_box(addr.run_box(run))``, and a run's box contains the box of
every slab and sub-run of it.  The search relies on that when it tests a
run of slabs once and calls every slab of a missed run free.  Point clouds
answer it from the sorted times of the points in the run's column, found
once per column, without building the box; the other models take the
default.  Both read their faces from ``geometry``.

A model class sets ``time_invariant`` to ``True`` when E is a
product ``F x R`` (a spatial set crossed with the time axis), so that
``meets_box`` never reads the temporal bounds of its box.  The free search
then never splits a run of slabs that E meets: every slab of it would get
the same verdict.  It sets ``answers_unknown`` to ``True`` when
``meets_box`` or ``meets_run`` may answer ``UNKNOWN``.  A maximal-hole
search stops at its hole on a model that never does; on one that may, it
goes on testing the hole's level until it sees an ``UNKNOWN`` verdict, so
its ``unknown_present`` flag is the one a walk of the whole level gives.

The porosity side reads ``meets_run``; the weight integrator reads
``cell_weight``, and ``sup_distance_bracket`` brackets the sup from the
span and ``distance`` at probe points.  The first four variants answer
everything exactly.  The iterated-function-system variant walks cylinders
``f_w``, whose children ``f_w o f_i`` lie inside them, under a recursion
cap, and reports ``UNKNOWN`` rather than guessing.
"""

from __future__ import annotations

import heapq
import itertools
import math
from bisect import bisect_left
from dataclasses import dataclass
from enum import Enum
from operator import itemgetter
from typing import Optional, Sequence

import numpy as np

from .geometry import DyadicAddress, ParabolicRectangle
from .intervals import Interval, _down, _up

Point = tuple[float, ...]
AxisBounds = tuple[tuple[float, float], ...]
Box = tuple[AxisBounds, tuple[float, float]]
# (lo, hi, diverged, lower_only) for the weight integral over one cell
CellWeight = tuple[float, float, bool, bool]


class Freeness(Enum):
    EMPTY = "empty"        # rect does not meet E (rect is E-free)
    NONEMPTY = "nonempty"  # rect meets E
    UNKNOWN = "unknown"    # undecided under the recursion cap


def parabolic_distance(a: Sequence[float], b: Sequence[float], p: float) -> float:
    """max of the sup-norm spatial distance and |dt|^(1/p)."""
    if p <= 1:
        raise ValueError("parabolic exponent must exceed 1")
    *xa, ta = a
    *xb, tb = b
    if len(xa) != len(xb):
        raise ValueError("point dimension mismatch")
    spatial = max((abs(x - y) for x, y in zip(xa, xb)), default=0.0)
    return max(spatial, abs(ta - tb) ** (1.0 / p))


def _axis_gap(lo: float, hi: float, v: float) -> float:
    """Distance from v to the interval [lo, hi]."""
    if v < lo:
        return lo - v
    if v > hi:
        return v - hi
    return 0.0


def _axis_span(lo: float, hi: float, v: float) -> float:
    """Largest |x - v| over x in [lo, hi]."""
    return max(abs(lo - v), abs(hi - v))


def _interval_gap(alo: float, ahi: float, blo: float, bhi: float) -> float:
    return max(0.0, blo - ahi, alo - bhi)


def _interval_span(alo: float, ahi: float, blo: float, bhi: float) -> float:
    """Largest distance from a point of [alo, ahi] to the interval [blo, bhi]."""
    return max(_axis_gap(blo, bhi, alo), _axis_gap(blo, bhi, ahi))


def _halfopen_meets_closed(alo: float, ahi: float, blo: float, bhi: float) -> bool:
    """[alo, ahi) against [blo, bhi]."""
    return blo < ahi and bhi >= alo


# ---------------------------------------------------------------------------
# cell weights: bounds on the integral of dist_p(., E)^(-q) over one box
# ---------------------------------------------------------------------------


def _box_measure(box: Box) -> float:
    bounds, (tlo, thi) = box
    m = thi - tlo
    for lo, hi in bounds:
        m *= hi - lo
    return m


def _pow_neg(base: float, q: float) -> float:
    if base == 0.0:
        return math.inf
    return base ** (-q)


def _primitive_abs(u: float, q: float) -> float:
    """Antiderivative ``sign(u) F(|u|)`` of |u|^(-q) on either side of the
    origin, with ``F(r) = r^(1-q) / (1-q)`` (``log r`` at q = 1); it passes
    through the origin for q < 1."""
    r = abs(u)
    f = math.log(r) if q == 1.0 else r ** (1.0 - q) / (1.0 - q)
    return math.copysign(1.0, u) * f


def _around_product(a: float, b: float) -> tuple[float, float]:
    """``Interval.around(a) * Interval.around(b)`` as a float pair."""
    alo, ahi, blo, bhi = _down(a), _up(a), _down(b), _up(b)
    products = (alo * blo, alo * bhi, ahi * blo, ahi * bhi)
    return _down(min(products)), _up(max(products))


def _gap_span_weight(box: Box, q: float, inf_lo: float, sup_hi: float,
                     diverged: bool = False) -> CellWeight:
    """The cell weight from the distance bracket alone: ``|box| dist^(-q)``
    at the sup below and at the inf above.  A box that touches E gets an
    infinite upper bound, flagged ``diverged`` when the model says the
    integral is infinite there and lower-only otherwise."""
    measure = _box_measure(box)
    lo = measure * _pow_neg(sup_hi, q) if sup_hi > 0 else 0.0
    if inf_lo > 0.0:
        return lo, measure * _pow_neg(inf_lo, q), False, False
    return lo, math.inf, diverged, not diverged


# ---------------------------------------------------------------------------
# model variants
# ---------------------------------------------------------------------------


class _RunAsBox:
    """The base of every model: the queries a model may leave out, each
    derived from ``meets_box`` or ``dist_box_gap_span``."""

    time_invariant = False
    answers_unknown = False

    def meets_run(self, addr: DyadicAddress, run: int) -> Freeness:
        return self.meets_box(addr.run_box(run))

    def distance(self, pt: Sequence[float], p: float) -> Interval:
        """The gap and span of the point as a box."""
        *x, t = pt
        return Interval(*self.dist_box_gap_span((tuple(zip(x, x)), (t, t)), p))

    def cell_weight(self, box: Box, q: float, p: float) -> CellWeight:
        return _gap_span_weight(box, q, *self.dist_box_gap_span(box, p))


@dataclass(frozen=True)
class PointCloud(_RunAsBox):
    """Finite set of space-time points.

    Distance queries take minima over the points: for at most 12 points in
    one plain-float pass over them, split once into (spatial tuple, time),
    else over numpy arrays ``_xs``/``_ts`` sorted by time, as ``meets_box``.

    ``meets_run`` reads the sorted times of the points in the run's spatial
    column instead, found once per column by bisecting the points one
    spatial axis at a time.  A column's faces come from
    ``DyadicAddress.column_bounds`` and a run's from ``run_faces``; a column
    is fixed by the root's ``column_grid`` alone, so roots that differ only
    in time share it.  The cloud holds the columns of the grid it searched
    last and drops them when a root on another grid is searched, so memory
    stays flat over many roots.  The columns are found in
    plain floats: numpy would page in code that a search otherwise never
    runs, which shows in a short report's peak memory.
    """

    points: tuple[Point, ...]

    def __post_init__(self):
        if not self.points:
            raise ValueError("a closed-set model must be nonempty")
        dims = {len(pt) for pt in self.points}
        if len(dims) != 1:
            raise ValueError("all points must share a dimension")
        arr = np.asarray(self.points, dtype=float)
        if not np.isfinite(arr).all():
            raise ValueError("point coordinates must be finite")
        arr = arr[np.argsort(arr[:, -1], kind="stable")]
        object.__setattr__(self, "_xs", arr[:, :-1])
        object.__setattr__(self, "_ts", arr[:, -1])
        object.__setattr__(self, "_n", arr.shape[1] - 1)
        object.__setattr__(self, "_split", tuple((z[:-1], z[-1]) for z in self.points)
                           if len(self.points) <= 12 else None)
        # the held grid's origins; its columns' sorted times, keyed by cell
        # side and spatial index; the points of its slabs, keyed by their
        # first axes' bounds; and the points sorted along the first spatial
        # axis, sorted on the first column
        object.__setattr__(self, "_origins", None)
        object.__setattr__(self, "_columns", {})
        object.__setattr__(self, "_slabs", {})
        object.__setattr__(self, "_by_first_axis", None)

    def _gap_span_summary(self, box: Box, p: float
                          ) -> tuple[float, float, float, Sequence[float]]:
        """Over the points, with a point's gap and span the inf and an upper
        bound on the sup of its distance over the box closure: the least gap,
        the least span, the least positive gap (``inf`` when none), and the
        spans of the points at gap 0, in point order (time order for a
        large cloud).
        """
        bounds, (tlo, thi) = box
        n, inv = self._n, 1.0 / p
        if len(bounds) != n:
            raise ValueError("the cloud and the box differ in spatial dimension")
        if self._split is None:
            xs, ts = self._xs, self._ts
            lo, hi = np.asarray([b[0] for b in bounds]), np.asarray([b[1] for b in bounds])
            gaps = np.maximum(np.maximum(lo - xs, xs - hi), 0.0)
            spans = np.maximum(np.abs(lo - xs), np.abs(hi - xs))
            gaps = np.maximum(gaps.max(axis=1) if n else np.zeros(len(ts)),
                              np.maximum(np.maximum(tlo - ts, ts - thi), 0.0) ** inv)
            spans = np.maximum(spans.max(axis=1) if n else np.zeros(len(ts)),
                               np.maximum(np.abs(tlo - ts), np.abs(thi - ts)) ** inv)
            far = gaps > 0.0
            return (float(gaps.min()), float(spans.min()),
                    float(gaps[far].min(initial=math.inf)), spans[~far].tolist())
        inf_lo = sup_hi = far_gap = math.inf
        near = ()  # a list from the first point at gap 0
        for zx, zt in self._split:
            # per axis the gap and the larger end distance (x - lo and hi - x
            # are |lo - x| and |hi - x| bit for bit), maxima over the axes
            if n == 1:
                (xlo, xhi), = bounds
                x, = zx
                if x < xlo:
                    inf_sp, sup_sp = xlo - x, xhi - x
                elif x > xhi:
                    inf_sp, sup_sp = x - xhi, x - xlo
                else:
                    inf_sp, sup_sp = 0.0, x - xlo
                    if xhi - x > sup_sp:
                        sup_sp = xhi - x
            else:
                inf_sp = sup_sp = 0.0
                for (lo, hi), x in zip(bounds, zx):
                    gap, span = ((lo - x, hi - x) if x < lo else (x - hi, x - lo)
                                 if x > hi else (0.0, max(x - lo, hi - x)))
                    inf_sp, sup_sp = max(inf_sp, gap), max(sup_sp, span)
            if zt < tlo:
                g, sp = (tlo - zt) ** inv, (thi - zt) ** inv
            elif zt > thi:
                g, sp = (zt - thi) ** inv, (zt - tlo) ** inv
            else:  # 0.0 ** inv is 0.0
                g, sp = 0.0, (zt - tlo if zt - tlo >= thi - zt else thi - zt) ** inv
            if inf_sp > g:
                g = inf_sp
            if sup_sp > sp:
                sp = sup_sp
            if g < inf_lo:
                inf_lo = g
            if sp < sup_hi:
                sup_hi = sp
            if g > 0.0:
                if g < far_gap:
                    far_gap = g
            elif near:
                near.append(sp)
            else:
                near = [sp]
        return inf_lo, sup_hi, far_gap, near

    def dist_box_gap_span(self, box: Box, p: float) -> tuple[float, float]:
        """(inf over box of dist, an upper bound on sup over box of dist)."""
        return self._gap_span_summary(box, p)[:2]

    def cell_weight(self, box: Box, q: float, p: float) -> CellWeight:
        """The gap/span bound, closed on a cell that touches a point by the
        layer-cake bound, a sum of per-point bounds valid for q < n + p.

        It uses ``|{dist_p(., z) <= r}| = 2^(n+1) r^(n+p)`` twice: the plain
        ball integral up to the cell's sup distance, and the sharper variant
        with layer measures clipped at |cell|; the minimum of the two is
        sound.  The floats are those of ``_box_measure`` and ``_gap_span_weight``.
        """
        inf_lo, sup_hi, far_gap, near = self._gap_span_summary(box, p)
        bounds, (tlo, thi) = box
        measure = thi - tlo
        for lo, hi in bounds:
            measure *= hi - lo
        lo = measure * sup_hi ** -q if sup_hi > 0 else 0.0
        if inf_lo > 0.0:
            return lo, measure * inf_lo ** -q, False, False
        s = len(bounds) + p
        if q >= s:
            return lo, math.inf, True, False
        factor = s / (s - q)
        ball = 2.0 ** (len(bounds) + 1)
        clipped = measure ** (1.0 - q / s) * ball ** (q / s) * factor
        near_total = 0.0
        for sp in near:
            near_total += min(ball * factor * sp ** (s - q), clipped)
        hi = near_total + (0.0 if math.isinf(far_gap) else measure * far_gap ** -q)
        return min(lo, hi), hi, False, False

    def meets_box(self, box: Box) -> Freeness:
        bounds, (tlo, thi) = box
        # the points with tlo <= t < thi, by bisection of the sorted times
        first = self._ts.searchsorted(tlo, "left")
        stop = self._ts.searchsorted(thi, "left")
        if first >= stop:
            return Freeness.EMPTY
        if not self._xs.shape[1]:
            return Freeness.NONEMPTY
        xs = self._xs[first:stop]
        lo = np.asarray([b[0] for b in bounds])
        hi = np.asarray([b[1] for b in bounds])
        inside = ((xs >= lo) & (xs < hi)).all(axis=1)
        return Freeness.NONEMPTY if bool(inside.any()) else Freeness.EMPTY

    def meets_run(self, addr: DyadicAddress, run: int) -> Freeness:
        """``meets_box(addr.run_box(run))``, from the sorted times of the
        points in ``addr``'s column: one lookup and one bisection at the
        run's faces."""
        origins, w = addr.root.column_grid(addr.level)
        columns = self._columns
        if self._origins != origins:
            object.__setattr__(self, "_origins", origins)
            columns.clear()
            self._slabs.clear()
        key = (w, addr.spatial)
        times = columns.get(key)
        if times is None:
            times = columns[key] = self._column_times(addr)
        tlo, thi = addr.run_faces(run)
        i = bisect_left(times, tlo)
        return Freeness.NONEMPTY if i < len(times) and times[i] < thi else Freeness.EMPTY

    def _column_times(self, addr: DyadicAddress) -> list[float]:
        """The sorted times of the points in the half-open float box
        ``addr.column_bounds()``, so a point on the overlap of two
        neighbouring columns' rounded faces lies in both, and a point in a
        gap between them in neither.  The points are bisected one axis at a
        time: the slab within the first axes' bounds is kept in ``_slabs``,
        sorted along the next axis, so the columns of one slab share it and
        a column costs the points in its slab.
        """
        bounds = addr.column_bounds()
        if len(bounds) != self._n:
            raise ValueError("the cloud and the lattice differ in spatial dimension")
        rows = self._by_first_axis
        if rows is None:
            # the cloud's own tuples when they hold floats, which keeps the
            # sorted copy to one list of references
            rows = self.points
            if not all(type(v) is float for z in rows for v in z):
                rows = [tuple(map(float, z)) for z in rows]
            rows = sorted(rows, key=itemgetter(0))
            object.__setattr__(self, "_by_first_axis", rows)
        slabs = self._slabs
        for axis, (lo, hi) in enumerate(bounds):
            key = bounds[:axis + 1]
            slab = slabs.get(key)
            if slab is None:
                along = itemgetter(axis)
                slab = rows[bisect_left(rows, lo, key=along):bisect_left(rows, hi, key=along)]
                slab.sort(key=itemgetter(axis + 1))
                if axis + 1 < len(bounds):
                    slabs[key] = slab
            rows = slab
        return [z[-1] for z in rows]

    def to_json(self) -> dict:
        from .serialize import number_str
        return {"type": "points",
                "coords": [[number_str(c) for c in z] for z in self.points]}


@dataclass(frozen=True)
class BoxUnion(_RunAsBox):
    """Finite union of closed axis-aligned space-time boxes.

    Each box is ``(((xlo, xhi), ...), (tlo, thi))`` with closed faces.
    """

    boxes: tuple[Box, ...]

    def __post_init__(self):
        if not self.boxes:
            raise ValueError("a closed-set model must be nonempty")
        if len({len(bounds) for bounds, _ in self.boxes}) != 1:
            raise ValueError("all boxes must share a spatial dimension")
        for bounds, (tlo, thi) in self.boxes:
            for lo, hi in bounds:
                if lo > hi:
                    raise ValueError("degenerate spatial bounds")
            if tlo > thi:
                raise ValueError("degenerate temporal bounds")

    @property
    def is_null(self) -> bool:
        return all(any(lo == hi for lo, hi in bounds) or tlo == thi
                   for bounds, (tlo, thi) in self.boxes)

    def _box_range_single(self, b: Box, box: Box, p: float) -> tuple[float, float]:
        (ebounds, (etlo, ethi)) = b
        (qbounds, (qtlo, qthi)) = box
        inf_sp = max((_interval_gap(qlo, qhi, elo, ehi)
                      for (qlo, qhi), (elo, ehi) in zip(qbounds, ebounds)), default=0.0)
        sup_sp = max((_interval_span(qlo, qhi, elo, ehi)
                      for (qlo, qhi), (elo, ehi) in zip(qbounds, ebounds)), default=0.0)
        inf_t = _interval_gap(qtlo, qthi, etlo, ethi)
        sup_t = _interval_span(qtlo, qthi, etlo, ethi)
        inv = 1.0 / p
        return (max(inf_sp, inf_t ** inv), max(sup_sp, sup_t ** inv))

    def dist_box_gap_span(self, box: Box, p: float) -> tuple[float, float]:
        singles = [self._box_range_single(b, box, p) for b in self.boxes]
        return min(s[0] for s in singles), min(s[1] for s in singles)

    def cell_weight(self, box: Box, q: float, p: float) -> CellWeight:
        # a cell that touches a solid box meets E in positive measure
        return _gap_span_weight(box, q, *self.dist_box_gap_span(box, p),
                                diverged=not self.is_null)

    def meets_box(self, box: Box) -> Freeness:
        qbounds, (qtlo, qthi) = box
        for ebounds, (etlo, ethi) in self.boxes:
            spatial_ok = all(
                _halfopen_meets_closed(qlo, qhi, elo, ehi)
                for (qlo, qhi), (elo, ehi) in zip(qbounds, ebounds))
            if spatial_ok and _halfopen_meets_closed(qtlo, qthi, etlo, ethi):
                return Freeness.NONEMPTY
        return Freeness.EMPTY

    def to_json(self) -> dict:
        from .serialize import number_str
        return {"type": "boxes",
                "boxes": [{
                    "spatial": [[number_str(lo), number_str(hi)] for lo, hi in bounds],
                    "temporal": [number_str(tlo), number_str(thi)],
                } for bounds, (tlo, thi) in self.boxes]}


@dataclass(frozen=True)
class HalfSpaceTime(_RunAsBox):
    """Temporal half space ``{t >= t0}`` (future) or ``{t <= t0}`` (past)."""

    t0: float
    future: bool = True

    def dist_box_gap_span(self, box: Box, p: float) -> tuple[float, float]:
        _, (tlo, thi) = box
        inv = 1.0 / p
        if self.future:
            inf_g, sup_g = max(0.0, self.t0 - thi), max(0.0, self.t0 - tlo)
        else:
            inf_g, sup_g = max(0.0, tlo - self.t0), max(0.0, thi - self.t0)
        return inf_g ** inv, sup_g ** inv

    def cell_weight(self, box: Box, q: float, p: float) -> CellWeight:
        """The time antiderivative of the gap^(-q/p) times the spatial measure."""
        bounds, (tlo, thi) = box
        cross = 1.0
        for lo, hi in bounds:
            cross *= hi - lo
        s = q / p
        gap_lo = (self.t0 - thi) if self.future else (tlo - self.t0)
        gap_hi = (self.t0 - tlo) if self.future else (thi - self.t0)
        if gap_hi <= 0 or gap_lo < 0 or (gap_lo == 0.0 and s >= 1.0):
            # inside E or straddling its face (infinite weight on positive
            # measure), or a non-integrable singularity on the face
            return 0.0, math.inf, True, False
        if s == 1.0:
            line = math.log(gap_hi) - math.log(gap_lo)
        else:
            line = (gap_hi ** (1.0 - s) - gap_lo ** (1.0 - s)) / (1.0 - s)
        return (*_around_product(max(line, 0.0), cross), False, False)

    def meets_box(self, box: Box) -> Freeness:
        _, (tlo, thi) = box
        hit = self.t0 < thi if self.future else self.t0 >= tlo
        return Freeness.NONEMPTY if hit else Freeness.EMPTY

    def to_json(self) -> dict:
        from .serialize import number_str
        return {"type": "halfspace", "t0": number_str(self.t0),
                "direction": "future" if self.future else "past"}


@dataclass(frozen=True)
class SpatialHyperplane(_RunAsBox):
    """Hyperplane ``{x_axis = value}`` extended over all times."""

    axis: int
    value: float

    time_invariant = True

    def dist_box_gap_span(self, box: Box, p: float) -> tuple[float, float]:
        bounds, _ = box
        lo, hi = bounds[self.axis]
        return _axis_gap(lo, hi, self.value), _axis_span(lo, hi, self.value)

    def cell_weight(self, box: Box, q: float, p: float) -> CellWeight:
        """The antiderivative of |x_axis - value|^(-q) times the other sides."""
        bounds, (tlo, thi) = box
        lo, hi = bounds[self.axis]
        if q >= 1.0 and lo <= self.value <= hi:
            # genuinely divergent across the plane
            _, sup_hi = self.dist_box_gap_span(box, p)
            return _box_measure(box) * _pow_neg(sup_hi, q), math.inf, True, False
        cross = thi - tlo
        for j, (blo, bhi) in enumerate(bounds):
            if j != self.axis:
                cross *= bhi - blo
        line = _primitive_abs(hi - self.value, q) - _primitive_abs(lo - self.value, q)
        return (*_around_product(max(line, 0.0), cross), False, False)

    def meets_box(self, box: Box) -> Freeness:
        bounds, _ = box
        lo, hi = bounds[self.axis]
        return Freeness.NONEMPTY if lo <= self.value < hi else Freeness.EMPTY

    def to_json(self) -> dict:
        from .serialize import number_str
        return {"type": "hyperplane", "axis": self.axis, "value": number_str(self.value)}


@dataclass(frozen=True)
class IFSMap:
    """Spatial contraction ``x -> ratio*x + shift``."""

    ratio: float
    shift: tuple[float, ...]

    def __post_init__(self):
        if not 0.0 < self.ratio < 1.0:
            raise ValueError("IFS ratio must lie in (0, 1)")


# relative width at which IFS distance refinement stops, and the number of
# cylinders one IFS ``meets_box`` may visit before answering UNKNOWN
_IFS_TOL = 1e-12
_IFS_NODE_BUDGET = 50000


@dataclass(frozen=True)
class IFSFractal(_RunAsBox):
    """Product ``(spatial attractor) x R_t`` of contracting affine maps.

    E.g. the 1/3-Cantor set crossed with the time axis.  A cylinder of the
    word ``w`` is the affine map ``f_w = (ratio, shift)``; its children are
    ``f_w o f_i``, so each lies inside its parent, and its cell (the image
    of the root box) and its witness (the image of the first map's fixed
    point, an attractor point) are read off the map directly.  All three
    queries walk these cylinders down to ``depth_cap``: freeness is
    three-valued and distance brackets widen instead of failing silently.
    """

    maps: tuple[IFSMap, ...]
    p: float
    depth_cap: int = 24

    time_invariant = True
    answers_unknown = True

    def __post_init__(self):
        if not self.maps:
            raise ValueError("a closed-set model must be nonempty")
        if len({len(m.shift) for m in self.maps}) != 1:
            raise ValueError("all maps must share a spatial dimension")
        # the root box: a bound on the attractor, narrowed under the maps
        # until it is fixed or 200 rounds have run (the Cantor maps never
        # reach a fixed point in floats), once per model
        rmax = max(m.ratio for m in self.maps)
        bound = max(max(abs(s) for s in m.shift) for m in self.maps) / (1.0 - rmax) + 1.0
        box = [(-bound, bound)] * self.n
        for _ in range(200):
            nxt = []
            for j in range(self.n):
                lo = min(m.ratio * box[j][0] + m.shift[j] for m in self.maps)
                hi = max(m.ratio * box[j][1] + m.shift[j] for m in self.maps)
                nxt.append((lo, hi))
            if nxt == box:
                break
            box = nxt
        m0 = self.maps[0]
        object.__setattr__(self, "_box", tuple(box))
        object.__setattr__(self, "_fixed", tuple(s / (1.0 - m0.ratio) for s in m0.shift))

    @property
    def n(self) -> int:
        return len(self.maps[0].shift)

    def _children(self, ratio: float, shift: tuple[float, ...]):
        """The cylinders ``f_w o f_i`` below the cylinder ``f_w = (ratio, shift)``."""
        return [(ratio * m.ratio, tuple(s + ratio * ms for s, ms in zip(shift, m.shift)))
                for m in self.maps]

    def _inf_bracket(self, bounds: AxisBounds) -> tuple[float, float]:
        """Bracket on the spatial gap from the closed box ``bounds`` to the
        attractor: below, the smallest cylinder gap; above, the smaller of
        the witness gaps and a cylinder's gap plus its diameter.  Cylinders
        farther than the upper bound are pruned."""
        diam = max((hi - lo for lo, hi in self._box), default=0.0)
        frontier = [(1.0, (0.0,) * self.n)]
        above = math.inf
        for depth in range(self.depth_cap + 1):
            below = math.inf
            gaps = []
            for ratio, shift in frontier:
                gap = max((_interval_gap(qlo, qhi, ratio * lo + s, ratio * hi + s)
                           for (qlo, qhi), (lo, hi), s in zip(bounds, self._box, shift)),
                          default=0.0)
                seen = max((_axis_gap(qlo, qhi, ratio * v + s)
                            for (qlo, qhi), v, s in zip(bounds, self._fixed, shift)),
                           default=0.0)
                below = min(below, gap)
                above = min(above, seen, gap + ratio * diam)
                gaps.append(gap)
            if above - below <= _IFS_TOL * max(1.0, above) or depth == self.depth_cap:
                break
            frontier = [child for (ratio, shift), gap in zip(frontier, gaps) if gap <= above
                        for child in self._children(ratio, shift)]
        return min(below, above), above

    def dist_box_gap_span(self, box: Box, p: float) -> tuple[float, float]:
        bounds, _ = box
        # sup: E lies in the root box, so no box point is farther from E than
        # its span to the root box's center plus half the root's widest side
        sup_hi = max((_axis_span(qlo, qhi, (rl + rh) / 2)
                      for (qlo, qhi), (rl, rh) in zip(bounds, self._box)), default=0.0)
        sup_hi += max(rh - rl for rl, rh in self._box) / 2
        # nor than at its center plus its reach: dist(., C) is 1-Lipschitz
        c = tuple(0.5 * (qlo + qhi) for qlo, qhi in bounds)
        reach = _up(max((_axis_span(*b, v) for b, v in zip(bounds, c)), default=0.0))
        inf_lo, above = self._inf_bracket(bounds)
        center = tuple(zip(c, c))
        if center != bounds:  # a point box is its own center
            above = self._inf_bracket(center)[1]
        return inf_lo, min(sup_hi, _up(above + reach))

    def meets_box(self, box: Box) -> Freeness:
        bounds, _ = box
        if any(hi <= lo for lo, hi in bounds):
            return Freeness.EMPTY
        stack = [(0, 1.0, (0.0,) * self.n)]
        depth_limited = False
        visited = 0
        while stack:
            visited += 1
            if visited > _IFS_NODE_BUDGET:
                return Freeness.UNKNOWN
            depth, ratio, shift = stack.pop()
            # open overlap test per axis: [qlo, qhi) against the closed cell
            if not all(_halfopen_meets_closed(qlo, qhi, ratio * lo + s, ratio * hi + s)
                       for (qlo, qhi), (lo, hi), s in zip(bounds, self._box, shift)):
                continue
            if all(qlo <= ratio * v + s < qhi
                   for (qlo, qhi), v, s in zip(bounds, self._fixed, shift)):
                return Freeness.NONEMPTY
            if depth >= self.depth_cap:
                depth_limited = True
                continue
            stack += ((depth + 1, *child) for child in self._children(ratio, shift))
        return Freeness.UNKNOWN if depth_limited else Freeness.EMPTY

    def to_json(self) -> dict:
        from .serialize import number_str
        return {"type": "ifs", "p": number_str(self.p), "depth_cap": self.depth_cap,
                "maps": [{"ratio": number_str(m.ratio),
                          "shift": [number_str(s) for s in m.shift]} for m in self.maps]}


ClosedSetModel = PointCloud | BoxUnion | HalfSpaceTime | SpatialHyperplane | IFSFractal


def check_dimension(model: ClosedSetModel, n: int) -> None:
    """Refuse a model whose points, boxes or maps lack ``n`` spatial axes,
    or a hyperplane across an axis beyond them (half spaces have none)."""
    dims = ({len(z) - 1 for z in model.points} if isinstance(model, PointCloud) else
            {len(b) for b, _ in model.boxes} if isinstance(model, BoxUnion) else
            {len(m.shift) for m in model.maps} if isinstance(model, IFSFractal) else
            {n if 0 <= model.axis < n else -1} if isinstance(model, SpatialHyperplane) else {n})
    if dims != {n}:
        raise ValueError(f"the set does not fit the lattice's {n} spatial dimension(s)")


def _box_probe_points(box: Box) -> list[Point]:
    """Corners and center of a box (closure), used as sup-distance witnesses."""
    bounds, (tlo, thi) = box
    pts: list[Point] = []
    n = len(bounds)
    for mask in range(1 << n):
        x = tuple(bounds[j][1] if mask & (1 << j) else bounds[j][0] for j in range(n))
        pts.append((*x, tlo))
        pts.append((*x, thi))
    pts.append(tuple(0.5 * (lo + hi) for lo, hi in bounds) + (0.5 * (tlo + thi),))
    return pts


# ---------------------------------------------------------------------------
# public oracles
# ---------------------------------------------------------------------------


def distance_to_set(pt: Sequence[float], model: ClosedSetModel, p: float) -> Interval:
    """Certified bracket on dist_p(pt, E); zero width except for fractal
    models, which refine to a relative width of 1e-12 or their depth cap
    (the wide bracket then carries the loss, never a silent guess)."""
    return model.distance(tuple(float(v) for v in pt), p)


def rectangle_free(model: ClosedSetModel, rect: ParabolicRectangle, p: float) -> Freeness:
    """EMPTY iff the half-open body of ``rect`` misses E."""
    return model.meets_box(rect.box(p))


def sup_distance_bracket(model: ClosedSetModel, box: Box, p: float,
                         tol: float = 1e-9, max_cells: int = 20000) -> tuple[Interval, bool]:
    """Certified bracket on ``sup`` of dist_p(., E) over a box.

    A zero-width first bracket (one point, one box, a half space, the
    hyperplane) returns at once; otherwise branch-and-bound on halved
    boxes, splitting the parabolically longest axis, never time on a
    time-invariant model.  Returns ``(bracket, converged)``.
    """
    if model.time_invariant:  # the distance does not read time
        box = box[0], (box[1][0], box[1][0])
    first = _sup_bracket(model, box, p)
    if first.width <= tol:
        return first, True

    best_lo = first.lo
    heap: list[tuple[float, int, Box]] = [(-first.hi, 0, box)]
    counter = 1
    processed = 0
    while heap and processed < max_cells:
        neg_hi, _, cell = heapq.heappop(heap)
        if -neg_hi <= best_lo + tol:
            heapq.heappush(heap, (neg_hi, counter, cell))
            break
        for half in _split_box(cell, p):
            s = _sup_bracket(model, half, p)
            best_lo = max(best_lo, s.lo)
            heapq.heappush(heap, (-s.hi, counter, half))
            counter += 1
        processed += 1
    sup_hi = max(max((-h for h, _, _ in heap), default=best_lo), best_lo)
    return Interval(best_lo, sup_hi), sup_hi - best_lo <= tol


def _sup_bracket(model: ClosedSetModel, box: Box, p: float) -> Interval:
    """Bracket on the sup of dist_p(., E) over the box closure: the model's
    span bound above, the farthest probe point as the witness below."""
    _, hi = model.dist_box_gap_span(box, p)
    lo = max(model.distance(pt, p).lo for pt in _box_probe_points(box))
    return Interval(min(lo, hi), hi)


def _split_box(box: Box, p: float) -> tuple[Box, Box]:
    """The two halves of the box, lower half first, across its first widest
    spatial axis, or across time when the time side is parabolically longer."""
    bounds, (tlo, thi) = box
    if len(bounds) == 1:  # the rest, unrolled
        (lo, hi), = bounds
        if hi - lo >= (thi - tlo) ** (1.0 / p):
            mid = 0.5 * (lo + hi)
            return (((lo, mid),), (tlo, thi)), (((mid, hi),), (tlo, thi))
        mid = 0.5 * (tlo + thi)
        return (bounds, (tlo, mid)), (bounds, (mid, thi))
    j, widest = -1, -math.inf
    for i, (lo, hi) in enumerate(bounds):
        if hi - lo > widest:
            j, widest = i, hi - lo
    if j >= 0 and widest >= (thi - tlo) ** (1.0 / p):
        lo, hi = bounds[j]
        mid = 0.5 * (lo + hi)
        head, tail = bounds[:j], bounds[j + 1:]
        return (head + ((lo, mid),) + tail, (tlo, thi)), (head + ((mid, hi),) + tail, (tlo, thi))
    mid = 0.5 * (tlo + thi)
    return (bounds, (tlo, mid)), (bounds, (mid, thi))


# ---------------------------------------------------------------------------
# fixtures and JSON
# ---------------------------------------------------------------------------


def single_point(n: int = 1, at: Optional[Point] = None) -> PointCloud:
    return PointCloud((at if at is not None else (0.0,) * n + (0.0,),))


def integer_grid(n: int = 1, spatial_extent: int = 8, time_depth: int = 8,
                 spacing: float = 1.0, offset: float = 0.0) -> PointCloud:
    """Grid ``{(z*spacing + offset, -(m*spacing^p-ish)) : z, m integers}``, truncated."""
    pts: list[Point] = []
    rng = range(-spatial_extent, spatial_extent + 1)
    coords = [rng] * n
    for z in itertools.product(*coords):
        for m in range(0, time_depth + 1):
            pts.append(tuple(v * spacing + offset for v in z) + (-(m * spacing) + offset,))
    return PointCloud(tuple(pts))


def cantor_times_time(p: float = 2.0, depth_cap: int = 24) -> IFSFractal:
    """Middle-thirds Cantor set on the first axis crossed with the time axis."""
    return IFSFractal(
        maps=(IFSMap(ratio=1 / 3, shift=(0.0,)), IFSMap(ratio=1 / 3, shift=(2 / 3,))),
        p=p, depth_cap=depth_cap)


def set_to_json(model: ClosedSetModel, p: Optional[float] = None) -> dict:
    obj = model.to_json()
    if p is not None and "p" not in obj:
        from .serialize import number_str
        obj["p"] = number_str(p)
    return obj


def set_from_json(obj: dict) -> tuple[ClosedSetModel, Optional[float]]:
    from .serialize import parse_float, parse_number
    kind = obj.get("type")
    p = parse_number(obj["p"]) if "p" in obj else None
    if kind == "points":
        pts = tuple(tuple(parse_float(c) for c in row) for row in obj["coords"])
        return PointCloud(pts), p
    if kind == "boxes":
        boxes = []
        for b in obj["boxes"]:
            bounds = tuple((parse_float(lo), parse_float(hi))
                           for lo, hi in b["spatial"])
            tlo, thi = (parse_float(v) for v in b["temporal"])
            boxes.append((bounds, (tlo, thi)))
        return BoxUnion(tuple(boxes)), p
    if kind == "halfspace":
        return HalfSpaceTime(parse_float(obj["t0"]),
                             obj.get("direction", "future") == "future"), p
    if kind == "hyperplane":
        return SpatialHyperplane(int(obj["axis"]), parse_float(obj["value"])), p
    if kind == "ifs":
        # the model is a spatial attractor crossed with the time axis; older
        # definitions spell that out as "spatial_only": true and "t_shift": 0
        if obj.get("spatial_only", True) is not True:
            raise ValueError("an IFS set is a spatial attractor crossed with time: "
                             "spatial_only must be true")
        if any(parse_number(m.get("t_shift", 0)) != 0 for m in obj["maps"]):
            raise ValueError("an IFS set is a spatial attractor crossed with time: "
                             "t_shift must be 0")
        maps = tuple(IFSMap(parse_float(m["ratio"]),
                            tuple(parse_float(s) for s in m["shift"]))
                     for m in obj["maps"])
        return IFSFractal(maps, float(p if p is not None else 2.0),
                          int(obj.get("depth_cap", 24))), p
    raise ValueError(f"unknown set model type: {kind!r}")
